#include "support/failpoint.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

namespace rpt::fail {
namespace {

struct PointState {
  Action action = Action::kOff;
  std::uint64_t countdown = 0;  // fires when a Hit() decrements this to 0
  std::uint64_t param = 0;
  bool sticky = false;     // fire on every hit, never self-disarm
};

struct Registry {
  std::mutex mu;
  std::map<std::string, PointState, std::less<>> points;
};

// Number of currently-armed points. The Hit() fast path is a single relaxed
// load of this counter: zero means no registry lock, no map lookup, no
// observable effect — the cost of leaving failpoints compiled into release
// builds.
std::atomic<std::uint64_t> g_armed_count{0};

Registry& TheRegistry() {
  static Registry* r = new Registry;  // leaked: outlives all threads at exit
  return *r;
}

}  // namespace

void Arm(std::string_view point, Action action, std::uint64_t countdown,
         std::uint64_t param) {
  if (action == Action::kOff) {
    Disarm(point);
    return;
  }
  if (countdown == 0) countdown = 1;
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.points.find(point);
  if (it == reg.points.end()) {
    it = reg.points.emplace(std::string(point), PointState{}).first;
  }
  PointState& st = it->second;
  if (st.action == Action::kOff) {
    g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  st.action = action;
  st.countdown = countdown;
  st.param = param;
  st.sticky = false;
}

void ArmSticky(std::string_view point, Action action, std::uint64_t param) {
  if (action == Action::kOff) {
    Disarm(point);
    return;
  }
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.points.find(point);
  if (it == reg.points.end()) {
    it = reg.points.emplace(std::string(point), PointState{}).first;
  }
  PointState& st = it->second;
  if (st.action == Action::kOff) {
    g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  st.action = action;
  st.countdown = 1;
  st.param = param;
  st.sticky = true;
}

void Disarm(std::string_view point) {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.points.find(point);
  if (it != reg.points.end() && it->second.action != Action::kOff) {
    it->second.action = Action::kOff;
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAll() {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.points.clear();
  g_armed_count.store(0, std::memory_order_relaxed);
}

bool AnyArmed() noexcept {
  return g_armed_count.load(std::memory_order_relaxed) != 0;
}

Action Hit(std::string_view point, std::uint64_t* param_out) {
  if (g_armed_count.load(std::memory_order_relaxed) == 0) return Action::kOff;

  Action fired = Action::kOff;
  std::uint64_t param = 0;
  {
    Registry& reg = TheRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto it = reg.points.find(point);
    if (it == reg.points.end()) return Action::kOff;
    PointState& st = it->second;
    if (st.action == Action::kOff) return Action::kOff;
    if (st.sticky) {
      fired = st.action;  // sticky: fire on every hit, stay armed
      param = st.param;
    } else {
      if (--st.countdown > 0) return Action::kOff;
      fired = st.action;
      param = st.param;
      st.action = Action::kOff;  // one-shot: self-disarm on fire
      g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // Act outside the lock: kThrow unwinds, kCrash never returns, kDelay
  // must not stall other points.
  switch (fired) {
    case Action::kThrow:
      throw InjectedFault("failpoint '" + std::string(point) + "' fired");
    case Action::kCrash:
      std::_Exit(kCrashExitCode);
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(param));
      return Action::kOff;
    case Action::kError:
    case Action::kShortOp:
      if (param_out != nullptr) *param_out = param;
      return fired;
    case Action::kOff:
      break;
  }
  return Action::kOff;
}

}  // namespace rpt::fail

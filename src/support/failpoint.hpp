// Deterministic, seeded fault injection for the durability and serving
// layers (the WAL, checkpoint writer, and TCP front-end thread their I/O
// through named failpoints defined here).
//
// A failpoint is a named site in library code that calls fail::Hit("name").
// By default every site is unarmed and Hit() costs one relaxed atomic load —
// cheap enough to leave in release builds, which is the point: the crash
// paths the recovery oracle tests exercise are the exact bytes production
// runs.
//
// Tests (and the rpt_serve demo's --crash-at flag) arm a point with an
// Action and a countdown: the countdown-th Hit() of that point FIRES the
// action, and the point disarms itself (one-shot — re-arm for repeated
// faults; a deterministic trace therefore crashes at exactly one chosen
// point, which is what makes "kill at batch k, recover, diff against the
// uninterrupted run" a byte-exact oracle rather than a flaky race).
//
// The replication layer needs one more shape: a fault that PERSISTS — a
// network partition is not one lost frame but every frame until the link
// heals. ArmSticky() arms a point that fires on EVERY hit until Disarm() /
// DisarmAll(); the link-level sites in serve/repl_link.cpp are driven this
// way:
//
//   repl.link.drop     kError  — the frame about to be sent is discarded
//   repl.link.dup      kError  — the frame is sent twice back to back
//   repl.link.reorder  kError  — the frame is held and sent after the next
//   repl.link.delay    kDelay  — sleep `param` ms before the send
//   repl.partition     kError  — hard partition: EVERY replication frame in
//                                either direction is dropped (sticky: arm
//                                with ArmSticky, heal with Disarm)
//
// Actions:
//  * kThrow    — Hit() throws InjectedFault. The in-process crash
//                simulation: the caller's stack unwinds as if the operation
//                died mid-flight, and the test abandons the harness and runs
//                recovery. Honest for WAL durability because the WAL writes
//                with raw write(2): bytes handed to the kernel survive a
//                process death (only power loss eats the page cache, which
//                no in-process test can model anyway).
//  * kCrash    — Hit() calls std::_Exit(kCrashExitCode): a REAL process
//                death — no destructors, no stream flushing, torn state left
//                exactly as the crash instant had it. Used by the
//                bench_smoke crash-recovery leg via rpt_serve --crash-at.
//  * kError    — Hit() returns kError; the site reports the operation as
//                failed through its normal error path (e.g. the WAL treats
//                it as an fsync failure: repairs the file, throws
//                InternalError, and the harness degrades to stale serving).
//  * kShortOp  — Hit() returns kShortOp with `param`; an I/O site performs
//                only `param` bytes of the operation and then throws
//                InjectedFault — the canonical torn-write producer.
//  * kDelay    — Hit() sleeps `param` milliseconds, then continues (returns
//                kOff). Models a slow or hung peer; the TCP timeout tests
//                arm it inside the server's connection loop.
//
// Thread-safety: Arm/Disarm/Hit are safe from any thread (mutex-protected
// slow path). Determinism: with nothing armed, Hit() has no observable
// effect; the repo-wide bit-identical-reports contract is untouched.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rpt::fail {

/// Exit status used by Action::kCrash (chosen to look like a SIGKILL'd
/// process to the driving script).
inline constexpr int kCrashExitCode = 137;

enum class Action : std::uint8_t {
  kOff = 0,   ///< not armed, or countdown not yet reached — proceed normally
  kThrow,     ///< throw InjectedFault (in-process crash simulation)
  kCrash,     ///< std::_Exit(kCrashExitCode) — real, unflushed process death
  kError,     ///< site reports failure through its normal error path
  kShortOp,   ///< site performs only `param` bytes, then throws InjectedFault
  kDelay,     ///< sleep `param` ms, then proceed
};

/// Thrown by Action::kThrow / Action::kShortOp sites. Deliberately derived
/// from neither InvalidArgument nor InternalError: nothing in the library
/// catches it, so an injected crash always unwinds out to the test (or
/// kills the process under --crash-at), never gets absorbed as a routine
/// validation failure.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what) : std::runtime_error(what) {}
};

/// Arms `point`: the `countdown`-th Hit() from now fires `action` (1 =
/// the very next hit), then the point disarms itself. Re-arming replaces
/// any previous arming of the same point.
void Arm(std::string_view point, Action action, std::uint64_t countdown = 1,
         std::uint64_t param = 0);

/// Arms `point` persistently: EVERY Hit() from now on fires `action` until
/// Disarm()/DisarmAll(). The sticky shape models ongoing conditions (a
/// network partition, a saturated link) rather than point faults. kThrow /
/// kCrash are legal but fire on the first hit anyway; the intended use is
/// kError/kDelay.
void ArmSticky(std::string_view point, Action action, std::uint64_t param = 0);

/// Disarms `point` (no-op when not armed).
void Disarm(std::string_view point);

/// Disarms every point and forgets every countdown (test teardown).
void DisarmAll();

/// True iff any point is currently armed (the Hit() fast-path predicate,
/// exposed for tests).
[[nodiscard]] bool AnyArmed() noexcept;

/// The failpoint site. With nothing armed anywhere: one relaxed load, no
/// lock, returns kOff. When `point` is armed and its countdown reaches
/// zero: kThrow throws, kCrash exits, kDelay sleeps then returns kOff;
/// kError / kShortOp are returned to the caller (param written through
/// `param_out` when non-null) for the site to act on.
Action Hit(std::string_view point, std::uint64_t* param_out = nullptr);

/// RAII arming for tests: arms on construction, DisarmAll() on destruction
/// so a failing EXPECT cannot leak an armed point into the next test.
class ScopedArm {
 public:
  ScopedArm(std::string_view point, Action action, std::uint64_t countdown = 1,
            std::uint64_t param = 0) {
    Arm(point, action, countdown, param);
  }
  ScopedArm(const ScopedArm&) = delete;
  ScopedArm& operator=(const ScopedArm&) = delete;
  ~ScopedArm() { DisarmAll(); }
};

}  // namespace rpt::fail

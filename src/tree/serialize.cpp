#include "tree/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>
#include <string_view>

namespace rpt {

void WriteTree(std::ostream& os, const Tree& tree) {
  os << "rpt-tree v1\n" << tree.Size() << "\n";
  for (NodeId id = 0; id < tree.Size(); ++id) {
    os << id << ' ';
    if (tree.Parent(id) == kInvalidNode) {
      os << "- inf";
    } else {
      os << tree.Parent(id) << ' ' << tree.DistToParent(id);
    }
    os << ' ' << (tree.IsClient(id) ? 'C' : 'I') << ' ' << tree.RequestsOf(id) << '\n';
  }
}

std::string TreeToString(const Tree& tree) {
  std::ostringstream os;
  WriteTree(os, tree);
  return os.str();
}

namespace {

// Reads the next non-comment, non-blank line.
bool NextLine(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    return true;
  }
  return false;
}

// The most nodes a decoder reserves before it reads them: a count line alone
// may claim 2^32 - 2, so the columns grow as lines arrive, and a count that
// no lines back throws "truncated" having sized nothing by it.
constexpr std::uint64_t kMaxUpfrontReserve = std::uint64_t{1} << 16;

std::uint64_t ParseU64(std::string_view token, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  RPT_REQUIRE(ec == std::errc{} && ptr == token.data() + token.size(),
              std::string("ReadTree: malformed ") + what);
  return value;
}

}  // namespace

Tree ReadTree(std::istream& is) {
  std::string line;
  RPT_REQUIRE(NextLine(is, line), "ReadTree: empty input");
  {
    std::istringstream header(line);
    std::string magic, version;
    header >> magic >> version;
    RPT_REQUIRE(magic == "rpt-tree" && version == "v1", "ReadTree: bad header: " + line);
  }
  RPT_REQUIRE(NextLine(is, line), "ReadTree: missing node count");
  const std::uint64_t n = ParseU64(line, "node count");
  RPT_REQUIRE(n >= 1, "ReadTree: node count must be >= 1");
  RPT_REQUIRE(n < kInvalidNode, "ReadTree: too many nodes");

  TreeBuilder builder;
  builder.Reserve(std::min(n, kMaxUpfrontReserve));
  for (std::uint64_t expected = 0; expected < n; ++expected) {
    RPT_REQUIRE(NextLine(is, line), "ReadTree: truncated node list");
    std::istringstream row(line);
    std::string id_tok, parent_tok, delta_tok, kind_tok, req_tok;
    row >> id_tok >> parent_tok >> delta_tok >> kind_tok >> req_tok;
    RPT_REQUIRE(!req_tok.empty(), "ReadTree: malformed node line: " + line);
    RPT_REQUIRE(ParseU64(id_tok, "node id") == expected, "ReadTree: ids must be dense in order");
    const Requests requests = ParseU64(req_tok, "requests");
    if (parent_tok == "-") {
      RPT_REQUIRE(expected == 0, "ReadTree: only node 0 may be the root");
      RPT_REQUIRE(delta_tok == "inf", "ReadTree: root delta must be inf");
      RPT_REQUIRE(kind_tok == "I", "ReadTree: root must be internal");
      builder.AddRoot();
      continue;
    }
    const auto parent = static_cast<NodeId>(ParseU64(parent_tok, "parent id"));
    RPT_REQUIRE(delta_tok != "inf", "ReadTree: non-root delta must be finite");
    const Distance delta = ParseU64(delta_tok, "delta");
    if (kind_tok == "I") {
      RPT_REQUIRE(requests == 0, "ReadTree: internal nodes carry no requests");
      builder.AddInternal(parent, delta);
    } else if (kind_tok == "C") {
      builder.AddClient(parent, delta, requests);
    } else {
      detail::ThrowInvalid("ReadTree: node kind must be I or C: " + line);
    }
  }
  return builder.Build();
}

Tree TreeFromString(const std::string& text) {
  std::istringstream is(text);
  return ReadTree(is);
}

void WriteOverlay(std::ostream& os, const TreeOverlay& overlay) {
  const std::size_t n = overlay.Size();
  // child_rank from the live child lists — the columns store parent pointers
  // only; rank is what preserves post-migration child order on the wire.
  std::vector<std::uint32_t> rank(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    if (!overlay.IsLive(id) || overlay.IsClient(id)) continue;
    const auto kids = overlay.Children(id);
    for (std::size_t c = 0; c < kids.size(); ++c) rank[kids[c]] = static_cast<std::uint32_t>(c);
  }
  os << "rpt-overlay v1\n" << n << "\n";
  for (NodeId id = 0; id < n; ++id) {
    if (!overlay.IsLive(id)) {
      os << id << " 0 - inf I 0 0\n";  // canonical tombstone, stale columns ignored
      continue;
    }
    os << id << " 1 ";
    if (id == overlay.Root()) {
      os << "- inf";
    } else {
      os << overlay.Parent(id) << ' ' << overlay.DistToParent(id);
    }
    os << ' ' << (overlay.IsClient(id) ? 'C' : 'I') << ' ' << overlay.RequestsOf(id) << ' '
       << rank[id] << '\n';
  }
}

std::string OverlayToString(const TreeOverlay& overlay) {
  std::ostringstream os;
  WriteOverlay(os, overlay);
  return os.str();
}

TreeOverlay ReadOverlay(std::istream& is) {
  std::string line;
  RPT_REQUIRE(NextLine(is, line), "ReadOverlay: empty input");
  {
    std::istringstream header(line);
    std::string magic, version;
    header >> magic >> version;
    RPT_REQUIRE(magic == "rpt-overlay" && version == "v1", "ReadOverlay: bad header: " + line);
  }
  RPT_REQUIRE(NextLine(is, line), "ReadOverlay: missing slot count");
  const std::uint64_t n = ParseU64(line, "slot count");
  RPT_REQUIRE(n >= 1, "ReadOverlay: slot count must be >= 1");
  RPT_REQUIRE(n < kInvalidNode, "ReadOverlay: too many slots");

  std::vector<NodeKind> kind;
  std::vector<NodeId> parent;
  std::vector<Distance> delta;
  std::vector<Requests> requests;
  std::vector<std::uint8_t> alive;
  std::vector<std::uint32_t> child_rank;
  for (std::uint64_t expected = 0; expected < n; ++expected) {
    RPT_REQUIRE(NextLine(is, line), "ReadOverlay: truncated slot list");
    kind.push_back(NodeKind::kInternal);
    parent.push_back(kInvalidNode);
    delta.push_back(0);
    requests.push_back(0);
    alive.push_back(0);
    child_rank.push_back(0);
    std::istringstream row(line);
    std::string id_tok, alive_tok, parent_tok, delta_tok, kind_tok, req_tok, rank_tok;
    row >> id_tok >> alive_tok >> parent_tok >> delta_tok >> kind_tok >> req_tok >> rank_tok;
    RPT_REQUIRE(!rank_tok.empty(), "ReadOverlay: malformed slot line: " + line);
    RPT_REQUIRE(ParseU64(id_tok, "slot id") == expected,
                "ReadOverlay: ids must be dense in order");
    const std::uint64_t alive_bit = ParseU64(alive_tok, "alive flag");
    RPT_REQUIRE(alive_bit <= 1, "ReadOverlay: alive flag must be 0 or 1");
    if (alive_bit == 0) continue;  // FromColumns ignores dead slots' columns
    alive[expected] = 1;
    requests[expected] = ParseU64(req_tok, "requests");
    child_rank[expected] = static_cast<std::uint32_t>(ParseU64(rank_tok, "child rank"));
    if (kind_tok == "I") {
      kind[expected] = NodeKind::kInternal;
    } else if (kind_tok == "C") {
      kind[expected] = NodeKind::kClient;
    } else {
      detail::ThrowInvalid("ReadOverlay: node kind must be I or C: " + line);
    }
    if (parent_tok == "-") {
      RPT_REQUIRE(expected == 0, "ReadOverlay: only slot 0 may be the root");
      RPT_REQUIRE(delta_tok == "inf", "ReadOverlay: root delta must be inf");
      continue;  // parent stays kInvalidNode, delta is overridden by FromColumns
    }
    RPT_REQUIRE(delta_tok != "inf", "ReadOverlay: non-root delta must be finite");
    parent[expected] = static_cast<NodeId>(ParseU64(parent_tok, "parent id"));
    delta[expected] = ParseU64(delta_tok, "delta");
  }
  return TreeOverlay::FromColumns(kind, parent, delta, requests, alive, child_rank);
}

TreeOverlay OverlayFromString(const std::string& text) {
  std::istringstream is(text);
  return ReadOverlay(is);
}

void WriteDot(std::ostream& os, const Tree& tree, const std::string& graph_name) {
  os << "digraph " << graph_name << " {\n  rankdir=TB;\n";
  for (NodeId id = 0; id < tree.Size(); ++id) {
    if (tree.IsClient(id)) {
      os << "  n" << id << " [shape=box,label=\"c" << id << "\\nr=" << tree.RequestsOf(id)
         << "\"];\n";
    } else {
      os << "  n" << id << " [shape=circle,label=\"n" << id << "\"];\n";
    }
  }
  for (NodeId id = 1; id < tree.Size(); ++id) {
    os << "  n" << tree.Parent(id) << " -> n" << id << " [label=\"" << tree.DistToParent(id)
       << "\"];\n";
  }
  os << "}\n";
}

}  // namespace rpt

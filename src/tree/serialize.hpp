// Text serialization and Graphviz export for trees and overlays.
//
// Tree format (line oriented, '#' comments allowed):
//   rpt-tree v1
//   <node count n>
//   then n lines, one per node in id order:
//   <id> <parent|-> <delta|inf> <I|C> <requests>
// The root must be node 0 with parent '-' and delta 'inf'.
//
// Overlay format (same lexical rules):
//   rpt-overlay v1
//   <slot count n>
//   then n lines, one per slot in id order:
//   <id> <alive 0|1> <parent|-> <delta|inf> <I|C> <requests> <child_rank>
// Slot ids — including tombstones — are the wire contract: solver state is
// keyed by overlay id, so a round-trip must keep dead slots in place rather
// than compact them away. Dead slots serialize in a canonical form
// (`<id> 0 - inf I 0 0`) regardless of the stale column values they hold in
// memory. `child_rank` is the node's position in its parent's child list
// (live non-root nodes only; '-'/root lines carry 0) — child order is
// load-bearing after migrations, when it is no longer ascending-id.
//
// Both readers size their columns by the lines they read, not by the count
// line: a count below 2^32 - 1 that no lines back throws InvalidArgument
// ("truncated") having reserved at most 2^16 nodes.
#pragma once

#include <iosfwd>
#include <string>

#include "tree/tree.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt {

/// Writes the tree in the rpt-tree v1 text format.
void WriteTree(std::ostream& os, const Tree& tree);

/// Serializes to a string (convenience wrapper over WriteTree).
[[nodiscard]] std::string TreeToString(const Tree& tree);

/// Parses the rpt-tree v1 text format; throws InvalidArgument on malformed
/// input.
[[nodiscard]] Tree ReadTree(std::istream& is);

/// Parses from a string (convenience wrapper over ReadTree).
[[nodiscard]] Tree TreeFromString(const std::string& text);

/// Writes the overlay in the rpt-overlay v1 text format. Dead slots emit
/// their canonical form, so two overlays with equal live structure and equal
/// tombstone sets serialize byte-identically.
void WriteOverlay(std::ostream& os, const TreeOverlay& overlay);

/// Serializes to a string (convenience wrapper over WriteOverlay).
[[nodiscard]] std::string OverlayToString(const TreeOverlay& overlay);

/// Parses the rpt-overlay v1 text format and revalidates the full overlay
/// invariant set via TreeOverlay::FromColumns; throws InvalidArgument on
/// malformed input or an invariant violation.
[[nodiscard]] TreeOverlay ReadOverlay(std::istream& is);

/// Parses from a string (convenience wrapper over ReadOverlay).
[[nodiscard]] TreeOverlay OverlayFromString(const std::string& text);

/// Emits a Graphviz DOT rendering: internal nodes as circles, clients as
/// boxes labelled with their request counts, edges labelled with δ.
void WriteDot(std::ostream& os, const Tree& tree, const std::string& graph_name = "rpt");

}  // namespace rpt

// Small table formatter used by the benchmark harness to print paper-style
// result tables to stdout and to write machine-readable CSV next to them.
//
// Ownership: a Table owns its cells (strings). Thread-safety: none — build
// and print from one thread (reports are assembled after the parallel phase
// ends). Determinism: output is a pure function of the added cells;
// FormatCompactDouble prints doubles with round-trip precision and no
// locale dependence, so emitted JSON/CSV bytes are machine-independent for
// deterministic inputs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace rpt {

/// A column-oriented results table. Cells are stored as strings; numeric
/// convenience overloads format with stable precision so CSV output is
/// reproducible.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row. Must be followed by exactly one Add*() per column.
  Table& NewRow();

  /// Appends a string cell to the current row.
  Table& Add(std::string_view value);

  /// Appends an unsigned integer cell.
  Table& Add(std::uint64_t value);

  /// Appends an int cell (disambiguates literals).
  Table& Add(int value) { return Add(std::to_string(value)); }

  /// Appends a floating cell formatted with the given number of decimals.
  Table& Add(double value, int decimals = 3);

  /// Number of data rows so far.
  [[nodiscard]] std::size_t RowCount() const noexcept { return rows_.size(); }

  /// Renders an aligned ASCII table.
  void PrintAscii(std::ostream& os) const;

  /// Renders RFC-4180-ish CSV (fields with commas/quotes are quoted).
  void PrintCsv(std::ostream& os) const;

  /// Writes CSV to a file path; throws on I/O failure.
  void WriteCsvFile(const std::string& path) const;

 private:
  void CheckRowWidth() const;

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rpt

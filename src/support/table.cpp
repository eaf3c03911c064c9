#include "support/table.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "support/common.hpp"

namespace rpt {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  RPT_REQUIRE(!headers_.empty(), "Table: at least one column required");
}

Table& Table::NewRow() {
  if (!rows_.empty()) CheckRowWidth();
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::Add(std::string_view value) {
  RPT_REQUIRE(!rows_.empty(), "Table: NewRow() before Add()");
  RPT_REQUIRE(rows_.back().size() < headers_.size(), "Table: too many cells in row");
  rows_.back().emplace_back(value);
  return *this;
}

Table& Table::Add(std::uint64_t value) { return Add(std::to_string(value)); }

Table& Table::Add(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return Add(std::string_view(buf));
}

void Table::CheckRowWidth() const {
  RPT_REQUIRE(rows_.back().size() == headers_.size(), "Table: row has missing cells");
}

void Table::PrintAscii(std::ostream& os) const {
  if (!rows_.empty()) CheckRowWidth();
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };
  print_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) os << std::string(widths[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

namespace {
void PrintCsvField(std::ostream& os, const std::string& field) {
  const bool needs_quote = field.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quote) {
    os << field;
    return;
  }
  os << '"';
  for (char ch : field) {
    if (ch == '"') os << '"';
    os << ch;
  }
  os << '"';
}
}  // namespace

void Table::PrintCsv(std::ostream& os) const {
  if (!rows_.empty()) CheckRowWidth();
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) os << ',';
    PrintCsvField(os, headers_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      PrintCsvField(os, row[c]);
    }
    os << '\n';
  }
}

void Table::WriteCsvFile(const std::string& path) const {
  std::ofstream out(path);
  RPT_REQUIRE(out.good(), "Table: cannot open CSV output file: " + path);
  PrintCsv(out);
  RPT_REQUIRE(out.good(), "Table: write failed for CSV output file: " + path);
}

}  // namespace rpt

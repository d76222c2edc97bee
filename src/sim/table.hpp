// Aligned plain-text tables: the output format of every benchmark binary.
// Each bench prints the same rows the corresponding EXPERIMENTS.md section
// records, so results regenerate by re-running the binary.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sfs::sim {

/// A simple column-aligned table with a title and typed cell helpers.
class Table {
 public:
  Table(std::string title, std::vector<std::string> headers);

  /// Starts a new row; fill it with cell()/num() calls.
  Table& row();

  /// Appends a string cell to the current row.
  Table& cell(std::string value);

  /// Appends a number formatted with `precision` significant decimals.
  Table& num(double value, int precision = 3);

  /// Appends an integer cell.
  Table& integer(std::uint64_t value);

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::string& title() const noexcept { return title_; }

  /// Renders with column alignment, a title line and a rule.
  void print(std::ostream& out) const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (shared by Table and ad-hoc
/// prints).
[[nodiscard]] std::string format_double(double value, int precision = 3);

}  // namespace sfs::sim

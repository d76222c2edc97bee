#include "sim/table.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "base/check.hpp"

namespace sfs::sim {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {
  SFS_REQUIRE(!headers_.empty(), "table needs at least one column");
}

Table& Table::row() {
  SFS_CHECK(rows_.empty() || rows_.back().size() == headers_.size(),
            "previous row is incomplete");
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(std::string value) {
  SFS_REQUIRE(!rows_.empty(), "call row() before adding cells");
  SFS_REQUIRE(rows_.back().size() < headers_.size(), "row overflow");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::num(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::integer(std::uint64_t value) {
  return cell(std::to_string(value));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  }

  out << "== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string{};
      out << std::left << std::setw(static_cast<int>(width[c]) + 2) << v;
    }
    out << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (const std::size_t w : width) total += w + 2;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
  out.flush();
}

}  // namespace sfs::sim

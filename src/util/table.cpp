#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/require.hpp"

namespace fne {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  FNE_REQUIRE(!headers_.empty(), "a table needs at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(const std::string& value) {
  FNE_REQUIRE(!rows_.empty(), "call row() before cell()");
  FNE_REQUIRE(rows_.back().size() < headers_.size(), "row has more cells than headers");
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  std::ostringstream os;
  // `precision` significant digits, except that a magnitude >= 10^precision
  // prints as a whole number ("130", not "1e+02") — a table of
  // milliseconds must stay readable.
  if (std::fabs(value) >= std::pow(10.0, precision)) {
    os << std::fixed << std::setprecision(0) << value;
  } else {
    os << std::setprecision(precision) << value;
  }
  return cell(os.str());
}

Table& Table::cell(std::size_t value) { return cell(std::to_string(value)); }
Table& Table::cell(long long value) { return cell(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) widths[c] = std::max(widths[c], r[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string{};
      os << ' ' << v << std::string(widths[c] - v.size(), ' ') << " |";
    }
    os << '\n';
  };
  print_row(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) os << std::string(widths[c] + 2, '-') << "|";
  os << '\n';
  for (const auto& r : rows_) print_row(r);
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) os << ',';
    os << csv_escape(headers_[c]);
  }
  os << '\n';
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(r[c]);
    }
    os << '\n';
  }
}

std::string format_pm(double value, double halfwidth, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << value << " ± " << std::setprecision(2) << halfwidth;
  return os.str();
}

}  // namespace fne

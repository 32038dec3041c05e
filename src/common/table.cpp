#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace xl {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  XL_REQUIRE(!header_.empty(), "table needs at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& value) {
  XL_REQUIRE(!rows_.empty(), "call row() before cell()");
  XL_REQUIRE(rows_.back().size() < header_.size(), "row has more cells than columns");
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return cell(os.str());
}

Table& Table::cell(std::size_t value) { return cell(std::to_string(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string();
      os << "| " << text << std::string(widths[c] - text.size(), ' ') << " ";
    }
    os << "|\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << "|" << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string format_bytes(double bytes) {
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  int unit = 0;
  double v = bytes;
  while (std::fabs(v) >= 1024.0 && unit < 5) {
    v /= 1024.0;
    ++unit;
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(unit == 0 ? 0 : 2) << v << " " << units[unit];
  return os.str();
}

std::string format_seconds(double seconds) {
  std::ostringstream os;
  const double abs = std::fabs(seconds);
  if (abs < 1e-6) {
    os << std::fixed << std::setprecision(0) << seconds * 1e9 << " ns";
  } else if (abs < 1e-3) {
    os << std::fixed << std::setprecision(1) << seconds * 1e6 << " us";
  } else if (abs < 1.0) {
    os << std::fixed << std::setprecision(2) << seconds * 1e3 << " ms";
  } else if (abs < 600.0) {
    os << std::fixed << std::setprecision(2) << seconds << " s";
  } else {
    const long total = static_cast<long>(seconds);
    os << total / 60 << "m" << total % 60 << "s";
  }
  return os.str();
}

std::string format_percent(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << "%";
  return os.str();
}

}  // namespace xl

// ASCII table writer used by every bench binary to print the reproduced
// figure/table series in a uniform, diff-friendly format.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace xl {

/// Column-aligned text table. Cells are strings; numeric helpers format with
/// fixed precision so bench output is stable across runs.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Begin a new row; subsequent cell() calls append to it.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(const char* value) { return cell(std::string(value)); }
  Table& cell(double value, int precision = 2);
  Table& cell(std::size_t value);
  Table& cell(int value);

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Render with a rule under the header, columns padded to widest cell.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a byte count with binary units ("1.50 GiB").
std::string format_bytes(double bytes);

/// Format seconds adaptively ("834 us", "1.23 s", "12m34s").
std::string format_seconds(double seconds);

/// Format a ratio as a percentage ("87.11%").
std::string format_percent(double fraction, int precision = 2);

}  // namespace xl

// ASCII table/series rendering for the experiment harness.
//
// The benches, the examples and `ccredf_sweep --table` print their
// results through Table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ccredf::analysis {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Defines the column headers; call once, before add_row.
  void columns(std::vector<std::string> headers);

  class Row {
   public:
    explicit Row(Table& t) : t_(t) {}
    Row& cell(const std::string& s);
    Row& cell(const char* s) { return cell(std::string(s)); }
    Row& cell(double v, int precision = 3);
    Row& cell(std::int64_t v);
    Row& cell(int v) { return cell(static_cast<std::int64_t>(v)); }
    Row& pct(double fraction, int precision = 2);  // renders "12.34%"

   private:
    Table& t_;
  };

  /// Starts a new row; fill it with chained cell() calls.
  Row row();

  /// A full-width annotation line under the last row.
  void note(std::string text);

  /// Prints the ASCII rendering.
  void print(std::ostream& os) const;
  [[nodiscard]] std::string str() const;

  [[nodiscard]] std::size_t row_count() const { return cells_.size(); }

 private:
  friend class Row;
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
  std::vector<std::pair<std::size_t, std::string>> notes_;  // after row i
};

/// Convenience formatters shared by benches.
[[nodiscard]] std::string format_si(double v, const char* unit);

}  // namespace ccredf::analysis

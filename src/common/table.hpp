// ASCII table printer used by the benchmark harnesses to regenerate the
// paper's tables and figure data series in a readable form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cms {

/// Column-aligned plain-text table. Cells are strings; numeric helpers
/// format with fixed precision. Rendered with a header rule, suitable for
/// terminal output and for diffing.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  /// Fluent row builder: tbl.row().cell("x").num(1.5).done();
  class RowBuilder {
   public:
    explicit RowBuilder(Table& t) : table_(t) {}
    RowBuilder& cell(std::string v);
    RowBuilder& num(double v, int precision = 2);
    RowBuilder& integer(std::int64_t v);
    void done();

   private:
    Table& table_;
    std::vector<std::string> cells_;
  };
  RowBuilder row() { return RowBuilder(*this); }

  std::string render() const;
  void print() const;

  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  static std::string format_num(double v, int precision = 2);
  static std::string format_int(std::int64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Section banner for bench output, e.g. "==== Table 1 ... ====".
void print_banner(const std::string& title);

}  // namespace cms

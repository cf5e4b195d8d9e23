// Plain-text table and horizontal-bar rendering. Every `tfi figures` table
// prints through this helper, so output formatting is uniform across
// experiments.
#pragma once

#include <string>
#include <vector>

namespace tfsim {

// A simple left/right-aligned column table with a header row.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);
  void AddSeparator();

  // Renders with column widths fitted to contents. Numeric-looking cells are
  // right-aligned, text cells left-aligned.
  std::string Render() const;

 private:
  std::vector<std::string> header_;
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };
  std::vector<Row> rows_;
};

// Formats a double with the given number of decimals.
std::string Fmt(double v, int decimals = 1);

// Formats "value% ± ci%" for a proportion in [0,1].
std::string FmtPct(double value, double ci95);

// Renders a 0..1 value as a fixed-width ASCII bar, e.g. "#####....." — used
// for the stacked-bar figures.
std::string Bar(double fraction, int width = 40, char fill = '#');

// Renders a stacked bar from segment fractions (summing to <= 1) using one
// glyph per segment, in order. Width is total characters.
std::string StackedBar(const std::vector<double>& fractions,
                       const std::string& glyphs, int width = 50);

}  // namespace tfsim

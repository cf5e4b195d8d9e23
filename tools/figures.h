// `tfi figures`: regenerates the paper's Table 1, Table 2 and Figures 3-11,
// plus the extension figures, in one process (see tools/figures.cpp).
#pragma once

#include <string>
#include <vector>

namespace tfsim {

// Statistical effort and execution knobs of every figure.
struct FigureOptions {
  int trials = 500;       // trials per workload per campaign
  int points = 12;        // checkpoints (start points) per golden run
  int soft_trials = 100;  // Section 5 trials per workload per fault model
  int jobs = 1;           // trial-loop worker threads; 0 = all hardware threads
  bool progress = false;  // per-campaign progress lines on stderr
  // When non-empty, a metrics-registry JSON snapshot of every campaign the
  // figures needed (each counted once) is written here at the end.
  std::string metrics_json;
};

// Prints the named figures to stdout in the order given; no name means the
// paper's ten (table1, fig3 ... fig11). Returns 0, or 2 after listing the
// valid names on stderr when a name is unknown (before anything runs).
int RunFigures(const std::vector<std::string>& names, const FigureOptions& opt);

}  // namespace tfsim

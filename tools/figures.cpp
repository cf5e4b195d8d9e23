// `tfi figures [name ...]`: the paper's results and the extension figures,
// each a function over shared campaign results.
//
// Several figures read the same campaigns (fig3/4/6/7/8/10 all read the
// latches+RAMs baseline suite), so the campaigns are memoized for the life
// of the process by their cache key: each distinct campaign is run, or
// loaded from the results cache, once however many figures print it.
// Section 5 campaigns are memoized the same way.
#include "figures.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "inject/cache.h"
#include "inject/campaign.h"
#include "inject/report.h"
#include "inject/sweep.h"
#include "obs/metrics.h"
#include "soft/soft_inject.h"
#include "uarch/core.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

using SoftSums = std::array<SoftCampaignResult, kNumSoftFaultModels>;

// The campaigns behind the figures, run once each.
class Runs {
 public:
  explicit Runs(const FigureOptions& o) : o_(o) {
    opt_.jobs = o.jobs;
    opt_.obs.progress = o.progress;
    if (!o.metrics_json.empty()) opt_.obs.sinks.metrics = &metrics_;
  }
  // opt_ points at metrics_.
  Runs(const Runs&) = delete;
  Runs& operator=(const Runs&) = delete;

  const CampaignOptions& campaign_options() const { return opt_; }

  // The stock campaign every figure derives from: `protect` toggles the
  // Section 4 mechanisms, include_ram selects latches+RAMs vs latches.
  CampaignSpec BaseSpec(bool include_ram,
                        const ProtectionConfig& protect) const {
    CampaignSpec spec;
    spec.include_ram = include_ram;
    spec.core.protect = protect;
    spec.trials = o_.trials;
    spec.golden.points = o_.points;
    return spec;
  }

  const CampaignResult& Campaign(const CampaignSpec& spec) {
    const std::string key = spec.CacheKey();
    auto it = campaigns_.find(key);
    if (it != campaigns_.end()) return it->second;
    CampaignResult r = RunCampaign(spec, opt_);
    if (!r.quarantined.empty())
      std::fprintf(stderr,
                   "[figures] warning: %zu quarantined trial(s) in %s — "
                   "excluded from outcome percentages\n",
                   r.quarantined.size(), r.spec.workload.c_str());
    return campaigns_.emplace(key, std::move(r)).first->second;
  }

  // `spec` over the ten-workload suite, in suite order.
  std::vector<CampaignResult> Suite(CampaignSpec spec) {
    std::vector<CampaignResult> out;
    for (const auto& w : AllWorkloads()) {
      spec.workload = w.name;
      out.push_back(Campaign(spec));
    }
    return out;
  }

  // The suite aggregate of the stock campaign (the paper's "aggregate" bars).
  CampaignResult Aggregate(bool include_ram, const ProtectionConfig& protect) {
    return MergeResults(Suite(BaseSpec(include_ram, protect)));
  }

  // `spec` merged over the {gzip, gcc, mcf} subset the extension figures
  // use; `suffix` selects a hardened variant ("+sw", ...).
  CampaignResult Subset(CampaignSpec spec, const std::string& suffix = "") {
    std::vector<CampaignResult> parts;
    for (const char* b : {"gzip", "gcc", "mcf"}) {
      spec.workload = b + suffix;
      parts.push_back(Campaign(spec));
    }
    return MergeResults(parts);
  }

  // Section 5 outcome counts per fault model, summed over `workloads`. Each
  // workload's models run back to back, so the per-thread reference memo
  // records one fault-free reference per workload, not one per spec.
  SoftSums SumSoft(const std::vector<std::string>& workloads,
                   const std::vector<SoftFaultModel>& models) {
    SoftSums total;
    for (const std::string& w : workloads) {
      for (SoftFaultModel m : models) {
        SoftCampaignSpec spec;
        spec.workload = w;
        spec.model = m;
        spec.trials = o_.soft_trials;
        spec.iters = 8;
        const SoftCampaignResult& r = Soft(spec);
        SoftCampaignResult& sum = total[static_cast<int>(m)];
        for (int o = 0; o < kNumSoftOutcomes; ++o)
          sum.by_outcome[o] += r.by_outcome[o];
        sum.state_ok_with_divergence += r.state_ok_with_divergence;
        sum.trials += r.trials;
      }
    }
    return total;
  }

  void WriteMetrics() const {
    if (o_.metrics_json.empty()) return;
    std::ofstream f(o_.metrics_json);
    if (!f) throw std::runtime_error("cannot write " + o_.metrics_json);
    metrics_.WriteJson(f);
  }

 private:
  const SoftCampaignResult& Soft(const SoftCampaignSpec& spec) {
    const auto key =
        std::make_tuple(spec.workload, static_cast<int>(spec.model), spec.iters,
                        spec.trials, spec.seed, spec.max_insn_factor);
    auto it = soft_.find(key);
    if (it != soft_.end()) return it->second;
    return soft_.emplace(key, RunSoftCampaign(spec)).first->second;
  }

  FigureOptions o_;
  obs::MetricsRegistry metrics_;
  CampaignOptions opt_;
  std::map<std::string, CampaignResult> campaigns_;
  std::map<std::tuple<std::string, int, std::uint64_t, int, std::uint64_t,
                      std::uint64_t>,
           SoftCampaignResult>
      soft_;
};

// --- shared rendering --------------------------------------------------------

void PrintHeader(const std::string& figure, const std::string& description) {
  std::printf("=============================================================\n");
  std::printf("%s\n%s\n", figure.c_str(), description.c_str());
  std::printf("=============================================================\n");
}

// One outcome mix as "match term sdc gray" percentage cells plus a stacked
// bar (M=match, T=terminated, S=SDC, .=gray area).
std::vector<std::string> OutcomeCells(
    const std::array<std::uint64_t, kNumOutcomes>& counts) {
  // Percentages are over the paper's four outcomes: quarantined trials
  // (Outcome::kTrialError) are sample holes, not machine behaviour, and
  // Runs::Campaign reports them separately.
  std::uint64_t total = 0;
  for (int i = 0; i < kNumPaperOutcomes; ++i) total += counts[i];
  std::vector<std::string> cells;
  std::vector<double> fractions;
  // Paper bar order: uArch Match, Terminated, SDC, Gray Area.
  for (int i = 0; i < kNumPaperOutcomes; ++i) {
    const double f =
        total ? static_cast<double>(counts[i]) / static_cast<double>(total)
              : 0.0;
    fractions.push_back(f);
    cells.push_back(Fmt(100.0 * f, 1));
  }
  cells.push_back(StackedBar(fractions, "MTS.", 40));
  return cells;
}

// The 14 baseline categories in the paper's Table 1 order.
const std::vector<StateCat> kTable1Cats = {
    StateCat::kAddr,        StateCat::kArchFreelist, StateCat::kArchRat,
    StateCat::kCtrl,        StateCat::kData,         StateCat::kInsn,
    StateCat::kPc,          StateCat::kQctrl,        StateCat::kRegfile,
    StateCat::kRegptr,      StateCat::kRobptr,       StateCat::kSpecFreelist,
    StateCat::kSpecRat,     StateCat::kValid,
};

// The baseline categories plus the protection state of Section 4.
std::vector<StateCat> ProtectedCats() {
  std::vector<StateCat> cats = kTable1Cats;
  cats.push_back(StateCat::kEcc);
  cats.push_back(StateCat::kParity);
  return cats;
}

// Figures 4, 5 and 9: the outcome mix of each category that drew trials.
void PrintCategoryOutcomes(const CampaignResult& agg,
                           const std::vector<StateCat>& cats) {
  TextTable t({"category", "trials", "uArch match%", "Term%", "SDC%", "Gray%",
               "M=match T=term S=SDC .=gray"});
  for (StateCat cat : cats) {
    const auto n = agg.TrialsForCat(cat);
    if (n == 0) continue;
    auto cells = OutcomeCells(agg.ByOutcomeForCat(cat));
    cells.insert(cells.begin(), std::to_string(n));
    cells.insert(cells.begin(), StateCatName(cat));
    t.AddRow(cells);
  }
  std::fputs(t.Render().c_str(), stdout);
}

// Figures 8 and 10: each category's share of all SDC+Terminated trials,
// for the categories that drew trials. Returns the printed shares.
std::vector<std::pair<StateCat, double>> PrintFailureShares(
    const CampaignResult& agg, const std::vector<StateCat>& cats) {
  std::uint64_t total_failed = 0;
  for (const auto& t : agg.trials)
    if (t.outcome == Outcome::kSdc || t.outcome == Outcome::kTerminated)
      ++total_failed;

  std::vector<std::pair<StateCat, double>> shares;
  TextTable t({"category", "failures", "share%", "bar"});
  for (StateCat cat : cats) {
    if (agg.TrialsForCat(cat) == 0) continue;
    const auto o = agg.ByOutcomeForCat(cat);
    const std::uint64_t failed = o[static_cast<int>(Outcome::kSdc)] +
                                 o[static_cast<int>(Outcome::kTerminated)];
    const double share =
        total_failed ? static_cast<double>(failed) / total_failed : 0.0;
    shares.emplace_back(cat, share);
    t.AddRow({StateCatName(cat), std::to_string(failed), Fmt(100.0 * share, 1),
              Bar(share, 40, '#')});
  }
  std::fputs(t.Render().c_str(), stdout);
  return shares;
}

// --- the figures -------------------------------------------------------------

// Table 1: bits of latches and RAM cells per state category, printed beside
// the paper's numbers. Absolute counts differ (our model stores the
// instruction word in the ROB and carries predicted targets explicitly —
// see DESIGN.md) but the relative populations track the paper.
struct PaperRow {
  StateCat cat;
  const char* description;
  long paper_latch;  // -1 where the scanned table is incomplete
  long paper_ram;
};

// From Table 1 of the paper (blank cells in the scan are marked -1).
const PaperRow kPaperTable1[] = {
    {StateCat::kAddr, "64-bit address fields for memory operations", 384, 3584},
    {StateCat::kArchFreelist, "architectural register free list", 0, 336},
    {StateCat::kArchRat, "architectural register alias table", 0, 224},
    {StateCat::kCtrl, "misc control words and state machines", -1, -1},
    {StateCat::kData, "instruction input and output operands", 5899, 2820},
    {StateCat::kInsn, "instruction-word bits", -1, 2016},
    {StateCat::kPc, "62-bit program counter fields", 1984, 12480},
    {StateCat::kQctrl, "queue control state", 176, 0},
    {StateCat::kRegfile, "65-bit register file + scoreboard", 80, 5200},
    {StateCat::kRegptr, "7-bit physical register pointers", 978, 1852},
    {StateCat::kRobptr, "6-bit ROB tags", 352, 444},
    {StateCat::kSpecFreelist, "speculative register free list", 0, 336},
    {StateCat::kSpecRat, "speculative register alias table", 0, 224},
    {StateCat::kValid, "valid bits throughout the pipeline", 263, 124},
};

std::string OrDash(long v) { return v < 0 ? "?" : std::to_string(v); }

void Table1(Runs&) {
  PrintHeader("Table 1 — state category inventory",
              "Bits of latches / RAM arrays per category: this model "
              "vs the paper's");
  Program prog = BuildWorkload(AllWorkloads()[0], kCampaignIters);
  Core core(CoreConfig{}, prog);

  TextTable t({"category", "ours latch", "ours RAM", "paper latch",
               "paper RAM", "description"});
  std::uint64_t latch = 0, ram = 0;
  for (const PaperRow& row : kPaperTable1) {
    const auto inv = core.registry().Inventory(row.cat);
    latch += inv.latch_bits;
    ram += inv.ram_bits;
    t.AddRow({StateCatName(row.cat), std::to_string(inv.latch_bits),
              std::to_string(inv.ram_bits), OrDash(row.paper_latch),
              OrDash(row.paper_ram), row.description});
  }
  t.AddSeparator();
  t.AddRow({"total (injected)", std::to_string(latch), std::to_string(ram),
            "~14000", "~31000", "paper Section 2.2"});
  std::fputs(t.Render().c_str(), stdout);

  // Protection-state overhead (Section 4.3: 3061 extra bits, ~2/3 RAM).
  Core prot(CoreConfig{.protect = ProtectionConfig::All()}, prog);
  const auto base = core.registry().TotalInjectable();
  const auto with = prot.registry().TotalInjectable();
  const std::uint64_t extra = with.latch_bits + with.ram_bits -
                              base.latch_bits - base.ram_bits;
  std::printf(
      "\nProtection-state overhead: %llu bits (%llu latch, %llu RAM) on "
      "%llu baseline bits = %.1f%%  [paper: 3061 extra bits on ~45K, ~6.8%%, "
      "roughly two-thirds RAM]\n",
      (unsigned long long)extra,
      (unsigned long long)(with.latch_bits - base.latch_bits),
      (unsigned long long)(with.ram_bits - base.ram_bits),
      (unsigned long long)(base.latch_bits + base.ram_bits),
      100.0 * (double)extra / (double)(base.latch_bits + base.ram_bits));
}

// Figure 3: outcome mix per benchmark, for the latches+RAMs campaign and the
// latches-only campaign. Paper headline: ~85% of latch+RAM faults and ~88%
// of latch-only faults are masked; ~3% Gray Area; the rest are
// SDC/Terminated, with gzip/bzip2 (high IPC) failing most.
void Fig3Campaign(Runs& runs, bool include_ram) {
  const char* tag = include_ram ? "latches+RAMs (l+r)" : "latches only (l)";
  std::printf("\n--- injections into %s ---\n", tag);
  const auto suite =
      runs.Suite(runs.BaseSpec(include_ram, ProtectionConfig::None()));

  TextTable t({"benchmark", "uArch match%", "Term%", "SDC%", "Gray%",
               "M=match T=term S=SDC .=gray", "IPC"});
  for (const auto& r : suite) {
    auto cells = OutcomeCells(r.ByOutcome());
    cells.insert(cells.begin(), r.spec.workload);
    cells.push_back(Fmt(r.golden_ipc, 2));
    t.AddRow(cells);
  }
  const CampaignResult agg = MergeResults(suite);
  t.AddSeparator();
  auto cells = OutcomeCells(agg.ByOutcome());
  cells.insert(cells.begin(), "aggregate");
  cells.push_back(Fmt(agg.golden_ipc, 2));
  t.AddRow(cells);
  std::fputs(t.Render().c_str(), stdout);

  const auto o = agg.ByOutcome();
  const auto masked = MakeProportion(
      o[static_cast<int>(Outcome::kMicroArchMatch)], agg.trials.size());
  const auto fail = agg.FailureRate();
  std::printf(
      "aggregate: masked %s   failures %s   [paper: %s masked ~%s, failures "
      "~%s]\n",
      FmtPct(masked.value, masked.ci95).c_str(),
      FmtPct(fail.value, fail.ci95).c_str(), tag,
      include_ram ? "85%" : "88%", include_ram ? "12%" : "9%");
}

void Fig3(Runs& runs) {
  PrintHeader("Figure 3 — outcomes by benchmark",
              "Single-bit transient faults injected uniformly over "
              "eligible pipeline state, 10k-cycle observation window");
  Fig3Campaign(runs, true);
  Fig3Campaign(runs, false);
}

// Figure 4: outcome mix per state category for injections into
// latches+RAMs. Paper observations: archrat, regfile, specrat and
// specfreelist are especially vulnerable (architectural state!); qctrl and
// valid have high fail rates but few bits; data fails least.
void Fig4(Runs& runs) {
  PrintHeader("Figure 4 — outcomes by state category (latches+RAMs)",
              "Aggregate over the 10-benchmark suite");
  PrintCategoryOutcomes(runs.Aggregate(true, ProtectionConfig::None()),
                        kTable1Cats);
  std::printf(
      "\n[paper: archrat/regfile/specrat/specfreelist most vulnerable; "
      "data least; qctrl/valid fail often but are few bits]\n");
}

// Figure 5: the same for injections into latches only. Latch-only masking
// is higher than latch+RAM masking overall (latches are less utilized than
// RAM payload bits).
void Fig5(Runs& runs) {
  PrintHeader("Figure 5 — outcomes by state category (latches only)",
              "Aggregate over the 10-benchmark suite");
  PrintCategoryOutcomes(runs.Aggregate(false, ProtectionConfig::None()),
                        kTable1Cats);
}

// Figure 6: correlation between pipeline utilization and masking — benign
// rate (uArch Match + Gray Area) vs number of valid (will-commit)
// instructions in flight at injection time, with a least-squares trendline.
// Paper: a clear negative trend, yet ~70% of faults remain benign even with
// the pipeline nearly full.
void Fig6(Runs& runs) {
  PrintHeader("Figure 6 — benign fault rate vs valid instructions",
              "Latches+RAMs campaign; each bucket is an average over "
              "trials with that many valid in-flight instructions");
  const CampaignResult agg = runs.Aggregate(true, ProtectionConfig::None());

  // Bucket by valid-instruction count (8-wide bins over 0..131).
  constexpr int kBin = 8;
  constexpr int kMaxInFlight = 132;
  std::array<std::uint64_t, kMaxInFlight / kBin + 1> benign{}, total{};
  std::vector<double> xs, ys;
  for (const auto& t : agg.trials) {
    const int bin = static_cast<int>(t.valid_instrs) / kBin;
    if (bin >= static_cast<int>(total.size())) continue;
    ++total[bin];
    const bool is_benign = t.outcome == Outcome::kMicroArchMatch ||
                           t.outcome == Outcome::kGrayArea;
    if (is_benign) ++benign[bin];
    xs.push_back(static_cast<double>(t.valid_instrs));
    ys.push_back(is_benign ? 1.0 : 0.0);
  }

  TextTable t({"valid insns", "trials", "benign%", "bar"});
  for (std::size_t b = 0; b < total.size(); ++b) {
    if (total[b] == 0) continue;
    const double rate =
        static_cast<double>(benign[b]) / static_cast<double>(total[b]);
    t.AddRow({std::to_string(b * kBin) + "-" + std::to_string(b * kBin + kBin - 1),
              std::to_string(total[b]), Fmt(100.0 * rate, 1),
              Bar(rate, 40, '#')});
  }
  std::fputs(t.Render().c_str(), stdout);

  // Machine-readable scatter for external plotting.
  const std::string csv_path = CacheDir() + "/fig6_scatter.csv";
  if (std::ofstream csv(csv_path); csv) {
    WriteUtilizationCsv(agg, csv);
    std::printf("\n(scatter data written to %s)\n", csv_path.c_str());
  }

  const LinearFit fit = FitLeastSquares(xs, ys);
  std::printf(
      "\nleast-squares trendline: benign%% = %.3f %+.4f * valid_insns "
      "(r^2=%.3f over %zu trials)\n",
      100.0 * fit.intercept, 100.0 * fit.slope, fit.r2, xs.size());
  std::printf(
      "[paper: negative slope; ~70%% of faults still benign with the "
      "pipeline nearly full (132 in flight)]\n");
}

// Table 2 + Figure 7: breakdown of failed trials into the seven failure
// modes, per state category (latches+RAMs campaign). Paper: register file
// inconsistencies dominate (from regfile/RAT/freelist/regptr corruption);
// pipeline deadlock is the second leading source.
void Fig7(Runs& runs) {
  PrintHeader("Table 2 / Figure 7 — failure modes by category",
              "Failed (SDC or Terminated) trials only; latches+RAMs");

  // Table 2: the failure-mode taxonomy.
  TextTable t2({"failure", "type", "description"});
  t2.AddRow({"ctrl", "SDC", "control flow violation - incorrect insn executed"});
  t2.AddRow({"dtlb", "SDC", "non-speculative access to an invalid virtual page"});
  t2.AddRow({"except", "Term.", "an exception was generated"});
  t2.AddRow({"itlb", "SDC", "processor redirected to an invalid virtual page"});
  t2.AddRow({"locked", "Term.", "deadlock or livelock detected"});
  t2.AddRow({"mem", "SDC", "memory inconsistent"});
  t2.AddRow({"regfile", "SDC", "register file inconsistent"});
  std::fputs(t2.Render().c_str(), stdout);
  std::printf("\n");

  const CampaignResult agg = runs.Aggregate(true, ProtectionConfig::None());

  static const FailureMode kModes[] = {
      FailureMode::kCtrl, FailureMode::kDtlb,   FailureMode::kExcept,
      FailureMode::kItlb, FailureMode::kLocked, FailureMode::kMem,
      FailureMode::kRegfile};
  std::vector<std::string> header = {"category"};
  for (FailureMode m : kModes) header.push_back(FailureModeName(m));
  header.push_back("failed/total");
  TextTable t(header);
  // One row: the mode counts, then failed/total.
  const auto row = [&](const std::string& name,
                       const std::array<std::uint64_t, kNumFailureModes>& modes,
                       std::uint64_t n) {
    std::vector<std::string> cells = {name};
    std::uint64_t failed = 0;
    for (FailureMode m : kModes) {
      cells.push_back(std::to_string(modes[static_cast<int>(m)]));
      failed += modes[static_cast<int>(m)];
    }
    cells.push_back(std::to_string(failed) + "/" + std::to_string(n));
    t.AddRow(cells);
  };
  for (StateCat cat : kTable1Cats) {
    const auto n = agg.TrialsForCat(cat);
    if (n == 0) continue;
    row(StateCatName(cat), agg.ByFailureModeForCat(cat), n);
  }
  t.AddSeparator();
  row("all", agg.ByFailureMode(), agg.trials.size());
  std::fputs(t.Render().c_str(), stdout);
  std::printf(
      "\n[paper: regfile-mode SDC dominates, driven by regfile/RAT/freelist/"
      "regptr corruption; locked is the second leading source]\n");
}

// Figure 8: relative contribution of each state category to the total
// number of failures (SDC + Terminated), unprotected machine. Paper: the
// register file, alias tables, free lists and register pointer fields
// together account for the bulk of all failures.
void Fig8(Runs& runs) {
  PrintHeader("Figure 8 — category contributions to failures",
              "Share of all SDC+Terminated trials, latches+RAMs, "
              "unprotected");
  double reg_related = 0.0;
  for (const auto& [cat, share] : PrintFailureShares(
           runs.Aggregate(true, ProtectionConfig::None()), kTable1Cats))
    if (cat == StateCat::kRegfile || cat == StateCat::kArchRat ||
        cat == StateCat::kSpecRat || cat == StateCat::kArchFreelist ||
        cat == StateCat::kSpecFreelist || cat == StateCat::kRegptr)
      reg_related += share;
  std::printf(
      "\nregister-related categories (regfile+RATs+freelists+regptr): %.1f%% "
      "of all failures  [paper: \"a large fraction\" — the protection "
      "mechanisms target exactly these]\n",
      100.0 * reg_related);
}

// Figure 9: outcome mix per state category with all four Section 4
// protection mechanisms enabled (latches+RAMs; protection state itself —
// the ecc and parity categories — is injected too). Paper observations:
// archfreelist/archrat/insn/regfile/specfreelist/specrat failures drop
// sharply; insn trials move from uArch Match to Gray Area (parity-triggered
// recovery flushes); timeout-counter recoveries turn locked failures into
// Gray Area.
void Fig9(Runs& runs) {
  PrintHeader("Figure 9 — outcomes by category, protected machine",
              "Timeout counter + regfile ECC + regptr ECC + insn "
              "parity; protection state is injectable");
  const CampaignResult agg = runs.Aggregate(true, ProtectionConfig::All());
  PrintCategoryOutcomes(agg, ProtectedCats());
  const auto fail = agg.FailureRate();
  std::printf("\noverall failure rate (protected): %s\n",
              FmtPct(fail.value, fail.ci95).c_str());
}

std::uint64_t TotalBits(const CampaignResult& r) {
  std::uint64_t bits = 0;
  for (const auto& inv : r.inventory) bits += inv.latch_bits + inv.ram_bits;
  return bits;
}

// Figure 10 + the Section 4.4 headline: category contributions to failures
// on the protected machine, and the overall failure-rate reduction after
// normalizing for the extra (mostly non-vulnerable) protection state.
// Paper: failures become dominated by pc/ctrl/data; after accounting for a
// ~7% higher fault rate from the added state, the mechanisms reduce the
// known failure rate by approximately 75%.
void Fig10(Runs& runs) {
  PrintHeader("Figure 10 — failure contributions, protected machine",
              "Share of SDC+Terminated trials with all protections on");
  const CampaignResult base = runs.Aggregate(true, ProtectionConfig::None());
  const CampaignResult prot = runs.Aggregate(true, ProtectionConfig::All());
  PrintFailureShares(prot, ProtectedCats());

  // Section 4.4 headline: failure-rate reduction, normalized for the larger
  // injected-state population (higher raw fault rate).
  const Proportion base_fail = base.FailureRate();
  const Proportion prot_fail = prot.FailureRate();
  const double bits_ratio = static_cast<double>(TotalBits(prot)) /
                            static_cast<double>(TotalBits(base));
  const double reduction =
      1.0 - (prot_fail.value * bits_ratio) / base_fail.value;
  std::printf(
      "\nunprotected failure rate: %s\nprotected   failure rate: %s\n"
      "state overhead factor: %.3fx\n"
      "failure-rate reduction (fault-rate normalized): %.1f%%  "
      "[paper: ~75%% after a ~7%% state-overhead adjustment]\n",
      FmtPct(base_fail.value, base_fail.ci95).c_str(),
      FmtPct(prot_fail.value, prot_fail.ci95).c_str(), bits_ratio,
      100.0 * reduction);
}

// Figure 11: architectural-level fault injection on the functional
// simulator under the six Section 5 fault models, averaged across the
// benchmark suite. Paper: roughly half of all trials reach complete
// architectural state convergence (State OK); 10-20% of State OK trials in
// the first five models had transiently divergent control flow.
void Fig11(Runs& runs) {
  PrintHeader("Figure 11 — software-level fault models",
              "Architectural fault injection on the functional "
              "simulator, averaged over the 10-benchmark suite");
  std::vector<std::string> workloads;
  for (const auto& w : AllWorkloads()) workloads.push_back(w.name);
  std::vector<SoftFaultModel> models;
  for (int m = 0; m < kNumSoftFaultModels; ++m)
    models.push_back(static_cast<SoftFaultModel>(m));
  const SoftSums sums = runs.SumSoft(workloads, models);

  TextTable t({"fault model", "Exception%", "State OK%", "Output OK%",
               "Output Bad%", "StateOK w/ ctrl-flow div%"});
  for (SoftFaultModel m : models) {
    const SoftCampaignResult& total = sums[static_cast<int>(m)];
    const auto n = static_cast<double>(total.trials);
    const auto pct = [&](SoftOutcome o) {
      return Fmt(100.0 * total.by_outcome[static_cast<int>(o)] / n, 1);
    };
    const std::uint64_t sok =
        total.by_outcome[static_cast<int>(SoftOutcome::kStateOk)];
    t.AddRow({SoftFaultModelName(m), pct(SoftOutcome::kException),
              pct(SoftOutcome::kStateOk), pct(SoftOutcome::kOutputOk),
              pct(SoftOutcome::kOutputBad),
              Fmt(sok ? 100.0 * total.state_ok_with_divergence / sok : 0.0,
                  1)});
  }
  std::fputs(t.Render().c_str(), stdout);
  std::printf(
      "\n[paper: ~50%% State OK across models — about half the errors that "
      "escape the hardware are masked by software; 10-20%% of State OK "
      "trials under models 1-5 saw transient control-flow divergence]\n");
}

// Ablation (beyond the paper): each protection mechanism enabled alone, on
// the three-benchmark subset, attributing the failure-rate reduction per
// mechanism. The paper motivates each mechanism qualitatively (Section 4.2);
// this figure quantifies them individually.
void Ablation(Runs& runs) {
  PrintHeader("Ablation — protection mechanisms in isolation",
              "Failure rate on {gzip, gcc, mcf} with each Section 4 "
              "mechanism toggled individually");
  struct Config {
    const char* name;
    ProtectionConfig p;
  };
  const Config kConfigs[] = {
      {"baseline (none)", ProtectionConfig::None()},
      {"timeout counter only", {.timeout_counter = true}},
      {"regfile ECC only", {.regfile_ecc = true}},
      {"regptr ECC only", {.regptr_ecc = true}},
      {"insn parity only", {.insn_parity = true}},
      {"all four", ProtectionConfig::All()},
  };

  CampaignResult base;
  TextTable t({"configuration", "failure rate", "reduction vs baseline"});
  for (const Config& c : kConfigs) {
    const CampaignResult r = runs.Subset(runs.BaseSpec(true, c.p));
    const Proportion f = r.FailureRate();
    std::string red = "-";
    if (c.p.Any()) {
      const double b = base.FailureRate().value;
      if (b > 0) red = Fmt(100.0 * (1.0 - f.value / b), 1) + "%";
    } else {
      base = r;
    }
    t.AddRow({c.name, FmtPct(f.value, f.ci95), red});
  }
  std::fputs(t.Render().c_str(), stdout);
  std::printf(
      "\n(reduction here is raw, not normalized for added state; see "
      "bench_fig10 for the paper's normalized 75%% figure)\n");
}

// Extension beyond the paper: multi-bit fault models. Section 6 flags the
// single-bit-flip assumption as a threat to validity; this figure measures
// how masking degrades under spatially correlated (adjacent) and
// independent multi-bit upsets on the three-benchmark subset.
void Multibit(Runs& runs) {
  PrintHeader("Extension — multi-bit fault models",
              "Outcome mix on {gzip, gcc, mcf} as the upset grows "
              "beyond the paper's single-bit model");
  struct Model {
    const char* name;
    int flips;
    bool adjacent;
  };
  const Model kModels[] = {
      {"single bit (paper)", 1, false},
      {"2 adjacent bits", 2, true},
      {"2 independent bits", 2, false},
      {"4-bit adjacent burst", 4, true},
      {"4 independent bits", 4, false},
  };

  TextTable t({"fault model", "uArch match%", "Term%", "SDC%", "Gray%",
               "M=match T=term S=SDC .=gray", "fail rate"});
  for (const Model& m : kModels) {
    CampaignSpec spec = runs.BaseSpec(true, ProtectionConfig::None());
    spec.flips = m.flips;
    spec.adjacent = m.adjacent;
    const CampaignResult r = runs.Subset(spec);
    auto cells = OutcomeCells(r.ByOutcome());
    cells.insert(cells.begin(), m.name);
    const Proportion f = r.FailureRate();
    cells.push_back(FmtPct(f.value, f.ci95));
    t.AddRow(cells);
  }
  std::fputs(t.Render().c_str(), stdout);
  std::printf(
      "\n[expectation: masking declines roughly linearly in the number of "
      "independent flips\n(each flip is an independent chance to land in "
      "live state); adjacent bursts within one\nfield degrade less than "
      "independent flips spread across structures]\n");
}

// Extension beyond the paper: geometry sensitivity sweep. The paper
// characterizes one fixed Alpha-21264-class shape; related AVF work ("Not
// All Faults Are Equal", PAPERS.md) shows vulnerability is a strong
// function of structure sizing because bigger queues run emptier. This
// sweeps each sized structure through the default geometry suite (ROB
// 16-128, scheduler 8-64, LQ/SQ 4-32, phys-regs 48-128, pipeline width 2-8)
// and plots per-structure vulnerability against golden-run utilization —
// the figure the sweep layer exists to produce.
void Sensitivity(Runs& runs) {
  PrintHeader("Extension — geometry sensitivity (gzip)",
              "Per-structure failure rate vs golden-run utilization "
              "as each structure is resized around the paper's shape");

  const CampaignSpec base = runs.BaseSpec(true, ProtectionConfig::None());
  SweepSpec spec;
  spec.workload = "gzip";
  spec.trials = base.trials;
  spec.golden = base.golden;
  const SweepResult r = RunSweep(spec, "", runs.campaign_options());

  TextTable pts({"axis", "point", "IPC", "fail rate"});
  for (const SweepPointResult& p : r.points)
    pts.AddRow({p.point.axis, p.point.label, Fmt(p.golden_ipc, 2),
                Fmt(100.0 * p.failure_rate, 1) + "%"});
  std::fputs(pts.Render().c_str(), stdout);

  // The figure: one curve per sized structure, every sweep point that has
  // both coordinates, ordered by utilization (same grouping as the JSON
  // "curves" object WriteSweepJson emits).
  std::map<std::string,
           std::vector<std::pair<const SweepPointResult*,
                                 const StructureCell*>>> curves;
  for (const SweepPointResult& p : r.points)
    for (const StructureCell& c : p.structures)
      if (c.utilization >= 0.0 && c.trials > 0)
        curves[c.structure].push_back({&p, &c});

  for (auto& [structure, cells] : curves) {
    std::stable_sort(cells.begin(), cells.end(),
                     [](const auto& a, const auto& b) {
                       return a.second->utilization < b.second->utilization;
                     });
    std::printf("\nstructure: %s\n", structure.c_str());
    TextTable t({"point", "util%", "vuln%", "trials", "vulnerability"});
    for (const auto& [p, c] : cells)
      t.AddRow({p->point.label, Fmt(100.0 * c->utilization, 1),
                Fmt(100.0 * c->vulnerability, 1),
                std::to_string(c->trials), Bar(c->vulnerability, 30)});
    std::fputs(t.Render().c_str(), stdout);
  }

  std::printf(
      "\n[expectation: within one structure, vulnerability rises with "
      "utilization — shrinking a\nqueue packs it fuller, so a larger "
      "fraction of its bits are architecturally live; points\nfrom other "
      "axes move a structure's utilization without resizing it and should "
      "fall on\nthe same curve]\n");
}

std::uint64_t Sample(const CampaignResult& r) {
  const auto by = r.ByOutcome();
  std::uint64_t sample = 0;
  for (int i = 0; i < kNumPaperOutcomes; ++i) sample += by[i];
  return sample;
}

Proportion Rate(const CampaignResult& r, Outcome o) {
  return MakeProportion(r.ByOutcome()[static_cast<int>(o)], Sample(r));
}

// SDC restricted to a corrupted memory image / output stream — the part of
// the architectural state the program's own stores produce, and the only
// part duplication-with-compare-before-store claims to guard. Whole-state
// SDC additionally counts divergence in the shadow registers themselves,
// which the hardened variants *add* to the architectural surface.
Proportion MemSdcRate(const CampaignResult& r) {
  return MakeProportion(
      r.ByFailureMode()[static_cast<int>(FailureMode::kMem)], Sample(r));
}

// Extension (beyond the paper): hardware vs software-only vs combined
// protection, on the three-benchmark subset. The software rows run the
// asmlint-verified hardened workload variants (src/soft/harden.cpp):
// instruction duplication into shadow registers with compare-before-use
// (SWIFT-style) and/or per-block control-flow signatures (CFCSS-style).
// Software detection converts silent corruptions into detected terminations
// (the fault block raises an illegal-instruction exception), so the figure
// of merit here is the SDC rate, not the raw failure rate: a software
// "failure" that is a detection is the mechanism working as designed.
void Harden(Runs& runs) {
  PrintHeader(
      "Extension — hardware vs software-only vs combined protection",
      "SDC/termination mix on {gzip, gcc, mcf}; software rows run the "
      "statically verified hardened variants (+swdup / +swcfc / +sw)");
  struct Config {
    const char* name;
    const char* suffix;  // workload-name suffix selecting the variant
    ProtectionConfig p;
  };
  const Config kConfigs[] = {
      {"baseline (none)", "", ProtectionConfig::None()},
      {"hardware (all four)", "", ProtectionConfig::All()},
      {"software CFC only (+swcfc)", "+swcfc", ProtectionConfig::None()},
      {"software dup only (+swdup)", "+swdup", ProtectionConfig::None()},
      {"software full (+sw)", "+sw", ProtectionConfig::None()},
      {"combined (all four + +sw)", "+sw", ProtectionConfig::All()},
  };

  double base_mem = 0.0;
  TextTable t({"configuration", "SDC rate", "mem SDC", "terminated",
               "mem SDC reduction"});
  for (const Config& c : kConfigs) {
    const CampaignResult r = runs.Subset(runs.BaseSpec(true, c.p), c.suffix);
    const Proportion sdc = Rate(r, Outcome::kSdc);
    const Proportion mem = MemSdcRate(r);
    const Proportion term = Rate(r, Outcome::kTerminated);
    std::string red = "-";
    if (c.suffix[0] != '\0' || c.p.Any()) {
      if (base_mem > 0)
        red = Fmt(100.0 * (1.0 - mem.value / base_mem), 1) + "%";
    } else {
      base_mem = mem.value;
    }
    t.AddRow({c.name, FmtPct(sdc.value, sdc.ci95),
              FmtPct(mem.value, mem.ci95), FmtPct(term.value, term.ci95),
              red});
  }
  std::fputs(t.Render().c_str(), stdout);

  // Second table: the fault model software redundancy is actually designed
  // for — architectural-level injection (Section 5), where the fault lands
  // in a *program-visible* register write, instruction word, or branch
  // decision rather than a uniformly random pipeline latch. Detections
  // surface as exceptions (the fault block raises an illegal instruction);
  // Output Bad is the true SDC column here.
  std::printf(
      "\narchitectural fault models (Section 5 machinery), stock vs "
      "hardened:\n\n");
  const std::vector<SoftFaultModel> kModels = {SoftFaultModel::kRegBit64,
                                               SoftFaultModel::kInsnBit,
                                               SoftFaultModel::kBranchFlip};
  const char* const kVariants[] = {"", "+sw"};
  SoftSums sums[2];
  for (int v = 0; v < 2; ++v) {
    std::vector<std::string> workloads;
    for (const char* b : {"gzip", "gcc", "mcf"})
      workloads.push_back(std::string(b) + kVariants[v]);
    sums[v] = runs.SumSoft(workloads, kModels);
  }
  TextTable s({"fault model", "variant", "Exception%", "State OK%",
               "Output OK%", "Output Bad%"});
  for (SoftFaultModel m : kModels) {
    for (int v = 0; v < 2; ++v) {
      const SoftCampaignResult& total = sums[v][static_cast<int>(m)];
      const auto pct = [&](SoftOutcome o) {
        const Proportion p = MakeProportion(
            total.by_outcome[static_cast<int>(o)], total.trials);
        return FmtPct(p.value, p.ci95);
      };
      s.AddRow({SoftFaultModelName(m), v ? kVariants[v] : "stock",
                pct(SoftOutcome::kException), pct(SoftOutcome::kStateOk),
                pct(SoftOutcome::kOutputOk), pct(SoftOutcome::kOutputBad)});
    }
  }
  std::fputs(s.Render().c_str(), stdout);

  std::printf(
      "\n(software detections surface as terminations — the fault block "
      "raises an illegal-instruction exception. Whole-state SDC *rises* "
      "under duplication: the shadow registers double the architectural "
      "surface the classifier hashes, so flips landing in already-compared "
      "shadows count as SDC despite identical program output. The mem-SDC "
      "column scores only the output/memory image — the thing "
      "compare-before-store guards)\n");
}

struct Figure {
  const char* name;
  void (*print)(Runs&);
};

// The paper's ten in README order, then the extensions.
constexpr int kNumPaperFigures = 10;
const Figure kFigures[] = {
    {"table1", Table1},     {"fig3", Fig3},
    {"fig4", Fig4},         {"fig5", Fig5},
    {"fig6", Fig6},         {"fig7", Fig7},
    {"fig8", Fig8},         {"fig9", Fig9},
    {"fig10", Fig10},       {"fig11", Fig11},
    {"ablation", Ablation}, {"multibit", Multibit},
    {"sensitivity", Sensitivity},
    {"harden", Harden},
};

}  // namespace

int RunFigures(const std::vector<std::string>& names,
               const FigureOptions& opt) {
  std::vector<const Figure*> todo;
  for (const std::string& name : names) {
    const Figure* found = nullptr;
    for (const Figure& f : kFigures)
      if (name == f.name) found = &f;
    if (!found) {
      std::fprintf(stderr, "tfi figures: unknown figure '%s'; valid names:",
                   name.c_str());
      for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    todo.push_back(found);
  }
  if (todo.empty())
    for (int i = 0; i < kNumPaperFigures; ++i) todo.push_back(&kFigures[i]);

  Runs runs(opt);
  for (const Figure* f : todo) f->print(runs);
  runs.WriteMetrics();
  return 0;
}

}  // namespace tfsim

// tfbench_pass: runs ONE pass of a benchmark workload and prints one JSON
// line describing it. tfbench/run.py starts a fresh process per pass
// (so per-process caches start cold and peak RSS covers one pass), runs the
// passes back to back as a closed loop with one caller, and aggregates them.
//
//   tfbench_pass --workload trial-heavy|figure-suite|soft-suite
//                  --offset N --out DIR [--traced] [--setup-only]
//                  [--jobs N] [--trials N]
//
// Every campaign's seed is its stock seed plus --offset, so offset 0 runs
// exactly the campaigns the figure benches run (run.py maps the benchmark
// seed to the offset). --setup-only exits at the first timed call, so
// run.py can sample set-up time cheaply.
//
// Untraced passes call the public entry points a user calls (RunCampaign,
// RunSoftCampaign). Traced passes rebuild every campaign from the layer
// entry points (CacheKey, Load/StoreCachedCampaign, ResolveCampaignProgram,
// Core, MakeTrialSpecs, PlanFastPath, RecordGolden, TrialRunner::Run,
// RunSoftTrial, FunctionalSim) and record a span around each call; the
// spans stay in memory and are written to DIR/spans.jsonl at exit. Both
// kinds of pass print one digest per campaign request, so run.py can check
// that the traced rebuild reproduced the untraced results exactly.
//
// --jobs and --trials override the workload's stock values; only
// test_run.py (small campaigns, jobs 1 vs 4) and screen.py (jobs 4, which
// yields the same records faster) use them.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/functional_sim.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "inject/golden.h"
#include "inject/trial.h"
#include "isa/isa.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "soft/harden.h"
#include "soft/soft_inject.h"
#include "uarch/core.h"
#include "util/argparse.h"
#include "util/rng.h"
#include "workloads/workloads.h"

#ifndef TFBENCH_BUILD_TYPE
#define TFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define TFBENCH_SANITIZER "address"
#elif defined(__SANITIZE_THREAD__)
#define TFBENCH_SANITIZER "thread"
#else
#define TFBENCH_SANITIZER "off"
#endif

using namespace tfsim;

namespace {

using Clock = std::chrono::steady_clock;

// Stock seeds of CampaignSpec and SoftCampaignSpec.
constexpr std::uint64_t kStockCampaignSeed = 20040628;
constexpr std::uint64_t kStockSoftSeed = 5;

double MonotonicSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // campaign request the span belongs to
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::vector<std::pair<const char*, std::int64_t>> attrs;
};

// In-memory span store. Safe to close spans from several threads.
class Tracer {
 public:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Close(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  void WriteJsonl(std::ostream& os) const {
    for (const Span& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
         << ",\"parent\":" << s.parent << ",\"req\":" << s.request
         << ",\"t0\":" << s.t0_ns << ",\"t1\":" << s.t1_ns << ",\"attrs\":{";
      for (std::size_t i = 0; i < s.attrs.size(); ++i)
        os << (i ? "," : "") << '"' << s.attrs[i].first
           << "\":" << s.attrs[i].second;
      os << "}}\n";
    }
  }

 private:
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// A span open for the lifetime of the scope.
class Scope {
 public:
  Scope(Tracer& tr, const char* name, std::uint64_t parent,
        std::uint64_t request)
      : tr_(tr) {
    s_.name = name;
    s_.id = tr.NextId();
    s_.parent = parent;
    s_.request = request;
    s_.t0_ns = tr.NowNs();
  }
  ~Scope() {
    s_.t1_ns = tr_.NowNs();
    tr_.Close(std::move(s_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return s_.id; }
  void Attr(const char* key, std::int64_t v) { s_.attrs.emplace_back(key, v); }

 private:
  Tracer& tr_;
  Span s_;
};

// ---------------------------------------------------------------------------
// Digests: the correctness gate compares these across passes, between the
// traced and untraced runs, and against pinned values.

std::uint64_t Digest(const std::vector<TrialRecord>& trials) {
  std::uint64_t h = Mix64(trials.size());
  for (const TrialRecord& r : trials) {
    h = Mix64(h ^ (static_cast<std::uint64_t>(r.outcome) |
                   static_cast<std::uint64_t>(r.mode) << 8 |
                   static_cast<std::uint64_t>(r.cat) << 16 |
                   static_cast<std::uint64_t>(r.storage) << 24 |
                   static_cast<std::uint64_t>(r.cycles) << 32));
    h = Mix64(h ^ (static_cast<std::uint64_t>(r.valid_instrs) |
                   static_cast<std::uint64_t>(r.inflight) << 32));
  }
  return h;
}

std::uint64_t Digest(const SoftCampaignResult& r) {
  std::uint64_t h = Mix64(r.trials);
  for (std::uint64_t v : r.by_outcome) h = Mix64(h ^ v);
  return Mix64(h ^ r.state_ok_with_divergence);
}

struct RequestResult {
  std::string label;
  std::uint64_t digest = 0;
  std::uint64_t trials = 0;     // records returned
  std::uint64_t requested = 0;  // trials the spec asked for
  std::uint64_t quarantined = 0;
  bool hit = false;  // served from the results cache
  double seconds = 0;  // wall time of the request
};

// ---------------------------------------------------------------------------
// Workloads

struct PipelineRequest {
  std::string label;
  CampaignSpec spec;
};

// A workload is a fixed request sequence. Requests with equal labels run
// the same campaign.
struct Workload {
  std::vector<PipelineRequest> pipeline;
  std::vector<SoftCampaignSpec> soft;
  int jobs = 1;
  bool telemetry = false;  // metrics registry + JSONL event journal
};

// Trials per trial-heavy campaign: three times the stock 500.
constexpr int kTrialHeavyTrials = 1500;
// The figure-suite workload subset and the soft-suite subset. figure-suite
// keeps one program: each added program adds a protected-core campaign
// (~4 s at --jobs 4), and a run must fit several passes.
const char* const kFigureWorkloads[] = {"gzip"};
const char* const kSoftWorkloads[] = {"gzip", "mcf"};
constexpr int kSoftTrials = 15;
constexpr std::uint64_t kSoftIters = 8;  // bench_fig11_software's size

// Builds workload `name` with every campaign seed offset by `offset`.
Workload MakeWorkload(const std::string& name, std::uint64_t offset,
                      int trials_override) {
  Workload w;
  auto spec_for = [&](const char* program, bool lr, bool prot, int trials) {
    PipelineRequest r;
    r.spec.workload = program;
    r.spec.include_ram = lr;
    r.spec.core.protect = prot ? ProtectionConfig::All()
                               : ProtectionConfig::None();
    r.spec.trials = trials_override > 0 ? trials_override : trials;
    r.spec.seed = kStockCampaignSeed + offset;
    r.label = std::string(program) + (lr ? "/lr" : "/l") +
              (prot ? "-prot" : "-base");
    return r;
  };
  if (name == "trial-heavy") {
    for (const char* p : {"gzip", "mcf"})
      w.pipeline.push_back(spec_for(p, true, false, kTrialHeavyTrials));
    w.jobs = 1;
  } else if (name == "figure-suite") {
    // The bench::Suite requests of bench_fig3..bench_fig10, in bench order:
    // fig3 (lr, l), fig4 lr, fig5 l, fig6 lr, fig7 lr, fig8 lr, fig9 prot,
    // fig10 (lr, prot). Each suite request runs over every workload.
    const std::pair<bool, bool> kSuites[] = {
        {true, false}, {false, false}, {true, false}, {false, false},
        {true, false}, {true, false},  {true, false}, {true, true},
        {true, false}, {true, true}};
    for (const auto& [lr, prot] : kSuites)
      for (const char* p : kFigureWorkloads)
        w.pipeline.push_back(spec_for(p, lr, prot, 500));
    w.jobs = 4;
    w.telemetry = true;
  } else if (name == "soft-suite") {
    // bench_fig11_software's order: fault models outer, workloads inner.
    for (int m = 0; m < kNumSoftFaultModels; ++m)
      for (const char* p : kSoftWorkloads) {
        SoftCampaignSpec s;
        s.workload = p;
        s.model = static_cast<SoftFaultModel>(m);
        s.trials = trials_override > 0 ? trials_override : kSoftTrials;
        s.iters = kSoftIters;
        s.seed = kStockSoftSeed + offset;
        w.soft.push_back(s);
      }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// Telemetry attached to figure-suite passes, as `tfi campaign
// --metrics-json --events-jsonl` and the figure benches attach it.
struct Telemetry {
  explicit Telemetry(const std::filesystem::path& dir)
      : metrics_path(dir / "metrics.json"),
        events_path(dir / "events.jsonl"),
        events_out(events_path),
        sink(events_out) {
    journal.AddSink(&sink);
  }
  ~Telemetry() { journal.RemoveSink(&sink); }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // bench::Suite rewrites the cumulative metrics snapshot after each suite.
  void WriteMetrics() {
    std::ofstream f(metrics_path);
    metrics.WriteJson(f);
  }

  std::filesystem::path metrics_path;
  std::filesystem::path events_path;
  obs::MetricsRegistry metrics;
  obs::EventJournal journal;
  std::ofstream events_out;
  obs::JsonlEventSink sink;
};

// ---------------------------------------------------------------------------
// Traced rebuilds

// Key of a golden warmup: (program, CoreConfig, warmup length). The
// CacheKey of a spec stripped to those three fields hashes exactly them.
std::string WarmupKey(const CampaignSpec& spec) {
  CampaignSpec k;
  k.workload = spec.workload;
  k.core = spec.core;
  k.golden.warmup = spec.golden.warmup;
  return k.CacheKey();
}

// RunCampaign rebuilt from its layer entry points, one span per call.
// Reproduces RunCampaign's records for an unobserved, unchecked,
// in-process run with the fast path on (the configuration every benchmark
// workload uses).
CampaignResult TracedCampaign(const CampaignSpec& spec, int jobs,
                              obs::MetricsRegistry* metrics, Tracer& tr,
                              std::uint64_t req,
                              std::set<std::string>& warmups, bool* hit) {
  Scope campaign(tr, "campaign", 0, req);
  {
    Scope s(tr, "cache.key", campaign.id(), req);
    (void)spec.CacheKey();
  }
  {
    Scope s(tr, "cache.load", campaign.id(), req);
    if (auto cached = LoadCachedCampaign(spec)) {
      s.Attr("hit", 1);
      campaign.Attr("hit", 1);
      *hit = true;
      return *cached;
    }
    s.Attr("hit", 0);
  }
  *hit = false;
  campaign.Attr("hit", 0);

  CampaignResult result;
  result.spec = spec;
  std::optional<Program> program;
  std::optional<Core> probe;
  std::vector<TrialSpec> specs;
  FastPathPlan plan;
  {
    Scope planning(tr, "campaign.plan", campaign.id(), req);
    {
      Scope s(tr, "campaign.resolve", planning.id(), req);
      program.emplace(ResolveCampaignProgram(spec.workload));
    }
    {
      Scope s(tr, "uarch.core", planning.id(), req);
      probe.emplace(spec.core, *program);
    }
    for (int c = 0; c < kNumStateCats; ++c)
      result.inventory[c] =
          probe->registry().Inventory(static_cast<StateCat>(c));
    {
      Scope s(tr, "campaign.specs", planning.id(), req);
      specs = MakeTrialSpecs(spec,
                             probe->registry().InjectableBits(spec.include_ram));
    }
    {
      Scope s(tr, "campaign.fastpath_plan", planning.id(), req);
      plan = PlanFastPath(spec.golden, specs, probe->registry());
    }
  }

  std::shared_ptr<const GoldenRun> golden;
  {
    Scope s(tr, "golden", campaign.id(), req);
    obs::ObsSinks sinks;
    sinks.metrics = metrics;
    golden = RecordGolden(spec.core, *program, spec.golden, &sinks, &plan);
    s.Attr("cycles", static_cast<std::int64_t>(golden->stats.cycles));
    s.Attr("warmup", static_cast<std::int64_t>(spec.golden.warmup));
    s.Attr("warmup_repeat", warmups.insert(WarmupKey(spec)).second ? 0 : 1);
  }
  result.golden_ipc = golden->stats.Ipc();
  result.golden_bp_accuracy =
      golden->stats.branches
          ? 1.0 - static_cast<double>(golden->stats.mispredicts) /
                      static_cast<double>(golden->stats.branches)
          : 0.0;
  result.golden_dcache_misses = golden->stats.dcache_misses;

  const std::size_t n = specs.size();
  result.trials.resize(n);
  {
    Scope loop(tr, "campaign.loop", campaign.id(), req);
    const int workers =
        std::max(1, std::min(ResolveJobs(jobs), static_cast<int>(n)));
    loop.Attr("jobs", workers);
    loop.Attr("window", static_cast<std::int64_t>(golden->spec.window));
    std::atomic<std::size_t> next{0};
    auto work = [&] {
      TrialRunner runner(golden);  // stock TrialPolicy: fast path, 1 retry
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        Scope s(tr, "trial", loop.id(), req);
        const TrialRunner::Result res = runner.Run(specs[i]);
        s.Attr("fast", res.fast ? 1 : 0);
        s.Attr("cycles", res.record.cycles);
        s.Attr("quarantined", res.quarantined ? 1 : 0);
        result.trials[i] = res.record;
      }
    };
    if (workers == 1) {
      work();
    } else {
      std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
      std::vector<std::thread> pool;
      for (int w = 0; w < workers; ++w)
        pool.emplace_back([&, w] {
          try {
            work();
          } catch (...) {
            errors[static_cast<std::size_t>(w)] = std::current_exception();
          }
        });
      for (auto& t : pool) t.join();
      for (const auto& e : errors)
        if (e) std::rethrow_exception(e);
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (result.trials[i].outcome == Outcome::kTrialError)
      result.quarantined.push_back({i, "", {}});
  {
    Scope s(tr, "cache.store", campaign.id(), req);
    StoreCachedCampaign(result, metrics);
  }
  return result;
}

// Eligible dynamic instructions per soft fault model, the rule
// soft/soft_inject.cpp applies when it draws trial targets. A drift would
// change the traced run's digests, which run.py rejects.
bool SoftEligible(SoftFaultModel model, const DecodedInst& d) {
  switch (model) {
    case SoftFaultModel::kRegBit32:
    case SoftFaultModel::kRegBit64:
    case SoftFaultModel::kRegRandom:
      return d.dst != kNoReg;
    case SoftFaultModel::kInsnBit:
    case SoftFaultModel::kNop:
      return true;
    case SoftFaultModel::kBranchFlip:
      return d.cls == InsnClass::kCondBranch;
  }
  return false;
}

// RunSoftCampaign rebuilt from FunctionalSim and RunSoftTrial (minus its
// results-cache file, which the benchmark's empty cache never serves).
SoftCampaignResult TracedSoftCampaign(const SoftCampaignSpec& spec,
                                      Tracer& tr, std::uint64_t req) {
  Scope campaign(tr, "soft.campaign", 0, req);
  campaign.Attr("model", static_cast<std::int64_t>(spec.model));
  SoftCampaignResult result;
  result.spec = spec;
  std::optional<Program> program;
  {
    Scope s(tr, "soft.program", campaign.id(), req);
    program.emplace(
        BuildWorkload(WorkloadByName(spec.workload), spec.iters, true));
  }
  std::uint64_t total_insns = 0;
  {
    Scope s(tr, "arch.reference", campaign.id(), req);
    FunctionalSim sim(*program);
    total_insns = sim.Run(1ULL << 40);
    s.Attr("insns", static_cast<std::int64_t>(total_insns));
  }
  std::uint64_t eligible = 0;
  {
    Scope s(tr, "soft.eligible", campaign.id(), req);
    FunctionalSim sim(*program);
    while (sim.Running()) {
      const DecodedInst d = Decode(static_cast<std::uint32_t>(
          sim.state().mem.Read(sim.state().pc, 4)));
      if (SoftEligible(spec.model, d)) ++eligible;
      sim.Step();
    }
  }
  const std::uint64_t max_insns = total_insns * spec.max_insn_factor;
  Rng rng(spec.seed);
  for (int t = 0; t < spec.trials; ++t) {
    const std::uint64_t target = rng.NextBelow(eligible);
    const std::uint64_t trial_seed = rng.Next();
    Scope s(tr, "soft.trial", campaign.id(), req);
    const SoftTrialResult r =
        RunSoftTrial(*program, spec.model, target, trial_seed, max_insns);
    s.Attr("model", static_cast<std::int64_t>(spec.model));
    s.Attr("insns", static_cast<std::int64_t>(r.insns_executed));
    result.by_outcome[static_cast<int>(r.outcome)]++;
    if (r.outcome == SoftOutcome::kStateOk && r.control_flow_diverged)
      ++result.state_ok_with_divergence;
    ++result.trials;
  }
  return result;
}

// ---------------------------------------------------------------------------

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  std::string workload_name, out_dir;
  std::int64_t offset = 0, jobs = 0, trials = 0;
  bool traced = false, setup_only = false;
  ArgParser p;
  p.AddStr("workload", &workload_name, "trial-heavy|figure-suite|soft-suite");
  p.AddInt("offset", &offset, "added to every stock campaign seed");
  p.AddStr("out", &out_dir, "directory for spans and telemetry files");
  p.AddFlag("traced", &traced, "rebuild campaigns from layer calls + spans");
  p.AddFlag("setup-only", &setup_only,
            "stop at the first timed call (set-up time probes)");
  p.AddInt("jobs", &jobs, "override the workload's worker count");
  p.AddInt("trials", &trials, "override the workload's trials per campaign");
  if (!p.Parse(argc, argv) || !p.positional().empty() ||
      workload_name.empty() || out_dir.empty() || offset < 0) {
    std::fprintf(stderr, "usage: %s --workload W --offset N --out DIR\n%s",
                 argv[0], p.Help().c_str());
    return 2;
  }
  if (std::string(TFBENCH_SANITIZER) != "off") {
    std::fprintf(stderr, "refusing to benchmark a %s-sanitizer build\n",
                 TFBENCH_SANITIZER);
    return 3;
  }
  const Workload w = MakeWorkload(workload_name,
                                  static_cast<std::uint64_t>(offset),
                                  static_cast<int>(trials));
  const int run_jobs = jobs > 0 ? static_cast<int>(jobs) : w.jobs;
  const std::filesystem::path dir(out_dir);
  std::optional<Telemetry> tel;
  if (w.telemetry) tel.emplace(dir);
  Tracer tracer;
  std::vector<RequestResult> results;
  std::set<std::string> seen_keys, warmups;

  // --- timed section -------------------------------------------------------
  const double t_first = MonotonicSeconds();
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":" << JsonString(workload_name)
     << ",\"build_type\":" << JsonString(TFBENCH_BUILD_TYPE)
     << ",\"sanitizer\":" << JsonString(TFBENCH_SANITIZER)
     << ",\"t_first\":" << t_first;
  if (setup_only) {
    std::printf("%s}\n", os.str().c_str());
    return 0;
  }
  // Requests run back to back; each one's duration runs from the end of the
  // previous one, so the durations sum to the pass's wall time.
  double last_end = t_first;
  auto close_request = [&] {
    const double now = MonotonicSeconds();
    results.back().seconds = now - last_end;
    last_end = now;
  };
  std::uint64_t req = 0;
  for (const PipelineRequest& r : w.pipeline) {
    RequestResult rr;
    rr.label = r.label;
    CampaignResult res;
    if (traced) {
      res = TracedCampaign(r.spec, run_jobs,
                           tel ? &tel->metrics : nullptr, tracer, ++req,
                           warmups, &rr.hit);
    } else {
      CampaignOptions opt;
      opt.jobs = run_jobs;
      opt.verbose = false;
      if (tel) {
        opt.obs.sinks.metrics = &tel->metrics;
        opt.obs.events = &tel->journal;
      }
      res = RunCampaign(r.spec, opt);
      // The pass starts from an empty private cache, so exactly the repeats
      // of an earlier request are served from it.
      rr.hit = !seen_keys.insert(r.spec.CacheKey()).second;
    }
    rr.digest = Digest(res.trials);
    rr.trials = res.trials.size();
    rr.requested = static_cast<std::uint64_t>(r.spec.trials);
    rr.quarantined = res.quarantined.size();
    results.push_back(rr);
    // A bench::Suite request ends after its last workload.
    if (tel && results.size() % std::size(kFigureWorkloads) == 0)
      tel->WriteMetrics();
    close_request();
  }
  for (const SoftCampaignSpec& s : w.soft) {
    const SoftCampaignResult res = traced
                                       ? TracedSoftCampaign(s, tracer, ++req)
                                       : RunSoftCampaign(s, /*verbose=*/false);
    RequestResult rr;
    rr.label = s.workload + "/" + SoftFaultModelName(s.model);
    rr.digest = Digest(res);
    rr.trials = res.trials;
    rr.requested = static_cast<std::uint64_t>(s.trials);
    results.push_back(rr);
    close_request();
  }
  const double t_end = MonotonicSeconds();
  // --------------------------------------------------------------------------

  std::uint64_t events = 0, dropped = 0, jsonl_bytes = 0, cache_hits = 0;
  if (tel) {
    tel->journal.Flush();
    events = tel->journal.emitted();
    dropped = tel->journal.dropped();
    tel->events_out.flush();
    jsonl_bytes = static_cast<std::uint64_t>(
        std::filesystem::file_size(tel->events_path));
    cache_hits = tel->metrics.GetCounter("campaign.cache.hits").value();
  }
  if (traced) {
    std::ofstream f(dir / "spans.jsonl");
    tracer.WriteJsonl(f);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  os << ",\"offset\":" << offset << ",\"traced\":" << (traced ? "true" : "false")
     << ",\"jobs\":" << run_jobs << ",\"wall_s\":" << (t_end - t_first)
     << ",\"peak_rss_kb\":" << ru.ru_maxrss << ",\"obs\":{\"events\":" << events
     << ",\"events_dropped\":" << dropped << ",\"jsonl_bytes\":" << jsonl_bytes
     << ",\"cache_hits\":" << cache_hits << "},\"requests\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RequestResult& r = results[i];
    os << (i ? "," : "") << "{\"label\":" << JsonString(r.label)
       << ",\"digest\":\"" << Hex(r.digest) << "\",\"trials\":" << r.trials
       << ",\"requested\":" << r.requested
       << ",\"quarantined\":" << r.quarantined
       << ",\"hit\":" << (r.hit ? "true" : "false")
       << ",\"s\":" << r.seconds << "}";
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tfbench_pass: %s\n", e.what());
    return 1;
  }
}

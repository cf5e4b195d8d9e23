// Observability layer: JSON emitter golden outputs, validator, metrics
// registry determinism, the registry diff behind propagation traces, and
// propagation-trace sanity on real injection trials.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "inject/campaign.h"
#include "inject/report.h"
#include "inject/trial.h"
#include "obs/chrome_trace.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/prop_trace.h"
#include "obs/sinks.h"
#include "uarch/core.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

using obs::JsonEscape;
using obs::JsonLint;
using obs::JsonWriter;

// ---------------------------------------------------------------------------
// JSON emitter
// ---------------------------------------------------------------------------

TEST(JsonWriter, GoldenFlatObject) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject()
      .Field("s", "hi")
      .Field("n", std::uint64_t{42})
      .Field("neg", std::int64_t{-7})
      .Field("f", 0.5)
      .Field("b", true)
      .End();
  EXPECT_EQ(os.str(), R"({"s":"hi","n":42,"neg":-7,"f":0.5,"b":true})");
}

TEST(JsonWriter, GoldenNestedContainers) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.BeginArray("xs").Value(std::uint64_t{1}).Value(std::uint64_t{2}).End();
  w.BeginObject("inner").Field("k", "v").End();
  w.BeginArray("empty").End();
  w.End();
  EXPECT_EQ(os.str(), R"({"xs":[1,2],"inner":{"k":"v"},"empty":[]})");
  EXPECT_EQ(w.Depth(), 0u);
  EXPECT_TRUE(JsonLint(os.str()));
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");

  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject().Field("k\"ey", "v\nal").End();
  EXPECT_EQ(os.str(), "{\"k\\\"ey\":\"v\\nal\"}");
  EXPECT_TRUE(JsonLint(os.str()));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject().Field("inf", 1.0 / 0.0).Field("nan", 0.0 / 0.0).End();
  EXPECT_EQ(os.str(), R"({"inf":null,"nan":null})");
  EXPECT_TRUE(JsonLint(os.str()));
}

TEST(JsonLint, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(JsonLint(R"({"a":[1,2.5,-3e2,"x",true,false,null],"b":{}})"));
  EXPECT_TRUE(JsonLint("[]"));
  EXPECT_TRUE(JsonLint("  42 "));
  EXPECT_TRUE(JsonLint(R"("esc: \" \\ ÿ")"));

  std::string err;
  EXPECT_FALSE(JsonLint("{", &err));
  EXPECT_FALSE(JsonLint("{'a':1}", &err));  // single quotes
  EXPECT_FALSE(JsonLint("[1,]", &err));     // trailing comma
  EXPECT_FALSE(JsonLint("[1] [2]", &err));  // trailing garbage
  EXPECT_FALSE(JsonLint("\"unterminated", &err));
  EXPECT_FALSE(JsonLint("{\"a\":}", &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CountersHistogramsAccumulate) {
  obs::MetricsRegistry m;
  m.GetCounter("c").Inc();
  m.GetCounter("c").Inc(4);
  EXPECT_EQ(m.GetCounter("c").value(), 5u);

  obs::Histogram& h = m.GetHistogram("h", 2, 4);
  for (std::uint64_t v : {0u, 1u, 2u, 7u, 100u}) h.Add(v);
  EXPECT_EQ(h.stat().Count(), 5u);
  EXPECT_EQ(h.counts()[0], 2u);  // 0,1
  EXPECT_EQ(h.counts()[1], 1u);  // 2
  EXPECT_EQ(h.counts()[3], 1u);  // 7
  EXPECT_EQ(h.counts().back(), 1u);  // 100 overflows
  EXPECT_EQ(h.stat().Max(), 100.0);
}

TEST(Metrics, HandlesAreStableAcrossLookups) {
  obs::MetricsRegistry m;
  obs::Counter* a = &m.GetCounter("x");
  for (int i = 0; i < 100; ++i) m.GetCounter("pad" + std::to_string(i));
  EXPECT_EQ(a, &m.GetCounter("x"));
}

TEST(Metrics, JsonExportIsValid) {
  obs::MetricsRegistry m;
  m.GetCounter("a.b").Inc(3);
  m.GetHistogram("h \"quoted\"", 1, 2).Add(1);
  m.GetTimer("t").Start();
  m.GetTimer("t").Stop();
  std::ostringstream os;
  m.WriteJson(os);
  std::string err;
  EXPECT_TRUE(JsonLint(os.str(), &err)) << err << "\n" << os.str();
}

// Two identical simulations must export byte-identical counter/histogram
// sections (timers are wall-clock and excluded).
TEST(Metrics, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    obs::MetricsRegistry m;
    obs::ObsSinks sinks;
    sinks.metrics = &m;
    Core core(CoreConfig{}, BuildWorkload(WorkloadByName("gzip"), 2));
    core.AttachObs(&sinks);
    for (int c = 0; c < 5000; ++c) core.Cycle();
    core.FlushObsCounters();
    std::ostringstream os;
    m.WriteJson(os, /*include_timers=*/false);
    return os.str();
  };
  const std::string first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_NE(first.find("pipe.rob.occupancy"), std::string::npos);
  EXPECT_NE(first.find("pipe.cycles"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chrome trace writer
// ---------------------------------------------------------------------------

TEST(ChromeTrace, EmitsValidTraceEventJson) {
  obs::ChromeTraceWriter t;
  t.SetProcessName(obs::ChromeTraceWriter::kPidPipeline, "pipeline");
  t.CounterEvent("occ", 1, 64, {{"rob", 10.0}, {"sched", 3.0}});
  t.CompleteEvent("SDC", 2, 0, 100, 250, {{"category", "pc"}});
  t.InstantEvent("golden done", 2, 90);
  std::ostringstream os;
  t.WriteTo(os);
  std::string err;
  ASSERT_TRUE(JsonLint(os.str(), &err)) << err;
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(os.str().find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(os.str().find("\"dur\":250"), std::string::npos);
  EXPECT_EQ(t.EventCount(), 4u);
}

// ---------------------------------------------------------------------------
// Registry diff (the per-cycle category test behind propagation traces)
// ---------------------------------------------------------------------------

TEST(RegistryDiff, FlipMarksExactlyItsCategoryUntilFlippedBack) {
  const Program prog = BuildWorkload(WorkloadByName("gzip"), 2);
  Core faulty(CoreConfig{}, prog);
  Core replica(CoreConfig{}, prog);
  for (int c = 0; c < 1000; ++c) {
    faulty.Cycle();
    replica.Cycle();
  }
  StateRegistry& reg = faulty.registry();
  EXPECT_EQ(reg.DivergentCats(replica.registry()), 0u);
  const BitLocation loc = reg.LocateBit(12345, true);
  const std::uint32_t home = 1u << static_cast<int>(loc.cat);
  reg.FlipBit(loc);
  EXPECT_EQ(reg.DivergentCats(replica.registry()), home);
  EXPECT_EQ(reg.DivergentCats(replica.registry(), /*skip=*/home), 0u);
  reg.FlipBit(loc);
  EXPECT_EQ(reg.DivergentCats(replica.registry()), 0u);
  EXPECT_THROW(reg.DivergentCats(StateRegistry{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Propagation traces on real trials
// ---------------------------------------------------------------------------

class PropTraceTest : public ::testing::Test {
 protected:
  static GoldenSpec SmallSpec() {
    GoldenSpec gs;
    gs.warmup = 12000;
    gs.points = 2;
    gs.spacing = 500;
    gs.window = 3000;
    return gs;
  }
};

TEST_F(PropTraceTest, TraceAgreesWithRecordAndOrdersCycles) {
  const Program prog = BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
  const auto golden = RecordGolden(CoreConfig{}, prog, SmallSpec());
  TrialRunner runner(golden);
  Rng rng(99);
  const std::uint64_t bits = runner.core().registry().InjectableBits(true);

  int failures_seen = 0;
  for (int t = 0; t < 40; ++t) {
    TrialSpec ts;
    ts.checkpoint = static_cast<int>(rng.NextBelow(2));
    ts.offset = rng.NextBelow(golden->spec.offset_max);
    ts.bit_index = rng.NextBelow(bits);
    const TrialRunner::Result res = runner.Run(ts, /*want_trace=*/true);
    const TrialRecord& rec = res.record;
    const obs::PropagationTrace& trace = res.trace;

    // The trace must agree with the trial record on every shared field.
    EXPECT_EQ(trace.outcome, rec.outcome);
    EXPECT_EQ(trace.mode, rec.mode);
    EXPECT_EQ(trace.cat, rec.cat) << "injected category recorded";
    EXPECT_EQ(trace.storage, rec.storage);
    EXPECT_EQ(trace.classified_cycle, rec.cycles);
    EXPECT_EQ(trace.valid_instrs, rec.valid_instrs);
    EXPECT_FALSE(trace.field.empty());

    // Divergence can never postdate classification.
    if (trace.arch_divergence_cycle >= 0) {
      EXPECT_LE(trace.arch_divergence_cycle,
                static_cast<std::int64_t>(trace.classified_cycle));
    }
    if (trace.first_spread_cycle >= 0) {
      EXPECT_LE(trace.first_spread_cycle,
                static_cast<std::int64_t>(trace.classified_cycle));
      EXPECT_NE(trace.first_spread_cat, trace.cat);
      EXPECT_TRUE(trace.Touched(trace.first_spread_cat));
    }
    // SDC/Terminated-by-exception trials diverged architecturally by
    // construction; deadlocks never did.
    if (rec.outcome == Outcome::kSdc) {
      EXPECT_GE(trace.arch_divergence_cycle, 0);
      ++failures_seen;
    }
    if (rec.mode == FailureMode::kLocked) {
      EXPECT_EQ(trace.arch_divergence_cycle, -1);
    }
  }
  // The seed above produces failing trials; if this ever regresses to zero
  // the assertions above were vacuous.
  EXPECT_GT(failures_seen, 0);
}

TEST_F(PropTraceTest, TracingDoesNotPerturbClassification) {
  const Program prog = BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
  const auto golden = RecordGolden(CoreConfig{}, prog, SmallSpec());
  TrialRunner runner(golden);
  Rng rng(7);
  const std::uint64_t bits = runner.core().registry().InjectableBits(true);
  for (int t = 0; t < 15; ++t) {
    TrialSpec ts;
    ts.checkpoint = static_cast<int>(rng.NextBelow(2));
    ts.offset = rng.NextBelow(golden->spec.offset_max);
    ts.bit_index = rng.NextBelow(bits);
    const TrialRecord with = runner.Run(ts, /*want_trace=*/true).record;
    const TrialRecord without = runner.Run(ts).record;
    EXPECT_EQ(with.outcome, without.outcome);
    EXPECT_EQ(with.mode, without.mode);
    EXPECT_EQ(with.cycles, without.cycles);
  }
}

// The JSONL export: a versioned header line, then one valid JSON row per
// trace carrying the keys downstream readers join on.
TEST_F(PropTraceTest, JsonlRowsAreValidJson) {
  obs::PropagationTrace t;
  t.field = "rob.pc \"weird\"";
  t.cat = StateCat::kPc;
  t.outcome = Outcome::kSdc;
  t.mode = FailureMode::kCtrl;
  t.classified_cycle = 17;
  t.arch_divergence_cycle = 12;
  t.first_spread_cycle = 3;
  t.first_spread_cat = StateCat::kCtrl;
  t.cats_touched_mask =
      (1u << static_cast<int>(StateCat::kPc)) |
      (1u << static_cast<int>(StateCat::kCtrl));
  CampaignResult r;
  r.spec.workload = "gzip";
  r.prop_traces = {t, t};
  std::ostringstream os;
  ASSERT_TRUE(WritePropTraceJsonl(r, os));
  ASSERT_FALSE(os.str().empty());
  EXPECT_EQ(os.str().back(), '\n');

  std::istringstream in(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + one row per trace
  EXPECT_NE(lines[0].find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"schema_version\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"generated_at\""), std::string::npos);
  for (const std::string& line : lines) {
    std::string err;
    EXPECT_TRUE(JsonLint(line, &err)) << err << "\n" << line;
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    for (const char* key : {"\"outcome\"", "\"category\"",
                            "\"arch_divergence_cycle\"", "\"trial\""})
      EXPECT_NE(lines[i].find(key), std::string::npos) << key;
    EXPECT_NE(lines[i].find("\"first_spread_category\":\"ctrl\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace tfsim

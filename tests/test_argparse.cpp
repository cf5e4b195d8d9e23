// Unit tests for the shared command-line flag parser used by tfi and the
// smoke tools.
#include <gtest/gtest.h>

#include "util/argparse.h"

namespace tfsim {
namespace {

struct Bound {
  std::int64_t trials = 300;
  std::int64_t jobs = 1;
  bool progress = false;
  std::string metrics;
};

ArgParser Make(Bound& b) {
  ArgParser p;
  p.AddInt("trials", &b.trials, "injection trials");
  p.AddInt("jobs", &b.jobs, "worker threads");
  p.AddFlag("progress", &b.progress, "progress lines");
  p.AddStr("metrics-json", &b.metrics, "metrics export path");
  return p;
}

char** Argv(std::vector<const char*>& v) {
  return const_cast<char**>(v.data());
}

TEST(ArgParser, HappyPathFillsTargetsAndPositionals) {
  Bound b;
  ArgParser p = Make(b);
  std::vector<const char*> argv = {"tool",       "gzip", "--trials", "500",
                                   "--progress", "--jobs", "4",
                                   "--metrics-json", "m.json", "extra"};
  ASSERT_TRUE(p.Parse(static_cast<int>(argv.size()), Argv(argv)));
  EXPECT_EQ(b.trials, 500);
  EXPECT_EQ(b.jobs, 4);
  EXPECT_TRUE(b.progress);
  EXPECT_EQ(b.metrics, "m.json");
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "gzip");
  EXPECT_EQ(p.positional()[1], "extra");
  EXPECT_TRUE(p.error().empty());
}

TEST(ArgParser, UnknownFlagIsRejectedNotTreatedAsPositional) {
  Bound b;
  ArgParser p = Make(b);
  std::vector<const char*> argv = {"tool", "--trails", "500"};
  EXPECT_FALSE(p.Parse(static_cast<int>(argv.size()), Argv(argv)));
  EXPECT_NE(p.error().find("--trails"), std::string::npos);
}

TEST(ArgParser, MissingValueIsAnError) {
  Bound b;
  ArgParser p = Make(b);
  std::vector<const char*> argv = {"tool", "--trials"};
  EXPECT_FALSE(p.Parse(static_cast<int>(argv.size()), Argv(argv)));
  EXPECT_NE(p.error().find("requires a value"), std::string::npos);

  std::vector<const char*> argv2 = {"tool", "--metrics-json"};
  ArgParser p2 = Make(b);
  EXPECT_FALSE(p2.Parse(static_cast<int>(argv2.size()), Argv(argv2)));
}

TEST(ArgParser, MalformedIntegerIsAnError) {
  Bound b;
  ArgParser p = Make(b);
  std::vector<const char*> argv = {"tool", "--jobs", "many"};
  EXPECT_FALSE(p.Parse(static_cast<int>(argv.size()), Argv(argv)));
  EXPECT_NE(p.error().find("integer"), std::string::npos);
  EXPECT_EQ(b.jobs, 1);  // target untouched on error
}

TEST(ArgParser, NegativeAndZeroIntegersParse) {
  Bound b;
  ArgParser p = Make(b);
  std::vector<const char*> argv = {"tool", "--jobs", "0", "--trials", "-1"};
  ASSERT_TRUE(p.Parse(static_cast<int>(argv.size()), Argv(argv)));
  EXPECT_EQ(b.jobs, 0);
  EXPECT_EQ(b.trials, -1);
}

TEST(ArgParser, HelpListsEveryFlagInRegistrationOrder) {
  Bound b;
  ArgParser p = Make(b);
  const std::string help = p.Help();
  const auto trials = help.find("--trials");
  const auto jobs = help.find("--jobs");
  const auto progress = help.find("--progress");
  const auto metrics = help.find("--metrics-json");
  EXPECT_NE(trials, std::string::npos);
  EXPECT_LT(trials, jobs);
  EXPECT_LT(jobs, progress);
  EXPECT_LT(progress, metrics);
  EXPECT_NE(help.find("injection trials"), std::string::npos);
}

TEST(ArgParser, ResolveJobsNeverReturnsZeroWorkers) {
  EXPECT_EQ(ResolveJobs(5), 5);
  EXPECT_EQ(ResolveJobs(1), 1);
  // 0 and negative mean "all hardware threads"; even when the hardware
  // concurrency is unknown (reported as 0) at least one worker is spawned.
  EXPECT_GE(ResolveJobs(0), 1);
  EXPECT_GE(ResolveJobs(-3), 1);
  // Absurd requests clamp instead of overflowing int.
  EXPECT_GT(ResolveJobs(std::int64_t{1} << 40), 0);
}

}  // namespace
}  // namespace tfsim

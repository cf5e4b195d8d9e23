#include <gtest/gtest.h>

#include <sstream>

#include "inject/report.h"

namespace tfsim {
namespace {

TEST(Report, UtilizationCsvMarksBenign) {
  CampaignResult r;
  TrialRecord a;
  a.outcome = Outcome::kSdc;
  a.valid_instrs = 30;
  TrialRecord b;
  b.outcome = Outcome::kMicroArchMatch;
  r.trials = {a, b};
  std::ostringstream os;
  WriteUtilizationCsv(r, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("30,0"), std::string::npos);
  EXPECT_NE(out.find("0,1"), std::string::npos);
}

}  // namespace
}  // namespace tfsim

// The Section 4 story in miniature: run the same fault-injection campaign
// on one workload with and without the four lightweight protection
// mechanisms, and show where the failures went.
#include <cstdio>

#include "inject/campaign.h"

int main() {
  using namespace tfsim;

  CampaignSpec spec;
  spec.workload = "gzip";
  spec.trials = 400;
  spec.golden.warmup = 30000;
  spec.golden.points = 6;

  CampaignOptions opt;
  opt.verbose = false;

  std::printf("running %d trials on %s, unprotected...\n", spec.trials,
              spec.workload.c_str());
  const CampaignResult base = RunCampaign(spec, opt);

  spec.core.protect = ProtectionConfig::All();
  std::printf("running %d trials, all four mechanisms enabled (timeout "
              "counter, regfile ECC, regptr ECC, insn parity)...\n\n",
              spec.trials);
  const CampaignResult prot = RunCampaign(spec, opt);

  auto show = [](const char* name, const CampaignResult& r) {
    const auto o = r.ByOutcome();
    const double n = static_cast<double>(r.trials.size());
    std::printf("%-12s  match %5.1f%%   terminated %4.1f%%   SDC %5.1f%%   "
                "gray %5.1f%%\n",
                name, 100.0 * o[0] / n, 100.0 * o[1] / n, 100.0 * o[2] / n,
                100.0 * o[3] / n);
  };
  show("baseline", base);
  show("protected", prot);

  const auto bm = base.ByFailureMode();
  const auto pm = prot.ByFailureMode();
  std::printf("\nfailure modes (baseline -> protected):\n");
  for (int m = 1; m < kNumFailureModes; ++m) {
    if (bm[m] == 0 && pm[m] == 0) continue;
    std::printf("  %-8s %3llu -> %llu\n",
                FailureModeName(static_cast<FailureMode>(m)),
                static_cast<unsigned long long>(bm[m]),
                static_cast<unsigned long long>(pm[m]));
  }

  const double reduction =
      base.FailureRate().value > 0
          ? 100.0 * (1.0 - prot.FailureRate().value / base.FailureRate().value)
          : 0.0;
  std::printf("\nraw failure-rate reduction: %.0f%%   (paper Section 4.4: "
              "~75%% after normalizing for ~7%% more state — see "
              "`tfi figures fig10` for the full-suite number)\n",
              reduction);
  return 0;
}

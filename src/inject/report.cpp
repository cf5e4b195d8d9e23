#include "inject/report.h"

#include "obs/events.h"
#include "uarch/core.h"
#include "soft/harden.h"
#include "workloads/workloads.h"

namespace tfsim {

bool WritePropTraceJsonl(const CampaignResult& result, std::ostream& os) {
  if (result.prop_traces.empty()) return false;
  os << obs::RenderJournalHeader() << '\n';
  for (std::size_t i = 0; i < result.prop_traces.size(); ++i)
    obs::WritePropTraceRow(result.prop_traces[i], result.spec.workload, i, os);
  return true;
}

obs::VulnerabilityHeatmap BuildHeatmap(const CampaignResult& result) {
  obs::VulnerabilityHeatmap hm;
  if (result.trials.empty()) return hm;
  // Rebuild the machine the campaign injected: the registry layout (and
  // therefore the bit-index → field mapping) depends only on the core
  // config and program, so one throwaway core resolves every trial's site.
  const Program program = ResolveCampaignProgram(result.spec.workload);
  Core core(result.spec.core, program);
  const StateRegistry& reg = core.registry();
  const std::vector<TrialSpec> specs = MakeTrialSpecs(
      result.spec, reg.InjectableBits(result.spec.include_ram));
  // Traces, when collected, are parallel to the trials.
  const bool traced = result.prop_traces.size() == result.trials.size();
  for (std::size_t i = 0; i < result.trials.size() && i < specs.size(); ++i) {
    const TrialRecord& rec = result.trials[i];
    const BitLocation loc =
        ResolveInjectionSite(result.spec.golden, specs[i], reg).primary;
    obs::VulnerabilityHeatmap::Sample s;
    s.field = loc.name;
    s.cat = loc.cat;
    s.storage = loc.storage;
    s.field_bits = reg.FieldInfoAt(loc.field_index).bits();
    s.outcome = rec.outcome;
    s.mode = rec.mode;
    s.cycles = rec.cycles;
    if (traced) {
      s.arch_divergence_cycle = result.prop_traces[i].arch_divergence_cycle;
      s.first_spread_cycle = result.prop_traces[i].first_spread_cycle;
    }
    hm.Add(s);
  }
  return hm;
}

void WriteUtilizationCsv(const CampaignResult& result, std::ostream& os) {
  os << "valid_instrs,benign\n";
  for (const TrialRecord& t : result.trials) {
    const bool benign = t.outcome == Outcome::kMicroArchMatch ||
                        t.outcome == Outcome::kGrayArea;
    os << t.valid_instrs << ',' << (benign ? 1 : 0) << '\n';
  }
}

}  // namespace tfsim

// Chrome trace-event (chrome://tracing / Perfetto) export. Collects counter
// samples, complete spans and name metadata in memory and writes the
// standard `{"traceEvents":[...]}` JSON object.
//
// Two timelines share one file, separated by pid:
//   * pid kPidPipeline — per-stage occupancy counter tracks sampled from the
//     golden (fault-free) pipeline run, with ts = simulated cycle number
//     rendered as microseconds (1 cycle == 1us on screen).
//   * pid kPidCampaign — one complete span per executed injection trial,
//     with wall-clock timestamps on the event journal's clock (drawn by
//     obs::ChromeLaneSink, obs/events.h).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace tfsim::obs {

class ChromeTraceWriter {
 public:
  static constexpr int kPidPipeline = 1;
  static constexpr int kPidCampaign = 2;

  using Args = std::vector<std::pair<std::string, std::string>>;

  // "M" metadata: names a process/thread lane in the viewer.
  void SetProcessName(int pid, const std::string& name);
  void SetThreadName(int pid, int tid, const std::string& name);

  // "C" counter event: one sample of (possibly several) numeric series.
  void CounterEvent(const std::string& name, int pid, std::uint64_t ts_us,
                    const std::vector<std::pair<std::string, double>>& series);

  // "X" complete span on (pid, tid). String-valued args end up in the
  // viewer's detail pane.
  void CompleteEvent(const std::string& name, int pid, int tid,
                     std::uint64_t ts_us, std::uint64_t dur_us,
                     const Args& args = {});

  // "I" instant event (campaign milestones: trial quarantines). Args land
  // in the detail pane.
  void InstantEvent(const std::string& name, int pid, std::uint64_t ts_us,
                    const Args& args = {});

  std::size_t EventCount() const { return events_.size(); }

  void WriteTo(std::ostream& os) const;

 private:
  struct Event {
    char ph;  // 'C', 'X', 'I', 'M'
    std::string name;
    int pid = 0;
    int tid = 0;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;              // X only
    Args string_args;                      // X/M
    std::vector<std::pair<std::string, double>> num_args;  // C
  };
  std::vector<Event> events_;
};

}  // namespace tfsim::obs

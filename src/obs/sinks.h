// Bundle of optional observability sinks threaded through the core and the
// injection engine. All pointers may be null; a null sink costs the host one
// pointer test per cycle. Forward declarations only, so hot headers (core.h,
// golden.h) don't pull the full obs implementation in.
#pragma once

namespace tfsim::obs {

class MetricsRegistry;
class ChromeTraceWriter;
class Counter;
class Histogram;
class Timer;
class EventJournal;

struct ObsSinks {
  MetricsRegistry* metrics = nullptr;
  ChromeTraceWriter* chrome = nullptr;

  bool Any() const { return metrics || chrome; }
};

}  // namespace tfsim::obs

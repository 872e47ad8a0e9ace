#ifndef URBANE_CORE_OBSERVE_H_
#define URBANE_CORE_OBSERVE_H_

// Glue between the executors and the obs subsystem.
//
// Executors keep their existing WallTimer-based pass timings (those feed
// `ExecutorStats` unconditionally, exactly as before this layer existed);
// this header turns the measured numbers into trace spans and registry
// metrics. Both entry points are no-ops on the disabled fast path, so the
// query path pays nothing when nobody is observing.

#include "core/aggregate.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace urbane::core {

/// Records one executor pass as a completed child span of `parent` (the
/// executor's RAII span). Completed pass spans carry durations only; their
/// `start_seconds` stays 0 so traces are reproducible from synthetic
/// timings (see DESIGN.md "Observability").
inline void TracePass(obs::QueryTrace* trace, int parent, const char* name,
                      double duration_seconds) {
  if (trace != nullptr) {
    trace->AddCompletedSpan(name, duration_seconds, parent);
  }
}

/// Publishes one Execute call's stats into the global registry under
/// `exec.<executor>.*` (see DESIGN.md for the metric naming convention).
/// No-op unless metrics are enabled.
void ObserveExecutorStats(const char* executor, const ExecutorStats& stats);

}  // namespace urbane::core

#endif  // URBANE_CORE_OBSERVE_H_

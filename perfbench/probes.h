#ifndef URBANE_PERFBENCH_PROBES_H_
#define URBANE_PERFBENCH_PROBES_H_

// Measurement from outside the program: a global allocation hook, per-thread
// CPU and page-fault counters, process CPU and peak RSS, and a timing
// decorator around the server's QueryBackend. Nothing here changes what the
// program computes.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "server/query_backend.h"
#include "spans.h"

namespace perfbench {

/// Allocations made through operator new by this thread while an
/// AllocScope is open on it.
struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

class AllocScope {
 public:
  explicit AllocScope(AllocCount* sink);
  ~AllocScope();
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  AllocCount* previous_;
};

/// This thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
std::int64_t ThreadCpuNs();
/// This thread's minor page faults so far (RUSAGE_THREAD).
std::int64_t ThreadMinorFaults();
/// Process user + system CPU seconds so far (RUSAGE_SELF).
double ProcessCpuSeconds();
/// Peak resident set size of the process (VmHWM), in MB.
double PeakRssMb();

/// Wraps the real backend. While the recorder is enabled, every
/// ExecuteSql becomes an "urbane.backend" span and every Ingest an
/// "ingest.append" span, parented to the client span named by the
/// request's trace id; off-CPU time (span wall minus the worker thread's
/// CPU) is accumulated alongside.
class TimingBackend : public urbane::server::QueryBackend {
 public:
  TimingBackend(urbane::server::QueryBackend* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  urbane::StatusOr<urbane::server::BackendResult> ExecuteSql(
      const std::string& sql,
      std::optional<urbane::core::ExecutionMethod> method,
      const urbane::core::QueryControl* control,
      urbane::obs::QueryProfile* profile) override;
  urbane::StatusOr<urbane::server::IngestResponse> Ingest(
      const urbane::server::IngestRequest& request) override;
  std::vector<urbane::server::CatalogEntry> ListDatasets() override {
    return inner_->ListDatasets();
  }
  std::vector<urbane::server::CatalogEntry> ListRegionLayers() override {
    return inner_->ListRegionLayers();
  }

  /// Off-CPU milliseconds summed over the recorded backend spans.
  double offcpu_ms() const;

 private:
  urbane::server::QueryBackend* inner_;
  SpanRecorder* recorder_;
  std::atomic<std::int64_t> offcpu_ns_{0};
};

/// The traceparent header a client sends so the server-side span can find
/// its parent: the client span id rides in the trace id's low half.
std::string TraceparentFor(std::uint64_t client_span_id);

}  // namespace perfbench

#endif  // URBANE_PERFBENCH_PROBES_H_

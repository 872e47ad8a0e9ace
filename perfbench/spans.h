#ifndef URBANE_PERFBENCH_SPANS_H_
#define URBANE_PERFBENCH_SPANS_H_

// In-memory span recording for the traced run. Spans are taken in the
// benchmark's own code around calls into each layer, kept in memory while
// the run lasts and written out once at the end.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t NowNs();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // shared by every span of one request
  double DurationMs() const { return (end_ns - start_ns) * 1e-6; }
};

/// Thread-safe span sink. Recording is off until Enable(); a disabled
/// recorder drops spans after one relaxed check.
class SpanRecorder {
 public:
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A process-unique span id.
  std::uint64_t NewId();

  void Record(Span span);
  std::vector<Span> spans() const;

  /// Writes every span as one JSON document ({"spans": [...]}).
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Per-name totals over a span set. A span's self time is its duration
/// minus the part of it that its child spans cover.
struct LayerTime {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double MeanMs() const { return count == 0 ? 0.0 : total_ms / count; }
  double MeanSelfMs() const { return count == 0 ? 0.0 : self_ms / count; }
};
std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // URBANE_PERFBENCH_SPANS_H_

#ifndef URBANE_PERFBENCH_STATS_H_
#define URBANE_PERFBENCH_STATS_H_

// Summaries the benchmark reports: nearest-rank percentiles that refuse to
// report a tail they cannot support, and open-loop due-time accounting.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A reported percentile must leave at least this many samples above it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Latency samples of one kind of operation. A failed or refused operation
/// misses every latency limit, so it enters the percentiles as +infinity.
class LatencySamples {
 public:
  void AddOk(double value) { ok_.push_back(value); }
  void AddFailure() { ++failures_; }

  std::size_t size() const { return ok_.size() + failures_; }
  std::size_t ok() const { return ok_.size(); }
  std::size_t failures() const { return failures_; }

  /// Nearest-rank `percent`-th percentile (1..100). nullopt when fewer
  /// than kMinSamplesBeyond samples lie above its rank; +infinity when the
  /// rank falls among the failures.
  std::optional<double> Percentile(int percent) const;

 private:
  std::vector<double> ok_;
  std::size_t failures_ = 0;
};

/// One finished operation: when it completed, its latency, and whether it
/// succeeded.
struct Completion {
  double done_s = 0.0;
  double latency_ms = 0.0;
  bool ok = false;
};

/// All completions as latency samples (failures as +infinity).
LatencySamples SamplesOf(const std::vector<Completion>& completions);

/// Median of a series (mean of the middle two for even sizes; 0 if empty).
double Median(std::vector<double> values);

/// 1-based nearest rank of the `percent`-th percentile over n samples:
/// ceil(percent * n / 100), at least 1. Integer arithmetic, so 95% of 200
/// is exactly rank 190.
std::size_t NearestRank(int percent, std::size_t n);

/// Smallest sample count whose `percent`-th percentile leaves
/// kMinSamplesBeyond samples above it (200 for p95, 20 for p50).
std::size_t MinSamplesFor(int percent);

/// Fixed-rate send schedule of an open-loop generator. Operation i is due
/// at start + i * interval, whether or not earlier operations finished.
struct OpenLoopSchedule {
  double start_s = 0.0;
  double interval_s = 0.0;
  double Due(std::size_t i) const {
    return start_s + interval_s * static_cast<double>(i);
  }
};

/// One open-loop operation, all times on the schedule's clock.
struct OpenLoopRecord {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool ok = false;

  /// How late the generator sent it (never negative).
  double LatenessS() const { return sent_s > due_s ? sent_s - due_s : 0.0; }
  /// Latency counted from when it was due, so a stall ahead of it counts.
  double LatencyS() const { return done_s - due_s; }
};

/// Acknowledgement latency (from due time, failures as +inf) and generator
/// lateness of an open-loop run, both in milliseconds.
struct OpenLoopSummary {
  LatencySamples ack_ms;
  LatencySamples late_ms;
};
OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopRecord>& records);

}  // namespace perfbench

#endif  // URBANE_PERFBENCH_STATS_H_

#include "stats.h"

#include <algorithm>
#include <limits>

namespace perfbench {

std::size_t NearestRank(int percent, std::size_t n) {
  const std::size_t p = static_cast<std::size_t>(percent);
  return std::max<std::size_t>(1, (p * n + 99) / 100);
}

std::size_t MinSamplesFor(int percent) {
  std::size_t n = 1;
  while (n - NearestRank(percent, n) < kMinSamplesBeyond) ++n;
  return n;
}

std::optional<double> LatencySamples::Percentile(int percent) const {
  const std::size_t n = size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = NearestRank(percent, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  if (rank > ok_.size()) return std::numeric_limits<double>::infinity();
  std::vector<double> sorted = ok_;
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

LatencySamples SamplesOf(const std::vector<Completion>& completions) {
  LatencySamples samples;
  for (const Completion& c : completions) {
    if (c.ok) {
      samples.AddOk(c.latency_ms);
    } else {
      samples.AddFailure();
    }
  }
  return samples;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopRecord>& records) {
  OpenLoopSummary summary;
  for (const OpenLoopRecord& r : records) {
    summary.late_ms.AddOk(r.LatenessS() * 1e3);
    if (r.ok) {
      summary.ack_ms.AddOk(r.LatencyS() * 1e3);
    } else {
      summary.ack_ms.AddFailure();
    }
  }
  return summary;
}

}  // namespace perfbench

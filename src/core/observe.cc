#include "core/observe.h"

#include <string>

#include "raster/simd.h"

namespace urbane::core {
namespace {

void ObservePass(obs::MetricsRegistry& registry, const std::string& prefix,
                 const char* pass, double seconds) {
  // A pass that did not run (e.g. splat on a scan join) stays absent from
  // the registry rather than polluting histograms with zeros.
  if (seconds > 0.0) {
    registry.GetHistogram(prefix + pass).Observe(seconds);
  }
}

void ObserveCount(obs::MetricsRegistry& registry, const std::string& prefix,
                  const char* counter, std::size_t value) {
  if (value > 0) {
    registry.GetCounter(prefix + counter).Add(value);
  }
}

}  // namespace

void ObserveExecutorStats(const char* executor, const ExecutorStats& stats) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string prefix = std::string("exec.") + executor + ".";
  registry.GetCounter(prefix + "queries").Add(1);
  registry.GetHistogram(prefix + "query_seconds").Observe(stats.query_seconds);
  ObservePass(registry, prefix, "filter_seconds", stats.filter_seconds);
  ObservePass(registry, prefix, "splat_seconds", stats.splat_seconds);
  ObservePass(registry, prefix, "sweep_seconds", stats.sweep_seconds);
  ObservePass(registry, prefix, "reduce_seconds", stats.reduce_seconds);
  ObservePass(registry, prefix, "refine_seconds", stats.refine_seconds);
  ObserveCount(registry, prefix, "points_scanned", stats.points_scanned);
  ObserveCount(registry, prefix, "points_bulk", stats.points_bulk);
  ObserveCount(registry, prefix, "pip_tests", stats.pip_tests);
  ObserveCount(registry, prefix, "pixels_touched", stats.pixels_touched);
  ObserveCount(registry, prefix, "boundary_pixels", stats.boundary_pixels);
  ObserveCount(registry, prefix, "raster.tiles", stats.tiles_visited);
  ObserveCount(registry, prefix, "raster.fragments", stats.simd_fragments);
  // Which kernel table the raster executors ran with (0 = scalar,
  // 1 = SSE2, 2 = AVX2) — one global gauge, since the level is
  // process-wide.
  registry.GetGauge("raster.simd_level")
      .Set(static_cast<double>(static_cast<int>(raster::ActiveSimdLevel())));
}

}  // namespace urbane::core

#ifndef URBANE_CORE_ACCURATE_JOIN_H_
#define URBANE_CORE_ACCURATE_JOIN_H_

#include <memory>

#include "core/query.h"
#include "core/raster_join.h"
#include "raster/viewport.h"

namespace urbane::core {

/// Accurate (hybrid) Raster Join — the paper's exact variant.
///
/// Identical to BoundedRasterJoin except at region boundaries: pixels the
/// boundary passes through (found by conservative edge rasterization) are
/// excluded from the raster reduction and their points are resolved with
/// exact point-in-polygon tests instead, served from a pixel -> point-list
/// index (the software analogue of the GPU fragment-list pass). Interior
/// pixels are provably uniform — no edge touches their cell — so taking
/// their blended values wholesale is exact, not approximate.
class AccurateRasterJoin : public SpatialAggregationExecutor {
 public:
  static StatusOr<std::unique_ptr<AccurateRasterJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions,
      const RasterJoinOptions& options = RasterJoinOptions());

  std::string name() const override { return "accurate"; }
  bool exact() const override { return true; }

  const raster::Viewport& canvas() const { return viewport_; }
  std::size_t MemoryBytes() const;

 private:
  AccurateRasterJoin(const data::PointTable& points,
                     const data::RegionSet& regions,
                     const RasterJoinOptions& options,
                     raster::Viewport viewport)
      : points_(points),
        regions_(regions),
        options_(options),
        viewport_(viewport) {}

  StatusOr<QueryResult> DoExecute(const AggregationQuery& query,
                                  ExecutorStats& stats) const override;

  /// CSR pixel -> point ids, built once over all points by a stable
  /// counting sort (each pixel's ids ascend).
  void BuildPixelIndex();

  const data::PointTable& points_;
  const data::RegionSet& regions_;
  RasterJoinOptions options_;
  raster::Viewport viewport_;
  // The pixel index serves both passes: the exact boundary tests read the
  // points of one pixel, and a dense selection splats pixel by pixel from
  // it (its writes walk the canvas in order, with no second, Morton-sorted
  // copy of the points).
  std::vector<std::uint32_t> pixel_offsets_;  // W*H + 1
  std::vector<std::uint32_t> pixel_points_;   // point ids grouped by pixel
  // Per-region sweep spans (see BoundedRasterJoin), with each part's
  // boundary pixels pre-cut out of its interior spans, so the sweep loop
  // runs without per-pixel stamp checks.
  internal::SweepGeometry sweep_;
  // Warm render targets and filter buffers, one scratch per in-flight call
  // (see BoundedRasterJoin::targets_).
  mutable internal::TargetsPool targets_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_ACCURATE_JOIN_H_

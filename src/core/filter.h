#ifndef URBANE_CORE_FILTER_H_
#define URBANE_CORE_FILTER_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/execution_context.h"
#include "core/row_range.h"
#include "data/point_table.h"
#include "geometry/bounding_box.h"
#include "util/status.h"

namespace urbane::core {

/// Closed attribute range predicate: lo <= value <= hi.
struct AttributeRange {
  std::string attribute;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  bool operator==(const AttributeRange&) const = default;
};

/// Half-open time range [begin, end).
struct TimeRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  bool Contains(std::int64_t t) const { return t >= begin && t < end; }
  bool operator==(const TimeRange&) const = default;
};

/// The ad-hoc [AND filterCondition]* of the paper's query: a conjunction of
/// an optional time range and any number of attribute ranges. These are
/// exactly the constraints pre-aggregation cubes cannot serve, which is why
/// the paper evaluates everything on the fly.
struct FilterSpec {
  std::optional<TimeRange> time_range;
  std::vector<AttributeRange> attribute_ranges;
  /// Spatial window on the implicit x/y columns (closed box). This is how
  /// Urbane's zoomed camera restricts queries to the visible viewport; it
  /// composes with every executor like any other conjunct.
  std::optional<geometry::BoundingBox> spatial_window;

  bool IsTrivial() const {
    return !time_range.has_value() && attribute_ranges.empty() &&
           !spatial_window.has_value();
  }
  /// Same conjuncts, in the same order.
  bool operator==(const FilterSpec&) const = default;

  FilterSpec& WithTime(std::int64_t begin, std::int64_t end) {
    time_range = TimeRange{begin, end};
    return *this;
  }
  FilterSpec& WithRange(std::string attribute, double lo, double hi) {
    attribute_ranges.push_back({std::move(attribute), lo, hi});
    return *this;
  }
  FilterSpec& WithWindow(const geometry::BoundingBox& window) {
    spatial_window = window;
    return *this;
  }
};

/// FilterSpec resolved against a concrete schema (attribute names bound to
/// column indices). Immutable after construction.
///
/// Float bounds: the spatial window is stored twice. Matches compares the
/// float coordinates against the spec's double bounds, as the window
/// always has; EvaluateRows compares them against float bounds rounded
/// once at Compile — the smallest float >= each min and the largest float
/// <= each max (a bound beyond +-FLT_MAX becomes +-FLT_MAX or +-inf, a NaN
/// bound stays NaN). For a float coordinate x, x >= min in double exactly
/// when x >= that float, so both give the same answer on every input,
/// NaN coordinates and bounds included. Attribute ranges are rounded to
/// float at Compile and a row passes when !(v < lo) && !(v > hi), so a
/// NaN value passes.
class CompiledFilter {
 public:
  /// Fails if an attribute name is unknown.
  static StatusOr<CompiledFilter> Compile(const FilterSpec& spec,
                                          const data::PointTable& table);

  /// Row-level predicate: the scan, index and quadtree executors' test and
  /// the oracle EvaluateRows is checked against.
  bool Matches(const data::PointTable& table, std::size_t row) const;

  /// The filter kernel: writes Matches(table, row) as 0/1 into
  /// mask[row - begin] for every row of [begin, end) and returns how many
  /// passed. Branch-free, one conjunct at a time over the whole range
  /// (time on ts, then the window on xs/ys, then each attribute range), so
  /// callers keep the range small enough for `mask` to stay in L1.
  std::size_t EvaluateRows(const data::PointTable& table, std::size_t begin,
                           std::size_t end, std::uint8_t* mask) const;

  bool IsTrivial() const {
    return !time_range_ && ranges_.empty() && !window_;
  }

 private:
  struct BoundRange {
    std::size_t column;
    float lo;
    float hi;
  };
  struct FloatWindow {
    float min_x;
    float min_y;
    float max_x;
    float max_y;
  };

  std::optional<TimeRange> time_range_;
  std::vector<BoundRange> ranges_;
  std::optional<geometry::BoundingBox> window_;
  FloatWindow float_window_{};  // window_ rounded as described above
};

/// Filter evaluation output shared by all executors: a dense row bitmap,
/// the survivor count and, when the caller asked for them, the surviving
/// row ids.
///
///   * `bitmap` has one byte per table row, 1 where the row passes, and is
///     always complete — rows outside the candidate ranges read 0.
///   * `count` is the number of passing rows; passing() and Selectivity()
///     read it, never ids.size().
///   * `ids` lists the passing rows in ascending order when `count` is at
///     most the evaluation's `max_ids`, and is empty otherwise. Callers
///     that only read the bitmap (the accurate executor's dense pixel-index
///     splat and its refine pass) pass a small `max_ids`, so no id is
///     written for them.
///
/// The buffers are plain vectors owned by whoever owns the selection. The
/// raster executors keep one in each TargetsPool lease beside the canvas:
/// EvaluateFilter resizes a warm selection in place, so a steady-state
/// query allocates no filter buffer, and the selection is valid until the
/// lease is returned.
struct FilterSelection {
  std::vector<std::uint8_t> bitmap;   // size == table.size()
  std::vector<std::uint32_t> ids;     // rows where bitmap != 0, see above
  std::size_t count = 0;

  std::size_t passing() const { return count; }
  double Selectivity(std::size_t total) const {
    return total == 0 ? 0.0
                      : static_cast<double>(count) /
                            static_cast<double>(total);
  }
};

/// Rows per block of EvaluateFilter's walk: the block's bitmap bytes (4 KB)
/// and compacted ids (16 KB) stay in L1 while each conjunct passes over it.
inline constexpr std::size_t kFilterBlockRows = 4096;

/// `max_ids` value that always materializes the ids.
inline constexpr std::size_t kAllIds = std::numeric_limits<std::size_t>::max();

/// Evaluates the filter over every row into a fresh selection, ids
/// included (the heatmap view and tests).
StatusOr<FilterSelection> EvaluateFilter(const FilterSpec& spec,
                                         const data::PointTable& table);

/// Evaluates the filter into `out`, reusing its buffers. Rows outside
/// `candidates` (null = all rows) are never tested: they cannot match, so
/// the selection equals the unpruned one. Ids are materialized only when
/// the survivor count is at most `max_ids` (see FilterSelection).
///
/// The table is walked in L1-sized blocks: each block's bitmap bytes are
/// filled by CompiledFilter::EvaluateRows and, serially, its survivor ids
/// are compacted while the block is still hot. On `exec`'s pool the rows
/// are cut into one contiguous partition per thread, each running the
/// same block walk for its bitmap and count; the counts are prefix-summed
/// and each partition then writes its ids in place, so the output (bitmap,
/// count, ascending ids) is identical at every thread count.
Status EvaluateFilter(const FilterSpec& spec, const data::PointTable& table,
                      const ExecutionContext& exec,
                      const RowRangeSet* candidates, std::size_t max_ids,
                      FilterSelection& out);

/// Planning-time selectivity estimate: compiles the filter and counts
/// matches over an evenly strided sample of at most `max_sample` rows — no
/// bitmap or id vector is materialized, so the cost is O(min(n, max_sample))
/// time and O(1) memory (vs EvaluateFilter's table-sized bitmap). Exact
/// when the table fits in the sample; deterministic either way (stride
/// sampling, no RNG).
StatusOr<double> EstimateFilterSelectivity(const FilterSpec& spec,
                                           const data::PointTable& table,
                                           std::size_t max_sample = 65536);

}  // namespace urbane::core

#endif  // URBANE_CORE_FILTER_H_

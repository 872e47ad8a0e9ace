#include "core/filter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace urbane::core {

namespace {

constexpr float kFloatMax = std::numeric_limits<float>::max();
constexpr float kFloatInf = std::numeric_limits<float>::infinity();

// Smallest float >= d (NaN stays NaN), so that for any float x,
// x >= FloatAtLeast(d) exactly when double(x) >= d.
float FloatAtLeast(double d) {
  if (std::isnan(d)) return std::numeric_limits<float>::quiet_NaN();
  if (d > kFloatMax) return kFloatInf;
  if (d < -kFloatMax) return std::isinf(d) ? -kFloatInf : -kFloatMax;
  const float f = static_cast<float>(d);
  return static_cast<double>(f) < d ? std::nextafter(f, kFloatInf) : f;
}

// Largest float <= d, the mirror of FloatAtLeast.
float FloatAtMost(double d) { return -FloatAtLeast(-d); }

// Appends the rows of mask[0, len) that are set, as first_row + offset,
// to `out` (room for len entries) and returns how many it wrote. Every
// step stores unconditionally and advances by the mask byte: no branch
// depends on the data.
std::size_t CompactBlock(const std::uint8_t* mask, std::size_t len,
                         std::uint32_t first_row, std::uint32_t* out) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < len; ++i) {
    out[w] = first_row + static_cast<std::uint32_t>(i);
    w += mask[i];
  }
  return w;
}

// The per-partition kernel: fills bitmap[begin, end) — candidate rows by
// EvaluateRows, one block at a time, the rest with 0 — and returns the
// survivor count. With `ids` it also appends each block's survivors while
// the block is hot, until the running count passes `max_ids` (the caller
// then drops the ids).
std::size_t FilterPartition(const CompiledFilter& filter,
                            const data::PointTable& table,
                            const RowRangeSet* candidates, std::size_t begin,
                            std::size_t end, std::uint8_t* bitmap,
                            std::size_t max_ids,
                            std::vector<std::uint32_t>* ids) {
  std::uint32_t block_ids[kFilterBlockRows];
  std::size_t count = 0;
  std::size_t zero_from = begin;
  ForEachCandidateRange(
      candidates, begin, end, [&](std::uint64_t lo, std::uint64_t hi) {
        std::fill(bitmap + zero_from, bitmap + lo, 0);
        zero_from = hi;
        for (std::size_t b = lo; b < hi; b += kFilterBlockRows) {
          const std::size_t e =
              std::min<std::size_t>(hi, b + kFilterBlockRows);
          count += filter.EvaluateRows(table, b, e, bitmap + b);
          if (ids != nullptr && count <= max_ids) {
            const std::size_t w =
                CompactBlock(bitmap + b, e - b,
                             static_cast<std::uint32_t>(b), block_ids);
            ids->insert(ids->end(), block_ids, block_ids + w);
          }
        }
      });
  std::fill(bitmap + zero_from, bitmap + end, 0);
  return count;
}

// Writes the set rows of bitmap[begin, end), ascending, to `out`.
void FillIds(const std::uint8_t* bitmap, std::size_t begin, std::size_t end,
             std::uint32_t* out) {
  std::uint32_t block_ids[kFilterBlockRows];
  for (std::size_t b = begin; b < end; b += kFilterBlockRows) {
    const std::size_t e = std::min(end, b + kFilterBlockRows);
    const std::size_t w = CompactBlock(bitmap + b, e - b,
                                       static_cast<std::uint32_t>(b),
                                       block_ids);
    out = std::copy(block_ids, block_ids + w, out);
  }
}

}  // namespace

StatusOr<CompiledFilter> CompiledFilter::Compile(
    const FilterSpec& spec, const data::PointTable& table) {
  CompiledFilter compiled;
  compiled.time_range_ = spec.time_range;
  if (spec.spatial_window) {
    if (spec.spatial_window->IsEmpty()) {
      return Status::InvalidArgument("empty spatial window");
    }
    const geometry::BoundingBox& w = *spec.spatial_window;
    compiled.window_ = w;
    compiled.float_window_ = {FloatAtLeast(w.min_x), FloatAtLeast(w.min_y),
                              FloatAtMost(w.max_x), FloatAtMost(w.max_y)};
  }
  for (const AttributeRange& range : spec.attribute_ranges) {
    const int col = table.schema().AttributeIndex(range.attribute);
    if (col < 0) {
      return Status::InvalidArgument("filter references unknown attribute: " +
                                     range.attribute);
    }
    if (range.lo > range.hi) {
      return Status::InvalidArgument("empty filter range on attribute: " +
                                     range.attribute);
    }
    compiled.ranges_.push_back({static_cast<std::size_t>(col),
                                static_cast<float>(range.lo),
                                static_cast<float>(range.hi)});
  }
  return compiled;
}

bool CompiledFilter::Matches(const data::PointTable& table,
                             std::size_t row) const {
  if (time_range_ && !time_range_->Contains(table.t(row))) {
    return false;
  }
  if (window_ && !window_->Contains({table.x(row), table.y(row)})) {
    return false;
  }
  for (const BoundRange& range : ranges_) {
    const float v = table.attribute(row, range.column);
    if (v < range.lo || v > range.hi) {
      return false;
    }
  }
  return true;
}

std::size_t CompiledFilter::EvaluateRows(const data::PointTable& table,
                                         std::size_t begin, std::size_t end,
                                         std::uint8_t* mask) const {
  const std::size_t len = end - begin;
  if (time_range_) {
    // t in [lo, hi) as one unsigned compare: (t - lo) mod 2^64 < hi - lo.
    const std::int64_t* ts = table.ts() + begin;
    const auto lo = static_cast<std::uint64_t>(time_range_->begin);
    const std::uint64_t width =
        time_range_->begin < time_range_->end
            ? static_cast<std::uint64_t>(time_range_->end) - lo
            : 0;
    for (std::size_t i = 0; i < len; ++i) {
      mask[i] = static_cast<std::uint64_t>(ts[i]) - lo < width;
    }
  } else {
    std::memset(mask, 1, len);
  }
  if (window_) {
    const float* xs = table.xs() + begin;
    const float* ys = table.ys() + begin;
    const FloatWindow w = float_window_;
    for (std::size_t i = 0; i < len; ++i) {
      mask[i] &= (xs[i] >= w.min_x) & (xs[i] <= w.max_x) &
                 (ys[i] >= w.min_y) & (ys[i] <= w.max_y);
    }
  }
  for (const BoundRange& range : ranges_) {
    const float* vs = table.attribute_data(range.column) + begin;
    const float lo = range.lo;
    const float hi = range.hi;
    for (std::size_t i = 0; i < len; ++i) {
      mask[i] &= !(vs[i] < lo) & !(vs[i] > hi);
    }
  }
  if (IsTrivial()) return len;
  std::size_t count = 0;
  for (std::size_t i = 0; i < len; ++i) {
    count += mask[i];
  }
  return count;
}

StatusOr<FilterSelection> EvaluateFilter(const FilterSpec& spec,
                                         const data::PointTable& table) {
  FilterSelection selection;
  URBANE_RETURN_IF_ERROR(EvaluateFilter(spec, table, ExecutionContext(),
                                        nullptr, kAllIds, selection));
  return selection;
}

StatusOr<double> EstimateFilterSelectivity(const FilterSpec& spec,
                                           const data::PointTable& table,
                                           std::size_t max_sample) {
  URBANE_ASSIGN_OR_RETURN(CompiledFilter compiled,
                          CompiledFilter::Compile(spec, table));
  const std::size_t n = table.size();
  if (n == 0) {
    return 0.0;
  }
  if (compiled.IsTrivial()) {
    return 1.0;
  }
  if (max_sample == 0) {
    max_sample = 1;
  }
  const std::size_t stride =
      n <= max_sample ? 1 : (n + max_sample - 1) / max_sample;
  std::size_t tested = 0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < n; i += stride) {
    ++tested;
    if (compiled.Matches(table, i)) {
      ++matched;
    }
  }
  return static_cast<double>(matched) / static_cast<double>(tested);
}

Status EvaluateFilter(const FilterSpec& spec, const data::PointTable& table,
                      const ExecutionContext& exec,
                      const RowRangeSet* candidates, std::size_t max_ids,
                      FilterSelection& out) {
  URBANE_ASSIGN_OR_RETURN(CompiledFilter compiled,
                          CompiledFilter::Compile(spec, table));
  const std::size_t n = table.size();
  out.bitmap.resize(n);
  out.ids.clear();
  if (exec.IsSerial() || n < exec.min_parallel_points) {
    out.ids.reserve(std::min(max_ids, n / 4));
    out.count = FilterPartition(compiled, table, candidates, 0, n,
                                out.bitmap.data(), max_ids, &out.ids);
    if (out.count > max_ids) out.ids.clear();
    return Status::OK();
  }
  // Pass A: each partition fills its bitmap slice and counts survivors.
  std::vector<std::size_t> offsets(exec.EffectiveThreads() + 1, 0);
  ForEachPartition(exec, n, [&](std::size_t p, std::size_t begin,
                                std::size_t end) {
    offsets[p + 1] = FilterPartition(compiled, table, candidates, begin, end,
                                     out.bitmap.data(), max_ids, nullptr);
  });
  // Pass B: prefix offsets, then each partition writes its ids in place —
  // the id list comes out ascending, identical to the serial walk.
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  out.count = offsets.back();
  if (out.count > max_ids) return Status::OK();
  out.ids.resize(out.count);
  ForEachPartition(exec, n, [&](std::size_t p, std::size_t begin,
                                std::size_t end) {
    FillIds(out.bitmap.data(), begin, end, out.ids.data() + offsets[p]);
  });
  return Status::OK();
}

}  // namespace urbane::core

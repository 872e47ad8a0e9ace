#include "core/filter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "testing/test_worlds.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace urbane::core {
namespace {

data::PointTable SmallTable() {
  data::PointTable table(data::Schema({"v"}));
  // (x, y, t, v)
  EXPECT_TRUE(table.AppendRow(0, 0, 100, {1.0f}).ok());
  EXPECT_TRUE(table.AppendRow(0, 0, 200, {5.0f}).ok());
  EXPECT_TRUE(table.AppendRow(0, 0, 300, {-3.0f}).ok());
  return table;
}

TEST(FilterSpecTest, BuilderChains) {
  FilterSpec spec;
  spec.WithTime(0, 10).WithRange("a", 1, 2).WithRange("b", 3, 4);
  ASSERT_TRUE(spec.time_range.has_value());
  EXPECT_EQ(spec.attribute_ranges.size(), 2u);
  EXPECT_FALSE(spec.IsTrivial());
  EXPECT_TRUE(FilterSpec().IsTrivial());
}

TEST(TimeRangeTest, HalfOpenSemantics) {
  const TimeRange range{100, 200};
  EXPECT_TRUE(range.Contains(100));
  EXPECT_TRUE(range.Contains(199));
  EXPECT_FALSE(range.Contains(200));
  EXPECT_FALSE(range.Contains(99));
}

TEST(CompiledFilterTest, TimeOnly) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithTime(150, 300);
  const auto filter = CompiledFilter::Compile(spec, table);
  ASSERT_TRUE(filter.ok());
  EXPECT_FALSE(filter->Matches(table, 0));
  EXPECT_TRUE(filter->Matches(table, 1));
  EXPECT_FALSE(filter->Matches(table, 2));  // 300 excluded (half-open)
}

TEST(CompiledFilterTest, AttributeRangeClosed) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithRange("v", 1.0, 5.0);
  const auto filter = CompiledFilter::Compile(spec, table);
  ASSERT_TRUE(filter.ok());
  EXPECT_TRUE(filter->Matches(table, 0));   // v == 1 (closed lower)
  EXPECT_TRUE(filter->Matches(table, 1));   // v == 5 (closed upper)
  EXPECT_FALSE(filter->Matches(table, 2));  // v == -3
}

TEST(CompiledFilterTest, ConjunctionOfConditions) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithTime(0, 250).WithRange("v", 0.0, 10.0);
  const auto filter = CompiledFilter::Compile(spec, table);
  ASSERT_TRUE(filter.ok());
  EXPECT_TRUE(filter->Matches(table, 0));
  EXPECT_TRUE(filter->Matches(table, 1));
  EXPECT_FALSE(filter->Matches(table, 2));  // fails both
}

TEST(CompiledFilterTest, UnknownAttributeRejected) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithRange("nope", 0, 1);
  EXPECT_FALSE(CompiledFilter::Compile(spec, table).ok());
}

TEST(CompiledFilterTest, EmptyRangeRejected) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithRange("v", 5.0, 1.0);
  EXPECT_FALSE(CompiledFilter::Compile(spec, table).ok());
}

TEST(EvaluateFilterTest, TrivialFilterSelectsAll) {
  const data::PointTable table = SmallTable();
  const auto selection = EvaluateFilter(FilterSpec(), table);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->passing(), 3u);
  EXPECT_DOUBLE_EQ(selection->Selectivity(3), 1.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(selection->bitmap[i], 1);
    EXPECT_EQ(selection->ids[i], i);
  }
}

TEST(EvaluateFilterTest, BitmapAndIdsConsistent) {
  const data::PointTable table = testing::MakeUniformPoints(2000, 3);
  FilterSpec spec;
  spec.WithRange("v", 0.0, 10.0);  // ~half the points
  const auto selection = EvaluateFilter(spec, table);
  ASSERT_TRUE(selection.ok());
  std::size_t bit_count = 0;
  for (const auto bit : selection->bitmap) {
    bit_count += bit;
  }
  EXPECT_EQ(bit_count, selection->ids.size());
  EXPECT_GT(selection->passing(), 700u);
  EXPECT_LT(selection->passing(), 1300u);
  for (const std::uint32_t id : selection->ids) {
    EXPECT_EQ(selection->bitmap[id], 1);
    EXPECT_GE(table.attribute(id, 0), 0.0f);
  }
}

TEST(CompiledFilterTest, SpatialWindow) {
  const data::PointTable table = testing::MakeUniformPoints(500, 9);
  FilterSpec spec;
  spec.WithWindow(geometry::BoundingBox(25, 25, 75, 75));
  const auto selection = EvaluateFilter(spec, table);
  ASSERT_TRUE(selection.ok());
  EXPECT_GT(selection->passing(), 0u);
  EXPECT_LT(selection->passing(), table.size());
  for (const std::uint32_t id : selection->ids) {
    EXPECT_GE(table.x(id), 25.0f);
    EXPECT_LE(table.x(id), 75.0f);
    EXPECT_GE(table.y(id), 25.0f);
    EXPECT_LE(table.y(id), 75.0f);
  }
  // Roughly a quarter of a uniform square.
  EXPECT_NEAR(selection->Selectivity(table.size()), 0.25, 0.08);
}

TEST(CompiledFilterTest, EmptyWindowRejected) {
  const data::PointTable table = testing::MakeUniformPoints(10, 9);
  FilterSpec spec;
  spec.spatial_window = geometry::BoundingBox();  // empty
  EXPECT_FALSE(CompiledFilter::Compile(spec, table).ok());
}

TEST(FilterSpecTest, WindowMakesSpecNonTrivial) {
  FilterSpec spec;
  EXPECT_TRUE(spec.IsTrivial());
  spec.WithWindow(geometry::BoundingBox(0, 0, 1, 1));
  EXPECT_FALSE(spec.IsTrivial());
}

TEST(EvaluateFilterTest, SelectivityOfEmptyTable) {
  data::PointTable table(data::Schema({"v"}));
  const auto selection = EvaluateFilter(FilterSpec(), table);
  ASSERT_TRUE(selection.ok());
  EXPECT_DOUBLE_EQ(selection->Selectivity(0), 0.0);
}


// ---------------------------------------------------------------------------
// Differential test of the block-wise filter kernel: EvaluateFilter against
// a CompiledFilter::Matches row loop over seeded random tables and specs
// built from edge values, at every thread count, candidate shape and id
// limit. One selection is reused throughout, so stale bytes from the
// previous evaluation would show up as a mismatch.
// ---------------------------------------------------------------------------

constexpr std::int64_t kTimeMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kTimeMax = std::numeric_limits<std::int64_t>::max();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kFltMax = std::numeric_limits<float>::max();

template <typename T>
T Pick(Rng& rng, const std::vector<T>& pool) {
  return pool[rng.NextUint64(pool.size())];
}

// Coordinates crowd the window bounds below: floats next to 0.1 and 2^24+1
// decide whether the rounded float bounds keep the double comparison.
float RandomCoordinate(Rng& rng) {
  if (rng.NextBool(0.5)) return static_cast<float>(rng.NextDouble(-2, 2));
  return Pick<float>(rng, {0.1f, std::nextafter(0.1f, kInf),
                           std::nextafter(0.1f, -kInf), -0.1f, 16777216.0f,
                           16777218.0f, -16777216.0f, -16777218.0f, 0.0f,
                           -0.0f, 1.0f, kFltMax, -kFltMax, kInf, -kInf,
                           kNaN});
}

float RandomAttribute(Rng& rng) {
  if (rng.NextBool(0.6)) return static_cast<float>(rng.NextDouble(-3, 3));
  return Pick<float>(rng, {0.0f, -0.0f, 1.0f, kInf, -kInf, kNaN});
}

std::int64_t RandomTime(Rng& rng) {
  if (rng.NextBool(0.7)) return rng.NextInt(-100, 100);
  return Pick<std::int64_t>(
      rng, {kTimeMin, kTimeMin + 1, kTimeMax, kTimeMax - 1, 0, -1});
}

data::PointTable RandomTable(std::size_t n, Rng& rng) {
  data::PointTable table(data::Schema({"a", "b", "c"}));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table
                    .AppendRow(RandomCoordinate(rng), RandomCoordinate(rng),
                               RandomTime(rng),
                               {RandomAttribute(rng), RandomAttribute(rng),
                                RandomAttribute(rng)})
                    .ok());
  }
  return table;
}

double RandomWindowBound(Rng& rng) {
  if (rng.NextBool(0.4)) return rng.NextDouble(-2, 2);
  return Pick<double>(rng, {0.1, -0.1, 16777217.0, -16777217.0, 1e39, -1e39,
                            0.0, -0.0, 1.0, HUGE_VAL, -HUGE_VAL,
                            std::numeric_limits<double>::quiet_NaN()});
}

double RandomRangeBound(Rng& rng) {
  if (rng.NextBool(0.6)) return rng.NextDouble(-3, 3);
  return Pick<double>(rng, {0.0, -0.0, 1.0, HUGE_VAL, -HUGE_VAL,
                            std::numeric_limits<double>::quiet_NaN()});
}

FilterSpec RandomSpec(Rng& rng) {
  FilterSpec spec;
  if (rng.NextBool(0.7)) {
    // Any order: begin >= end gives an empty range.
    spec.WithTime(RandomTime(rng), RandomTime(rng));
  }
  if (rng.NextBool(0.6)) {
    double x0 = RandomWindowBound(rng);
    double x1 = RandomWindowBound(rng);
    double y0 = RandomWindowBound(rng);
    double y1 = RandomWindowBound(rng);
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    spec.WithWindow(geometry::BoundingBox(x0, y0, x1, y1));
  }
  const std::size_t ranges = rng.NextUint64(4);
  for (std::size_t r = 0; r < ranges; ++r) {
    double lo = RandomRangeBound(rng);
    double hi = RandomRangeBound(rng);
    if (lo > hi) std::swap(lo, hi);
    spec.WithRange(Pick<std::string>(rng, {"a", "b", "c"}), lo, hi);
  }
  return spec;
}

std::vector<RowRangeSet> CandidateShapes(std::size_t n, Rng& rng) {
  std::vector<RowRange> scattered;
  for (std::uint64_t row = rng.NextUint64(50); row < n;) {
    const std::uint64_t len = 1 + rng.NextUint64(2 * kFilterBlockRows);
    scattered.push_back({row, std::min<std::uint64_t>(n, row + len)});
    row += len + 1 + rng.NextUint64(kFilterBlockRows);
  }
  return {RowRangeSet(),
          RowRangeSet({{n / 3, n / 3 + 1}}),
          RowRangeSet(scattered),
          RowRangeSet({{n / 2, n}})};
}

struct Expected {
  std::vector<std::uint8_t> bitmap;
  std::vector<std::uint32_t> ids;
};

Expected MatchesLoop(const CompiledFilter& filter,
                     const data::PointTable& table,
                     const RowRangeSet* candidates) {
  Expected want;
  want.bitmap.assign(table.size(), 0);
  for (std::size_t i = 0; i < table.size(); ++i) {
    if ((candidates == nullptr || candidates->Contains(i)) &&
        filter.Matches(table, i)) {
      want.bitmap[i] = 1;
      want.ids.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return want;
}

TEST(FilterKernelTest, MatchesRowPredicateOnEdgeValues) {
  ThreadPool pool(4);
  Rng rng(20240611);
  FilterSelection got;  // reused: warm buffers hold the last call's bytes
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kFilterBlockRows - 1,
        kFilterBlockRows, kFilterBlockRows + 1, 3 * kFilterBlockRows + 17}) {
    const data::PointTable table = RandomTable(n, rng);
    const std::vector<RowRangeSet> shapes = CandidateShapes(n, rng);
    for (int trial = 0; trial < 12; ++trial) {
      const FilterSpec spec = RandomSpec(rng);
      const auto compiled = CompiledFilter::Compile(spec, table);
      ASSERT_TRUE(compiled.ok());
      for (int shape = -1; shape < static_cast<int>(shapes.size()); ++shape) {
        const RowRangeSet* candidates = shape < 0 ? nullptr : &shapes[shape];
        const Expected want = MatchesLoop(*compiled, table, candidates);
        const std::size_t count = want.ids.size();
        for (const std::size_t threads : {1, 2, 4, 8}) {
          ExecutionContext exec;
          exec.pool = &pool;
          exec.num_threads = threads;
          exec.min_parallel_points = 0;
          for (const std::size_t max_ids :
               {kAllIds, count, count == 0 ? std::size_t{0} : count - 1}) {
            SCOPED_TRACE(::testing::Message()
                         << "n " << n << " trial " << trial << " shape "
                         << shape << " threads " << threads << " max_ids "
                         << max_ids);
            ASSERT_TRUE(EvaluateFilter(spec, table, exec, candidates,
                                       max_ids, got)
                            .ok());
            ASSERT_EQ(got.count, count);
            ASSERT_EQ(got.passing(), count);
            ASSERT_EQ(got.bitmap, want.bitmap);
            if (count <= max_ids) {
              ASSERT_EQ(got.ids, want.ids);
            } else {
              ASSERT_TRUE(got.ids.empty());
            }
          }
        }
      }
    }
  }
}

TEST(FilterKernelTest, WindowBoundsRoundToTheSameAnswer) {
  // Bounds no float represents: the kernel's rounded float window must
  // keep exactly the rows the double comparison keeps.
  data::PointTable table(data::Schema({"v"}));
  const std::vector<float> xs = {
      0.1f, std::nextafter(0.1f, kInf), std::nextafter(0.1f, -kInf),
      16777216.0f, 16777218.0f, kFltMax, -kFltMax, kInf, -kInf, kNaN, -0.0f};
  for (const float x : xs) {
    ASSERT_TRUE(table.AppendRow(x, 0.0f, 0, {0.0f}).ok());
  }
  const std::vector<std::pair<double, double>> windows = {
      {0.1, 1.0},        {-1.0, 0.1},       {16777217.0, 1e39},
      {-1e39, 16777217.0}, {1e39, HUGE_VAL}, {-HUGE_VAL, -1e39},
      {0.0, 0.0},        {-0.0, -0.0}};
  for (const auto& [lo, hi] : windows) {
    SCOPED_TRACE(::testing::Message() << "x in [" << lo << ", " << hi << "]");
    FilterSpec spec;
    spec.WithWindow(geometry::BoundingBox(lo, -1.0, hi, 1.0));
    const auto compiled = CompiledFilter::Compile(spec, table);
    ASSERT_TRUE(compiled.ok());
    std::vector<std::uint8_t> mask(table.size(), 7);
    const std::size_t count =
        compiled->EvaluateRows(table, 0, table.size(), mask.data());
    std::size_t want_count = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
      const double x = table.x(i);
      const bool want = x >= lo && x <= hi;
      EXPECT_EQ(mask[i], want ? 1 : 0) << "x = " << table.x(i);
      EXPECT_EQ(compiled->Matches(table, i), want);
      want_count += want;
    }
    EXPECT_EQ(count, want_count);
  }
}

TEST(FilterKernelTest, WarmSelectionAllocatesNoNewBuffers) {
  const data::PointTable table = testing::MakeUniformPoints(20000, 5);
  FilterSpec spec;
  spec.WithRange("v", 0.0, 5.0);
  FilterSelection selection;
  const ExecutionContext serial;
  ASSERT_TRUE(
      EvaluateFilter(spec, table, serial, nullptr, kAllIds, selection).ok());
  const std::uint8_t* bitmap = selection.bitmap.data();
  const std::uint32_t* ids = selection.ids.data();
  ASSERT_TRUE(
      EvaluateFilter(spec, table, serial, nullptr, kAllIds, selection).ok());
  EXPECT_EQ(selection.bitmap.data(), bitmap);
  EXPECT_EQ(selection.ids.data(), ids);
  // A trivial filter with a small id limit writes the bitmap only.
  ASSERT_TRUE(EvaluateFilter(FilterSpec(), table, serial, nullptr,
                             /*max_ids=*/10, selection)
                  .ok());
  EXPECT_EQ(selection.passing(), table.size());
  EXPECT_TRUE(selection.ids.empty());
}

}  // namespace
}  // namespace urbane::core

// Stateless executors: four threads share ONE executor instance, and every
// concurrent call must return the serial call's result bit for bit and the
// serial call's stats counters (each call's stats come back through
// Execute, never through shared member state). Covers the seven executor
// classes — scan, index, quadtree, bounded, accurate, store_scan, sharded —
// plus BoundedRasterJoin::ExecuteBatch. tools/check.sh runs this suite
// under TSan, where any shared per-query state shows up as a data race.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/accurate_join.h"
#include "core/index_join.h"
#include "core/quadtree_join.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "shard/sharded_executor.h"
#include "store/block_cache.h"
#include "store/store_reader.h"
#include "store/store_scan_join.h"
#include "store/store_writer.h"
#include "testing/test_worlds.h"
#include "util/thread_pool.h"

namespace urbane::core {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 3;

std::vector<AggregationQuery> QueryMix(const data::PointTable* points,
                                       const data::RegionSet* regions) {
  std::vector<FilterSpec> filters(3);
  filters[1].WithTime(10000, 60000);
  filters[2]
      .WithWindow(geometry::BoundingBox(15.0, 15.0, 85.0, 85.0))
      .WithRange("v", -5.0, 5.0);
  const std::vector<AggregateSpec> aggregates = {
      AggregateSpec::Count(), AggregateSpec::Sum("v"), AggregateSpec::Avg("v"),
      AggregateSpec::Min("v"), AggregateSpec::Max("v")};
  std::vector<AggregationQuery> queries;
  for (const FilterSpec& filter : filters) {
    for (const AggregateSpec& aggregate : aggregates) {
      AggregationQuery query;
      query.points = points;
      query.regions = regions;
      query.aggregate = aggregate;
      query.filter = filter;
      queries.push_back(query);
    }
  }
  return queries;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Empty when `got` matches `want` bit for bit, counters included.
std::string Mismatch(const QueryResult& got, const QueryResult& want,
                     const ExecutorStats& got_stats,
                     const ExecutorStats& want_stats) {
  if (!SameBits(got.values, want.values)) return "values";
  if (got.counts != want.counts) return "counts";
  if (!SameBits(got.error_bounds, want.error_bounds)) return "error_bounds";
  if (got_stats.points_scanned != want_stats.points_scanned ||
      got_stats.points_bulk != want_stats.points_bulk ||
      got_stats.pip_tests != want_stats.pip_tests ||
      got_stats.pixels_touched != want_stats.pixels_touched ||
      got_stats.boundary_pixels != want_stats.boundary_pixels ||
      got_stats.tiles_visited != want_stats.tiles_visited ||
      got_stats.simd_fragments != want_stats.simd_fragments ||
      got_stats.threads_used != want_stats.threads_used) {
    return "stats counters";
  }
  return "";
}

// Runs every query serially, then hammers the same instance from kThreads
// threads (each walking the mix from a different offset) and compares each
// concurrent call against its serial twin.
void ExpectConcurrentMatchesSerial(const SpatialAggregationExecutor& executor,
                                   const std::vector<AggregationQuery>& queries) {
  std::vector<QueryResult> want(queries.size());
  std::vector<ExecutorStats> want_stats(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto result = executor.Execute(queries[q], &want_stats[q]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    want[q] = std::move(*result);
  }
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < queries.size(); ++k) {
          const std::size_t q = (k + static_cast<std::size_t>(t) * 5) %
                                queries.size();
          ExecutorStats stats;
          auto result = executor.Execute(queries[q], &stats);
          if (!result.ok()) {
            failures[t].push_back(result.status().ToString());
            continue;
          }
          const std::string what =
              Mismatch(*result, want[q], stats, want_stats[q]);
          if (!what.empty()) {
            failures[t].push_back(executor.name() + " query " +
                                  std::to_string(q) + ": " + what);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t].front();
  }
}

class ExecutorConcurrencyTest : public ::testing::Test {
 protected:
  ExecutorConcurrencyTest()
      : points_(testing::MakeDyadicPoints(3000, 0xC0C1)),
        regions_(testing::MakeRandomRegions(6, 0xC0C2)) {
    raster_options_.resolution = 128;
  }

  std::vector<AggregationQuery> Queries() const {
    return QueryMix(&points_, &regions_);
  }

  data::PointTable points_;
  data::RegionSet regions_;
  RasterJoinOptions raster_options_;
};

TEST_F(ExecutorConcurrencyTest, ScanJoin) {
  auto executor = ScanJoin::Create(points_, regions_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentMatchesSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, IndexJoin) {
  auto executor = IndexJoin::Create(points_, regions_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentMatchesSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, QuadtreeJoin) {
  auto executor = QuadtreeJoin::Create(points_, regions_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentMatchesSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, BoundedRasterJoin) {
  auto executor = BoundedRasterJoin::Create(points_, regions_, raster_options_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentMatchesSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, AccurateRasterJoin) {
  auto executor =
      AccurateRasterJoin::Create(points_, regions_, raster_options_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentMatchesSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, StoreScanJoin) {
  const std::string path =
      ::testing::TempDir() + "/executor_concurrency_store.ust";
  store::StoreWriterOptions write_options;
  write_options.block_rows = 512;
  ASSERT_TRUE(store::WritePointStore(points_, path, write_options).ok());
  auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  store::BlockCache cache(&*reader);
  auto executor = store::StoreScanJoin::Create(*reader, cache, regions_);
  ASSERT_TRUE(executor.ok());
  // The store supplies the rows; the queries only carry the regions.
  std::vector<AggregationQuery> queries = Queries();
  for (AggregationQuery& query : queries) query.points = nullptr;
  ExpectConcurrentMatchesSerial(**executor, queries);
  std::remove(path.c_str());
}

TEST_F(ExecutorConcurrencyTest, ShardedExecutor) {
  ThreadPool pool(2);
  shard::ShardedExecutorOptions options;
  options.num_shards = 3;
  options.pool = &pool;
  // Bounded raster: AVG shards take the shared-splat batch path, so the
  // one inner executor serves Execute and ExecuteBatch concurrently.
  auto executor = shard::ShardedExecutor::Create(
      points_, regions_, ExecutionMethod::kBoundedRaster, options,
      raster_options_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentMatchesSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, BoundedRasterExecuteBatch) {
  auto executor = BoundedRasterJoin::Create(points_, regions_, raster_options_);
  ASSERT_TRUE(executor.ok());
  const BoundedRasterJoin& raster = **executor;
  // One batch per filter: every aggregate of the mix shares that filter.
  const std::vector<AggregationQuery> mix = Queries();
  std::vector<std::vector<AggregationQuery>> batches;
  for (std::size_t q = 0; q < mix.size(); q += 5) {
    batches.emplace_back(mix.begin() + q, mix.begin() + q + 5);
  }
  std::vector<std::vector<QueryResult>> want(batches.size());
  std::vector<ExecutorStats> want_stats(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    auto results = raster.ExecuteBatch(batches[b], &want_stats[b]);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    want[b] = std::move(*results);
  }
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < batches.size(); ++k) {
          const std::size_t b = (k + static_cast<std::size_t>(t)) %
                                batches.size();
          ExecutorStats stats;
          auto results = raster.ExecuteBatch(batches[b], &stats);
          if (!results.ok()) {
            failures[t].push_back(results.status().ToString());
            continue;
          }
          for (std::size_t q = 0; q < results->size(); ++q) {
            const std::string what =
                Mismatch((*results)[q], want[b][q], stats, want_stats[b]);
            if (!what.empty()) {
              failures[t].push_back("batch " + std::to_string(b) +
                                    " query " + std::to_string(q) + ": " +
                                    what);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t].front();
  }
}

TEST_F(ExecutorConcurrencyTest, StatsAccessorReportsLastCompletedCall) {
  auto executor = ScanJoin::Create(points_, regions_);
  ASSERT_TRUE(executor.ok());
  const double build_seconds = (*executor)->stats().build_seconds;
  const std::vector<AggregationQuery> queries = Queries();
  ExecutorStats returned;
  ASSERT_TRUE((*executor)->Execute(queries[5], &returned).ok());
  const ExecutorStats last = (*executor)->stats();
  EXPECT_EQ(last.points_scanned, returned.points_scanned);
  EXPECT_EQ(last.pip_tests, returned.pip_tests);
  EXPECT_EQ(returned.build_seconds, build_seconds);
}

}  // namespace
}  // namespace urbane::core

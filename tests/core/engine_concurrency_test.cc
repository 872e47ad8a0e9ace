// Concurrent-session safety of the SpatialAggregation facade: one engine,
// many threads, any number of them on one method at once. Answers must
// equal the serial oracle bit-for-bit (executors are const and stateless;
// cache hits are copies), and the whole suite must be clean under
// `-DURBANE_SANITIZE=thread` (tools/check.sh runs exactly this file under
// TSan).
#include <atomic>
#include <chrono>
#include <cstring>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/spatial_aggregation.h"
#include "obs/profile.h"
#include "testing/test_worlds.h"

namespace urbane::core {

class SpatialAggregationTestPeer {
 public:
  static void Install(SpatialAggregation& engine, ExecutionMethod method,
                      std::shared_ptr<SpatialAggregationExecutor> executor) {
    std::lock_guard<std::mutex> lock(engine.state_mu_);
    engine.executors_[SpatialAggregation::MethodIndex(method)] =
        std::move(executor);
  }
};

namespace {

/// Bitwise equality (NaN, e.g. an empty region's AVG, equals itself).
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Wraps a real executor and holds the FIRST call at entry until
/// Release(); later calls run straight through.
class HoldFirstExecutor : public SpatialAggregationExecutor {
 public:
  explicit HoldFirstExecutor(std::unique_ptr<SpatialAggregationExecutor> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  bool exact() const override { return inner_->exact(); }

  /// Blocks until the first call is held (false after `timeout`).
  bool WaitHeld(std::chrono::seconds timeout) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return held_; });
  }
  void Release() const {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  StatusOr<QueryResult> DoExecute(const AggregationQuery& query,
                                  ExecutorStats& stats) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!held_) {
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    return inner_->Execute(query, &stats);
  }

  std::unique_ptr<SpatialAggregationExecutor> inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool held_ = false;
  mutable bool released_ = false;
};

std::vector<AggregationQuery> QueryMix() {
  std::vector<AggregationQuery> queries;
  for (int w = 0; w < 3; ++w) {
    AggregationQuery query;
    query.aggregate = AggregateSpec::Count();
    query.filter.WithTime(w * 10000, 30000 + w * 15000);
    queries.push_back(query);
  }
  AggregationQuery sum;
  sum.aggregate = AggregateSpec::Sum("v");
  sum.filter.WithTime(5000, 70000);
  queries.push_back(sum);
  AggregationQuery filtered;
  filtered.aggregate = AggregateSpec::Count();
  filtered.filter.WithRange("v", 0.0, 10.0);
  queries.push_back(filtered);
  AggregationQuery windowed;
  windowed.aggregate = AggregateSpec::Count();
  windowed.filter.WithWindow(geometry::BoundingBox(10, 10, 80, 80));
  queries.push_back(windowed);
  return queries;
}

TEST(EngineConcurrencyTest, HammeredEngineMatchesSerialOracle) {
  const auto points = testing::MakeUniformPoints(4000, 95);
  const auto regions = testing::MakeRandomRegions(3, 96);
  RasterJoinOptions options;
  options.resolution = 128;

  const std::vector<AggregationQuery> queries = QueryMix();
  const ExecutionMethod methods[] = {
      ExecutionMethod::kScan, ExecutionMethod::kIndexJoin,
      ExecutionMethod::kBoundedRaster, ExecutionMethod::kAccurateRaster};

  // Serial oracle: a private engine answers every (query, method) pair.
  SpatialAggregation oracle(points, regions, options);
  std::vector<std::vector<QueryResult>> expected(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const ExecutionMethod method : methods) {
      auto result = oracle.Execute(queries[q], method);
      ASSERT_TRUE(result.ok()) << result.status();
      expected[q].push_back(std::move(*result));
    }
  }

  SpatialAggregation engine(points, regions, options);
  engine.set_result_cache_capacity(128);
  constexpr int kThreads = 4;
  constexpr int kIters = 24;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t q = (t * 31 + i * 7) % queries.size();
        const std::size_t m = (t + i) % 4;
        const auto result = engine.Execute(queries[q], methods[m]);
        if (!result.ok()) {
          ++errors[t];
          continue;
        }
        const QueryResult& want = expected[q][m];
        if (result->values != want.values || result->counts != want.counts ||
            result->error_bounds != want.error_bounds) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  // Revisit traffic must actually have been served from the cache.
  EXPECT_GT(engine.result_cache_hits(), 0u);
  EXPECT_LE(engine.result_cache_size(), 128u);
}

TEST(EngineConcurrencyTest, ConcurrentAutoRebuildIsSafe) {
  const auto points = testing::MakeUniformPoints(20000, 97);
  const auto regions = testing::MakeRandomRegions(4, 98);
  RasterJoinOptions options;
  options.resolution = 32;
  SpatialAggregation engine(points, regions, options);
  engine.set_result_cache_capacity(64);

  AggregationQuery query;
  query.aggregate = AggregateSpec::Count();

  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        StatusOr<QueryResult> result =
            (t % 2 == 0)
                // Planners force resolution bumps (executor rebuilds)...
                ? engine.ExecuteAuto(query, {.exact = false,
                                             .epsilon_world =
                                                 i % 2 == 0 ? 2.0 : 0.5})
                // ...while other sessions execute on the same executor.
                : engine.Execute(query, ExecutionMethod::kBoundedRaster);
        if (!result.ok()) {
          ++errors[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], 0) << "thread " << t;
  }

  // The resolution only ratchets up, so after the dust settles the engine
  // answers at the finest requested ε — bit-identical to a fresh engine
  // built directly at that resolution.
  geometry::BoundingBox world = points.Bounds();
  world.Extend(regions.Bounds());
  RasterJoinOptions fine = options;
  fine.resolution = ResolutionForEpsilon(world, 0.5);
  ASSERT_GT(fine.resolution, 32);
  SpatialAggregation settled_oracle(points, regions, fine);
  const auto want =
      settled_oracle.Execute(query, ExecutionMethod::kBoundedRaster);
  ASSERT_TRUE(want.ok());
  const auto settled = engine.Execute(query, ExecutionMethod::kBoundedRaster);
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(settled->values, want->values);
  EXPECT_EQ(settled->error_bounds, want->error_bounds);
}

TEST(EngineConcurrencyTest, HeldQueryDoesNotBlockSameMethod) {
  const auto points = testing::MakeDyadicPoints(4000, 0x4E1D);
  const auto regions = testing::MakeRandomRegions(3, 0x4E1E);
  RasterJoinOptions options;
  options.resolution = 64;
  SpatialAggregation engine(points, regions, options);
  auto inner = CreateExecutor(ExecutionMethod::kAccurateRaster, points,
                              regions, options, IndexJoinOptions(),
                              ExecutionContext());
  ASSERT_TRUE(inner.ok()) << inner.status();
  auto gate = std::make_shared<HoldFirstExecutor>(std::move(*inner));
  SpatialAggregationTestPeer::Install(engine, ExecutionMethod::kAccurateRaster,
                                      gate);

  AggregationQuery held_query;
  held_query.aggregate = AggregateSpec::Sum("v");
  AggregationQuery query;
  query.aggregate = AggregateSpec::Count();
  query.filter.WithTime(0, 40000);

  auto held = std::async(std::launch::async, [&] {
    return engine.Execute(held_query, ExecutionMethod::kAccurateRaster);
  });
  ASSERT_TRUE(gate->WaitHeld(std::chrono::seconds(30)));
  // The held call is mid-execution on the accurate executor; a second call
  // on the same method must complete without waiting for it.
  auto second = std::async(std::launch::async, [&] {
    return engine.Execute(query, ExecutionMethod::kAccurateRaster);
  });
  const bool overlapped =
      second.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  gate->Release();
  EXPECT_TRUE(overlapped) << "a held query blocked its method";
  const StatusOr<QueryResult> first_result = held.get();
  const StatusOr<QueryResult> second_result = second.get();
  ASSERT_TRUE(first_result.ok()) << first_result.status();
  ASSERT_TRUE(second_result.ok()) << second_result.status();

  SpatialAggregation oracle(points, regions, options);
  const auto want_first =
      oracle.Execute(held_query, ExecutionMethod::kAccurateRaster);
  const auto want_second =
      oracle.Execute(query, ExecutionMethod::kAccurateRaster);
  ASSERT_TRUE(want_first.ok());
  ASSERT_TRUE(want_second.ok());
  EXPECT_EQ(first_result->values, want_first->values);
  EXPECT_EQ(second_result->counts, want_second->counts);
}

TEST(EngineConcurrencyTest, ShardFlipsUnderConcurrentQueriesStayExact) {
  // Dyadic values make every sum exact, so sharded and unsharded answers
  // are bit-identical and one serial oracle covers both fan-outs.
  const auto points = testing::MakeDyadicPoints(6000, 0x5A1D);
  const auto regions = testing::MakeRandomRegions(4, 0x5A1E);
  RasterJoinOptions options;
  options.resolution = 64;

  std::vector<AggregationQuery> queries = QueryMix();
  AggregationQuery avg;
  avg.aggregate = AggregateSpec::Avg("v");
  avg.filter.WithTime(0, 60000);
  queries.push_back(avg);
  SpatialAggregation oracle(points, regions, options);
  std::vector<QueryResult> expected;
  for (const AggregationQuery& query : queries) {
    auto result = oracle.Execute(query, ExecutionMethod::kAccurateRaster);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(std::move(*result));
  }

  SpatialAggregation engine(points, regions, options);
  engine.set_result_cache_capacity(256);
  // Epoch -> fan-out, written by the flipper (the only epoch writer).
  std::mutex fanout_mu;
  std::map<std::uint64_t, std::size_t> fanout_of_epoch{
      {engine.config_epoch(), 1}};
  struct Call {
    std::size_t query;
    bool miss_within_one_epoch;  // executed, no flip overlapped the call
    std::uint64_t epoch;
    std::size_t shards_run;
  };
  constexpr int kThreads = 4;
  constexpr int kMinIters = 20;
  std::vector<std::vector<Call>> calls(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> errors(kThreads, 0);
  std::atomic<bool> flipping{true};
  std::thread flipper([&] {
    for (int flip = 0; flip < 16; ++flip) {
      const std::size_t shards = flip % 2 == 0 ? 4 : 1;
      engine.set_num_shards(shards);
      {
        std::lock_guard<std::mutex> lock(fanout_mu);
        fanout_of_epoch[engine.config_epoch()] = shards;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    flipping.store(false);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kMinIters || flipping.load(); ++i) {
        const std::size_t q = (t * 5 + i * 3) % queries.size();
        AggregationQuery query = queries[q];
        obs::QueryProfile profile;
        query.profile = &profile;
        const std::uint64_t before = engine.config_epoch();
        const auto result =
            engine.Execute(query, ExecutionMethod::kAccurateRaster);
        const std::uint64_t after = engine.config_epoch();
        if (!result.ok()) {
          ++errors[t];
          continue;
        }
        if (!BitEqual(result->values, expected[q].values) ||
            result->counts != expected[q].counts) {
          ++mismatches[t];
        }
        calls[t].push_back({q, profile.cache == "miss" && before == after,
                            before, profile.shards.size()});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  flipper.join();
  std::size_t sharded_misses = 0;
  std::size_t plain_misses = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    // A call that ran inside one epoch ran that epoch's executor: the
    // executor and the cache key come from one snapshot.
    for (const Call& call : calls[t]) {
      if (!call.miss_within_one_epoch) continue;
      const std::size_t fanout = fanout_of_epoch.at(call.epoch);
      EXPECT_EQ(call.shards_run, fanout > 1 ? fanout : 0)
          << "query " << call.query << " epoch " << call.epoch;
      ++(fanout > 1 ? sharded_misses : plain_misses);
    }
  }
  EXPECT_GT(sharded_misses, 0u);
  EXPECT_GT(plain_misses, 0u);

  // Entries of every retired epoch are still resident, yet none can hit:
  // after one more flip each query misses once, then hits.
  engine.set_num_shards(engine.num_shards() == 1 ? 4 : 1);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const char* outcome : {"miss", "hit"}) {
      AggregationQuery query = queries[q];
      obs::QueryProfile profile;
      query.profile = &profile;
      const auto result =
          engine.Execute(query, ExecutionMethod::kAccurateRaster);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(profile.cache, outcome) << "query " << q;
      EXPECT_TRUE(BitEqual(result->values, expected[q].values))
          << "query " << q;
    }
  }
}

}  // namespace
}  // namespace urbane::core

#ifndef URBANE_CORE_SPATIAL_AGGREGATION_H_
#define URBANE_CORE_SPATIAL_AGGREGATION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/accurate_join.h"
#include "core/index_join.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/query_cache.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "core/zone_map.h"
#include "shard/sharded_executor.h"

namespace urbane::core {

/// Builds the executor that runs `method` — the one method-to-class
/// mapping, shared by the facade and shard::ShardedExecutor. `scan_exec`
/// parallelizes the scan; the others take theirs from their options.
StatusOr<std::unique_ptr<SpatialAggregationExecutor>> CreateExecutor(
    ExecutionMethod method, const data::PointTable& points,
    const data::RegionSet& regions, const RasterJoinOptions& raster_options,
    const IndexJoinOptions& index_options, const ExecutionContext& scan_exec);

/// Facade over the four executors — the library's main entry point.
///
/// Owns nothing heavy until first use: each executor is built lazily on the
/// first query routed to it and then reused (Raster Join's point textures,
/// pixel index, and the grid index are all query-independent). Typical use:
///
///   SpatialAggregation engine(taxis, neighborhoods);
///   AggregationQuery q;
///   q.aggregate = AggregateSpec::Count();
///   q.filter.WithTime(jan_begin, feb_begin);
///   auto result = engine.Execute(q, ExecutionMethod::kAccurateRaster);
///
/// or let the planner decide:
///
///   auto result = engine.ExecuteAuto(q, {.exact = false,
///                                        .epsilon_world = 15.0});
///
/// Thread-safety contract: one engine serves many concurrent sessions.
/// Execute / ExecuteMany / ExecuteAuto / EstimateSelectivity may be called
/// from any number of threads, and any number of them may run one method
/// at once: executors are stateless and const, so a call only takes
/// state_mu_ long enough to snapshot {executor, canvas resolution, config
/// epoch}, then runs with no lock held. A rebuild (ExecuteAuto's
/// resolution bump, set_num_shards) swaps the executor slot and bumps the
/// epoch under state_mu_; calls already in flight keep the retired
/// executor alive through their snapshot and cache their answers under the
/// retired epoch's key, which no later lookup computes. Each raster call
/// checks a warm canvas and filter buffers out of its executor's
/// TargetsPool, so resident canvases grow to the number of calls in flight
/// (bounded by the caller's — e.g. the server's — worker count).
class SpatialAggregation {
 public:
  /// `points`/`regions` must outlive this object.
  ///
  /// `exec` sets the execution parallelism for every executor the facade
  /// builds. Precedence: a non-serial `exec` overrides whatever the
  /// per-executor options carry, so a caller who sets only `exec` gets a
  /// uniformly parallel engine; the serial default leaves the options
  /// untouched (so per-executor `raster_options.exec` still wins when the
  /// facade-level knob is not used).
  SpatialAggregation(const data::PointTable& points,
                     const data::RegionSet& regions,
                     const RasterJoinOptions& raster_options =
                         RasterJoinOptions(),
                     const IndexJoinOptions& index_options =
                         IndexJoinOptions(),
                     const ExecutionContext& exec = ExecutionContext());

  const data::PointTable& points() const { return points_; }
  const data::RegionSet& regions() const { return regions_; }

  /// Attaches the block zone maps of a store-backed table: every query's
  /// filter is pruned against them and executors skip the pruned blocks
  /// (`AggregationQuery::candidate_ranges`). Call once, before the first
  /// query; `zone_maps` is borrowed and must outlive the engine. Pruning
  /// never changes results (see ZoneMapIndex), only the rows visited.
  void AttachZoneMaps(const ZoneMapIndex* zone_maps) {
    zone_maps_ = zone_maps;
  }
  const ZoneMapIndex* zone_maps() const { return zone_maps_; }

  /// Builds (or returns the cached) executor for a method. Construction is
  /// thread-safe; the pointer stays valid until the engine rebuilds that
  /// executor (e.g. an ExecuteAuto resolution bump) and the last call
  /// running on it returns, so concurrent sessions should prefer Execute
  /// over holding executor pointers.
  StatusOr<SpatialAggregationExecutor*> Executor(ExecutionMethod method);

  /// Result cache (core::QueryCache): interactive sessions revisit query
  /// states (brushing back to a previous window), so Execute memoizes
  /// results keyed by a fingerprint of (method, aggregate, filter, viewport
  /// window, canvas resolution, executor-config epoch). Any executor
  /// rebuild bumps the epoch, so entries computed under an older config —
  /// in particular a coarser ε — can never hit again. Disabled by default
  /// (capacity 0) so latency measurements see real executor cost; Urbane's
  /// session layer / the CLI `cache` command turn it on.
  /// Scatter-gather fan-out: with `num_shards > 1` every Execute runs as a
  /// sharded pass — the row space splits into that many contiguous shards
  /// (block-aligned when zone maps are attached), each shard executes the
  /// chosen method serially on the shared pool, and the partials merge per
  /// the shard-merge contract (see shard/shard_merge.h). 0 and 1 both mean
  /// unsharded. Queries in flight finish on the fan-out they started with;
  /// the config epoch bump means their results, and any cached under a
  /// different fan-out, can never hit again.
  void set_num_shards(std::size_t num_shards);
  std::size_t num_shards() const {
    return num_shards_.load(std::memory_order_acquire);
  }

  void set_result_cache_capacity(std::size_t capacity);
  void set_result_cache_max_bytes(std::size_t max_bytes);

  /// Scoped cache invalidation for appendable row sets (the ingest layer's
  /// LiveEngine): drops exactly the cached answers whose time filter
  /// intersects the appended half-open interval, plus every entry with no
  /// time filter. No epoch bump — answers over fully-closed time ranges
  /// outside the interval stay served from cache. Returns entries dropped.
  std::size_t InvalidateTimeRange(std::int64_t begin, std::int64_t end) {
    return cache_.InvalidateTimeOverlap(begin, end);
  }
  QueryCacheStats result_cache_stats() const { return cache_.stats(); }
  std::size_t result_cache_hits() const { return cache_.stats().hits; }
  std::size_t result_cache_size() const { return cache_.stats().entries; }

  /// Rebuild counter mixed into every cache key; bumped whenever an
  /// executor's configuration changes (see ExecuteAuto).
  std::uint64_t config_epoch() const {
    return config_epoch_.load(std::memory_order_acquire);
  }

  /// Fills in the query's points/regions and runs it with the given method.
  ///
  /// Telemetry: when the event journal is enabled, emits `query.start` /
  /// `query.finish` (and `error`) events; when the slow-query flight
  /// recorder is armed, attaches a lightweight trace and commits it to the
  /// recorder if the wall time crosses the threshold; when metrics are
  /// enabled, feeds the `query.wall_seconds` histogram. With everything
  /// off the cost is three relaxed loads before the baseline path.
  StatusOr<QueryResult> Execute(AggregationQuery query,
                                ExecutionMethod method);

  /// Runs several queries. When the method is kBoundedRaster and all
  /// queries share one filter, the cache is probed per query and only the
  /// misses execute as a single shared-splat batch (see
  /// BoundedRasterJoin::ExecuteBatch); otherwise they run one by one.
  StatusOr<std::vector<QueryResult>> ExecuteMany(
      std::vector<AggregationQuery> queries, ExecutionMethod method);

  /// Plans by cost model, then executes. `last_plan()` exposes the choice.
  /// A plan that tightens the bounded-raster resolution rebuilds that
  /// executor and bumps the config epoch (invalidating stale-ε entries).
  StatusOr<QueryResult> ExecuteAuto(AggregationQuery query,
                                    const AccuracyRequirement& accuracy);

  /// Plan chosen by the most recent ExecuteAuto (copied under the state
  /// lock — safe against concurrent planners, though "last" is then
  /// whichever session planned most recently).
  QueryPlan last_plan() const;

  /// Estimated selectivity of a filter: a count-only pass over an evenly
  /// strided sample (no bitmap / id materialization), so planning costs
  /// O(min(n, sample)) time and O(1) memory.
  StatusOr<double> EstimateSelectivity(const FilterSpec& filter) const;

 private:
  /// Test seam: installs an executor into a slot, e.g. one that holds a
  /// call mid-execution (tests/core/engine_concurrency_test.cc).
  friend class SpatialAggregationTestPeer;

  static constexpr std::size_t kNumMethods = 4;
  static std::size_t MethodIndex(ExecutionMethod method) {
    return static_cast<std::size_t>(method);
  }

  /// One consistent view of a method's configuration, taken under
  /// state_mu_: the executor a call runs and the cache-key inputs of that
  /// same configuration. Keeping both in one snapshot is what stops a call
  /// from caching an old executor's answer under a new epoch's key.
  struct Snapshot {
    std::shared_ptr<const SpatialAggregationExecutor> executor;
    bool sharded = false;
    int resolution = 0;
    std::uint64_t epoch = 0;

    std::uint64_t Key(const AggregationQuery& query,
                      ExecutionMethod method) const {
      return QueryCache::Fingerprint(query, method, resolution, epoch);
    }
  };

  /// Snapshots `method`, building its executor on first use: the sharded
  /// wrapper when `num_shards() > 1`, the plain executor otherwise.
  StatusOr<Snapshot> TakeSnapshot(ExecutionMethod method);

  /// The executor Execute dispatches to (see TakeSnapshot). Requires
  /// state_mu_ held.
  StatusOr<std::shared_ptr<SpatialAggregationExecutor>> ActiveExecutorLocked(
      ExecutionMethod method);

  /// The baseline query path (cache probe + executor dispatch), free of
  /// journal/recorder instrumentation. `cache_hit`, when non-null, reports
  /// whether the result came from the cache.
  StatusOr<QueryResult> ExecuteUnobserved(AggregationQuery query,
                                          ExecutionMethod method,
                                          bool* cache_hit);

  /// ExecuteMany's shared-splat batch on an unsharded bounded snapshot:
  /// probes the cache per query and runs only the misses, as one
  /// BoundedRasterJoin::ExecuteBatch. nullopt when the batch cannot run
  /// (unequal filters) and the caller must execute query by query.
  std::optional<std::vector<QueryResult>> ExecuteSharedSplat(
      const std::vector<AggregationQuery>& queries, const Snapshot& snapshot);

  /// Cache key for `query` under the engine's current config — the
  /// identity journal events and slow-query records carry. A query's own
  /// cache traffic uses its Snapshot's key instead.
  std::uint64_t Fingerprint(const AggregationQuery& query,
                            ExecutionMethod method) const;

  const data::PointTable& points_;
  const data::RegionSet& regions_;
  const IndexJoinOptions index_options_;
  ExecutionContext exec_;
  const ZoneMapIndex* zone_maps_ = nullptr;  // set before first query

  /// Guards the executor slots, raster_options_, num_shards_,
  /// config_epoch_ writes and last_plan_ (see the class comment).
  mutable std::mutex state_mu_;

  RasterJoinOptions raster_options_;  // resolution mutates in ExecuteAuto
  /// Executors by MethodIndex, built lazily on first use. A rebuild resets
  /// a slot; calls in flight own the retired executor until they return.
  std::array<std::shared_ptr<SpatialAggregationExecutor>, kNumMethods>
      executors_;
  /// Sharded wrappers, one per method, built lazily like the executors
  /// above whenever num_shards_ > 1 (the plain ones stay untouched).
  std::array<std::shared_ptr<SpatialAggregationExecutor>, kNumMethods>
      sharded_;
  QueryPlan last_plan_;

  std::atomic<std::size_t> num_shards_{1};
  std::atomic<std::uint64_t> config_epoch_{0};
  QueryCache cache_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_SPATIAL_AGGREGATION_H_

#include "core/spatial_aggregation.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/observe.h"
#include "obs/event_journal.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace urbane::core {

namespace {

template <typename Executor>
StatusOr<std::unique_ptr<SpatialAggregationExecutor>> Upcast(
    StatusOr<std::unique_ptr<Executor>> built) {
  if (!built.ok()) return built.status();
  return std::unique_ptr<SpatialAggregationExecutor>(std::move(built).value());
}

}  // namespace

StatusOr<std::unique_ptr<SpatialAggregationExecutor>> CreateExecutor(
    ExecutionMethod method, const data::PointTable& points,
    const data::RegionSet& regions, const RasterJoinOptions& raster_options,
    const IndexJoinOptions& index_options, const ExecutionContext& scan_exec) {
  switch (method) {
    case ExecutionMethod::kScan:
      return Upcast(ScanJoin::Create(points, regions, scan_exec));
    case ExecutionMethod::kIndexJoin:
      return Upcast(IndexJoin::Create(points, regions, index_options));
    case ExecutionMethod::kBoundedRaster:
      return Upcast(BoundedRasterJoin::Create(points, regions, raster_options));
    case ExecutionMethod::kAccurateRaster:
      return Upcast(
          AccurateRasterJoin::Create(points, regions, raster_options));
  }
  return Status::InvalidArgument("unknown execution method");
}

SpatialAggregation::SpatialAggregation(const data::PointTable& points,
                                       const data::RegionSet& regions,
                                       const RasterJoinOptions& raster_options,
                                       const IndexJoinOptions& index_options,
                                       const ExecutionContext& exec)
    : points_(points),
      regions_(regions),
      index_options_([&] {
        IndexJoinOptions options = index_options;
        if (!exec.IsSerial()) options.exec = exec;
        return options;
      }()),
      exec_(exec),
      raster_options_([&] {
        // A non-serial facade-level context overrides the per-executor knobs
        // so one argument parallelizes the whole engine uniformly.
        RasterJoinOptions options = raster_options;
        if (!exec.IsSerial()) options.exec = exec;
        return options;
      }()) {}

StatusOr<std::shared_ptr<SpatialAggregationExecutor>>
SpatialAggregation::ActiveExecutorLocked(ExecutionMethod method) {
  const std::size_t n = num_shards_.load(std::memory_order_relaxed);
  std::shared_ptr<SpatialAggregationExecutor>& slot =
      n <= 1 ? executors_[MethodIndex(method)] : sharded_[MethodIndex(method)];
  if (slot) return slot;
  if (n <= 1) {
    URBANE_ASSIGN_OR_RETURN(
        slot, CreateExecutor(method, points_, regions_, raster_options_,
                             index_options_, exec_));
    return slot;
  }
  shard::ShardedExecutorOptions options;
  options.num_shards = n;
  options.pool = exec_.pool;
  // Block-aligned shard boundaries over a store-backed table: no block
  // straddles two shards, so per-shard pruning stays whole-block.
  if (zone_maps_ != nullptr && !zone_maps_->blocks().empty()) {
    options.align_rows = zone_maps_->blocks().front().row_count;
  }
  URBANE_ASSIGN_OR_RETURN(
      slot, shard::ShardedExecutor::Create(points_, regions_, method, options,
                                           raster_options_, index_options_));
  return slot;
}

StatusOr<SpatialAggregation::Snapshot> SpatialAggregation::TakeSnapshot(
    ExecutionMethod method) {
  std::lock_guard<std::mutex> lock(state_mu_);
  Snapshot snapshot;
  URBANE_ASSIGN_OR_RETURN(snapshot.executor, ActiveExecutorLocked(method));
  snapshot.sharded = num_shards_.load(std::memory_order_relaxed) > 1;
  snapshot.resolution = raster_options_.resolution;
  snapshot.epoch = config_epoch_.load(std::memory_order_relaxed);
  return snapshot;
}

StatusOr<SpatialAggregationExecutor*> SpatialAggregation::Executor(
    ExecutionMethod method) {
  std::lock_guard<std::mutex> lock(state_mu_);
  URBANE_ASSIGN_OR_RETURN(std::shared_ptr<SpatialAggregationExecutor> executor,
                          ActiveExecutorLocked(method));
  return executor.get();
}

void SpatialAggregation::set_num_shards(std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  // Cached results from the old fan-out must never hit again (float SUM/AVG
  // can differ bitwise across fan-outs) — same discipline as the
  // ExecuteAuto resolution rebuild. Calls in flight keep their executor.
  std::lock_guard<std::mutex> lock(state_mu_);
  if (num_shards_.load(std::memory_order_relaxed) == num_shards) {
    return;
  }
  num_shards_.store(num_shards, std::memory_order_release);
  for (std::shared_ptr<SpatialAggregationExecutor>& slot : sharded_) {
    slot.reset();
  }
  config_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void SpatialAggregation::set_result_cache_capacity(std::size_t capacity) {
  cache_.set_max_entries(capacity);
}

void SpatialAggregation::set_result_cache_max_bytes(std::size_t max_bytes) {
  cache_.set_max_bytes(max_bytes);
}

std::uint64_t SpatialAggregation::Fingerprint(const AggregationQuery& query,
                                              ExecutionMethod method) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return QueryCache::Fingerprint(query, method, raster_options_.resolution,
                                 config_epoch_.load(std::memory_order_relaxed));
}

StatusOr<QueryResult> SpatialAggregation::ExecuteUnobserved(
    AggregationQuery query, ExecutionMethod method, bool* cache_hit) {
  query.points = &points_;
  query.regions = &regions_;
  // Facade-level span: the executor's own span nests under it, so a trace
  // shows snapshot/cache overhead as the gap between the two.
  obs::TraceSpan facade_span(query.trace, "execute");
  facade_span.Tag("method", ExecutionMethodToString(method));
  const bool use_cache = cache_.enabled();
  if (query.trace != nullptr) {
    query.trace->Tag("method", ExecutionMethodToString(method));
    query.trace->Tag("cache", use_cache ? "miss" : "off");
  }
  if (query.profile != nullptr) {
    query.profile->method = ExecutionMethodToString(method);
    query.profile->cache = use_cache ? "miss" : "off";
  }
  URBANE_ASSIGN_OR_RETURN(const Snapshot snapshot, TakeSnapshot(method));
  const std::uint64_t key = use_cache ? snapshot.Key(query, method) : 0;
  if (use_cache) {
    if (std::optional<QueryResult> hit = cache_.Lookup(key)) {
      if (query.trace != nullptr) query.trace->Tag("cache", "hit");
      if (query.profile != nullptr) query.profile->cache = "hit";
      if (cache_hit != nullptr) *cache_hit = true;
      return std::move(*hit);
    }
  }
  // A query whose deadline expired while queued aborts here instead of
  // paying for a doomed execution. Cache hits above are deliberately
  // exempt: they are cheaper than the check is useful.
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  // Zone-map pruning (store-backed tables): skip blocks the filter rules
  // out. Computed after the cache probe (hits never pay for it) and kept
  // alive on this frame through Execute. A caller-supplied range set wins.
  PruneResult prune;
  if (zone_maps_ != nullptr && query.candidate_ranges == nullptr &&
      !query.filter.IsTrivial()) {
    prune = zone_maps_->Prune(query.filter, points_.schema());
    query.candidate_ranges = &prune.candidates;
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      registry.GetCounter("store.blocks_pruned").Add(prune.blocks_pruned);
      registry.GetCounter("store.rows_pruned").Add(prune.rows_pruned);
    }
    if (query.trace != nullptr) {
      query.trace->Tag("store.blocks_pruned",
                       std::to_string(prune.blocks_pruned));
    }
    if (query.profile != nullptr) {
      query.profile->blocks_total = prune.blocks_total;
      query.profile->blocks_pruned = prune.blocks_pruned;
      query.profile->rows_pruned = prune.rows_pruned;
    }
  }
  // Thread-CPU attribution for the dispatch: exact while execution is
  // serial (including each sharded pass, which is serial per shard) and
  // coordinator-only under intra-executor parallelism (DESIGN.md §12).
  const double cpu_begin =
      query.profile != nullptr ? obs::ThreadCpuSeconds() : 0.0;
  ExecutorStats stats;
  URBANE_ASSIGN_OR_RETURN(QueryResult result,
                          snapshot.executor->Execute(query, &stats));
  if (query.profile != nullptr) {
    query.profile->cpu_seconds += obs::ThreadCpuSeconds() - cpu_begin;
    query.profile->method = snapshot.executor->name();
    query.profile->threads_used = stats.threads_used;
    query.profile->totals = stats;
  }
  if (use_cache) {
    cache_.Insert(key, result, QueryCache::ValidTime(query.filter));
  }
  return result;
}

StatusOr<QueryResult> SpatialAggregation::Execute(AggregationQuery query,
                                                  ExecutionMethod method) {
  obs::SlowQueryLog& recorder = obs::SlowQueryLog::Global();
  const bool journal = obs::JournalEnabled();
  const bool armed = recorder.armed();
  const bool metrics = obs::MetricsEnabled();
  if (!journal && !armed && !metrics && query.trace == nullptr &&
      query.profile == nullptr) {
    // The obs-off == baseline guarantee: three relaxed loads and two
    // pointer tests, then the unchanged query path.
    return ExecuteUnobserved(std::move(query), method, nullptr);
  }

  // The fingerprint keys journal events and slow-query records to the same
  // identity the cache uses (it ignores points/regions pointers, so it is
  // safe to compute before ExecuteUnobserved fills those in).
  const std::uint64_t fingerprint =
      journal || armed ? Fingerprint(query, method) : 0;
  if (journal) {
    obs::Event start;
    start.kind = obs::EventKind::kQueryStart;
    start.method = static_cast<std::uint8_t>(method);
    start.fingerprint = fingerprint;
    obs::EmitEvent(start);
  }

  // Armed mode: attach a trace the caller did not ask for, so a slow query
  // retains its per-pass spans. Dropped unless MaybeRecord captures it.
  std::unique_ptr<obs::QueryTrace> armed_trace;
  if (armed && query.trace == nullptr) {
    armed_trace = std::make_unique<obs::QueryTrace>();
    query.trace = armed_trace.get();
  }
  // Armed mode likewise attaches a profile, so a committed slow-query
  // record embeds the full per-pass/per-shard breakdown. The armed profile
  // inherits the thread's current trace context (the server request's id),
  // linking the slowlog entry to the same trace as everything else.
  std::unique_ptr<obs::QueryProfile> armed_profile;
  if (armed && query.profile == nullptr) {
    armed_profile = std::make_unique<obs::QueryProfile>();
    obs::CurrentTraceContext(&armed_profile->context.trace_hi,
                             &armed_profile->context.trace_lo);
    query.profile = armed_profile.get();
  }

  WallTimer timer;
  bool cache_hit = false;
  StatusOr<QueryResult> result =
      ExecuteUnobserved(query, method, &cache_hit);
  const double wall_seconds = timer.ElapsedSeconds();
  if (query.profile != nullptr) {
    query.profile->wall_seconds = wall_seconds;
  }

  if (metrics) {
    // The recorder's p99-multiplier threshold derives from this histogram.
    obs::MetricsRegistry::Global()
        .GetHistogram("query.wall_seconds")
        .Observe(wall_seconds);
  }
  if (journal) {
    obs::Event finish;
    finish.kind = obs::EventKind::kQueryFinish;
    finish.method = static_cast<std::uint8_t>(method);
    finish.fingerprint = fingerprint;
    finish.value = wall_seconds;
    if (cache_hit) finish.flags |= obs::kEventCacheHit;
    if (!result.ok()) finish.flags |= obs::kEventError;
    obs::EmitEvent(finish);
    if (!result.ok()) {
      obs::Event error;
      error.kind = obs::EventKind::kError;
      error.method = static_cast<std::uint8_t>(method);
      error.fingerprint = fingerprint;
      error.detail = static_cast<std::uint8_t>(result.status().code());
      obs::EmitEvent(error);
    }
  }
  if (armed) {
    std::string plan;
    if (query.trace != nullptr) {
      for (const auto& [key, value] : query.trace->Tags()) {
        if (key == "planner.explanation") plan = value;
      }
    }
    recorder.MaybeRecord(fingerprint, ExecutionMethodToString(method),
                         query.ToString(), plan, wall_seconds, query.trace,
                         query.profile);
  }
  return result;
}

StatusOr<std::vector<QueryResult>> SpatialAggregation::ExecuteMany(
    std::vector<AggregationQuery> queries, ExecutionMethod method) {
  for (AggregationQuery& query : queries) {
    query.points = &points_;
    query.regions = &regions_;
  }
  // The shared-splat batch is a single-executor optimization; a sharded
  // engine answers each query through its scatter-gather path instead.
  if (method == ExecutionMethod::kBoundedRaster && queries.size() > 1) {
    URBANE_ASSIGN_OR_RETURN(const Snapshot snapshot, TakeSnapshot(method));
    if (!snapshot.sharded) {
      std::optional<std::vector<QueryResult>> batched =
          ExecuteSharedSplat(queries, snapshot);
      if (batched.has_value()) return std::move(*batched);
    }
  }
  // One execution per query. Queries may share a profile (a bounded AVG
  // partial's SUM and COUNT passes do): each call records into a private
  // one, folded into the caller's in query order.
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (AggregationQuery& query : queries) {
    obs::QueryProfile* const shared = query.profile;
    obs::QueryProfile own;
    if (shared != nullptr) query.profile = &own;
    URBANE_ASSIGN_OR_RETURN(QueryResult result, Execute(query, method));
    if (shared != nullptr) {
      obs::FoldProfile(own, shared);
      shared->method = own.method;
      shared->wall_seconds += own.wall_seconds;
      if (shared->cache != "miss") shared->cache = own.cache;
    }
    results.push_back(std::move(result));
  }
  return results;
}

std::optional<std::vector<QueryResult>> SpatialAggregation::ExecuteSharedSplat(
    const std::vector<AggregationQuery>& queries, const Snapshot& snapshot) {
  const bool use_cache = cache_.enabled();
  std::vector<std::optional<QueryResult>> found(queries.size());
  std::vector<std::uint64_t> keys(queries.size(), 0);
  std::vector<AggregationQuery> pending;
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (use_cache) {
      keys[i] = snapshot.Key(queries[i], ExecutionMethod::kBoundedRaster);
      if (std::optional<QueryResult> hit = cache_.Lookup(keys[i])) {
        found[i] = std::move(*hit);
        continue;
      }
    }
    missing.push_back(i);
    pending.push_back(queries[i]);
  }
  if (!pending.empty()) {
    // The batch path shares one filter evaluation (ExecuteBatch checks the
    // filters are equal), so one prune serves every pending query.
    PruneResult prune;
    if (zone_maps_ != nullptr && !pending.front().filter.IsTrivial()) {
      prune = zone_maps_->Prune(pending.front().filter, points_.schema());
      for (AggregationQuery& query : pending) {
        if (query.candidate_ranges == nullptr) {
          query.candidate_ranges = &prune.candidates;
        }
      }
      if (obs::MetricsEnabled()) {
        obs::MetricsRegistry::Global()
            .GetCounter("store.blocks_pruned")
            .Add(prune.blocks_pruned);
      }
    }
    const auto& raster =
        static_cast<const BoundedRasterJoin&>(*snapshot.executor);
    ExecutorStats stats;
    auto batched = raster.ExecuteBatch(pending, &stats);
    // Heterogeneous filters: the caller falls back to per-query execution.
    if (!batched.ok()) return std::nullopt;
    // One execution: like its trace, the front query's profile.
    if (pending.front().profile != nullptr) {
      pending.front().profile->totals = stats;
    }
    for (std::size_t k = 0; k < missing.size(); ++k) {
      if (use_cache) {
        cache_.Insert(keys[missing[k]], (*batched)[k],
                      QueryCache::ValidTime(queries[missing[k]].filter));
      }
      found[missing[k]] = std::move((*batched)[k]);
    }
  }
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (std::optional<QueryResult>& result : found) {
    results.push_back(std::move(*result));
  }
  return results;
}

StatusOr<QueryResult> SpatialAggregation::ExecuteAuto(
    AggregationQuery query, const AccuracyRequirement& accuracy) {
  query.points = &points_;
  query.regions = &regions_;
  URBANE_RETURN_IF_ERROR(query.Validate());

  WorkloadProfile profile;
  profile.num_points = points_.size();
  profile.num_regions = regions_.size();
  profile.total_region_vertices = regions_.TotalVertexCount();
  profile.world = points_.Bounds();
  profile.world.Extend(regions_.Bounds());
  URBANE_ASSIGN_OR_RETURN(profile.selectivity,
                          EstimateSelectivity(query.filter));
  profile.available_shards = num_shards();
  QueryPlan plan;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    profile.has_point_index =
        executors_[MethodIndex(ExecutionMethod::kIndexJoin)] != nullptr;
    profile.has_pixel_index =
        executors_[MethodIndex(ExecutionMethod::kAccurateRaster)] != nullptr;
    plan = PlanQuery(profile, accuracy, raster_options_.resolution);
    last_plan_ = plan;
  }
  if (query.trace != nullptr) {
    query.trace->Tag("planner.choice", ExecutionMethodToString(plan.method));
    query.trace->Tag("planner.explanation", plan.explanation);
  }
  if (query.profile != nullptr) {
    query.profile->planner_choice = ExecutionMethodToString(plan.method);
    query.profile->planner_explanation = plan.explanation;
  }
  if (obs::JournalEnabled()) {
    obs::Event chose;
    chose.kind = obs::EventKind::kPlannerChoose;
    chose.method = static_cast<std::uint8_t>(plan.method);
    chose.fingerprint = Fingerprint(query, plan.method);
    chose.value = plan.method == ExecutionMethod::kScan ? plan.cost_scan
                  : plan.method == ExecutionMethod::kIndexJoin
                      ? plan.cost_index
                      : plan.cost_raster;
    obs::EmitEvent(chose);
  }
  // Honor a tighter epsilon by rebuilding the bounded executor's canvas.
  // The swap bumps the config epoch, which retires every cache entry
  // computed at the old, coarser ε; sessions mid-query on the old executor
  // finish on it (see the class comment).
  if (plan.method == ExecutionMethod::kBoundedRaster) {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (plan.resolution > raster_options_.resolution) {
      raster_options_.resolution = plan.resolution;
      executors_[MethodIndex(ExecutionMethod::kBoundedRaster)].reset();
      // The sharded wrapper's inner rasters carry the old canvas too.
      sharded_[MethodIndex(ExecutionMethod::kBoundedRaster)].reset();
      config_epoch_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  return Execute(std::move(query), plan.method);
}

QueryPlan SpatialAggregation::last_plan() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return last_plan_;
}

StatusOr<double> SpatialAggregation::EstimateSelectivity(
    const FilterSpec& filter) const {
  if (filter.IsTrivial()) {
    return 1.0;
  }
  URBANE_ASSIGN_OR_RETURN(double estimate,
                          EstimateFilterSelectivity(filter, points_));
  // Zone maps give an exact upper bound (pruned rows cannot match), which
  // sharpens the strided sample when the filter is clustered in few blocks.
  if (zone_maps_ != nullptr) {
    estimate = std::min(
        estimate, zone_maps_->CandidateFraction(filter, points_.schema()));
  }
  return estimate;
}

}  // namespace urbane::core

#ifndef URBANE_CORE_QUERY_H_
#define URBANE_CORE_QUERY_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>

#include "core/aggregate.h"
#include "core/filter.h"
#include "core/row_range.h"
#include "data/point_table.h"
#include "data/region.h"
#include "util/status.h"

namespace urbane::obs {
class QueryTrace;
struct QueryProfile;
}  // namespace urbane::obs

namespace urbane::core {

/// Cooperative deadline / cancellation for one in-flight query. The owner
/// (e.g. a server worker) keeps the control alive for the duration of
/// Execute; executors poll Check() at pass boundaries (filter → splat →
/// sweep → reduce → refine), so a query aborts within one pass of the
/// deadline expiring or `cancelled` being set — never mid-buffer.
///
/// Not part of a query's identity: the result cache fingerprint ignores
/// it, and a query that aborts returns a non-OK status, so partial results
/// can never be cached.
struct QueryControl {
  using Clock = std::chrono::steady_clock;

  /// Absolute deadline; the epoch default means "none".
  Clock::time_point deadline{};
  /// Asynchronous abort (e.g. server drain past its drain deadline). May
  /// be set from any thread while the query runs.
  std::atomic<bool> cancelled{false};

  void SetTimeout(std::chrono::milliseconds timeout) {
    deadline = Clock::now() + timeout;
  }

  /// OK while the query may keep running; DeadlineExceeded once the
  /// deadline passed or the control was cancelled.
  Status Check() const {
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("query cancelled");
    }
    if (deadline != Clock::time_point{} && Clock::now() > deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

/// The paper's spatial aggregation query:
///
///   SELECT AGG(a_i) FROM P, R
///   WHERE P.loc INSIDE R.geometry [AND filterCondition]*
///   GROUP BY R.id
///
/// `points` is P, `regions` is R; both are borrowed (caller keeps them alive
/// for the duration of execution). A point lying in several (overlapping)
/// regions contributes to each of them.
struct AggregationQuery {
  const data::PointTable* points = nullptr;
  const data::RegionSet* regions = nullptr;
  AggregateSpec aggregate;
  FilterSpec filter;

  /// Optional per-query trace sink (not part of the query's identity: the
  /// cache fingerprint ignores it). Executors emit one span per pass into
  /// it; null — the common case — makes every span a no-op.
  obs::QueryTrace* trace = nullptr;

  /// Optional deadline/cancellation hook, polled between executor passes;
  /// null (the common case) costs one pointer test per pass. Borrowed —
  /// the caller keeps it alive for the duration of Execute. Like `trace`,
  /// not part of the query's identity.
  const QueryControl* control = nullptr;

  /// Optional per-request profile (obs/profile.h): the facade attributes
  /// planner/cache/prune outcomes and executor pass costs to it, and the
  /// sharded executor appends its per-shard breakdown. Same discipline as
  /// `trace`: nullable, borrowed, mutated only by the coordinator thread
  /// of this query, and never part of the query's identity.
  obs::QueryProfile* profile = nullptr;

  /// Optional zone-map pruning output (ZoneMapIndex::Prune over this
  /// query's filter): rows outside these ranges are known not to match the
  /// filter, so executors skip them before the per-point predicate. Null —
  /// the in-memory common case — means all rows are candidates. Borrowed
  /// for the duration of Execute; not part of the query's identity, since
  /// pruning never changes results (see ZoneMapIndex).
  const RowRangeSet* candidate_ranges = nullptr;

  /// Pass-boundary deadline poll (see QueryControl).
  Status CheckControl() const {
    return control == nullptr ? Status::OK() : control->Check();
  }

  /// Structural validation (non-null inputs, attribute names resolvable).
  Status Validate() const;

  /// Human-readable SQL-ish rendering for logs and EXPLAIN output.
  std::string ToString() const;
};

/// Common interface of the interchangeable execution strategies.
///
/// Executors hold no per-query state: Execute is const and returns each
/// call's stats, so one instance may serve any number of concurrent calls.
class SpatialAggregationExecutor {
 public:
  virtual ~SpatialAggregationExecutor() = default;

  /// Executes the query, producing one value per region (region order).
  /// On success `stats` (optional) receives this call's telemetry.
  StatusOr<QueryResult> Execute(const AggregationQuery& query,
                                ExecutorStats* stats = nullptr) const;

  /// Strategy name for reports ("scan", "index", "raster", "accurate").
  virtual std::string name() const = 0;

  /// True if results are exact (false only for the bounded raster join).
  virtual bool exact() const = 0;

  /// Stats of the most recently completed call on any thread (only
  /// build_seconds before the first).
  ExecutorStats stats() const {
    std::lock_guard<std::mutex> lock(last_mu_);
    return last_;
  }

 protected:
  /// Records the one-time build cost.
  void set_build_seconds(double seconds) {
    build_seconds_ = seconds;
    last_.build_seconds = seconds;
  }

  /// Hands a completed call's stats to its caller (`out`, may be null) and
  /// to stats(); for entry points beside Execute (ExecuteBatch).
  void PublishStats(const ExecutorStats& stats, ExecutorStats* out) const;

  double build_seconds_ = 0.0;  // every call's stats carry it

 private:
  /// The strategy itself; fills `stats` for this call only.
  virtual StatusOr<QueryResult> DoExecute(const AggregationQuery& query,
                                          ExecutorStats& stats) const = 0;

  mutable std::mutex last_mu_;
  mutable ExecutorStats last_;  // guarded by last_mu_
};

}  // namespace urbane::core

#endif  // URBANE_CORE_QUERY_H_

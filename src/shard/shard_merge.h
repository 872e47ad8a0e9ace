#ifndef URBANE_SHARD_SHARD_MERGE_H_
#define URBANE_SHARD_SHARD_MERGE_H_

#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/query.h"
#include "util/status.h"

namespace urbane::shard {

/// The aggregate a shard actually executes for a requested aggregate.
///
/// Everything maps to itself except AVG: a per-shard average cannot be
/// merged (average-of-averages is wrong whenever shard sizes differ — see
/// the unit counterexample in tests/shard/shard_merge_test.cc), so each
/// shard runs SUM and the merge divides the summed (sum, count) pairs once,
/// exactly like Accumulator::Finalize does for the unsharded engine.
core::AggregateKind ShardExecutionKind(core::AggregateKind requested);

/// Runs one partial of `query` under the merge contract below — the one
/// owner of the AVG split, used per shard and per live component. The
/// aggregate runs as ShardExecutionKind via `execute(query)`. A
/// bounded-raster AVG partial needs COUNT-semantics error bounds where a
/// SUM pass bounds Σ|attr|, so with `bounded_raster` SUM and COUNT run as
/// one shared-splat `execute_batch(queries)` and the COUNT bounds are
/// grafted onto the SUM partial (the two passes' counts are equal).
template <typename Execute, typename ExecuteBatch>
StatusOr<core::QueryResult> ExecutePartial(core::AggregationQuery query,
                                           bool bounded_raster,
                                           const Execute& execute,
                                           const ExecuteBatch& execute_batch) {
  const bool avg = query.aggregate.kind == core::AggregateKind::kAvg;
  query.aggregate.kind = ShardExecutionKind(query.aggregate.kind);
  if (!avg || !bounded_raster) {
    return execute(query);
  }
  core::AggregationQuery count_query = query;
  count_query.aggregate = core::AggregateSpec::Count();
  URBANE_ASSIGN_OR_RETURN(std::vector<core::QueryResult> results,
                          execute_batch(std::vector<core::AggregationQuery>{
                              std::move(query), std::move(count_query)}));
  core::QueryResult partial = std::move(results[0]);
  partial.error_bounds = std::move(results[1].error_bounds);
  return partial;
}

/// Merges per-shard partial results into the final QueryResult, in
/// ascending shard order. `partials[s]` must be the result of running shard
/// s with aggregate `ShardExecutionKind(kind)` over a disjoint row subset;
/// all partials must have the same number of regions.
///
/// Merge semantics per aggregate (the shard-merge contract):
///   COUNT  value and count add (exact integer arithmetic in double).
///   SUM    values add; counts add.
///   AVG    partials carry SUM results; merged value = Σsum / Σcount,
///          NaN when Σcount == 0 (matching Accumulator::Finalize).
///   MIN    NaN-aware minimum: a NaN partial value means "shard saw no
///          point in this region" and is skipped; all-NaN stays NaN.
///   MAX    symmetric NaN-aware maximum.
///
/// Error bounds (bounded raster only) are additive for every aggregate:
/// each point lives in exactly one shard, so per-shard boundary-point
/// counts / |attribute| sums partition the serial bound. Partials with no
/// bounds contribute zero; the merged result carries bounds iff any partial
/// did. For AVG the caller must supply COUNT-semantics bounds in the SUM
/// partials' error_bounds (ExecutePartial batches SUM and COUNT in one
/// splat+sweep for exactly this reason).
///
/// Because shard partials are combined in shard-index order — never in
/// completion order — the merged result is a pure function of the partials:
/// the adversarial-interleaving suite exploits this to prove merge-order
/// independence.
StatusOr<core::QueryResult> MergeShardPartials(
    core::AggregateKind kind,
    const std::vector<core::QueryResult>& partials);

}  // namespace urbane::shard

#endif  // URBANE_SHARD_SHARD_MERGE_H_

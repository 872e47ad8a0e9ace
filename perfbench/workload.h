#ifndef URBANE_PERFBENCH_WORKLOAD_H_
#define URBANE_PERFBENCH_WORKLOAD_H_

// Seeded generators for everything the benchmark sends: fig8-style brushing
// traces rendered as SQL statements, the revisit state set, and the ingest
// batch stream. The program under test only ever sees their output (SQL
// text, JSON row batches); one seed always yields the same streams.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "data/point_table.h"
#include "urbane/session.h"
#include "util/random.h"

namespace perfbench {

/// Independent sub-seed `stream` of a run seed (data, trace per client, ...).
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

/// The value ranges a trace brushes over, taken from the generated data.
struct Domain {
  std::int64_t t_min = 0;
  std::int64_t t_max = 1;
  /// fare_amount range in whole cents, so every rendered bound is exact.
  std::int64_t fare_lo_cents = 0;
  std::int64_t fare_hi_cents = 100;
  /// Map extent in whole Mercator meters (viewport boxes stay inside).
  std::array<std::int64_t, 4> world = {0, 0, 1, 1};
};

/// Domain of a taxi table (time range, fare range, spatial extent).
Domain DomainOf(const urbane::data::PointTable& trips);

/// One brushing frame as a statement. Every number is integral (seconds,
/// cents, meters), so rendering and parsing round-trip exactly.
struct Statement {
  urbane::core::AggregateKind aggregate = urbane::core::AggregateKind::kCount;
  std::int64_t t_begin = 0;
  std::int64_t t_end = 1;
  std::optional<std::pair<std::int64_t, std::int64_t>> fare_cents;
  std::optional<std::array<std::int64_t, 4>> box;  // x0, y0, x1, y1
};

/// The attribute brushed and aggregated by every trace.
inline constexpr char kFareAttribute[] = "fare_amount";

/// Renders the statement in the engine's SQL dialect against the named
/// point data set and region layer.
std::string RenderSql(const Statement& statement, const std::string& points,
                      const std::string& regions);

/// A fig8-style user: time-brush moves and resizes, filter tighten and
/// relax, aggregate switches (COUNT, AVG, SUM of fare) and pans. The event
/// mix is the interaction session's (app::GenerateInteractionTrace); a pan
/// moves or zooms a viewport box, or resets to the full map.
class BrushTrace {
 public:
  BrushTrace(std::uint64_t seed, const Domain& domain);

  /// Next frame, with the time window inside the domain.
  Statement Next();

  /// Next frame with the window's end pinned just past `newest_t`, so it
  /// always overlaps the newest data (the ingest workload's reader).
  Statement NextEndingAt(std::int64_t newest_t);

 private:
  void Advance();
  Statement Current(std::int64_t t_begin, std::int64_t t_end) const;

  Domain domain_;
  std::uint64_t seed_;
  std::uint64_t chunk_ = 0;
  std::vector<urbane::app::InteractionEvent> events_;
  std::size_t next_event_ = 0;
  urbane::Rng pan_rng_;

  double window_start_ = 0.0;   // fraction of the time span
  double window_length_ = 0.25;
  bool has_filter_ = false;
  double filter_lo_q_ = 0.0;
  double filter_hi_q_ = 1.0;
  int aggregate_cycle_ = 0;
  std::optional<std::array<std::int64_t, 4>> box_;
};

/// `count` distinct frames of BrushTrace(seed, domain) whose aggregates
/// cycle COUNT, AVG, SUM, so every seed's set has the same aggregate mix
/// (and so about the same response sizes).
std::vector<Statement> RevisitStates(std::uint64_t seed, const Domain& domain,
                                     std::size_t count);

/// The ingest reader's cycle: `count` distinct frames of BrushTrace(seed,
/// domain) (NextEndingAt, compared as rendered SQL) whose aggregates cycle
/// COUNT, AVG, SUM like RevisitStates. No two frames of a cycle are the
/// same query, so whether a frame finds its answer in the result cache
/// never hangs on whether a batch landed between two identical requests.
std::vector<Statement> ReaderFrames(std::uint64_t seed, const Domain& domain,
                                    std::size_t count);

/// `frame` with its window moved, length kept, to end just past
/// `newest_t`.
Statement EndingAt(Statement frame, std::int64_t newest_t);

/// Rows an ingest writer appends, cut into fixed-size batches whose times
/// continue the base's time axis in order. Only the rows are held; each
/// batch's request body is rendered when it is sent (IngestBody).
struct IngestStream {
  urbane::data::PointTable rows;  // time-sorted
  std::size_t batch_rows = 0;

  std::size_t batches() const {
    return batch_rows == 0 ? 0 : rows.size() / batch_rows;
  }
};

/// `batches` batches of `batch_rows` generated taxi trips with times in
/// [t_begin, t_begin + batches * seconds_per_batch).
IngestStream MakeIngestStream(std::uint64_t seed, std::size_t batches,
                              std::size_t batch_rows, std::int64_t t_begin,
                              std::int64_t seconds_per_batch);

/// The POST /v1/ingest body of batch `batch`: rows
/// [batch * batch_rows, (batch + 1) * batch_rows) of the stream.
std::string IngestBody(const IngestStream& stream, std::size_t batch,
                       const std::string& dataset);

}  // namespace perfbench

#endif  // URBANE_PERFBENCH_WORKLOAD_H_

#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "data/taxi_generator.h"
#include "util/string_util.h"

namespace perfbench {

using urbane::core::AggregateKind;

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return urbane::SplitMix64(state);
}

Domain DomainOf(const urbane::data::PointTable& trips) {
  Domain domain;
  const auto [t_min, t_max] = trips.TimeRange();
  domain.t_min = t_min;
  domain.t_max = std::max(t_max, t_min + 1);
  const float* fare = trips.AttributeByName(kFareAttribute);
  if (fare != nullptr && !trips.empty()) {
    const auto [lo, hi] = std::minmax_element(fare, fare + trips.size());
    domain.fare_lo_cents = static_cast<std::int64_t>(std::floor(*lo * 100.0));
    domain.fare_hi_cents = static_cast<std::int64_t>(std::ceil(*hi * 100.0));
  }
  const urbane::geometry::BoundingBox bounds = trips.Bounds();
  domain.world = {static_cast<std::int64_t>(std::floor(bounds.min_x)),
                  static_cast<std::int64_t>(std::floor(bounds.min_y)),
                  static_cast<std::int64_t>(std::ceil(bounds.max_x)),
                  static_cast<std::int64_t>(std::ceil(bounds.max_y))};
  return domain;
}

namespace {

std::string Cents(std::int64_t cents) {
  const std::int64_t magnitude = cents < 0 ? -cents : cents;
  return urbane::StringPrintf("%s%lld.%02lld", cents < 0 ? "-" : "",
                              static_cast<long long>(magnitude / 100),
                              static_cast<long long>(magnitude % 100));
}

}  // namespace

std::string RenderSql(const Statement& s, const std::string& points,
                      const std::string& regions) {
  std::string sql = "SELECT ";
  switch (s.aggregate) {
    case AggregateKind::kCount:
      sql += "COUNT(*)";
      break;
    case AggregateKind::kAvg:
      sql += std::string("AVG(") + kFareAttribute + ")";
      break;
    default:
      sql += std::string("SUM(") + kFareAttribute + ")";
      break;
  }
  sql += " FROM " + points + ", " + regions;
  sql += urbane::StringPrintf(" WHERE t IN [%lld, %lld)",
                              static_cast<long long>(s.t_begin),
                              static_cast<long long>(s.t_end));
  if (s.fare_cents) {
    sql += std::string(" AND ") + kFareAttribute + " IN [" +
           Cents(s.fare_cents->first) + ", " + Cents(s.fare_cents->second) +
           "]";
  }
  if (s.box) {
    const auto& b = *s.box;
    sql += urbane::StringPrintf(
        " AND loc INSIDE BOX [%lld, %lld, %lld, %lld]",
        static_cast<long long>(b[0]), static_cast<long long>(b[1]),
        static_cast<long long>(b[2]), static_cast<long long>(b[3]));
  }
  return sql;
}

BrushTrace::BrushTrace(std::uint64_t seed, const Domain& domain)
    : domain_(domain), seed_(seed), pan_rng_(SubSeed(seed, 0x9a4)) {}

void BrushTrace::Advance() {
  using urbane::app::InteractionKind;
  if (next_event_ == events_.size()) {
    events_ = urbane::app::GenerateInteractionTrace(1024,
                                                    SubSeed(seed_, chunk_++));
    next_event_ = 0;
  }
  const urbane::app::InteractionEvent event = events_[next_event_++];
  const double m = event.magnitude;
  // The same state machine as app::InteractionSession::Replay, plus a
  // viewport for pans.
  switch (event.kind) {
    case InteractionKind::kTimeBrushMove:
      window_start_ = std::clamp(window_start_ + (m - 0.5) * 0.3, 0.0,
                                 1.0 - window_length_);
      break;
    case InteractionKind::kTimeBrushResize:
      window_length_ = std::clamp(0.05 + m * 0.45, 0.05, 0.5);
      window_start_ = std::min(window_start_, 1.0 - window_length_);
      break;
    case InteractionKind::kFilterTighten:
      has_filter_ = true;
      filter_lo_q_ = m * 0.4;
      filter_hi_q_ = std::max(1.0 - (1.0 - m) * 0.3, filter_lo_q_ + 0.05);
      break;
    case InteractionKind::kFilterRelax:
      has_filter_ = false;
      break;
    case InteractionKind::kAggregateSwitch:
      aggregate_cycle_ = (aggregate_cycle_ + 1) % 3;
      break;
    case InteractionKind::kPanZoom: {
      if (m < 0.2) {
        box_.reset();  // zoom back out to the whole map
        break;
      }
      const auto& w = domain_.world;
      const double width = static_cast<double>(w[2] - w[0]) * (0.2 + 0.6 * m);
      const double height = static_cast<double>(w[3] - w[1]) * (0.2 + 0.6 * m);
      const double x0 = static_cast<double>(w[0]) +
                        pan_rng_.NextDouble() * (w[2] - w[0] - width);
      const double y0 = static_cast<double>(w[1]) +
                        pan_rng_.NextDouble() * (w[3] - w[1] - height);
      box_ = std::array<std::int64_t, 4>{
          static_cast<std::int64_t>(x0), static_cast<std::int64_t>(y0),
          static_cast<std::int64_t>(x0 + width),
          static_cast<std::int64_t>(y0 + height)};
      break;
    }
  }
}

Statement BrushTrace::Current(std::int64_t t_begin, std::int64_t t_end) const {
  Statement s;
  static constexpr AggregateKind kCycle[] = {
      AggregateKind::kCount, AggregateKind::kAvg, AggregateKind::kSum};
  s.aggregate = kCycle[aggregate_cycle_];
  s.t_begin = t_begin;
  s.t_end = std::max(t_end, t_begin + 1);
  if (has_filter_) {
    const double range =
        static_cast<double>(domain_.fare_hi_cents - domain_.fare_lo_cents);
    s.fare_cents = std::make_pair(
        domain_.fare_lo_cents + static_cast<std::int64_t>(range * filter_lo_q_),
        domain_.fare_lo_cents +
            static_cast<std::int64_t>(range * filter_hi_q_));
  }
  s.box = box_;
  return s;
}

Statement BrushTrace::Next() {
  Advance();
  const double span = static_cast<double>(domain_.t_max - domain_.t_min);
  return Current(
      domain_.t_min + static_cast<std::int64_t>(span * window_start_),
      domain_.t_min +
          static_cast<std::int64_t>(span * (window_start_ + window_length_)));
}

Statement BrushTrace::NextEndingAt(std::int64_t newest_t) {
  Advance();
  const double span = static_cast<double>(domain_.t_max - domain_.t_min);
  const std::int64_t length = static_cast<std::int64_t>(span * window_length_);
  return Current(newest_t + 1 - length, newest_t + 1);
}

namespace {

// `count` distinct frames (compared as rendered SQL) drawn by `next`, with
// aggregates cycling COUNT, AVG, SUM, so every set has the same mix.
template <typename Next>
std::vector<Statement> DistinctFrames(std::size_t count, Next next) {
  static constexpr AggregateKind kCycle[] = {
      AggregateKind::kCount, AggregateKind::kAvg, AggregateKind::kSum};
  std::vector<Statement> frames;
  std::set<std::string> seen;
  while (frames.size() < count) {
    Statement s = next();
    s.aggregate = kCycle[frames.size() % 3];
    if (seen.insert(RenderSql(s, "p", "r")).second) frames.push_back(s);
  }
  return frames;
}

}  // namespace

std::vector<Statement> ReaderFrames(std::uint64_t seed, const Domain& domain,
                                    std::size_t count) {
  BrushTrace trace(seed, domain);
  return DistinctFrames(
      count, [&] { return trace.NextEndingAt(domain.t_max); });
}

Statement EndingAt(Statement frame, std::int64_t newest_t) {
  const std::int64_t length = frame.t_end - frame.t_begin;
  frame.t_end = newest_t + 1;
  frame.t_begin = frame.t_end - length;
  return frame;
}

std::vector<Statement> RevisitStates(std::uint64_t seed, const Domain& domain,
                                     std::size_t count) {
  BrushTrace trace(seed, domain);
  return DistinctFrames(count, [&] { return trace.Next(); });
}

IngestStream MakeIngestStream(std::uint64_t seed, std::size_t batches,
                              std::size_t batch_rows, std::int64_t t_begin,
                              std::int64_t seconds_per_batch) {
  urbane::data::TaxiGeneratorOptions options;
  options.num_trips = batches * batch_rows;
  options.seed = seed;
  options.start_time = t_begin;
  options.duration_seconds =
      static_cast<std::int64_t>(batches) * seconds_per_batch;
  const urbane::data::PointTable generated =
      urbane::data::GenerateTaxiTrips(options);

  // Sort by time so each batch continues the time axis where the last one
  // stopped.
  std::vector<std::size_t> order(generated.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return generated.t(a) < generated.t(b);
                   });
  IngestStream stream;
  stream.batch_rows = batch_rows;
  stream.rows = urbane::data::PointTable(generated.schema());
  stream.rows.Reserve(order.size());
  const std::size_t arity = generated.schema().attribute_count();
  std::vector<float> attributes(arity);
  for (const std::size_t row : order) {
    for (std::size_t a = 0; a < arity; ++a) {
      attributes[a] = generated.attribute(row, a);
    }
    (void)stream.rows.AppendRow(generated.x(row), generated.y(row),
                                generated.t(row), attributes);
  }
  return stream;
}

std::string IngestBody(const IngestStream& stream, std::size_t batch,
                       const std::string& dataset) {
  // %.9g round-trips every float exactly, so the server stores the very
  // values the oracle recomputes from.
  const urbane::data::PointTable& rows = stream.rows;
  const std::size_t arity = rows.schema().attribute_count();
  const std::size_t first = batch * stream.batch_rows;
  std::string body = "{\"dataset\": \"" + dataset + "\", \"rows\": [";
  for (std::size_t r = first; r < first + stream.batch_rows; ++r) {
    body += r == first ? "[" : ", [";
    body += urbane::StringPrintf("%.9g, %.9g, %lld", rows.x(r), rows.y(r),
                                 static_cast<long long>(rows.t(r)));
    for (std::size_t a = 0; a < arity; ++a) {
      body += urbane::StringPrintf(", %.9g", rows.attribute(r, a));
    }
    body += "]";
  }
  body += "]}";
  return body;
}

}  // namespace perfbench

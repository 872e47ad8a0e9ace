// Self-tests for the benchmark's own parts: the percentile summarizer,
// open-loop accounting, the SQL renderer and seed determinism.

#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/sql.h"
#include "data/taxi_generator.h"
#include "server/json_api.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(LatencySamples, NearestRankUsesIntegerArithmetic) {
  EXPECT_EQ(NearestRank(95, 200), 190u);
  EXPECT_EQ(NearestRank(50, 20), 10u);
  EXPECT_EQ(NearestRank(50, 1), 1u);
  EXPECT_EQ(NearestRank(95, 201), 191u);
}

TEST(LatencySamples, MinSamplesLeaveTenBeyondThePercentile) {
  EXPECT_EQ(MinSamplesFor(95), 200u);
  EXPECT_EQ(MinSamplesFor(50), 20u);
  EXPECT_EQ(MinSamplesFor(99), 1000u);
}

TEST(LatencySamples, RefusesAnUnsupportedTail) {
  LatencySamples samples;
  for (int i = 1; i <= 199; ++i) samples.AddOk(i);
  EXPECT_FALSE(samples.Percentile(95).has_value());
  samples.AddOk(200);
  ASSERT_TRUE(samples.Percentile(95).has_value());
  EXPECT_EQ(*samples.Percentile(95), 190.0);
  EXPECT_EQ(*samples.Percentile(50), 100.0);
}

TEST(LatencySamples, FailuresCountAsInfinity) {
  LatencySamples samples;
  for (int i = 1; i <= 180; ++i) samples.AddOk(i);
  for (int i = 0; i < 20; ++i) samples.AddFailure();
  EXPECT_EQ(samples.size(), 200u);
  // Rank 190 falls among the 20 failures.
  EXPECT_EQ(*samples.Percentile(95), std::numeric_limits<double>::infinity());
  EXPECT_EQ(*samples.Percentile(50), 100.0);
}

TEST(Completions, FailuresAnywhereInTheWindowReachTheRank) {
  // A window's percentiles are taken over all of its completions, so 20
  // failures clustered at its start are past the p95 rank of 200.
  std::vector<Completion> completions;
  for (int i = 0; i < 200; ++i) {
    completions.push_back({i * 0.01, 1.0 + i, i >= 20});
  }
  const LatencySamples samples = SamplesOf(completions);
  EXPECT_EQ(samples.failures(), 20u);
  EXPECT_EQ(*samples.Percentile(95), std::numeric_limits<double>::infinity());
  EXPECT_EQ(*samples.Percentile(50), 120.0);
}

TEST(Completions, MedianOfAnEvenSeriesAveragesTheMiddleTwo) {
  EXPECT_EQ(Median({3, 1, 2, 10}), 2.5);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  const OpenLoopSchedule schedule{100.0, 0.02};
  EXPECT_DOUBLE_EQ(schedule.Due(0), 100.0);
  EXPECT_DOUBLE_EQ(schedule.Due(50), 101.0);

  // Batch 0 stalls for 100 ms; batches 1..4 are sent late behind it and
  // their latency includes the wait, as a user on the schedule sees it.
  std::vector<OpenLoopRecord> records;
  double clock = schedule.Due(0);
  for (std::size_t i = 0; i < 5; ++i) {
    OpenLoopRecord r;
    r.due_s = schedule.Due(i);
    r.sent_s = std::max(clock, r.due_s);
    r.done_s = r.sent_s + (i == 0 ? 0.1 : 0.001);
    r.ok = true;
    clock = r.done_s;
    records.push_back(r);
  }
  EXPECT_DOUBLE_EQ(records[0].LatenessS(), 0.0);
  EXPECT_NEAR(records[1].LatenessS(), 0.08, 1e-9);
  EXPECT_NEAR(records[1].LatencyS(), 0.081, 1e-9);
  EXPECT_NEAR(records[4].LatenessS(), 0.023, 1e-9);

  // An early send is not negative lateness.
  OpenLoopRecord early;
  early.due_s = 1.0;
  early.sent_s = 0.5;
  EXPECT_EQ(early.LatenessS(), 0.0);
}

TEST(OpenLoop, SummaryCountsFailedBatchesAsInfinity) {
  std::vector<OpenLoopRecord> records;
  for (int i = 0; i < 200; ++i) {
    OpenLoopRecord r;
    r.due_s = i;
    r.sent_s = i + 0.001;
    r.done_s = i + 0.002;
    r.ok = i < 185;
    records.push_back(r);
  }
  const OpenLoopSummary summary = SummarizeOpenLoop(records);
  EXPECT_EQ(summary.ack_ms.failures(), 15u);
  EXPECT_EQ(*summary.ack_ms.Percentile(95),
            std::numeric_limits<double>::infinity());
  EXPECT_NEAR(*summary.late_ms.Percentile(95), 1.0, 1e-6);
}

Domain TestDomain() {
  Domain domain;
  domain.t_min = 1230768000;
  domain.t_max = 1230768000 + 31 * 86400;
  domain.fare_lo_cents = 250;
  domain.fare_hi_cents = 9999;
  domain.world = {-8266000, 4939000, -8204000, 4992000};
  return domain;
}

// What ParseQuerySql must return for RenderSql(s, points, regions).
urbane::core::ParsedQuery ExpectedParse(const Statement& s,
                                        const std::string& points,
                                        const std::string& regions) {
  urbane::core::ParsedQuery parsed;
  parsed.points_dataset = points;
  parsed.regions_layer = regions;
  parsed.aggregate = s.aggregate == urbane::core::AggregateKind::kCount
                         ? urbane::core::AggregateSpec::Count()
                         : urbane::core::AggregateSpec{s.aggregate,
                                                       kFareAttribute};
  parsed.filter.WithTime(s.t_begin, s.t_end);
  if (s.fare_cents) {
    parsed.filter.WithRange(kFareAttribute,
                            static_cast<double>(s.fare_cents->first) / 100.0,
                            static_cast<double>(s.fare_cents->second) / 100.0);
  }
  if (s.box) {
    const auto& b = *s.box;
    parsed.filter.WithWindow(urbane::geometry::BoundingBox(
        static_cast<double>(b[0]), static_cast<double>(b[1]),
        static_cast<double>(b[2]), static_cast<double>(b[3])));
  }
  return parsed;
}

void ExpectSameQuery(const urbane::core::ParsedQuery& a,
                     const urbane::core::ParsedQuery& b) {
  EXPECT_EQ(a.points_dataset, b.points_dataset);
  EXPECT_EQ(a.regions_layer, b.regions_layer);
  EXPECT_EQ(a.aggregate.kind, b.aggregate.kind);
  EXPECT_EQ(a.aggregate.attribute, b.aggregate.attribute);
  ASSERT_EQ(a.filter.time_range.has_value(), b.filter.time_range.has_value());
  EXPECT_EQ(a.filter.time_range->begin, b.filter.time_range->begin);
  EXPECT_EQ(a.filter.time_range->end, b.filter.time_range->end);
  ASSERT_EQ(a.filter.attribute_ranges.size(), b.filter.attribute_ranges.size());
  for (std::size_t i = 0; i < a.filter.attribute_ranges.size(); ++i) {
    EXPECT_EQ(a.filter.attribute_ranges[i].attribute,
              b.filter.attribute_ranges[i].attribute);
    EXPECT_EQ(a.filter.attribute_ranges[i].lo, b.filter.attribute_ranges[i].lo);
    EXPECT_EQ(a.filter.attribute_ranges[i].hi, b.filter.attribute_ranges[i].hi);
  }
  ASSERT_EQ(a.filter.spatial_window.has_value(),
            b.filter.spatial_window.has_value());
  if (a.filter.spatial_window) {
    EXPECT_EQ(a.filter.spatial_window->min_x, b.filter.spatial_window->min_x);
    EXPECT_EQ(a.filter.spatial_window->min_y, b.filter.spatial_window->min_y);
    EXPECT_EQ(a.filter.spatial_window->max_x, b.filter.spatial_window->max_x);
    EXPECT_EQ(a.filter.spatial_window->max_y, b.filter.spatial_window->max_y);
  }
}

TEST(RenderSql, RoundTripsThroughParseQuerySql) {
  BrushTrace trace(7, TestDomain());
  bool saw_filter = false;
  bool saw_box = false;
  for (int i = 0; i < 500; ++i) {
    const Statement s = i % 2 == 0
                            ? trace.Next()
                            : trace.NextEndingAt(1230768000 + 40 * 86400);
    saw_filter |= s.fare_cents.has_value();
    saw_box |= s.box.has_value();
    const std::string sql = RenderSql(s, "taxi", "neighborhoods");
    auto parsed = urbane::core::ParseQuerySql(sql);
    ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    ExpectSameQuery(*parsed, ExpectedParse(s, "taxi", "neighborhoods"));
  }
  EXPECT_TRUE(saw_filter);
  EXPECT_TRUE(saw_box);
}

TEST(RenderSql, RendersCentsExactly) {
  Statement s;
  s.aggregate = urbane::core::AggregateKind::kAvg;
  s.t_begin = 10;
  s.t_end = 20;
  s.fare_cents = std::make_pair(std::int64_t{5}, std::int64_t{12345});
  EXPECT_EQ(RenderSql(s, "p", "r"),
            "SELECT AVG(fare_amount) FROM p, r WHERE t IN [10, 20) AND "
            "fare_amount IN [0.05, 123.45]");
}

TEST(Seeds, OneSeedYieldsOneStatementStream) {
  BrushTrace a(42, TestDomain());
  BrushTrace b(42, TestDomain());
  BrushTrace c(43, TestDomain());
  bool differs = false;
  for (int i = 0; i < 3000; ++i) {  // crosses event-chunk boundaries
    const std::string sa = RenderSql(a.Next(), "p", "r");
    EXPECT_EQ(sa, RenderSql(b.Next(), "p", "r"));
    differs |= sa != RenderSql(c.Next(), "p", "r");
  }
  EXPECT_TRUE(differs);
  const auto s1 = RevisitStates(9, TestDomain(), 16);
  const auto s2 = RevisitStates(9, TestDomain(), 16);
  ASSERT_EQ(s1.size(), 16u);
  std::set<std::string> distinct;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(RenderSql(s1[i], "p", "r"), RenderSql(s2[i], "p", "r"));
    distinct.insert(RenderSql(s1[i], "p", "r"));
  }
  EXPECT_EQ(distinct.size(), s1.size());
  EXPECT_EQ(s1[3].aggregate, urbane::core::AggregateKind::kCount);
  EXPECT_EQ(s1[4].aggregate, urbane::core::AggregateKind::kAvg);
  EXPECT_EQ(s1[5].aggregate, urbane::core::AggregateKind::kSum);
}

TEST(Seeds, OneSeedYieldsOneBatchStream) {
  const IngestStream a = MakeIngestStream(5, 6, 50, 2000000000, 60);
  const IngestStream b = MakeIngestStream(5, 6, 50, 2000000000, 60);
  const IngestStream c = MakeIngestStream(6, 6, 50, 2000000000, 60);
  ASSERT_EQ(a.batches(), 6u);
  for (std::size_t i = 0; i < a.batches(); ++i) {
    EXPECT_EQ(IngestBody(a, i, "taxi"), IngestBody(b, i, "taxi"));
    EXPECT_NE(IngestBody(a, i, "taxi"), IngestBody(c, i, "taxi"));
  }
  // Times continue in order across batches and past the start.
  for (std::size_t r = 1; r < a.rows.size(); ++r) {
    EXPECT_LE(a.rows.t(r - 1), a.rows.t(r));
  }
  EXPECT_GE(a.rows.t(0), 2000000000);
}

TEST(Seeds, BatchBodiesCarryTheGeneratedRowsExactly) {
  const IngestStream stream = MakeIngestStream(3, 2, 40, 2000000000, 60);
  for (std::size_t b = 0; b < stream.batches(); ++b) {
    auto request =
        urbane::server::ParseIngestRequest(IngestBody(stream, b, "taxi"));
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(request->dataset, "taxi");
    ASSERT_EQ(request->batch.size(), stream.batch_rows);
    for (std::size_t r = 0; r < stream.batch_rows; ++r) {
      const std::size_t row = b * stream.batch_rows + r;
      EXPECT_EQ(request->batch.x(r), stream.rows.x(row));
      EXPECT_EQ(request->batch.y(r), stream.rows.y(row));
      EXPECT_EQ(request->batch.t(r), stream.rows.t(row));
      for (std::size_t a = 0; a < stream.rows.schema().attribute_count(); ++a) {
        EXPECT_EQ(request->batch.attribute(r, a),
                  stream.rows.attribute(row, a));
      }
    }
  }
}

}  // namespace
}  // namespace perfbench

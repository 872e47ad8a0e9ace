// The Urbane benchmark: starts an in-process QueryServer over a
// DatasetManagerBackend and drives one seeded workload through
// POST /v1/query and POST /v1/ingest, checks the answers, and prints its
// metrics. The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// measures the load untraced, traced and untraced again, replays the
// statements in process, and reports the per-layer split instead.
//
//   urbane_perfbench --workload brush|revisit|ingest --seed N --seconds S
//                    --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//                    [--commit ID] [--source-digest HEX]
//
// See README.md in this directory for the workloads and every metric.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/sql.h"
#include "data/json.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "net/socket.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "probes.h"
#include "server/json_api.h"
#include "server/query_server.h"
#include "spans.h"
#include "stats.h"
#include "store/store_reader.h"
#include "store/store_writer.h"
#include "urbane/dataset_manager.h"
#include "urbane/server_backend.h"
#include "util/string_util.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace urbane;
namespace fs = std::filesystem;

// ---------------------------------------------------------------- shapes

// The fixed shape of a workload; only the seed varies between runs.
struct Shape {
  const char* name;
  std::size_t trips;           // base rows
  const char* regions;         // region layer
  const char* method;          // wire name of the executor every query asks
  int clients;                 // closed-loop query clients
  int workers;                 // server worker threads
  std::size_t revisit_states;  // > 0: result cache on, warmed with these
  bool ingest;                 // store-backed live base + open-loop writer
};

constexpr Shape kShapes[] = {
    {"brush", 1'000'000, "neighborhoods", "accurate", 2, 2, 0, false},
    {"revisit", 200'000, "tracts", "accurate", 2, 2, 48, false},
    {"ingest", 300'000, "neighborhoods", "raster", 1, 2, 0, true},
};

constexpr char kDataset[] = "taxi";
// Each client follows a fixed recorded script, as fig8 replays one recorded
// session, over a fixed taxi month and ingest stream, as the paper studies
// one recorded month; the run seed drives the revisit order and the checked
// samples. (Per-seed scripts made the single ingest reader's p50 swing by a
// quarter between seeds; per-seed data, whose hotspot layout follows the
// generator's seed, moved brush's and ingest's per-query cost by 10-20%.)
constexpr std::uint64_t kScriptSeed = 2018;
constexpr std::uint64_t kDataSeed = 2009;
// setup_s is the median of this many set-ups, each timed from its own start.
constexpr int kSetupRepeats = 7;
// Every statement the warm-up executes in process before the clients start.
constexpr std::size_t kWarmStatements = 4;
// The ingest writer. These set a stress point, not a recorded arrival rate:
// the generated taxi month (1M trips in 31 days by default) arrives at 0.4
// rows a second, far too few to fill a memtable within one run. Each
// constant's reason:
// - kBatchIntervalS: 50 batches a second, so the untraced half of a 40 s
//   traced run holds 1000 batches, five times the 200 that
//   ingest_ack_p95_ms needs.
// - kBatchRows: 3.2k rows/s at that interval, 128k rows (43% of the base)
//   in a 40 s run. Every reader query rebuilds the engine over the hot
//   (unflushed) rows and reads every live component, so the rate sets how
//   much of a query is ingest upkeep; at 12.8k and 25.6k rows/s that share
//   grew over the run and query_p50_ms spread 0.18 and 0.46 of its median
//   over seeds. A batch holds the backend well under 1 ms of its 20 ms slot.
// - kAutoFlushRows: a quarter of the memtable bench_ingest streams through
//   (64k rows), so at this rate it is still reached every 5.1 s and every
//   run flushes seven times.
// - kCompactEvery: one CompactIngest per flush's worth of batches, due
//   half-way between two flushes (see Compactor), so store runs are merged
//   as fast as they appear and a live query composes a bounded number of
//   components.
// - kLiveCacheEntries: the reader's windows always reach the newest rows and
//   its frames are distinct, so the cache is on for the insert and
//   invalidation path (8 entries per each of the cache's 8 stripes), not
//   for hits.
// - kSecondsPerBatch: data time per batch. The reader's windows end at the
//   newest row and are 5% to 50% of the base month long (1.55 to 15.5
//   days). A run of up to 80 s sends at most 4000 batches, 33 h of data
//   time at 30 s each, so every window covers every ingested row: each
//   query reads every live component, and its cost does not swing with the
//   script's window length (at the base's density, 4571 s per batch, it
//   did, and p95 with it).
constexpr std::size_t kBatchRows = 64;
constexpr double kBatchIntervalS = 0.02;
constexpr std::size_t kAutoFlushRows = 16 * 1024;
constexpr std::size_t kCompactEvery = kAutoFlushRows / kBatchRows;
constexpr std::size_t kLiveCacheEntries = 64;
constexpr std::int64_t kSecondsPerBatch = 30;
// UST1 block size of the base store and flushed runs: small enough that
// zone maps can prune blocks outside a viewport.
constexpr std::uint64_t kBlockRows = 16'384;
// A seeded 1-in-kSampleEvery sample of responses is checked, up to
// kMaxSamplesPerClient per client.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kMaxSamplesPerClient = 12;
// The ingest reader replays a cycle of kReaderCycle distinct frames
// (ReaderFrames) over and over, each frame ending at the newest row. On the
// live raster path AVG costs several times COUNT, so the cycle holds each
// aggregate for a third of its frames: the mix is the same in every run,
// and p50 and p95 fall inside one aggregate's costs, not on the step
// between two. Frames are distinct so that cache hits never depend on
// whether a batch landed between two identical requests.
constexpr std::size_t kReaderCycle = 128;
// In-process replay of the traced run: this many statements per client.
constexpr std::size_t kReplayStatements = 24;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

const Shape* FindShape(const std::string& name) {
  for (const Shape& shape : kShapes) {
    if (name == shape.name) return &shape;
  }
  return nullptr;
}

core::ExecutionMethod MethodOf(const Shape& shape) {
  return std::string(shape.method) == "raster"
             ? core::ExecutionMethod::kBoundedRaster
             : core::ExecutionMethod::kAccurateRaster;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/run";
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

// ------------------------------------------------------------ http client

struct Reply {
  int status = 0;  // 0: transport failure
  std::string body;
  std::int64_t connect_ns = 0;
};

// One request over a fresh connection, as every client of the server makes
// it (the server closes after each response).
Reply Post(std::uint16_t port, const char* path, const std::string& body,
           std::uint64_t client_span) {
  Reply reply;
  const std::int64_t start = NowNs();
  StatusOr<int> fd = net::ConnectLoopback(port);
  reply.connect_ns = NowNs() - start;
  if (!fd.ok()) return reply;
  net::SetSocketTimeouts(*fd, 30'000, 30'000);
  const std::string request =
      std::string("POST ") + path +
      " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
      "traceparent: " + TraceparentFor(client_span) +
      "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  std::string response;
  if (net::SendAll(*fd, request).ok() && net::RecvAll(*fd, &response).ok() &&
      response.size() >= 12 && response.compare(0, 5, "HTTP/") == 0) {
    reply.status = std::atoi(response.c_str() + 9);
    const std::size_t split = response.find("\r\n\r\n");
    if (split != std::string::npos) reply.body = response.substr(split + 4);
  }
  net::CloseSocket(*fd);
  return reply;
}

std::string QueryBody(const std::string& sql, const char* method) {
  return "{\"sql\": \"" + sql + "\", \"method\": \"" + method + "\"}";
}

// ------------------------------------------------------------------ world

// Per-query executor work observed in process (cache hits excluded).
struct PassCosts {
  std::size_t queries = 0;
  double filter_s = 0, splat_s = 0, sweep_s = 0, refine_s = 0;
  double points_scanned = 0, pip_tests = 0, fragments = 0;

  void Add(const core::ExecutorStats& s) {
    ++queries;
    filter_s += s.filter_seconds;
    splat_s += s.splat_seconds;
    sweep_s += s.sweep_seconds;
    refine_s += s.refine_seconds;
    points_scanned += static_cast<double>(s.points_scanned);
    pip_tests += static_cast<double>(s.pip_tests);
    fragments += static_cast<double>(s.simd_fragments);
  }
  void Add(const obs::ProfilePassCosts& c) {
    ++queries;
    filter_s += c.filter_seconds;
    splat_s += c.splat_seconds;
    sweep_s += c.sweep_seconds;
    refine_s += c.refine_seconds;
    points_scanned += static_cast<double>(c.points_scanned);
    pip_tests += static_cast<double>(c.pip_tests);
    fragments += static_cast<double>(c.simd_fragments);
  }
};

// One set-up: data, engines, server. Not movable (the manager is not).
struct World {
  const Shape* shape = nullptr;
  std::string dir;
  std::string layer;
  app::DatasetManager manager;
  std::unique_ptr<app::DatasetManagerBackend> backend;
  std::unique_ptr<TimingBackend> timing;
  std::unique_ptr<server::QueryServer> server;
  Domain domain;
  std::vector<Statement> revisit_states;
  std::vector<Statement> reader_frames;  // ingest only
  const IngestStream* stream = nullptr;  // ingest only; owned by Run
  double setup_s = 0;
  double first_query_ms = 0;
  double convert_s = 0;
  PassCosts passes;
};

std::size_t IngestBatches(double seconds) {
  return static_cast<std::size_t>(std::floor(seconds / kBatchIntervalS));
}

data::TaxiGeneratorOptions BaseTripOptions(const Shape& shape) {
  data::TaxiGeneratorOptions options;
  options.num_trips = shape.trips;
  options.seed = SubSeed(kDataSeed, 1);
  return options;
}

// The rows the ingest writer sends over the run. They start where the
// base's time span ends. Generated before the set-up clock starts: they are
// the load generator's input, not the system's set-up.
IngestStream IngestRows(const Shape& shape, const Args& args) {
  const data::TaxiGeneratorOptions base = BaseTripOptions(shape);
  return MakeIngestStream(
      SubSeed(kDataSeed, 2), IngestBatches(args.seconds), kBatchRows,
      base.start_time + base.duration_seconds, kSecondsPerBatch);
}

// Runs a statement in process through DatasetManager::ExecuteSql. With a
// non-null `passes` the run is observed: a QueryTrace is attached (the
// accurate executor clocks its refine pass only then) and, unless the
// result cache answered (*cache_hit), the executor's pass costs are folded
// in. Live data sets report pass costs through a QueryProfile, attached
// either way since it is their only source.
StatusOr<core::QueryResult> ExecuteInProcess(World& world,
                                             const std::string& sql,
                                             PassCosts* passes, bool* cache_hit,
                                             std::uint64_t* watermark) {
  const core::ExecutionMethod method = MethodOf(*world.shape);
  if (world.shape->ingest) {
    obs::QueryProfile profile;
    auto result = world.manager.ExecuteSql(sql, method, nullptr, &profile,
                                           watermark);
    *cache_hit = profile.cache == "hit";
    if (result.ok() && !*cache_hit && passes != nullptr) {
      passes->Add(profile.totals);
    }
    return result;
  }
  URBANE_ASSIGN_OR_RETURN(core::SpatialAggregation * engine,
                          world.manager.Engine(kDataset, world.layer));
  const std::size_t hits = engine->result_cache_stats().hits;
  obs::QueryTrace trace;
  auto result = world.manager.ExecuteSql(
      sql, method, passes != nullptr ? &trace : nullptr);
  *cache_hit = engine->result_cache_stats().hits != hits;
  if (result.ok() && !*cache_hit && passes != nullptr) {
    URBANE_ASSIGN_OR_RETURN(core::SpatialAggregationExecutor * executor,
                            engine->Executor(method));
    passes->Add(executor->stats());
  }
  return result;
}

StatusOr<std::unique_ptr<World>> SetUp(const Shape& shape, const Args& args,
                                       int repeat, std::int64_t start_ns,
                                       const IngestStream* stream,
                                       SpanRecorder* recorder) {
  auto world = std::make_unique<World>();
  world->shape = &shape;
  world->stream = stream;
  world->layer = shape.regions;
  world->dir = args.work_dir + "/" + shape.name + "-" +
               std::to_string(::getpid()) + "-" + std::to_string(repeat);
  std::error_code ec;
  fs::remove_all(world->dir, ec);
  fs::create_directories(world->dir, ec);
  if (ec) return Status::IoError("cannot create " + world->dir);

  data::PointTable trips =
      data::GenerateTaxiTrips(BaseTripOptions(shape));
  world->domain = DomainOf(trips);
  URBANE_RETURN_IF_ERROR(world->manager.AddRegionLayer(
      world->layer, world->layer == "tracts" ? data::GenerateCensusTracts()
                                             : data::GenerateNeighborhoods()));

  if (shape.ingest) {
    // UST1 store-backed base, made live. The generated table is written
    // straight to the store and freed; the output check regenerates it.
    const std::string base_store_path = world->dir + "/base.ust1";
    const std::int64_t convert_start = NowNs();
    store::StoreWriterOptions store_options;
    store_options.block_rows = kBlockRows;
    URBANE_RETURN_IF_ERROR(
        store::WritePointStore(trips, base_store_path, store_options)
            .status());
    world->convert_s = (NowNs() - convert_start) * 1e-9;
    trips = data::PointTable();
    URBANE_RETURN_IF_ERROR(
        world->manager.AddStoreDataset(kDataset, base_store_path));
    ingest::IngestOptions ingest_options;
    ingest_options.auto_flush_rows = kAutoFlushRows;
    ingest_options.run_block_rows = kBlockRows;
    URBANE_RETURN_IF_ERROR(world->manager.EnableIngest(
        kDataset, world->dir + "/live", {}, ingest_options));
    URBANE_ASSIGN_OR_RETURN(ingest::LiveEngine * live,
                            world->manager.Live(kDataset, world->layer));
    live->set_result_cache_capacity(kLiveCacheEntries);
    world->reader_frames =
        ReaderFrames(SubSeed(kScriptSeed, 10), world->domain, kReaderCycle);
  } else {
    URBANE_RETURN_IF_ERROR(
        world->manager.AddPointDataset(kDataset, std::move(trips)));
  }
  if (shape.revisit_states > 0) {
    URBANE_ASSIGN_OR_RETURN(core::SpatialAggregation * engine,
                            world->manager.Engine(kDataset, world->layer));
    // The cache stripes entries over 8 shards with capacity/8 each; this
    // leaves room for every state even if all land on one shard.
    engine->set_result_cache_capacity(8 * shape.revisit_states);
    world->revisit_states = RevisitStates(SubSeed(kScriptSeed, 3),
                                          world->domain, shape.revisit_states);
  }

  world->backend =
      std::make_unique<app::DatasetManagerBackend>(&world->manager);
  server::QueryBackend* backend = world->backend.get();
  if (args.trace != 0) {
    world->timing = std::make_unique<TimingBackend>(backend, recorder);
    backend = world->timing.get();
  }
  server::QueryServerOptions server_options;
  server_options.worker_threads = shape.workers;
  world->server =
      std::make_unique<server::QueryServer>(backend, server_options);
  URBANE_RETURN_IF_ERROR(world->server->Start());

  // Warm-up: lazy executor builds and, on revisit, the cache fill — in
  // process — then one request per worker through the server.
  // The warm-up statements come from a fixed script too, so set-up does the
  // same work whatever the seed.
  std::vector<Statement> warm = world->revisit_states;
  if (warm.empty()) {
    BrushTrace trace(SubSeed(kScriptSeed, 4), world->domain);
    for (std::size_t i = 0; i < kWarmStatements; ++i) {
      warm.push_back(shape.ingest
                         ? trace.NextEndingAt(world->domain.t_max)
                         : trace.Next());
    }
  }
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const std::int64_t t0 = NowNs();
    std::uint64_t watermark = 0;
    bool cache_hit = false;
    URBANE_RETURN_IF_ERROR(
        ExecuteInProcess(*world, RenderSql(warm[i], kDataset, world->layer),
                         &world->passes, &cache_hit, &watermark)
            .status());
    if (i == 0) world->first_query_ms = (NowNs() - t0) * 1e-6;
  }
  for (int w = 0; w < shape.workers; ++w) {
    const Reply reply = Post(
        world->server->port(), "/v1/query",
        QueryBody(RenderSql(warm[w % warm.size()], kDataset, world->layer),
                  shape.method),
        recorder->NewId());
    if (reply.status != 200) {
      return Status::Internal("warm-up request failed with HTTP " +
                              std::to_string(reply.status) + ": " +
                              reply.body);
    }
  }
  world->setup_s = (NowNs() - start_ns) * 1e-9;
  return world;
}

// ----------------------------------------------------------------- window

// A response kept for the output check.
struct Sample {
  std::string sql;
  std::string body;
};

struct ClientOut {
  std::vector<Completion> completions;
  std::vector<Sample> samples;
  std::vector<std::string> statements;  // the first few, for the replay
};

struct WindowResult {
  std::vector<Completion> queries;  // in completion order
  // Wall and process CPU seconds from the window's start until every
  // client, writer and compactor has stopped.
  double seconds = 0;
  double cpu_s = 0;
  std::vector<Sample> samples;
  std::vector<std::string> statements;
  std::vector<OpenLoopRecord> batches;
  std::vector<std::size_t> acked_batches;
  double compact_s = 0;
  double components_sum = 0;
  std::size_t components_samples = 0;
  double wal_bytes_per_row_sum = 0;
  std::size_t wal_samples = 0;
  std::uint64_t server_rejected = 0;
  core::QueryCacheStats cache_before, cache_after;
  ingest::IngestStats ingest_before, ingest_after;

  std::size_t BatchesOk() const {
    return std::count_if(batches.begin(), batches.end(),
                         [](const OpenLoopRecord& r) { return r.ok; });
  }
  std::size_t QueriesFailed() const {
    return std::count_if(queries.begin(), queries.end(),
                         [](const Completion& c) { return !c.ok; });
  }
};

core::QueryCacheStats CacheStats(World& world) {
  if (world.shape->ingest) {
    auto live = world.manager.Live(kDataset, world.layer);
    return live.ok() ? (*live)->result_cache_stats() : core::QueryCacheStats();
  }
  auto engine = world.manager.Engine(kDataset, world.layer);
  return engine.ok() ? (*engine)->result_cache_stats()
                     : core::QueryCacheStats();
}

ingest::IngestStats IngestStatsOf(World& world) {
  if (!world.shape->ingest) return {};
  auto stats = world.manager.IngestStatsFor(kDataset);
  return stats.ok() ? *stats : ingest::IngestStats();
}

std::uint64_t ServerRejected(const World& world) {
  return world.server->rejected_overload() + world.server->rejected_draining();
}

// Closed-loop query client: sends its next statement as soon as the
// previous response has fully arrived.
void QueryClient(World& world, const Args& args, int client,
                 const std::atomic<bool>& stop,
                 const std::atomic<std::int64_t>& newest_t,
                 std::atomic<std::size_t>* sent, SpanRecorder* recorder,
                 ClientOut* out) {
  const Shape& shape = *world.shape;
  BrushTrace trace(SubSeed(kScriptSeed, 10 + client), world.domain);
  Rng rng(SubSeed(args.seed, 20 + client));
  const std::uint16_t port = world.server->port();
  for (std::size_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
    Statement s;
    if (!world.revisit_states.empty()) {
      s = world.revisit_states[rng.NextUint64(world.revisit_states.size())];
    } else if (shape.ingest) {
      s = EndingAt(world.reader_frames[n % world.reader_frames.size()],
                   newest_t.load(std::memory_order_acquire));
    } else {
      s = trace.Next();
    }
    const std::string sql = RenderSql(s, kDataset, world.layer);
    const bool sampled = rng.NextUint64(kSampleEvery) == 0;
    Span span;
    span.name = "client.request";
    span.id = span.request = recorder->NewId();
    span.start_ns = NowNs();
    Reply reply = Post(port, "/v1/query", QueryBody(sql, shape.method),
                       span.id);
    span.end_ns = NowNs();
    out->completions.push_back(
        {span.end_ns * 1e-9, span.DurationMs(), reply.status == 200});
    sent->fetch_add(1, std::memory_order_relaxed);
    if (out->statements.size() < kReplayStatements) {
      out->statements.push_back(sql);
    }
    if (sampled && reply.status == 200 && !shape.ingest &&
        out->samples.size() < kMaxSamplesPerClient) {
      out->samples.push_back({sql, std::move(reply.body)});
    }
    if (recorder->enabled()) {
      recorder->Record({"net.connect", span.start_ns,
                        span.start_ns + reply.connect_ns, recorder->NewId(),
                        span.id, span.id});
      recorder->Record(std::move(span));
    }
  }
}

// Open-loop writer: batch i is due at start + i * interval whatever
// happened to batch i-1.
void IngestWriter(World& world, std::size_t first, std::size_t count,
                  double start_s, std::atomic<std::int64_t>* newest_t,
                  SpanRecorder* recorder, WindowResult* out) {
  const OpenLoopSchedule schedule{start_s, kBatchIntervalS};
  const std::uint16_t port = world.server->port();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t batch = first + i;
    OpenLoopRecord record;
    record.due_s = schedule.Due(i);
    // Rendered in the slack before the batch is due, so no body is held.
    const std::string body = IngestBody(*world.stream, batch, kDataset);
    const double now = NowNs() * 1e-9;
    if (now < record.due_s) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(record.due_s - now));
    }
    Span span;
    span.name = "client.ingest";
    span.id = span.request = recorder->NewId();
    span.start_ns = NowNs();
    record.sent_s = span.start_ns * 1e-9;
    const Reply reply = Post(port, "/v1/ingest", body, span.id);
    span.end_ns = NowNs();
    record.done_s = span.end_ns * 1e-9;
    record.ok = reply.status == 200;
    out->batches.push_back(record);
    if (record.ok) {
      out->acked_batches.push_back(batch);
      const std::size_t last_row = (batch + 1) * world.stream->batch_rows - 1;
      newest_t->store(world.stream->rows.t(last_row),
                      std::memory_order_release);
    }
    if (recorder->enabled()) {
      recorder->Record({"net.connect", span.start_ns,
                        span.start_ns + reply.connect_ns, recorder->NewId(),
                        span.id, span.id});
      recorder->Record(std::move(span));
    }
  }
}

// Compaction on the writer's fixed cadence: CompactIngest is due with the
// batches half-way between two auto-flushes (global batch index k *
// kCompactEvery + kCompactEvery / 2), so it never races a flush and merges
// the same runs in every run of the benchmark. It runs on its own thread
// so a long compaction never makes the writer late.
void Compactor(World& world, std::size_t first, std::size_t count,
               double start_s, SpanRecorder* recorder, WindowResult* out) {
  const OpenLoopSchedule schedule{start_s, kBatchIntervalS};
  const std::size_t phase = kCompactEvery / 2;
  std::size_t global =
      first + (kCompactEvery + phase - first % kCompactEvery) % kCompactEvery;
  for (; global < first + count; global += kCompactEvery) {
    const std::size_t i = global - first;
    const double now = NowNs() * 1e-9;
    if (now < schedule.Due(i)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(schedule.Due(i) - now));
    }
    Span compact;
    compact.name = "loadgen.compact";
    compact.id = compact.request = recorder->NewId();
    compact.start_ns = NowNs();
    (void)world.manager.CompactIngest(kDataset);
    compact.end_ns = NowNs();
    out->compact_s += (compact.end_ns - compact.start_ns) * 1e-9;
    recorder->Record(std::move(compact));
  }
}

// One measured window of `seconds`. Closed-loop clients keep going past
// the deadline until the query count supports a p95 (bounded at 3x).
WindowResult RunWindow(World& world, const Args& args, double seconds,
                       std::size_t batch_first,
                       std::atomic<std::int64_t>* newest_t,
                       SpanRecorder* recorder) {
  const Shape& shape = *world.shape;
  WindowResult result;
  result.cache_before = CacheStats(world);
  result.ingest_before = IngestStatsOf(world);
  const std::uint64_t rejected_before = ServerRejected(world);
  const std::int64_t start = NowNs();
  const double cpu_start = ProcessCpuSeconds();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> sent{0};
  std::vector<ClientOut> outs(shape.clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < shape.clients; ++c) {
    threads.emplace_back(QueryClient, std::ref(world), std::cref(args), c,
                         std::cref(stop), std::cref(*newest_t), &sent,
                         recorder, &outs[c]);
  }
  if (shape.ingest) {
    const std::size_t count =
        std::min(IngestBatches(seconds), world.stream->batches() - batch_first);
    threads.emplace_back(IngestWriter, std::ref(world), batch_first, count,
                         start * 1e-9, newest_t, recorder, &result);
    threads.emplace_back(Compactor, std::ref(world), batch_first, count,
                         start * 1e-9, recorder, &result);
  }
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t hard_deadline =
      start + static_cast<std::int64_t>(3 * seconds * 1e9);
  const std::size_t min_queries = MinSamplesFor(95);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (shape.ingest) {
      const ingest::IngestStats s = IngestStatsOf(world);
      result.components_sum += 1.0 + static_cast<double>(
          s.store_runs + s.sealed_runs + (s.hot_rows > 0 ? 1 : 0));
      ++result.components_samples;
      // The active WAL segment holds exactly the hot (unsealed) rows.
      if (s.hot_rows > 0 && s.wal_bytes > 0) {
        result.wal_bytes_per_row_sum += static_cast<double>(s.wal_bytes) /
                                        static_cast<double>(s.hot_rows);
        ++result.wal_samples;
      }
    }
    const std::int64_t now = NowNs();
    if (now < deadline) continue;
    if (sent.load() >= min_queries || now >= hard_deadline) break;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  result.seconds = (NowNs() - start) * 1e-9;
  result.cpu_s = ProcessCpuSeconds() - cpu_start;

  result.server_rejected = ServerRejected(world) - rejected_before;
  result.cache_after = CacheStats(world);
  result.ingest_after = IngestStatsOf(world);
  for (ClientOut& out : outs) {
    result.queries.insert(result.queries.end(), out.completions.begin(),
                          out.completions.end());
    for (Sample& sample : out.samples) {
      result.samples.push_back(std::move(sample));
    }
    result.statements.insert(result.statements.end(), out.statements.begin(),
                             out.statements.end());
  }
  std::sort(result.queries.begin(), result.queries.end(),
            [](const Completion& a, const Completion& b) {
              return a.done_s < b.done_s;
            });
  return result;
}

// Two windows as one: operations concatenated, counters summed, stats
// deltas from the first's start to the second's end.
WindowResult MergeWindows(const WindowResult& a, const WindowResult& b) {
  WindowResult m = a;
  m.queries.insert(m.queries.end(), b.queries.begin(), b.queries.end());
  m.batches.insert(m.batches.end(), b.batches.begin(), b.batches.end());
  m.seconds += b.seconds;
  m.cpu_s += b.cpu_s;
  m.server_rejected += b.server_rejected;
  m.compact_s += b.compact_s;
  m.components_sum += b.components_sum;
  m.components_samples += b.components_samples;
  m.wal_bytes_per_row_sum += b.wal_bytes_per_row_sum;
  m.wal_samples += b.wal_samples;
  m.cache_after = b.cache_after;
  m.ingest_after = b.ingest_after;
  return m;
}

// Run summaries over the whole window: percentiles over every query (a
// failure as +inf), rates over the window's wall and CPU time. A fixed
// script spends stretches on cheap and on costly frames, so only the whole
// window holds the same mix in every run.
struct Summary {
  double p50_ms = std::numeric_limits<double>::infinity();
  double p95_ms = std::numeric_limits<double>::infinity();
  double qps = 0;
  double cpu_ms_per_op = 0;
  bool supported = false;
};

Summary Summarize(const WindowResult& w) {
  Summary summary;
  const LatencySamples samples = SamplesOf(w.queries);
  const auto p50 = samples.Percentile(50);
  const auto p95 = samples.Percentile(95);
  summary.supported = p95.has_value();
  if (p50) summary.p50_ms = *p50;
  if (p95) summary.p95_ms = *p95;
  const double ok = static_cast<double>(samples.ok());
  const double ops = ok + static_cast<double>(w.BatchesOk());
  summary.qps = Ratio(ok, w.seconds);
  summary.cpu_ms_per_op = Ratio(w.cpu_s * 1e3, ops);
  return summary;
}

// ----------------------------------------------------------------- checks

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The urbane.result.v1 body must carry exactly the in-process answer:
// region identities in order, counts, and values bit for bit (non-finite
// values render as null).
bool MatchesResult(const std::string& body, const core::QueryResult& expected,
                   const data::RegionSet& regions, std::string* why) {
  auto doc = data::ParseJson(body);
  if (!doc.ok()) {
    *why = "unparseable response";
    return false;
  }
  const data::JsonValue* rows = doc->Find("regions");
  if (rows == nullptr || !rows->is_array() ||
      rows->AsArray().size() != expected.size()) {
    *why = "region count differs";
    return false;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const data::JsonValue& row = rows->AsArray()[i];
    const data::JsonValue* id = row.Find("id");
    const data::JsonValue* count = row.Find("count");
    const data::JsonValue* value = row.Find("value");
    if (id == nullptr || count == nullptr || value == nullptr ||
        id->AsNumber() != static_cast<double>(regions[i].id) ||
        count->AsNumber() != static_cast<double>(expected.counts[i])) {
      *why = "region " + std::to_string(i) + ": id or count differs";
      return false;
    }
    const double want = expected.values[i];
    const bool value_ok = std::isfinite(want)
                              ? value->is_number() &&
                                    SameBits(value->AsNumber(), want)
                              : value->is_null();
    if (!value_ok) {
      *why = "region " + std::to_string(i) + ": value differs";
      return false;
    }
  }
  return true;
}

// Checks sampled HTTP bodies against in-process DatasetManager::ExecuteSql;
// returns the number of mismatches.
std::size_t CheckSamples(World& world, const std::vector<Sample>& samples) {
  std::size_t mismatches = 0;
  auto regions = world.manager.RegionLayer(world.layer);
  for (const Sample& sample : samples) {
    auto expected =
        world.manager.ExecuteSql(sample.sql, MethodOf(*world.shape));
    std::string why = expected.ok() ? "" : expected.status().ToString();
    if (!expected.ok() ||
        !MatchesResult(sample.body, *expected, **regions, &why)) {
      ++mismatches;
      std::fprintf(stderr, "check failed: %s\n  %s\n", why.c_str(),
                   sample.sql.c_str());
    }
  }
  return mismatches;
}

struct IngestCheck {
  std::size_t mismatches = 0;
  std::size_t checked = 0;
  double disk_bytes_per_row = 0;
};

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// End of the ingest workload: quiesced HTTP answers match in process, the
// watermark is base + acknowledged rows, and the live COUNT(*) per region
// equals a stop-the-world engine over exactly the rows generated.
IngestCheck CheckIngest(World& world, const Args& args,
                        const std::vector<std::size_t>& acked) {
  IngestCheck check;
  const auto fail = [&](const std::string& why) {
    ++check.mismatches;
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  };
  if (!world.manager.FlushIngest(kDataset).ok() ||
      !world.manager.CompactIngest(kDataset).ok()) {
    fail("final flush/compact failed");
  }

  BrushTrace trace(SubSeed(args.seed, 5), world.domain);
  std::vector<Sample> samples;
  const std::int64_t newest =
      acked.empty() ? world.domain.t_max
                    : world.stream->rows.t((acked.back() + 1) *
                                               world.stream->batch_rows - 1);
  for (int i = 0; i < 8; ++i) {
    const std::string sql =
        RenderSql(trace.NextEndingAt(newest), kDataset, world.layer);
    Reply reply = Post(world.server->port(), "/v1/query",
                       QueryBody(sql, world.shape->method), 1);
    if (reply.status != 200) {
      fail("post-run query answered HTTP " + std::to_string(reply.status));
      continue;
    }
    samples.push_back({sql, std::move(reply.body)});
  }
  check.mismatches += CheckSamples(world, samples);
  check.checked += samples.size();

  const data::PointTable base =
      data::GenerateTaxiTrips(BaseTripOptions(*world.shape));
  const IngestStream& stream = *world.stream;
  data::PointTable all(base.schema());
  all.Reserve(base.size() + acked.size() * stream.batch_rows);
  const std::size_t arity = base.schema().attribute_count();
  std::vector<float> attributes(arity);
  const auto append = [&](const data::PointTable& t, std::size_t row) {
    for (std::size_t a = 0; a < arity; ++a) attributes[a] = t.attribute(row, a);
    (void)all.AppendRow(t.x(row), t.y(row), t.t(row), attributes);
  };
  for (std::size_t r = 0; r < base.size(); ++r) append(base, r);
  for (const std::size_t b : acked) {
    for (std::size_t r = b * stream.batch_rows;
         r < (b + 1) * stream.batch_rows; ++r) {
      append(stream.rows, r);
    }
  }
  std::uint64_t watermark = 0;
  const std::string count_sql =
      std::string("SELECT COUNT(*) FROM ") + kDataset + ", " + world.layer;
  auto live = world.manager.ExecuteSql(
      count_sql, core::ExecutionMethod::kAccurateRaster, nullptr, nullptr,
      &watermark);
  const data::RegionSet* regions = *world.manager.RegionLayer(world.layer);
  core::SpatialAggregation oracle(all, *regions);
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  auto expected =
      oracle.Execute(query, core::ExecutionMethod::kAccurateRaster);
  ++check.checked;
  if (watermark != all.size()) {
    fail("watermark " + std::to_string(watermark) + " != base + acked rows " +
         std::to_string(all.size()));
  }
  if (!live.ok() || !expected.ok() || live->counts != expected->counts) {
    fail("live COUNT(*) per region differs from the stop-the-world engine");
  }
  const std::uint64_t ingested = all.size() - base.size();
  if (ingested > 0) {
    check.disk_bytes_per_row =
        static_cast<double>(DirectoryBytes(world.dir + "/live")) /
        static_cast<double>(ingested);
  }
  return check;
}

// ----------------------------------------------------------------- replay

// Single-client in-process replay of the statements the clients sent:
// ParseQuerySql, the engine's Execute, RenderResult — each a span.
struct ReplayOut {
  std::size_t queries = 0;
  AllocCount allocs;
  std::int64_t minor_faults = 0;
  double response_bytes = 0;
  double pruned_frac_sum = 0;
  std::size_t pruned_samples = 0;
};

ReplayOut Replay(World& world, const std::vector<std::string>& statements,
                 const std::vector<std::size_t>& acked,
                 SpanRecorder* recorder) {
  ReplayOut out;
  const data::RegionSet* regions = *world.manager.RegionLayer(world.layer);
  // Store blocks of the live table (base and flushed runs) as they stand
  // after the measured windows.
  std::optional<ingest::LiveSnapshot> snapshot;
  if (world.shape->ingest) {
    auto live = world.manager.Live(kDataset, world.layer);
    if (live.ok()) snapshot = (*live)->table().Snapshot();
  }
  for (const std::string& sql : statements) {
    Span root{"replay.request", NowNs(), 0, recorder->NewId(), 0, 0};
    root.request = root.id;
    Span parse{"core.sql_parse", NowNs(), 0, recorder->NewId(), root.id,
               root.id};
    auto parsed = core::ParseQuerySql(sql);
    parse.end_ns = NowNs();
    if (!parsed.ok()) continue;
    if (snapshot) {
      std::uint64_t total = 0, pruned = 0;
      const auto prune = [&](const core::ZoneMapIndex& zone_maps,
                             const data::Schema& schema) {
        const core::PruneResult r = zone_maps.Prune(parsed->filter, schema);
        total += r.blocks_total;
        pruned += r.blocks_pruned;
      };
      if (snapshot->base_zone_maps != nullptr) {
        prune(*snapshot->base_zone_maps, snapshot->base->schema());
      }
      for (const auto& run : snapshot->runs) {
        if (run->reader) prune(run->reader->zone_maps(), run->reader->schema());
      }
      if (total > 0) {
        out.pruned_frac_sum +=
            static_cast<double>(pruned) / static_cast<double>(total);
        ++out.pruned_samples;
      }
    }
    Span execute{"core.execute", NowNs(), 0, recorder->NewId(), root.id,
                 root.id};
    const std::int64_t faults_before = ThreadMinorFaults();
    StatusOr<core::QueryResult> result = Status::OK();
    std::uint64_t watermark = 0;
    bool cache_hit = false;
    const bool live = world.shape->ingest;
    {
      AllocScope scope(&out.allocs);
      result = ExecuteInProcess(world, sql, live ? &world.passes : nullptr,
                                &cache_hit, &watermark);
    }
    out.minor_faults += ThreadMinorFaults() - faults_before;
    execute.end_ns = NowNs();
    if (!result.ok()) continue;

    Span render{"server.render", NowNs(), 0, recorder->NewId(), root.id,
                root.id};
    server::BackendResult backend_result;
    backend_result.dataset = kDataset;
    backend_result.regions_layer = world.layer;
    backend_result.method = world.shape->method;
    backend_result.exact = !world.shape->ingest;
    if (world.shape->ingest) backend_result.watermark = watermark;
    for (std::size_t i = 0; i < result->size(); ++i) {
      server::RegionRow row;
      row.id = (*regions)[i].id;
      row.name = (*regions)[i].name;
      row.value = result->values[i];
      row.count = result->counts[i];
      if (i < result->error_bounds.size()) {
        row.error_bound = result->error_bounds[i];
        row.has_error_bound = true;
      }
      backend_result.rows.push_back(std::move(row));
    }
    const std::string body =
        server::RenderResult(backend_result, execute.DurationMs()).Dump();
    render.end_ns = NowNs();
    root.end_ns = render.end_ns;
    out.response_bytes += static_cast<double>(body.size());
    ++out.queries;
    for (Span* span : {&parse, &execute, &render, &root}) {
      recorder->Record(std::move(*span));
    }
    if (!live && !cache_hit) {
      // An observed second run for the pass costs, outside the spans.
      (void)ExecuteInProcess(world, sql, &world.passes, &cache_hit, &watermark);
    }
  }
  // POST /v1/ingest request parsing, on the batch bodies the writer sent.
  for (std::size_t i = 0; i < acked.size() && i < kReplayStatements; ++i) {
    const std::string body = IngestBody(*world.stream, acked[i], kDataset);
    Span parse{"ingest.parse", NowNs(), 0, recorder->NewId(), 0, 0};
    parse.request = parse.id;
    (void)server::ParseIngestRequest(body);
    parse.end_ns = NowNs();
    recorder->Record(std::move(parse));
  }
  return out;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(TrimWhitespace(line.substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  return data::JsonValue(s).Dump();
}

void PrintEnvironment(const Args& args, const Shape& shape,
                      const World& world,
                      const std::vector<double>& setup_times) {
  std::string setups;
  for (const double t : setup_times) {
    setups += StringPrintf("%s%.4f", setups.empty() ? "" : ", ", t);
  }
  std::printf(
      "{\"environment\": {\"commit\": %s, \"source_digest\": %s, "
      "\"cpu_model\": %s, \"nproc\": %u, \"workload\": \"%s\", \"seed\": "
      "%llu, \"trips\": %zu, \"regions\": %zu, \"regions_layer\": \"%s\", "
      "\"method\": \"%s\", \"clients\": %d, \"writers\": %d, \"workers\": "
      "%d, \"run_seconds\": %g, \"setup_repeats\": %d, \"trace\": %d, "
      "\"ingest_batch_rows\": %zu, \"ingest_batches\": %zu, "
      "\"revisit_states\": %zu, \"setup_s_each\": [%s]}}\n",
      JsonString(args.commit).c_str(), JsonString(args.source_digest).c_str(),
      JsonString(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      shape.name, static_cast<unsigned long long>(args.seed), shape.trips,
      (*world.manager.RegionLayer(world.layer))->size(), world.layer.c_str(),
      shape.method, shape.clients, shape.ingest ? 1 : 0, shape.workers,
      args.seconds, kSetupRepeats, args.trace,
      shape.ingest ? kBatchRows : std::size_t{0},
      world.stream != nullptr ? world.stream->batches() : std::size_t{0},
      world.revisit_states.size(), setups.c_str());
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("%-32s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f  %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // A +inf percentile (failures past the rank) prints as the largest
    // finite double: JSON has no infinity.
    const double value = std::isfinite(m.value)
                             ? m.value
                             : std::numeric_limits<double>::max();
    json += StringPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         i == 0 ? "" : ", ", m.name.c_str(), value, m.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}


// ------------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && FindShape(args->workload) != nullptr &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

int Run(int argc, char** argv) {
  const std::int64_t process_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: urbane_perfbench --workload brush|revisit|ingest "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--trace-out FILE] [--commit ID] [--source-digest HEX]\n");
    return 2;
  }
  const Shape& shape = *FindShape(args.workload);
  SpanRecorder recorder;
  IngestStream stream;
  if (shape.ingest) stream = IngestRows(shape, args);

  // Set up several times, each timed from its own start to ready (the
  // first starts with the process, or after the ingest rows are made);
  // setup_s is the median, and the last set-up is the one measured.
  std::vector<double> setup_times;
  std::unique_ptr<World> world;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    if (world) {
      world->server->Stop();
      const std::string dir = world->dir;
      world.reset();
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    auto made =
        SetUp(shape, args, repeat,
              repeat == 0 && !shape.ingest ? process_start : NowNs(),
              shape.ingest ? &stream : nullptr, &recorder);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    world = std::move(*made);
    setup_times.push_back(world->setup_s);
  }
  PrintEnvironment(args, shape, *world, setup_times);

  // A traced run measures four quarter-length windows — untraced, traced,
  // traced, untraced — each replaying the same statements from the start,
  // so the traced pair compares with the untraced pair on equal work and
  // drift (such as the ingest table's growth) cancels. The writer's stream
  // continues across windows.
  std::vector<bool> phases = {false};
  if (args.trace != 0) phases = {false, true, true, false};
  const double window_s = args.trace != 0 ? args.seconds / 4 : args.seconds;
  std::atomic<std::int64_t> newest_t{world->domain.t_max};
  std::vector<WindowResult> windows;
  std::size_t next_batch = 0;
  for (const bool traced : phases) {
    recorder.Enable(traced);
    windows.push_back(
        RunWindow(*world, args, window_s, next_batch, &newest_t, &recorder));
    next_batch += windows.back().batches.size();
  }
  // Peak memory of the system under load, before the checks add their own.
  const double rss_peak_mb = PeakRssMb();
  std::vector<std::size_t> acked;
  std::vector<Sample> samples;
  for (WindowResult& w : windows) {
    acked.insert(acked.end(), w.acked_batches.begin(), w.acked_batches.end());
    for (Sample& sample : w.samples) samples.push_back(std::move(sample));
  }

  ReplayOut replay;
  if (args.trace != 0) {
    recorder.Enable(true);
    replay = Replay(*world, windows[1].statements, windows[1].acked_batches,
                    &recorder);
    recorder.Enable(false);
  }

  // Output checks.
  std::size_t mismatches = CheckSamples(*world, samples);
  std::size_t checked = samples.size();
  IngestCheck ingest_check;
  if (shape.ingest) {
    ingest_check = CheckIngest(*world, args, acked);
    mismatches += ingest_check.mismatches;
    checked += ingest_check.checked;
  }
  std::printf("output checks: %zu checked, %zu mismatched\n", checked,
              mismatches);

  // Every query, ingest batch and output check is an operation.
  std::size_t attempted = checked;
  std::size_t failed = mismatches;
  for (const WindowResult& w : windows) {
    attempted += w.queries.size() + w.batches.size();
    failed += w.QueriesFailed() + w.batches.size() - w.BatchesOk();
  }
  const bool correct = mismatches == 0;

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const Summary summary = Summarize(windows[0]);
    metrics = {
        {"setup_s", Median(setup_times), "s"},
        {"query_p50_ms", summary.p50_ms, "ms"},
        {"query_p95_ms", summary.p95_ms, "ms"},
        {"query_qps", summary.qps, "1/s"},
        {"cpu_ms_per_op", summary.cpu_ms_per_op, "ms"},
        {"rss_peak_mb", rss_peak_mb, "MB"},
    };
    if (!summary.supported) {
      std::fprintf(stderr, "too few queries (%zu) to support a p95\n",
                   windows[0].queries.size());
    }
  } else {
    const std::vector<Span> spans = recorder.spans();
    const auto layers = LayerTimes(spans);
    const auto layer = [&](const char* name) {
      auto it = layers.find(name);
      return it == layers.end() ? LayerTime() : it->second;
    };
    const WindowResult m = MergeWindows(windows[1], windows[2]);
    const LayerTime request = layer("client.request");
    const LayerTime backend = layer("urbane.backend");
    const PassCosts& p = world->passes;
    const double executed = static_cast<double>(p.queries);
    // Writer latency is an end-to-end number: take it untraced.
    const WindowResult untraced = MergeWindows(windows[0], windows[3]);
    const OpenLoopSummary writer = SummarizeOpenLoop(untraced.batches);
    const auto p50 = [](const WindowResult& w) { return Summarize(w).p50_ms; };
    const double overhead =
        (p50(windows[1]) + p50(windows[2])) /
        (p50(windows[0]) + p50(windows[3]));
    const auto cache_delta = [&](std::size_t core::QueryCacheStats::*field) {
      return static_cast<double>(m.cache_after.*field - m.cache_before.*field);
    };
    const auto ingest_delta = [&](std::uint64_t ingest::IngestStats::*field) {
      return static_cast<double>(m.ingest_after.*field -
                                 m.ingest_before.*field);
    };
    const auto pct = [](const LatencySamples& s, int p) {
      return s.Percentile(p).value_or(std::numeric_limits<double>::infinity());
    };
    metrics = {
        {"client.request_ms", request.MeanMs(), "ms"},
        {"net.connect_ms", layer("net.connect").MeanMs(), "ms"},
        {"server.wire_ms",
         Ratio(request.total_ms - backend.total_ms, request.count), "ms"},
        {"server.render_ms", layer("server.render").MeanMs(), "ms"},
        {"server.response_kb",
         Ratio(replay.response_bytes / 1024.0, replay.queries), "KB"},
        {"server.rejected", static_cast<double>(m.server_rejected), "count"},
        {"urbane.backend_ms", backend.MeanMs(), "ms"},
        {"urbane.backend_offcpu_ms",
         Ratio(world->timing->offcpu_ms(), backend.count), "ms"},
        {"core.sql_parse_us", layer("core.sql_parse").MeanMs() * 1e3, "us"},
        {"core.execute_ms", layer("core.execute").MeanMs(), "ms"},
        {"core.filter_ms", Ratio(p.filter_s * 1e3, executed), "ms"},
        {"core.splat_ms", Ratio(p.splat_s * 1e3, executed), "ms"},
        {"core.sweep_ms", Ratio(p.sweep_s * 1e3, executed), "ms"},
        {"core.refine_ms", Ratio(p.refine_s * 1e3, executed), "ms"},
        {"core.points_scanned_per_query",
         Ratio(p.points_scanned, executed), "count"},
        {"core.pip_tests_per_query", Ratio(p.pip_tests, executed), "count"},
        {"core.allocs_per_query",
         Ratio(replay.allocs.calls, replay.queries), "count"},
        {"core.alloc_kb_per_query",
         Ratio(replay.allocs.bytes / 1024.0, replay.queries), "KB"},
        {"core.minor_faults_per_query",
         Ratio(replay.minor_faults, replay.queries), "count"},
        {"core.cache_hit_ratio",
         Ratio(cache_delta(&core::QueryCacheStats::hits),
               cache_delta(&core::QueryCacheStats::hits) +
                   cache_delta(&core::QueryCacheStats::misses)),
         "ratio"},
        {"core.cache_evictions",
         cache_delta(&core::QueryCacheStats::evictions), "count"},
        {"core.first_query_ms", world->first_query_ms, "ms"},
        {"raster.fragments_per_query", Ratio(p.fragments, executed), "count"},
        {"raster.ns_per_fragment",
         Ratio((p.splat_s + p.sweep_s) * 1e9, p.fragments), "ns"},
        {"store.blocks_pruned_frac",
         Ratio(replay.pruned_frac_sum, replay.pruned_samples), "ratio"},
        {"store.convert_s", world->convert_s, "s"},
        {"ingest.parse_ms", layer("ingest.parse").MeanMs(), "ms"},
        {"ingest.append_ms", layer("ingest.append").MeanMs(), "ms"},
        {"ingest.flushes",
         ingest_delta(&ingest::IngestStats::flushes), "count"},
        {"ingest.compactions",
         ingest_delta(&ingest::IngestStats::compactions), "count"},
        {"ingest.compact_s", m.compact_s, "s"},
        {"ingest.rejected",
         ingest_delta(&ingest::IngestStats::rejected), "count"},
        {"ingest.components_per_query",
         Ratio(m.components_sum, m.components_samples), "count"},
        {"ingest.wal_bytes_per_row",
         Ratio(m.wal_bytes_per_row_sum, m.wal_samples), "B"},
        {"ingest_ack_p50_ms",
         shape.ingest ? pct(writer.ack_ms, 50) : 0.0, "ms"},
        {"ingest_ack_p95_ms",
         shape.ingest ? pct(writer.ack_ms, 95) : 0.0, "ms"},
        {"disk_bytes_per_row", ingest_check.disk_bytes_per_row, "B"},
        {"loadgen.late_p95_ms",
         shape.ingest ? pct(writer.late_ms, 95) : 0.0, "ms"},
        {"trace.overhead_frac",
         overhead - 1.0, "ratio"},
    };
    std::printf("layer split (traced window, per span, ms):\n");
    for (const auto& [name, t] : layers) {
      std::printf("  %-18s n=%-6zu mean %9.4f  self %9.4f\n", name.c_str(),
                  t.count, t.MeanMs(), t.MeanSelfMs());
    }
    if (!args.trace_out.empty() && !recorder.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }

  world->server->Stop();
  const std::string dir = world->dir;
  world.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);

  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // One malloc arena for the whole process. With glibc's default (up to 8
  // per core), which thread happens to allocate and free a query's canvases
  // decides how much freed memory stays resident: on ingest, runs of the
  // same work peaked anywhere from 157 to 205 MB (rss_peak_mb spread 0.24);
  // with one arena five runs peaked between 126 and 132 MB, and latency and
  // CPU per operation did not change measurably. Set before any thread
  // starts.
  mallopt(M_ARENA_MAX, 1);
  return perfbench::Run(argc, argv);
}

#include "obs/exporter.h"

#include <chrono>
#include <fstream>
#include <utility>

#include "net/http.h"
#include "net/socket.h"
#include "obs/process_metrics.h"
#include "obs/event_journal.h"
#include "obs/prometheus.h"
#include "obs/slow_query_log.h"

namespace urbane::obs {

namespace {

constexpr int kPollSliceMs = 50;

// Scrape requests are tiny GETs; anything bigger is not a scraper.
constexpr std::size_t kMaxRequestBytes = 4096;

std::string HttpResponseString(int code, const char* reason,
                               const std::string& content_type,
                               const std::string& body) {
  net::HttpResponse response;
  response.version = "HTTP/1.0";
  response.status = code;
  response.reason = reason;
  response.content_type = content_type;
  response.body = body;
  return net::FormatHttpResponse(response);
}

}  // namespace

bool TelemetryEndpoint(const std::string& path, std::string* content_type,
                       std::string* body) {
  // Ignore any query string.
  const std::string route = path.substr(0, path.find('?'));
  if (route == "/metrics") {
    UpdateProcessGauges(MetricsRegistry::Global());
    // Journal/slowlog health is sampled at scrape time rather than pushed
    // on every event: dropped events are exactly the moments when pushing
    // more telemetry is the wrong idea.
    MetricsRegistry::Global()
        .GetGauge("journal.dropped_total")
        .Set(static_cast<double>(EventJournal::Global().dropped()));
    MetricsRegistry::Global()
        .GetGauge("slowlog.entries")
        .Set(static_cast<double>(SlowQueryLog::Global().Records().size()));
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    *content_type = "text/plain; version=0.0.4";
    *body = ToPrometheusText(snapshot);
    return true;
  }
  if (route == "/slowlog") {
    *content_type = "application/json";
    *body = SlowQueryLog::Global().ToJson().Dump(2) + "\n";
    return true;
  }
  if (route == "/healthz") {
    *content_type = "text/plain";
    *body = "ok\n";
    return true;
  }
  return false;
}

TelemetryExporter::TelemetryExporter(TelemetryExporterOptions options)
    : options_(std::move(options)) {}

TelemetryExporter::~TelemetryExporter() { Stop(); }

Status TelemetryExporter::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("exporter already running");
  }
  if (options_.listen) {
    if (!net::SocketsAvailable()) {
      return Status::NotImplemented("sockets unavailable on this platform");
    }
    URBANE_ASSIGN_OR_RETURN(listen_fd_,
                            net::ListenLoopback(options_.port, 8, &port_));
  }

  stop_.store(false, std::memory_order_release);
  last_flushed_ = MetricsSnapshot{};
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void TelemetryExporter::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  net::CloseSocket(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
  Flush();  // final flush so short-lived runs still leave a sink line
}

void TelemetryExporter::Run() {
  using Clock = std::chrono::steady_clock;
  const auto flush_period = std::chrono::duration<double>(
      options_.flush_period_seconds > 0.0 ? options_.flush_period_seconds
                                          : 1.0);
  Flush();  // initial snapshot establishes the delta baseline
  auto next_flush = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       flush_period);
  while (!stop_.load(std::memory_order_acquire)) {
    if (listen_fd_ >= 0) {
      if (net::WaitReadable(listen_fd_, kPollSliceMs)) {
        const int client = net::AcceptConnection(listen_fd_);
        if (client >= 0) ServeOne(client);
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollSliceMs));
    }
    if (Clock::now() >= next_flush) {
      Flush();
      next_flush = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      flush_period);
    }
  }
}

void TelemetryExporter::ServeOne(int client_fd) {
  // Bound how long a slow or half-open client can hold the loop: both the
  // read of its request and the write of our response time out.
  const int timeout_ms =
      options_.client_timeout_ms > 0 ? options_.client_timeout_ms : 250;
  net::SetSocketTimeouts(client_fd, timeout_ms, timeout_ms);

  net::HttpLimits limits;
  limits.max_header_bytes = kMaxRequestBytes;
  limits.max_body_bytes = 0;  // scrape endpoints take no request body
  StatusOr<net::HttpRequest> request = net::ReadHttpRequest(client_fd, limits);
  if (request.ok()) {
    net::SendAll(client_fd,
                 HandleRequest(request->method, request->target));
  } else if (request.status().code() == StatusCode::kInvalidArgument) {
    net::SendAll(client_fd,
                 HttpResponseString(400, "Bad Request", "text/plain",
                                    request.status().message() + "\n"));
  }
  // IoError (half-open peer, timeout): nothing useful to send.
  net::CloseSocket(client_fd);
}

std::string TelemetryExporter::HandleRequest(const std::string& method,
                                             const std::string& path) const {
  if (method != "GET") {
    return HttpResponseString(405, "Method Not Allowed", "text/plain",
                              "method not allowed\n");
  }
  std::string content_type;
  std::string body;
  if (TelemetryEndpoint(path, &content_type, &body)) {
    return HttpResponseString(200, "OK", content_type, body);
  }
  return HttpResponseString(404, "Not Found", "text/plain", "not found\n");
}

void TelemetryExporter::Flush() {
  if (options_.sink_path.empty()) return;
  UpdateProcessGauges(MetricsRegistry::Global());
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const MetricsSnapshot delta = MetricsSnapshot::Delta(snapshot, last_flushed_);
  last_flushed_ = snapshot;

  data::JsonValue::Object line;
  line.emplace_back("schema", data::JsonValue("urbane.telemetry.v1"));
  line.emplace_back("uptime_seconds", ProcessUptimeSeconds());
  line.emplace_back("delta", delta.ToJson());
  std::ofstream out(options_.sink_path, std::ios::app);
  if (!out) return;
  out << data::JsonValue(std::move(line)).Dump(-1) << "\n";
  flushes_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace urbane::obs

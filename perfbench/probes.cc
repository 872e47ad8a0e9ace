#include "probes.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "obs/event_journal.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

thread_local AllocCount* t_alloc_sink = nullptr;

// Trace-id high half marking a benchmark-issued request.
constexpr std::uint64_t kTraceHi = 0x7065726662656e63ULL;

void* CountedAlloc(std::size_t size) {
  if (AllocCount* sink = t_alloc_sink) {
    ++sink->calls;
    sink->bytes += size;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

AllocScope::AllocScope(AllocCount* sink) : previous_(t_alloc_sink) {
  t_alloc_sink = sink;
}
AllocScope::~AllocScope() { t_alloc_sink = previous_; }

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t ThreadMinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

std::string TraceparentFor(std::uint64_t client_span_id) {
  return urbane::StringPrintf("00-%016llx%016llx-%016llx-01",
                              static_cast<unsigned long long>(kTraceHi),
                              static_cast<unsigned long long>(client_span_id),
                              static_cast<unsigned long long>(client_span_id));
}

namespace {

// The client span this server-side call belongs to (0 when unknown).
std::uint64_t ClientSpanOfCurrentRequest() {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  urbane::obs::CurrentTraceContext(&hi, &lo);
  return hi == kTraceHi ? lo : 0;
}

}  // namespace

urbane::StatusOr<urbane::server::BackendResult> TimingBackend::ExecuteSql(
    const std::string& sql, std::optional<urbane::core::ExecutionMethod> method,
    const urbane::core::QueryControl* control,
    urbane::obs::QueryProfile* profile) {
  if (!recorder_->enabled()) {
    return inner_->ExecuteSql(sql, method, control, profile);
  }
  Span span;
  span.name = "urbane.backend";
  span.parent = span.request = ClientSpanOfCurrentRequest();
  span.id = recorder_->NewId();
  const std::int64_t cpu_start = ThreadCpuNs();
  span.start_ns = NowNs();
  auto result = inner_->ExecuteSql(sql, method, control, profile);
  span.end_ns = NowNs();
  const std::int64_t cpu = ThreadCpuNs() - cpu_start;
  offcpu_ns_.fetch_add(std::max<std::int64_t>(
                           0, span.end_ns - span.start_ns - cpu),
                       std::memory_order_relaxed);
  recorder_->Record(std::move(span));
  return result;
}

urbane::StatusOr<urbane::server::IngestResponse> TimingBackend::Ingest(
    const urbane::server::IngestRequest& request) {
  if (!recorder_->enabled()) return inner_->Ingest(request);
  Span span;
  span.name = "ingest.append";
  span.parent = span.request = ClientSpanOfCurrentRequest();
  span.id = recorder_->NewId();
  span.start_ns = NowNs();
  auto result = inner_->Ingest(request);
  span.end_ns = NowNs();
  recorder_->Record(std::move(span));
  return result;
}

double TimingBackend::offcpu_ms() const {
  return offcpu_ns_.load(std::memory_order_relaxed) * 1e-6;
}

}  // namespace perfbench

// The allocation hook: every operator new of the benchmark binary counts
// into the calling thread's open AllocScope, if any.
void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::CountedAlloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Record(Span span) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(file, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %llu, \"parent\": %llu, \"request\": %llu}%s\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTime> layers;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = s.start_ns;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, reach);
        end = std::min(end, s.end_ns);
        if (end > begin) {
          covered += end - begin;
          reach = end;
        }
      }
    }
    LayerTime& layer = layers[s.name];
    ++layer.count;
    layer.total_ms += s.DurationMs();
    layer.self_ms += (s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return layers;
}

}  // namespace perfbench

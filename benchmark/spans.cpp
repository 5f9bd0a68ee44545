#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

#include "sim/json.hpp"

namespace alewife::benchmark {

namespace {
/// Innermost open span on this host thread (-1 = none).
thread_local int t_open = -1;
}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int SpanRecorder::open(const char* name, int parent) {
  const double start = now_us();
  const std::uint64_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] =
      tids_.emplace(thread, static_cast<std::uint32_t>(tids_.size()));
  (void)fresh;
  spans_.push_back(Span{name, start, -1, parent, it->second, rep_});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  const double end = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = end;
}

SpanRecorder::Scope::Scope(SpanRecorder& r, const char* name, int parent)
    : rec_(r) {
  if (!rec_.enabled_) return;
  prev_open_ = t_open;
  id_ = rec_.open(name, parent >= 0 ? parent : t_open);
  t_open = id_;
}

SpanRecorder::Scope::~Scope() {
  if (id_ < 0) return;
  rec_.close(id_);
  t_open = prev_open_;
}

void SpanRecorder::sim_span(const std::string& name, std::uint32_t node,
                            std::uint64_t start, std::uint64_t end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  sim_spans_.push_back(SimSpan{name, node, start, end});
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_us >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                            s.end_us);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0) continue;
    // Children may run in parallel on other threads: subtract the union of
    // their intervals, clipped to the parent, not their sum.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start_us);
      b = std::min(b, s.end_us);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end_us - s.start_us - covered) * 1e-6;
  }
  return out;
}

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"name\": \"host (us)\"}},\n";
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
        "\"args\": {\"name\": \"simulated (1 us = 1 cycle)\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0) continue;
    os << ",\n{\"name\": \"" << json::escape(s.name)
       << "\", \"cat\": \"host\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << s.start_us << ", \"dur\": " << (s.end_us - s.start_us)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"rep\": " << s.rep << "}}";
  }
  for (const SimSpan& s : sim_spans_) {
    os << ",\n{\"name\": \"" << json::escape(s.name)
       << "\", \"cat\": \"sim\", \"ph\": \"X\", \"pid\": 2, \"tid\": " << s.node
       << ", \"ts\": " << s.start << ", \"dur\": " << (s.end - s.start)
       << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace alewife::benchmark

// Host-clock spans recorded around the benchmark's calls into each layer.
//
// A span is (name, start, end, parent, thread, rep). Names are
// "<layer>.<what>", e.g. "core.machine_build" or "sim.run"; a layer's self
// time is the time its spans cover minus the part their child spans cover.
// Spans stay in memory and are written once, at exit, as Chrome trace_event
// JSON (open in Perfetto or chrome://tracing). Simulated-clock spans (cycles)
// go to a second trace process so the two clocks never share an axis.
//
// A disabled recorder records nothing; Scope is then two branches.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace alewife::benchmark {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Tag subsequent spans with this repetition index.
  void set_rep(int rep) { rep_ = rep; }

  /// RAII span. `parent` < 0 means "the innermost open span on this thread"
  /// (or none); pass an explicit id for work fanned out to other threads.
  class Scope {
   public:
    Scope(SpanRecorder& r, const char* name, int parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanRecorder& rec_;
    int id_ = -1;
    int prev_open_ = -1;
  };

  /// A simulated-clock span on `node` (cycles).
  void sim_span(const std::string& name, std::uint32_t node,
                std::uint64_t start, std::uint64_t end);

  /// Per-layer self time in seconds, summed over every recorded span.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Write every span as Chrome trace_event JSON.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = -1;  ///< < 0 while open
    int parent = -1;
    std::uint32_t tid = 0;
    int rep = 0;
  };
  struct SimSpan {
    std::string name;
    std::uint32_t node = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };

  double now_us() const;
  int open(const char* name, int parent);
  void close(int id);

  bool enabled_;
  int rep_ = 0;
  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;  ///< guards spans_, sim_spans_, tids_
  std::vector<Span> spans_;
  std::vector<SimSpan> sim_spans_;
  std::map<std::uint64_t, std::uint32_t> tids_;  ///< host thread -> small id
};

}  // namespace alewife::benchmark

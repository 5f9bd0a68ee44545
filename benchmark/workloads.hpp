// The benchmark's four workloads. Each one is a function that performs one
// repetition: build a fresh machine (timed as set-up), run the measured phase
// (timed as wall), read the program's counters through the public Stats API,
// and check the outputs. Simulated results land in Rep::sim and must repeat
// exactly for equal inputs; host times land in the Rep's *_s fields.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace alewife::benchmark {

struct Params {
  std::uint64_t seed = 1;
  bool tiny = false;            ///< smoke-test size
  unsigned threads = 1;         ///< host threads the workload may use
  std::uint32_t shards = 0;     ///< sharded-engine override (0 = default)
  std::string anchors;          ///< paper_grid descriptor path
};

struct Rep {
  // Host clock (seconds).
  double machine_build_s = 0;  ///< Machine construction
  double app_setup_s = 0;      ///< app/descriptor set-up before the first event
  double wall_s = 0;           ///< measured phase
  double events_wall_s = 0;    ///< host time spent on sim.events (0 = unknown)
  double calib_s = 0;          ///< calibration_seconds() right after this rep
  // paper_grid only.
  double parse_expand_s = 0;
  std::vector<double> point_s;  ///< per grid element (traced runs)
  double busy_ratio = 0;        ///< sum(point_s) / (threads * wall_s)

  /// Simulated results and program counters, keyed by metric name.
  std::map<std::string, double> sim;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  double setup_s() const {
    return machine_build_s + app_setup_s + parse_expand_s;
  }
  void fail(const std::string& why, std::uint64_t n = 1) {
    failed += n;
    failures.push_back(why);
  }
};

struct Workload {
  const char* name;
  const char* why;
  std::uint32_t shards;  ///< engine shards used (0 = serial engine)
  Rep (*run)(const Params&, SpanRecorder&);
  /// Human-readable lines describing the workload's inputs and results.
  std::vector<std::string> (*describe)(const Params&, const Rep&);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Host nanoseconds per event of a bare Simulator schedule/run mix (no
/// Machine): the event kernel on its own.
double kernel_ns_per_event(std::uint64_t events);

/// Host seconds of a fixed, benchmark-owned event loop (see workloads.cpp).
/// Timed after every repetition to rescale its wall time to a reference host
/// speed.
double calibration_seconds();

/// Host seconds to construct one default 64-node Machine.
double machine_build_seconds_64();

}  // namespace alewife::benchmark

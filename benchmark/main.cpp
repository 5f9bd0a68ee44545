// alewife_bench: the repository benchmark's main program (see README.md).
//
//   alewife_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--size full|tiny] [--anchors FILE] [--out-dir DIR]
//                 [--git-commit SHA] [--source-id HASH]
//
// Repeats the workload's repetition (fresh machine, set-up, measured phase,
// output checks) for --seconds and reports medians. --trace 0 prints the
// end-to-end metrics; --trace 1 alternates untraced and traced repetitions
// and prints the per-layer metrics, writes the spans as Chrome trace_event
// JSON and checks that tracing left every simulated result unchanged. The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit status is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/json.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace alewife::benchmark;

namespace {

#ifndef ALEWIFE_BENCH_BUILD_TYPE
#define ALEWIFE_BENCH_BUILD_TYPE "unknown"
#endif

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the smoke test checks both ways).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_ref_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_cycles", "cycles"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.kernel_ns_per_event", "ns"},
    {"sim.shard_speedup", "x"},
    {"sim.events_per_window", "count"},
    {"net.packets", "count"},
    {"net.coherence_packets", "count"},
    {"net.user_packets", "count"},
    {"net.link_stall_cycles", "cycles"},
    {"mem.read_misses", "count"},
    {"mem.write_misses", "count"},
    {"mem.invalidations", "count"},
    {"mem.home_queued", "count"},
    {"mem.limitless_traps", "count"},
    {"cmmu.messages_sent", "count"},
    {"cmmu.message_payload_bytes", "bytes"},
    {"coll.cmmu_combines", "count"},
    {"coll.cmmu_combine_cycles", "cycles"},
    {"proc.interrupts", "count"},
    {"proc.interrupt_cycles", "cycles"},
    {"proc.stolen_cycles", "cycles"},
    {"coll.barrier_cycles.p50", "cycles"},
    {"coll.allreduce_cycles.p50", "cycles"},
    {"rt.steal_ratio", "ratio"},
    {"rt.steal_attempts", "count"},
    {"rt.invokes_msg", "count"},
    {"rt.tasks_run", "count"},
    {"rt.queue_full", "count"},
    {"kv.queue_depth.p99", "count"},
    {"bulk.msg_pull_bytes", "bytes"},
    {"kv.lat.scan.p50", "cycles"},
    {"kv.lat.get.p50", "cycles"},
    {"kv.lat.put.p50", "cycles"},
    {"kv.hot_hit_ratio", "ratio"},
    {"kv.p50_cycles", "cycles"},
    {"kv.p999_cycles", "cycles"},
    {"kv.goodput", "req/kcycle"},
    {"core.machine_build_s", "s"},
    {"core.app_setup_s", "s"},
    {"batch.parse_expand_s", "s"},
    {"batch.point_s.p50", "s"},
    {"batch.point_s.max", "s"},
    {"batch.thread_busy_ratio", "ratio"},
    {"paper.err_pct", "%"},
    {"trace_overhead_pct", "%"},
    {"self_s.bench", "s"},
    {"self_s.core", "s"},
    {"self_s.apps", "s"},
    {"self_s.sim", "s"},
    {"self_s.stats", "s"},
    {"self_s.batch", "s"},
    {"host.wall_s", "s"},
    {"host.calib_s", "s"},
};

// calibration_seconds() on the host where the benchmark was defined (4-vCPU
// Xeon VM at 2.1 GHz, quiet): wall_ref_s is wall time rescaled to this speed.
constexpr double kCalibReferenceS = 0.05;

/// A repetition's wall time rescaled to the reference host speed.
double wall_ref(const Rep& r) {
  return r.wall_s / r.calib_s * kCalibReferenceS;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;  // development seed; 2 is held out (README.md)
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string anchors = "benchmark/paper_anchors.json";
  std::string out_dir = ".bench_out";
  std::string git_commit = "none";
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "alewife_bench: %s\nusage: alewife_bench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] "
               "[--anchors FILE] [--out-dir DIR] [--git-commit SHA] "
               "[--source-id HASH]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--size") {
        if (v != "full" && v != "tiny") usage("--size takes full or tiny");
        a.tiny = v == "tiny";
      } else if (k == "--anchors") {
        a.anchors = v;
      } else if (k == "--out-dir") {
        a.out_dir = v;
      } else if (k == "--git-commit") {
        a.git_commit = v;
      } else if (k == "--source-id") {
        a.source_id = v;
      } else {
        usage("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Shortest text that reads back as exactly `v`.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

template <typename Fn>
std::vector<double> collect(const std::vector<Rep>& reps, Fn&& fn) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(fn(r));
  return out;
}

/// First simulated result on which two repetitions disagree ("" = none).
std::string sim_diff(const Rep& a, const Rep& b) {
  for (const auto& [k, v] : a.sim) {
    const auto it = b.sim.find(k);
    if (it == b.sim.end() || it->second != v) return k;
  }
  return a.sim.size() == b.sim.size() ? "" : "(metric set)";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = find_workload(args.workload);
  if (!w) usage("unknown workload '" + args.workload + "'");

#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "alewife_bench: refusing to measure an unoptimized build "
               "(build type '%s'); its numbers describe a different program\n",
               ALEWIFE_BENCH_BUILD_TYPE);
  return 2;
#endif

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Params p;
  p.seed = args.seed;
  p.tiny = args.tiny;
  p.threads = nproc;
  p.anchors = args.anchors;

  std::printf("# alewife_bench %s seed %llu trace %d size %s\n", w->name,
              (unsigned long long)args.seed, int(args.trace),
              args.tiny ? "tiny" : "full");
  std::printf("# stamp: nproc %u, build %s, compiler gcc-compatible %s, "
              "git %s, source %s, shards %u\n",
              nproc, ALEWIFE_BENCH_BUILD_TYPE, __VERSION__,
              args.git_commit.c_str(), args.source_id.c_str(), w->shards);
  std::printf("# why: %s\n", w->why);
  std::fflush(stdout);

  SpanRecorder off(false);
  SpanRecorder rec(args.trace);
  std::vector<Rep> plain, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto note = [&](const Rep& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  };
  const auto check = [&](bool ok, const std::string& what) {
    attempted++;
    if (!ok) {
      failed++;
      failures.push_back(what);
    }
  };

  // ---- Repetitions ---------------------------------------------------------
  // Untraced: repeat until another rep would overrun --seconds (at least
  // three reps). Traced: alternate untraced and traced reps (at least two of
  // each).
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const std::size_t min_reps = args.trace ? 2 : 3;
  int rep_index = 0;
  double last_rep_s = 0;
  // Each rep's calibration is the mean of the loops timed just before and
  // just after it, so it brackets the host speed the rep ran at.
  double calib_before = calibration_seconds();
  try {
    while (plain.size() < min_reps || traced.size() < (args.trace ? 2u : 0u) ||
           elapsed() + last_rep_s <= args.seconds) {
      const double rep_start = elapsed();
      const bool traced_rep = args.trace && plain.size() > traced.size();
      SpanRecorder& r = traced_rep ? rec : off;
      rec.set_rep(rep_index++);
      Rep rep;
      {
        SpanRecorder::Scope s(r, "bench.rep");
        rep = w->run(p, r);
      }
      note(rep);
      const double calib_after = calibration_seconds();
      rep.calib_s = 0.5 * (calib_before + calib_after);
      calib_before = calib_after;
      std::printf("rep %d%s: setup %.4f s, wall %.4f s, calib %.4f s, "
                  "sim_cycles %.0f\n",
                  rep_index - 1, traced_rep ? " (traced)" : "", rep.setup_s(),
                  rep.wall_s, rep.calib_s, rep.sim["sim_cycles"]);
      std::fflush(stdout);
      (traced_rep ? traced : plain).push_back(std::move(rep));
      last_rep_s = elapsed() - rep_start;
      if (plain.size() + traced.size() >= 1000) break;
    }
  } catch (const std::exception& e) {
    check(false, std::string("exception: ") + e.what());
  }
  if (plain.empty()) {
    std::fprintf(stderr, "alewife_bench: no repetition completed\n");
    for (const auto& f : failures) std::fprintf(stderr, "  %s\n", f.c_str());
    return 1;
  }

  // Simulated results must repeat exactly: across reps, and traced vs not.
  for (std::size_t i = 1; i < plain.size(); ++i) {
    const std::string d = sim_diff(plain[0], plain[i]);
    check(d.empty(), "rep " + std::to_string(i) + " simulated '" + d +
                         "' differently from rep 0 with the same seed");
  }
  for (const Rep& t : traced) {
    const std::string d = sim_diff(plain[0], t);
    check(d.empty(), "tracing changed simulated metric '" + d + "'");
  }

  const Rep& ref = plain[0];
  std::map<std::string, double> metrics;
  const auto wall = [](const Rep& r) { return r.wall_s; };

  if (!args.trace) {
    metrics["setup_s"] =
        median(collect(plain, [](const Rep& r) { return r.setup_s(); }));
    metrics["wall_ref_s"] = median(collect(plain, wall_ref));
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["sim_cycles"] = ref.sim.at("sim_cycles");
  } else {
    for (const MetricDef& m : kPerLayer) {
      const auto it = ref.sim.find(m.name);
      metrics[m.name] = it == ref.sim.end() ? 0.0 : it->second;
    }
    const double events = ref.sim.at("sim.events");
    const double plain_ref = median(collect(plain, wall_ref));
    std::vector<double> ns;
    for (const auto* reps : {&plain, &traced}) {
      for (const Rep& r : *reps) {
        if (r.events_wall_s > 0 && events > 0) {
          ns.push_back(r.events_wall_s * 1e9 / events);
        }
      }
    }
    metrics["sim.host_ns_per_event"] = median(ns);
    std::vector<double> kernel;
    for (int i = 0; i < 5; ++i) {
      kernel.push_back(kernel_ns_per_event(1u << 20));
    }
    metrics["sim.kernel_ns_per_event"] = median(kernel);

    if (w->shards != 0) {
      // Same event stream on one shard: events must match exactly.
      Params one = p;
      one.shards = 1;
      Rep k1 = w->run(one, off);  // untraced: its time is no layer's
      k1.calib_s = 0.5 * (calib_before + calibration_seconds());
      note(k1);
      const std::string d = sim_diff(ref, k1);
      check(d.empty(), "K=1 and K=" + std::to_string(w->shards) +
                           " disagree on simulated metric '" + d + "'");
      metrics["sim.shard_speedup"] = wall_ref(k1) / plain_ref;
      std::printf("shards: K=1 %.4f s vs K=%u median %.4f s (reference "
                  "speed); events %.0f at both\n",
                  wall_ref(k1), w->shards, plain_ref, k1.sim.at("sim.events"));
    }

    const auto all = [&](auto fn) {
      std::vector<double> v = collect(plain, fn);
      for (const Rep& t : traced) v.push_back(fn(t));
      return median(v);
    };
    metrics["core.app_setup_s"] =
        all([](const Rep& r) { return r.app_setup_s; });
    metrics["batch.parse_expand_s"] =
        all([](const Rep& r) { return r.parse_expand_s; });
    const bool batch = !traced.empty() && !traced[0].point_s.empty();
    if (batch) {
      // The batch runner builds its machines internally; time one 64-node
      // build from outside as the per-run cost.
      std::vector<double> b;
      for (int i = 0; i < 5; ++i) b.push_back(machine_build_seconds_64());
      metrics["core.machine_build_s"] = median(b);
      std::vector<double> p50, mx, busy;
      for (const Rep& t : traced) {
        p50.push_back(median(t.point_s));
        mx.push_back(*std::max_element(t.point_s.begin(), t.point_s.end()));
        busy.push_back(t.busy_ratio);
      }
      metrics["batch.point_s.p50"] = median(p50);
      metrics["batch.point_s.max"] = median(mx);
      metrics["batch.thread_busy_ratio"] = median(busy);
    } else {
      metrics["core.machine_build_s"] =
          all([](const Rep& r) { return r.machine_build_s; });
    }

    metrics["host.wall_s"] = median(collect(plain, wall));
    metrics["host.calib_s"] = all([](const Rep& r) { return r.calib_s; });
    // An exception can end the loop before any traced rep completed.
    const double n_traced = double(traced.size());
    metrics["trace_overhead_pct"] =
        traced.empty()
            ? 0.0
            : 100.0 * (median(collect(traced, wall_ref)) / plain_ref - 1.0);
    const auto self = rec.self_seconds_by_layer();
    for (const char* layer :
         {"bench", "core", "apps", "sim", "stats", "batch"}) {
      const auto it = self.find(layer);
      metrics[std::string("self_s.") + layer] =
          it == self.end() || traced.empty() ? 0.0 : it->second / n_traced;
    }
  }

  // ---- Report --------------------------------------------------------------
  for (const std::string& line : w->describe(p, ref)) {
    std::printf("# %s\n", line.c_str());
  }
  std::printf("# %zu untraced + %zu traced reps in %.1f s; median raw wall "
              "%.4f s, median calibration %.4f s (reference %.4f s)\n",
              plain.size(), traced.size(), elapsed(),
              median(collect(plain, wall)),
              median(collect(plain, [](const Rep& r) { return r.calib_s; })),
              kCalibReferenceS);
  const MetricDef* defs_begin =
      args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* defs_end =
      args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (auto it = defs_begin; it != defs_end; ++it) {
    std::printf("%-28s %-14s %s\n", it->name,
                num(metrics.at(it->name)).c_str(), it->unit);
  }
  std::printf("# error_rate %s (failed %llu / attempted %llu)\n",
              num(attempted ? double(failed) / double(attempted) : 0).c_str(),
              (unsigned long long)failed, (unsigned long long)attempted);
  std::map<std::string, int> seen;
  for (const auto& f : failures) {
    if (seen[f]++ == 0) std::printf("# FAILED: %s\n", f.c_str());
  }

  std::ostringstream js;
  js << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (auto it = defs_begin; it != defs_end; ++it) {
    js << (first ? "" : ", ") << '"' << it->name << "\": {\"value\": "
       << num(metrics.at(it->name)) << ", \"unit\": \"" << it->unit << "\"}";
    first = false;
  }
  js << "}}";

  // Stamped result file (and the trace) under the output directory.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + w->name + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-traced" : "");
  if (args.trace) {
    if (rec.write_chrome(stem + ".trace.json")) {
      std::printf("# spans: %s.trace.json (Chrome trace_event JSON)\n",
                  stem.c_str());
    }
  }
  {
    std::ofstream os(stem + ".json");
    os << "{\"stamp\": {\"workload\": \"" << w->name << "\", \"seed\": "
       << args.seed << ", \"trace\": " << int(args.trace) << ", \"size\": \""
       << (args.tiny ? "tiny" : "full") << "\", \"nproc\": " << nproc
       << ", \"build_type\": \"" << ALEWIFE_BENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << alewife::json::escape(__VERSION__)
       << "\", \"git_commit\": \"" << alewife::json::escape(args.git_commit)
       << "\", \"source_id\": \"" << alewife::json::escape(args.source_id)
       << "\", \"shards\": " << w->shards << "},\n \"result\": " << js.str()
       << "}\n";
  }
  std::printf("%s\n", js.str().c_str());
  return failed == 0 ? 0 : 1;
}

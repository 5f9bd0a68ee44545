#include "workloads.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <queue>
#include <stdexcept>

#include "apps/jacobi.hpp"
#include "apps/kvserve.hpp"
#include "batch/descriptor.hpp"
#include "batch/harness.hpp"
#include "batch/runner.hpp"
#include "core/machine.hpp"
#include "runtime/barrier.hpp"
#include "runtime/collective.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace alewife::benchmark {

namespace {

using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Keeps the calibration loop's result observable.
volatile std::uint64_t calibration_sink = 0;

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

/// Program counters every workload reports (zero where a layer is bypassed).
constexpr MetricId kLayerCounters[] = {
    MetricId::kNetPackets,           MetricId::kNetCoherencePackets,
    MetricId::kNetUserPackets,       MetricId::kNetLinkStallCycles,
    MetricId::kMemReadMisses,        MetricId::kMemWriteMisses,
    MetricId::kMemInvalidations,     MetricId::kMemHomeQueued,
    MetricId::kMemLimitlessTraps,    MetricId::kCmmuMessagesSent,
    MetricId::kCmmuMessagePayloadBytes, MetricId::kCollCmmuCombines,
    MetricId::kCollCmmuCombineCycles, MetricId::kProcInterrupts,
    MetricId::kProcInterruptCycles,  MetricId::kProcStolenCycles,
    MetricId::kRtStealAttempts,      MetricId::kRtSteals,
    MetricId::kRtInvokesMsg,         MetricId::kRtTasksRun,
    MetricId::kRtQueueFull,          MetricId::kBulkMsgPullBytes,
};

/// Fill the counter metrics from a name -> total lookup.
template <typename Get>
void put_counters(std::map<std::string, double>& sim, Get&& get) {
  for (const MetricId id : kLayerCounters) {
    const char* name = metric_info(id).name;
    sim[name] = double(get(name, id));
  }
  const double attempts = sim["rt.steal_attempts"];
  sim["rt.steal_ratio"] = attempts > 0 ? sim["rt.steals"] / attempts : 0.0;
  sim.erase("rt.steals");
}

void put_snapshot(std::map<std::string, double>& sim, const StatsSnapshot& d) {
  put_counters(sim, [&](const char*, MetricId id) { return d.get(id); });
}

/// Exact median of a sample vector (sorted in place).
double median(std::vector<std::uint32_t>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? double(v[n / 2]) : 0.5 * (double(v[n / 2 - 1]) + v[n / 2]);
}

// ---------------------------------------------------------------------------
// shm_stencil: Jacobi, shared-memory variant, 64 nodes, serial engine.
// ---------------------------------------------------------------------------

struct StencilSize {
  std::uint32_t grid, iters;
};
StencilSize stencil_size(const Params& p) {
  return p.tiny ? StencilSize{64, 2} : StencilSize{256, 10};
}

/// Seeded initial condition: a tilted plane, so every border moves.
std::function<double(std::uint32_t, std::uint32_t)> stencil_init(
    std::uint64_t seed) {
  const std::uint64_t h = mix(seed);
  const double a = 0.01 * (1.0 + double(h & 0xff) / 256.0);
  const double b = 0.02 * (1.0 + double((h >> 8) & 0xff) / 256.0);
  const double d = double((h >> 16) & 0xffff) / 65536.0;
  return [a, b, d](std::uint32_t r, std::uint32_t c) {
    return a * r - b * c + d;
  };
}

Rep run_shm_stencil(const Params& p, SpanRecorder& rec) {
  const StencilSize sz = stencil_size(p);
  const auto init = stencil_init(p.seed);
  MachineConfig cfg;
  cfg.nodes = 64;
  cfg.rng_seed = mix(p.seed);
  Rep out;

  auto t = Clock::now();
  std::unique_ptr<Machine> m;
  {
    Scope s(rec, "core.machine_build");
    m = std::make_unique<Machine>(cfg);
  }
  out.machine_build_s = seconds_since(t);

  t = Clock::now();
  apps::JacobiSetup setup;
  std::unique_ptr<CombiningBarrier> bar;
  std::vector<Cycles> cyc(m->nodes(), 0);
  {
    Scope s(rec, "apps.app_setup");
    setup = apps::jacobi_setup(*m, sz.grid);
    apps::jacobi_init(*m, setup, init);
    bar = std::make_unique<CombiningBarrier>(
        m->runtime(), CombiningBarrier::Mech::kShm, 2);
    for (NodeId n = 0; n < m->nodes(); ++n) {
      m->start_thread(n, [&, n](Context& ctx) {
        cyc[n] = apps::jacobi_node(ctx, setup, /*msg_variant=*/false, sz.iters,
                                   *bar, m->bulk());
      });
    }
  }
  out.app_setup_s = seconds_since(t);

  const StatsSnapshot before = m->stats().snapshot();
  const std::uint64_t ev0 = m->sim().events_executed();
  t = Clock::now();
  {
    Scope s(rec, "sim.run");
    m->run_started();
  }
  out.wall_s = seconds_since(t);
  out.events_wall_s = out.wall_s;

  {
    Scope s(rec, "stats.read");
    out.sim["sim_cycles"] = double(*std::max_element(cyc.begin(), cyc.end()));
    out.sim["sim.events"] = double(m->sim().events_executed() - ev0);
    put_snapshot(out.sim, m->stats().snapshot() - before);
  }
  {
    Scope s(rec, "bench.check");
    const auto got = apps::jacobi_extract(*m, setup, sz.iters);
    const auto want = apps::jacobi_reference(sz.grid, init, sz.iters);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!(std::fabs(got[i] - want[i]) <= 1e-12)) ++bad;
    }
    out.attempted += want.size();
    if (bad != 0) {
      out.fail("shm_stencil: " + std::to_string(bad) + " of " +
                   std::to_string(want.size()) +
                   " grid cells differ from apps::jacobi_reference",
               bad);
    }
  }
  return out;
}

std::vector<std::string> describe_shm_stencil(const Params& p, const Rep& r) {
  const StencilSize sz = stencil_size(p);
  return {
      fmt("inputs: 64 nodes, %.0fx%.0f grid, %.0f iterations, shared-memory "
          "variant, serial engine",
          sz.grid, sz.grid, sz.iters),
      "caches start empty: every rep builds a fresh machine, so the first "
      "sweep's misses are cold misses",
      fmt("grid == apps::jacobi_reference on %.0f cells; %.0f cycles/iteration",
          double(sz.grid) * sz.grid, r.sim.at("sim_cycles") / sz.iters)};
}

// ---------------------------------------------------------------------------
// msg_collectives: 1024-node msg barrier, then CMMU-combined allreduce, on
// the sharded engine.
// ---------------------------------------------------------------------------

struct CollSize {
  std::uint32_t nodes, episodes;
};
CollSize coll_size(const Params& p) {
  return p.tiny ? CollSize{64, 2} : CollSize{1024, 64};
}
constexpr std::uint32_t kCollShards = 4;

std::uint64_t contribution(std::uint64_t seed, NodeId n, std::uint32_t e) {
  return mix(seed ^ (std::uint64_t{n} << 20) ^ e) >> 16;
}

Rep run_msg_collectives(const Params& p, SpanRecorder& rec) {
  const CollSize sz = coll_size(p);
  MachineConfig cfg;
  cfg.nodes = sz.nodes;
  cfg.shards = p.shards != 0 ? p.shards : kCollShards;
  cfg.rng_seed = mix(p.seed);
  Rep out;

  auto t = Clock::now();
  std::unique_ptr<Machine> m;
  {
    Scope s(rec, "core.machine_build");
    m = std::make_unique<Machine>(cfg, bench::bench_opts());
  }
  out.machine_build_s = seconds_since(t);

  // Per-node result slots: node threads finish on different shard threads.
  struct NodeLog {
    std::vector<std::uint32_t> barrier, allreduce;
    std::uint64_t mismatches = 0;
  };
  std::vector<NodeLog> logs(sz.nodes);
  std::vector<std::uint64_t> expected(sz.episodes, 0);
  for (std::uint32_t e = 0; e < sz.episodes; ++e) {
    for (NodeId n = 0; n < sz.nodes; ++n) {
      expected[e] += contribution(p.seed, n, e);
    }
  }
  Cycles t_begin = 0, t_end = 0;

  t = Clock::now();
  std::unique_ptr<Communicator> bar, red;
  {
    Scope s(rec, "apps.app_setup");
    CollectiveConfig bc;
    bc.mech = CollMech::kMsg;
    bc.arity = 8;
    bar = std::make_unique<Communicator>(m->runtime(), bc);
    CollectiveConfig rc;
    rc.mech = CollMech::kMsg;
    rc.combining = Combining::kCmmu;
    red = std::make_unique<Communicator>(m->runtime(), rc);
    const bool spans = rec.enabled();
    for (NodeId n = 0; n < sz.nodes; ++n) {
      logs[n].barrier.reserve(sz.episodes);
      logs[n].allreduce.reserve(sz.episodes);
      m->start_thread(n, [&, n, spans](Context& ctx) {
        NodeLog& log = logs[n];
        if (n == 0) t_begin = ctx.now();
        for (std::uint32_t e = 0; e < sz.episodes; ++e) {
          const Cycles c0 = ctx.now();
          bar->barrier(ctx);
          log.barrier.push_back(static_cast<std::uint32_t>(ctx.now() - c0));
          if (spans && n == 0) rec.sim_span("coll.barrier", n, c0, ctx.now());
        }
        for (std::uint32_t e = 0; e < sz.episodes; ++e) {
          const Cycles c0 = ctx.now();
          const std::uint64_t got =
              red->allreduce(ctx, contribution(p.seed, n, e));
          log.allreduce.push_back(static_cast<std::uint32_t>(ctx.now() - c0));
          if (got != expected[e]) log.mismatches++;
          if (spans && n == 0) rec.sim_span("coll.allreduce", n, c0, ctx.now());
        }
        if (n == 0) t_end = ctx.now();
      });
    }
  }
  out.app_setup_s = seconds_since(t);

  const StatsSnapshot before = m->stats().snapshot();
  const std::uint64_t ev0 = m->sim().events_executed();
  const Cycles c0 = m->now();
  t = Clock::now();
  {
    Scope s(rec, "sim.run");
    m->run_started();
  }
  out.wall_s = seconds_since(t);
  out.events_wall_s = out.wall_s;

  {
    Scope s(rec, "stats.read");
    const double events = double(m->sim().events_executed() - ev0);
    const double windows =
        double(m->now() - c0) / double(m->sim().sharded()->lookahead());
    out.sim["sim_cycles"] = double(t_end - t_begin);
    out.sim["sim.events"] = events;
    out.sim["sim.events_per_window"] = windows > 0 ? events / windows : 0.0;
    put_snapshot(out.sim, m->stats().snapshot() - before);
    std::vector<std::uint32_t> b, a;
    std::uint64_t bad = 0;
    for (NodeLog& log : logs) {
      b.insert(b.end(), log.barrier.begin(), log.barrier.end());
      a.insert(a.end(), log.allreduce.begin(), log.allreduce.end());
      bad += log.mismatches;
    }
    out.sim["coll.barrier_cycles.p50"] = median(b);
    out.sim["coll.allreduce_cycles.p50"] = median(a);
    const std::uint64_t calls = std::uint64_t{sz.nodes} * sz.episodes;
    out.attempted += 2 * calls;
    if (b.size() != calls || a.size() != calls) {
      out.fail("msg_collectives: a node thread did not finish every episode");
    }
    if (bad != 0) {
      out.fail("msg_collectives: " + std::to_string(bad) +
                   " allreduce results differ from the host-computed sum",
               bad);
    }
  }
  return out;
}

std::vector<std::string> describe_msg_collectives(const Params& p,
                                                  const Rep& r) {
  const CollSize sz = coll_size(p);
  return {
      fmt("inputs: %.0f nodes on %.0f shards; %.0f msg barrier episodes "
          "(arity 8), then allreduce episodes with CMMU combining",
          sz.nodes, p.shards ? p.shards : kCollShards, sz.episodes),
      fmt("allreduce == host-computed sum on every node; barrier p50 %.0f, "
          "allreduce p50 %.0f cycles",
          r.sim.at("coll.barrier_cycles.p50"),
          r.sim.at("coll.allreduce_cycles.p50"))};
}

// ---------------------------------------------------------------------------
// kvserve_zipf: open-loop Zipf(0.99) KV service below the knee.
// ---------------------------------------------------------------------------

apps::KvServeConfig kv_config(const Params& p) {
  apps::KvServeConfig kc;
  kc.load = 16;  // req/kcycle, below the ~24 knee at 64 nodes
  kc.requests = p.tiny ? 1000 : 40000;
  return kc;
}

Rep run_kvserve_zipf(const Params& p, SpanRecorder& rec) {
  const apps::KvServeConfig kc = kv_config(p);
  MachineConfig cfg;
  cfg.nodes = p.tiny ? 16 : 64;
  cfg.rng_seed = mix(p.seed);
  Rep out;

  auto t = Clock::now();
  std::unique_ptr<Machine> m;
  {
    Scope s(rec, "core.machine_build");
    m = std::make_unique<Machine>(cfg);  // default runtime, like the kv sweep
  }
  out.machine_build_s = seconds_since(t);

  // kvserve_run places its own clients and allocates its own store, so the
  // app's set-up is inside the measured phase.
  const StatsSnapshot before = m->stats().snapshot();
  const std::uint64_t ev0 = m->sim().events_executed();
  t = Clock::now();
  apps::KvServeResult res;
  {
    Scope s(rec, "sim.run");
    res = apps::kvserve_run(*m, kc);
  }
  out.wall_s = seconds_since(t);
  out.events_wall_s = out.wall_s;

  {
    Scope s(rec, "stats.read");
    const Stats& st = m->stats();
    out.sim["sim_cycles"] = double(res.duration);
    out.sim["sim.events"] = double(m->sim().events_executed() - ev0);
    const StatsSnapshot d = st.snapshot() - before;
    put_snapshot(out.sim, d);
    out.sim["kv.p50_cycles"] = res.latency.percentile(0.50);
    out.sim["kv.p999_cycles"] = res.latency.percentile(0.999);
    out.sim["kv.goodput"] =
        res.duration ? double(res.completed) * 1000.0 / double(res.duration)
                     : 0.0;
    out.sim["kv.lat.get.p50"] = st.summary("kv.lat.get").percentile(0.50);
    out.sim["kv.lat.put.p50"] = st.summary("kv.lat.put").percentile(0.50);
    out.sim["kv.lat.scan.p50"] = st.summary("kv.lat.scan").percentile(0.50);
    out.sim["kv.queue_depth.p99"] =
        st.summary("kv.queue_depth").percentile(0.99);
    const double gets = double(d.get(MetricId::kKvGets));
    out.sim["kv.hot_hit_ratio"] =
        gets > 0 ? double(d.get(MetricId::kKvHotReads)) / gets : 0.0;
    out.sim["kv.samples"] = double(res.latency.count);
  }
  {
    Scope s(rec, "bench.check");
    out.attempted += kc.requests;
    if (res.completed + res.failed != kc.requests) {
      out.fail("kvserve_zipf: completed " + std::to_string(res.completed) +
               " + failed " + std::to_string(res.failed) + " != issued " +
               std::to_string(kc.requests));
    }
    if (res.failed != 0) {
      out.fail("kvserve_zipf: " + std::to_string(res.failed) +
                   " requests failed or were dropped",
               res.failed);
    }
  }
  return out;
}

std::vector<std::string> describe_kvserve_zipf(const Params& p, const Rep& r) {
  const apps::KvServeConfig kc = kv_config(p);
  return {
      fmt("inputs: %.0f nodes, serial engine, open loop at %.0f req/kcycle, "
          "%.0f requests, Zipf(0.99), 80/15/5 get/put/scan, 16 hot keys, "
          "1 migration, msg transport",
          p.tiny ? 16 : 64, kc.load, double(kc.requests)),
      fmt("latency from scheduled arrival: p50 %.0f, p999 %.0f cycles over "
          "%.0f samples",
          r.sim.at("kv.p50_cycles"), r.sim.at("kv.p999_cycles"),
          r.sim.at("kv.samples")),
      fmt("goodput %.3f req/kcycle; completed + failed == issued",
          r.sim.at("kv.goodput"))};
}

// ---------------------------------------------------------------------------
// paper_grid: the 16 paper anchors with absolute values at 64 nodes, fanned
// out by the batch runner.
// ---------------------------------------------------------------------------

constexpr double kClockMhz = 33.0;

enum class AnchorKind { kCycles, kMBps, kSpeedup };

struct Anchor {
  const char* label;
  const char* table;  ///< table in paper_anchors.json
  const char* col;
  double paper;  ///< EXPERIMENTS.md, "paper" column
  AnchorKind kind;
  double block = 0;  ///< copy block bytes (MB/s anchors)
};

// Paper values: EXPERIMENTS.md §4.2 (barrier), §4.3 (invoke), Figure 7
// (copy) and Figure 9 (grain).
using enum AnchorKind;
constexpr Anchor kAnchors[] = {
    {"barrier shm (cycles)", "barrier_shm", "cycles", 1650, kCycles},
    {"barrier msg (cycles)", "barrier_msg", "cycles", 660, kCycles},
    {"invoke shm T_invoker", "invoke_shm", "t_invoker", 353, kCycles},
    {"invoke shm T_invokee", "invoke_shm", "t_invokee", 805, kCycles},
    {"invoke msg T_invoker", "invoke_msg", "t_invoker", 17, kCycles},
    {"invoke msg T_invokee", "invoke_msg", "t_invokee", 244, kCycles},
    {"copy msg 256 B (MB/s)", "copy_msg_256", "cycles", 17.3, kMBps, 256},
    {"copy no-prefetch 256 B (MB/s)", "copy_noprefetch_256", "cycles", 11.7,
     kMBps, 256},
    {"copy prefetch 256 B (MB/s)", "copy_prefetch_256", "cycles", 7.3, kMBps,
     256},
    {"copy msg 4 KB (MB/s)", "copy_msg_4096", "cycles", 55.4, kMBps, 4096},
    {"copy no-prefetch 4 KB (MB/s)", "copy_noprefetch_4096", "cycles", 16.4,
     kMBps, 4096},
    {"copy prefetch 4 KB (MB/s)", "copy_prefetch_4096", "cycles", 8.6, kMBps,
     4096},
    {"grain l=0 shm speedup", "grain_shm_l0", "speedup", 6.3, kSpeedup},
    {"grain l=0 hybrid speedup", "grain_hybrid_l0", "speedup", 12.0, kSpeedup},
    {"grain l=1000 shm speedup", "grain_shm_l1000", "speedup", 36.4, kSpeedup},
    {"grain l=1000 hybrid speedup", "grain_hybrid_l1000", "speedup", 48.6,
     kSpeedup},
};

/// A table cell of the batch result (NaN when absent or "-").
double cell(const std::vector<batch::TableResult>& tables, const char* table,
            const char* col) {
  for (const auto& t : tables) {
    if (t.name != table || t.rows.size() != 1) continue;
    for (std::size_t c = 0; c < t.cols.size(); ++c) {
      if (t.cols[c] != col) continue;
      char* end = nullptr;
      const double v = std::strtod(t.rows[0][c].c_str(), &end);
      return end && *end == '\0' ? v : std::nan("");
    }
  }
  return std::nan("");
}

Rep run_paper_grid(const Params& p, SpanRecorder& rec) {
  Rep out;
  auto t = Clock::now();
  batch::BatchDescriptor desc;
  {
    Scope s(rec, "batch.parse_expand");
    desc = batch::load_descriptor(p.anchors);
    // Expand every row's config and runs up front: malformed grids fail
    // here, in set-up, rather than inside the fan-out.
    for (const auto& tab : desc.tables) {
      for (const double axis : tab.values(p.tiny)) {
        (void)tab.row_config(axis, p.tiny);
        for (const auto& [key, run] : tab.runs) (void)tab.row_run(key, p.tiny);
      }
    }
  }
  out.parse_expand_s = seconds_since(t);

  batch::RunnerOptions opt;
  opt.threads = p.threads;
  opt.fast = p.tiny;
  opt.quiet = true;
  std::vector<batch::TableResult> tables;
  std::vector<batch::PointResult> points;

  t = Clock::now();
  if (!rec.enabled()) {
    Scope s(rec, "batch.run");
    batch::BatchResult r = batch::run_batch(desc, opt);
    tables = std::move(r.tables);
    points = std::move(r.points);
  } else {
    // Traced: fan the same grid out element by element through the batch
    // runner's own fan-out engine, one span per element.
    Scope s(rec, "batch.run");
    const int parent = s.id();
    const std::size_t n = desc.tables.size() + desc.points.size();
    std::vector<batch::BatchResult> parts(n);
    out.point_s.assign(n, 0.0);
    batch::RunnerOptions one = opt;
    one.threads = 1;
    bench::run_indexed(
        n,
        [&](std::size_t i) {
          Scope ps(rec, "batch.point", parent);
          const auto t0 = Clock::now();
          batch::BatchDescriptor sub;
          sub.name = desc.name;
          if (i < desc.tables.size()) {
            sub.tables.push_back(desc.tables[i]);
          } else {
            sub.points.push_back(desc.points[i - desc.tables.size()]);
          }
          parts[i] = batch::run_batch(sub, one);
          out.point_s[i] = seconds_since(t0);
        },
        p.threads);
    for (auto& part : parts) {
      for (auto& tr : part.tables) tables.push_back(std::move(tr));
      for (auto& pr : part.points) points.push_back(std::move(pr));
    }
  }
  out.wall_s = seconds_since(t);
  if (!out.point_s.empty()) {
    double sum = 0;
    for (const double v : out.point_s) sum += v;
    out.busy_ratio = sum / (double(p.threads) * out.wall_s);
    // Only the expectation points report their events.
    for (std::size_t i = desc.tables.size(); i < out.point_s.size(); ++i) {
      out.events_wall_s += out.point_s[i];
    }
  }

  Scope s(rec, "bench.check");
  double err_sum = 0, cycles = 0;
  std::uint32_t found = 0;
  for (const Anchor& a : kAnchors) {
    const double v = cell(tables, a.table, a.col);
    out.attempted++;
    if (!(v > 0) || !std::isfinite(v)) {
      out.fail(std::string("paper_grid: anchor '") + a.label +
               "' missing or not positive");
      continue;
    }
    const double sim = a.kind == kMBps ? a.block / v * kClockMhz : v;
    out.sim[std::string("paper.anchor.") + a.table + "." + a.col] = sim;
    err_sum += std::fabs(sim - a.paper) / a.paper;
    found++;
    if (a.kind == kSpeedup) {
      cycles += cell(tables, a.table, "cycles");
    } else {
      cycles += v;
    }
  }
  out.sim["paper.err_pct"] = found ? 100.0 * err_sum / found : 0.0;
  out.sim["sim_cycles"] = cycles;

  // Program counters: the expectation points report theirs (tables report
  // measured values only).
  std::map<std::string, double> totals;
  double events = 0;
  for (const auto& pr : points) {
    out.attempted++;
    if (!pr.failure.empty()) out.fail("paper_grid: " + pr.failure);
    for (const auto& [name, v] : pr.counters) totals[name] += double(v);
    events += double(pr.events);
  }
  out.sim["sim.events"] = events;
  put_counters(out.sim, [&](const char* name, MetricId) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  });
  return out;
}

std::vector<std::string> describe_paper_grid(const Params& p, const Rep& r) {
  std::vector<std::string> lines;
  lines.push_back(fmt("inputs: 16 paper anchors at %.0f nodes + expectation "
                      "points, fanned out on %.0f batch threads; the seed "
                      "does not change them",
                      p.tiny ? 16 : 64, p.threads));
  for (const Anchor& a : kAnchors) {
    const auto it =
        r.sim.find(std::string("paper.anchor.") + a.table + "." + a.col);
    if (it == r.sim.end()) continue;
    lines.push_back(fmt("  %-8.1f paper %-8.1f err %5.1f%%", it->second,
                        a.paper,
                        100.0 * std::fabs(it->second - a.paper) / a.paper) +
                    "  " + a.label);
  }
  lines.push_back(fmt("paper.err_pct %.2f %% (mean |sim - paper| / paper). "
                      "The anchors were used to calibrate the cost model "
                      "(docs/CALIBRATION.md): this is a fit error, not a "
                      "validation error.",
                      r.sim.at("paper.err_pct")));
  return lines;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"shm_stencil",
       "memory layer and coherence traffic do the work; cmmu, proc and "
       "runtime are nearly idle",
       0, run_shm_stencil, describe_shm_stencil},
      {"msg_collectives",
       "sharded engine, cmmu combining, proc interrupts and user packets do "
       "the work; no cache misses",
       kCollShards, run_msg_collectives, describe_msg_collectives},
      {"kvserve_zipf",
       "runtime invoke/steal/queueing, bulk scans and migration, link "
       "contention and LimitLESS traps on a hot replica",
       0, run_kvserve_zipf, describe_kvserve_zipf},
      {"paper_grid",
       "the reproduce-the-paper path: batch fan-out of many short simulations "
       "and machine builds",
       0, run_paper_grid, describe_paper_grid},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double kernel_ns_per_event(std::uint64_t events) {
  struct Tick {
    Simulator* sim;
    std::uint64_t* left;
    std::uint32_t lane;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      // A mix of zero-delay (FIFO ring) and short-delay (wheel) events.
      sim->schedule((lane * 7 + *left) % 13, *this);
    }
  };
  Simulator sim;
  std::uint64_t left = events;
  for (std::uint32_t lane = 0; lane < 64; ++lane) {
    sim.schedule(lane % 5, Tick{&sim, &left, lane});
  }
  const auto t0 = Clock::now();
  sim.run();
  const double s = seconds_since(t0);
  return s * 1e9 / double(sim.events_executed());
}

double calibration_seconds() {
  // A small discrete-event loop that belongs to the benchmark, not to the
  // program: a binary-heap event queue driving scattered read-modify-writes
  // over 1 MiB of state. Its time tracks the host's speed for simulator-like
  // code (CPU share and cache/memory latency), so dividing a repetition's
  // wall time by it cancels most of the drift a shared host adds. The state
  // is mapped outside malloc and unmapped again, so the simulator's heap is
  // untouched and peak RSS grows by at most 1 MiB.
  constexpr std::size_t kBytes = 1u << 20;
  constexpr std::uint32_t kSlots = kBytes / sizeof(std::uint64_t);
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("calibration: mmap failed");
  auto* state = static_cast<std::uint64_t*>(mem);
  for (std::uint32_t i = 0; i < kSlots; ++i) state[i] = i;

  struct Event {
    std::uint64_t when;
    std::uint32_t slot;
    bool operator<(const Event& o) const { return when > o.when; }
  };
  std::priority_queue<Event> queue;
  std::uint64_t h = 1;
  for (int i = 0; i < 4096; ++i) {
    h = mix(h);
    queue.push({h % 1024, static_cast<std::uint32_t>(h % kSlots)});
  }
  const auto t0 = Clock::now();
  for (int i = 0; i < 600000; ++i) {
    const Event e = queue.top();
    queue.pop();
    state[e.slot] += e.when;
    h = mix(h ^ state[e.slot]);
    queue.push({e.when + 1 + h % 64, static_cast<std::uint32_t>(h % kSlots)});
  }
  const double s = seconds_since(t0);
  calibration_sink = h;
  munmap(mem, kBytes);
  return s;
}

double machine_build_seconds_64() {
  MachineConfig cfg;
  cfg.nodes = 64;
  const auto t0 = Clock::now();
  Machine m(cfg);
  return seconds_since(t0);
}

}  // namespace alewife::benchmark

#!/usr/bin/env python3
"""Smoke test for the repository benchmark.

    python3 benchmark/smoke_test.py

Runs every workload at tiny size (untraced and traced) through run.py, from
the repository root, and asserts that:
  * each run passes its own output checks (exit 0, "correct": true);
  * every metric in BENCHMARK.json is printed exactly once, with its unit,
    under the same name, in both the JSON result and the text report;
  * simulated metrics repeat exactly for the same seed;
  * kvserve_zipf's simulated metrics change under the held-out seed.
Exits 0 when every assertion holds.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 1
OTHER_SEED = 2

# Host-clock metrics; every other metric is simulated and must repeat.
HOST = {"setup_s", "wall_ref_s", "peak_rss_mb", "sim.host_ns_per_event",
        "sim.kernel_ns_per_event", "sim.shard_speedup", "core.machine_build_s",
        "core.app_setup_s", "batch.parse_expand_s", "batch.point_s.p50",
        "batch.point_s.max", "batch.thread_busy_ratio", "trace_overhead_pct",
        "host.wall_s", "host.calib_s"}


def is_host(name):
    return name in HOST or name.startswith("self_s.")


def run(workload, trace, seed):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--size", "tiny", "--seconds", "0.5", "--trace", str(trace),
           "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n"
                 f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    for w in [w["name"] for w in spec["workloads"]]:
        sims = []
        for trace in (0, 1, 1):
            res, report = run(w, trace, SEED)
            tag = f"{w} trace={trace}"
            expect(res["correct"] and res["failed"] == 0, f"{tag}: not correct")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            diff = sorted(set(got.items()) ^ set(want[trace].items()))
            expect(not diff, f"{tag}: metrics differ from BENCHMARK.json: "
                   f"{diff}")
            for name, unit in want[trace].items():
                rows = [l for l in report if l.split()[:1] == [name]]
                expect(len(rows) == 1 and rows[0].split()[-1] == unit,
                       f"{tag}: report prints '{name}' {len(rows)} times")
            sims.append({k: v["value"] for k, v in res["metrics"].items()
                         if not is_host(k)})
        # Traced runs carry every simulated layer metric; compare two.
        expect(sims[1] == sims[2], f"{w}: simulated metrics differ between "
               f"equal-seed runs")
        if w == "kvserve_zipf":
            other, _ = run(w, 1, OTHER_SEED)
            changed = {k for k, v in other["metrics"].items()
                       if not is_host(k) and v["value"] != sims[1][k]}
            expect({"kv.p50_cycles", "kv.p999_cycles"} & changed,
                   f"{w}: seed {OTHER_SEED} did not change kv latencies")
        print(f"ok {w}", flush=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

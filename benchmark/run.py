#!/usr/bin/env python3
"""Build and run the repository benchmark (see benchmark/README.md).

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Run from the repository root. The first call configures and builds
alewife_bench (benchmark/CMakeLists.txt, which compiles ../src) under
.bench_build/; later calls rebuild incrementally. Build output goes to
stderr; alewife_bench's report goes to stdout and its last line is the JSON
result. Exits with alewife_bench's status (0 only when every output check
passed), or 1 when the build fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "alewife-bench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "alewife_bench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "alewife_bench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_id():
    """Content hash of the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    if not (ROOT / "src").is_dir():
        print("run.py: no src/ next to benchmark/: nothing to build",
              file=sys.stderr)
        return 1
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size,
           "--anchors", str(BENCH_DIR / "paper_anchors.json"),
           "--out-dir", str(OUT_DIR),
           "--git-commit", git_commit(), "--source-id", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: alewife_bench exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload exchange|stream|iterate|recover \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build); spans, work directories and results.jsonl go to .perfbench_out. The
benchmark's own output is passed through; the last line is the result object. Before
it, a "fingerprint:" line names the machine and the build, and the run is appended with
that fingerprint to .perfbench_out/results.jsonl (perfbench/compare.py reads it).
Exits non-zero, without a result line, if the build fails, the run times out, or the
metrics do not match BENCHMARK.json; exits non-zero with the result line if any output
was wrong.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    bdir = build_dir()
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if not (bdir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for step in (cmd, ["cmake", "--build", str(bdir), "-j", jobs]):
        res = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return None
    exe = bdir / "naiad_perfbench"
    return exe if exe.exists() else None


def source_sha():
    """The git commit when there is one, else a hash of every source file."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=10)
            return "git:" + res.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": BUILD_TYPE,
        "source": source_sha(),
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    fp = fingerprint()
    print("fingerprint: " + json.dumps(fp), flush=True)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT_DIR)]
    # A session of its own, so a hung run is stopped with every process it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray members of a failed recover run
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"perfbench: no result line (exit code {proc.returncode})")
        return 1
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        log(f"perfbench: result does not match BENCHMARK.json: got {sorted(got.items())}, "
            f"want {sorted(want.items())}")
        return 1
    record = {"time": time.time(), "fingerprint": fp, "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "result": result}
    with open(OUT_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

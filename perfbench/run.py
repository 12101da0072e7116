#!/usr/bin/env python3
"""Builds and runs the data-parallel step benchmark.

One run (run from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the library and the benchmark from source into .bench_build/perfbench
(incrementally after the first time), runs the workload and passes its output
through. The last line of standard output is the result JSON object; the exit
code is non-zero when the build fails, a correctness check fails, or the
environment sets any ADASUM_* variable.

Repeat mode, to measure run-to-run spread and set bounds:

    python3 perfbench/run.py --workload <name> --repeat 10 --seconds <s> --trace 0

runs seeds --seed .. --seed+N-1 (or N times the same seed with --same-seed)
and prints, per metric, the median, the quartiles (statistics.quantiles, n=4),
the quartile spread as a share of the median and the largest relative
deviation from the median. With --same-seed it also fails unless every count
and the final loss repeat exactly.

    python3 perfbench/run.py --selftest    # the benchmark's own unit tests
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"

# Per-layer metrics that are exact counts (or deterministic values): with
# the same seed they must repeat bit for bit.
EXACT = [
    "optim.heap_allocs_per_step",
    "optim.skipped_rounds",
    "optim.degraded_rounds",
    "collectives.calls_per_step",
    "comm.bytes_per_step",
    "comm.messages_per_step",
    "comm.pool_allocs_per_step",
    "tensor.compress.wire_ratio",
    "nn.final_loss",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_environment():
    bad = sorted(k for k in os.environ if k.startswith("ADASUM_"))
    if bad:
        fail("refusing to run with " + ", ".join(bad) + " set; configuration "
             "goes through the World and DistributedOptions API only")


def run_quiet(cmd):
    # Build chatter goes to stderr so the result stays the last stdout line.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("command failed: " + " ".join(str(c) for c in cmd), 1)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs, "--target", target])
    return BUILD / target


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def bench_cmd(binary, workload, seed, seconds, trace, provenance):
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", str(OUT), "--git-rev", provenance[0],
            "--source-digest", provenance[1]]


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def spread_table(results):
    names = list(results[0]["metrics"].keys())
    rows = []
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        rel = (q3 - q1) / med if med else 0.0
        dev = max(abs(v - med) for v in vals) / med if med else 0.0
        rows.append((name, unit, med, q1, q3, rel, dev))
    return rows


def repeat(args, binary, provenance):
    results = []
    for i in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + i
        proc = subprocess.run(
            bench_cmd(binary, args.workload, seed, args.seconds, args.trace,
                      provenance),
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        res = result_of(proc.stdout)
        if proc.returncode != 0 or res is None or not res["correct"]:
            sys.stdout.write(proc.stdout)
            fail(f"run with seed {seed} failed", 1)
        results.append(res)
        print(f"run {i + 1}/{args.repeat} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
            file=sys.stderr)
    seeds = (f"seed {args.seed} x{args.repeat}" if args.same_seed else
             f"seeds {args.seed}..{args.seed + args.repeat - 1}")
    print(f"### {args.workload}, trace {args.trace}, {args.seconds} s, {seeds}\n")
    print("| metric | unit | median | q1 | q3 | (q3-q1)/median | max dev |")
    print("|---|---|---|---|---|---|---|")
    for name, unit, med, q1, q3, rel, dev in spread_table(results):
        print(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
              f"{100 * rel:.2f}% | {100 * dev:.2f}% |")
    if args.same_seed:
        changed = [n for n in EXACT if n in results[0]["metrics"] and
                   len({r["metrics"][n]["value"] for r in results}) != 1]
        print("\nexact repeats: " + ("all counts identical" if not changed
                                     else "DIFFER: " + ", ".join(changed)))
        if changed:
            return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    check_environment()

    if args.selftest:
        binary = build("perfbench_test")
        return subprocess.run([str(binary)], cwd=ROOT).returncode
    if not args.workload:
        ap.error("--workload is required")
    binary = build("perfbench")
    provenance = (git_rev(), source_digest())
    if args.repeat > 0:
        return repeat(args, binary, provenance)
    seconds = int(args.seconds) if float(args.seconds).is_integer() else args.seconds
    proc = subprocess.run(bench_cmd(binary, args.workload, args.seed, seconds,
                                    args.trace, provenance), cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

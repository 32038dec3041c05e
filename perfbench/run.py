#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the benchmark binary from the checkout's sources (into .bench_build/),
runs one workload for a time budget and prints, as the last line of standard
output, one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload figs_titan --seed 3 --seconds 20 --trace 0
  python3 perfbench/run.py --workload real_loop --seed 3 --seconds 20 --trace 1
  python3 perfbench/run.py --repeat 10 --workload all --seed 1 --seconds 20
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record --workload all

--repeat N   steadiness mode: N runs with seeds seed..seed+N-1 per workload;
             prints median and quartiles of every end-to-end metric and flags
             each whose quartile spread exceeds its bound in BENCHMARK.json.
--selftest   checks of the benchmark's own arithmetic.
--record     rewrites perfbench/references.txt (the output checks' reference
             values) for every input variant; only when outputs change on
             purpose.

Traced runs also write .bench_out/<workload>-seed<N>.trace.json (Chrome
trace-event JSON; open it in Perfetto) and .layers.json (per-span calls,
total and self seconds). See README.md for the workloads and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.txt"
WORKLOADS = ("figs_titan", "policy_sweep", "real_loop")
VARIANTS = 16  # must match kVariants in workloads.hpp
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def jobs():
    """Parallel build jobs and parallel --record runs."""
    return min(4, os.cpu_count() or 1)


def build():
    """Configure (once) and build the benchmark; exits 2 when it cannot."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the repository sources (src/) are not in this checkout")
        sys.exit(2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs())])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(2)


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns its stdout lines (exits on failure)."""
    cmd = [str(BUILD / "perfbench")] + [str(a) for a in args]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out:", " ".join(cmd))
        sys.exit(3)
    if result.returncode != 0:
        log("perfbench: exit code", result.returncode, "from", " ".join(cmd))
        sys.exit(result.returncode)
    return result.stdout.splitlines()


def measure(workload, seed, seconds, trace):
    lines = run_binary(["--workload", workload, "--seed", seed, "--seconds", seconds,
                        "--trace", trace, "--references", REFERENCES, "--out-dir", OUT])
    if not lines:
        log("perfbench: no result from", workload)
        sys.exit(3)
    return json.loads(lines[-1]), lines[-1]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def check_names(result, trace):
    """The binary must report exactly the metrics BENCHMARK.json names."""
    want = set(expected_metrics(trace))
    got = set(result["metrics"])
    if want != got:
        log("perfbench: metric names differ from BENCHMARK.json; missing",
            sorted(want - got), "unexpected", sorted(got - want))
        sys.exit(3)


def steadiness(workloads, seed, seconds, repeat):
    """Repeats each workload over `repeat` seeds; flags spreads over bound."""
    bounds = expected_metrics(False)
    over = []
    for workload in workloads:
        runs = [measure(workload, str(seed + i), seconds, "0")[0] for i in range(repeat)]
        print(f"\n{workload}: {repeat} runs, seeds {seed}..{seed + repeat - 1}, "
              f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)}"
              f" operations, all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > spec["bound"]:
                flag = "  OVER BOUND"
                over.append(f"{workload}/{name}")
            elif spread > spec["bound"] / 3:
                flag = "  over a third of bound"
            print(f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.2%}"
                  f"{spec['bound']:>8.0%}{flag}")
    print("\nsteadiness:", "OK" if not over else "spread over bound: " + ", ".join(over))
    return 0 if not over else 1


def record(workloads):
    """Rewrites the reference table for `workloads`, keeping other lines."""
    keep = []
    if REFERENCES.is_file():
        keep = [l for l in REFERENCES.read_text().splitlines()
                if l and not l.startswith("#") and l.split()[0] not in workloads]
    tasks = [(w, v) for w in workloads for v in range(VARIANTS)]

    def one(task):
        w, v = task
        return run_binary(["--workload", w, "--seed", v, "--record"], timeout=900)

    with ThreadPoolExecutor(max_workers=jobs()) as pool:
        lines = [l for out in pool.map(one, tasks) for l in out]
    header = ["# Reference outputs of the benchmark's checks: <workload> <variant> <key> "
              "<value>.", "# Regenerate with: python3 perfbench/run.py --record --workload all"]
    body = sorted(keep + lines, key=lambda l: (l.split()[0], int(l.split()[1])))
    REFERENCES.write_text("\n".join(header + body) + "\n")
    log(f"perfbench: wrote {len(lines)} reference values to {REFERENCES}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record", action="store_true")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    workloads = WORKLOADS if a.workload == "all" else (a.workload,)

    build()
    if a.selftest:
        return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
    if a.record:
        record(workloads)
        return 0
    if a.repeat:
        return steadiness(workloads, a.seed, a.seconds, a.repeat)
    if len(workloads) != 1:
        p.error("a measuring run takes one --workload")
    result, line = measure(workloads[0], str(a.seed), str(a.seconds), a.trace)
    check_names(result, a.trace == "1")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

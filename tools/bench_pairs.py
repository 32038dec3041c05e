#!/usr/bin/env python3
"""Interleaved benchmark pairs of two checkouts of this repository.

  tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S

Pair i runs `python3 perfbench/run.py --workload W --seed i --seconds S
--trace 0` once in each checkout: the parent first when i is even, the change
first when i is odd, so neither side always runs on a warmer or quieter host.
Each checkout builds its own benchmark on its first run. Prints one JSON
object: for every end-to-end metric that BENCHMARK.json (read from
CHANGE_DIR) names, the parent and change medians and quartiles, how many
pairs each side won, and every raw pair; then every run's outcome.

Uses the standard library only. Timing needs a quiet host; shared CI runners
are not one.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`; returns its result JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stderr)
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed in {checkout} "
                 f"(exit code {result.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value is its own."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summary(spec, pairs):
    """Medians, quartiles and wins of one metric over (parent, change) pairs."""
    lower = spec["better"] == "lower"
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
    for side, column in zip(SIDES, zip(*pairs)):
        q1, med, q3 = quartiles(list(column))
        out[side] = {"median": med, "q1": q1, "q3": q3}
    parent, change = out["parent"]["median"], out["change"]["median"]
    out["median_change_frac"] = (change - parent) / parent if parent else None
    out["change_wins"] = sum(1 for p, c in pairs if (c < p if lower else c > p))
    out["parent_wins"] = sum(1 for p, c in pairs if (p < c if lower else p > c))
    out["pairs"] = [list(pair) for pair in pairs]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} directory {checkout} has no perfbench/run.py")
    specs = json.loads((args.change_dir / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    values = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, i, args.seconds)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            values[side].append(metrics)
            runs.append({"pair": i, "seed": i, "side": side, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": metrics})
        print(f"pair {i}: " + ", ".join(
            f"{m['name']} {values['parent'][-1][m['name']]:.4g} -> "
            f"{values['change'][-1][m['name']]:.4g}" for m in specs), file=sys.stderr)

    report = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "protocol": "pair i: perfbench/run.py --workload W --seed i --seconds S --trace 0 "
                    "once per checkout, the parent first when i is even and the change first "
                    "when i is odd; quartiles use the inclusive method",
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
        "metrics": {
            spec["name"]: summary(spec, [(p[spec["name"]], c[spec["name"]])
                                         for p, c in zip(values["parent"], values["change"])])
            for spec in specs
        },
        "runs": runs,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Interleaved benchmark pairs of two checkouts of this repository.

  tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S
                       [--first-seed S0] [--claim METRIC]

Pair i runs `python3 perfbench/run.py --workload W --seed S0+i --seconds S
--trace 0` once in each checkout: the parent first when i is even, the change
first when i is odd, so neither side always runs on a warmer or quieter host.
Seeds start at --first-seed (default 0), so a claim can be re-run on seeds
not used while the change was written. Each checkout builds its own
benchmark on its first run. Prints one JSON object: for every end-to-end
metric that BENCHMARK.json (read from CHANGE_DIR) names, the parent and
change medians and quartiles, how many pairs each side won, and every raw
pair; then every run's outcome.

--claim METRIC adds a "verdict" object and makes the exit status 1 unless
the claim holds: the change wins at least 9 of every 10 pairs on METRIC, its
median is better than the parent's by more than the parent's quartile
spread, no other end-to-end metric's median is worse than the parent's by
more than its BENCHMARK.json bound, and every run is correct with 0 failed.

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


def verdict(claim, metrics, all_correct):
    """Whether the gain claimed on metric `claim` holds over `metrics` (as in
    the report: name -> summary()). Returns {"metric", "passed", "checks"},
    one check per condition, each with its own "passed"."""
    m = metrics[claim]
    lower = m["better"] == "lower"
    pairs = len(m["pairs"])
    parent, change = m["parent"]["median"], m["change"]["median"]
    gain = parent - change if lower else change - parent
    spread = m["parent"]["q3"] - m["parent"]["q1"]
    checks = [
        {"check": "wins", "passed": 10 * m["change_wins"] >= 9 * pairs,
         "detail": f"change won {m['change_wins']} of {pairs} pairs (needs 9 of 10)"},
        {"check": "gap", "passed": gain > spread,
         "detail": f"median gain {gain:.6g} {m['unit']} against the parent's quartile "
                   f"spread {spread:.6g}"},
    ]
    for name, other in metrics.items():
        if name == claim:
            continue
        base = other["parent"]["median"]
        worse = other["change"]["median"] - base
        if other["better"] != "lower":
            worse = -worse
        frac = worse / abs(base) if base else (0.0 if worse <= 0 else float("inf"))
        checks.append({"check": f"bound {name}", "passed": frac <= other["bound"],
                       "detail": f"median {'worse' if frac > 0 else 'better'} by "
                                 f"{abs(frac):.2%} (bound {other['bound']:.0%})"})
    checks.append({"check": "correct", "passed": bool(all_correct),
                   "detail": "every run correct with 0 failed" if all_correct
                   else "a run was incorrect or had failed operations"})
    return {"metric": claim, "passed": all(c["passed"] for c in checks), "checks": checks}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--claim", metavar="METRIC")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.first_seed < 0:
        parser.error("--first-seed must be at least 0")
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} directory {checkout} has no perfbench/run.py")
    specs = json.loads((args.change_dir / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim is not None and args.claim not in {spec["name"] for spec in specs}:
        parser.error(f"--claim {args.claim} is not an end-to-end metric of BENCHMARK.json")

    runs = []
    values = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, args.seconds)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            values[side].append(metrics)
            runs.append({"pair": i, "seed": seed, "side": side, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": metrics})
        print(f"pair {i}: " + ", ".join(
            f"{m['name']} {values['parent'][-1][m['name']]:.4g} -> "
            f"{values['change'][-1][m['name']]:.4g}" for m in specs), file=sys.stderr)

    report = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "first_seed": args.first_seed,
        "protocol": "pair i: perfbench/run.py --workload W --seed first_seed+i --seconds S "
                    "--trace 0 once per checkout, the parent first when i is even and the "
                    "change first when i is odd; quartiles use the inclusive method",
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
        "metrics": {
            spec["name"]: summary(spec, [(p[spec["name"]], c[spec["name"]])
                                         for p, c in zip(values["parent"], values["change"])])
            for spec in specs
        },
        "runs": runs,
    }
    if args.claim is not None:
        report["verdict"] = verdict(args.claim, report["metrics"], report["all_correct"])
    print(json.dumps(report, indent=1))
    return 0 if args.claim is None or report["verdict"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())

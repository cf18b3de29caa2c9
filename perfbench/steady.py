"""Steadiness mode: repeat one workload with k seeds and print each metric's
median, quartiles and spread (quartile distance over median).

    python3 perfbench/steady.py --workload W --runs 10 [--save FILE] [--against FILE]

Each run is a separate untraced ``run.py`` process of ``run_seconds`` of
BENCHMARK.json, with seeds 0, 1, ..., runs - 1. For every end-to-end metric
the spread is compared with the metric's bound there; ``--against`` compares
the medians with an earlier ``--save`` of the same workload, which is how two
sets of runs of the same code are checked to agree within the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", help="write the summary as JSON")
    parser.add_argument("--against", help="earlier summary to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs needs at least 2 for quartiles")

    results, failed = [], 0
    seconds = spec["run_seconds"]
    for seed in range(args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
               for name in results[0]["metrics"]}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["metrics"] if args.against else {}
    steady = True
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, s in metrics.items():
        bound = bounds[name]["bound"]
        line = (f"{name:40} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                f"{s['spread']:8.4f} {bound:>6}")
        if s["spread"] > bound:
            line += "  SPREAD ABOVE BOUND"
            steady = False
        if name in earlier:
            before = earlier[name]["median"]
            worse = (s["median"] - before) / before
            if bounds[name]["better"] == "higher":
                worse = -worse
            line += f"  vs earlier {worse:+.4f}"
            if worse > bound:
                line += " WORSE THAN BOUND"
                steady = False
        print(line)
    summary = {"workload": args.workload, "runs": args.runs, "seconds": seconds,
               "failed": failed, "steady": steady, "metrics": metrics}
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps({k: v for k, v in summary.items() if k != "metrics"}))
    return 0 if steady and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

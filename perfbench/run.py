"""liefields benchmark: one workload, measured in cold processes.

    python3 perfbench/run.py --workload catalog|symbolic|trajectories
        --seed N --seconds S --trace 0|1 [--limit K]

One closed-loop client, no threads: each process starts only after the
previous one has exited. For ``--seconds`` seconds it spawns full workload
processes (with ``--trace 1``: an untraced and a traced one in turn) and,
after each, a few processes that only set up. Before the timed loop it warms
the bytecode cache and, for ``catalog``, records the reference report of one
full ``catalog verify`` at the same seed.

The last line of stdout is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics untraced and the per-layer metrics
traced. The line before it gives the run context and the details behind the
metrics (tail percentile, sample counts, failed fraction, first failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# metric names and units, end to end (untraced) and per layer (traced)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUPS_PER_ROUND = 3
CHILD_TIMEOUT_S = 150
# one thread per process: the benchmark measures a single closed-loop client
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class ChildFailed(Exception):
    pass


def spawn(args: list, out: Path, env: dict) -> tuple:
    """Run one child to completion; return (spawn time, exit time, result)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--out", str(out)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(args)}: no exit within {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    t1 = time.monotonic()
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n{err.decode(errors='replace')}")
    result = json.loads(out.read_text(encoding="utf-8")) if out.suffix == ".json" else None
    return t0, t1, result


def tail_rank(n: int) -> int:
    """0-based rank of the highest percentile with at least ten items beyond
    it (the maximum when there are fewer than eleven items)."""
    return max(n - 11, 0) if n > 10 else n - 1


def child_metrics(t0: float, t1: float, r: dict) -> dict:
    items = sorted(r["item_s"])
    return {
        "wall_s": t1 - t0,
        "setup_s": r["setup_end"] - t0,
        "checks_per_s": r["checks"] / (r["work_end"] - r["setup_end"]),
        "item_p50_ms": 1000 * statistics.median(items),
        "item_tail_ms": 1000 * items[tail_rank(len(items))],
        "peak_rss_mb": r["maxrss_kb"] / 1024,
    }


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    # the ceiling keeps git from taking up a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="shorten each workload to its first K items (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liefields" / "__init__.py").is_file():
        print(f"error: no liefields sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = {**os.environ, **CHILD_ENV}
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.limit is not None:
        common += ["--limit", str(args.limit)]
    try:
        return measure(args, env, tag, common)
    except ChildFailed as err:
        print(f"error: benchmark process failed: {err}", file=sys.stderr)
        return 1
    finally:
        for path in OUT.glob(f"*{tag}*"):
            path.unlink()


def measure(args, env: dict, tag: str, common: list) -> int:
    if args.workload == "catalog":
        ref = OUT / f"reference-{tag}.txt"
        spawn(common + ["--mode", "reference"], ref, env)
        common = common + ["--reference", str(ref)]
    _, _, warm = spawn(common + ["--mode", "setup"], OUT / f"warm-{tag}.json", env)

    samples, setups, traced, outcomes = [], [], [], []
    deadline = time.monotonic() + args.seconds
    while True:
        t0, t1, r = spawn(common + ["--mode", "full"], OUT / f"full-{tag}.json", env)
        samples.append(child_metrics(t0, t1, r))
        setups.append(samples[-1]["setup_s"])
        outcomes.append(r)
        if args.trace:
            out = OUT / f"traced-{tag}.json"
            s0, s1, tr = spawn(common + ["--mode", "full", "--trace", "1"], out, env)
            spans = json.loads(Path(str(out) + ".spans").read_text(encoding="utf-8"))
            layers = layertrace.layer_metrics(spans)
            layers["trace.overhead_s"] = (s1 - s0) - (t1 - t0)
            traced.append(layers)
            outcomes.append(tr)
        else:
            for _ in range(SETUPS_PER_ROUND):
                s0, _, sr = spawn(common + ["--mode", "setup"], OUT / f"setup-{tag}.json", env)
                setups.append(sr["setup_end"] - s0)
        if time.monotonic() >= deadline:
            break

    if args.trace:
        metrics = {m["name"]: {"value": statistics.median(t[m["name"]] for t in traced),
                               "unit": m["unit"]} for m in SPEC["per_layer"]}
    else:
        metrics = {m["name"]: {"value": statistics.median(s[m["name"]] for s in samples),
                               "unit": m["unit"]} for m in SPEC["end_to_end"]}
        metrics["setup_s"]["value"] = statistics.median(setups)
    checks = sum(o["checks"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    items = len(r["item_s"])
    detail = {
        "context": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": warm["python"],
            "numpy": warm["numpy"],
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_sha": git_sha(),
        },
        "processes": len(samples) + len(traced),
        "setup_samples": len(setups),
        "items_per_process": items,
        "item_tail_percentile": round(100 * (tail_rank(items) + 1) / items, 1),
        "item_tail_ms": statistics.median(s["item_tail_ms"] for s in samples),
        "wall_s_per_process": [s["wall_s"] for s in samples],
        "failed_frac": failed / checks if checks else 1.0,
        "failures": [f for o in outcomes for f in o["failures"]][:10],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": checks, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

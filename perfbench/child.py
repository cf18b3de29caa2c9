"""One cold benchmark process: set up one workload, run its items in order,
and write timings, check outcomes and (traced) spans to a JSON file.

    python3 perfbench/child.py --workload W --seed N --out FILE
        [--mode full|setup|reference] [--trace 0|1] [--reference FILE] [--limit K]

Timestamps are ``time.monotonic()``, the clock the parent uses, so the parent
can measure set-up from the moment it spawned this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=["full", "setup", "reference"], default="full")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference", help="catalog reference report")
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)

    if args.mode == "reference":
        Path(args.out).write_text(W.catalog_reference(args.seed), encoding="utf-8")
        return 0

    import liefields

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(liefields)

    if args.workload == "catalog":
        reference = Path(args.reference).read_text(encoding="utf-8")
        items = W.catalog_items(args.seed, reference, args.limit)
    elif args.workload == "symbolic":
        items = W.symbolic_items(W.load_fixtures(args.limit), args.seed)
    else:
        items = W.trajectory_items(args.seed, args.limit)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}
    if args.mode == "full":
        timings, failures = [], []
        checks = failed = 0
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.item = k
            start = time.monotonic()
            outcome = W.run_item(item)
            timings.append(time.monotonic() - start)
            checks += len(outcome)
            bad = [(name, detail) for name, ok, detail in outcome if not ok]
            failed += len(bad)
            failures.extend(bad)
        result.update({
            "work_end": time.monotonic(),
            "item_s": timings,
            "checks": checks,
            "failed": failed,
            "failures": failures[:20],
        })
        if tracer is not None:
            tracer.item = -1
            tracer.dump(args.out + ".spans")
    import numpy

    result.update({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.SPEC["end_to_end" if trace == 0 else "per_layer"]
    units = {m["name"]: m["unit"] for m in expected}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert detail["context"]["workload"] == workload and detail["failed_frac"] == 0.0
    if trace and workload == "symbolic":
        assert result["metrics"]["flows.self_s"]["value"] == 0.0
        assert result["metrics"]["expr.self_s"]["value"] > 0.0


def test_wrong_expectation_is_counted_not_raised():
    fixture = next(fx for fx in W.load_fixtures() if fx.id == "thm37-1")
    wrong = dict(fixture.algfile.expectations, pair_invariant_count=5, no_such_claim=True)
    fixture = dataclasses.replace(
        fixture, algfile=dataclasses.replace(fixture.algfile, expectations=wrong))
    checks = [c for item in W.symbolic_items([fixture], seed=0) for c in W.run_item(item)]
    failed = {name for name, ok, _ in checks if not ok}
    assert failed == {"thm37-1/pair_invariant_count", "thm37-1/no_such_claim"}
    assert len(checks) > len(failed)


def test_raising_item_becomes_one_failed_check():
    def boom():
        raise ZeroDivisionError("x")

    [(name, ok, detail)] = W.run_item(W.Item("broken", boom))
    assert not ok and name == "broken/raised" and "ZeroDivisionError" in detail


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    assert run.tail_rank(36) == 25      # p72 of 36
    assert run.tail_rank(343) == 332
    assert run.tail_rank(5) == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "symbolic", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

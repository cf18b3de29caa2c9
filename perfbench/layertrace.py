"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the liefields layers by a
wrapper. Calls are looked up on the module at call time, so calls made inside
a module are caught too.

- Functions of every layer but ``expr`` record a span each: name, start, end,
  parent span, item. Spans stay in memory and ``dump`` writes them out once,
  at exit.
- ``expr`` is the leaf layer: it calls no other layer, and its functions run
  hundreds of thousands of times per run. Each gets a call counter and an
  aggregate timer instead of spans; the time of an outermost ``expr`` call is
  charged to ``expr`` and taken off the span that made it.
- The evaluators that ``expr.compile_numeric`` returns run millions of times
  per run, nearly all inside ``flows.numeric_flow``. Those are left unwrapped:
  a ``numeric_flow`` call makes exactly ``4 * steps * dim`` right-hand-side
  evaluations and ``steps + 1`` per tracked invariant, and that count is added
  when it returns. Evaluators compiled anywhere else get a counting wrapper.
  Either way their time stays with the caller.

``layer_metrics`` turns a dump into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("expr", "exactla", "fields", "algebra", "invariants", "flows", "mobility",
          "catalog", "algfile")
LEAF_LAYER = "expr"
NUMERIC_EVALS = "expr.numeric_evals"


class Tracer:
    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index, item, expr seconds]
        self.stack: list = []
        self.item = -1               # index of the item running, -1 in set-up
        self.counters: Counter = Counter()
        self.leaf_s: Counter = Counter()   # outermost expr calls, seconds by name
        self.leaf_depth = 0
        self.cached: dict = {}       # name -> lru_cache object, for cache_info()

    def install(self, package) -> None:
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                if hasattr(obj, "cache_info"):
                    self.cached[name] = obj
                wrap = self._leaf if layer == LEAF_LAYER else self._spanned
                setattr(module, attr, wrap(name, obj))

    def _leaf(self, name, fn):
        counters, leaf_s, spans, stack = self.counters, self.leaf_s, self.spans, self.stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        def leaf(*args, **kwargs):
            counters[name] += 1
            if self.leaf_depth:
                result = fn(*args, **kwargs)
            else:
                self.leaf_depth = 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self.leaf_depth = 0
                    leaf_s[name] += elapsed
                    if stack:
                        spans[stack[-1]][5] += elapsed
            if hook is not None:
                result = hook(self, lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        leaf.__wrapped__ = fn
        return leaf

    def _spanned(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                result = hook(self, lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cache = {name: obj.cache_info()._asdict() for name, obj in self.cached.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": names,
                "spans": [[index[n], s, e, p, i, x] for n, s, e, p, i, x in self.spans],
                "counters": dict(self.counters),
                "leaf_s": dict(self.leaf_s),
                "cache_info": cache,
            }, fh)


# hooks get the tracer, a function binding the call's arguments, and the result

def _numeric_flow(tracer, arguments, result):
    bound = arguments()
    steps = int(bound["steps"])
    tracer.counters["flows.rk4_steps"] += steps
    tracer.counters[NUMERIC_EVALS] += (
        4 * steps * bound["X"].dim + (steps + 1) * len(bound.get("tracked") or {}))
    return result


def _rref_cells(tracer, arguments, result):
    matrix = arguments()["matrix"]
    tracer.counters["exactla.rref.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
    return result


def _zero_verdict(tracer, arguments, result):
    if getattr(result, "name", "") == "UNKNOWN":
        tracer.counters["expr.is_identically_zero.unknown"] += 1
    return result


def _count_evaluations(tracer, arguments, compiled):
    stack = tracer.stack
    if stack and tracer.spans[stack[-1]][0] == "flows.numeric_flow":
        return compiled      # counted exactly by _numeric_flow
    counters = tracer.counters

    def evaluator(*a, **k):
        counters[NUMERIC_EVALS] += 1
        return compiled(*a, **k)

    return evaluator


_HOOKS = {
    "flows.numeric_flow": _numeric_flow,
    "exactla.rref": _rref_cells,
    "expr.is_identically_zero": _zero_verdict,
    "expr.compile_numeric": _count_evaluations,
}


# ---------------------------------------------------------------------------
# analysis


# inclusive time of the outermost call, metric name -> span name
_INCLUSIVE = {
    "flows.monodromy_period.s": "flows.monodromy_period",
    "flows.lie_series_flow.s": "flows.lie_series_flow",
    "algebra.check_closure.s": "algebra.check_closure",
    "algebra.joint_invariant_count.s": "algebra.joint_invariant_count",
    "invariants.verify_joint_invariant.s": "invariants.verify_joint_invariant",
    "invariants.essential_invariant_check.s": "invariants.essential_invariant_check",
    "mobility.free_mobility_infinitesimal.s": "mobility.free_mobility_infinitesimal",
}


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced process, all but trace.overhead_s."""
    names = dump["names"]
    spans = [(names[n], s, e, p, x) for n, s, e, p, _, x in dump["spans"]]
    counters = Counter(dump["counters"])
    leaf_s = dump["leaf_s"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter(counters)
    for k, (name, start, end, _, expr_s) in enumerate(spans):
        self_s[name.split(".")[0]] += (end - start) - child[k] - expr_s
        calls[name] += 1
    self_s[LEAF_LAYER] = sum(leaf_s.values())

    def under(k, pred) -> bool:
        parent = spans[k][3]
        while parent >= 0:
            if pred(spans[parent][0]):
                return True
            parent = spans[parent][3]
        return False

    inclusive = defaultdict(float)
    wanted = set(_INCLUSIVE.values()) | {"flows.numeric_flow"}
    in_monodromy = 0
    for k, (name, start, end, _, _) in enumerate(spans):
        if name.startswith("algfile.") and not under(k, lambda n: n.startswith("algfile.")):
            inclusive["algfile"] += end - start
        if name not in wanted:
            continue
        if not under(k, lambda n, name=name: n == name):
            inclusive[name] += end - start
        if name == "flows.numeric_flow" and under(k, lambda n: n == "flows.monodromy_period"):
            in_monodromy += 1

    diff = dump["cache_info"].get("expr.differentiate", {})
    lookups = diff.get("hits", 0) + diff.get("misses", 0)
    zero_calls = calls["expr.is_identically_zero"]
    steps, flow_s = counters["flows.rk4_steps"], inclusive["flows.numeric_flow"]
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS if layer != "algfile"}
    out.update({metric: inclusive[span] for metric, span in _INCLUSIVE.items()})
    out.update({
        "flows.rk4_steps": steps,
        "flows.rk4_steps_per_s": steps / flow_s if flow_s else 0.0,
        "flows.numeric_flow.calls": calls["flows.numeric_flow"],
        "flows.numeric_flow.calls_in_monodromy": in_monodromy,
        "expr.mul.calls": calls["expr.mul"],
        "expr.add.calls": calls["expr.add"],
        "expr.evaluate_exact.calls": calls["expr.evaluate_exact"],
        "expr.is_identically_zero.calls": zero_calls,
        "expr.is_identically_zero.unknown_ratio":
            counters["expr.is_identically_zero.unknown"] / zero_calls if zero_calls else 0.0,
        "expr.differentiate.hit_ratio": diff.get("hits", 0) / lookups if lookups else 0.0,
        "expr.numeric_evals": counters[NUMERIC_EVALS],
        "expr.parse.s": leaf_s.get("expr.parse_expression", 0.0),
        "algfile.s": inclusive["algfile"],
        "exactla.rank.calls": calls["exactla.rank"],
        "exactla.solve.calls": calls["exactla.solve"],
        "exactla.rref.cells": counters["exactla.rref.cells"],
        "fields.bracket.calls": calls["fields.bracket"],
        "fields.generic_rank.calls": calls["fields.generic_rank"],
        "fields.prolong_points.calls": calls["fields.prolong_points"],
    })
    return out

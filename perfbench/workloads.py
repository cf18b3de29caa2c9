"""The three benchmark workloads and their correctness gates.

Each workload turns a seed into a list of items. An item is one unit of
latency: one catalog entry, one fixture at one parameter sample, or one flow
check. Running an item returns one ``(check name, ok, detail)`` triple per
claim it verified. A claim that fails or raises is recorded, never raised, so
a run always completes and every failure is counted.

Only the seed reaches the program: every start point, time and draw below is
derived from it, and the same seed gives the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "data" / "algebras"

Check = Tuple[str, bool, str]


@dataclass
class Item:
    id: str
    run: Callable[[], List[Check]]


def run_item(item: Item) -> List[Check]:
    """Run one item; an exception escaping it becomes one failed check."""
    try:
        return item.run()
    except Exception as err:  # the gate counts failures, it never aborts
        return [(f"{item.id}/raised", False, f"{type(err).__name__}: {err}")]


def _checked(name: str, expected, thunk) -> Check:
    try:
        observed = thunk()
    except Exception as err:
        return (name, False, f"expected {expected!r}, raised {type(err).__name__}: {err}")
    ok = observed == expected
    return (name, ok, "" if ok else f"expected {expected!r}, observed {observed!r}")


# ---------------------------------------------------------------------------
# catalog: the CLI replay, one entry per call, against one full replay


def catalog_argv(entry_id: Optional[str], seed: int) -> list:
    argv = ["catalog", "verify", "--format", "json", "--seed", str(seed)]
    if entry_id is not None:
        argv[2:2] = ["--entry", entry_id]
    return argv


def run_cli(argv) -> Tuple[int, str]:
    from liefields import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def catalog_reference(seed: int) -> str:
    """The report of one full ``liefields catalog verify --format json``."""
    return run_cli(catalog_argv(None, seed))[1]


def catalog_items(seed: int, reference_text: str, limit: Optional[int] = None) -> List[Item]:
    """One item per catalog entry, in id order. Every check must pass and
    equal the reference check of the same position; after the last entry the
    concatenated per-entry reports must be byte-identical to the reference."""
    from liefields import catalog as CAT

    reference = {r["entry"]: r for r in json.loads(reference_text)}
    ids = sorted(e.id for e in CAT.builtin_entries())[:limit]
    reports: list = []

    def whole_report() -> Check:
        if limit is None:
            want = reference_text.rstrip("\n")
        else:
            want = json.dumps([reference[eid] for eid in ids], indent=2)
        ok = json.dumps(reports, indent=2) == want
        return ("report_bytes", ok, "" if ok else "concatenated reports differ from the full replay")

    def entry_item(eid: str) -> Item:
        def run() -> List[Check]:
            code, text = run_cli(catalog_argv(eid, seed))
            got = json.loads(text)
            reports.extend(got)
            observed = got[0]["checks"] if len(got) == 1 else []
            expected = reference[eid]["checks"]
            out = []
            for pos, ref in enumerate(expected):
                obs = observed[pos] if pos < len(observed) else None
                ok = obs == ref and ref["status"] == "pass"
                out.append((f"{eid}/{ref['name']}", ok, "" if ok else f"observed {obs}, reference {ref}"))
            for obs in observed[len(expected):]:
                out.append((f"{eid}/{obs['name']}", False, "check missing from the reference"))
            if code != 0 and all(ok for _, ok, _ in out):
                out.append((f"{eid}/exit", False, f"exit code {code}"))
            if eid == ids[-1]:
                # timed with the last entry
                out.append(whole_report())
            return out

        return Item(eid, run)

    return [entry_item(eid) for eid in ids]


# ---------------------------------------------------------------------------
# symbolic: every fixture through algfile, exact layers only


@dataclass
class Fixture:
    id: str
    algfile: object          # algfile.AlgebraFile
    presentation: object     # algebra.LieAlgebraPresentation
    invariants: list         # invariants.InvariantCandidate
    samples: list            # index-keyed parameter maps of the catalog entry


def load_fixtures(limit: Optional[int] = None) -> List[Fixture]:
    """Parse every ``data/algebras/*.alg`` (set-up, not timed per item)."""
    from liefields import algfile, catalog as CAT

    paths = sorted(FIXTURES.glob("*.alg"))
    if not paths:
        raise FileNotFoundError(f"no fixtures under {FIXTURES}")
    if limit is not None:
        paths = paths[:limit]
    out = []
    for path in paths:
        af = algfile.load_algebra_file(str(path))
        entry = CAT.entry_by_id(path.stem)
        out.append(Fixture(path.stem, af, af.presentation(), af.invariants(),
                           entry.param_value_maps()))
    return out


def _expect_thunk(key: str, fx: Fixture, seed: int, pv):
    from liefields import algebra as A, invariants as I, mobility as M

    L = fx.presentation
    pairs = [J for J in fx.invariants if J.s == 2]
    thunks = {
        "transitive": lambda: A.is_transitive(L, seed=seed, param_values=pv),
        "pair_invariant_count": lambda: A.joint_invariant_count(L, 2, seed=seed, param_values=pv),
        "two_point_criterion": lambda: A.two_point_invariant_criterion(L, seed=seed, param_values=pv),
        "essential_3pt": lambda: I.essential_invariant_check(
            L, 3, seed=seed, pair_invariants=pairs, param_values=pv),
        "free_mobility": lambda: M.free_mobility_infinitesimal(
            L, seed=seed, param_values=pv).free_mobility,
    }
    return thunks.get(key)


def _prolonged_closure(fx: Fixture) -> bool:
    """Structure constants of the 2-point prolongation equal the algebra's."""
    from liefields import algebra as A, fields as F

    L = fx.presentation
    L2 = A.LieAlgebraPresentation(
        f"{L.name}^2", tuple(F.point_var_names(L.vars, 2)), L.params,
        tuple(F.prolong_points(g, 2) for g in L.generators))
    return A.check_closure(L2).c == A.check_closure(L).c


def symbolic_items(fixtures: List[Fixture], seed: int) -> List[Item]:
    """One item per fixture and catalog parameter sample. Checks: every
    ``expect:`` line except monodromy, every attached invariant Proven, the
    s = 3 and 4 joint-invariant counts equal s*n - r (the group acts with full
    rank on triples), and, once per fixture, closure of the 2-point
    prolongation with unchanged structure constants."""
    from liefields import algebra as A, invariants as I

    items = []
    for fx in fixtures:
        for k, sample in enumerate(fx.samples):
            tag = ",".join(f"{fx.algfile.params[j]}={v}" for j, v in sorted(sample.items()))
            item_id = f"{fx.id}@{tag}" if tag else fx.id

            def run(fx=fx, pv=sample or None, first=(k == 0), item_id=item_id) -> List[Check]:
                out = []
                for key, expected in sorted(fx.algfile.expectations.items()):
                    if key == "monodromy":
                        continue
                    thunk = _expect_thunk(key, fx, seed, pv)
                    if thunk is None:
                        out.append((f"{item_id}/{key}", False, "no checker for this expectation"))
                        continue
                    out.append(_checked(f"{item_id}/{key}", expected, thunk))
                for i, J in enumerate(fx.invariants):
                    out.append(_checked(
                        f"{item_id}/invariant[{i}]", I.Verdict.PROVEN,
                        lambda J=J: I.verify_joint_invariant(
                            fx.presentation, J, mode="symbolic", seed=seed, param_values=pv).verdict))
                L = fx.presentation
                for s in (3, 4):
                    out.append(_checked(
                        f"{item_id}/joint_invariant_count[s={s}]", s * L.dim - L.order,
                        lambda s=s: A.joint_invariant_count(L, s, seed=seed, param_values=pv)))
                if first:
                    out.append(_checked(f"{item_id}/prolonged_closure", True,
                                        lambda: _prolonged_closure(fx)))
                return out

            items.append(Item(item_id, run))
    return items


# ---------------------------------------------------------------------------
# trajectories: long integrations, no first-return search

SERIES_STEPS = 1500      # RK4 steps against the series flow, |t| <= 0.2
GROUP_LAW_DRAWS = 50
GROUP_LAW_STEPS = 1500   # per leg, |t1|, |t2| <= 0.25
DRIFT_PROBE_STEPS = 120  # coarse pass that keeps a start inside one domain
DRIFT_STEPS = 2500       # tracked integration over t in [0, 1]
DRIFT_START_TRIES = 40

# criterion 8's tolerances: gates, not knobs
SERIES_TOL = 1e-8
GROUP_LAW_TOL = 1e-9
DRIFT_TOL = 1e-6


def _instantiate(g, pv):
    from liefields import expr as E, fields as F

    if not pv:
        return g
    return F.VectorField(g.dim, tuple(E.substitute_params(c, pv) for c in g.coeffs))


def _catalog_generators():
    """(entry id, generator index, generator) at the first parameter sample."""
    from liefields import catalog as CAT

    out = []
    for entry in sorted(CAT.builtin_entries(), key=lambda e: e.id):
        pv = entry.param_value_maps()[0]
        for k, g in enumerate(entry.presentation().generators):
            out.append((entry.id, k, _instantiate(g, pv)))
    return out


def _start(rng: random.Random, dim: int):
    from liefields import fields as F

    return F.Point(tuple(rng.uniform(-0.5, 0.5) for _ in range(dim)))


def _drift(prolonged, body, rng: random.Random) -> float:
    """Max invariant drift over t in [0, 1] from a start whose whole
    trajectory stays inside one continuity domain of the invariant."""
    from liefields import expr as E, fields as F, flows as FL

    guards = [E.compile_numeric(g) for g in E.domain_guards(body)]
    body_fn = E.compile_numeric(body)
    for _ in range(DRIFT_START_TRIES):
        start = tuple(rng.uniform(-0.6, 0.6) for _ in range(prolonged.dim))
        try:
            E.evaluate_numeric(body, list(start))
            probe = FL.numeric_flow(prolonged, F.Point(start), 1.0, DRIFT_PROBE_STEPS, record=True)
            signs = None
            for _, pt in probe.samples:
                values = [g(pt) for g in guards]
                if any(abs(v) < 1e-4 for v in values) or abs(body_fn(pt)) > 50.0:
                    break
                cur = [v > 0 for v in values]
                if signs is None:
                    signs = cur
                elif cur != signs:
                    break
            else:
                traj = FL.numeric_flow(prolonged, F.Point(start), 1.0, DRIFT_STEPS,
                                       tracked={"J": body})
                return traj.drift["J"]
        except (E.DomainError, OverflowError):
            continue
    raise RuntimeError("no in-domain start found for the drift check")


def trajectory_items(seed: int, limit: Optional[int] = None) -> List[Item]:
    """Series flow against RK4 for every catalog generator, seeded group-law
    draws, and tracked-invariant drift along 2-point-prolonged flows, with
    criterion 8's tolerances."""
    from liefields import catalog as CAT, expr as E, fields as F, flows as FL

    rng = random.Random(seed)
    gens = _catalog_generators()
    items = []

    for eid, k, g in gens:
        t = rng.uniform(-0.2, 0.2)
        start = _start(rng, g.dim)
        name = f"series/{eid}#{k + 1}"

        def series(g=g, t=t, start=start, name=name) -> List[Check]:
            point, _ = FL.lie_series_flow(g, start, t)
            rk4 = FL.numeric_flow(g, start, t, SERIES_STEPS).endpoint
            dev = max(abs(a - b) for a, b in zip(point, rk4))
            return [(name, dev < SERIES_TOL, f"deviation {dev:.3e}")]

        items.append(Item(name, series))

    for i in range(GROUP_LAW_DRAWS):
        eid, k, g = gens[rng.randrange(len(gens))]
        t1, t2 = rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)
        start = _start(rng, g.dim)
        name = f"group_law/{i}:{eid}#{k + 1}"

        def law(g=g, t1=t1, t2=t2, start=start, name=name) -> List[Check]:
            dev = FL.one_param_group_law_check(g, start, t1, t2, steps=GROUP_LAW_STEPS)
            return [(name, dev < GROUP_LAW_TOL, f"deviation {dev:.3e}")]

        items.append(Item(name, law))

    for entry in sorted(CAT.builtin_entries(), key=lambda e: e.id):
        if not entry.invariants:
            continue
        pv = entry.param_value_maps()[0]
        L = entry.presentation()
        for i, J in enumerate(entry.parsed_invariants()):
            body = E.substitute_params(J.body, pv) if pv else J.body
            for k, g in enumerate(L.generators):
                name = f"drift/{entry.id}[{i}]#{k + 1}"
                item_rng = random.Random(rng.getrandbits(64))

                def drift(g=_instantiate(g, pv), body=body, item_rng=item_rng, name=name) -> List[Check]:
                    value = _drift(F.prolong_points(g, 2), body, item_rng)
                    return [(name, value < DRIFT_TOL, f"drift {value:.3e}")]

                items.append(Item(name, drift))

    if limit is not None:
        # keep every kind of check in a shortened run
        kinds = {}
        for item in items:
            kinds.setdefault(item.id.split("/")[0], []).append(item)
        items = [it for group in kinds.values() for it in group[:limit]]
    return items


WORKLOADS = ("catalog", "symbolic", "trajectories")

"""Acceptance criteria, one test per criterion, each timed against its stated
budget and printing a pass line (run with -s to see them)."""

import math
import random
import time
from fractions import Fraction

from liefields import algebra as A, catalog as CAT, expr as E, flows as FL
from liefields import fields as F
from liefields import invariants as I, mobility as M


V3 = ["x", "y", "z"]
V2 = ["x", "y"]


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.budget else "PASS (over budget)"
            print(f"criterion {self.label}: {status} in {elapsed:.2f}s (budget {self.budget}s)")
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s ({elapsed:.2f}s)"
        else:
            print(f"criterion {self.label}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_01_catalog_closure():
    with _Timer("1 (catalog closure + structure relations)", 10.0):
        entries = CAT.builtin_entries()
        assert len(entries) >= 24
        for entry in entries:
            L = entry.presentation()
            constants = A.check_closure(L)  # raises NotClosedError on failure
            assert A.verify_structure(constants), entry.id


def test_criterion_02_invariant_identities():
    with _Timer("2 (symbolic annihilation of published invariants)", 30.0):
        required = {"thm37-1", "thm37-3", "thm37-8", "thm37-9", "thm37-10",
                    "thm37-11", "ex89-58", "ex90-60a", "ex90-60b", "ex90-60c",
                    "ex90-60d", "ex90-62a"}
        seen = set()
        for entry in CAT.builtin_entries():
            if not entry.invariants:
                continue
            seen.add(entry.id)
            L = entry.presentation()
            for J in entry.parsed_invariants():
                for pv in entry.param_value_maps():
                    out = I.verify_joint_invariant(L, J, mode="symbolic",
                                                   param_values=pv or None)
                    assert out.verdict is I.Verdict.PROVEN, (entry.id, pv)
        assert required <= seen


def test_criterion_03_invariant_counts():
    with _Timer("3 (pair-invariant counts of the counterexample table)", 5.0):
        expectations = [("ex94-21", 1), ("ex94-21r", 2), ("ex94-22", 0), ("ex94-22r", 1)]
        for eid, count in expectations:
            L = CAT.entry_by_id(eid).presentation()
            assert A.joint_invariant_count(L, 2, seed=3) == count, eid
        # (23') carries three fields with common integral curves: r, x*r, y*r
        L23r = CAT.entry_by_id("ex94-23r").presentation()
        triple = [L23r.generators[i] for i in (2, 3, 5)]
        assert F.linear_independence_over_constants(triple)
        assert F.generic_rank(triple, seed=3)[0] == 1


def test_criterion_04_determinant_criteria():
    with _Timer("4 (determinant identities and the two-point criterion)", 2.0):
        det34 = E.parse_expression(
            "2*x^3*(y + c*x) - 4*x^3*y + 2*x^3*(y - c*x)", V3, ["c"])
        det40 = E.parse_expression("2*c*x^2*y^2 - 2*c*x^2*y^2", V3, ["c"])
        det28 = E.parse_expression("2*y^2*z - 2*x*y*z^2", V3)
        det30 = E.parse_expression("-2*x*y*(y - x*z)", V3)
        assert E.is_identically_zero(det34) is E.Zeroness.YES
        assert E.is_identically_zero(det40) is E.Zeroness.YES
        assert E.is_identically_zero(det28) is E.Zeroness.NO
        assert E.is_identically_zero(det30) is E.Zeroness.NO
        table = [("ex87-28", False), ("ex87-30", False), ("thm37-9", True),
                 ("thm37-8", True), ("thm37-10", True), ("thm37-11", True)]
        for eid, expected in table:
            entry = CAT.entry_by_id(eid)
            L = entry.presentation()
            pv = entry.param_value_maps()[0]
            assert A.two_point_invariant_criterion(L, param_values=pv or None) is expected, eid


def test_criterion_05_monodromy():
    with _Timer("5 (monodromy of the curious group and its reduced form)", 10.0):
        # the one-parameter subgroup fixing the origin and (1, 1, 0)
        entry = CAT.entry_by_id("ex94-24")
        L = entry.presentation()
        combos = CAT.monodromy_generator(L, [(0, 0, 0), (1, 1, 0)])
        assert len(combos) == 1
        vec, X = combos[0]
        scale = vec[3]  # unit rotation part fixes the canonical parameter
        X = F.VectorField(3, tuple(E.mul(E.const(1 / scale), c) for c in X.coeffs))
        period, diag = FL.monodromy_period(
            X, F.Point((Fraction(2, 5), Fraction(-3, 10), Fraction(1, 5))),
            t_max=8.0, tol=1e-6, steps=20000, starts=8, seed=1)
        assert period is not None
        assert abs(period - 2 * math.pi) < 1e-6
        # reduced form: the residual generator never returns up to t = 100
        L24r = CAT.entry_by_id("ex94-24r").presentation()
        combos = CAT.monodromy_generator(L24r, [(0, 0, 0), (1, 1, 0)])
        assert len(combos) == 1
        _, Y = combos[0]
        period, diag = FL.monodromy_period(
            Y, F.Point((Fraction(3, 10), Fraction(4, 5), Fraction(0))),
            t_max=100.0, tol=1e-6, steps=20000, starts=8, seed=1)
        assert period is None
        assert diag


def test_criterion_06_seven_forms():
    with _Timer("6 (seven one-parameter normal forms)", 1.0):
        rows = M.classify_seven_forms()
        tags = {r.index: r.classification.tag for r in rows}
        assert tags[7] == "Periodic"
        assert tags[6] == "Spiral"
        for idx in range(1, 6):
            assert tags[idx] not in ("Periodic", "ProjectivelyPeriodic")
            witness = next(r.witness for r in rows if r.index == idx)
            assert witness, idx
        assert sum(1 for r in rows if r.classification.tag == "Periodic") == 1


def test_criterion_07_free_mobility():
    with _Timer("7 (free mobility verdicts)", 5.0):
        for eid in ("thm37-1", "thm37-3", "thm37-4"):
            L = CAT.entry_by_id(eid).presentation()
            assert M.free_mobility_infinitesimal(L).free_mobility is True, eid
        fam = A.presentation("planar", V2, ["p", "q", "y*p - x*q + c*(x*p + y*q)"], ["c"])
        for c in (Fraction(0), Fraction(1, 2)):
            assert M.free_mobility_infinitesimal(fam, param_values={0: c}).free_mobility
        for eid in ("thm37-8", "thm37-9", "thm37-10", "thm37-11"):
            entry = CAT.entry_by_id(eid)
            pv = entry.param_value_maps()[0]
            verdict = M.free_mobility_infinitesimal(entry.presentation(),
                                                    param_values=pv or None)
            assert verdict.free_mobility is False, eid
            assert verdict.failing_stage, eid


def _catalog_generators():
    """Distinct (entry, generator) list with the first parameter sample."""
    out = []
    for entry in CAT.builtin_entries():
        pv = entry.param_value_maps()[0]
        L = entry.presentation()
        for g in L.generators:
            if pv:
                g = F.VectorField(g.dim, tuple(E.substitute_params(c, pv) for c in g.coeffs))
            out.append((entry.id, g))
    return out


def test_criterion_08_flows():
    with _Timer("8 (flow agreement, group law, invariant conservation)", 60.0):
        rng = random.Random(8)
        gens = _catalog_generators()
        # series vs RK4 within 1e-8 for |t| <= 0.2
        for eid, g in gens:
            t = rng.uniform(-0.2, 0.2)
            start = F.Point(tuple(rng.uniform(-0.5, 0.5) for _ in range(g.dim)))
            series, _ = FL.lie_series_flow(g, start, t)
            rk4 = FL.numeric_flow(g, start, t, 1500).endpoint
            assert max(abs(a - b) for a, b in zip(series, rk4)) < 1e-8, eid
        # group law on 50 random draws
        for _ in range(50):
            eid, g = gens[rng.randrange(len(gens))]
            t1, t2 = rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)
            start = F.Point(tuple(rng.uniform(-0.5, 0.5) for _ in range(g.dim)))
            dev = FL.one_param_group_law_check(g, start, t1, t2, steps=1500)
            assert dev < 1e-9, (eid, t1, t2, dev)
        # every Proven invariant drifts < 1e-6 along prolonged flows
        for entry in CAT.builtin_entries():
            if not entry.invariants:
                continue
            pv = entry.param_value_maps()[0]
            L = entry.presentation()
            for J in entry.parsed_invariants():
                body = E.substitute_params(J.body, pv) if pv else J.body
                for g in L.generators:
                    if pv:
                        g = F.VectorField(g.dim, tuple(
                            E.substitute_params(c, pv) for c in g.coeffs))
                    prolonged = F.prolong_points(g, 2)
                    drift = _conserved_drift(prolonged, body, rng)
                    assert drift < 1e-6, (entry.id,)


def _conserved_drift(prolonged, body, rng, tries=40):
    """Max drift of the invariant over t in [0, 1], sampling starts whose
    whole trajectory stays inside one continuity domain of the expression
    (no denominator or log/sqrt argument changes sign along the way)."""
    guards = [E.compile_numeric(g) for g in E.domain_guards(body)]
    body_fn = E.compile_numeric(body)
    for _ in range(tries):
        start = tuple(rng.uniform(-0.6, 0.6) for _ in range(prolonged.dim))
        try:
            E.evaluate_numeric(body, list(start))
            probe = FL.numeric_flow(prolonged, F.Point(start), 1.0, 120, record=True)
            ok = True
            signs = None
            for _, pt in probe.samples:
                values = [g(pt) for g in guards]
                # stay inside one continuity domain, at moderate scale
                if any(abs(v) < 1e-4 for v in values) or abs(body_fn(pt)) > 50.0:
                    ok = False
                    break
                cur = [v > 0 for v in values]
                if signs is None:
                    signs = cur
                elif cur != signs:
                    ok = False
                    break
            if not ok:
                continue
            traj = FL.numeric_flow(prolonged, F.Point(start), 1.0, 10000,
                                   tracked={"J": body})
        except (E.DomainError, OverflowError):
            continue
        return traj.drift["J"]
    raise AssertionError("no in-domain start found for the conservation check")


def test_criterion_09_complete_systems():
    with _Timer("9 (completion and exponential solution)", 1.0):
        f1 = F.parse_field("d1", ["x1", "x2", "x3"])
        f2 = F.parse_field("d2 + x1*d3", ["x1", "x2", "x3"])
        done, log = FL.complete_system_complete([f1, f2])
        assert len(done) == 3
        assert done[2] == F.parse_field("d3", ["x1", "x2", "x3"])
        X = F.parse_field("p + x*r", V3)
        sols, info = FL.complete_system_solve_single(X, 0)
        assert sols[0] == E.var(1)
        assert sols[1] == E.parse_expression("z - 1/2*x^2", V3)
        for w in sols:
            res = F.apply_to_function(X, w)
            assert E.is_identically_zero(res) is E.Zeroness.YES


def test_criterion_10_theorem_44_suite():
    with _Timer("10 (pair invariants force differential invariants)", 5.0):
        for entry in CAT.builtin_entries():
            count = entry.expected.pair_invariant_count
            if count is None or count < 1:
                continue
            L = entry.presentation()
            pv = entry.param_value_maps()[0]
            assert I.infinitesimal_invariant_exists(L, param_values=pv or None), entry.id
        g22 = CAT.entry_by_id("ex94-22")
        L22 = g22.presentation()
        assert A.joint_invariant_count(L22, 2) == 0
        names = F.differential_var_names(g22.vars)
        body = E.parse_expression(g22.infinitesimal_invariant, names)
        for g in L22.generators:
            res = F.apply_to_function(F.prolong_differentials(g), body)
            assert E.is_identically_zero(res) is E.Zeroness.YES


def test_criterion_11_prolongation_identity():
    with _Timer("11 (jet lift of the planar linear family is the first rejected group)", 1.0):
        linear = [F.parse_field(s, V2) for s in ["p", "q", "x*q", "y*q", "x*p", "y*p"]]
        jets = [F.prolong_jet1(X) for X in linear]
        g28 = CAT.entry_by_id("ex87-28").presentation()
        assert F.span_equal(jets, list(g28.generators))


def test_criterion_12_arc_length_criterion():
    with _Timer("12 (arc-length homogeneity criterion)", 1.0):
        sim = A.presentation("similarity", V2, ["p", "q", "x*p + y*q"])
        assert I.arc_length_invariant_exists(sim) is False
        euclid = CAT.entry_by_id("thm37-1").presentation()
        assert I.arc_length_invariant_exists(euclid) is True

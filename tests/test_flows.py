import math
import random
from fractions import Fraction

import pytest

from liefields import catalog as CAT, expr as E, flows as FL
from liefields import fields as F


V3 = ["x", "y", "z"]
V2 = ["x", "y"]


def fld(text, vars=V3, params=()):
    return F.parse_field(text, vars, params)


class TestLieSeriesFlow:
    def test_translation_exact(self):
        pt, est = FL.lie_series_flow(fld("p"), F.Point((1.0, 2.0, 3.0)), 0.7)
        assert pt == (1.7, 2.0, 3.0)
        assert est == 0.0

    def test_exponential_closed_form(self):
        pt, _ = FL.lie_series_flow(fld("x*d1", ["x"]), F.Point((1.0,)), 0.5, order=30)
        assert abs(pt[0] - math.exp(0.5)) < 1e-12

    def test_rotation_closed_form(self):
        pt, _ = FL.lie_series_flow(fld("y*p - x*q", V2), F.Point((1.0, 0.0)),
                                   math.pi / 3, order=40)
        assert abs(pt[0] - math.cos(math.pi / 3)) < 1e-10
        assert abs(pt[1] + math.sin(math.pi / 3)) < 1e-10

    def test_divergence_flagged(self):
        with pytest.raises(FL.DivergenceSuspected):
            FL.lie_series_flow(fld("x^2*d1", ["x"]), F.Point((1.0,)), 2.0, order=16)

    def test_non_polynomial_rejected(self):
        with pytest.raises(E.NonPolynomialError):
            FL.lie_series_flow(fld("log(x)*d1", ["x"]), F.Point((1.0,)), 0.1)


class TestNumericFlow:
    def test_translation_machine_precision(self):
        traj = FL.numeric_flow(fld("p"), F.Point((0.0, 0.0, 0.0)), 1.0, 100)
        assert max(abs(a - b) for a, b in zip(traj.endpoint, (1.0, 0.0, 0.0))) < 1e-13

    def test_cross_method_agreement(self):
        X = fld("x^2*p + 2*x*r")
        start = F.Point((0.3, 0.1, -0.2))
        series, _ = FL.lie_series_flow(X, start, 0.15)
        rk4 = FL.numeric_flow(X, start, 0.15, 4000).endpoint
        assert max(abs(a - b) for a, b in zip(series, rk4)) < 1e-8

    def test_step_halving_ratio_near_16(self):
        X = fld("y*p - x*q", V2)
        exact = (math.cos(1.0), -math.sin(1.0))
        e1 = FL.numeric_flow(X, F.Point((1.0, 0.0)), 1.0, 50).endpoint
        e2 = FL.numeric_flow(X, F.Point((1.0, 0.0)), 1.0, 100).endpoint
        r1 = max(abs(a - b) for a, b in zip(e1, exact))
        r2 = max(abs(a - b) for a, b in zip(e2, exact))
        assert 12 < r1 / r2 < 20

    def test_domain_error_bubbles(self):
        X = fld("x^-1*d1", ["x"])
        with pytest.raises(E.DomainError):
            FL.numeric_flow(X, F.Point((0.0,)), 1.0, 10)

    def test_start_point_dimension_checked(self):
        X = fld("y*p - x*q", V2)
        with pytest.raises(F.FieldError):
            FL.numeric_flow(X, F.Point((1.0,)), 1.0, 10)
        with pytest.raises(F.FieldError):
            FL.lie_series_flow(X, F.Point((1.0, 0.0, 0.0)), 1.0)


def reference_rk4(X, x0, t, steps, tracked=None, record=False):
    """The classical loop, one compiled evaluator per coefficient: the
    reference numeric_flow must match bit for bit."""
    params = {k: float(v) for k, v in x0.params.items()}
    funcs = [E.compile_numeric(c) for c in X.coeffs]
    state = [float(v) for v in x0.coords]
    h = t / steps

    def rhs(y):
        return [f(y, params) for f in funcs]

    tracked_fns = {label: E.compile_numeric(body) for label, body in (tracked or {}).items()}
    initial = {label: fn(state, params) for label, fn in tracked_fns.items()}
    drift = {label: 0.0 for label in tracked_fns}
    samples = [(0.0, tuple(state))]
    for step in range(steps):
        k1 = rhs(state)
        y2 = [s + 0.5 * h * k for s, k in zip(state, k1)]
        k2 = rhs(y2)
        y3 = [s + 0.5 * h * k for s, k in zip(state, k2)]
        k3 = rhs(y3)
        y4 = [s + h * k for s, k in zip(state, k3)]
        k4 = rhs(y4)
        state = [
            s + h / 6.0 * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
        for label, fn in tracked_fns.items():
            drift[label] = max(drift[label], abs(fn(state, params) - initial[label]))
        if record or step == steps - 1:
            samples.append(((step + 1) * h, tuple(state)))
    return samples, drift


def _catalog_generators():
    """Every catalog generator at the first parameter sample of its entry."""
    out = []
    for entry in CAT.builtin_entries():
        pv = entry.param_value_maps()[0]
        for g in entry.presentation().generators:
            if pv:
                g = F.VectorField(g.dim, tuple(E.substitute_params(c, pv) for c in g.coeffs))
            out.append((entry.id, g))
    return out


class TestKernelBitIdentity:
    """numeric_flow runs one generated kernel per field; its samples and drift
    must equal the coefficient-by-coefficient loop exactly, not within a
    tolerance."""

    @pytest.mark.parametrize("points", [1, 2])
    def test_catalog_generators(self, points):
        rng = random.Random(11)
        for eid, g in _catalog_generators():
            X = g if points == 1 else F.prolong_points(g, 2)
            start = F.Point(tuple(rng.uniform(-0.5, 0.5) for _ in range(X.dim)))
            t = rng.uniform(-0.3, 0.3)
            traj = FL.numeric_flow(X, start, t, 25, record=True)
            assert (traj.samples, traj.drift) == reference_rk4(X, start, t, 25, record=True), eid

    def test_tracked_invariant(self):
        entry = CAT.entry_by_id("ex94-24")
        J = entry.parsed_invariants()[0].body
        X = F.prolong_points(entry.presentation().generators[4], 2)
        start = F.Point((0.1, -0.2, 0.05, 0.3, 0.25, -0.1))
        tracked = {"J": J}
        expected = reference_rk4(X, start, 0.4, 200, tracked=tracked, record=True)
        traj = FL.numeric_flow(X, start, 0.4, 200, tracked=tracked, record=True)
        assert (traj.samples, traj.drift) == expected
        assert traj.drift["J"] > 0.0

    def test_tracked_invariant_over_a_shared_block(self):
        # 18 terms over one block (x0*x3 + x1*x4 - x2*x5 - 1)^-2, most with
        # coefficient 1 or -1, along fields whose coefficients are mostly 1 or -1
        entry = CAT.entry_by_id("thm37-5")
        J = entry.parsed_invariants()[0].body
        assert len(J.terms) == 18
        start = F.Point((0.1, -0.2, 0.05, 0.3, 0.25, -0.1))
        tracked = {"J": J}
        for g in entry.presentation().generators:
            X = F.prolong_points(g, 2)
            expected = reference_rk4(X, start, 0.4, 100, tracked=tracked, record=True)
            traj = FL.numeric_flow(X, start, 0.4, 100, tracked=tracked, record=True)
            assert (traj.samples, traj.drift) == expected

    @pytest.mark.parametrize("text, params, values", [
        ("y*p - x*q + 2*r", (), {}),                        # mixed, integral constant
        ("p - 3/7*q + 1/3*r", (), {}),                      # every coefficient constant
        ("c^-1*p + x*q + (1 + c^2)^-1*r", ("c",), {0: 0.3}),  # constants read P[0]
        ("exp(c)*p + exp(c)*x*q + y*z*r", ("c",), {0: -1.5}),  # piece shared across scopes
        ("q + x*r", (), {}),                                # a dead stage point
    ])
    @pytest.mark.parametrize("t", [0.35, -0.35])
    @pytest.mark.parametrize("record", [True, False])
    def test_constant_coefficients(self, text, params, values, t, record):
        # the parameters are not substituted: the kernel reads them from
        # x0.params, before the loop for a constant coefficient
        X = fld(text, params=params)
        start = F.Point((0.2, -0.1, 0.4), values)
        tracked = {"J": E.parse_expression("x^2 + y*z", V3)}
        expected = reference_rk4(X, start, t, 40, tracked=tracked, record=record)
        traj = FL.numeric_flow(X, start, t, 40, tracked=tracked, record=record)
        assert (traj.samples, traj.drift) == expected
        assert len(traj.samples) == (41 if record else 2)

    def test_constant_coefficient_computed_once(self, monkeypatch):
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                fn = getattr(math, name)
                return lambda *a: calls.append(name) or fn(*a)

        FL._rk4_kernel.cache_clear()
        monkeypatch.setattr(FL, "math", CountingMath())
        X = fld("exp(c)*p + x*q", params=("c",))
        FL.numeric_flow(X, F.Point((0.0, 0.0, 0.0), {0: 0.5}), 1.0, 50)
        FL._rk4_kernel.cache_clear()
        assert calls == ["exp"]

    def test_failing_constant_coefficient_raises_domain_error(self):
        X = fld("c^-1*p + x*q", params=("c",))
        with pytest.raises(E.DomainError):
            FL.numeric_flow(X, F.Point((0.1, 0.2, 0.3), {0: 0.0}), 1.0, 10)
        with pytest.raises(E.DomainError):
            FL.numeric_flow(fld("log(c)*p", params=("c",)), F.Point((0.1, 0.2, 0.3), {0: -1.0}),
                            1.0, 10)


def reference_flow_series(X, x0, order):
    """The recurrence that rebuilds every monomial product at each order: the
    reference _flow_series must match bit for bit."""

    def mul_trunc(a, b, top):
        out = [0.0] * (top + 1)
        for i, ai in enumerate(a):
            if ai == 0.0:
                continue
            for j, bj in enumerate(b[: top - i + 1]):
                if bj != 0.0:
                    out[i + j] += ai * bj
        return out

    tables = [[(float(val.constant_value()), expo)
               for expo, val in E.poly_coefficients(c, X.dim).items()] for c in X.coeffs]
    series = [[float(v)] + [0.0] * order for v in x0]
    for k in range(order):
        for i in range(X.dim):
            acc = 0.0
            for coeff, expo in tables[i]:
                prod = [1.0] + [0.0] * order
                for v, e in enumerate(expo):
                    for _ in range(e):
                        prod = mul_trunc(prod, series[v], k)
                acc += coeff * prod[k]
            series[i][k + 1] = acc / (k + 1)
    return series


class TestSeriesBitIdentity:
    @pytest.mark.parametrize("order", [24, 48])
    def test_catalog_generators(self, order):
        rng = random.Random(order)
        for eid, g in _catalog_generators():
            start = [rng.uniform(-0.5, 0.5) for _ in range(g.dim)]
            assert FL._flow_series(g, start, order) == reference_flow_series(g, start, order), eid

    def test_square_law_exact(self):
        # x' = x^2 from 1/2 is 1/(2 - t): coefficient k is 2^-(k+1), exact in floats
        series = FL._flow_series(fld("x^2*d1", ["x"]), [0.5], 48)
        assert series[0] == [2.0 ** -(k + 1) for k in range(49)]


class TestGroupLaw:
    def test_translation_zero_deviation(self):
        dev = FL.one_param_group_law_check(fld("p"), F.Point((0.0, 0.0, 0.0)), 0.3, 0.4)
        assert dev < 1e-13

    def test_rotation_composition(self):
        dev = FL.one_param_group_law_check(fld("y*p - x*q", V2), F.Point((1.0, 0.0)), 0.7, 0.7)
        assert dev < 1e-9

    def test_parabolic_generator(self):
        X = fld("x^2*p + x*y*q + 1/2*y^2*r")
        dev = FL.one_param_group_law_check(X, F.Point((0.2, -0.3, 0.1)), 0.1, 0.2)
        assert dev < 1e-8


class TestCompleteSystems:
    def test_bracket_adjoined(self):
        f1 = F.parse_field("d1", ["x1", "x2", "x3"])
        f2 = F.parse_field("d2 + x1*d3", ["x1", "x2", "x3"])
        done, log = FL.complete_system_complete([f1, f2])
        assert len(done) == 3
        assert done[2] == F.parse_field("d3", ["x1", "x2", "x3"])
        assert any("adjoined" in entry for entry in log)
        assert FL.completion_certificate(done)

    def test_commuting_pair_unchanged(self):
        done, log = FL.complete_system_complete([fld("p"), fld("q")])
        assert len(done) == 2 and not log

    def test_closed_algebra_prolonged_unchanged(self):
        gens = ["p", "q", "r", "x*q - y*p", "y*r - z*q", "z*p - x*r"]
        prolonged = [F.prolong_points(fld(s), 2) for s in gens]
        done, _ = FL.complete_system_complete(prolonged)
        assert FL.completion_certificate(done)
        assert len(done) <= 6

    def test_dependent_input_pruned(self):
        done, log = FL.complete_system_complete([fld("p"), fld("x*p")])
        assert len(done) == 1
        assert any("pruned" in s for s in log)

    def test_bracket_zero_after_cancelling_a_block_needs_no_rank(self, monkeypatch):
        # [p, X2] = -2*x^3*(1 + x^2)^-2*q + ... is zero only once the block
        # cancels: it is skipped, not ranked
        X2 = fld("(x^2*(1 + x^2)^-1 + (1 + x^2)^-1)*q")
        assert not F.bracket(fld("p"), X2).is_zero
        ranks = []
        rank = F.generic_rank
        monkeypatch.setattr(F, "generic_rank", lambda *a, **k: ranks.append(1) or rank(*a, **k))
        done, log = FL.complete_system_complete([fld("p"), X2])
        assert len(done) == 2 and not log
        assert len(ranks) == 2  # one per input field
        assert FL.completion_certificate(done)
        assert len(ranks) == 3  # the base rank only

    def test_output_never_exceeds_dimension(self):
        done, _ = FL.complete_system_complete(
            [fld("p"), fld("q"), fld("x*r"), fld("y*r"), fld("r")])
        assert len(done) <= 3


class TestCompleteSystemSolve:
    def test_pure_translation(self):
        sols, info = FL.complete_system_solve_single(F.parse_field("p", V2), 0)
        assert sols == [E.var(1)]
        assert info["exact"] == [True]

    def test_quadratic_drift(self):
        sols, info = FL.complete_system_solve_single(fld("p + x*r"), 0)
        assert sols[0] == E.var(1)
        expected = E.parse_expression("z - 1/2*x^2", V3)
        assert sols[1] == expected
        # X(w) = 0 exactly
        X = fld("p + x*r")
        for w in sols:
            assert E.is_identically_zero(F.apply_to_function(X, w)) is E.Zeroness.YES

    def test_shear_drift(self):
        sols, _ = FL.complete_system_solve_single(fld("p + y*r"), 0)
        assert sols[1] == E.parse_expression("z - x*y", V3)

    def test_normalization_impossible(self):
        with pytest.raises(FL.NormalizationImpossible):
            FL.complete_system_solve_single(fld("q"), 0)

    def test_series_ends_when_a_block_cancels(self):
        # X^2(y) is zero only after (1 + x^2)^-1 cancels; a syntactic test
        # ran the series to order 24 and failed the numeric check
        sols, info = FL.complete_system_solve_single(
            F.parse_field("(1 + x^2)*p + (1 + x^2)*q", V2), 0)
        assert info == {"divided": True, "exact": [True]}
        y_minus_x = E.parse_expression("y - x", V2)
        assert E.is_identically_zero(sols[0] - y_minus_x) is E.Zeroness.YES

    def test_exact_division_recorded(self):
        sols, info = FL.complete_system_solve_single(fld("2*p + 2*x*r"), 0)
        assert info["divided"] is True
        assert sols[1] == E.parse_expression("z - 1/2*x^2", V3)


class TestMonodromy:
    def test_one_kernel_per_field(self):
        X = F.parse_field("y*p - x*q", V2)
        FL._rk4_kernel.cache_clear()
        period, _ = FL.monodromy_period(X, F.Point((1.0, 0.5)), t_max=8.0,
                                        steps=4000, seed=0)
        assert period is not None
        info = FL._rk4_kernel.cache_info()
        assert info.misses == 1 and info.hits > 0

    def test_one_integration_per_start(self, monkeypatch):
        # minima are found on the recorded samples: nothing is re-integrated,
        # and the starts are those the cross-check of an exact period uses
        X = fld("y*p - x*q", V2)
        calls = _count_steps(monkeypatch)
        period, diag = FL.monodromy_period(X, F.Point((1.0, 0.5)), t_max=8.0,
                                           steps=4000, seed=0)
        assert abs(period - 2 * math.pi) < 1e-6
        assert [steps for _, steps in calls] == [4000] * 8
        starts = [coords for coords, _ in calls]
        assert [coords for coords, _, _ in diag] == starts
        calls.clear()
        FL.return_misses(X, F.Point((1.0, 0.5)), period, 1e-6, seed=0)
        assert list(dict.fromkeys(coords for coords, _ in calls)) == starts

    def test_gives_up_after_starts_at_rest(self, monkeypatch):
        # every start moves less than 10*tol: eight starts are tried, not 160
        X = fld("-(y + x^2)*p + (x + 2*x*y + 2*x^3)*q", V2)
        calls = _count_steps(monkeypatch)
        period, diag = FL.monodromy_period(X, F.Point((0.5, 0.5)), t_max=8.0, tol=10.0,
                                           steps=100, seed=0)
        assert period is None
        assert [(t, d) for _, t, d in diag] == [(None, 0.0)] * 8
        assert len(calls) == 8

    def test_circle_period(self):
        period, _ = FL.monodromy_period(fld("y*p - x*q", V2), F.Point((1.0, 0.5)),
                                        t_max=10.0, steps=20000, seed=3)
        assert period is not None
        assert abs(period - 2 * math.pi) < 1e-6

    def test_shear_never_returns(self):
        X = fld("(y - x)*r")
        period, diag = FL.monodromy_period(X, F.Point((0.3, 0.8, 0.0)),
                                           t_max=100.0, steps=20000, seed=3)
        assert period is None
        assert diag  # min-distance diagnostics recorded

    def test_spiral_never_returns(self):
        X = fld("y*p - x*q + 1/2*(x*p + y*q)", V2)
        period, _ = FL.monodromy_period(X, F.Point((0.5, 0.1)), t_max=50.0,
                                        steps=20000, seed=5)
        assert period is None

    def test_classification_agreement_on_linear_fields(self):
        # cross-module soundness on the three example matrices plus 20 random
        # rational ones: Periodic matrices return at 2*pi/omega within 1e-5,
        # Spiral/Nilpotent/RealHyperbolic ones never return up to t_max = 50
        from liefields import mobility as M
        rng = random.Random(9)
        cases = [
            [[0, -1], [1, 0]],
            [[Fraction(1, 2), -1], [1, Fraction(1, 2)]],
            [[0, 1], [0, 0]],
            [[0, -4], [1, 0]],
            [[0, -2, 0], [2, 0, 0], [0, 0, 0]],
        ]
        for _ in range(10):
            cases.append([[Fraction(rng.randint(-3, 3)) for _ in range(2)]
                          for _ in range(2)])
        for _ in range(10):
            cases.append([[Fraction(rng.randint(-2, 2)) for _ in range(3)]
                          for _ in range(3)])
        for M2 in cases:
            n = len(M2)
            cls = M.classify_linear_one_param(M2)
            coeffs = []
            for i in range(n):
                acc = E.ZERO
                for j in range(n):
                    acc = E.add(acc, E.mul(E.const(Fraction(M2[i][j])), E.var(j)))
                coeffs.append(acc)
            X = F.VectorField(n, tuple(coeffs))
            start = F.Point(tuple(0.4 + 0.15 * k for k in range(n)))
            period, _ = FL.monodromy_period(X, start, t_max=50.0, steps=12000, seed=4)
            if cls.tag == "Periodic":
                assert period is not None
                assert abs(period - 2 * math.pi / cls.omega) < 1e-5
            elif cls.tag in ("Spiral", "Nilpotent", "RealHyperbolic"):
                assert period is None, (M2, cls)


def _count_steps(monkeypatch) -> list:
    """Record (start coordinates, steps) of every numeric_flow call from here on."""
    calls, flow = [], FL.numeric_flow

    def counted(X, x0, t, steps, *args, **kwargs):
        calls.append((F._as_point(x0).coords, steps))
        return flow(X, x0, t, steps, *args, **kwargs)

    monkeypatch.setattr(FL, "numeric_flow", counted)
    return calls


class TestReturnMisses:
    """The cross-check of an exact period doubles the RK4 steps from 1,000
    until the step-doubling estimate settles each miss against tol."""

    ROTATION = fld("-y*p + x*q", V2)

    def _miss(self, steps):
        end = FL.numeric_flow(self.ROTATION, F.Point((1, 0)), 2 * math.pi, steps).endpoint
        return max(abs(end[0] - 1), abs(end[1]))

    def test_periodic_catalog_claims_stop_at_two_rungs(self, monkeypatch):
        # both claims are decided exactly, so every integration is the cross-check
        calls = _count_steps(monkeypatch)
        for eid in ("ex94-24", "ex95-30-7"):
            [check] = CAT.verify_entry(CAT.entry_by_id(eid), seed=0, checks=("monodromy",)).checks
            assert check.status == "pass" and check.diagnostics.endswith("(8 starts within 1e-6)")
        per_start = {}
        for coords, steps in calls:
            per_start[coords] = per_start.get(coords, 0) + steps
        assert len(per_start) == 16
        assert max(per_start.values()) <= 3000

    def test_wrong_period_is_rejected_early(self, monkeypatch):
        from liefields import mobility as M
        exact = M._exact_period

        def stretched(*args):
            omega_squared, note = exact(*args)
            return omega_squared / (1 + 1e-4) ** 2, note

        monkeypatch.setattr(M, "_exact_period", stretched)
        calls = _count_steps(monkeypatch)
        L = CAT.entry_by_id("ex95-30-7").presentation()
        start = F.Point((Fraction(1, 2), Fraction(9, 14)))
        with pytest.raises(M.ReturnMismatch, match=r"period 6\.283813626, but a start misses "
                                                   r"by 5\.707e-04"):
            M.return_period(L, L.generators[0], [Fraction(1)], start, scale=0.5)
        assert [steps for _, steps in calls] == [1000, 2000] * 8

    def test_ladder_doubles_until_the_estimate_passes(self, monkeypatch):
        # at 2,000 steps the estimate is about 8e-11; at 4,000 about 5e-12
        calls = _count_steps(monkeypatch)
        [miss] = FL.return_misses(self.ROTATION, (1, 0), 2 * math.pi, 1e-11, starts=1)
        assert [steps for _, steps in calls] == [1000, 2000, 4000]
        expected = self._miss(4000) + abs(self._miss(4000) - self._miss(2000))
        assert miss == expected < 1e-11

    def test_steps_cap_the_ladder(self, monkeypatch):
        calls = _count_steps(monkeypatch)
        [miss] = FL.return_misses(self.ROTATION, (1, 0), 2 * math.pi, 1e-14, steps=5000,
                                  starts=1)
        assert [steps for _, steps in calls] == [1000, 2000, 4000, 5000]
        assert miss == self._miss(5000)

    def test_few_steps_are_one_rung(self, monkeypatch):
        calls = _count_steps(monkeypatch)
        [miss] = FL.return_misses(self.ROTATION, (1, 0), 2 * math.pi, 1e-6, steps=5,
                                  starts=1)
        assert [steps for _, steps in calls] == [5]
        assert miss == self._miss(5) > 1e-6

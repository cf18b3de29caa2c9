import random
from fractions import Fraction

import numpy as np
import pytest

from liefields import algebra as A, catalog as CAT, exactla, expr as E, invariants as I
from liefields import fields as F
from liefields import flows as FL
from test_sums import ref_pair_invariant_pullbacks


V3 = ["x", "y", "z"]
V2 = ["x", "y"]
PV2 = F.point_var_names(V3, 2)


def pres(name, gens, vars=V3, params=()):
    return A.presentation(name, vars, gens, params)


@pytest.fixture(scope="module")
def euclid():
    return pres("euclid", ["p", "q", "r", "x*q - y*p", "y*r - z*q", "z*p - x*r"])


def invariant_exists_by_prolongation(L, seed=0, param_values=None):
    """Reference for the isotropy rank: the differential-prolonged generators
    leave a common invariant iff their sampled generic rank at (x, x') stays
    below 2n. A point with x' = 0, the origin among them, can only lower the
    sampled maximum."""
    prolonged = [F.prolong_differentials(g) for g in L.generators]
    rank, _ = F.generic_rank(prolonged, seed=seed, param_values=param_values)
    return rank < 2 * L.dim


def cand(text, vars=V3, s=2, params=()):
    names = F.point_var_names(vars, s)
    return I.InvariantCandidate(s, E.parse_expression(text, names, params))


class TestVerifyJointInvariant:
    def test_euclid_distance_proven(self, euclid):
        out = I.verify_joint_invariant(euclid, cand("(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2"))
        assert out.verdict is I.Verdict.PROVEN

    def test_group_11_parabolic_invariant(self):
        g11 = pres("g11", ["p", "q", "r", "x*q + y*r", "2*x*p + y*q",
                           "x^2*p + x*y*q + 1/2*y^2*r"])
        out = I.verify_joint_invariant(g11, cand("z2 - z1 - 1/2*(y2-y1)^2*(x2-x1)^-1"))
        assert out.verdict is I.Verdict.PROVEN

    def test_refuted_with_rotation_witness(self, euclid):
        out = I.verify_joint_invariant(euclid, cand("x2 - x1"))
        assert out.verdict is I.Verdict.REFUTED
        assert out.witness_generator == 3  # the x-y rotation
        residual = out.witness_residual
        target = E.parse_expression("-(y2 - y1)", PV2)
        assert E.is_identically_zero(E.add(residual, E.neg(target))) is E.Zeroness.YES

    def test_numeric_mode(self, euclid):
        out = I.verify_joint_invariant(
            euclid, cand("(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2"), mode="numeric")
        assert out.verdict is I.Verdict.NUMERICALLY_SUPPORTED

    def test_domain_exhaustion_reported(self, euclid):
        # the sqrt survives differentiation and its argument is negative
        # everywhere, so no configuration is ever in-domain
        out_of_domain = cand("sqrt(-1 - (x1-x2)^2)")
        with pytest.raises(I.DomainExhausted):
            I.verify_joint_invariant(euclid, out_of_domain, mode="numeric")

    def test_flow_conservation_of_proven_invariant(self, euclid):
        # Proven invariants drift < 1e-6 along prolonged flows over t in [0,1]
        J = cand("(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2")
        rng = random.Random(5)
        for g in euclid.generators:
            prolonged = F.prolong_points(g, 2)
            start = tuple(rng.uniform(-1, 1) for _ in range(6))
            traj = FL.numeric_flow(prolonged, F.Point(start), 1.0, 10000,
                                   tracked={"J": J.body})
            assert traj.drift["J"] < 1e-6

    def test_group_11_invariant_equal_along_flow_step(self):
        # two random point pairs related by a flow of a group generator agree
        g11 = pres("g11", ["p", "q", "r", "x*q + y*r", "2*x*p + y*q",
                           "x^2*p + x*y*q + 1/2*y^2*r"])
        J = cand("z2 - z1 - 1/2*(y2-y1)^2*(x2-x1)^-1")
        rng = random.Random(11)
        for gen in (g11.generators[4], g11.generators[5]):
            prolonged = F.prolong_points(gen, 2)
            start = tuple(rng.uniform(0.2, 1.0) for _ in range(6))
            before = E.evaluate_numeric(J.body, list(start))
            end = FL.numeric_flow(prolonged, F.Point(start), 0.08, 4000).endpoint
            after = E.evaluate_numeric(J.body, list(end))
            assert abs(after - before) < 1e-9


def per_sample_verify(L, J, mode="symbolic", seed=0, param_values=None):
    """The reference: verify_joint_invariant as it was before the annihilation
    fact. Every residual is rebuilt from the specialised generators and J and
    zero-tested for each sample of the parameters."""
    body = E.substitute_params(J.body, param_values) if param_values else J.body
    residuals = []
    for g in L.generators:
        g = F.prolong_points(F.substitute_params(g, param_values), J.s)
        residuals.append(F.apply_to_function(g, body))
    pending = []
    if mode == "symbolic":
        for k, res in enumerate(residuals):
            z = E.is_identically_zero(res, seed=seed)
            if z is E.Zeroness.NO:
                value = I._witness_value(res, L.dim * J.s, seed, param_values)
                return I.VerificationOutcome(I.Verdict.REFUTED, k, res, value)
            if z is E.Zeroness.UNKNOWN:
                pending.append(k)
        if not pending:
            return I.VerificationOutcome(I.Verdict.PROVEN)
        check = [residuals[k] for k in pending]
    else:
        pending = list(range(len(residuals)))
        check = residuals
    rng = random.Random(seed)
    pidx = set()
    for res in check:
        pidx |= E.used_params(res)
    params = {j: float(F.random_nonspecial_rational(rng)) for j in pidx}
    if param_values:
        params.update({j: float(v) for j, v in param_values.items()})
    for _ in range(I._NUM_CONFIGS):
        coords, values = I._sample_in_domain(check, L.dim * J.s, rng, params)
        for k, v in zip(pending, values):
            if abs(v) >= I._NUM_TOL:
                return I.VerificationOutcome(I.Verdict.REFUTED, k, residuals[k], v)
    return I.VerificationOutcome(I.Verdict.NUMERICALLY_SUPPORTED)


@pytest.fixture(scope="module")
def spiral():
    """ex90-62a: translations and a rotation with dilation, parameter c."""
    return CAT.entry_by_id("ex90-62a")


def both(L, J, seed=0, param_values=None):
    """The outcome through the annihilation fact and through the reference."""
    return (I.verify_joint_invariant(L, J, seed=seed, param_values=param_values),
            per_sample_verify(L, J, seed=seed, param_values=param_values))


class TestAnnihilationFact:
    """verify_joint_invariant decides through one fact over Q(params) and
    gives the per-sample reference's outcome, witness included."""

    @pytest.mark.parametrize("seed", [0, 7, 2])
    def test_catalog_matches_per_sample_reference(self, seed):
        compared = 0
        for entry in CAT.builtin_entries():
            L, invariants = entry.presentation(), entry.parsed_invariants()
            samples = [None] + entry.param_value_maps() + [
                {entry.params.index(k): v for k, v in case.param_values.items()}
                for case in entry.boundary]
            for J in invariants:
                fact = I.annihilation(L, J)
                for pv in samples:
                    pv = pv or None
                    want = per_sample_verify(L, J, seed=seed, param_values=pv)
                    got = I.verify_joint_invariant(L, J, seed=seed, param_values=pv, fact=fact)
                    assert got == want, (entry.id, pv)
                    compared += 1
        assert compared >= 75   # every (entry, J, sample or boundary case)

    def test_invariant_only_at_c_zero(self, spiral):
        # J + c*x1: the fact's images vanish at c = 0 only
        L = spiral.presentation()
        [J] = spiral.parsed_invariants()
        shifted = I.InvariantCandidate(2, E.add(J.body, E.mul(E.param(0), E.var(0))))
        fact = I.annihilation(L, shifted)
        assert all(I._annihilates(fact, {0: Fraction(0)}))
        got, want = both(L, shifted, param_values={0: Fraction(0)})
        assert got == want and got.verdict is I.Verdict.PROVEN
        got, want = both(L, shifted, param_values={0: Fraction(1)})
        assert got.verdict is I.Verdict.REFUTED and got.witness_generator == 0
        assert got == want   # generator, residual and witness value

    def test_vanishing_clearing_monomial_takes_the_residual_path(self, monkeypatch):
        # d/dx sqrt(u) carries sqrt(u)^-1, so M holds sqrt(c*(x1 - x2)),
        # which is 0 at c = 0: there the residuals decide, elsewhere the fact
        L = pres("translations", ["p", "q"], vars=V2)
        J = cand("sqrt(c*x1 - c*x2) + x2 - x1", vars=V2, params=("c",))
        built = []
        monkeypatch.setattr(F, "apply_to_function",
                            lambda X, f, apply=F.apply_to_function: built.append(X) or apply(X, f))
        for c, residuals in ((0, 2), (1, 0), (Fraction(-1, 2), 0)):
            built.clear()
            out = I.verify_joint_invariant(L, J, param_values={0: Fraction(c)})
            assert len(built) == residuals, c
            assert out == per_sample_verify(L, J, param_values={0: Fraction(c)})
            assert out.verdict is I.Verdict.PROVEN

    def test_parameter_factor_of_the_clearing_monomial(self):
        # M holds c itself: at c = 0 the candidate is undefined and raises as
        # the reference does; at c = 2 the fact refutes it like the reference
        L = pres("translations", ["p", "q"], vars=V2)
        J = cand("(x2 - x1)*c^-1 + c*y1", vars=V2, params=("c",))
        with pytest.raises(ZeroDivisionError):
            I.verify_joint_invariant(L, J, param_values={0: Fraction(0)})
        with pytest.raises(ZeroDivisionError):
            per_sample_verify(L, J, param_values={0: Fraction(0)})
        got, want = both(L, J, param_values={0: Fraction(2)})
        assert got == want and got.verdict is I.Verdict.REFUTED and got.witness_generator == 1

    def test_transcendental_unknown_goes_numeric(self):
        # J vanishes, but its residual is not 0 as a polynomial in its
        # function nodes: the zero test says UNKNOWN and the numeric check decides
        L = pres("line", ["p"], vars=["x"])
        J = cand("sqrt((x1^2 + 1)*(x2^2 + 1)) - sqrt(x1^2 + 1)*sqrt(x2^2 + 1)", vars=["x"])
        got, want = both(L, J)
        assert got == want and got.verdict is I.Verdict.NUMERICALLY_SUPPORTED

    @pytest.mark.parametrize("text", ["x2 - x1", "(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2 + z1",
                                      "log((x1-x2)^2 + 1)*x1^-1"])
    def test_refuted_witness_matches_reference(self, euclid, text):
        for seed in (0, 3):
            got, want = both(euclid, cand(text), seed=seed)
            assert got == want and got.verdict is I.Verdict.REFUTED

    def test_one_fact_per_attached_invariant(self, monkeypatch):
        # whatever the number of parameter samples and boundary cases
        built = []
        monkeypatch.setattr(I, "annihilation",
                            lambda L, J, make=I.annihilation: built.append(J) or make(L, J))
        for entry in CAT.builtin_entries():
            built.clear()
            CAT.verify_entry(entry, seed=0)
            assert built == entry.parsed_invariants(), entry.id


TRANSITIVE_IDS = [e.id for e in CAT.builtin_entries() if e.expected.transitive]


def sampled_row_rank(mats, n, draws=8, seed=0):
    """Reference: the largest rank of the rows (J_k v)^T over random rational v."""
    rng = random.Random(seed)
    best = 0
    for _ in range(draws):
        v = [F.random_rational(rng) for _ in range(n)]
        rows = [[sum((J[nu][mu].constant_value() * v[mu] for mu in range(n)), Fraction(0))
                 for nu in range(n)] for J in mats]
        if rows:
            best = max(best, exactla.rank(rows))
    return best


class TestInfinitesimalInvariants:
    def test_group_22_has_differential_invariant(self):
        g22 = pres("g22", ["q", "x*q + r", "x^2*q + 2*x*r", "x^3*q + 3*x^2*r",
                           "p", "x*p - z*r"])
        assert I.infinitesimal_invariant_exists(g22) is True
        assert A.joint_invariant_count(g22, 2) == 0
        names = F.differential_var_names(V3)
        body = E.parse_expression("dy - z*dx", names)
        for g in g22.generators:
            res = F.apply_to_function(F.prolong_differentials(g), body)
            assert E.is_identically_zero(res) is E.Zeroness.YES

    def test_planar_similarity_group(self):
        sim = pres("sim", ["p", "q", "x*p + y*q"], vars=V2)
        assert I.infinitesimal_invariant_exists(sim) is True

    def test_full_planar_affine_has_none(self):
        aff = pres("aff", ["p", "q", "x*p", "x*q", "y*p", "y*q"], vars=V2)
        assert I.infinitesimal_invariant_exists(aff) is False

    def test_intransitive_shortcut(self):
        line = pres("line", ["q", "x*q", "x^2*q"])
        assert I.infinitesimal_invariant_exists(line) is True

    @pytest.mark.parametrize("gens", [["p", "q"], ["p", "x*p + q"]])
    def test_simply_transitive_has_one(self, gens):
        # no isotropy, so no row: rank 0 < n, and dx, dy are invariants
        L = pres("simple", gens, vars=V2)
        assert A.isotropy_at_point(L, F.Point((Fraction(1, 2), 3))).linear_isotropy == ()
        assert I.infinitesimal_invariant_exists(L) is True
        assert invariant_exists_by_prolongation(L) is True

    def test_isotropy_rank_makes_no_draws(self, monkeypatch):
        # one exact elimination over Q(x'): nothing is drawn
        def no_draws(rng):
            raise AssertionError("the isotropy rank drew a random number")

        monkeypatch.setattr(F, "random_rational", no_draws)
        monkeypatch.setattr(F, "random_coordinate", no_draws)
        thm37_1 = CAT.entry_by_id("thm37-1").presentation()
        report = A.isotropy_at_point(thm37_1, F.Point((Fraction(1, 2), Fraction(-1, 3), 2)))
        assert len(report.linear_isotropy) == 3
        assert I._isotropy_row_rank(report) == 2  # below n = 3: an invariant exists
        aff = pres("aff", ["p", "q", "x*p", "x*q", "y*p", "y*q"], vars=V2)
        report = A.isotropy_at_point(aff, F.Point((Fraction(2, 3), -1)))
        assert len(report.linear_isotropy) == 4
        assert I._isotropy_row_rank(report) == 2  # rank n: none exists

    @pytest.mark.parametrize("entry_id", TRANSITIVE_IDS)
    def test_exact_rank_agrees_with_sampled_rank(self, entry_id):
        # the rank over Q(x') is the generic rank of the rows (J_k v)^T at
        # rational v, which eight draws reach; at every parameter sample
        entry = CAT.entry_by_id(entry_id)
        L = entry.presentation()
        for pv in entry.param_value_maps():
            report = I._generic_isotropy(L, 0, pv or None)
            exact = I._isotropy_row_rank(report)
            assert exact == sampled_row_rank(report.linear_isotropy, L.dim), (entry_id, pv)
            if entry.expected.infinitesimal_invariant is not None:
                assert (exact < L.dim) == entry.expected.infinitesimal_invariant, (entry_id, pv)

    def test_agreement_with_prolongation_route_across_catalog(self):
        from liefields import catalog as CAT
        for entry in CAT.builtin_entries():
            if entry.expected.infinitesimal_invariant is None:
                continue
            L = entry.presentation()
            for pv in entry.param_value_maps()[:1]:
                a = I.infinitesimal_invariant_exists(L, param_values=pv or None)
                b = invariant_exists_by_prolongation(L, param_values=pv or None)
                assert a == b == entry.expected.infinitesimal_invariant, entry.id

    def test_theorem_44_direction_across_catalog(self):
        # a pair invariant forces an invariant of infinitely-near points
        from liefields import catalog as CAT
        for entry in CAT.builtin_entries():
            if (entry.expected.pair_invariant_count or 0) < 1:
                continue
            L = entry.presentation()
            for pv in entry.param_value_maps()[:1]:
                assert I.infinitesimal_invariant_exists(L, param_values=pv or None), entry.id


class TestArcLength:
    def test_similarity_group_fails(self):
        sim = pres("sim", ["p", "q", "x*p + y*q"], vars=V2)
        assert I.arc_length_invariant_exists(sim) is False

    def test_euclid_passes(self, euclid):
        assert I.arc_length_invariant_exists(euclid) is True

    @pytest.mark.parametrize("gens", [["p", "q"], ["p", "x*p + q"]])
    def test_simply_transitive_passes(self, gens):
        # the identity is no combination of an empty isotropy
        assert I.arc_length_invariant_exists(pres("simple", gens, vars=V2)) is True

    def test_rotation_with_dilation_passes(self):
        rotc = pres("rotc", ["p", "q", "y*p - x*q + c*(x*p + y*q)"], vars=V2,
                    params=["c"])
        assert I.arc_length_invariant_exists(rotc, param_values={0: Fraction(1, 2)}) is True


class TestEssential:
    def test_euclid_three_points_not_essential(self, euclid):
        J = cand("(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2")
        assert I.essential_invariant_check(euclid, 3, pair_invariants=[J]) is False

    def test_group_11_not_essential(self):
        g11 = pres("g11", ["p", "q", "r", "x*q + y*r", "2*x*p + y*q",
                           "x^2*p + x*y*q + 1/2*y^2*r"])
        J = cand("z2 - z1 - 1/2*(y2-y1)^2*(x2-x1)^-1")
        assert I.essential_invariant_check(g11, 3, pair_invariants=[J]) is False

    def test_translation_family_is_essential(self):
        # 6 generators leave 3 = 9 - 6 three-point invariants but only two
        # independent pullbacks of x_j - x_i: an essential invariant remains
        g21 = pres("g21", ["q", "x*q + r", "x^2*q + 2*x*r", "x^3*q + 3*x^2*r",
                           "x^4*q + 4*x^3*r", "p"])
        J = cand("x2 - x1")
        assert A.joint_invariant_count(g21, 3) == 3
        assert I.essential_invariant_check(g21, 3, pair_invariants=[J]) is True

    def test_missing_pair_invariant_raises(self, euclid):
        with pytest.raises(I.MissingPairInvariant):
            I.essential_invariant_check(euclid, 3)


def full_gradient_rank(bodies, nvars, seed, params=None):
    """Reference: the largest rank over all 8 configurations, no early stop."""
    grads = [[E.differentiate(b, v) for v in range(nvars)] for b in bodies]
    exact = all(not E.contains_fn(d) for row in grads for d in row)
    rng = random.Random(seed)
    best = 0
    configs = 0
    attempts = 0
    while configs < 8 and attempts < 400:
        attempts += 1
        if exact:
            coords = F.sample_point(nvars, rng)
            try:
                matrix = [E.evaluate_exact(row, coords, params) for row in grads]
            except (E.DomainError, E.NonPolynomialError):
                continue
            best = max(best, exactla.rank(matrix))
        else:
            coords = [rng.uniform(-2, 2) for _ in range(nvars)]
            fparams = {j: float(v) for j, v in (params or {}).items()}
            try:
                matrix = np.array(
                    [[E.evaluate_numeric(d, coords, fparams) for d in row] for row in grads])
            except (E.DomainError, OverflowError):
                continue
            scale = np.abs(matrix).max(axis=1, keepdims=True)
            scale[scale == 0] = 1.0
            sv = np.linalg.svd(matrix / scale, compute_uv=False)
            best = max(best, int(np.sum(sv > I._NUM_TOL)))
        configs += 1
    return best


@pytest.fixture
def rank_calls(monkeypatch):
    """Counts the exact rank evaluations, one per configuration drawn."""
    calls = []
    rank = exactla.rank

    def counting(matrix, *args):
        calls.append(len(matrix))
        return rank(matrix, *args)

    monkeypatch.setattr(exactla, "rank", counting)
    return calls


def pullback_rank(pair_invariants, n, s, seed, params=None):
    """Reference: the rank of the built s-point pullbacks, all 8
    configurations."""
    bodies = [b for J in pair_invariants for b in ref_pair_invariant_pullbacks(J, n, s)]
    return full_gradient_rank(bodies, n * s, seed, params)


class TestGradientRank:
    """The scattered gradient of each J gives the rank of its built
    pullbacks. Sampling stops once the rank reaches min(rows, cols); below
    that ceiling all 8 configurations are drawn, as before."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_catalog_calls_match_full_sampling(self, seed, monkeypatch):
        calls = []
        stopping = I._gradient_rank

        def recording(pair_invariants, n, s, seed, params=None):
            rank = stopping(pair_invariants, n, s, seed, params)
            calls.append((pair_invariants, n, s, seed, params, rank))
            return rank

        monkeypatch.setattr(I, "_gradient_rank", recording)
        CAT.verify_catalog(seed=seed, checks=("essential_3pt",))
        monkeypatch.undo()
        assert len(calls) == 44
        below = 0
        for pair_invariants, n, s, sd, params, rank in calls:
            assert rank == pullback_rank(pair_invariants, n, s, sd, params)
            rows = len(pair_invariants) * s * (s - 1) // 2
            below += rank < min(rows, n * s)
        assert below == 3

    def test_stops_at_ceiling(self, rank_calls):
        pair = [cand(t) for t in ("x1 - x2", "y1*z2", "z1 + z2^2")]
        assert I._gradient_rank(pair, 3, 2, seed=0) == 3
        assert len(rank_calls) == 1

    def test_dependent_pullbacks_draw_all_configurations(self, rank_calls):
        J = cand("(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2")
        pair = [J, I.InvariantCandidate(2, E.mul(J.body, J.body))]
        assert I._gradient_rank(pair, 3, 2, seed=0) == 1
        assert len(rank_calls) == 8

    def test_catalog_pullbacks_below_ceiling_draw_all_configurations(self, rank_calls):
        entry = CAT.entry_by_id("ex94-21")
        L = entry.presentation()
        pair = entry.parsed_invariants()
        assert (len(pair) * 3, 3 * L.dim) == (3, 9)
        assert I._gradient_rank(pair, L.dim, 3, seed=0) == 2
        assert len(rank_calls) == 8

    def test_numeric_path_matches_pullbacks(self):
        for text in ("log((x1-x2)^2 + 1) + atan(y2) + z1*z2",
                     "((x2-x1)^2 + (y2-y1)^2)*exp(-z1 - z2)"):
            J = cand(text)
            for s, seed in ((2, 0), (3, 1), (4, 2)):
                assert I._gradient_rank([J], 3, s, seed) == pullback_rank([J], 3, s, seed)

    def test_shared_exp_node_is_divided_out(self, rank_calls):
        # every entry of the gradient of P*e^g carries e^g; the rows are
        # ranked exactly once it is divided out
        J = cand("((x2-x1)^2 + (y2-y1)^2)*exp(-z1 - z2)")
        assert I._gradient_rank([J], 3, 3, seed=0) == 3
        assert rank_calls

    def test_node_not_in_every_entry_raises(self):
        with pytest.raises(E.NonPolynomialError):
            I._gradient_rank([cand("exp(x1) + y2")], 3, 3, seed=0)

    def test_rejects_invariants_of_other_point_counts(self):
        with pytest.raises(ValueError):
            I._gradient_rank([cand("x1 + x2 + x3", s=3)], 3, 3, seed=0)


class TestPseudospheres:
    def test_three_centers_cut_to_points(self, euclid):
        # triple pseudosphere intersections are generically finite: the
        # gradients of the three level functions are independent
        J = cand("(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2")
        centers = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        bodies = []
        for cx, cy, cz in centers:
            mapping = {0: E.const(cx), 1: E.const(cy), 2: E.const(cz),
                       3: E.var(0), 4: E.var(1), 5: E.var(2)}
            bodies.append(E.substitute_vars(J.body, mapping))
        assert full_gradient_rank(bodies, 3, seed=1) == 3

import pathlib
from fractions import Fraction

import pytest

from liefields import algebra as A, algfile, catalog as CAT, exactla, expr as E
from liefields import fields as F


V3 = ["x", "y", "z"]
EUCLID = ["p", "q", "r", "x*q - y*p", "y*r - z*q", "z*p - x*r"]


def pres(name, gens, vars=V3, params=()):
    return A.presentation(name, vars, gens, params)


@pytest.fixture(scope="module")
def euclid():
    return pres("euclid", EUCLID)


class TestClosure:
    def test_euclid_closes_with_expected_constant(self, euclid):
        C = A.check_closure(euclid)
        # [yr - zq, zp - xr] lands on the (zp - xr)... slot of xq - yp with -1:
        # frozen from the hand expansion [X5, X6] = -(x q - y p)? verify sign:
        b = F.bracket(euclid.generators[4], euclid.generators[5])
        assert b == -euclid.generators[3]
        assert C.c[4][5][3] == E.const(-1)

    def test_bracket_of_rotations_constant_slot(self, euclid):
        # [xq - yp, yr - zq] = x r - z p = -(z p - x r)
        C = A.check_closure(euclid)
        assert C.c[3][4][5] == E.const(-1)
        assert all(C.c[3][4][s].is_zero for s in range(5))

    def test_not_closed_reports_residual(self):
        bad = pres("bad", ["p", "x*q"])
        with pytest.raises(A.NotClosedError) as err:
            A.check_closure(bad)
        assert err.value.residual == F.parse_field("q", V3)

    def test_parameter_dependent_constants(self):
        g38 = pres("g38", ["p", "q", "x*p + r", "y*q + c*r",
                           "x^2*p + 2*x*r", "y^2*q + 2*c*y*r"], params=["c"])
        C = A.check_closure(g38)
        assert A.verify_structure(C)
        # [q, y^2 q + 2cyr] = 2yq + 2cr = 2 (yq + cr)
        assert C.c[1][5][3] == E.const(2)


def reference_closure(L):
    """One elimination per bracket, each with the rows of the monomials seen
    so far. Returns the table c[j][k][s]; raises NotClosedError at the first
    pair that leaves the span."""
    n, r = L.dim, L.order
    key_index = {}

    def coefficients(X):
        col = {}
        for i in range(n):
            for expo, coeff in E.poly_coefficients(X.coeffs[i], n).items():
                col[key_index.setdefault((i, expo), len(key_index))] = coeff
        return col

    columns = [coefficients(g) for g in L.generators]
    table = [[[E.ZERO] * r for _ in range(r)] for _ in range(r)]
    for j in range(r):
        for k in range(j + 1, r):
            B = F.bracket(L.generators[j], L.generators[k])
            side = coefficients(B)
            aug = [[col.get(row, E.ZERO) for col in columns] + [side.get(row, E.ZERO)]
                   for row in range(len(key_index))]
            rows, pivots = exactla.rref(aug, exactla.EXPR_OPS, max_col=r)
            constants = [E.ZERO] * r
            for i, pc in enumerate(pivots):
                constants[pc] = rows[i][r]
            combo = F.VectorField(n, (E.ZERO,) * n)
            for s, cs in enumerate(constants):
                if not cs.is_zero:
                    combo = combo + (cs * L.generators[s])
            residual = B - combo
            if not residual.is_zero:
                raise A.NotClosedError(j, k, residual)
            for s, cs in enumerate(constants):
                table[j][k][s] = cs
                table[k][j][s] = E.neg(cs)
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def prolonged(L, s=2):
    return A.LieAlgebraPresentation(
        f"{L.name}^{s}", tuple(F.point_var_names(L.vars, s)), L.params,
        tuple(F.prolong_points(g, s) for g in L.generators))


class TestOneClosureElimination:
    """check_closure solves every bracket in one elimination; each bracket
    must get the constants, term for term, of its own solve."""

    @pytest.mark.parametrize("entry", CAT.builtin_entries(), ids=lambda e: e.id)
    def test_catalog_and_prolongation_match_per_bracket_solves(self, entry):
        L = entry.presentation()
        for P in (L, prolonged(L)):
            try:
                want = reference_closure(P)
            except A.NotClosedError as err:
                with pytest.raises(A.NotClosedError) as got:
                    A.check_closure(P)
                assert (got.value.j, got.value.k, got.value.residual) == (
                    err.j, err.k, err.residual)
                continue
            assert A.check_closure(P).c == want

    def test_not_closed_reports_the_first_failing_pair(self):
        # [X1, X2] = 2x q and [X2, X3] = 2x^2 y p - 2x y^2 q leave the span,
        # on monomials no generator has; [X1, X3] = 0 closes
        bad = pres("bad", ["p", "x^2*q", "y^2*p"])
        with pytest.raises(A.NotClosedError) as want:
            reference_closure(bad)
        with pytest.raises(A.NotClosedError) as got:
            A.check_closure(bad)
        assert (got.value.j, got.value.k) == (want.value.j, want.value.k) == (0, 1)
        assert got.value.residual == want.value.residual == F.parse_field("2*x*q", V3)

    def test_one_elimination_per_presentation(self, euclid, monkeypatch):
        calls = []
        real = exactla.rref
        monkeypatch.setattr(exactla, "rref", lambda *a, **k: calls.append(1) or real(*a, **k))
        A.check_closure(euclid)
        assert len(calls) == 1


SHIFTED_THM37_6 = pathlib.Path(__file__).resolve().parent / "data" / "thm37-6-shifted.alg"


class TestClosureZeroTest:
    """A residual over Q(c) is zero when the zero test says so, not only when
    its terms cancel syntactically."""

    def test_thm37_6_in_shifted_coordinates_closes_with_its_constants(self):
        shifted = algfile.load_algebra_file(str(SHIFTED_THM37_6)).presentation()
        got = A.check_closure(shifted)
        want = A.check_closure(CAT.entry_by_id("thm37-6").presentation())
        for j in range(6):
            for k in range(6):
                for s in range(6):
                    diff = E.add(got.c[j][k][s], E.neg(want.c[j][k][s]))
                    assert E.is_identically_zero(diff) is E.Zeroness.YES, (j, k, s)
        # some constant carries an inverted block that cancels only under the test
        assert got.c != want.c
        assert A.verify_structure(got)

    @staticmethod
    def zero_tests_after_elimination(monkeypatch, answer=None):
        """Record the zero tests that check_closure makes outside its
        elimination; answer, if given, replaces their result."""
        inside, outside = [False], []
        real_test, real_solve = E.is_identically_zero, exactla.solve

        def solve(*args):
            inside[0] = True
            try:
                return real_solve(*args)
            finally:
                inside[0] = False

        def test(e, seed=0):
            if inside[0]:
                return real_test(e, seed)
            outside.append(e)
            return answer or real_test(e, seed)

        monkeypatch.setattr(exactla, "solve", solve)
        monkeypatch.setattr(E, "is_identically_zero", test)
        return outside

    def test_cancelled_residuals_pay_no_zero_test(self, euclid, monkeypatch):
        outside = self.zero_tests_after_elimination(monkeypatch)
        A.check_closure(euclid)
        assert outside == []

    def test_undecided_residual_is_an_error(self, monkeypatch):
        outside = self.zero_tests_after_elimination(monkeypatch, E.Zeroness.UNKNOWN)
        with pytest.raises(E.ExprError):
            A.check_closure(pres("bad", ["p", "x*q"]))
        assert outside


class TestStructureVerification:
    def test_catalog_style_constants_pass(self, euclid):
        assert A.verify_structure(A.check_closure(euclid))

    def test_one_relation_sum_per_unordered_triple(self, monkeypatch):
        # C(6, 3) triples j < k < l times 6 values of t; all r^4 = 1,296 before
        C = A.check_closure(CAT.entry_by_id("thm37-1").presentation())
        calls = []
        real = E.add_many
        monkeypatch.setattr(E, "add_many", lambda terms: calls.append(1) or real(terms))
        assert A.verify_structure(C)
        assert len(calls) == 120

    def test_corrupted_antisymmetry_fails(self, euclid):
        C = A.check_closure(euclid)
        table = [[[C.c[j][k][s] for s in range(6)] for k in range(6)] for j in range(6)]
        table[3][4][5] = E.neg(table[3][4][5])  # only one side flipped
        broken = A.StructureConstants(6, tuple(tuple(tuple(r) for r in p) for p in table))
        assert not A.verify_structure(broken)


def dense_quadratic_relations(C):
    """Reference: every quadratic relation summed over all s, zeros included."""
    r = C.order
    for j in range(r):
        for k in range(r):
            for l in range(r):
                for t in range(r):
                    acc = E.ZERO
                    for s in range(r):
                        acc = E.add(acc, E.mul(C.c[k][l][s], C.c[j][s][t]))
                        acc = E.add(acc, E.mul(C.c[j][k][s], C.c[l][s][t]))
                        acc = E.add(acc, E.mul(C.c[l][j][s], C.c[k][s][t]))
                    if E.is_identically_zero(acc) is not E.Zeroness.YES:
                        return False
    return True


def shifted_constants(C, j, k, s):
    """C with 1 added to c_jk^s and c_kj^s kept its negative: still
    antisymmetric, so only the quadratic relations can reject it."""
    table = [[list(C.c[a][b]) for b in range(C.order)] for a in range(C.order)]
    table[j][k][s] = E.add(table[j][k][s], E.ONE)
    table[k][j][s] = E.neg(table[j][k][s])
    return A.StructureConstants(C.order, tuple(tuple(tuple(r) for r in p) for p in table))


class TestJacobi:
    def test_antisymmetric_corruption_rejected(self, euclid):
        # [p, q] = r breaks Jacobi for p, q and the rotation x q - y p
        broken = shifted_constants(A.check_closure(euclid), 0, 1, 2)
        assert not A.verify_structure(broken)
        assert not dense_quadratic_relations(broken)

    def test_sparse_sums_agree_with_dense(self, euclid):
        C = A.check_closure(euclid)
        verdicts = []
        for j, k, s in [(0, 1, 2), (0, 1, 0), (3, 4, 5), (0, 3, 1), (3, 4, 0), (1, 2, 0)]:
            broken = shifted_constants(C, j, k, s)
            verdicts.append(A.verify_structure(broken))
            assert verdicts[-1] == dense_quadratic_relations(broken), (j, k, s)
        assert False in verdicts

    def test_sparse_sums_agree_with_dense_across_catalog(self):
        verdicts = []
        for entry in CAT.builtin_entries():
            try:
                C = A.check_closure(entry.presentation())
            except A.NotClosedError:
                continue
            if C.order < 2:
                continue
            broken = shifted_constants(C, 0, 1, C.order - 1)
            verdicts.append(A.verify_structure(broken))
            assert verdicts[-1] == dense_quadratic_relations(broken), entry.id
        assert (len(verdicts), verdicts.count(False)) == (29, 26)


class TestTransitivity:
    def test_euclid(self, euclid):
        assert A.is_transitive(euclid)

    def test_line_family_is_not(self):
        assert not A.is_transitive(pres("line", ["q", "x*q", "x^2*q"]))

    def test_degenerate_58_parameters(self):
        g58 = pres("g58", ["p", "q", "x*p + y*q + a*r", "y*p - x*q + b*r",
                           "(x^2 - y^2)*p + 2*x*y*q + 2*(a*x - b*y)*r",
                           "2*x*y*p + (y^2 - x^2)*q + 2*(b*x + a*y)*r"],
                   params=["a", "b"])
        assert not A.is_transitive(g58, param_values={0: Fraction(0), 1: Fraction(0)})
        assert A.is_transitive(g58, param_values={0: Fraction(1), 1: Fraction(0)})


class TestIsotropy:
    def test_group_28_at_origin(self):
        g28 = pres("g28", ["p", "q", "x*q + r", "y*q + z*r", "x*p - z*r", "y*p - z^2*r"])
        rep = A.isotropy_at_point(g28, F.Point((0, 0, 0)))
        expected = [F.parse_field(s, V3)
                    for s in ["y*p - z^2*r", "x*p - y*q - 2*z*r", "x*p + y*q"]]
        assert len(rep.vanishing_fields) == 3
        assert F.span_equal(rep.vanishing_fields, expected)
        for X in rep.vanishing_fields:
            assert F.evaluate_exact_at([X], [0, 0, 0]) == [[0, 0, 0]]

    def test_euclid_rotations(self, euclid):
        rep = A.isotropy_at_point(euclid, F.Point((0, 0, 0)))
        assert F.span_equal(rep.vanishing_fields,
                            [F.parse_field(s, V3) for s in EUCLID[3:]])

    def test_group_24_last_three(self):
        g24 = pres("g24", ["p", "q", "x*p + y*q + r", "y*p - x*q",
                           "(x^2 - y^2)*p + 2*x*y*q + 2*x*r",
                           "2*x*y*p + (y^2 - x^2)*q + 2*y*r"])
        rep = A.isotropy_at_point(g24, F.Point((0, 0, 0)))
        assert F.span_equal(rep.vanishing_fields, list(g24.generators[3:]))


class TestLinearIsotropy:
    def test_group_24_matrices(self):
        g24 = pres("g24", ["p", "q", "x*p + y*q + r", "y*p - x*q",
                           "(x^2 - y^2)*p + 2*x*y*q + 2*x*r",
                           "2*x*y*p + (y^2 - x^2)*q + 2*y*r"])
        mats = A.linear_isotropy_group(g24, F.Point((0, 0, 0)))
        expected = [F.parse_field(s, V3) for s in ["y*p - x*q", "x*r", "y*r"]]
        linear_fields = A._reduced_basis(mats, 3)[3:]
        assert F.span_equal(linear_fields, expected)

    def test_euclid_rotation_matrices(self, euclid):
        mats = A.linear_isotropy_group(euclid, F.Point((0, 0, 0)))
        linear_fields = A._reduced_basis(mats, 3)[3:]
        assert F.span_equal(linear_fields,
                            [F.parse_field(s, V3) for s in EUCLID[3:]])

    def test_group_23_matrices_match_reduced_form(self):
        g23 = pres("g23", ["q", "p", "x*q + r", "x^2*q + 2*x*r",
                           "x*p + y*q + c*r", "x^2*p + 2*x*y*q + 2*(c*x + y)*r"],
                   params=["c"])
        mats = A.linear_isotropy_group(g23, F.Point((0, 0, 0)))
        linear_fields = A._reduced_basis(mats, 3)[3:]
        expected = [F.parse_field(s, V3, ["c"])
                    for s in ["x*r", "x*p + y*q - c*x*q", "y*r"]]
        stacked_a = [c for X in linear_fields for c in X.coeffs]
        stacked_b = [c for X in expected for c in X.coeffs]
        rows_a = [[E.poly_coefficients(c, 3).get(m, E.ZERO)
                   for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]] for c in stacked_a]
        rows_b = [[E.poly_coefficients(c, 3).get(m, E.ZERO)
                   for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]] for c in stacked_b]
        # same span over the parameter field: exact Expr-rank comparison
        flat_a = [sum(rows_a[i * 3:(i + 1) * 3], []) for i in range(len(linear_fields))]
        flat_b = [sum(rows_b[i * 3:(i + 1) * 3], []) for i in range(len(expected))]
        ra = exactla.rank(flat_a, exactla.EXPR_OPS)
        rb = exactla.rank(flat_b, exactla.EXPR_OPS)
        rab = exactla.rank(flat_a + flat_b, exactla.EXPR_OPS)
        assert ra == rb == rab == 3


REDUCED_TABLE = [
    # family, reduced form, optional parameter names
    (["q", "x*q + r", "x^2*q + 2*x*r", "x^3*q + 3*x^2*r", "x^4*q + 4*x^3*r", "p"],
     ["q", "r", "x*r", "p"], ()),
    (["q", "x*q + r", "x^2*q + 2*x*r", "x^3*q + 3*x^2*r", "p", "x*p - z*r"],
     ["q", "r", "x*r", "p", "x*p - z*r"], ()),
    (["q", "p", "x*q + r", "x^2*q + 2*x*r", "x*p + y*q + c*r",
      "x^2*p + 2*x*y*q + 2*(c*x + y)*r"],
     ["q", "p", "r", "x*r", "x*p + y*q - c*x*q", "y*r"], ("c",)),
    (["p", "q", "x*p + y*q + r", "y*p - x*q",
      "(x^2 - y^2)*p + 2*x*y*q + 2*x*r", "2*x*y*p + (y^2 - x^2)*q + 2*y*r"],
     ["p", "q", "r", "y*p - x*q", "x*r", "y*r"], ()),
]


class TestReducedAlgebra:
    @pytest.mark.parametrize("family,reduced,params", REDUCED_TABLE)
    def test_reduced_table(self, family, reduced, params):
        L = pres("fam", family, params=list(params))
        pv = {0: Fraction(1, 2)} if params else None
        out = A.reduced_algebra(L, F.Point((0, 0, 0)), param_values=pv)
        expected = [F.parse_field(s, V3, params) for s in reduced]
        if pv:
            expected = [F.VectorField(3, tuple(E.substitute_params(c, pv) for c in X.coeffs))
                        for X in expected]
        assert F.span_equal(list(out.generators), expected)

    def test_reduced_closes(self):
        L = pres("g21", REDUCED_TABLE[0][0])
        out = A.reduced_algebra(L, F.Point((0, 0, 0)))
        assert A.verify_structure(A.check_closure(out))

    def test_not_transitive_at_base(self):
        L = pres("line", ["q", "x*q", "y*q"])
        with pytest.raises(A.NotTransitiveAtBase):
            A.reduced_algebra(L, F.Point((0, 0, 0)))


class TestJointInvariantCount:
    def test_table_of_counts(self):
        g21 = pres("g21", REDUCED_TABLE[0][0])
        g21r = pres("g21r", REDUCED_TABLE[0][1])
        g22 = pres("g22", REDUCED_TABLE[1][0])
        g22r = pres("g22r", REDUCED_TABLE[1][1])
        assert A.joint_invariant_count(g21, 2) == 1
        assert A.joint_invariant_count(g21r, 2) == 2
        assert A.joint_invariant_count(g22, 2) == 0
        assert A.joint_invariant_count(g22r, 2) == 1

    def test_single_point_count_matches_transitivity(self, euclid):
        assert A.joint_invariant_count(euclid, 1) == 0
        line = pres("line", ["q", "x*q", "x^2*q"])
        assert A.joint_invariant_count(line, 1) == 3 - F.generic_rank(
            list(line.generators), seed=0)[0]

    def test_monotone_in_s(self, euclid):
        counts = [A.joint_invariant_count(euclid, s) for s in (1, 2, 3)]
        assert counts[1] >= counts[0]
        assert counts[2] >= counts[1] + counts[0]

    def test_monotone_in_s_across_catalog(self):
        from liefields import catalog as CAT
        for eid in ("thm37-3", "thm37-8", "ex87-28", "ex94-21", "ex94-22r",
                    "ex90-60b", "ex90-62a"):
            entry = CAT.entry_by_id(eid)
            L = entry.presentation()
            pv = entry.param_value_maps()[0]
            counts = [A.joint_invariant_count(L, s, param_values=pv or None)
                      for s in (1, 2, 3)]
            assert counts[1] >= counts[0], eid
            assert counts[2] >= counts[1] + counts[0], eid


def ref_joint_invariant_count(L, s, seed, param_values, monkeypatch):
    """Reference: s*dim minus the generic rank of the built prolongations, at
    the configurations of s points that joint_invariant_count draws: each
    sample of s*dim coordinates is drawn as s points of dim coordinates."""
    n = L.dim
    prolonged = [F.prolong_points(g, s) for g in L.generators]
    real = F.sample_configuration
    with monkeypatch.context() as m:
        m.setattr(F, "sample_configuration", lambda dim, copies, rng: real(n, s, rng))
        return s * n - F.generic_rank(prolonged, seed=seed, param_values=param_values)[0]


class TestPerPointCount:
    """Evaluating the base generators at each point of a configuration draws
    the same numbers as evaluating the built prolongation there. Two points of
    a transitive sample are counted exactly, with no draws; the sampled rank
    of the prolongation is their reference."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_prolongation_across_catalog(self, seed, monkeypatch):
        cases = 0
        for entry in CAT.builtin_entries():
            L = entry.presentation()
            for pv in [None] + entry.param_value_maps():
                for s in (2, 3, 4):
                    assert A.joint_invariant_count(L, s, seed=seed, param_values=pv or None) == \
                        ref_joint_invariant_count(L, s, seed, pv or None, monkeypatch), \
                        (entry.id, pv, s)
                    cases += 1
        assert cases == 312

    def test_builds_no_prolongation(self, euclid, monkeypatch):
        def refuse(*args):
            raise AssertionError("prolong_points called")

        monkeypatch.setattr(F, "prolong_points", refuse)
        assert A.joint_invariant_count(euclid, 3) == 3


def catalog_samples():
    """Every (entry, parameter values) at which catalog verify runs a check:
    the sweep and the boundary cases."""
    for entry in sorted(CAT.builtin_entries(), key=lambda e: e.id):
        L = entry.presentation()
        for pv in entry.param_value_maps():
            yield entry.id, L, pv or None
        for case in entry.boundary:
            yield entry.id, L, {entry.params.index(k): v for k, v in case.param_values.items()}


def sampled_pair_count(L, seed, param_values):
    """Reference: the sampled two-point count, 2*dim minus the largest rank of
    the generators at up to 8 configurations of two points."""
    return 2 * L.dim - F.generic_rank(list(L.generators), seed=seed,
                                      param_values=param_values, copies=2)[0]


class TestPairCountFromIsotropy:
    """On a transitive sample the two-point count is dim minus the rank over
    Q(y) of the isotropy fields at the generic point: exact, with no draws."""

    @pytest.mark.parametrize("seed", [0, 7, 2])
    def test_equals_the_sampled_count_and_draws_no_pair(self, seed, monkeypatch):
        real = F.sample_configuration

        def no_pairs(dim, copies, rng):
            assert copies != 2, "a two-point configuration was drawn"
            return real(dim, copies, rng)

        cases = 0
        for eid, L, pv in catalog_samples():
            if not A.is_transitive(L, seed=seed, param_values=pv):
                continue
            with monkeypatch.context() as m:
                m.setattr(F, "sample_configuration", no_pairs)
                count = A.joint_invariant_count(L, 2, seed=seed, param_values=pv)
            assert count == sampled_pair_count(L, seed, pv), (eid, pv)
            cases += 1
        assert cases == 56

    def test_a_degenerate_sampler_leaves_the_count(self, monkeypatch):
        # both points equal: a sampled rank would stop at dim, and the count read dim
        def same_point_twice(dim, copies, rng):
            point = F.sample_point(dim, rng)
            return point * copies

        L = CAT.entry_by_id("thm37-1").presentation()
        monkeypatch.setattr(F, "sample_configuration", same_point_twice)
        assert 2 * L.dim - F.generic_rank(list(L.generators), copies=2)[0] == L.dim
        assert A.joint_invariant_count(L, 2) == 1

    def test_the_isotropy_is_shared_with_the_criterion(self):
        L = CAT.entry_by_id("thm37-1").presentation()
        A.joint_invariant_count(L, 2)
        misses = A._isotropy.cache_info().misses
        assert A.two_point_invariant_criterion(L) is True
        assert A._isotropy.cache_info().misses == misses


class TestTwoPointCriterion:
    @pytest.mark.parametrize("gens,params,expected", [
        (["p", "q", "x*q + r", "x*p + y*q + c*r", "x^2*q + 2*x*r",
          "x^2*p + 2*x*y*q + 2*(y + c*x)*r"], ("c",), True),
        (["p", "q", "x*q + r", "y*q + z*r", "x*p - z*r", "y*p - z^2*r"], (), False),
        (["p", "q", "x*q + r", "x*p + y*q", "x*p - y*q - 2*z*r",
          "x^2*p + x*y*q + (y - x*z)*r"], (), False),
        (["p", "q", "x*p + r", "y*q + c*r", "x^2*p + 2*x*r", "y^2*q + 2*c*y*r"],
         ("c",), True),
        (["p - y*r", "q + x*r", "r", "x*q", "x*p - y*q", "y*p"], (), True),
        (["p", "q", "r", "x*q + y*r", "2*x*p + y*q", "x^2*p + x*y*q + 1/2*y^2*r"],
         (), True),
    ])
    def test_accept_reject_table(self, gens, params, expected):
        L = pres("case", gens, params=list(params))
        pv = {0: Fraction(1, 2)} if params else None
        assert A.two_point_invariant_criterion(L, param_values=pv) is expected

    def test_criterion_matches_pair_count_on_six_generator_entries(self):
        from liefields import catalog as CAT
        for entry in CAT.builtin_entries():
            if len(entry.vars) != 3 or len(entry.generators) != 6:
                continue
            if entry.expected.transitive is not True:
                continue
            L = entry.presentation()
            for pv in entry.param_value_maps():
                crit = A.two_point_invariant_criterion(L, param_values=pv or None)
                count = A.joint_invariant_count(L, 2, param_values=pv or None)
                assert crit is (count == 1), entry.id

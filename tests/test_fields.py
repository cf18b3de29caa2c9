from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liefields import algebra as A, exactla, expr as E
from liefields import fields as F


V3 = ["x", "y", "z"]
V2 = ["x", "y"]


def fld(text, vars=V3, params=()):
    return F.parse_field(text, vars, params)


class TestBracket:
    def test_commuting_translations(self):
        assert F.bracket(fld("p"), fld("q")).is_zero

    def test_jet_generator(self):
        b = F.bracket(fld("p"), fld("x^2*q + 2*x*r"))
        assert F.field_to_string(b, V3) == "2*x*q + 2*r"

    def test_rotation_bracket_frozen_by_hand(self):
        # expand via the coefficient formula: [xq - yp, yr - zq] = -z p + x r
        b = F.bracket(fld("x*q - y*p"), fld("y*r - z*q"))
        assert b == fld("x*r - z*p")

    def test_dimension_mismatch(self):
        with pytest.raises(F.FieldError):
            F.bracket(fld("p"), fld("p", V2))


class TestApplication:
    def test_translation(self):
        out = F.apply_to_function(fld("p"), E.parse_expression("x^2", V3))
        assert E.to_string(out, V3) == "2*x"

    def test_coordinate_pick(self):
        out = F.apply_to_function(fld("x*q + r"), E.parse_expression("z", V3))
        assert out == E.ONE

    def test_rotation_annihilates_radius(self):
        out = F.apply_to_function(fld("y*p - x*q", V2), E.parse_expression("x^2 + y^2", V2))
        assert out.is_zero


class TestEvaluation:
    def test_translation_vector(self):
        assert F.evaluate_exact_at([fld("p")], [5, 2, 1]) == [[1, 0, 0]]

    def test_linear(self):
        assert F.evaluate_exact_at([fld("x*q + r")], [2, 0, 0]) == [[0, 2, 1]]

    def test_isotropy_vanishes_at_its_point(self):
        assert F.evaluate_exact_at([fld("y*p - z^2*r")], [0, 0, 0]) == [[0, 0, 0]]

    def test_substitute_params(self):
        X = F.parse_field("x*p + c*y*q + c^2*r", ["x", "y", "z"], ["c"])
        assert F.substitute_params(X, {0: Fraction(1, 2)}) == F.parse_field(
            "x*p + 1/2*y*q + 1/4*r", ["x", "y", "z"])
        assert F.substitute_params(X, {}) is X
        assert F.substitute_params(X, None) is X

    def test_exact_rows_one_per_field(self):
        fields = [fld("p"), fld("x*q + c*r", params=["c"]), fld("(x - y)^-1*p")]
        point = [Fraction(3), Fraction(1, 2), 0]
        assert F.evaluate_exact_at(fields, point, {0: Fraction(2)}) == [
            [1, 0, 0], [0, 3, 2], [Fraction(2, 5), 0, 0]]
        assert F.evaluate_exact_at(fields[:1], point) == [[1, 0, 0]]
        assert F.evaluate_exact_at([], point) == []
        with pytest.raises(E.DomainError):
            F.evaluate_exact_at(fields, [1, 1, 0], {0: Fraction(2)})


EUCLID = ["p", "q", "r", "x*q - y*p", "y*r - z*q", "z*p - x*r"]


class TestRanks:
    def test_euclidean_rank_three(self):
        assert F.generic_rank([fld(s) for s in EUCLID], seed=1)[0] == 3

    def test_proportional_fields(self):
        assert F.generic_rank([fld("q"), fld("x*q")], seed=1)[0] == 1

    def test_isotropy_triple_of_group_nine(self):
        triple = [fld("x*p + (y - c*x)*q", params=["c"]),
                  fld("x^2*q + 2*x*r", params=["c"]),
                  fld("x^2*p + 2*x*y*q + 2*(y + c*x)*r", params=["c"])]
        assert F.generic_rank(triple, seed=1)[0] == 2

    def test_rank_monotone_and_bounded(self):
        fields = [fld(s) for s in EUCLID]
        prev = 0
        for k in range(1, len(fields) + 1):
            r, _ = F.generic_rank(fields[:k], seed=2)
            assert prev <= r <= min(k, 3)
            prev = r

    def test_independence_simple(self):
        assert F.linear_independence_over_constants([fld("p"), fld("q"), fld("x*q")])
        assert not F.linear_independence_over_constants([fld("q"), fld("3*q")])
        # a monomial above any truncation degree still counts
        assert F.linear_independence_over_constants([fld("p"), fld("x^5*p")])
        A.presentation("quintic", V3, ["p", "x^5*p"]).validate()
        # one common clearing monomial keeps the relation X1 + X2 = X3 ...
        assert not F.linear_independence_over_constants(
            [fld("(x+1)^-1*p"), fld("x*(x+1)^-1*p"), fld("p")])
        # ... and a relation with a parameter coefficient is one over Q(c)
        assert not F.linear_independence_over_constants(
            [fld("p", params=["c"]), fld("c*p", params=["c"])])

    def test_independence_rejects_function_nodes(self):
        with pytest.raises(E.NonPolynomialError):
            F.linear_independence_over_constants([fld("p"), fld("log(x)*p")])

    def test_independence_group_24_degree_two_matrix(self):
        gens = ["p", "q", "x*p + y*q + r", "y*p - x*q",
                "(x^2 - y^2)*p + 2*x*y*q + 2*x*r",
                "2*x*y*p + (y^2 - x^2)*q + 2*y*r"]
        fields = [fld(s) for s in gens]
        assert F.linear_independence_over_constants(fields)
        # independent oracle: hand-built coefficient matrix over the monomial
        # basis {1, x, y, z, x^2, xy, y^2} per coordinate, exact rank
        monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0)]
        rows = []
        for f in fields:
            row = []
            for i in range(3):
                coeffs = E.poly_coefficients(f.coeffs[i], 3)
                row.extend(Fraction(coeffs.get(m, E.ZERO).constant_value() or 0) for m in monos)
            rows.append(row)
        assert exactla.rank(rows) == 6


class TestProlongations:
    def test_points_copies_blocks(self):
        pp = F.prolong_points(fld("p"), 2)
        assert pp == F.parse_field("d1 + d4", F.point_var_names(V3, 2))

    def test_points_shifts_coefficients(self):
        pp = F.prolong_points(fld("x*q + r"), 2)
        assert pp == F.parse_field("x1*d2 + d3 + x2*d5 + d6", F.point_var_names(V3, 2))

    def test_points_three_blocks(self):
        pp = F.prolong_points(fld("x*p - z*r"), 3)
        names = F.point_var_names(V3, 3)
        expected = F.parse_field(
            "x1*d1 - z1*d3 + x2*d4 - z2*d6 + x3*d7 - z3*d9", names)
        assert pp == expected

    def test_jet_lift_of_planar_basis(self):
        assert F.prolong_jet1(fld("x*q", V2)) == fld("x*q + r")
        assert F.prolong_jet1(fld("y*q", V2)) == fld("y*q + z*r")
        assert F.prolong_jet1(fld("p", V2)) == fld("p")

    def test_differentials_examples(self):
        names = F.differential_var_names(V3)
        assert F.prolong_differentials(fld("p")) == F.parse_field("d1", names)
        assert F.prolong_differentials(fld("x*q + r")) == F.parse_field(
            "x*d2 + d3 + dx*d5", names)
        assert F.prolong_differentials(fld("x*p - z*r")) == F.parse_field(
            "x*d1 - z*d3 + dx*d4 - dz*d6", names)


class TestSpanComparison:
    def test_jet_prolongation_spans_group_28(self):
        linear = [fld(s, V2) for s in ["p", "q", "x*q", "y*q", "x*p", "y*p"]]
        jets = [F.prolong_jet1(X) for X in linear]
        g28 = [fld(s) for s in ["p", "q", "x*q + r", "y*q + z*r",
                                "x*p - z*r", "y*p - z^2*r"]]
        assert F.span_equal(jets, g28)

    def test_span_mismatch_detected(self):
        assert not F.span_equal([fld("p")], [fld("q")])

    def test_span_over_parameter_field(self):
        assert F.span_equal([fld("c*p + q", params=["c"])], [fld("p + c^-1*q", params=["c"])])
        assert not F.span_equal([fld("c*p", params=["c"])], [fld("x*p", params=["c"])])


@st.composite
def poly_fields(draw, dim=3, max_degree=3):
    coeffs = []
    for _ in range(dim):
        terms = draw(st.lists(
            st.tuples(st.integers(-3, 3),
                      st.lists(st.integers(0, max_degree), min_size=dim, max_size=dim)),
            min_size=0, max_size=3))
        e = E.ZERO
        for c, exps in terms:
            if sum(exps) > max_degree:
                continue
            piece = E.const(c)
            for i, k in enumerate(exps):
                piece = E.mul(piece, E.intpow(E.var(i), k))
            e = E.add(e, piece)
        coeffs.append(e)
    return F.VectorField(dim, tuple(coeffs))


class TestFieldProperties:
    @given(poly_fields(), poly_fields())
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, X, Y):
        assert F.bracket(X, Y) == -F.bracket(Y, X)

    @given(poly_fields(max_degree=2), poly_fields(max_degree=2), poly_fields(max_degree=2))
    @settings(max_examples=25, deadline=None)
    def test_jacobi(self, X, Y, Z):
        total = (F.bracket(X, F.bracket(Y, Z))
                 + F.bracket(Z, F.bracket(X, Y))
                 + F.bracket(Y, F.bracket(Z, X)))
        assert total.is_zero

    @given(poly_fields(max_degree=2), poly_fields(max_degree=2), st.integers(2, 3))
    @settings(max_examples=20, deadline=None)
    def test_point_prolongation_commutes_with_bracket(self, X, Y, s):
        lhs = F.prolong_points(F.bracket(X, Y), s)
        rhs = F.bracket(F.prolong_points(X, s), F.prolong_points(Y, s))
        assert lhs == rhs

    @given(poly_fields(dim=2, max_degree=2), poly_fields(dim=2, max_degree=2))
    @settings(max_examples=25, deadline=None)
    def test_jet_prolongation_commutes_with_bracket(self, X, Y):
        lhs = F.prolong_jet1(F.bracket(X, Y))
        rhs = F.bracket(F.prolong_jet1(X), F.prolong_jet1(Y))
        assert lhs == rhs

    @given(poly_fields(max_degree=2), poly_fields(max_degree=2))
    @settings(max_examples=25, deadline=None)
    def test_differential_prolongation_commutes_with_bracket(self, X, Y):
        lhs = F.prolong_differentials(F.bracket(X, Y))
        rhs = F.bracket(F.prolong_differentials(X), F.prolong_differentials(Y))
        assert lhs == rhs


class TestCombination:
    @given(st.lists(st.tuples(st.fractions(-3, 3, max_denominator=4), poly_fields(max_degree=2)),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_sum_term_by_term(self, terms):
        coeffs, fields = zip(*terms)
        folded = F.VectorField(3, (E.ZERO,) * 3)
        for c, X in terms:
            folded = folded + (c * X)
        assert F.combination(coeffs, fields) == folded

    def test_expr_coefficients_and_zeros(self):
        fields = [fld("p"), fld("x*q + r"), fld("y*p - x*r"), fld("q")]
        c = E.param(0)
        out = F.combination([Fraction(1, 2), c, E.ZERO, 0], fields)
        assert out == fld("1/2*p + c*x*q + c*r", params=["c"])
        assert F.combination([0, E.ZERO], fields[:2]) == fld("0*p")


class TestFieldParsing:
    def test_rejects_quadratic_token(self):
        with pytest.raises(F.FieldError):
            fld("p*q")

    def test_rejects_missing_token(self):
        with pytest.raises(F.FieldError):
            fld("x + p")

    def test_alias_tokens(self):
        assert fld("y*d1 - x*d2", V2) == fld("y*p - x*q", V2)

    def test_print_bit_exact_roundtrip(self):
        X = fld("x^2*p + 2*x*r")
        s = F.field_to_string(X, V3)
        assert s == "x^2*p + 2*x*r"
        assert F.parse_field(s, V3) == X

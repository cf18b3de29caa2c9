import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liefields import expr as E


V2 = ["x", "y"]


def parse(text, vars=V2, params=()):
    return E.parse_expression(text, vars, params)


class TestParsing:
    def test_polynomial_with_rational_coefficient(self):
        e = parse("x^2*y - 1/2")
        assert E.to_string(e, V2) == "x^2*y - 1/2"

    def test_function_node_over_expanded_square(self):
        e = parse("log((x2-x1)^2)", ["x1", "x2"])
        assert E.to_string(e, ["x1", "x2"]) == "log(x1^2 - 2*x1*x2 + x2^2)"

    def test_syntax_error_carries_byte_offset(self):
        with pytest.raises(E.ParseError) as err:
            parse("x++")
        assert err.value.offset == 2

    def test_unknown_identifier(self):
        with pytest.raises(E.ParseError):
            parse("x + w")

    def test_negative_exponent(self):
        e = parse("(x - y)^-1")
        assert E.evaluate_numeric(e, [3.0, 1.0]) == pytest.approx(0.5)

    def test_zero_to_negative_power_rejected(self):
        for text in ("0^-1", "(x - x)^-2*y"):
            with pytest.raises(E.ParseError, match="zero raised to a negative power"):
                parse(text)
        assert parse("0^0") == E.ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(E.ParseError, match="positive integer denominator"):
            parse("1/0*x")

    def test_nesting_depth_limited(self):
        deep = E.MAX_NESTING - 1  # the whole expression is one level
        assert parse("(" * deep + "x" + ")" * deep) == parse("x")
        assert parse("atan(" * deep + "0" + ")" * deep).is_zero
        for wrap in ("(", "exp("):
            with pytest.raises(E.ParseError, match="nesting deeper than 100 levels"):
                parse(wrap * 3000 + "x" + ")" * 3000)

    def test_whitespace_insignificant(self):
        assert parse("x ^ 2 * y") == parse("x^2*y")

    def test_constant_folding(self):
        assert parse("log(1)").is_zero
        assert parse("exp(0)") == E.ONE
        assert parse("atan(0)").is_zero
        assert parse("sqrt(9/4)") == E.const(Fraction(3, 2))
        assert not parse("sqrt(2)").is_zero  # not a perfect square: kept

    def test_print_parse_roundtrip_idempotent(self):
        e = parse("-y*(x^2 + y^2)^-1 + 1/3*x*log(x^2)")
        s = E.to_string(e, V2)
        again = parse(s)
        assert again == e
        assert E.to_string(again, V2) == s


class TestDifferentiate:
    def test_power_rule(self):
        assert E.to_string(E.differentiate(parse("x^2"), 0), V2) == "2*x"

    def test_log(self):
        assert E.to_string(E.differentiate(parse("log(x)"), 0), V2) == "x^-1"

    def test_atan_quotient(self):
        d = E.differentiate(parse("atan(y*x^-1)"), 0)
        target = parse("-y*(x^2 + y^2)^-1")
        assert E.is_identically_zero(d - target) is E.Zeroness.YES

    def test_atan_matches_finite_differences(self):
        d = E.differentiate(parse("atan(y*x^-1)"), 0)
        rng = random.Random(7)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(0.3, 2.0) * rng.choice([-1, 1])
            y = rng.uniform(-2.0, 2.0)
            numeric = (math.atan(y / (x + h)) - math.atan(y / (x - h))) / (2 * h)
            assert abs(E.evaluate_numeric(d, [x, y]) - numeric) < 1e-7

    def test_sqrt_and_exp(self):
        d = E.differentiate(parse("exp(x^2)"), 0)
        assert abs(E.evaluate_numeric(d, [0.7, 0.0]) - 2 * 0.7 * math.exp(0.49)) < 1e-12
        d2 = E.differentiate(parse("sqrt(x)"), 0)
        assert abs(E.evaluate_numeric(d2, [4.0, 0.0]) - 0.25) < 1e-12

    def test_parameters_are_constants(self):
        e = E.parse_expression("c*x^2", ["x"], ["c"])
        d = E.differentiate(e, 0)
        assert E.to_string(d, ["x"], ["c"]) == "2*x*c"


class TestEvaluate:
    def test_simple(self):
        assert E.evaluate_numeric(parse("x^2 + y"), [2.0, 3.0]) == 7.0

    def test_log_domain_error(self):
        with pytest.raises(E.DomainError):
            E.evaluate_numeric(parse("log(x)"), [-1.0, 0.0])

    def test_sqrt_domain_error(self):
        with pytest.raises(E.DomainError):
            E.evaluate_numeric(parse("sqrt(x)"), [-1.0, 0.0])

    def test_division_by_zero_reports_culprit(self):
        with pytest.raises(E.DomainError) as err:
            E.evaluate_numeric(parse("(x - y)^-1"), [1.0, 1.0])
        assert err.value.culprit is not None

    def test_missing_parameter(self):
        e = E.parse_expression("c*x", ["x"], ["c"])
        with pytest.raises(E.ExprError):
            E.evaluate_numeric(e, [1.0])

    def test_exact_evaluation(self):
        e = parse("(x - y)^-2*x")
        v = E.evaluate_exact(e, [Fraction(3), Fraction(1)])
        assert v == Fraction(3, 4)

    def test_compiled_matches_interpreter(self):
        e = parse("x^2*y - 1/2 + log(x^2 + 1) - atan(y)*x")
        f = E.compile_numeric(e)
        rng = random.Random(1)
        for _ in range(25):
            pt = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            assert f(pt) == pytest.approx(E.evaluate_numeric(e, pt), abs=1e-12)


class TestZeroTest:
    def test_identity_34(self):
        det = E.parse_expression(
            "2*x^3*(y + c*x) - 4*x^3*y + 2*x^3*(y - c*x)", ["x", "y", "z"], ["c"])
        assert E.is_identically_zero(det) is E.Zeroness.YES

    def test_identity_40(self):
        det = E.parse_expression("2*c*x^2*y^2 - 2*c*x^2*y^2", ["x", "y", "z"], ["c"])
        assert E.is_identically_zero(det) is E.Zeroness.YES

    def test_nonzero_28(self):
        det = parse("2*y^2*z - 2*x*y*z^2", ["x", "y", "z"])
        assert E.is_identically_zero(det) is E.Zeroness.NO

    def test_rational_cancellation_across_denominators(self):
        e = parse("(x^2 - 1)*(x - 1)^-1 - x - 1", ["x"])
        assert E.is_identically_zero(e) is E.Zeroness.YES

    def test_transcendental_identity_stays_unknown(self):
        e = parse("exp(x)*exp(-x) - 1", ["x"])
        assert E.is_identically_zero(e) is E.Zeroness.UNKNOWN

    def test_transcendental_nonzero(self):
        e = parse("exp(x) - x", ["x"])
        assert E.is_identically_zero(e) is E.Zeroness.NO


small_coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def polynomials(draw, nvars=2, max_terms=4, max_degree=3):
    terms = draw(st.lists(
        st.tuples(
            small_coeff,
            st.lists(st.integers(min_value=0, max_value=max_degree),
                     min_size=nvars, max_size=nvars),
        ),
        min_size=1, max_size=max_terms,
    ))
    e = E.ZERO
    for coeff, exps in terms:
        piece = E.const(coeff)
        for i, k in enumerate(exps):
            piece = E.mul(piece, E.intpow(E.var(i), k))
        e = E.add(e, piece)
    return e


class TestAlgebraProperties:
    @given(polynomials(), polynomials(), small_coeff, small_coeff)
    @settings(max_examples=60, deadline=None)
    def test_differentiate_linear(self, e1, e2, a, b):
        combo = E.add(E.mul(E.const(a), e1), E.mul(E.const(b), e2))
        lhs = E.differentiate(combo, 0)
        rhs = E.add(E.mul(E.const(a), E.differentiate(e1, 0)),
                    E.mul(E.const(b), E.differentiate(e2, 0)))
        assert lhs == rhs

    @given(polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, e1, e2):
        lhs = E.differentiate(E.mul(e1, e2), 1)
        rhs = E.add(E.mul(E.differentiate(e1, 1), e2), E.mul(e1, E.differentiate(e2, 1)))
        assert lhs == rhs

    @given(polynomials())
    @settings(max_examples=40, deadline=None)
    def test_print_parse_roundtrip(self, e):
        s = E.to_string(e, V2)
        assert E.parse_expression(s, V2) == e

    @given(polynomials(), polynomials(),
           st.sampled_from([E.LOG, E.EXP, E.ATAN, E.SQRT]))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_with_function_and_inverted_factors(self, a, b, kind):
        e = E.add(a, E.fn(kind, E.add(b, E.ONE)))
        if not b.is_zero:
            e = E.add(e, E.inverse(b))
        s = E.to_string(e, V2)
        assert E.parse_expression(s, V2) == e

    @given(polynomials())
    @settings(max_examples=30, deadline=None)
    def test_derivative_matches_finite_differences(self, e):
        d = E.differentiate(e, 0)
        rng = random.Random(3)
        h = 1e-5
        for _ in range(3):
            x, y = rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)
            numeric = (E.evaluate_numeric(e, [x + h, y]) - E.evaluate_numeric(e, [x - h, y])) / (2 * h)
            symbolic = E.evaluate_numeric(d, [x, y])
            assert abs(symbolic - numeric) <= 1e-6 * max(1.0, abs(symbolic))

    @given(polynomials(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_intpow_matches_repeated_mul(self, e, k):
        direct = E.intpow(e, k)
        manual = E.ONE
        for _ in range(k):
            manual = E.mul(manual, e)
        assert direct == manual

    @given(polynomials())
    @settings(max_examples=40, deadline=None)
    def test_inverse_is_multiplicative_inverse(self, e):
        if e.is_zero:
            return
        prod = E.mul(e, E.inverse(e))
        assert E.is_identically_zero(E.add(prod, E.const(-1))) is E.Zeroness.YES

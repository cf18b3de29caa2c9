import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liefields import algebra as A, catalog as CAT, expr as E, fields as F, flows as FL, invariants as I


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


def _power(pair):
    base, k = pair
    return base if k < 0 and base.is_zero else E.intpow(base, k)


def _over_block(pair):
    """a / (b + x0): an inverted block unless b + x0 is one term."""
    a, b = pair
    base = E.add(b, E.var(0))
    return a if base.is_zero else E.mul(a, E.inverse(base))


def exprs():
    """Expressions in x0, x1 and c0 with inverted blocks and function nodes."""
    leaves = st.one_of(st.sampled_from([E.var(0), E.var(1), E.param(0)]),
                       small_coeff.map(E.const))

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: E.add(*ab)),
            st.tuples(children, children).map(lambda ab: E.mul(*ab)),
            st.tuples(children, st.integers(min_value=-2, max_value=2)).map(_power),
            st.tuples(children, children).map(_over_block),
            st.tuples(st.sampled_from([E.LOG, E.EXP, E.ATAN, E.SQRT]), children)
            .map(lambda ka: E.fn(*ka)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


# built once: a composite strategy that called exprs() per draw would build a
# new recursive strategy for every example
EXPRS = exprs()

UNIT_HEAVY_COEFFS = [1, -1, 1, -1, 2, Fraction(-1, 3)]


@st.composite
def shared_exprs(draw):
    """Sums whose terms reuse one inverted block and one function node, most
    with coefficient 1 or -1: the pieces the kernels share, and the unit
    coefficients the float flavour leaves out, occur in nearly every draw."""
    base = E.add(draw(EXPRS), E.mul(E.var(0), E.var(1)))
    block = E.ONE if base.is_zero else E.inverse(base)
    node = E.fn(draw(st.sampled_from([E.LOG, E.EXP, E.ATAN, E.SQRT])), draw(EXPRS))
    pieces = []
    for c, a, b, k, j in draw(st.lists(st.tuples(
            st.sampled_from(UNIT_HEAVY_COEFFS), st.integers(0, 2), st.integers(0, 2),
            st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=6)):
        piece = E.mul(E.const(c), E.mul(E.intpow(E.var(0), a), E.intpow(E.var(1), b)))
        pieces.append(E.mul(piece, E.mul(E.intpow(block, k), E.intpow(node, j))))
    return E.add_many(pieces)


def same_float(got, want) -> bool:
    """The same float bit for bit, the sign of zero included; any NaN
    matches any NaN."""
    if type(got) is not float:
        return False
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=7)
small_values = st.one_of(small_fractions.map(float), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


# the interpreters that numeric_source replaced, kept as references


def ref_evaluate_numeric(e, coords, params=None):
    """Sums the terms left to right from the first one, as the kernel does,
    so a lone -0.0 term stays -0.0."""
    params = params or {}
    total = None
    for mon, c in e.terms:
        value = float(c)
        for factor, ex in mon:
            tag = factor[0]
            if tag == E._V:
                base = float(coords[factor[1]])
            elif tag == E._P:
                if factor[1] not in params:
                    raise E.ExprError(f"missing value for parameter #{factor[1]}")
                base = float(params[factor[1]])
            elif tag == E._F:
                a = ref_evaluate_numeric(factor[2], coords, params)
                kind = factor[1]
                if kind == E.LOG:
                    if a <= 0.0:
                        raise E.DomainError("log of non-positive argument")
                    base = math.log(a)
                elif kind == E.EXP:
                    try:
                        base = math.exp(a)
                    except OverflowError as err:
                        raise E.DomainError("exp overflow") from err
                elif kind == E.ATAN:
                    base = math.atan(a)
                else:
                    if a < 0.0:
                        raise E.DomainError("sqrt of negative argument")
                    base = math.sqrt(a)
            else:
                base = ref_evaluate_numeric(factor[1], coords, params)
            if ex < 0 and base == 0.0:
                raise E.DomainError("division by zero")
            value *= base**ex
        total = value if total is None else total + value
    return 0.0 if total is None else total


def ref_evaluate_exact(e, coords, params=None):
    params = params or {}
    total = Fraction(0)
    for mon, c in e.terms:
        value = c
        for factor, ex in mon:
            tag = factor[0]
            if tag == E._V:
                base = Fraction(coords[factor[1]])
            elif tag == E._P:
                if factor[1] not in params:
                    raise E.ExprError(f"missing value for parameter #{factor[1]}")
                base = Fraction(params[factor[1]])
            elif tag == E._F:
                raise E.NonPolynomialError("exact evaluation of function node")
            else:
                base = ref_evaluate_exact(factor[1], coords, params)
            if ex < 0 and base == 0:
                raise E.DomainError("division by zero")
            value *= base**ex
        total += value
    return total


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
        [v] = E.evaluate_exact([e], [Fraction(3), Fraction(1)])
        assert v == Fraction(3, 4)

    def test_exact_evaluation_at_ints_divides(self):
        [v] = E.evaluate_exact([parse("(x - y)^-2*x")], [3, 1])
        assert v == Fraction(3, 4) and type(v) is Fraction

    def test_exact_polynomial_at_ints_is_an_int(self):
        [v, w] = E.evaluate_exact([parse("x^2*y - 3*x + 1"), parse("1/2*x*y")], [2, -1])
        assert (v, type(v)) == (-9, int) and (w, type(w)) == (-1, Fraction)

    def test_exact_zero_is_fraction_zero(self):
        [v] = E.evaluate_exact([E.ZERO], [])
        assert v == 0 and type(v) is Fraction

    def test_exact_evaluation_rejects_float_input(self):
        with pytest.raises(TypeError):
            E.evaluate_exact([parse("x*y")], [1.5, Fraction(1)])

    def test_exact_evaluation_rejects_function_node(self):
        with pytest.raises(E.NonPolynomialError):
            E.evaluate_exact([parse("x + exp(y)")], [Fraction(1), Fraction(0)])

    @pytest.mark.parametrize("evaluate", [
        E.evaluate_numeric, lambda e, coords: E.evaluate_exact([e], coords),
        lambda e, coords: E.compile_numeric(e)(coords)],
        ids=["numeric", "exact", "compiled"])
    def test_missing_parameter_names_it(self, evaluate):
        e = E.parse_expression("c*x + d", ["x"], ["c", "d"])
        with pytest.raises(E.ExprError, match="missing value for parameter #0"):
            evaluate(e, [1])

    def test_compiled_domain_error(self):
        f = E.compile_numeric(parse("log(x) + y"))
        with pytest.raises(E.DomainError):
            f([0.0, 1.0])

    @given(st.one_of(exprs(), shared_exprs()), st.lists(small_values, min_size=3, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_float_flavour_matches_interpreter(self, e, values):
        """The same float bit for bit, the sign of zero included, or
        DomainError from both. The reference lets an overflow in ** escape as
        OverflowError."""
        coords, params = values[:2], {0: values[2]}
        try:
            want = ref_evaluate_numeric(e, coords, params)
        except (E.DomainError, OverflowError):
            with pytest.raises(E.DomainError):
                E.evaluate_numeric(e, coords, params)
            with pytest.raises(E.DomainError):
                E.compile_numeric(e)(coords, params)
            return
        for got in (E.evaluate_numeric(e, coords, params), E.compile_numeric(e)(coords, params)):
            assert same_float(got, want)

    @given(st.one_of(exprs(), shared_exprs()), st.lists(small_fractions, min_size=3, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_exact_flavour_matches_interpreter(self, e, values):
        self.check_exact_sequence([e], values)

    @given(st.lists(st.one_of(exprs(), shared_exprs()), min_size=2, max_size=3),
           st.lists(small_fractions, min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_exact_sequence_matches_interpreter(self, es, values):
        self.check_exact_sequence(es, values)

    @given(st.one_of(EXPRS, shared_exprs()), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_exact_flavour_at_ints_matches_interpreter(self, e, values):
        # sampled points are ints: a term that divides must still give a Fraction
        self.check_exact_sequence([e], values)

    @staticmethod
    def check_exact_sequence(es, values):
        """A sequence evaluates in one scope to the reference value of each
        entry, or raises what the reference raises for some entry."""
        coords, params = values[:2], {0: values[2]}
        if any(E.contains_fn(e) for e in es):
            with pytest.raises(E.NonPolynomialError):
                E.evaluate_exact(es, coords, params)
            return
        try:
            want = [ref_evaluate_exact(e, coords, params) for e in es]
        except E.DomainError:
            with pytest.raises(E.DomainError):
                E.evaluate_exact(es, coords, params)
            return
        got = E.evaluate_exact(es, coords, params)
        # exact values are ints or Fractions, never floats, as Expr coefficients are
        assert got == want and all(type(v) in (int, Fraction) for v in got)

    def test_exact_sequence_raises_when_one_block_vanishes(self):
        with pytest.raises(E.DomainError):
            E.evaluate_exact([parse("x"), parse("(x - y)^-1"), parse("y")], [1, 1])

    def test_exact_sequence_rejects_a_float_input(self):
        with pytest.raises(TypeError):
            E.evaluate_exact([parse("2"), parse("x + y")], [Fraction(1), 0.5])

    def test_exact_sequence_of_none_and_of_constants(self):
        assert E.evaluate_exact([], [1]) == []
        assert E.evaluate_exact((E.ONE, E.ZERO), []) == [1, 0]


# the keys the canonical sorts used before Expr ordered itself, kept as references


def ref_fkey(factor):
    tag = factor[0]
    if tag == E._V:
        return (0, factor[1])
    if tag == E._P:
        return (1, factor[1])
    if tag == E._F:
        return (2, factor[1], ref_skey(factor[2]))
    return (3, 0, ref_skey(factor[1]))


def ref_skey(e):
    return tuple((tuple((ref_fkey(f), k) for f, k in mon), (c.numerator, c.denominator))
                 for mon, c in e.terms)


def ref_mkey(mon):
    deg = 0
    vexps, rest = [], []
    for factor, k in mon:
        if factor[0] == E._V:
            deg += k
            vexps.append((factor[1], -k))
        else:
            rest.append((ref_fkey(factor), -k))
    return (-deg, tuple(vexps), tuple(rest))


def _monomials(e):
    """Every monomial of e and of the expressions inside its factors."""
    for mon, _ in e.terms:
        yield mon
        for factor, _k in mon:
            if factor[0] == E._F:
                yield from _monomials(factor[2])
            elif factor[0] == E._Q:
                yield from _monomials(factor[1])


class TestCanonicalOrder:
    """Factors, monomials and expressions sort natively in the order of the
    reference keys, so every canonical form is unchanged."""

    @given(st.lists(st.one_of(exprs(), shared_exprs()), min_size=1, max_size=4), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_native_order_is_the_key_order(self, es, rnd):
        mons = list({mon for e in es for mon in _monomials(e)})
        factors = list({factor for mon in mons for factor, _k in mon})
        pairs = list({pair for mon in mons for pair in mon})
        everything = list(set(es) | {f[-1] for f in factors if f[0] >= E._F})
        for items in (mons, factors, pairs, everything):
            rnd.shuffle(items)
        assert sorted(factors) == sorted(factors, key=ref_fkey)
        assert sorted(pairs) == sorted(pairs, key=lambda fk: (ref_fkey(fk[0]), fk[1]))
        assert sorted(mons, key=E._mkey) == sorted(mons, key=ref_mkey)
        assert sorted(everything) == sorted(everything, key=ref_skey)
        # every monomial lists its factors in native order, every form its terms by _mkey
        assert all(list(mon) == sorted(mon) for mon in mons)
        assert all([m for m, _ in e.terms] == sorted((m for m, _ in e.terms), key=ref_mkey)
                   for e in everything)


class TestSharedPieces:
    """numeric_source computes a repeated power, inverted block or function
    node once per scope and leaves unit float coefficients out."""

    def test_block_emitted_once(self):
        # the two-point invariant of thm37-5: 18 terms over one block
        J = CAT.entry_by_id("thm37-5").parsed_invariants()[0].body
        assert len(J.terms) == 18
        base = E.parse_expression("x0*x3 + x1*x4 - x2*x5 - 1", [f"x{i}" for i in range(6)])
        [block] = E.numeric_source([base], "y{}")[1]
        lines, [src] = E.numeric_source([J], "y{}")
        code = "\n".join(lines + [src])
        assert code.count(block) == 1 and code.count("**-2") == 1
        [power] = [line.split(" = ")[0] for line in lines if "**-2" in line]
        assert len(re.findall(rf"\b{power}\b", src)) == 18

    def test_single_piece_stays_inline(self):
        lines, [src] = E.numeric_source([parse("x^2*y + log(x + y)")])
        assert lines == [] and src == "((X[0])**2*X[1] + math.log((X[0] + X[1])))"

    def test_unit_coefficients_dropped_in_float_flavour_only(self):
        e = parse("x*y - y + 2*x - 1")
        assert E.numeric_source([e]) == ([], ["(X[0]*X[1] + 2.0*X[0] + -X[1] + -1.0)"])
        consts = []
        assert E.numeric_source([e], "X[{}]", consts) == (
            [], ["(C[0]*X[0]*X[1] + C[1]*X[0] + C[2]*X[1] + C[3])"])
        assert consts == [1, 2, -1, -1]

    def test_pieces_shared_across_the_exprs_of_one_scope(self):
        a, b = parse("x*(x + y)^-1"), parse("y*(x + y)^-1 + log(x)")
        lines, srcs = E.numeric_source([a, b], "y{}")
        assert lines == ["s0 = ((y0 + y1))**-1"]
        assert srcs == ["(y0*s0)", "(y1*s0 + math.log((y0)))"]

    def test_exact_flavour_shares_the_block_of_a_quotient(self):
        consts = []
        lines, [src] = E.numeric_source([parse("x*(x + y)^-2 - (x + y)^-1")], "X[{}]", consts)
        assert lines == ["s0 = (C[0]*X[0] + C[1]*X[1])"]
        assert src == "(C[2]*X[0]/(s0)**2 + C[3]/s0)"


class TestFloatInputs:
    """The float flavour leaves unit coefficients out (``x*y`` for
    ``1.0*x*y``), so it gives a float only when its inputs are floats: every
    caller converts what it is given, and each path here starts from ints."""

    @pytest.fixture
    def seen(self, monkeypatch):
        calls = []
        real = E.evaluate_numeric

        def spy(e, coords, params=None):
            value = real(e, coords, params)
            calls.append((list(coords) + list((params or {}).values()), value))
            return value

        monkeypatch.setattr(E, "evaluate_numeric", spy)
        yield calls
        assert calls
        for values, value in calls:
            assert all(type(v) is float for v in values) and type(value) is float

    def test_field_coefficients_at_a_point(self, seen):
        X = F.parse_field("x*y*p - c*q", V2, ["c"])
        assert [E.evaluate_numeric(c, [2.0, 3.0], {0: 1.0}) for c in X.coeffs] == [6.0, -1.0]

    def test_zero_test_samples(self, seen):
        assert E.is_identically_zero(parse("x*exp(y)")) is E.Zeroness.NO

    def test_verify_joint_invariant_samples(self, seen):
        L = A.presentation("rot", V2, ["p", "q", "x*q - y*p"])
        body = E.parse_expression("x1*exp(y2)", F.point_var_names(V2, 2))
        out = I.verify_joint_invariant(L, I.InvariantCandidate(2, body), mode="numeric")
        assert out.verdict is I.Verdict.REFUTED

    def test_truncated_complete_system_solution(self, seen):
        _, info = FL.complete_system_solve_single(F.parse_field("p + y*q", V2), 0)
        assert info["exact"] == [False]

    def test_numeric_flow(self):
        X = F.parse_field("x*y*p - c*q", V2, ["c"])
        traj = FL.numeric_flow(X, F.Point((1, 2), {0: 1}), 1, 4, tracked={"J": parse("x*y")},
                               record=True)
        values = [t for t, _ in traj.samples] + [v for _, pt in traj.samples for v in pt]
        assert all(type(v) is float for v in values + list(traj.drift.values()))


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


def _coefficients(e):
    """Every coefficient of e, and of the expressions inside its function
    nodes and inverted blocks."""
    for mon, c in e.terms:
        yield c
        for factor, _ex in mon:
            if factor[0] == E._F:
                yield from _coefficients(factor[2])
            elif factor[0] == E._Q:
                yield from _coefficients(factor[1])


def _canonical(e) -> bool:
    """Each coefficient an int when integral, else a non-integral Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in _coefficients(e))


def _catalog_exprs(entry):
    """The entry's generators at every parameter sample, structure constants,
    invariants and 2-point prolongations."""
    L = entry.presentation()
    for pv in [{}] + [pv for pv in entry.param_value_maps() if pv]:
        for g in L.generators:
            yield from F.substitute_params(g, pv).coeffs
    for g in L.generators:
        yield from F.prolong_points(g, 2).coeffs
    try:
        C = A.check_closure(L)
    except A.NotClosedError as err:
        yield from err.residual.coeffs
    else:
        yield from (c for plane in C.c for row in plane for c in row)
    for J in entry.parsed_invariants():
        yield J.body


class TestCanonicalCoefficients:
    """An integral coefficient is stored as an int and any other as a
    Fraction; every division of a coefficient divides as Fractions."""

    @pytest.mark.parametrize("entry", CAT.builtin_entries(), ids=lambda entry: entry.id)
    def test_catalog_expressions(self, entry):
        exprs = list(_catalog_exprs(entry))
        assert exprs
        for e in exprs:
            assert _canonical(e), e

    def test_integers_and_units_are_ints(self):
        e = parse("3*x^2 - x*y + 2/4*y + 1/2 + 3/2")
        assert [type(c) for _, c in e.terms] == [int, int, Fraction, int]
        assert _canonical(E.ONE) and _canonical(E.var(0)) and _canonical(E.param(0))
        assert _canonical(E.fn(E.EXP, parse("x")))
        assert _canonical(E.mul(parse("1/2*x"), parse("2*y")))
        assert _canonical(E.add(parse("1/2*x"), parse("1/2*x")))

    def test_inverse_of_constants_divides_as_fractions(self):
        assert E.inverse(E.const(2)).terms == (((), Fraction(1, 2)),)
        assert type(E.inverse(E.const(2)).terms[0][1]) is Fraction
        assert type(E.inverse(E.const(Fraction(1, 2))).terms[0][1]) is int
        assert type(E.inverse(parse("3*x^2")).terms[0][1]) is Fraction

    def test_inverse_of_block_with_lead_two(self):
        inv = E.inverse(parse("2*x + 1"))
        [(mon, c)] = inv.terms
        [((tag, base), ex)] = mon
        assert (tag, ex) == (E._Q, -1) and c == Fraction(1, 2)
        assert base == parse("x + 1/2")
        assert _canonical(inv)
        residual = E.add(E.mul(inv, parse("2*x + 1")), E.const(-1))
        assert E.is_identically_zero(residual) is E.Zeroness.YES

    def test_negative_power_substitution_divides_as_fractions(self):
        e = E.substitute_vars(parse("3*x^-2*y"), {0: E.const(2)})
        assert e == parse("3/4*y") and _canonical(e)

    def test_constant_value_is_a_fraction(self):
        for e in (E.ZERO, E.ONE, E.const(3), E.const(Fraction(1, 2)), parse("2 + 2")):
            assert type(e.constant_value()) is Fraction
        assert parse("x").constant_value() is None

    def test_no_float_in_exact_linear_algebra_of_the_catalog(self, monkeypatch):
        from liefields import exactla
        outputs = []
        real_rref, real_solve = exactla.rref, exactla.solve

        def rref(*args, **kwargs):
            rows, pivots = real_rref(*args, **kwargs)
            outputs.extend(cell for row in rows for cell in row)
            return rows, pivots

        def solve(*args, **kwargs):
            out = real_solve(*args, **kwargs)
            outputs.extend(cell for solution, _ in out for cell in solution)
            return out

        monkeypatch.setattr(exactla, "rref", rref)
        monkeypatch.setattr(exactla, "solve", solve)
        reports = CAT.verify_catalog(seed=0)
        assert all(r.passed for r in reports)
        exprs = [c for c in outputs if isinstance(c, E.Expr)]
        values = [c for c in outputs if not isinstance(c, E.Expr)]
        assert exprs and values
        assert all(type(v) in (int, Fraction) for v in values)
        assert all(_canonical(e) for e in exprs)

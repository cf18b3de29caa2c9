import math
import time
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from liefields import upoly


# ---------------------------------------------------------------------------
# references: the helpers as they were written inside mobility.py


def reference_char_poly(M):
    n = len(M)
    a = [[Fraction(v) for v in row] for row in M]
    coeffs = [Fraction(1)]
    Mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        Ak = reference_mat_mul(a, Mk) if k > 1 else a
        ck = -sum(Ak[i][i] for i in range(n)) / k
        coeffs.append(ck)
        Mk = [row[:] for row in Ak]
        for i in range(n):
            Mk[i][i] += ck
    return coeffs


def reference_mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def reference_semisimple(M):
    p = reference_char_poly(M)
    n = len(p) - 1
    derivative = [(n - i) * c for i, c in enumerate(p[:-1])]
    square_free, _ = reference_divmod(p, reference_gcd([p, derivative]))
    a = [[Fraction(v) for v in row] for row in M]
    value = [[Fraction(0)] * n for _ in range(n)]
    for c in square_free:
        value = reference_mat_mul(value, a)
        for i in range(n):
            value[i][i] += c
    return all(v == 0 for row in value for v in row)


def reference_trim(p):
    while p and p[0] == 0:
        p = p[1:]
    return p


def reference_divmod(a, b):
    a = reference_trim(list(a))
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        f = a[0] / b[0]
        q[len(q) - 1 - (len(a) - len(b))] = f
        for i in range(len(b)):
            a[i] -= f * b[i]
        a = reference_trim(a[1:])
    return q, a


def reference_gcd(polys):
    polys = [reference_trim(p) for p in polys if reference_trim(p)]
    if not polys:
        return []
    g = polys[0]
    for p in polys[1:]:
        a, b = g, p
        while b:
            a, b = b, reference_divmod(a, b)[1]
        g = a
        if len(g) == 1:
            return g
    return g


def reference_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def reference_rational_roots(coeffs):
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    lead, tail = ints[0], ints[-1]
    if tail == 0:
        reduced = coeffs[:-1]
        rest = reference_rational_roots(reduced) if len(reduced) > 1 else []
        return [Fraction(0)] + [r for r in rest if r != 0]
    cands = set()
    for pnum in reference_divisors(abs(tail)):
        for pden in reference_divisors(abs(lead)):
            cands |= {Fraction(pnum, pden), Fraction(-pnum, pden)}
    out = []
    for cand in cands:
        val = Fraction(0)
        for c in coeffs:
            val = val * cand + c
        if val == 0:
            out.append(cand)
    return sorted(out)


# ---------------------------------------------------------------------------
# strategies

COEFF = st.fractions(-6, 6, max_denominator=4)
ROOT = st.fractions(-4, 4, max_denominator=3)


@st.composite
def polys(draw, max_degree=5):
    """Nonzero polynomials, also products of rational linear factors so that
    rational roots and repeated factors are common."""
    if draw(st.booleans()):
        p = [Fraction(1)]
        for r in draw(st.lists(ROOT, min_size=1, max_size=max_degree)):
            p = [a - r * b for a, b in zip(p + [0], [0] + p)]
        scale = draw(st.fractions(1, 5, max_denominator=3))
        return [scale * c for c in p]
    lead = draw(COEFF.filter(lambda c: c != 0))
    return [lead] + draw(st.lists(COEFF, max_size=max_degree))


@st.composite
def matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    entry = st.sampled_from([Fraction(0)] * 3 + [Fraction(v) for v in (-2, -1, 1, 2)]
                            + [Fraction(1, 2)])
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


def value(p, x):
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def product(factors):
    out = [Fraction(1)]
    for f in factors:
        out = [sum((out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f)),
                   Fraction(0)) for k in range(len(out) + len(f) - 1)]
    return out


# ---------------------------------------------------------------------------
# the moved helpers agree with their references


class TestAgreesWithMovedHelpers:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_char_poly_and_semisimple(self, M):
        assert upoly.char_poly(M) == reference_char_poly(M)
        # periodicity's semisimplicity test: the square-free part vanishes at M
        square_free = upoly.square_free(upoly.char_poly(M))
        assert (not any(map(any, upoly.matrix_value(square_free, M)))) == reference_semisimple(M)

    @settings(max_examples=150, deadline=None)
    @given(polys(), polys())
    def test_divide_and_gcd(self, a, b):
        q, r = upoly.divide(a, b)
        assert (q, r) == reference_divmod(a, b)
        assert upoly.gcd([a, b]) == reference_gcd([a, b])

    @settings(max_examples=150, deadline=None)
    @given(polys())
    def test_rational_roots(self, p):
        roots = upoly.rational_roots(p)
        assert roots == sorted(reference_rational_roots(p))
        assert all(value(p, r) == 0 for r in roots)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(ROOT, min_size=1, max_size=5), st.booleans(), st.integers(1, 5))
    def test_real_root_count(self, roots, with_root2, k):
        # the rational roots, each once, plus +-sqrt 2; x^2 + k adds none
        factors = [[1, -r] for r in roots] + [[1, 0, k]] + ([[1, 0, -2]] if with_root2 else [])
        assert upoly.real_root_count(product(factors)) == len(set(roots)) + 2 * with_root2


class TestSquareFree:
    @settings(max_examples=150, deadline=None)
    @given(polys())
    def test_square_free_part_keeps_each_root_once(self, p):
        s = upoly.square_free(p)
        assert s[0] == 1
        assert upoly.divide(p, s)[1] == []                              # s divides p
        assert len(upoly.gcd([s, upoly.derivative(s)])) <= 1           # no repeated root
        assert upoly.rational_roots(s) == upoly.rational_roots(p)

    @settings(max_examples=150, deadline=None)
    @given(polys().filter(lambda p: len(p) > 1))
    def test_yun_factors_multiply_back(self, p):
        factors = upoly.square_free_factors(p)
        assert product([s for s, k in factors for _ in range(k)]) == upoly.monic(p)
        assert all(len(upoly.gcd([s, t])) == 1
                   for i, (s, _) in enumerate(factors) for t, _ in factors[i + 1:])

    def test_to_string(self):
        assert upoly.to_string([1, 0, 2, 0, 1, 0, 0]) == "λ²(λ²+1)²"
        assert upoly.to_string([2, 0, 2, 0]) == "λ(λ²+1)"
        assert upoly.to_string([1, 0, 1]) == "λ²+1"
        assert upoly.to_string([1, 0, 0]) == "λ²"
        assert upoly.to_string([1, Fraction(-2, 3), 1]) == "λ²-(2/3)λ+1"
        assert upoly.to_string([1, -2, 1]) == "(λ-1)²"


# ---------------------------------------------------------------------------
# periodicity


def blocks(*mats):
    n = sum(len(m) for m in mats)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for m in mats:
        for i, row in enumerate(m):
            out[at + i][at:at + len(row)] = [Fraction(v) for v in row]
        at += len(m)
    return out


def rotation(omega):
    return [[0, -omega], [omega, 0]]


JORDAN_ROTATION = [[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]


class TestPeriodicity:
    def test_two_commensurable_frequencies(self):
        # omega = 1 and 2 return together at 2*pi
        assert upoly.periodicity(blocks(rotation(1), rotation(2))) == (
            1, "semisimple, charpoly λ⁴+5λ²+4")

    def test_fractional_frequencies_share_their_gcd(self):
        # omega = 1/2 and 1/3: fundamental 1/6, period 12*pi
        result = upoly.periodicity(blocks(rotation(Fraction(1, 2)), rotation(Fraction(1, 3))))
        assert result.omega_squared == Fraction(1, 36)

    def test_rational_incommensurable_never_returns(self):
        # characteristic polynomial (λ²+1)(λ²+2)
        M = blocks(rotation(1), [[0, -2], [1, 0]])
        assert upoly.to_string(upoly.char_poly(M)) == "λ⁴+3λ²+2"
        assert upoly.periodicity(M) == (
            None, "has incommensurable frequencies, charpoly λ⁴+3λ²+2")

    def test_irrational_squared_frequencies_never_return(self):
        # companion matrix of λ⁴+3λ²+1: omega^2 = (3 +- sqrt 5)/2
        M = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -3], [0, 0, 1, 0]]
        assert upoly.periodicity(M) == (
            None, "has an irrational root in λ², charpoly λ⁴+3λ²+1")

    def test_jordan_block_rotation_never_returns(self):
        assert upoly.periodicity(JORDAN_ROTATION) == (
            None, "is not semisimple, charpoly (λ²+1)²")

    def test_zero_block_beside_a_rotation(self):
        assert upoly.periodicity(blocks(rotation(3), [[0]])).omega_squared == 9
        assert upoly.periodicity(blocks(rotation(3), [[0, 1], [0, 0]])) == (
            None, "is not semisimple, charpoly λ²(λ²+9)")

    def test_other_never_reasons(self):
        assert upoly.periodicity([[0, 1], [0, 0]]) == (None, "nilpotent")
        assert upoly.periodicity([[1, 0], [0, -2]]) == (None, "has real eigenvalues -2, 1")
        assert upoly.periodicity([[0, 2], [1, 0]]) == (
            None, "has real eigenvalues ±√2, charpoly λ²-2")
        assert upoly.periodicity([[1, -1], [1, 1]]) == (
            None, "has eigenvalues off the imaginary axis, charpoly λ²-2λ+2")

    def test_close_large_frequencies_decided_fast(self):
        # frequencies 10^6 and 10^6 + 1: the rational roots of q are found by
        # Sturm bisection, not by trial division of its constant term
        started = time.perf_counter()
        result = upoly.periodicity(blocks(rotation(10**6), rotation(10**6 + 1)))
        assert time.perf_counter() - started < 1.0
        assert result.omega_squared == 1

    def test_zero_matrix_returns_at_every_time(self):
        assert upoly.periodicity([[0, 0], [0, 0]]) == (0, "zero")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3), st.integers(1, 3))
    def test_integer_frequencies_have_their_gcd(self, omegas, scale):
        M = blocks(*(rotation(Fraction(w, scale)) for w in omegas))
        expected = Fraction(math.gcd(*omegas), scale)
        assert upoly.periodicity(M).omega_squared == expected ** 2

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_periodic_verdicts_are_semisimple_with_imaginary_spectrum(self, M):
        omega_squared, _ = upoly.periodicity(M)
        if omega_squared:
            assert reference_semisimple(M)
            eigs = np.linalg.eigvals(np.array([[float(v) for v in row] for row in M]))
            assert all(abs(l.real) < 1e-6 for l in eigs)
            omega = math.sqrt(omega_squared)
            assert all(abs(l.imag / omega - round(l.imag / omega)) < 1e-6 for l in eigs)

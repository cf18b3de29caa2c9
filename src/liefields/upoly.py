"""Exact univariate polynomials over Q and the spectral tests built on them:
characteristic polynomial, square-free part and factorisation, Sturm counts
of real roots, rational roots, semisimplicity, and whether e^{TM} = I for
some T > 0.

A polynomial is a list of coefficients (Fraction or int), highest degree
first; ``trim`` drops leading zeros and ``[]`` is the zero polynomial."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence


def trim(p) -> list:
    """p without leading zeros."""
    p = list(p)
    while p and p[0] == 0:
        p = p[1:]
    return p


def derivative(p) -> list:
    n = len(p) - 1
    return [(n - i) * c for i, c in enumerate(p[:-1])]


def monic(p) -> list:
    p = trim(p)
    return [Fraction(c) / p[0] for c in p] if p else []


def divide(a, b):
    """Quotient and remainder of a by a trimmed nonzero b."""
    a = trim(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        f = Fraction(a[0]) / b[0]
        q[len(q) - 1 - (len(a) - len(b))] = f
        for i in range(len(b)):
            a[i] -= f * b[i]
        a = trim(a[1:])
    return q, a


def gcd(polys) -> list:
    """A greatest common divisor of the polynomials by Euclid's algorithm, not
    normalised; [] when all of them are zero."""
    polys = [p for p in map(trim, polys) if p]
    if not polys:
        return []
    g = polys[0]
    for p in polys[1:]:
        a, b = g, p
        while b:
            a, b = b, divide(a, b)[1]
        g = a
        if len(g) == 1:
            return g
    return g


def square_free(p) -> list:
    """The monic square-free part p / gcd(p, p'): the same roots, each once."""
    return monic(divide(p, gcd([p, derivative(p)]))[0])


def square_free_factors(p) -> List[tuple]:
    """Yun's factorisation of a nonconstant p: pairs (s_k, k) of monic,
    square-free, pairwise coprime factors of degree >= 1 with
    monic(p) = prod s_k^k."""
    p = monic(p)
    dp = derivative(p)
    g = gcd([p, dp])
    c = divide(p, g)[0]
    d = _subtract(divide(dp, g)[0], derivative(c))
    out = []
    k = 1
    while len(c) > 1:
        a = monic(gcd([c, d]))
        c = divide(c, a)[0]
        d = _subtract(divide(d, a)[0], derivative(c))
        if len(a) > 1:
            out.append((a, k))
        k += 1
    return out


def _subtract(a, b) -> list:
    width = max(len(a), len(b))
    return [x - y for x, y in zip([0] * (width - len(a)) + a, [0] * (width - len(b)) + b)]


def _sturm(p) -> list:
    """The Sturm sequence of the square-free part s of p != 0: s, s', then
    each negated remainder, down to a nonzero constant; each scaled by a
    positive integer to integer coefficients, which keeps its signs."""
    s = square_free(p)
    seq = [s, derivative(s)] if len(s) > 1 else [s]
    while len(seq[-1]) > 1:
        seq.append([-c for c in divide(seq[-2], seq[-1])[1]])
    return [_integral(q) for q in seq]


def _integral(q) -> List[int]:
    """q times the lcm of its denominators."""
    scale = math.lcm(*(Fraction(c).denominator for c in q))
    return [int(c * scale) for c in q]


def _scaled_value(q, num: int, den: int) -> int:
    """den^deg q(num / den) for an integer q, by Horner in integers."""
    value, power = q[0], 1
    for c in q[1:]:
        power *= den
        value = value * num + c * power
    return value


def _sign_changes(seq, x: Fraction) -> int:
    """Sign changes along the integer sequence at x, zeros skipped. For a
    Sturm sequence, changes(a) - changes(b) is the number of distinct real
    roots in (a, b], for any a < b."""
    values = [_scaled_value(q, x.numerator, x.denominator) for q in seq]
    signs = [value > 0 for value in values if value]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_bound(s) -> Fraction:
    """A bound strictly above |x| for every root x of s (Cauchy)."""
    return 1 + Fraction(max(abs(c) for c in s), abs(s[0]))


def real_root_count(p) -> int:
    """The number of distinct real roots of p != 0, by Sturm's theorem."""
    seq = _sturm(p)
    bound = _root_bound(seq[0])
    return _sign_changes(seq, -bound) - _sign_changes(seq, bound)


def rational_roots(p) -> List[Fraction]:
    """The distinct rational roots of p != 0, in increasing order.

    Let a s, with a > 0, be the square-free part of p as an integer polynomial
    with leading coefficient a. A rational root has a denominator dividing a
    (rational root theorem), and two fractions with denominators up to a lie
    at least 1/a^2 apart. So once a point lies within 1/(2 a^2) of a real
    root, the fraction with denominator up to a nearest it is the root's only
    rational candidate, kept when it is a root. Bisection by Sturm counts
    isolates each real root; Newton steps then approach it (_near_root), so
    the number of steps grows with the log of the digits of a, not with the
    digits."""
    seq = _sturm(p)
    s = seq[0]
    lead = s[0]
    width = Fraction(1, 2 * lead * lead)
    bound = _root_bound(s)
    roots = set()
    stack = [(-bound, _sign_changes(seq, -bound), bound, _sign_changes(seq, bound))]
    while stack:
        lo, changes_lo, hi, changes_hi = stack.pop()
        if changes_lo == changes_hi:
            continue
        if changes_lo - changes_hi == 1:
            candidate = _near_root(seq, lo, changes_lo, hi, width).limit_denominator(lead)
            if _value(s, candidate) == 0:
                roots.add(candidate)
            continue
        mid = (lo + hi) / 2
        changes_mid = _sign_changes(seq, mid)
        stack += [(lo, changes_lo, mid, changes_mid), (mid, changes_mid, hi, changes_hi)]
    return sorted(roots)


def _near_root(seq, lo: Fraction, changes_lo: int, hi: Fraction, width: Fraction) -> Fraction:
    """A point within width of the one real root of the Sturm sequence seq
    in (lo, hi]. The points tried are X / grid, on a dyadic grid finer than
    width, so that the sizes of the numbers stay bounded. From each X a
    Newton step, in integers, gives the next X while it stays inside and at
    most halves the last step; else the next X is the midpoint (the
    safeguard of Numerical Recipes' rtsafe). The Sturm count at X cuts the
    interval there. A Newton step of at most 2 grid points instead puts a
    box of half-width h = 2 / grid < width around its end: the counts at the
    box ends find the root within h, or cut the box away. A root at hi, which
    Newton steps from inside may overshoot, is tested first."""
    s, ds = seq[0], derivative(seq[0])
    if _scaled_value(s, hi.numerator, hi.denominator) == 0:
        return hi
    grid = 2 << (4 * width.denominator // width.numerator).bit_length()   # h <= width / 4
    X, step = round((lo + hi) / 2 * grid), (hi - lo) * grid
    while hi - lo >= width:
        slope = _scaled_value(ds, X, grid)   # s / ds at X / grid is S / (slope * grid)
        newton = X - _scaled_value(s, X, grid) // slope if slope else None
        if newton is not None and abs(newton - X) <= 2:
            left, right = max(lo, Fraction(newton - 2, grid)), min(hi, Fraction(newton + 2, grid))
        else:
            left = right = Fraction(X, grid)
        changes_left = _sign_changes(seq, left) if left > lo else changes_lo
        changes_right = _sign_changes(seq, right) if right != left else changes_left
        if changes_lo != changes_left:      # the root is in (lo, left]
            hi = left
        elif changes_left != changes_right:  # in (left, right]: within h of newton
            return Fraction(newton, grid)
        else:
            lo, changes_lo = right, changes_right
        if newton is not None and lo < Fraction(newton, grid) < hi and 2 * abs(newton - X) <= step:
            X, step = newton, abs(newton - X)
        else:
            X, step = round((lo + hi) / 2 * grid), (hi - lo) / 2 * grid
    return hi


def _value(p, x):
    acc = Fraction(0)
    for c in p:  # Horner
        acc = acc * x + c
    return acc


def char_poly(M: Sequence[Sequence]) -> List[Fraction]:
    """Characteristic polynomial det(lambda I - M) = [1, c1, ..., cn] of an
    exact matrix, by the Faddeev-LeVerrier recurrence."""
    n = len(M)
    a = [[Fraction(v) for v in row] for row in M]
    coeffs = [Fraction(1)]
    Mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        Ak = _mat_mul(a, Mk) if k > 1 else a
        ck = -sum(Ak[i][i] for i in range(n)) / k
        coeffs.append(ck)
        Mk = [row[:] for row in Ak]
        for i in range(n):
            Mk[i][i] += ck
    return coeffs


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def matrix_value(p, M) -> List[List[Fraction]]:
    """p(M), by Horner on matrices."""
    n = len(M)
    a = [[Fraction(v) for v in row] for row in M]
    value = [[Fraction(0)] * n for _ in range(n)]
    for c in p:
        value = _mat_mul(value, a)
        for i in range(n):
            value[i][i] += c
    return value


_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _power(base: str, k: int) -> str:
    return base + (str(k).translate(_SUPERSCRIPT) if k > 1 else "")


def _terms(p, var: str) -> str:
    """p written out, such as ``λ²-2λ+1/2``."""
    out = ""
    n = len(p) - 1
    for i, c in enumerate(p):
        if c == 0:
            continue
        degree = n - i
        size = abs(Fraction(c))
        body = str(size) if degree == 0 else _power(var, degree)
        if degree and size != 1:
            body = (str(size) if size.denominator == 1 else f"({size})") + body
        out += ("-" if c < 0 else "+" if out else "") + body
    return out


def to_string(p, var: str = "λ") -> str:
    """A nonconstant p as its monic square-free factorisation, powers of
    var first, such as ``λ²(λ²+1)²``."""
    p = monic(p)
    zeros = 0
    while p[-1] == 0:
        p, zeros = p[:-1], zeros + 1
    parts = [_power(var, zeros)] if zeros else []
    factors = square_free_factors(p) if len(p) > 1 else []
    for s, k in factors:
        text = _terms(s, var)
        single = not parts and len(factors) == 1 and k == 1
        parts.append(text if single else _power(f"({text})", k))
    return "".join(parts)


class Periodicity(NamedTuple):
    """omega_squared is the square of the fundamental frequency, so that
    e^{TM} = I exactly for T in (2 pi / omega) Z; None when e^{TM} != I for
    every T > 0, and 0 for M = 0, where every T returns."""
    omega_squared: Optional[Fraction]
    reason: str


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """The rational square root of q, or None when q has none."""
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(num, den) if num * num == q.numerator and den * den == q.denominator else None


def periodicity(M: Sequence[Sequence]) -> Periodicity:
    """Whether e^{TM} = I for some T > 0, for a real matrix M with rational
    entries, decided over Q. That holds iff
    - M is semisimple,
    - the square-free part of its characteristic polynomial is
      lambda^e q(lambda^2), so that the nonzero eigenvalues are +-i omega_k
      with omega_k^2 = -u_k for the roots u_k of q, and
    - every root of q is a negative rational and every ratio of two roots is
      a rational square, so that the omega_k are commensurable.
    The rational-root test is complete: if the omega_k are pairwise
    commensurable, every Galois conjugate of a root u of q is a positive
    rational multiple r u of it, so u = trace(u) / sum(r) is rational.
    The reason names the deciding property and shows the characteristic
    polynomial."""
    if all(v == 0 for row in M for v in row):
        return Periodicity(Fraction(0), "zero")
    p = char_poly(M)
    s = square_free(p)
    if s == [1, 0]:
        return Periodicity(None, "nilpotent")
    shown = to_string(p)
    real = [r for r in rational_roots(s) if r != 0]
    if real:
        plural = "s" if len(real) > 1 else ""
        return Periodicity(None, f"has real eigenvalue{plural} {', '.join(map(str, real))}")
    r = s[:-1] if s[-1] == 0 else s
    if len(r) % 2 == 0 or any(r[1::2]):
        return Periodicity(None, f"has eigenvalues off the imaginary axis, charpoly {shown}")
    if any(map(any, matrix_value(s, M))):
        return Periodicity(None, f"is not semisimple, charpoly {shown}")
    q = r[0::2]
    roots = rational_roots(q)
    if len(roots) < len(q) - 1:
        return Periodicity(None, f"has an irrational root in λ², charpoly {shown}")
    if roots[-1] > 0:
        return Periodicity(None, f"has real eigenvalues ±√{roots[-1]}, charpoly {shown}")
    squares = sorted(-u for u in roots)
    ratios = [rational_sqrt(w / squares[0]) for w in squares]
    if None in ratios:
        return Periodicity(None, f"has incommensurable frequencies, charpoly {shown}")
    # omega_k = omega_1 * ratio_k; the fundamental omega is omega_1 * gcd(ratios)
    lcm = math.lcm(*(f.denominator for f in ratios))
    common = Fraction(math.gcd(*(int(f * lcm) for f in ratios)), lcm)
    return Periodicity(squares[0] * common * common, f"semisimple, charpoly {shown}")

"""Exact linear algebra over the rationals and over rational functions of
the parameters or variables (Expr entries). Determinism is the point, not
asymptotics.

Three eliminations, each done once in the cheapest exact arithmetic:
- ``rank`` over Q clears each row's denominators and eliminates
  fraction-free on Python ints (gcd-normalised rows); row scaling keeps the
  rank, and no value leaves the function. Over Q(params), or Q(x') for
  the isotropy rows, it counts the pivots of ``rref``.
- ``solve`` takes a list of right-hand sides and eliminates the augmented
  matrix [A | b_1 ... b_m] once; each column goes through exactly the
  operations of its own solve.
- ``rref`` leaves a cell alone where the pivot row holds a zero, so an
  update costs one operation per nonzero of the pivot row."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

from . import expr as E


class FieldOps:
    """Pluggable field operations for the elimination routines."""

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    zero = None
    one = None


class FractionOps(FieldOps):
    zero = Fraction(0)
    one = Fraction(1)

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return Fraction(1) / a


class ExprOps(FieldOps):
    """Rational functions of the parameters or variables. Zero decisions are
    exact on entries that carry no transcendental nodes; a surviving node
    raises ExprError."""

    zero = E.ZERO
    one = E.ONE

    def is_zero(self, a):
        z = E.is_identically_zero(a)
        if z is E.Zeroness.UNKNOWN:
            raise E.ExprError("undecidable zero test inside exact elimination")
        return z is E.Zeroness.YES

    def add(self, a, b):
        return E.add(a, b)

    def neg(self, a):
        return E.neg(a)

    def mul(self, a, b):
        return E.mul(a, b)

    def inv(self, a):
        return E.inverse(a)


FRACTION_OPS = FractionOps()
EXPR_OPS = ExprOps()


def _copy(matrix):
    return [list(row) for row in matrix]


def rref(matrix: Sequence[Sequence], ops: FieldOps = FRACTION_OPS, max_col: int | None = None):
    """Reduced row echelon form. Returns (rows, pivot column list). Pivot
    search can be limited to the first max_col columns (used by solve so an
    augmented right-hand side is never chosen as a pivot)."""
    rows = _copy(matrix)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols if max_col is None else min(ncols, max_col)):
        pivot_row = None
        for i in range(r, len(rows)):
            if not ops.is_zero(rows[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = ops.inv(rows[r][col])
        rows[r] = [ops.mul(scale, v) for v in rows[r]]
        pivot = rows[r]
        for i in range(len(rows)):
            if i != r and not ops.is_zero(rows[i][col]):
                f = rows[i][col]
                # a zero of the cell's own type leaves a - f*0 equal to a, also in type
                rows[i] = [a if not p and type(a) is type(p) else ops.add(a, ops.neg(ops.mul(f, p)))
                           for a, p in zip(rows[i], pivot)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: Sequence[Sequence], ops: FieldOps = FRACTION_OPS) -> int:
    """Rank over Q (int and Fraction entries; anything else raises
    TypeError) or, with EXPR_OPS, over the rational functions of the
    entries' parameters and variables."""
    if ops is not FRACTION_OPS:
        return len(rref(matrix, ops)[1])
    rows = [row for row in map(_integer_row, matrix) if any(row)]
    found = col = 0
    while rows:
        # every remaining row is zero left of col and nonzero somewhere
        pivot = next((row for row in rows if row[col]), None)
        col += 1
        if pivot is None:
            continue
        found += 1
        p, rest = pivot[col - 1], []
        for row in rows:
            if row is pivot:
                continue
            a = row[col - 1]
            if a:
                row = [p * x - a * y for x, y in zip(row, pivot)]
                g = math.gcd(*row)
                if not g:
                    continue
                if g > 1:
                    row = [x // g for x in row]
            rest.append(row)
        rows = rest
    return found


def _integer_row(row) -> list:
    """The row times the lcm of its denominators, as ints."""
    den = 1
    for v in row:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"rank over Q needs int or Fraction entries, got {type(v).__name__}")
        den = math.lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in row]


def nullspace(matrix: Sequence[Sequence], ops: FieldOps = FRACTION_OPS) -> List[list]:
    """Basis of right kernel vectors v with A v = 0."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix, ops)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for r, pc in enumerate(pivots):
            v[pc] = ops.neg(rows[r][fc])
        basis.append(v)
    return basis


def solve(matrix: Sequence[Sequence], rhs: Sequence[Sequence], ops: FieldOps = FRACTION_OPS):
    """Solve A x = b for every right-hand side b in rhs with one elimination
    of [A | b_1 ... b_m]. Returns one (x, consistent) per side, in order.
    Free unknowns are set to zero; when b is inconsistent, x is the partial
    solution from the consistent rows."""
    if not matrix:
        return [([], True) for _ in rhs]
    ncols = len(matrix[0])
    aug = [list(row) + [b[i] for b in rhs] for i, row in enumerate(matrix)]
    rows, pivots = rref(aug, ops, max_col=ncols)
    out = []
    for c in range(ncols, ncols + len(rhs)):
        solution = [ops.zero] * ncols
        for r, pc in enumerate(pivots):
            solution[pc] = rows[r][c]
        out.append((solution, all(ops.is_zero(row[c]) for row in rows[len(pivots):])))
    return out


def det3(matrix, mul, add, neg):
    """3x3 determinant via cofactors with caller-supplied ring operations."""
    (a, b, c), (d, e, f), (g, h, i) = matrix
    t1 = mul(a, add(mul(e, i), neg(mul(f, h))))
    t2 = mul(b, add(mul(f, g), neg(mul(d, i))))
    t3 = mul(c, add(mul(d, h), neg(mul(e, g))))
    return add(add(t1, t2), t3)


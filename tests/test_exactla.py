import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liefields import exactla, expr as E


def reference_rref(matrix, ops=exactla.FRACTION_OPS, max_col=None):
    """Elimination that updates every cell of a row, zeros of the pivot row
    included: the reference for the skip in exactla.rref."""
    rows = [list(row) for row in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols if max_col is None else min(ncols, max_col)):
        pivot_row = next((i for i in range(r, len(rows)) if not ops.is_zero(rows[i][col])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = ops.inv(rows[r][col])
        rows[r] = [ops.mul(scale, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not ops.is_zero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [ops.add(rows[i][j], ops.neg(ops.mul(f, rows[r][j])))
                           for j in range(ncols)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_solve(matrix, rhs):
    """One elimination per right-hand side."""
    if not matrix:
        return [], True
    ncols = len(matrix[0])
    rows, pivots = reference_rref([list(row) + [b] for row, b in zip(matrix, rhs)],
                                  max_col=ncols)
    x = [exactla.FRACTION_OPS.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x, all(row[ncols] == 0 for row in rows[len(pivots):])


def typed(value):
    """Values with their types, so that 3 and Fraction(3) differ."""
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    return (type(value), value)


ENTRY = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))


@st.composite
def matrices(draw, min_rows=0):
    """Wide, tall and square matrices of ints and Fractions (also []), with
    some rows and columns zeroed."""
    nrows, ncols = draw(st.integers(min_rows, 6)), draw(st.integers(1, 6))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1))) if nrows else set()
    zero_cols = draw(st.sets(st.integers(0, ncols - 1)))
    return [[0 if i in zero_rows or j in zero_cols else draw(ENTRY) for j in range(ncols)]
            for i in range(nrows)]


class TestRankAndKernel:
    def test_rank_simple(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert exactla.rank(m) == 1

    def test_nullspace_solves(self):
        m = [[Fraction(1), Fraction(2), Fraction(3)],
             [Fraction(2), Fraction(4), Fraction(6)],
             [Fraction(1), Fraction(0), Fraction(1)]]
        basis = exactla.nullspace(m)
        assert len(basis) == 3 - exactla.rank(m)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0

    def test_solve_consistent(self):
        m = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]]
        [(x, ok)] = exactla.solve(m, [[Fraction(4), Fraction(5)]])
        assert ok
        assert x == [Fraction(2), Fraction(3)]

    def test_solve_inconsistent_partial(self):
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
        [(x, ok)] = exactla.solve(m, [[Fraction(3), Fraction(1)]])
        assert not ok
        assert x[0] == Fraction(3)

    def test_int_pivots_give_fractions(self):
        # an int pivot is inverted over Q, not as a float
        assert typed(exactla.nullspace([[3, 1]])) == typed([[Fraction(-1, 3), Fraction(1)]])
        [(x, ok)] = exactla.solve([[3]], [[1]])
        assert ok and typed(x) == typed([Fraction(1, 3)])

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=2, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_rank_invariant_under_row_shuffle(self, rows):
        m = [[Fraction(v) for v in row] for row in rows]
        shuffled = list(m)
        random.Random(0).shuffle(shuffled)
        assert exactla.rank(m) == exactla.rank(shuffled)

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_nullspace_dimension_theorem(self, rows):
        m = [[Fraction(v) for v in row] for row in rows]
        assert exactla.rank(m) + len(exactla.nullspace(m)) == 3


class TestEliminationAgainstReference:
    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_integer_rank_counts_rref_pivots(self, m):
        as_fractions = [[Fraction(v) for v in row] for row in m]
        assert exactla.rank(m) == len(reference_rref(as_fractions)[1])

    @pytest.mark.parametrize("bad", [None, 0.5, 1.0, "1"])
    def test_non_rational_entry_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            exactla.rank([[Fraction(1), 2], [3, bad]])

    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_rref_skips_zeros_without_changing_values_or_types(self, m):
        rows, pivots = exactla.rref(m)
        ref_rows, ref_pivots = reference_rref(m)
        assert pivots == ref_pivots
        assert typed(rows) == typed(ref_rows)

    @given(matrices(min_rows=1), st.integers(0, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_solve_for_many_sides_equals_one_solve_each(self, m, nsides, data):
        sides = [[data.draw(ENTRY) for _ in m] for _ in range(nsides)]
        got = exactla.solve(m, sides)
        assert len(got) == nsides
        for (x, ok), side in zip(got, sides):
            ref_x, ref_ok = reference_solve(m, side)
            assert ok is ref_ok and typed(x) == typed(ref_x)

    def test_mixed_int_fraction_nullspace_and_solve(self):
        # values and types as the single-side elimination gave them
        m = [[Fraction(2), Fraction(4), 0, Fraction(1, 3)],
             [Fraction(1), 0, 5, 7],
             [3, Fraction(6), Fraction(0), 1]]
        assert typed(exactla.nullspace(m)) == typed(
            [[Fraction(-5), Fraction(5, 2), Fraction(1), Fraction(0)]])
        [(x, ok)] = exactla.solve(m, [[1, Fraction(1, 2), 0]])
        assert ok
        assert typed(x) == typed([Fraction(43, 2), Fraction(-41, 4), Fraction(0), Fraction(-3)])
        m2 = [[Fraction(1), 0, 2], [Fraction(3), 1, 0], [0, 0, 0]]
        assert typed(exactla.rref(m2)[0][2]) == typed([0, 0, 0])
        [(x, ok)] = exactla.solve(m2, [[1, 2, 3]])
        assert not ok
        assert typed(x) == typed([Fraction(1), Fraction(-1), Fraction(0)])

    def test_no_sides_and_empty_matrix(self):
        assert exactla.solve([[Fraction(1)]], []) == []
        assert exactla.solve([], [[], []]) == [([], True), ([], True)]
        assert exactla.rank([]) == 0
        assert exactla.rank([[]]) == 0


class TestExprField:
    def test_parametric_elimination(self):
        c = E.param(0)
        m = [[c, E.ONE], [E.ONE, E.inverse(c)]]  # rank 1 over Q(c)
        assert exactla.rank(m, exactla.EXPR_OPS) == 1

    def test_parametric_kernel(self):
        c = E.param(0)
        m = [[c, E.const(-1)]]
        basis = exactla.nullspace(m, exactla.EXPR_OPS)
        assert len(basis) == 1
        v = basis[0]
        residual = E.add(E.mul(m[0][0], v[0]), E.mul(m[0][1], v[1]))
        assert E.is_identically_zero(residual) is E.Zeroness.YES


class TestDet3:
    def test_matches_cofactor_expansion(self):
        rng = random.Random(3)
        for _ in range(20):
            rows = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
            got = exactla.det3(rows, lambda a, b: a * b, lambda a, b: a + b, lambda a: -a)
            a, b, c = rows
            want = (a[0] * (b[1] * c[2] - b[2] * c[1])
                    - a[1] * (b[0] * c[2] - b[2] * c[0])
                    + a[2] * (b[0] * c[1] - b[1] * c[0]))
            assert got == want

"""Lie-algebra-level structure: closure and structure constants, Jacobi
verification, transitivity, isotropy, linearized isotropy, reduced algebra,
joint invariant counting and the two-point determinant criterion."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import exactla, expr as E
from . import fields as F
from .fields import VectorField


class NotClosedError(Exception):
    def __init__(self, j: int, k: int, residual: VectorField):
        super().__init__(f"[X{j + 1}, X{k + 1}] leaves the constant span")
        self.j = j
        self.k = k
        self.residual = residual


class NotTransitiveAtBase(Exception):
    pass


@dataclass(frozen=True)
class LieAlgebraPresentation:
    name: str
    vars: tuple
    params: tuple
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def dim(self) -> int:
        return len(self.vars)

    @property
    def order(self) -> int:
        return len(self.generators)

    def validate(self) -> None:
        if any(g.dim != self.dim for g in self.generators):
            raise F.FieldError("generator dimension mismatch")
        if not F.linear_independence_over_constants(list(self.generators)):
            raise F.FieldError(f"{self.name}: generators dependent over constants")


def presentation(name: str, vars: Sequence[str], generators: Sequence[str],
                 params: Sequence[str] = ()) -> LieAlgebraPresentation:
    gens = tuple(F.parse_field(g, vars, params) for g in generators)
    return LieAlgebraPresentation(name, tuple(vars), tuple(params), gens)


@dataclass(frozen=True)
class StructureConstants:
    order: int
    c: tuple  # c[j][k][s] -> Expr in the parameters

    def entry(self, j: int, k: int, s: int) -> E.Expr:
        return self.c[j][k][s]


@dataclass(frozen=True)
class IsotropyReport:
    """All fields are tuples: a report is shared by every caller that asks
    for the same isotropy."""

    base: tuple
    combinations: tuple       # rows of constants(params) lambda with sum lambda_k X_k vanishing at base
    vanishing_fields: tuple   # the corresponding VectorFields
    linear_isotropy: tuple    # n x n Jacobian matrices at base (Expr entries), dependent ones pruned
    reduced_basis: tuple      # translations + linear isotropy fields


# The generic rank, the generic point, the isotropy and the joint-invariant
# counts are computed once per process for each presentation, seed and
# parameter values, in caches of this constant size. A key holds each
# parameter value with its type, so a float never shares an entry with an
# equal Fraction and still raises TypeError in exact evaluation.
_CACHE_SIZE = 256


def _values_key(param_values) -> tuple:
    """Hashable form of index-keyed parameter values; None and {} agree."""
    return tuple(sorted((j, type(v), v) for j, v in (param_values or {}).items()))


def _values(key: tuple) -> dict:
    return {j: v for j, _, v in key}


# ---------------------------------------------------------------------------
# closure and structure constants


def check_closure(L: LieAlgebraPresentation) -> StructureConstants:
    """Solve [X_j, X_k] = sum_s c_jk^s X_s exactly by matching canonical
    variable-monomials; the c must be free of the variables. Raises
    NotClosedError with the offending residual otherwise: a residual
    coefficient that is_identically_zero does not decide YES. An UNKNOWN
    raises ExprError, as in exact elimination.

    All brackets share one elimination of [A | B_12 ... B_(r-1)r]. Rows of
    monomials found only in brackets are zero in A, so they are never pivots
    and never updated: each bracket's column sees the operations of its own
    solve. A consistent solve matches every (coordinate, monomial) row
    exactly over Q(params), so its residual is zero; only a bracket whose
    solve is inconsistent has its residual B - sum_s c_s X_s built and
    tested."""
    r = L.order
    key_index: dict = {}
    columns = F.coefficient_rows(L.generators, key_index)
    pairs = [(j, k) for j in range(r) for k in range(j + 1, r)]
    brackets = [F.bracket(L.generators[j], L.generators[k]) for j, k in pairs]
    sides = F.coefficient_rows(brackets, key_index)
    rows = range(len(key_index))
    matrix = [[col.get(row, E.ZERO) for col in columns] for row in rows]
    solutions = exactla.solve(matrix, [[side.get(row, E.ZERO) for row in rows] for side in sides],
                              exactla.EXPR_OPS)
    table = [[[E.ZERO] * r for _ in range(r)] for _ in range(r)]
    for (j, k), B, (constants, consistent) in zip(pairs, brackets, solutions):
        if not consistent:
            residual = B - F.combination(constants, L.generators)
            # constants from an elimination over Q(params) carry inverted
            # blocks, whose sums cancel only under the zero test
            if not residual.is_zero and not all(map(exactla.EXPR_OPS.is_zero, residual.coeffs)):
                raise NotClosedError(j, k, residual)
        for s, cs in enumerate(constants):
            table[j][k][s] = cs
            table[k][j][s] = E.neg(cs)
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
    return StructureConstants(r, frozen)


def verify_structure(C: StructureConstants) -> bool:
    """Exact antisymmetry and the quadratic relations
    0 = sum_s (c_kl^s c_js^t + c_jk^s c_ls^t + c_lj^s c_ks^t).

    c_jk^s + c_kj^s is symmetric in (j, k), so antisymmetry is tested on
    j <= k only. The relation (j, k, l, t) is the X_t coefficient of the
    Jacobiator [X_j, [X_k, X_l]] + [X_l, [X_j, X_k]] + [X_k, [X_l, X_j]];
    once the constants are antisymmetric it is alternating in (j, k, l):
    swapping two indices negates it, and it vanishes when two are equal.
    So summing it over j < k < l, for every t, gives the verdict of all r^4
    relations, still exactly."""
    r = C.order
    for j in range(r):
        for k in range(j, r):
            for s in range(r):
                total = E.add(C.c[j][k][s], C.c[k][j][s])
                if E.is_identically_zero(total) is not E.Zeroness.YES:
                    return False
    # only nonzero products enter the sums: most constants are zero
    support = [[[s for s in range(r) if C.c[j][k][s]] for k in range(r)] for j in range(r)]
    for j in range(r):
        for k in range(j + 1, r):
            for l in range(k + 1, r):
                for t in range(r):
                    acc = E.add_many(
                        E.mul(C.c[a][b][s], C.c[d][s][t])
                        for a, b, d in ((k, l, j), (j, k, l), (l, j, k))
                        for s in support[a][b] if C.c[d][s][t])
                    if acc and E.is_identically_zero(acc) is not E.Zeroness.YES:
                        return False
    return True


# ---------------------------------------------------------------------------
# transitivity, isotropy, reduced algebra


@lru_cache(maxsize=_CACHE_SIZE)
def _generic_rank(L: LieAlgebraPresentation, seed: int, values: tuple) -> int:
    return F.generic_rank(list(L.generators), seed=seed, param_values=_values(values))


def is_transitive(L: LieAlgebraPresentation, seed: int = 0,
                  param_values=None) -> bool:
    return _generic_rank(L, seed, _values_key(param_values)) == L.dim


def find_generic_point(L: LieAlgebraPresentation, seed: int = 0, param_values=None):
    """(coords, params): an integer point, as a tuple, where the evaluation
    matrix attains the generic rank, and a new dict of the parameter values
    there.

    The candidates are the origin, then up to 60 random points, each drawn
    when it is tried. A parameter that param_values leaves free is drawn
    anew for each candidate, after all 60 points; only then are the points
    drawn up front."""
    coords, params = _generic_point(L, seed, _values_key(param_values))
    return coords, dict(params)


@lru_cache(maxsize=_CACHE_SIZE)
def _generic_point(L: LieAlgebraPresentation, seed: int, values: tuple) -> tuple:
    target = _generic_rank(L, seed, values)
    rng = random.Random(seed ^ 0x5EED)
    pidx = F.field_params(list(L.generators))
    pinned = _values(values)
    points = (F.sample_point(L.dim, rng) for _ in range(60))
    if pidx - pinned.keys():
        points = list(points)
    for coords in itertools.chain([[0] * L.dim], points):
        params = F.draw_free_params(pidx, pinned, rng)
        try:
            matrix = F.evaluate_exact_at(L.generators, coords, params)
        except E.DomainError:
            continue
        if exactla.rank(matrix) == target:
            return tuple(coords), tuple(params.items())
    raise F.FieldError("no generic point found")


def isotropy_at_point(L: LieAlgebraPresentation, base, param_values=None) -> IsotropyReport:
    """Exact kernel basis of the evaluation map at base: all constant (in the
    parameters) combinations of the generators vanishing there."""
    base_pt = F._as_point(base)
    pv = dict(param_values or {})
    pv.update(base_pt.params)
    return _isotropy(L, tuple(Fraction(v) for v in base_pt.coords), _values_key(pv))


@lru_cache(maxsize=_CACHE_SIZE)
def _isotropy(L: LieAlgebraPresentation, coords: tuple, values: tuple) -> IsotropyReport:
    pv = _values(values)
    pidx = F.field_params(list(L.generators))
    missing = pidx - set(pv)
    if missing:
        # keep parameters symbolic: evaluate coefficients into Expr entries
        matrix = [
            [E.substitute_vars(c, {i: E.const(coords[i]) for i in range(L.dim)}) for c in g.coeffs]
            for g in L.generators
        ]
        kernel = exactla.nullspace(_transpose(matrix), exactla.EXPR_OPS)
        combos = kernel
    else:
        matrix = F.evaluate_exact_at(L.generators, coords, pv)
        kernel = exactla.nullspace(_transpose(matrix), exactla.FRACTION_OPS)
        combos = [[E.const(v) for v in row] for row in kernel]
    vanishing = tuple(F.substitute_params(F.combination(row, L.generators), pv) for row in combos)
    linear = _linear_isotropy_matrices(vanishing, coords, pv, L.dim)
    return IsotropyReport(coords, tuple(map(tuple, combos)), vanishing, linear,
                          _reduced_basis(linear, L.dim))


def _transpose(matrix):
    return [list(col) for col in zip(*matrix)] if matrix else []


def _linear_isotropy_matrices(vanishing: Sequence[VectorField], coords, param_values, n):
    mats = []
    for X in vanishing:
        J = []
        for nu in range(n):
            row = []
            for tau in range(n):
                d = E.differentiate(X.coeffs[nu], tau)
                d = E.substitute_vars(d, {i: E.const(coords[i]) for i in range(n)})
                if param_values:
                    d = E.substitute_params(d, param_values)
                row.append(d)
            J.append(tuple(row))
        mats.append(tuple(J))
    # prune linearly dependent matrices (over the parameter field)
    kept = []
    vectors = []
    for J in mats:
        vec = [entry for row in J for entry in row]
        trial = vectors + [vec]
        if exactla.rank(trial, exactla.EXPR_OPS) == len(trial):
            kept.append(J)
            vectors.append(vec)
    return tuple(kept)


def _reduced_basis(linear_mats, n):
    out = [F.coordinate_field(n, i) for i in range(n)]
    for J in linear_mats:
        coeffs = tuple(
            E.add_many(E.mul(J[nu][mu], E.var(mu)) for mu in range(n) if not J[nu][mu].is_zero)
            for nu in range(n))
        out.append(VectorField(n, coeffs))
    return tuple(out)


def linear_isotropy_group(L: LieAlgebraPresentation, base, param_values=None) -> tuple:
    """Linear parts (Jacobians at base) of an isotropy basis, with dependent
    matrices pruned. Matrix J acts on the primed block by x' -> J x'."""
    return isotropy_at_point(L, base, param_values).linear_isotropy


def reduced_algebra(L: LieAlgebraPresentation, base, param_values=None,
                    verify: bool = True) -> LieAlgebraPresentation:
    """Translations in all directions plus the linear isotropy fields. The
    result is checked to close under bracket."""
    base_pt = F._as_point(base)
    coords = [Fraction(v) for v in base_pt.coords]
    pv = dict(param_values or {})
    pv.update(base_pt.params)
    matrix = []
    try:
        matrix = F.evaluate_exact_at(L.generators, coords, pv or None)
        rank_at_base = exactla.rank(matrix)
    except (E.DomainError, E.ExprError):
        rank_at_base = None
    if rank_at_base is not None and rank_at_base != L.dim:
        raise NotTransitiveAtBase(f"{L.name}: rank {rank_at_base} < {L.dim} at base")
    report = isotropy_at_point(L, base, param_values)
    reduced = LieAlgebraPresentation(f"{L.name}-reduced", L.vars, L.params, tuple(report.reduced_basis))
    if verify:
        check_closure(reduced)
    return reduced


# ---------------------------------------------------------------------------
# joint invariants


def joint_invariant_count(L: LieAlgebraPresentation, s: int, seed: int = 0,
                          param_values=None) -> int:
    """s*dim minus the generic rank of the generators prolonged to s points.

    Two points of a transitive algebra: the rank is exact, with no draws. At
    the generic point x0 the rank n is certified, so at (x0, y) the two-point
    rank is n plus the rank over Q(y) of the isotropy fields at x0, and the
    count is n minus that rank: one elimination over Q(y) of the isotropy
    that two_point_invariant_criterion reads too. The rank over Q(y) is
    constant on each orbit, and the orbit of x0 is open, so the choice of x0
    does not matter (Lie-Engel, Chap. 2.5).

    Otherwise the rank is sampled at jointly generic configurations (no two
    points sharing any coordinate, fields.sample_configuration), without
    building the prolongation: each generator is evaluated at the s points of
    a configuration. At s >= 3 on the catalog it reaches its ceiling, which
    certifies it."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return _joint_invariant_count(L, s, seed, _values_key(param_values))


@lru_cache(maxsize=_CACHE_SIZE)
def _joint_invariant_count(L: LieAlgebraPresentation, s: int, seed: int, values: tuple) -> int:
    if s == 2 and _generic_rank(L, seed, values) == L.dim:
        coords, params = find_generic_point(L, seed=seed, param_values=_values(values))
        report = isotropy_at_point(L, F.Point(coords), params)
        return L.dim - exactla.rank([X.coeffs for X in report.vanishing_fields], exactla.EXPR_OPS)
    rank = F.generic_rank(list(L.generators), seed=seed, param_values=_values(values), copies=s)
    return s * L.dim - rank


def two_point_invariant_criterion(L: LieAlgebraPresentation, seed: int = 0,
                                  param_values=None) -> bool:
    """For a transitive six-generator algebra in dimension three: the 3x3
    coefficient determinant of an isotropy basis at a generic point vanishes
    identically while some 2x2 minor does not."""
    if L.dim != 3 or L.order != 6:
        raise ValueError("criterion needs six generators in dimension three")
    if not is_transitive(L, seed=seed, param_values=param_values):
        raise ValueError("criterion needs a transitive algebra")
    coords, params = find_generic_point(L, seed=seed, param_values=param_values)
    report = isotropy_at_point(L, F.Point(coords), params)
    if len(report.vanishing_fields) != 3:
        return False
    rows = [list(X.coeffs) for X in report.vanishing_fields]
    det = exactla.det3(rows, E.mul, E.add, E.neg)
    if E.is_identically_zero(det) is not E.Zeroness.YES:
        return False
    for i1 in range(3):
        for i2 in range(i1 + 1, 3):
            for j1 in range(3):
                for j2 in range(j1 + 1, 3):
                    minor = E.add(
                        E.mul(rows[i1][j1], rows[i2][j2]),
                        E.neg(E.mul(rows[i1][j2], rows[i2][j1])),
                    )
                    if E.is_identically_zero(minor) is E.Zeroness.NO:
                        return True
    return False

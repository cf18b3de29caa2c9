"""Mobility criteria: exact classification of linear one-parameter motions,
the return period of a one-parameter subgroup, the seven planar projective
normal forms, and free mobility in the infinitesimal for ambient dimension
2 and 3."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import algebra as A, exactla, expr as E, flows as FL, upoly
from . import fields as F


class UnsupportedDimension(Exception):
    pass


@dataclass(frozen=True)
class LinearMotionClass:
    tag: str  # Zero | Periodic | ProjectivelyPeriodic | Spiral | RealHyperbolic | Nilpotent
    omega: Optional[float] = None
    shift: Optional[float] = None


@dataclass(frozen=True)
class MobilityVerdict:
    free_mobility: bool
    failing_stage: Optional[str] = None
    # a rational vector, or for a fixed direction with irrational coordinates
    # (s, c): the direction sum_k r^k c_k at each real root r of s
    witness: Optional[tuple] = None


def classify_linear_one_param(M: Sequence[Sequence]) -> LinearMotionClass:
    """Classify the flow of x' = M x for a square matrix of exact entries (int
    or Fraction) of any size, decided over Q. A float entry raises TypeError:
    its exact value is a dyadic rational, so a float standing for an
    irrational number would be decided as that rational.

    Zero: M = 0. Nilpotent: M != 0 with every eigenvalue 0. Periodic(w):
    e^{TM} = I at T = 2 pi / w (upoly.periodicity). ProjectivelyPeriodic(w, a):
    the same for M - a I with a = tr M / n != 0, so the flow returns up to the
    factor e^{aT}. Spiral: a non-real eigenvalue remains. RealHyperbolic: a
    real spectrum with a nonzero eigenvalue. Every tag is decided over Q;
    only the reported omega and shift are floats.

    A non-semisimple M with a purely imaginary spectrum, such as a rotation
    carrying a Jordan block (its flow grows like t), has no tag of its own:
    it falls through to Spiral."""
    if any(isinstance(v, float) for row in M for v in row):
        raise TypeError("classify_linear_one_param needs exact entries, got a float")
    exact = [[Fraction(v) for v in row] for row in M]
    n = len(exact)
    if all(v == 0 for row in exact for v in row):
        return LinearMotionClass("Zero")
    s = upoly.square_free(upoly.char_poly(exact))
    if s == [1, 0]:
        return LinearMotionClass("Nilpotent")
    omega_squared, _ = upoly.periodicity(exact)
    if omega_squared:
        return LinearMotionClass("Periodic", omega=math.sqrt(omega_squared))
    shift = sum(exact[i][i] for i in range(n)) / n
    if shift:
        shifted = [[v - (shift if i == j else 0) for j, v in enumerate(row)]
                   for i, row in enumerate(exact)]
        omega_squared, _ = upoly.periodicity(shifted)
        if omega_squared:
            return LinearMotionClass("ProjectivelyPeriodic", omega=math.sqrt(omega_squared),
                                     shift=float(shift))
    if upoly.real_root_count(s) < len(s) - 1:
        return LinearMotionClass("Spiral")
    return LinearMotionClass("RealHyperbolic")


def affine_matrix(X: F.VectorField) -> Optional[List[List[Fraction]]]:
    """The (n+1)x(n+1) matrix [[B, a], [0, 0]] of X = Bx + a, whose
    exponential moves (x, 1); None when X is not of that form with constant
    B and a."""
    n = X.dim
    augmented = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i, c in enumerate(X.coeffs):
        if not E.is_polynomial(c):
            return None
        for expo, coef in E.poly_coefficients(c, n).items():
            value = coef.constant_value()
            if sum(expo) > 1 or value is None:
                return None
            augmented[i][expo.index(1) if sum(expo) else n] = value
    return augmented


# ---------------------------------------------------------------------------
# the return period of a one-parameter subgroup


class ReturnMismatch(ValueError):
    """An exact period that integrating over it (flows.return_misses) does not
    confirm."""


def return_period(L: A.LieAlgebraPresentation, X: F.VectorField, vec: Sequence[Fraction],
                  start: F.Point, fix: Sequence[Sequence[Fraction]] = (), param_values=None,
                  constants: Optional[Callable[[], A.StructureConstants]] = None,
                  t_max: float = 20.0, steps: int = 20000, tol: float = 1e-6, seed: int = 0,
                  scale: float = 1.0) -> Tuple[Optional[float], str]:
    """The first return time of X = sum_s vec_s X_s, the generators of L with
    param_values put in, or None when it never returns; and a note on how that
    was decided.

    X is decided exactly where one of the criteria of _exact_period applies,
    and the note starts with ``exact: ``. A period found that way is
    cross-checked by integrating over it from eight start points around
    `start`, drawn by flows._in_domain, the one start rule that
    flows.monodromy_period follows too. The RK4 steps double from 1,000 up
    to at most `steps` until the step-doubling error estimate settles the
    miss against tol (flows.return_misses); a miss of tol or
    more raises ReturnMismatch, and a period with no float ValueError. Any
    other X falls back to flows.monodromy_period with t_max, tol and steps,
    and the note starts with ``numeric: ``; it says ``at rest`` when no start
    in the domain moves 10 * tol within t_max. Start points are drawn around
    `start` at `scale`. `fix` lists the candidate fixed points of criterion
    (ii). `constants` returns the structure constants of L,
    A.check_closure(L) by default; it is called only when criterion (ii)
    needs them."""
    decided = _exact_period(L, X, vec, fix, param_values,
                            constants or (lambda: A.check_closure(L)))
    if decided is None:
        period, diag = FL.monodromy_period(X, start, t_max=t_max, tol=tol, steps=steps,
                                           seed=seed, scale=scale)
        moved = [(t, d) for _, t, d in diag if t is not None or d]  # (None, 0.0): at rest
        misses = ", ".join(f"{d:.3e}" for t, d in moved[:4] if t is None)
        return period, "numeric: " + (f"min distances: {misses}" if misses else
                                      f"returns at {period:.9f}" if period else
                                      "no common return" if moved else
                                      "at rest: every start in the domain moves less than "
                                      f"10*tol = {_short(10 * tol)} within t_max" if diag else
                                      "no start moves inside the domain")
    omega_squared, note = decided
    if omega_squared is None:
        return None, note
    try:
        period = 2 * math.pi / math.sqrt(omega_squared)
    except (OverflowError, ZeroDivisionError):  # omega^2 beyond float range either way
        raise ValueError(f"{note}, but its period is out of float range") from None
    misses = FL.return_misses(X, start, period, tol, steps=steps, starts=8, seed=seed,
                              scale=scale)
    worst = max(misses, default=math.inf)
    if len(misses) < 8 or not worst < tol:
        raise ReturnMismatch(f"{note}, period {period:.9f}, but a start misses by {worst:.3e}")
    return period, f"{note}, returns at {period:.9f} (8 starts within {_short(tol)})"


def _short(x: float) -> str:
    """x in %g form with a one-digit negative exponent: 1e-6, not 1e-06."""
    return f"{x:g}".replace("e-0", "e-")


def _exact_period(L, X, vec, fix, pv, constants):
    """(omega^2, note) when an exact criterion decides whether X = sum_s
    vec_s X_s has a period, omega^2 None for never; None when neither does.
    (i) X affine: its flow is e^{tA}, A the augmented matrix of affine_matrix.
    (ii) Otherwise ad X: exp(TX) = id implies e^{T ad X} = I, so when that
    never holds X never returns. Conversely, when e^{T ad X} = I, exp(TX) is
    central; if X vanishes at a point p where the generators have rank n,
    exp(TX) fixes p and so every point of its (open) orbit: X returns at T."""
    augmented = affine_matrix(X)
    if augmented is not None:
        omega_squared, reason = upoly.periodicity(augmented)
        if omega_squared != 0:
            return omega_squared, f"exact: affine, A {reason}"
    ad = _ad_matrix(constants, vec, pv)
    if ad is None:
        return None
    omega_squared, reason = upoly.periodicity(ad)
    if omega_squared is None:
        return None, f"exact: ad X {reason}"
    if omega_squared and any(_fixed_in_open_orbit(L, X, p, pv) for p in fix):
        return omega_squared, f"exact: ad X {reason}"
    return None


def _ad_matrix(constants, vec, pv):
    """The matrix of ad X on the generators, (ad X)_tk = sum_s vec_s c_sk^t
    from the structure constants; None when the algebra is not closed, has a
    coefficient that is not polynomial, or leaves a constant depending on the
    parameters."""
    try:
        c = constants().c
    except (A.NotClosedError, E.NonPolynomialError):
        return None
    r = len(vec)
    ad = [[Fraction(0)] * r for _ in range(r)]
    for s, weight in enumerate(vec):
        if not weight:
            continue
        for k in range(r):
            for t in range(r):
                value = (E.substitute_params(c[s][k][t], pv) if pv else c[s][k][t]).constant_value()
                if value is None:
                    return None
                ad[t][k] += weight * value
    return ad


def _fixed_in_open_orbit(L, X, p, pv) -> bool:
    """X vanishes at p and the generators span the tangent space there."""
    return (not any(F.evaluate_exact_at([X], p)[0])
            and exactla.rank(F.evaluate_exact_at(L.generators, p, pv)) == L.dim)


# ---------------------------------------------------------------------------
# the seven planar projective one-parameter normal forms


# The list (30): the field literal in (x, y) and the values its parameter c
# may not take.
SEVEN_FORMS = (
    ("p + y*q", ()),
    ("p + x*q", ()),
    ("y*q", ()),
    ("q", ()),
    ("x*p + c*y*q", (0, 1)),
    ("y*p - x*q + c*(x*p + y*q)", (0,)),
    ("y*p - x*q", ()),
)


def invariant_lines(M3) -> List[tuple]:
    """Real invariant lines of the projective flow with 3x3 homogeneous matrix
    M3: rational left eigenvectors l (l M = lambda l), reported exactly."""
    coeffs = upoly.char_poly(M3)
    lines = []
    for lam in upoly.rational_roots(coeffs):
        shifted = [[M3[j][i] - (lam if i == j else 0) for j in range(3)] for i in range(3)]
        for vec in exactla.nullspace(shifted):
            lines.append(tuple(vec))
    # deterministic order, dedup up to scale
    return sorted({_normalize_projective(line) for line in lines})


def _normalize_projective(vec):
    lead = next((v for v in vec if v != 0), None)
    if lead is None:
        return tuple(vec)
    return tuple(v / lead for v in vec)


def describe_line(line, names=("xi", "eta")) -> str:
    a, b, c = line
    if a == 0 and b == 0:
        return "line at infinity"
    parts = []
    for coef, name in zip((a, b), names):
        if coef == 0:
            continue
        if coef == 1:
            parts.append(name)
        elif coef == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{coef}*{name}")
    expr = " + ".join(parts).replace("+ -", "- ")
    if c != 0:
        expr += f" + {c}"
    return f"{expr} = 0"


@dataclass(frozen=True)
class FormRow:
    index: int
    label: str
    classification: LinearMotionClass
    witness: Optional[str]


def classify_seven_forms(c_samples: Sequence[Fraction] = (Fraction(-2), Fraction(1, 2), Fraction(3))) -> List[FormRow]:
    """The seven planar projective one-parameter normal forms of SEVEN_FORMS,
    each with the first allowed c sample, classified by the exact
    eigen-structure of their homogeneous 3x3 matrices. Exactly one form (the
    rotation) is periodic on line elements; the first five keep a real line
    with fixed points (witness reported), the sixth is a spiral."""
    rows = []
    for index, (literal, excluded) in enumerate(SEVEN_FORMS, start=1):
        label, values = literal, {}
        if excluded:
            c = next(c for c in c_samples if c not in excluded)
            label, values = f"{literal} (c={c})", {0: c}
        X = F.substitute_params(F.parse_field(literal, ("x", "y"), ("c",)), values)
        M3 = affine_matrix(X)
        cls = classify_linear_one_param(M3)
        witness = None
        if cls.tag not in ("Periodic", "ProjectivelyPeriodic", "Spiral"):
            lines = invariant_lines(M3)
            witness = describe_line(lines[0]) if lines else None
            # prefer a finite witness line over the line at infinity
            for line in lines:
                if not (line[0] == 0 and line[1] == 0):
                    witness = describe_line(line)
                    break
        rows.append(FormRow(index, label, cls, witness))
    periodic = [r for r in rows if r.classification.tag in ("Periodic", "ProjectivelyPeriodic")]
    assert len(periodic) == 1 and periodic[0].index == 7, "normal-form table corrupted"
    return rows


# ---------------------------------------------------------------------------
# free mobility in the infinitesimal


def _constant_matrices(mats) -> List[List[List[Fraction]]]:
    values = [[[entry.constant_value() for entry in row] for row in J] for J in mats]
    if any(v is None for J in values for row in J for v in row):
        raise E.ExprError("free mobility needs instantiated parameters")
    return values


def _apply(J, v):
    return [sum(J[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]


def _cross(u, v):
    return [
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ]


def _common_fixed_direction_2d(mats):
    """Exact search for v != 0 with J v parallel to v for every J: the
    special direction (0, 1), else (1, s) at a common real root s of the
    per-matrix quadratics q_J(s) = det[J (1,s), (1,s)], that is a real root
    of their gcd g. An irrational root is carried as its quadratic:
    (g, ((1, 0), (0, 1))), the directions (1, r) at the real roots r of g."""
    if all(_det2_prop(J, (0, 1)) == 0 for J in mats):
        return (Fraction(0), Fraction(1))
    # q_J(s) = -J10 + (J00 - J11) s + J01 s^2, degree descending
    g = upoly.gcd([[J[0][1], J[0][0] - J[1][1], -J[1][0]] for J in mats])
    if not g:  # every direction stays fixed
        return (Fraction(1), Fraction(0))
    if len(g) == 1 or not upoly.real_root_count(g):
        return None
    roots = upoly.rational_roots(g)
    if roots:
        return (Fraction(1), roots[0])
    return (tuple(upoly.monic(g)), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))


def _det2_prop(J, v):
    """det[J v, v]: zero iff J v is parallel to v."""
    return J[0][0] * v[0] * v[1] + J[0][1] * v[1] * v[1] - J[1][0] * v[0] * v[0] - J[1][1] * v[0] * v[1]


def _stabilizer_dim(mats, condition_rows) -> int:
    """dim of {lambda : all condition rows vanish} where each condition is a
    linear functional of lambda given as its coefficient list."""
    if not condition_rows:
        return len(mats)
    return len(mats) - exactla.rank(condition_rows)


def _common_fixed_direction_3d(mats, rng):
    """A real v != 0 with J v parallel to v for every J, or None, decided over
    Q: the common kernel, then the rational eigenvectors of a generic
    combination G checked against every J. The rest s of the square-free
    characteristic polynomial of G has no rational root and degree <= 3, so
    it is irreducible; the conjugates of a common direction at a root of s
    span W = ker s(G). So one exists iff s has a real root and every J maps W
    into W and commutes there with G (whose eigenvalues on W are distinct).
    The witness is (s, c), c a rational basis of W: with s(x) = (x - r) q_r(x)
    and w in W, the direction at a real root r is q_r(G) w = sum_k r^k c_k."""
    n = 3
    kernel = exactla.nullspace([row for J in mats for row in J])
    if kernel:
        return tuple(kernel[0])
    weights = [Fraction(rng.randint(-9, 9)) for _ in mats]
    G = [[sum(w * J[i][j] for w, J in zip(weights, mats)) for j in range(n)] for i in range(n)]
    s = upoly.square_free(upoly.char_poly(G))
    for lam in upoly.rational_roots(s):
        shifted = [[G[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        for v in exactla.nullspace(shifted):
            if all(all(x == 0 for x in _cross(_apply(J, v), v)) for J in mats):
                return tuple(v)
        s = upoly.divide(s, [1, -lam])[0]
    if len(s) < 3 or not upoly.real_root_count(s):
        return None
    S = upoly.matrix_value(s, G)
    W = exactla.nullspace(S)
    for J in mats:
        for w in W:
            Jw = _apply(J, w)
            if any(_apply(S, Jw)) or _apply(J, _apply(G, w)) != _apply(G, Jw):
                return None
    d = len(s) - 1
    krylov = [W[0]]  # G^j w
    for _ in range(d - 1):
        krylov.append(_apply(G, krylov[-1]))
    c = [[sum(s[i - k] * krylov[d - 1 - i][m] for i in range(k, d)) for m in range(n)]
         for k in range(d)]
    return tuple(s), tuple(map(tuple, c))


def free_mobility_infinitesimal(L: A.LieAlgebraPresentation, base=None, seed: int = 0,
                                param_values=None) -> MobilityVerdict:
    """Free mobility in the infinitesimal at a general-position point.

    n = 2: after fixing the point a motion must remain, no real line element
    may stay fixed under the whole linear isotropy, and the stabilizer of a
    generic line element must be zero-dimensional.

    n = 3: additionally the stabilizer of a generic line element must be at
    least one-dimensional and rotate the surface elements through it (no real
    invariant plane), while fixing a generic surface element kills all motion.
    Every condition is an exact rank computation on the linear isotropy."""
    n = L.dim
    if n not in (2, 3):
        raise UnsupportedDimension(f"free mobility needs 2 or 3 variables, got {n}")
    if base is None:
        coords, params = A.find_generic_point(L, seed=seed, param_values=param_values)
    else:
        coords = [Fraction(v) for v in F._as_point(base).coords]
        params = dict(param_values or {})
    if not A.is_transitive(L, seed=seed, param_values=params or None):
        raise A.NotTransitiveAtBase(f"{L.name}: the algebra is not transitive at the base point")
    mats = _constant_matrices(A.linear_isotropy_group(L, F.Point(coords), params))
    if not mats:
        return MobilityVerdict(False, "point: no motion remains after fixing the point")
    rng = random.Random(seed)
    if n == 2:
        fixed = _common_fixed_direction_2d(mats)
        if fixed is not None:
            return MobilityVerdict(False, "line-element: a real direction stays fixed", tuple(fixed))
        for _ in range(4):
            v = [F.random_rational(rng) for _ in range(2)]
            if all(x == 0 for x in v):
                continue
            # coefficient of lambda_k in det[J(lambda) v, v]
            rows = [[_det2_prop(J, v) for J in mats]]
            if _stabilizer_dim(mats, rows) != 0:
                return MobilityVerdict(False, "line-element: motion survives fixing a generic line element", tuple(v))
        return MobilityVerdict(True)
    # n == 3
    fixed = _common_fixed_direction_3d(mats, rng)
    if fixed is not None:
        return MobilityVerdict(False, "line-element: a real direction stays fixed", tuple(fixed))
    for _ in range(4):
        v = [F.random_rational(rng) for _ in range(3)]
        if all(x == 0 for x in v):
            continue
        # coefficient of lambda_k in component i of (J(lambda) v) x v
        functional_rows = [[_cross(_apply(mats[k], v), v)[i] for k in range(len(mats))]
                           for i in range(3)]
        d1 = _stabilizer_dim(mats, functional_rows)
        if d1 < 1:
            return MobilityVerdict(False, "line-element: no motion remains after fixing a generic line element", tuple(v))
        stab_basis = exactla.nullspace(functional_rows)
        restricted = _restrict_to_plane_action(mats, stab_basis, v)
        if _common_fixed_direction_2d(restricted) is not None:
            return MobilityVerdict(
                False,
                "surface-element: a surface element through a generic line element stays fixed",
                tuple(v),
            )
        u = _orthogonal_direction(v, rng)
        plane_rows = [[_plane_residual(mats[k], u, i) for k in range(len(mats))] for i in range(3)]
        total_rows = functional_rows + plane_rows
        d2 = _stabilizer_dim(mats, total_rows)
        if d2 != 0:
            return MobilityVerdict(False, "surface-element: motion survives fixing a generic surface element", tuple(u))
    return MobilityVerdict(True)


def _orthogonal_direction(v, rng):
    while True:
        w = [F.random_rational(rng) for _ in range(3)]
        dot = sum(a * b for a, b in zip(w, v))
        vv = sum(a * a for a in v)
        u = [w[i] - dot * v[i] / vv for i in range(3)]
        if any(x != 0 for x in u):
            return u


def _plane_residual(J, u, i):
    """Component i of (u^T J) x u: vanishing means J preserves the plane with
    normal u."""
    w = [sum(u[k] * J[k][j] for k in range(3)) for j in range(3)]
    return _cross(w, u)[i]


def _restrict_to_plane_action(mats, stab_basis, v):
    """2x2 matrices of the stabilizer action on normals in v-perp (plane
    elements through v)."""
    rng_static = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    vv = sum(a * a for a in v)
    basis = []
    for w in rng_static:
        dot = sum(a * b for a, b in zip(w, v))
        u = [Fraction(w[i]) - dot * v[i] / vv for i in range(3)]
        trial = basis + [u]
        if any(x != 0 for x in u) and exactla.rank(trial) == len(trial):
            basis.append(u)
        if len(basis) == 2:
            break
    out = []
    for lam in stab_basis:
        S = [[sum(lam[k] * mats[k][i][j] for k in range(len(mats))) for j in range(3)]
             for i in range(3)]
        # normals transform through -S^T; project onto the basis of v-perp
        rows = []
        for u in basis:
            img = [-sum(u[k] * S[k][j] for k in range(3)) for j in range(3)]
            # project img onto span(basis) exactly: solve img = a*b1 + b*b2 (+ c*v)
            mat = [[basis[0][i], basis[1][i], v[i]] for i in range(3)]
            [(sol, consistent)] = exactla.solve(mat, [img])
            if not consistent:
                raise ValueError("plane action: [b1, b2, v] is invertible, yet the image of a "
                                 "normal in v-perp has no coordinates in it")
            rows.append([sol[0], sol[1]])
        out.append([[rows[0][0], rows[1][0]], [rows[0][1], rows[1][1]]])
    return out


"""Mobility criteria: eigenvalue classification of linear one-parameter
motions, the seven planar projective normal forms, free mobility in the
infinitesimal for ambient dimension 2 and 3, Killing-form diagnostics."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import algebra as A, exactla, expr as E, upoly
from . import fields as F


class UnsupportedDimension(Exception):
    pass


@dataclass(frozen=True)
class LinearMotionClass:
    tag: str  # Zero | Periodic | ProjectivelyPeriodic | Spiral | RealHyperbolic | Nilpotent
    omega: Optional[float] = None
    shift: Optional[float] = None
    eigenvalues: tuple = ()


@dataclass(frozen=True)
class MobilityVerdict:
    free_mobility: bool
    failing_stage: Optional[str] = None
    witness: Optional[tuple] = None


_TOL = 1e-9
_MAX_COMMENSURABLE_DEN = 64


def _eigenvalues(M: Sequence[Sequence[Fraction]]) -> list:
    coeffs = [float(c) for c in upoly.char_poly(M)]
    return list(np.roots(coeffs)) if len(coeffs) > 1 else []


def _commensurable(omegas: Sequence[float]):
    """Fundamental angular frequency when all omegas are rational multiples of
    each other with denominators up to 64, else None."""
    base = omegas[0]
    nums = []
    dens = []
    for w in omegas:
        ratio = w / base
        frac = Fraction(ratio).limit_denominator(_MAX_COMMENSURABLE_DEN)
        if abs(float(frac) - ratio) > 1e-7:
            return None
        nums.append(frac.numerator)
        dens.append(frac.denominator)
    # w_k = base * num_k / den_k ; fundamental = base / lcm(den) * gcd(num)... work with periods
    lcm = 1
    for d in dens:
        lcm = lcm * d // math.gcd(lcm, d)
    scaled = [n * (lcm // d) for n, d in zip(nums, dens)]
    g = 0
    for s in scaled:
        g = math.gcd(g, s)
    return base * g / lcm


def _periodic_shape(M, eigs) -> Optional[float]:
    """Fundamental omega when nonzero eigenvalues are pure-imaginary
    conjugate pairs with commensurable frequencies and M is diagonalizable;
    None otherwise."""
    scale = max((abs(l) for l in eigs), default=0.0)
    if scale == 0.0:
        return None
    omegas = []
    for lam in eigs:
        if abs(lam) < _TOL * scale:
            continue
        if abs(lam.real) > _TOL * scale:
            return None
        if lam.imag > 0:
            omegas.append(lam.imag)
    if not omegas:
        return None
    if not upoly.semisimple(M):
        return None
    if len(omegas) == 1:
        return omegas[0]
    return _commensurable(sorted(omegas))


def classify_linear_one_param(M: Sequence[Sequence]) -> LinearMotionClass:
    """Classify the flow of x' = M x by the eigenvalue multiset (n <= 4).

    Zero: M = 0. Periodic(w): nonzero eigenvalues are conjugate pure-imaginary
    pairs with a common fundamental frequency and diagonalizable zero block.
    ProjectivelyPeriodic(w, a): same after subtracting a common real part a
    from every eigenvalue. Spiral: an off-axis complex pair remains.
    RealHyperbolic: real spectrum with a nonzero eigenvalue. Nilpotent: all
    eigenvalues zero with M != 0.

    A non-semisimple M with a purely imaginary spectrum, such as a rotation
    carrying a Jordan block (its flow grows like t), has no tag of its own:
    it falls through to Spiral. upoly.periodicity decides it exactly (it
    never returns)."""
    n = len(M)
    if n > 4:
        raise UnsupportedDimension("classification implemented for n <= 4")
    exact = [[Fraction(v) if not isinstance(v, float) else Fraction(v).limit_denominator(10**9)
              for v in row] for row in M]
    if all(v == 0 for row in exact for v in row):
        return LinearMotionClass("Zero", eigenvalues=())
    eigs = _eigenvalues(exact)
    eig_tuple = tuple(complex(l) for l in eigs)
    scale = max(abs(l) for l in eigs)
    if scale < 1e-12:
        return LinearMotionClass("Nilpotent", eigenvalues=eig_tuple)
    omega = _periodic_shape(exact, eigs)
    if omega is not None:
        return LinearMotionClass("Periodic", omega=omega, eigenvalues=eig_tuple)
    has_complex = any(abs(l.imag) > _TOL * scale for l in eigs)
    if has_complex:
        trace = sum(exact[i][i] for i in range(n))
        shift = trace / n
        if all(abs(l.real - float(shift)) < 1e-7 * max(1.0, scale) for l in eigs):
            shifted = [[exact[i][j] - (shift if i == j else 0) for j in range(n)]
                       for i in range(n)]
            eigs_shifted = _eigenvalues(shifted)
            omega = _periodic_shape(shifted, eigs_shifted)
            if omega is not None and shift != 0:
                return LinearMotionClass("ProjectivelyPeriodic", omega=omega,
                                         shift=float(shift), eigenvalues=eig_tuple)
        return LinearMotionClass("Spiral", eigenvalues=eig_tuple)
    return LinearMotionClass("RealHyperbolic", eigenvalues=eig_tuple)


# ---------------------------------------------------------------------------
# the seven planar projective one-parameter normal forms


def _homogeneous_matrix(B, a):
    """3x3 matrix of the affine field a + Bx on homogeneous (x, y, w)."""
    return [
        [Fraction(B[0][0]), Fraction(B[0][1]), Fraction(a[0])],
        [Fraction(B[1][0]), Fraction(B[1][1]), Fraction(a[1])],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]


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
    seen = []
    for line in lines:
        norm = _normalize_projective(line)
        if norm not in seen:
            seen.append(norm)
    return sorted(seen)


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
    """The seven planar projective one-parameter normal forms, classified by
    exact eigen-structure of their homogeneous 3x3 matrices. Exactly one form
    (the rotation) is periodic on line elements; the first five keep a real
    line with fixed points (witness reported), the sixth is a spiral."""
    rows = []

    def add(index, label, B, a, c_value=None):
        M3 = _homogeneous_matrix(B, a)
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

    add(1, "p + eta*q", [[0, 0], [0, 1]], (1, 0))
    add(2, "p + xi*q", [[0, 0], [1, 0]], (1, 0))
    add(3, "eta*q", [[0, 0], [0, 1]], (0, 0))
    add(4, "q", [[0, 0], [0, 0]], (0, 1))
    c5 = next(c for c in c_samples if c not in (0, 1))
    add(5, f"xi*p + c*eta*q (c={c5})", [[1, 0], [0, c5]], (0, 0))
    c6 = next(c for c in c_samples if c != 0)
    add(6, f"eta*p - xi*q + c*(xi*p + eta*q) (c={c6})", [[c6, 1], [-1, c6]], (0, 0))
    add(7, "eta*p - xi*q", [[0, 1], [-1, 0]], (0, 0))
    periodic = [r for r in rows if r.classification.tag in ("Periodic", "ProjectivelyPeriodic")]
    assert len(periodic) == 1 and periodic[0].index == 7, "normal-form table corrupted"
    return rows


# ---------------------------------------------------------------------------
# free mobility in the infinitesimal


def _constant_matrices(mats) -> List[List[List[Fraction]]]:
    out = []
    for J in mats:
        rows = []
        for row in J:
            vals = []
            for entry in row:
                cv = entry.constant_value()
                if cv is None:
                    raise E.ExprError("free mobility needs instantiated parameters")
                vals.append(cv)
            rows.append(vals)
        out.append(rows)
    return out


def _apply(J, v):
    return [sum(J[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]


def _cross(u, v):
    return [
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ]


def _direction_conditions_2d(mats, v):
    """One row per isotropy matrix: det[J v, v] (proportionality residual)."""
    return [[J[0][0] * v[0] * v[1] + J[0][1] * v[1] * v[1]
             - J[1][0] * v[0] * v[0] - J[1][1] * v[0] * v[1]] for J in mats]


def _common_fixed_direction_2d(mats):
    """Exact search for v != 0 with J v parallel to v for every J: common real
    root of the per-matrix quadratics q(s) = det[J (1,s), (1,s)] plus the
    special direction (0,1)."""
    if all(_det2_prop(J, (0, 1)) == 0 for J in mats):
        return (Fraction(0), Fraction(1))
    # polynomials q_J(s) = -J10 + (J00 - J11) s + J01 s^2
    polys = []
    for J in mats:
        polys.append([J[0][1], J[0][0] - J[1][1], -J[1][0]])  # degree desc
    g = upoly.gcd(polys)
    roots = _real_roots_deg_le2(g)
    if roots:
        s = roots[0]
        return (Fraction(1), s) if isinstance(s, Fraction) else (1.0, s)
    return None


def _det2_prop(J, v):
    return J[0][0] * v[0] * v[1] + J[0][1] * v[1] * v[1] - J[1][0] * v[0] * v[0] - J[1][1] * v[0] * v[1]


def _real_roots_deg_le2(g):
    if g == []:
        return [Fraction(0)]  # all directions satisfy the conditions
    if len(g) == 1:
        return []
    if len(g) == 2:
        return [-g[1] / g[0]]
    a, b, c = g
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = math.sqrt(float(disc))
    return [(-float(b) - root) / (2 * float(a))]


def _stabilizer_dim(mats, condition_rows) -> int:
    """dim of {lambda : all condition rows vanish} where each condition is a
    linear functional of lambda given as its coefficient list."""
    if not condition_rows:
        return len(mats)
    return len(mats) - exactla.rank(condition_rows)


def _common_fixed_direction_3d(mats, rng):
    """Common kernel first; then rational eigenvectors of a generic
    combination, verified exactly; numeric fallback for irrational cases."""
    n = 3
    stacked = [row for J in mats for row in J]
    for v in exactla.nullspace(stacked):
        if any(x != 0 for x in v):
            return tuple(v)
    weights = [Fraction(rng.randint(-9, 9)) for _ in mats]
    G = [[sum(w * J[i][j] for w, J in zip(weights, mats)) for j in range(n)] for i in range(n)]
    for lam in upoly.rational_roots(upoly.char_poly(G)):
        shifted = [[G[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        for v in exactla.nullspace(shifted):
            if all(all(x == 0 for x in _cross(_apply(J, v), v)) for J in mats):
                return tuple(v)
    # numeric fallback for irrational common eigenvectors
    Gf = np.array([[float(v) for v in row] for row in G])
    vals, vecs = np.linalg.eig(Gf)
    for k in range(len(vals)):
        if abs(vals[k].imag) > 1e-9:
            continue
        v = vecs[:, k].real
        ok = True
        for J in mats:
            Jf = np.array([[float(x) for x in row] for row in J])
            cr = np.cross(Jf @ v, v)
            if np.linalg.norm(cr) > 1e-9 * max(1.0, np.linalg.norm(Jf)):
                ok = False
                break
        if ok:
            return tuple(float(x) for x in v)
    return None


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
        raise UnsupportedDimension("free mobility implemented for n in {2, 3}")
    if base is None:
        coords, params = A.find_generic_point(L, seed=seed, param_values=param_values)
    else:
        coords = [Fraction(v) for v in F._as_point(base).coords]
        params = dict(param_values or {})
    if not A.is_transitive(L, seed=seed, param_values=params or None):
        raise A.NotTransitiveAtBase(L.name)
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
            rows = _direction_conditions_2d(mats, v)
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
            [(sol, _consistent)] = exactla.solve(mat, [img])
            rows.append([sol[0], sol[1]])
        out.append([[rows[0][0], rows[1][0]], [rows[0][1], rows[1][1]]])
    return out


# ---------------------------------------------------------------------------
# Killing form


def killing_form_signature(C: A.StructureConstants, param_values=None):
    """Signature (n+, n0, n-) of K_jk = sum_{s,t} c_js^t c_kt^s, exactly."""
    r = C.order
    K = [[Fraction(0)] * r for _ in range(r)]
    for j in range(r):
        for k in range(r):
            acc = E.ZERO
            for s in range(r):
                for t in range(r):
                    acc = E.add(acc, E.mul(C.c[j][s][t], C.c[k][t][s]))
            if param_values:
                acc = E.substitute_params(acc, param_values)
            cv = acc.constant_value()
            if cv is None:
                raise E.ExprError("killing form needs parameter values")
            K[j][k] = cv
    return exactla.symmetric_signature(K)

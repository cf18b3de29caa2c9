"""Finite and infinitesimal invariants: annihilation checks for multi-point
candidates, existence of invariants of infinitely-near points (an exact rank
of the linear isotropy), the arc-length homogeneity criterion, and
essentialness of multi-point invariants."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from . import algebra as A, exactla, expr as E
from . import fields as F


class Verdict(Enum):
    PROVEN = "Proven"
    NUMERICALLY_SUPPORTED = "NumericallySupported"
    REFUTED = "Refuted"


class DomainExhausted(Exception):
    pass


class MissingPairInvariant(Exception):
    pass


@dataclass(frozen=True)
class InvariantCandidate:
    s: int
    body: E.Expr


@dataclass(frozen=True)
class VerificationOutcome:
    verdict: Verdict
    witness_generator: Optional[int] = None
    witness_residual: Optional[E.Expr] = None
    witness_value: Optional[float] = None


_NUM_CONFIGS = 32
_NUM_TOL = 1e-8
_SAMPLE_CAP = 800


def _sample_in_domain(exprs: Sequence[E.Expr], nvars: int, rng: random.Random,
                      params=None, spread: float = 2.0):
    for _ in range(_SAMPLE_CAP):
        coords = [rng.uniform(-spread, spread) for _ in range(nvars)]
        try:
            values = [E.evaluate_numeric(e, coords, params) for e in exprs]
        except (E.DomainError, OverflowError):
            continue
        return coords, values
    raise DomainExhausted(f"no in-domain configuration found in {_SAMPLE_CAP} draws")


@dataclass(frozen=True)
class Annihilation:
    """X_k^(s) J for every generator over Q(params), with one cleared
    gradient: clearing is the monomial M that clears every partial of J at
    once, images[k] = sum_i xi_{k,i} * (M d_i J) = M * X_k^(s)(J)."""
    clearing: tuple
    images: tuple


def annihilation(L: A.LieAlgebraPresentation, J: InvariantCandidate) -> Annihilation:
    """The annihilation fact of J, parameters kept symbolic: J is
    differentiated once in its s*n variables and its blocks are expanded
    once, not once per generator and parameter sample."""
    gradient = [E.differentiate(J.body, i) for i in range(L.dim * J.s)]
    cleared = E.clear_denominators(*gradient)
    images = []
    for g in L.generators:
        X = F.prolong_points(g, J.s)
        images.append(E.add_many(E.mul(xi, d) for xi, d in zip(X.coeffs, cleared)
                                 if xi and d))
    return Annihilation(E.clearing_monomial(*gradient), tuple(images))


def _annihilates(fact: Annihilation, param_values):
    """Per generator, in order: True when the fact proves that it annihilates
    J at the parameter values, False when it leaves that open. Putting the
    values in commutes with differentiation, so N_k(c0) = M(c0) R_k(c0) for
    the residual R_k at c0; while M(c0) != 0, R_k(c0) = 0 iff N_k(c0) = 0."""
    if param_values and not E.monomial_nonzero_at(fact.clearing, param_values):
        return
    for image in fact.images:
        image = E.substitute_params(image, param_values) if param_values else image
        yield E.clear_denominators(image)[0].is_zero


def verify_joint_invariant(L: A.LieAlgebraPresentation, J: InvariantCandidate,
                           mode: str = "symbolic", seed: int = 0,
                           param_values=None, fact: Optional[Annihilation] = None
                           ) -> VerificationOutcome:
    """Apply every point-prolonged generator to the candidate.

    Symbolic mode proves annihilation exactly (zero after clearing
    denominators): first through the annihilation fact over Q(params),
    built here unless a caller passes the one it holds, then, for each
    generator the fact leaves open, through the residual at the parameter
    values. Surviving transcendental UNKNOWNs fall back to the numeric
    check. Numeric mode demands |value| < 1e-8 at 32 random in-domain
    configurations."""
    if mode not in ("symbolic", "numeric"):
        raise ValueError("mode must be 'symbolic' or 'numeric'")
    body = E.substitute_params(J.body, param_values) if param_values else J.body
    generators = [F.substitute_params(g, param_values) for g in L.generators]
    residuals = {}

    def residual(k):
        if k not in residuals:
            residuals[k] = F.apply_to_function(F.prolong_points(generators[k], J.s), body)
        return residuals[k]

    if mode == "symbolic":
        proven = _annihilates(fact or annihilation(L, J), param_values)
        pending = []
        for k in range(len(generators)):
            if next(proven, False):
                continue
            z = E.is_identically_zero(residual(k), seed=seed)
            if z is E.Zeroness.NO:
                value = _witness_value(residual(k), L.dim * J.s, seed, param_values)
                return VerificationOutcome(Verdict.REFUTED, k, residual(k), value)
            if z is E.Zeroness.UNKNOWN:
                pending.append(k)
        if not pending:
            return VerificationOutcome(Verdict.PROVEN)
    else:
        pending = list(range(len(generators)))
    check = [residual(k) for k in pending]
    rng = random.Random(seed)
    pidx = set()
    for res in check:
        pidx |= E.used_params(res)
    params = {j: float(F.random_nonspecial_rational(rng)) for j in pidx}
    if param_values:
        params.update({j: float(v) for j, v in param_values.items()})
    for _ in range(_NUM_CONFIGS):
        coords, values = _sample_in_domain(check, L.dim * J.s, rng, params)
        for k, v in zip(pending, values):
            if abs(v) >= _NUM_TOL:
                return VerificationOutcome(Verdict.REFUTED, k, residuals[k], v)
    return VerificationOutcome(Verdict.NUMERICALLY_SUPPORTED)


def _witness_value(res: E.Expr, nvars: int, seed: int, param_values=None):
    rng = random.Random(seed)
    pidx = E.used_params(res)
    params = {j: float(F.random_nonspecial_rational(rng)) for j in pidx}
    if param_values:
        params.update({j: float(v) for j, v in param_values.items()})
    try:
        _, values = _sample_in_domain([res], nvars, rng, params)
    except DomainExhausted:
        return None
    return values[0]


# ---------------------------------------------------------------------------
# infinitesimal invariants


def _generic_isotropy(L: A.LieAlgebraPresentation, seed: int, param_values) -> A.IsotropyReport:
    """The isotropy of L at a generic rational point."""
    coords, params = A.find_generic_point(L, seed=seed, param_values=param_values)
    return A.isotropy_at_point(L, F.Point(coords), params)


def _isotropy_row_rank(report: A.IsotropyReport) -> int:
    """Rank over Q(x') of the rows (J_k x')^T of the linear isotropy: the
    coefficients of its fields sum_mu J_k[nu][mu] x'_mu, the reduced basis
    past the translations. One exact elimination, no draws."""
    rows = [X.coeffs for X in report.reduced_basis[len(report.base):]]
    return exactla.rank(rows, exactla.EXPR_OPS)


def infinitesimal_invariant_exists(L: A.LieAlgebraPresentation, seed: int = 0,
                                   param_values=None) -> bool:
    """True iff two infinitely-near points carry an invariant: the linear
    isotropy at a generic point must have row rank < dim on the primed
    block, decided exactly over Q(x'). Intransitive algebras always
    qualify, and so do simply transitive ones: no isotropy, rank 0."""
    if not A.is_transitive(L, seed=seed, param_values=param_values):
        return True
    report = _generic_isotropy(L, seed, param_values)
    return _isotropy_row_rank(report) < L.dim


def arc_length_invariant_exists(L: A.LieAlgebraPresentation, seed: int = 0,
                                param_values=None) -> bool:
    """True iff an invariant of infinitely-near points exists and the identity
    matrix is not a combination of the linear isotropy matrices (otherwise all
    such invariants are homogeneous of order zero)."""
    if not A.is_transitive(L, seed=seed, param_values=param_values):
        raise ValueError("arc-length criterion defined for transitive algebras")
    report = _generic_isotropy(L, seed, param_values)
    mats = report.linear_isotropy
    if _isotropy_row_rank(report) >= L.dim:
        return False
    n = L.dim
    rows = []
    for J in mats:
        rows.append([J[i][j].constant_value() for i in range(n) for j in range(n)])
    identity_vec = [Fraction(1) if i == j else Fraction(0) for i in range(n) for j in range(n)]
    with_id = rows + [identity_vec]
    return exactla.rank(with_id) != exactla.rank(rows)


# ---------------------------------------------------------------------------
# essential invariants


def _gradient_rank(pair_invariants: Sequence[InvariantCandidate], n: int, s: int,
                   seed: int, params=None) -> int:
    """Number of functionally independent pullbacks of the pair invariants to
    s points: the largest exact rank of their gradient matrix at up to 8
    random integer configurations. Sampling stops once the rank reaches
    min(rows, cols), which no further configuration can exceed.

    The pullback of J to points (lam, mu) has J's gradient in blocks lam and
    mu and zeros elsewhere, so each J is differentiated once in its 2n
    variables and its gradient evaluated at (x_lam, x_mu). Rows run over J,
    then over the pairs lam < mu. For J = P e^g every entry of the gradient
    carries e^g; it is divided out (expr.divide_shared_nodes), which scales
    each row of J by a nonzero function and so keeps the rank. A gradient
    that still holds a function node raises NonPolynomialError."""
    if any(J.s != 2 for J in pair_invariants):
        raise ValueError("pullbacks need a two-point invariant")
    grads = [tuple(E.divide_shared_nodes([E.differentiate(J.body, v) for v in range(2 * n)]))
             for J in pair_invariants]
    if any(E.contains_fn(d) for grad in grads for d in grad):
        raise E.NonPolynomialError("a pair-invariant gradient keeps a function node "
                                   "that not every entry carries")
    pairs = [(lam, mu) for lam in range(s) for mu in range(lam + 1, s)]
    nvars = s * n
    ceiling = min(len(grads) * len(pairs), nvars)
    rng = random.Random(seed)
    best = configs = attempts = 0
    while configs < 8 and attempts < 400:
        attempts += 1
        coords = F.sample_point(nvars, rng)
        matrix = []
        try:
            for grad in grads:
                for lam, mu in pairs:
                    at = coords[lam * n:(lam + 1) * n] + coords[mu * n:(mu + 1) * n]
                    g = E.evaluate_exact(grad, at, params)
                    row = [0] * nvars
                    row[lam * n:(lam + 1) * n] = g[:n]
                    row[mu * n:(mu + 1) * n] = g[n:]
                    matrix.append(row)
        except E.DomainError:
            continue
        best = max(best, exactla.rank(matrix))
        configs += 1
        if best == ceiling:
            break
    if configs == 0:
        raise DomainExhausted("no admissible configuration for gradient rank")
    return best


def essential_invariant_check(L: A.LieAlgebraPresentation, s: int, seed: int = 0,
                              pair_invariants: Sequence[InvariantCandidate] = (),
                              param_values=None) -> bool:
    """True iff s points carry an invariant not expressible through the pair
    invariants: joint count at s exceeds the number of functionally
    independent pair-invariant pullbacks."""
    if s < 3:
        raise ValueError("essentialness concerns s >= 3")
    count = A.joint_invariant_count(L, s, seed=seed, param_values=param_values)
    if not pair_invariants:
        if A.joint_invariant_count(L, 2, seed=seed, param_values=param_values) != 0:
            raise MissingPairInvariant(
                "a pair-invariant formula is required when two points have one")
        independent = 0
    else:
        independent = _gradient_rank(pair_invariants, L.dim, s, seed, params=param_values)
    return count > independent


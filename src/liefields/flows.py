"""One-parameter groups: truncated exponential-series flows, fixed-step RK4
integration, group-law and conservation checks, complete-system completion
and solution, and numeric period detection."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from . import expr as E
from . import fields as F
from .fields import VectorField


class DivergenceSuspected(Exception):
    pass


class NormalizationImpossible(Exception):
    pass


@dataclass
class Trajectory:
    samples: list  # (t, point tuple), strictly increasing t
    drift: dict    # tracked-invariant label -> max |J(x(t)) - J(x(0))|

    @property
    def endpoint(self):
        return self.samples[-1][1]


# ---------------------------------------------------------------------------
# series flow

_SERIES_DEFAULT_ORDER = 24
_SERIES_RETRY_THRESHOLD = 1e-10


def _flow_series(X: VectorField, x0: Sequence[float], order: int) -> list:
    """Taylor coefficients a[k][i] of the flow x_i(t) = sum_k a[k][i] t^k,
    built from the coefficient recurrence a_{k+1} = xi(x(t))_k / (k+1).

    Each monomial keeps one running series per partial product of its
    factors, so order k adds one Cauchy coefficient per factor: a sum over
    j ascending of a_j * b_(k-j), zero terms skipped."""
    n = X.dim
    series = [[0.0] * (order + 1) for _ in range(n)]
    for i in range(n):
        series[i][0] = float(x0[i])
    unit = [1.0] + [0.0] * order
    # per coordinate: (coefficient, first factor, [(next factor, partial product)])
    tables = []
    for c in X.coeffs:
        if not E.is_polynomial(c):
            raise E.NonPolynomialError("series flow needs polynomial coefficients")
        rows = []
        for expo, val in E.poly_coefficients(c, n).items():
            cv = val.constant_value()
            if cv is None:
                raise E.ExprError("instantiate parameters before integrating")
            factors = [series[v] for v, e in enumerate(expo) for _ in range(e)] or [unit]
            rows.append((float(cv), factors[0], [(b, [0.0] * (order + 1)) for b in factors[1:]]))
        tables.append(rows)
    for k in range(order):
        for i in range(n):
            acc = 0.0
            for coeff, prod, partials in tables[i]:
                for b, out in partials:
                    c = 0.0
                    for j in range(k + 1):
                        a = prod[j]
                        if a != 0.0:
                            bj = b[k - j]
                            if bj != 0.0:
                                c += a * bj
                    out[k] = c
                    prod = out
                acc += coeff * prod[k]
            series[i][k + 1] = acc / (k + 1)
    return series


def lie_series_flow(X: VectorField, x0, t: float,
                    order: int = _SERIES_DEFAULT_ORDER) -> Tuple[tuple, float]:
    """Truncated exponential flow sum_{k<=order} t^k/k! X^k(x_i) at x0.
    Returns (endpoint, estimate) with estimate the norm of the last retained
    term; the order is doubled once if the estimate exceeds 1e-10, and a
    growing tail raises DivergenceSuspected."""
    x0 = _start_point(X, x0)
    start = [float(v) for v in x0.coords]

    def attempt(n_order):
        series = _flow_series(X, start, n_order)
        point = []
        last = 0.0
        first = 0.0
        for i in range(X.dim):
            acc = 0.0
            tk = 1.0
            for k in range(n_order + 1):
                acc += series[i][k] * tk
                tk *= t
            point.append(acc)
            last = max(last, abs(series[i][n_order] * t**n_order))
            first = max(first, abs(series[i][1] * t))
        return tuple(point), last, first

    point, last, first = attempt(order)
    if last > _SERIES_RETRY_THRESHOLD:
        point, last, first = attempt(order * 2)
    if first > 0 and last >= 1e3 * first:
        raise DivergenceSuspected(
            f"series tail {last:.3e} exceeds 1e3 x first term {first:.3e}")
    return point, last


# ---------------------------------------------------------------------------
# RK4 flow


def _start_point(X: VectorField, x0) -> F.Point:
    x0 = F._as_point(x0)
    if len(x0.coords) != X.dim:
        raise F.FieldError(
            f"the start point needs {X.dim} coordinates, got {len(x0.coords)}")
    return x0


@lru_cache(maxsize=128)
def _rk4_kernel(X: VectorField, invariants: tuple):
    """One generated function running the whole fixed-step RK4 loop of X on
    local variables, tracking the drift of each Expr in invariants:
    ``kernel(state, P, h, steps, record) -> (samples, drifts)``.

    Work that does not depend on the state runs once, before the loop. A
    coefficient that reads no coordinate (it may read parameters) is
    constant: it is computed once as ``k{i}`` in its own E.numeric_source
    scope, with ``hk{i} = half * k{i}``, ``fk{i} = h * k{i}`` and the update
    increment ``inc{i} = sixth * (k{i} + 2.0 * k{i} + 2.0 * k{i} + k{i})``.
    Each step then runs one numeric_source scope per RK4 stage over the other
    coefficients, one per evaluation of a tracked invariant, and assigns the
    stage point ``z{i}`` only where some non-constant coefficient reads
    coordinate i. So a power, inverted block or function node repeated in a
    scope is computed once per stage or evaluation.

    Every value is the same float operations on the same operands in the same
    order as the classical formula, ``s + (0.5*h)*k`` and ``s + (h/6)*(((a +
    2.0*b) + 2.0*c) + d)``; for a constant coefficient a, b, c and d are one
    value, so only where it is computed moves. ``if v > m: m = v`` keeps the
    drift as ``max(m, v)`` does. So results are bit-identical to evaluating
    each coefficient with E.compile_numeric. Built once per field: the cache
    size is a constant."""
    n = X.dim

    def tup(items):
        return "(" + "".join(f"{v}, " for v in items) + ")"

    ys = [f"y{i}" for i in range(n)]
    ms = [f"m{k}" for k in range(len(invariants))]
    const = [i for i, c in enumerate(X.coeffs) if not E.used_vars(c)]
    moving = [i for i in range(n) if i not in const]
    live = sorted(set().union(*(E.used_vars(X.coeffs[i]) for i in moving)))
    # one numeric_source scope per evaluation of a tracked invariant at y
    tracked = [E.numeric_source([J], "y{}") for J in invariants]
    body = [f"{tup(ys)} = state"]
    for k, (lines, [src]) in enumerate(tracked):
        body += lines + [f"j{k} = {src}"]
    body += [f"{m} = 0.0" for m in ms]
    body += ["half = 0.5 * h", "sixth = h / 6.0"]
    lines, srcs = E.numeric_source([X.coeffs[i] for i in const], "y{}")
    body += lines + [f"k{i} = {src}" for i, src in zip(const, srcs)]
    hoisted = {"half": "hk", "h": "fk"}  # the name of scale * k{i}
    body += [f"{name}{i} = {scale} * k{i}" for i in const if i in live
             for scale, name in hoisted.items()]
    body += [f"inc{i} = sixth * (k{i} + 2.0 * k{i} + 2.0 * k{i} + k{i})" for i in const]
    body += [f"samples = [(0.0, {tup(ys)})]", "for step in range(1, steps + 1):"]
    loop = []
    # stage k is evaluated at y (stage a) or z, then z = y + scale * k; a
    # constant coefficient's stage-b point is its stage-a point, still in z
    for k, at, scale in (("a", "y", "half"), ("b", "z", "half"), ("c", "z", "h"), ("d", "z", None)):
        lines, srcs = E.numeric_source([X.coeffs[i] for i in moving], at + "{}")
        loop += lines + [f"{k}{i} = {src}" for i, src in zip(moving, srcs)]
        if scale:
            loop += [f"z{i} = y{i} + {scale} * {k}{i}" if i in moving else
                     f"z{i} = y{i} + {hoisted[scale]}{i}" for i in live
                     if i in moving or k != "b"]
    loop += [f"y{i} = y{i} + " + (f"inc{i}" if i in const else
                                  f"sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})")
             for i in range(n)]
    for k, (lines, [src]) in enumerate(tracked):
        loop += lines + [f"v = abs({src} - j{k})", f"if v > m{k}:", f"    m{k} = v"]
    loop += ["if record:", f"    samples.append((step * h, {tup(ys)}))"]
    body += ["    " + line for line in loop]
    body += ["if not record:", f"    samples.append((steps * h, {tup(ys)}))",
             f"return samples, {tup(ms)}"]
    src = "def kernel(state, P, h, steps, record):\n" + "".join(f"    {line}\n" for line in body)
    ctx = {"math": math}
    exec(src, ctx)
    return ctx["kernel"]


def numeric_flow(X: VectorField, x0, t: float, steps: int,
                 tracked: Optional[dict] = None, record: bool = False) -> Trajectory:
    """Classical fixed-step fourth-order integration. tracked maps labels to
    Expr invariants whose drift along the trajectory is recorded."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x0 = _start_point(X, x0)
    params = {k: float(v) for k, v in x0.params.items()}
    tracked = tracked or {}
    kernel = _rk4_kernel(X, tuple(tracked.values()))
    try:
        samples, drifts = kernel(tuple(float(v) for v in x0.coords), params, t / steps,
                                 steps, record)
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        raise E.DomainError(f"numeric evaluation failed: {err}") from err
    return Trajectory(samples, dict(zip(tracked, drifts)))


def one_param_group_law_check(X: VectorField, x0, t1: float, t2: float,
                              steps: int = 4000) -> float:
    """Max-norm deviation of flow(flow(x0, t1), t2) from flow(x0, t1 + t2)."""
    leg1 = numeric_flow(X, x0, t1, steps).endpoint
    leg2 = numeric_flow(X, F.Point(leg1, F._as_point(x0).params), t2, steps).endpoint
    direct = numeric_flow(X, x0, t1 + t2, steps).endpoint
    return max(abs(a - b) for a, b in zip(leg2, direct))


# ---------------------------------------------------------------------------
# complete systems


def _is_zero_field(X: VectorField) -> bool:
    """True when every coefficient is zero as a function: a bracket whose
    terms cancel only after an inverted block does is zero too. UNKNOWN is
    not zero, so the caller's rank test decides that bracket."""
    return all(E.is_identically_zero(c) is E.Zeroness.YES for c in X.coeffs)


def complete_system_complete(fields_: Sequence[VectorField], seed: int = 0):
    """Prune function-dependent inputs, then adjoin brackets falling outside
    the function span until stable. Returns (completed fields, log)."""
    log = []
    kept: List[VectorField] = []
    for i, f in enumerate(fields_):
        if f.is_zero:
            log.append(f"dropped zero field #{i + 1}")
            continue
        # kept is independent over functions: its rank is len(kept)
        if F.generic_rank(kept + [f], seed=seed, points=12) > len(kept):
            kept.append(f)
        else:
            log.append(f"pruned function-dependent field #{i + 1}")
    n = kept[0].dim if kept else 0
    changed = True
    while changed and len(kept) < n:
        changed = False
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                B = F.bracket(kept[i], kept[j])
                if _is_zero_field(B):
                    continue
                if F.generic_rank(kept + [B], seed=seed, points=12) > len(kept):
                    kept.append(B)
                    log.append(f"adjoined [#{i + 1}, #{j + 1}]")
                    changed = True
                    break
            if changed:
                break
    return kept, log


def completion_certificate(fields_: Sequence[VectorField], seed: int = 0) -> bool:
    """Re-verify that all pairwise brackets lie in the function span."""
    base_rank = F.generic_rank(fields_, seed=seed, points=12)
    for i in range(len(fields_)):
        for j in range(i + 1, len(fields_)):
            B = F.bracket(fields_[i], fields_[j])
            if _is_zero_field(B):
                continue
            if F.generic_rank(list(fields_) + [B], seed=seed, points=12) > base_rank:
                return False
    return True


def complete_system_solve_single(X: VectorField, pivot: int, order: int = 24,
                                 seed: int = 0):
    """Solutions of X(w) = 0 via the exponential construction: after exact
    division making X(x_pivot) = 1, w_k = sum_l (-x_pivot)^l / l! X^l(x_k).
    Terminating series are verified exactly; truncated ones numerically at 16
    random points below 1e-10."""
    c = X.coeffs[pivot]
    if E.is_identically_zero(c) is E.Zeroness.YES:
        raise NormalizationImpossible("field does not move the pivot variable")
    inv = E.inverse(c)
    divided = c.constant_value() != 1
    Xn = VectorField(X.dim, tuple(E.mul(inv, ci) for ci in X.coeffs))
    pivot_var = E.var(pivot)
    solutions = []
    exact_flags = []
    for k in range(X.dim):
        if k == pivot:
            continue
        term = E.var(k)
        acc = term
        factorial = 1
        exact = False
        for l in range(1, order + 1):
            term = F.apply_to_function(Xn, term)
            if E.is_identically_zero(term) is E.Zeroness.YES:
                exact = True
                break
            factorial *= l
            piece = E.mul(E.const(Fraction((-1) ** l, factorial)), E.mul(E.intpow(pivot_var, l), term))
            acc = E.add(acc, piece)
        solutions.append(acc)
        exact_flags.append(exact)
    # verification
    rng = random.Random(seed)
    for w, exact in zip(solutions, exact_flags):
        residual = F.apply_to_function(Xn, w)
        if exact:
            if E.is_identically_zero(residual) is not E.Zeroness.YES:
                raise NormalizationImpossible("terminating series failed symbolic check")
        else:
            checked = 0
            attempts = 0
            while checked < 16 and attempts < 400:
                attempts += 1
                coords = [rng.uniform(-1, 1) for _ in range(X.dim)]
                try:
                    v = E.evaluate_numeric(residual, coords)
                except (E.DomainError, OverflowError):
                    continue
                if abs(v) >= 1e-10:
                    raise NormalizationImpossible(
                        f"truncated solution residual {v:.3e} at {coords}")
                checked += 1
    return solutions, {"divided": divided, "exact": exact_flags}


# ---------------------------------------------------------------------------
# monodromy


def _first_return(X: VectorField, x0, t_max: float, tol: float, steps: int):
    """(first t > tol with ||x(t) - x0|| < tol, distance there), (None, closest
    miss), or (None, 0.0) when x0 moves less than 10 * tol: at rest. Coarse
    minima are refined by ternary search on the cubic Hermite interpolant of
    the RK4 samples, X at the samples its slopes, so nothing is re-integrated."""
    x0 = F._as_point(x0)
    traj = numeric_flow(X, x0, t_max, steps, record=True)
    start = [float(v) for v in x0.coords]
    params = {k: float(v) for k, v in x0.params.items()}

    def dist(pt):
        return max(abs(a - b) for a, b in zip(pt, start))

    ds = [(t, dist(pt)) for t, pt in traj.samples]
    max_d = max(d for _, d in ds)
    if max_d < 10 * tol:
        return None, 0.0  # point effectively at rest under this generator
    depart_level = max(10 * tol, max_d / 4)
    qualify = max(1000 * tol, max_d / 50)

    def refine(idx):
        """Minimum of the interpolated distance between samples idx - 1 and idx + 1."""
        nodes = [(t, pt, [E.evaluate_numeric(c, pt, params) for c in X.coeffs])
                 for t, pt in traj.samples[idx - 1:idx + 2]]

        def d_at(t):
            (t0, y0, f0), (t1, y1, f1) = nodes[:2] if t < nodes[1][0] else nodes[1:]
            h = t1 - t0
            s = (t - t0) / h
            w0, w1 = (1 + 2 * s) * (1 - s) ** 2, s * s * (3 - 2 * s)
            v0, v1 = h * s * (1 - s) ** 2, h * s * s * (s - 1)
            return dist([w0 * u + w1 * v + v0 * du + v1 * dv
                         for u, v, du, dv in zip(y0, y1, f0, f1)])

        a, b = nodes[0][0], nodes[2][0]
        for _ in range(100):  # 2/3 of the bracket per pass; the cap stops it at float resolution
            if b - a < 1e-12:
                break
            c1, c2 = a + (b - a) / 3, b - (b - a) / 3
            if d_at(c1) < d_at(c2):
                b = c2
            else:
                a = c1
        t_star = (a + b) / 2
        return t_star, d_at(t_star)

    departed = False
    best_miss = max_d
    refinements = 0
    for idx in range(1, len(ds) - 1):
        t, d = ds[idx]
        if not departed:
            if d > depart_level:
                departed = True
            continue
        if t <= tol:
            continue
        if ds[idx - 1][1] > d <= ds[idx + 1][1] and d < qualify:
            t_star, d_star = refine(idx)
            best_miss = min(best_miss, d_star)
            refinements += 1
            if d_star < tol:
                return t_star, d_star
            if refinements >= 60:
                break
    return None, best_miss


def start_points(x0, seed: int = 0, scale: float = 1.0):
    """The start points of the monodromy tests, in order: x0, then x0 plus an
    offset drawn uniformly from [-scale, scale] per coordinate, from one
    seeded stream."""
    rng = random.Random(seed)
    x0 = F._as_point(x0)
    yield x0
    while True:
        yield F.Point(tuple(c + rng.uniform(-scale, scale) for c in x0.coords), x0.params)


def _in_domain(run, x0, starts: int, seed: int, scale: float):
    """(start, run(start)) for each of the first 20 * starts start_points on
    which run raises no DomainError: the start rule of monodromy_period and
    return_misses, which take the first `starts` they accept."""
    for start in itertools.islice(start_points(x0, seed, scale), 20 * starts):
        try:
            result = run(start)
        except E.DomainError:
            continue
        yield start, result


def monodromy_period(X: VectorField, x0, t_max: float = 20.0, tol: float = 1e-6,
                     steps: int = 20000, starts: int = 8, seed: int = 0,
                     scale: float = 1.0):
    """Common first-return time of the flow, validated at `starts` start
    points that move (all must agree within tol), or None. The diagnostics
    list (coordinates, first return or None, distance) per start tried in
    the domain; a start at rest is listed with (None, 0.0) and resampled,
    and once `starts` starts were at rest the search gives up."""
    periods, diagnostics, resting = [], [], 0
    for start, (t_star, d) in _in_domain(
            lambda start: _first_return(X, start, t_max, tol, steps), x0, starts, seed, scale):
        diagnostics.append((start.coords, t_star, d))
        if t_star is None and d == 0.0:
            resting += 1
            if resting == starts:
                break
            continue  # start point at rest: resample
        if t_star is None:
            return None, diagnostics
        periods.append(t_star)
        if len(periods) == starts:
            break
    if len(periods) < starts or max(periods) - min(periods) > tol:
        return None, diagnostics
    return sum(periods) / len(periods), diagnostics


_FIRST_RUNG = 1000


def return_misses(X: VectorField, x0, period: float, tol: float, steps: int = 20000,
                  starts: int = 8, seed: int = 0, scale: float = 1.0) -> List[float]:
    """Max-norm distance of each start point from its image after one period,
    for the first `starts` start points of _in_domain.

    Each start is integrated over the period with RK4 at n = min(1000, steps)
    steps, then at twice as many, up to `steps`. Once two rungs exist, d =
    |miss(n) - miss(n / 2)| is the step-doubling estimate of the RK4 error of
    miss(n): the start is accepted with miss(n) + d when that is below tol,
    and rejected with miss(n) when miss(n) - d is not. At `steps` the plain
    miss is recorded, so `steps` caps the work and a caller comparing each
    miss with tol keeps its meaning there."""
    tried = _in_domain(lambda start: _doubled_miss(X, start, period, tol, steps),
                       x0, starts, seed, scale)
    return [miss for _, miss in itertools.islice(tried, starts)]


def _doubled_miss(X: VectorField, start: F.Point, period: float, tol: float,
                  steps: int) -> float:
    """The miss of one start, recorded by the step-doubling rule of
    return_misses."""
    coords = [float(v) for v in start.coords]
    n, previous = min(_FIRST_RUNG, steps), None
    while True:
        end = numeric_flow(X, start, period, n).endpoint
        miss = max(abs(a - b) for a, b in zip(end, coords))
        if n == steps:
            return miss
        if previous is not None:
            d = abs(miss - previous)
            if miss + d < tol:
                return miss + d
            if miss - d >= tol:
                return miss
        n, previous = min(2 * n, steps), miss

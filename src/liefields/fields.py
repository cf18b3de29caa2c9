"""Vector fields as first-order derivations: bracket, application,
combination, rank and the three prolongations (point tuples, first jets,
differentials)."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import exactla, expr as E


class FieldError(Exception):
    pass


@dataclass(frozen=True)
class Point:
    """Evaluation point: coordinates plus values for the parameters."""

    coords: tuple
    params: Mapping[int, object] = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        object.__setattr__(self, "params", dict(self.params or {}))


def _as_point(p) -> Point:
    if isinstance(p, Point):
        return p
    return Point(tuple(p))


@dataclass(frozen=True)
class VectorField:
    dim: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.dim:
            raise FieldError(f"expected {self.dim} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.dim != self.dim:
            raise FieldError("dimension mismatch")
        return VectorField(self.dim, tuple(E.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar) -> "VectorField":
        s = scalar if isinstance(scalar, E.Expr) else E.const(scalar)
        return VectorField(self.dim, tuple(E.mul(s, c) for c in self.coeffs))

    def __neg__(self) -> "VectorField":
        return VectorField(self.dim, tuple(E.neg(c) for c in self.coeffs))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def is_polynomial(self) -> bool:
        return all(E.is_polynomial(c) for c in self.coeffs)


def coordinate_field(dim: int, i: int) -> VectorField:
    return VectorField(dim, tuple(E.ONE if j == i else E.ZERO for j in range(dim)))


def combination(coeffs: Sequence, fields: Sequence[VectorField]) -> VectorField:
    """sum_s coeffs[s] * fields[s] for Expr or exact-number coefficients,
    each coordinate summed once; zero coefficients are skipped. Canonical
    forms are unique, so this is the field that adding the terms one by one
    gives."""
    terms = [(c if isinstance(c, E.Expr) else E.const(c), X) for c, X in zip(coeffs, fields)]
    terms = [(c, X) for c, X in terms if not c.is_zero]
    n = fields[0].dim
    return VectorField(n, tuple(E.add_many(E.mul(c, X.coeffs[i]) for c, X in terms)
                                for i in range(n)))


def apply_to_function(X: VectorField, f: E.Expr) -> E.Expr:
    pieces = []
    for i, xi in enumerate(X.coeffs):
        if xi.is_zero:
            continue
        df = E.differentiate(f, i)
        if not df.is_zero:
            pieces.append(E.mul(xi, df))
    return E.add_many(pieces)


def bracket(X: VectorField, Y: VectorField) -> VectorField:
    if X.dim != Y.dim:
        raise FieldError("dimension mismatch in bracket")
    coeffs = tuple(
        E.add(apply_to_function(X, Y.coeffs[i]), E.neg(apply_to_function(Y, X.coeffs[i])))
        for i in range(X.dim)
    )
    return VectorField(X.dim, coeffs)


def substitute_params(X: VectorField, values) -> VectorField:
    """X with the given index-keyed parameter values put in; X itself when
    there are none."""
    if not values:
        return X
    return VectorField(X.dim, tuple(E.substitute_params(c, values) for c in X.coeffs))


def evaluate_at_point(X: VectorField, p) -> tuple:
    p = _as_point(p)
    params = {k: float(v) for k, v in p.params.items()}
    return tuple(E.evaluate_numeric(c, [float(v) for v in p.coords], params) for c in X.coeffs)


def evaluate_exact_at(fields: Sequence[VectorField], coords: Sequence[Fraction],
                      params=None) -> list:
    """The exact value of each field at coords, one row per field, from one
    kernel over all their coefficients."""
    values = E.evaluate_exact([c for X in fields for c in X.coeffs], coords, params)
    n = fields[0].dim if fields else 0
    return [values[k * n:(k + 1) * n] for k in range(len(fields))]


# ---------------------------------------------------------------------------
# random sampling

_SPAN = 97


def random_coordinate(rng: random.Random) -> int:
    """A sampled coordinate: an integer in [-97, 97]. Polynomial fields then
    evaluate in int arithmetic, and exact ranks run on int rows."""
    return rng.randint(-_SPAN, _SPAN)


def random_rational(rng: random.Random) -> Fraction:
    num = rng.randint(-_SPAN, _SPAN)
    den = rng.randint(1, _SPAN)
    return Fraction(num, den)


def random_nonspecial_rational(rng: random.Random) -> Fraction:
    while True:
        q = random_rational(rng)
        if q not in (0, 1, -1):
            return q


def field_params(fields: Sequence[VectorField]) -> set:
    out = set()
    for f in fields:
        for c in f.coeffs:
            out |= E.used_params(c)
    return out


def draw_free_params(pidx, pinned, rng: random.Random) -> dict:
    """The pinned parameter values, plus a random non-special rational for
    each parameter index in pidx that they leave free, drawn in index order.
    A pinned parameter costs no draw."""
    params = dict(pinned or {})
    for j in sorted(pidx - params.keys()):
        params[j] = random_nonspecial_rational(rng)
    return params


def sample_point(dim: int, rng: random.Random) -> list:
    return [random_coordinate(rng) for _ in range(dim)]


def sample_configuration(dim: int, copies: int, rng: random.Random) -> list:
    """The concatenated coordinates of `copies` random points, one draw per
    coordinate, in which no two points share a value on any axis: a draw
    that repeats an earlier point's value on its axis is raised by 1 until it
    is new. So the loop ends for every number of points, and a configuration
    without repeats is sample_point(copies * dim, rng).

    Each axis maps a taken value v to a value w > v with all of [v, w) taken,
    and a walk points every value it passed at the free value it found. So
    many more points than the 195 values of the span cost no quadratic
    walk."""
    axes = [{} for _ in range(dim)]
    coords = []
    for _ in range(copies):
        for taken in axes:
            q = random_coordinate(rng)
            path = []
            while q in taken:
                path.append(q)
                q = taken[q]
            for v in path:
                taken[v] = q
            taken[q] = q + 1
            coords.append(q)
    return coords


# ---------------------------------------------------------------------------
# ranks


def generic_rank(fields: Sequence[VectorField], seed: int = 0, points: int = 8,
                 param_values: Mapping[int, Fraction] | None = None,
                 point_filter=None, copies: int = 1) -> int:
    """Maximum exact rank of the coefficient matrix over `points` random
    integer points (sample_configuration). A parameter that param_values
    leaves free is drawn as a random non-special rational at each point; a
    pinned one costs no draw. Deterministic for a given seed. The rank is
    sampled: a point proves rank >= the value found, and only a value at
    min(len(fields), copies * dim) is certified.

    With copies = s the fields are taken point-prolonged to s points: a
    configuration is s points of the base space, no two sharing a value on
    any axis (sample_configuration), and a row is the field evaluated at each
    point in turn, the value of prolong_points(f, s) at the concatenated
    coordinates."""
    if not fields:
        raise FieldError("generic_rank of empty field list")
    dim = fields[0].dim
    if any(f.dim != dim for f in fields):
        raise FieldError("mixed dimensions")
    rng = random.Random(seed)
    pidx = field_params(fields)
    ceiling = min(len(fields), copies * dim)
    best = 0
    found = 0
    attempts = 0
    while found < points and attempts < 200 * points:
        attempts += 1
        coords = sample_configuration(dim, copies, rng)
        if point_filter is not None and not point_filter(coords):
            continue
        params = draw_free_params(pidx, param_values, rng)
        try:
            at_points = [evaluate_exact_at(fields, coords[b * dim:(b + 1) * dim], params)
                         for b in range(copies)]
        except E.DomainError:
            continue
        found += 1
        matrix = [list(itertools.chain.from_iterable(rows)) for rows in zip(*at_points)]
        best = max(best, exactla.rank(matrix))
        if best == ceiling:
            break
    if found == 0:
        raise FieldError("could not sample any admissible point")
    return best


# ---------------------------------------------------------------------------
# prolongations


def prolong_points(X: VectorField, s: int) -> VectorField:
    """Copy the field onto each of s point blocks: dim becomes s*dim."""
    if s < 1:
        raise FieldError("s must be >= 1")
    n = X.dim
    coeffs = []
    for block in range(s):
        shift = {j: E.var(block * n + j) for j in range(n)}
        for i in range(n):
            coeffs.append(E.substitute_vars(X.coeffs[i], shift))
    return VectorField(s * n, tuple(coeffs))


def prolong_jet1(X: VectorField) -> VectorField:
    """Planar field lifted to (x, y, z) with z the slope dy/dx:
    third coefficient eta_x + (eta_y - xi_x) z - xi_y z^2."""
    if X.dim != 2:
        raise FieldError("prolong_jet1 needs a planar field")
    xi, eta = X.coeffs
    z = E.var(2)
    third = E.add(
        E.differentiate(eta, 0),
        E.add(
            E.mul(E.add(E.differentiate(eta, 1), E.neg(E.differentiate(xi, 0))), z),
            E.neg(E.mul(E.differentiate(xi, 1), E.mul(z, z))),
        ),
    )
    return VectorField(3, (xi, eta, third))


def prolong_differentials(X: VectorField) -> VectorField:
    """Field plus its linearized action on a primed block: on 2n variables
    (x, x'), the primed coefficient nu is sum_tau d(xi_nu)/d(x_tau) * x'_tau."""
    n = X.dim
    coeffs = list(X.coeffs)
    for nu in range(n):
        pieces = []
        for tau in range(n):
            d = E.differentiate(X.coeffs[nu], tau)
            if not d.is_zero:
                pieces.append(E.mul(d, E.var(n + tau)))
        coeffs.append(E.add_many(pieces))
    return VectorField(2 * n, tuple(coeffs))


# ---------------------------------------------------------------------------
# linear relations with constant coefficients


def coefficient_rows(fields: Sequence[VectorField], key_index: dict) -> list:
    """Each field as {key: coefficient}, one key per (coordinate,
    variable-monomial); a monomial not yet in key_index gets the next key.
    Coefficients are Exprs in the parameters."""
    out = []
    for X in fields:
        entries = {}
        for i, c in enumerate(X.coeffs):
            for expo, coeff in E.poly_coefficients(c, X.dim).items():
                entries[key_index.setdefault((i, expo), len(key_index))] = coeff
        out.append(entries)
    return out


def _constant_rank(rows: Sequence[dict], width: int) -> int:
    """Rank over Q(params) of coefficient rows with `width` keys."""
    matrix = [[row.get(k, E.ZERO) for k in range(width)] for row in rows]
    return exactla.rank(matrix, exactla.EXPR_OPS)


def linear_independence_over_constants(fields: Sequence[VectorField]) -> bool:
    """True iff no nonzero combination of the fields with coefficients in
    Q(params) vanishes. Every coordinate is multiplied by one common clearing
    monomial: a nonzero function, so the relations stay the same, and the
    entries become polynomials in the variables. Distinct monomials are
    independent, so full rank of the coefficient matrix decides exactly."""
    if not fields:
        return True
    coeffs = [c for X in fields for c in X.coeffs]
    if any(E.contains_fn(c) for c in coeffs):
        raise E.NonPolynomialError("independence needs coefficients free of function nodes")
    cleared = iter(E.clear_denominators(*coeffs))
    polys = [VectorField(X.dim, tuple(next(cleared) for _ in X.coeffs)) for X in fields]
    key_index: dict = {}
    return _constant_rank(coefficient_rows(polys, key_index), len(key_index)) == len(fields)


def span_equal(a: Sequence[VectorField], b: Sequence[VectorField]) -> bool:
    """Exact equality over Q(params) of the constant-coefficient spans of
    polynomial fields."""
    key_index: dict = {}
    rows = coefficient_rows(list(a) + list(b), key_index)
    width = len(key_index)
    ra = _constant_rank(rows[: len(a)], width)
    rb = _constant_rank(rows[len(a):], width)
    return ra == rb == _constant_rank(rows, width)


# ---------------------------------------------------------------------------
# parsing and printing of field literals


def basis_tokens(dim: int) -> list:
    if dim <= 3:
        return ["p", "q", "r"][:dim]
    return [f"d{i + 1}" for i in range(dim)]


def _replace_idents(text: str, mapping: dict) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tok = text[i:j]
            out.append(mapping.get(tok, tok))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def repeated_name(vars: Sequence[str], params: Sequence[str] = ()):
    """A name that appears twice among vars and params, or None."""
    seen = set()
    for name in (*vars, *params):
        if name in seen:
            return name
        seen.add(name)
    return None


def parse_field(text: str, vars: Sequence[str], params: Sequence[str] = ()) -> VectorField:
    """Parse a field literal such as "x^2*p + 2*x*r" or "y*d1 - x*d2": an
    expression over the variables extended by one basis token per coordinate,
    linear homogeneous in the tokens. Both the p/q/r shorthand (dims <= 3) and
    the positional d1..dn spelling are accepted."""
    name = repeated_name(vars, params)
    if name is not None:
        raise FieldError(f"name {name!r} is given twice among the variables and parameters")
    dim = len(vars)
    tokens = basis_tokens(dim)
    aliases = [f"d{i + 1}" for i in range(dim)]
    clash = (set(tokens) | set(aliases)) & (set(vars) | set(params))
    if clash:
        raise FieldError(f"variable names collide with basis tokens: {sorted(clash)}")
    ext_vars = list(vars) + tokens
    if aliases != tokens:
        text = _replace_idents(text, dict(zip(aliases, tokens)))
    e = E.parse_expression(text, ext_vars, params)
    pieces = [[] for _ in range(dim)]
    for mon, c in e.terms:
        token_index = None
        stripped = []
        for factor, ex in mon:
            if factor[0] == E._V and factor[1] >= dim:
                if token_index is not None or ex != 1:
                    raise FieldError(f"field literal not linear in basis tokens: {text!r}")
                token_index = factor[1] - dim
            else:
                stripped.append((factor, ex))
        if token_index is None:
            raise FieldError(f"term without basis token in field literal: {text!r}")
        piece = E.Expr(((tuple(stripped), c),))
        if E.used_vars(piece) and max(E.used_vars(piece)) >= dim:
            raise FieldError("basis token nested inside a function node")
        pieces[token_index].append(piece)
    return VectorField(dim, tuple(E.add_many(p) for p in pieces))


def field_to_string(X: VectorField, vars: Sequence[str], params: Sequence[str] = ()) -> str:
    tokens = basis_tokens(X.dim)
    parts = []
    for i, c in enumerate(X.coeffs):
        if c.is_zero:
            continue
        cv = c.constant_value()
        if cv == 1:
            body = tokens[i]
            negative = False
        elif cv == -1:
            body = tokens[i]
            negative = True
        elif len(c.terms) == 1:
            s = E.to_string(c, vars, params)
            negative = s.startswith("-")
            body = f"{s.lstrip('-')}*{tokens[i]}"
        else:
            s = E.to_string(c, vars, params)
            negative = False
            body = f"({s})*{tokens[i]}"
        parts.append((negative, body))
    if not parts:
        return "0"
    out = []
    for idx, (negative, body) in enumerate(parts):
        if idx == 0:
            out.append(("-" if negative else "") + body)
        else:
            out.append((" - " if negative else " + ") + body)
    return "".join(out)


def point_var_names(vars: Sequence[str], s: int) -> list:
    """Names for the s-fold point prolongation: x1, y1, ..., x2, y2, ..."""
    return [f"{v}{k + 1}" for k in range(s) for v in vars]


def differential_var_names(vars: Sequence[str]) -> list:
    return list(vars) + [f"d{v}" for v in vars]

"""Exact symbolic scalar expressions.

An expression is a finite sum of terms ``coeff * f1^e1 * ... * fk^ek`` with
``coeff`` a nonzero rational, stored as an ``int`` when it is integral and as
a ``Fraction`` otherwise (integer products and sums then skip ``Fraction``),
and each factor one of

* a variable ``x_i`` (index into a caller-supplied coordinate list),
* a parameter ``c_j`` (an essential constant, never differentiated away by
  coordinate derivatives, never sampled as a coordinate),
* a function node ``log/exp/atan/sqrt`` applied to another expression,
* an inverted polynomial block ``(base)^-k`` with a monic primitive base.

Polynomial subtrees are always kept expanded in a canonical sparse form:
like terms combine, zero coefficients vanish, positive integer powers of
sums are multiplied out, and inverted blocks are normalized (content and
leading coefficient extracted) so that syntactically different spellings of
the same rational expression collide on the same keys.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from . import upoly

LOG, EXP, ATAN, SQRT = range(4)
FN_NAMES = {LOG: "log", EXP: "exp", ATAN: "atan", SQRT: "sqrt"}
FN_KINDS = {name: kind for kind, name in FN_NAMES.items()}

_V, _P, _F, _Q = 0, 1, 2, 3  # factor tags: variable, parameter, function, inverted block


class Zeroness(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class DomainError(ExprError):
    """Numeric evaluation hit log/sqrt out of range or a vanishing denominator."""

    def __init__(self, message: str, culprit=None):
        super().__init__(message)
        self.culprit = culprit


class NonPolynomialError(ExprError):
    pass


def _mkey(mon):
    deg = 0
    vexps = []
    rest = []
    for factor, e in mon:
        if factor[0] == _V:
            deg += e
            vexps.append((factor[1], -e))
        else:
            rest.append((factor, -e))
    return (-deg, tuple(vexps), tuple(rest))


class Expr:
    """Immutable canonical expression. Build through the module functions.

    Expressions are ordered by skey(), the terms with each coefficient as
    (numerator, denominator). So the factor tuples (_V, i), (_P, j),
    (_F, kind, Expr) and (_Q, Expr) sort natively: first by tag, then by
    index, kind or argument. Every monomial lists its factors in that order,
    and a canonical form's terms are sorted by _mkey. The hash is taken at
    first use: most intermediate expressions are never hashed."""

    __slots__ = ("terms", "_hash", "_skey")

    def __init__(self, terms):
        self.terms = terms
        self._hash = None
        self._skey = None

    def skey(self):
        if self._skey is None:
            self._skey = tuple((mon, (c.numerator, c.denominator)) for mon, c in self.terms)
        return self._skey

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Expr) and self.terms == other.terms

    def __lt__(self, other):
        return self.skey() < other.skey()

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Expr<{generic_str(self)}>"

    # arithmetic sugar; right operands may be ints or Fractions
    def __add__(self, other):
        if not isinstance(other, (Expr, int, Fraction)):
            return NotImplemented
        return add(self, _coerce(other))

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        if not isinstance(other, (Expr, int, Fraction)):
            return NotImplemented
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        if not isinstance(other, (Expr, int, Fraction)):
            return NotImplemented
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        if not isinstance(other, (Expr, int, Fraction)):
            return NotImplemented
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __pow__(self, k):
        return intpow(self, k)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self):
        """Fraction value if the expression is a constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and not self.terms[0][0]:
            return Fraction(self.terms[0][1])
        return None


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return const(x)
    raise TypeError(f"cannot coerce {x!r} to Expr")


def _norm(c):
    """The canonical coefficient of the rational c: an int when it is
    integral, else a Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _make(term_map: dict) -> Expr:
    terms = tuple(
        sorted(((m, _norm(c)) for m, c in term_map.items() if c), key=lambda t: _mkey(t[0]))
    )
    return Expr(terms)


ZERO = Expr(())
ONE = Expr((((), 1),))


def const(q) -> Expr:
    q = _norm(q if type(q) is int else Fraction(q))
    if q == 0:
        return ZERO
    return Expr((((), q),))


def var(i: int) -> Expr:
    return Expr((((((_V, i), 1),), 1),))


def param(j: int) -> Expr:
    return Expr((((((_P, j), 1),), 1),))


def add(a: Expr, b: Expr) -> Expr:
    if not a.terms:
        return b
    if not b.terms:
        return a
    acc = dict(a.terms)
    for m, c in b.terms:
        nc = acc.get(m, 0) + c
        if nc:
            acc[m] = nc
        else:
            acc.pop(m, None)
    return _make(acc)


def add_many(exprs: Iterable[Expr]) -> Expr:
    """Sum of any number of expressions, canonicalised once. Folding `add`
    over N pieces re-sorts the running sum N times; this sorts it once, and
    canonical forms are unique, so the result is the same."""
    return _sum_terms(e.terms for e in exprs)


def _sum_terms(term_groups) -> Expr:
    acc: dict = {}
    for terms in term_groups:
        for m, c in terms:
            acc[m] = acc.get(m, 0) + c
    return _make(acc)


def neg(a: Expr) -> Expr:
    return Expr(tuple((m, -c) for m, c in a.terms))


def _mul_monomials(m1, m2):
    """Combine two monomials; returns (monomial, overflow) where overflow is a
    list of (base_expr, positive_exponent) for inverted blocks whose exponent
    became positive and must be expanded back into polynomial form."""
    exps = dict(m1)
    for f, e in m2:
        ne = exps.get(f, 0) + e
        if ne:
            exps[f] = ne
        else:
            exps.pop(f, None)
    overflow = []
    for f in [f for f, e in exps.items() if f[0] == _Q and e > 0]:
        overflow.append((f[1], exps.pop(f)))
    mon = tuple(sorted(exps.items()))
    return mon, overflow


def mul(a: Expr, b: Expr) -> Expr:
    if not a.terms or not b.terms:
        return ZERO
    acc: dict = {}
    pending: list = []
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            mon, overflow = _mul_monomials(m1, m2)
            c = c1 * c2
            if overflow:
                piece = Expr(((mon, c),))
                for base, e in overflow:
                    piece = mul(piece, intpow(base, e))
                pending.append(piece)
            else:
                nc = acc.get(mon, 0) + c
                if nc:
                    acc[mon] = nc
                else:
                    acc.pop(mon, None)
    if pending:
        return _sum_terms([acc.items()] + [piece.terms for piece in pending])
    return _make(acc)


def intpow(a: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k < 0:
        return intpow(inverse(a), -k)
    if len(a.terms) == 1:
        mon, c = a.terms[0]
        exps = {f: e * k for f, e in mon}
        # inverted blocks keep negative exponents under positive powers
        mon2 = tuple(sorted(exps.items()))
        return Expr(((mon2, c**k),))
    result = ONE
    base = a
    n = k
    while n:
        if n & 1:
            result = mul(result, base)
        base_needed = n > 1
        n >>= 1
        if base_needed and n:
            base = mul(base, base)
    return result


def clearing_monomial(*exprs: Expr) -> tuple:
    """Smallest monomial clearing every negative exponent in the exprs."""
    need: dict = {}
    for e in exprs:
        for mon, _ in e.terms:
            for f, ex in mon:
                if ex < 0:
                    need[f] = max(need.get(f, 0), -ex)
    mon = tuple(sorted(need.items()))
    return mon


def divide_shared_nodes(exprs: Sequence[Expr]) -> list:
    """The exprs divided by the function nodes that every term of every expr
    carries, each at its least exponent: a gradient of P*e^g loses its e^g."""
    shared = None
    for e in exprs:
        for mon, _ in e.terms:
            nodes = {f: k for f, k in mon if f[0] == _F}
            shared = nodes if shared is None else {
                f: min(k, nodes[f]) for f, k in shared.items() if f in nodes}
    if not shared:
        return list(exprs)
    mon = tuple(sorted((f, -k) for f, k in shared.items()))
    return [mul(e, Expr(((mon, 1),))) for e in exprs]


def clear_denominators(*exprs: Expr) -> list:
    """The exprs, each multiplied by one common monomial: the smallest that
    clears every inverted or negative factor among them."""
    mon = clearing_monomial(*exprs)
    if not mon:
        return list(exprs)
    return [mul(e, Expr(((mon, 1),))) for e in exprs]


def inverse(e: Expr) -> Expr:
    if not e.terms:
        raise ZeroDivisionError("inverse of zero expression")
    if len(e.terms) == 1:
        mon, c = e.terms[0]
        exps = {f: -ex for f, ex in mon}
        overflow = [(f[1], exps.pop(f)) for f in list(exps) if f[0] == _Q and exps[f] > 0]
        mon2 = tuple(sorted(exps.items()))
        out = Expr(((mon2, _norm(Fraction(1, c))),))
        for base, ex in overflow:
            out = mul(out, intpow(base, ex))
        return out
    [numer] = clear_denominators(e)
    denom_mon = clearing_monomial(e)
    if len(numer.terms) == 1:
        inv = inverse(numer)
        if denom_mon:
            inv = mul(inv, Expr(((denom_mon, 1),)))
        return inv
    # extract monomial content so the base is primitive
    content: dict = None
    for mon, _ in numer.terms:
        exps = dict(mon)
        if content is None:
            content = exps
        else:
            content = {f: min(e, exps.get(f, 0)) for f, e in content.items() if exps.get(f, 0) > 0}
    content = {f: e for f, e in (content or {}).items() if e > 0}
    if content:
        strip = Expr(((tuple(sorted((f, -e) for f, e in content.items())), 1),))
        numer = mul(numer, strip)
    lead = numer.terms[0][1]
    base = Expr(tuple((m, _norm(Fraction(c, lead))) for m, c in numer.terms)) if lead != 1 else numer
    parts: dict = {(_Q, base): -1}
    for f, e in content.items():
        parts[f] = parts.get(f, 0) - e
    mon2 = tuple(sorted(parts.items()))
    out = Expr(((mon2, _norm(Fraction(1, lead))),))
    if denom_mon:
        out = mul(out, Expr(((denom_mon, 1),)))
    return out


def fn(kind: int, arg: Expr) -> Expr:
    cv = arg.constant_value()
    if cv is not None:
        if kind == LOG and cv == 1:
            return ZERO
        if kind == EXP and cv == 0:
            return ONE
        if kind == ATAN and cv == 0:
            return ZERO
        if kind == SQRT:
            r = upoly.rational_sqrt(cv)
            if r is not None:
                return const(r)
    return Expr((((((_F, kind, arg), 1),), 1),))


# ---------------------------------------------------------------------------
# calculus


def _dfactor(factor, v: int) -> Expr:
    tag = factor[0]
    if tag == _V:
        return ONE if factor[1] == v else ZERO
    if tag == _P:
        return ZERO
    if tag == _F:
        kind, arg = factor[1], factor[2]
        du = differentiate(arg, v)
        if du.is_zero:
            return ZERO
        if kind == LOG:
            return mul(du, inverse(arg))
        if kind == EXP:
            return mul(du, fn(EXP, arg))
        if kind == ATAN:
            return mul(du, inverse(add(ONE, mul(arg, arg))))
        # sqrt: u' / (2 sqrt(u))
        root = Expr((((((_F, SQRT, arg), -1),), Fraction(1, 2)),))
        return mul(du, root)
    return differentiate(factor[1], v)  # inverted block: derivative of the base


@lru_cache(maxsize=200000)
def differentiate(e: Expr, v: int) -> Expr:
    pieces = []
    for mon, c in e.terms:
        for idx, (factor, ex) in enumerate(mon):
            df = _dfactor(factor, v)
            if df.is_zero:
                continue
            rest = {f: k for f, k in mon}
            if ex == 1:
                del rest[factor]
            else:
                rest[factor] = ex - 1
            overflow = [(f[1], rest.pop(f)) for f in list(rest) if f[0] == _Q and rest[f] > 0]
            mon2 = tuple(sorted(rest.items()))
            piece = mul(Expr(((mon2, c * ex),)), df)
            for base, k in overflow:
                piece = mul(piece, intpow(base, k))
            pieces.append(piece)
    return add_many(pieces)


def _is_plain_monomial(e: Expr) -> bool:
    """One term whose factors are all variables and parameters."""
    return len(e.terms) == 1 and all(f[0] <= _P for f, _ex in e.terms[0][0])


def substitute_vars(e: Expr, mapping: Mapping[int, Expr]) -> Expr:
    """e with variable i replaced by mapping[i]. A plain-monomial replacement
    (a renamed variable, a constant, c*x_j, a parameter monomial) merges into
    the term's exponents and coefficient; function nodes, inverted blocks and
    multi-term replacements are multiplied in. Multiplying by a plain
    monomial never expands a block, so the merged term equals the product."""
    pieces = []
    for mon, c in e.terms:
        exps: dict = {}
        factors = []
        for factor, ex in mon:
            tag = factor[0]
            if tag == _V and factor[1] in mapping:
                rep = mapping[factor[1]]
                if not _is_plain_monomial(rep):
                    factors.append(intpow(rep, ex))
                    continue
                rmon, rc = rep.terms[0]
                c = c * (rc**ex if ex > 0 else Fraction(1, rc**-ex))
                merge = [(f, k * ex) for f, k in rmon]
            elif tag == _F:
                factors.append(intpow(fn(factor[1], substitute_vars(factor[2], mapping)), ex))
                continue
            elif tag == _Q:
                factors.append(intpow(substitute_vars(factor[1], mapping), ex))
                continue
            else:
                merge = ((factor, ex),)
            for f, k in merge:
                k += exps.get(f, 0)
                if k:
                    exps[f] = k
                else:
                    del exps[f]
        piece = Expr(((tuple(sorted(exps.items())), c),))
        for rep in factors:
            piece = mul(piece, rep)
        pieces.append(piece)
    return add_many(pieces)


def substitute_params(e: Expr, mapping: Mapping[int, "Expr | Fraction | int"]) -> Expr:
    """A monomial that uses no mapped parameter passes through untouched."""
    untouched = []
    pieces = []
    for mon, c in e.terms:
        if not _uses_params(mon, mapping):
            untouched.append((mon, c))
            continue
        piece = const(c)
        for factor, ex in mon:
            tag = factor[0]
            if tag == _P and factor[1] in mapping:
                rep = _coerce(mapping[factor[1]])
            elif tag == _F:
                rep = fn(factor[1], substitute_params(factor[2], mapping))
            elif tag == _Q:
                rep = substitute_params(factor[1], mapping)
            else:
                piece = mul(piece, Expr(((((factor, ex),), 1),)))
                continue
            piece = mul(piece, intpow(rep, ex))
        pieces.append(piece.terms)
    if not pieces:
        return e
    return _sum_terms([untouched] + pieces)


def _uses_params(mon, mapping) -> bool:
    for factor, _ex in mon:
        tag = factor[0]
        if tag == _P:
            if factor[1] in mapping:
                return True
        elif tag == _F and not used_params(factor[2]).isdisjoint(mapping):
            return True
        elif tag == _Q and not used_params(factor[1]).isdisjoint(mapping):
            return True
    return False


def monomial_nonzero_at(mon: tuple, mapping: Mapping[int, "Expr | Fraction | int"]) -> bool:
    """Whether the monomial stays nonzero with the parameter values put in:
    every parameter, inverted-block base and function node among its factors
    does. Variables and unmapped parameters are nonzero symbols."""
    for factor, _ex in mon:
        tag = factor[0]
        if tag == _P:
            image = _coerce(mapping[factor[1]]) if factor[1] in mapping else ONE
        elif tag == _F:
            image = fn(factor[1], substitute_params(factor[2], mapping))
        elif tag == _Q:
            image = substitute_params(factor[1], mapping)
        else:
            continue
        if image.is_zero:
            return False
    return True


# ---------------------------------------------------------------------------
# structure queries


def domain_guards(e: Expr) -> list:
    """Subexpressions that must keep a fixed sign for e to stay inside one
    continuity domain: inverted-block bases and log/sqrt arguments, collected
    recursively (an atan's poles are the inverted blocks of its argument)."""
    out = []
    seen = set()

    def visit(ex: Expr):
        for mon, _ in ex.terms:
            for factor, exp in mon:
                tag = factor[0]
                if tag == _Q:
                    if factor[1] not in seen:
                        seen.add(factor[1])
                        out.append(factor[1])
                    visit(factor[1])
                elif tag == _F:
                    if factor[1] in (LOG, SQRT) and factor[2] not in seen:
                        seen.add(factor[2])
                        out.append(factor[2])
                    visit(factor[2])
                elif tag == _V and exp < 0:
                    v = var(factor[1])
                    if v not in seen:
                        seen.add(v)
                        out.append(v)
    visit(e)
    return out


def contains_fn(e: Expr) -> bool:
    for mon, _ in e.terms:
        for factor, _ex in mon:
            if factor[0] == _F:
                return True
            if factor[0] == _Q and contains_fn(factor[1]):
                return True
    return False


def is_polynomial(e: Expr) -> bool:
    for mon, _ in e.terms:
        for factor, ex in mon:
            if factor[0] in (_F, _Q):
                return False
            if ex < 0:
                return False
    return True


def used_vars(e: Expr) -> set:
    out = set()
    for mon, _ in e.terms:
        for factor, _ex in mon:
            if factor[0] == _V:
                out.add(factor[1])
            elif factor[0] == _F:
                out |= used_vars(factor[2])
            elif factor[0] == _Q:
                out |= used_vars(factor[1])
    return out


def used_params(e: Expr) -> set:
    out = set()
    for mon, _ in e.terms:
        for factor, _ex in mon:
            if factor[0] == _P:
                out.add(factor[1])
            elif factor[0] == _F:
                out |= used_params(factor[2])
            elif factor[0] == _Q:
                out |= used_params(factor[1])
    return out


def poly_coefficients(e: Expr, nvars: int) -> dict:
    """Map variable-exponent tuples -> coefficient Expr in the parameters.

    Requires an expression polynomial in the variables (parameters may appear
    in inverted blocks as long as no variable does).
    """
    groups: dict = {}
    for mon, c in e.terms:
        vexp = [0] * nvars
        restmon = []
        for factor, ex in mon:
            if factor[0] == _V:
                if ex < 0:
                    raise NonPolynomialError("negative variable power")
                vexp[factor[1]] += ex
            else:
                if factor[0] == _F and used_vars(fn(factor[1], factor[2])):
                    raise NonPolynomialError("function node involving variables")
                if factor[0] == _Q and used_vars(factor[1]):
                    raise NonPolynomialError("inverted block involving variables")
                restmon.append((factor, ex))
        groups.setdefault(tuple(vexp), []).append((tuple(restmon), c))
    out = {k: _sum_terms([terms]) for k, terms in groups.items()}
    return {k: v for k, v in out.items() if not v.is_zero}


# ---------------------------------------------------------------------------
# zero test

_ZT_SAMPLES = 64
_ZT_TOL = 1e-10


def is_identically_zero(e: Expr, seed: int = 0) -> Zeroness:
    """Tri-state zero test.

    YES when polynomial cancellation (after clearing denominators, treating
    function nodes as opaque symbols) leaves nothing. For expressions free of
    function nodes that is a complete decision, so the answer is NO otherwise.
    When function nodes survive, 64 random rational evaluations all vanishing
    gives UNKNOWN; a nonvanishing sample gives NO.
    """
    [cleared] = clear_denominators(e)
    if cleared.is_zero:
        return Zeroness.YES
    if not contains_fn(e):
        return Zeroness.NO
    import random as _random

    rng = _random.Random(seed)

    def rational():
        return Fraction(rng.randint(-97, 97), rng.randint(1, 97))

    vs = used_vars(e)
    ps = used_params(e)
    hits = 0
    attempts = 0
    while hits < _ZT_SAMPLES and attempts < _ZT_SAMPLES * 20:
        attempts += 1
        coords = [0.0] * (max(vs, default=-1) + 1)
        for i in vs:
            coords[i] = float(rational())
        pars = {j: float(rational()) for j in ps}
        try:
            value = evaluate_numeric(e, coords, pars)
        except DomainError:
            continue
        if abs(value) >= _ZT_TOL:
            return Zeroness.NO
        hits += 1
    return Zeroness.UNKNOWN


# ---------------------------------------------------------------------------
# evaluation


def numeric_source(exprs: Sequence[Expr], var: str = "X[{}]",
                   consts: list | None = None) -> tuple[list, list]:
    """Python source evaluating the exprs in one scope: the one definition of
    evaluation, behind every evaluator and the RK4 kernel. Returns
    ``(assignments, sources)``: lines ``sK = ...`` to run first, in order,
    then one expression per Expr. ``var.format(i)`` spells coordinate i and
    ``P[j]`` parameter j; the names ``s0, s1, ...`` must be free in the scope.

    Shared pieces: a power ``(b)**k``, an inverted block or a function node
    that occurs more than once in the scope is assigned once to a local and
    every use reads that local; a piece that occurs once stays inline, and
    the pieces of a shared piece are counted once. A piece is a pure function
    of the inputs, so its local holds the value the inline code computes:
    the same float operations run on the same values in the same order, and
    every result keeps its bits. Only which of two failing pieces raises
    first can change.

    Float flavour (consts None): coefficients are float literals, except that
    a non-constant term drops a coefficient of 1 or -1 (``y*z`` for
    ``1.0*y*z``, ``-y*z`` for ``-1.0*y*z``: for a float y, ``1.0*y`` is y and
    ``-1.0*y`` is -y, bit for bit), so the inputs must be floats; function
    nodes call ``math``, which must be in scope. Exact flavour: each
    coefficient is appended to consts and spelled ``C[k]``, and a negative
    power divides; a function node raises NonPolynomialError. A term that
    divides holds its coefficient as a Fraction, so ``C[k]/X[0]`` is a
    Fraction on int inputs, never a float. A term that divides by nothing
    keeps the coefficient as stored, an int when integral: on int inputs a
    polynomial is then pure int arithmetic. So int and Fraction inputs give
    an int or a Fraction, never a float."""
    exact = consts is not None
    counts: dict = {}
    names: dict = {}
    lines: list = []

    def power(factor, k):
        return (factor, abs(k) if exact else k)

    def visit(key) -> bool:
        """Count one use of a piece; True at its first use."""
        counts[key] = counts.get(key, 0) + 1
        return counts[key] == 1

    def count(e: Expr):
        for mon, _ in e.terms:
            for factor, k in mon:
                key = power(factor, k)
                if key[1] != 1 and not visit(key):
                    continue
                if factor[0] == _F and visit(factor):
                    count(factor[2])
                elif factor[0] == _Q and visit(factor):
                    count(factor[1])

    def piece(key, build) -> str:
        """The source of a piece: inline, or a local assigned at first use."""
        if key in names:
            return names[key]
        src = build()
        if counts[key] == 1:
            return src
        names[key] = f"s{len(lines)}"
        lines.append(f"{names[key]} = {src}")
        return names[key]

    def base(factor) -> str:
        tag = factor[0]
        if tag == _V:
            return var.format(factor[1])
        if tag == _P:
            return f"P[{factor[1]}]"
        if tag == _F:
            if exact:
                raise NonPolynomialError("exact evaluation of function node")
            return piece(factor, lambda: f"math.{FN_NAMES[factor[1]]}({emit(factor[2])})")
        return piece(factor, lambda: emit(factor[1]))

    def emit(e: Expr) -> str:
        terms = e.terms
        if exact and not terms:
            terms = (((), Fraction(0)),)  # the exact zero is the Fraction 0
        parts = []
        for mon, c in terms:
            factors = ""
            for factor, k in mon:
                key = power(factor, k)
                b = base(factor) if key[1] == 1 else piece(key, lambda: f"({base(factor)})**{key[1]}")
                factors += ("/" if exact and k < 0 else "*") + b
            if exact:
                consts.append(Fraction(c) if any(k < 0 for _, k in mon) else c)
                parts.append(f"C[{len(consts) - 1}]" + factors)
            elif mon and abs(c) == 1:
                parts.append(("-" if c < 0 else "") + factors[1:])
            else:
                parts.append(repr(float(c)) + factors)
        return "(" + " + ".join(parts) + ")" if parts else "0.0"

    for e in exprs:
        count(e)
    return lines, [emit(e) for e in exprs]


@lru_cache(maxsize=4096)
def _kernel(exprs: tuple, exact: bool) -> Callable:
    """``f(X, P)`` compiled from numeric_source in one flavour: the list of
    the exprs' values, their shared pieces assigned to locals before the
    return; C holds the exact flavour's coefficients."""
    consts = [] if exact else None
    lines, srcs = numeric_source(exprs, "X[{}]", consts)
    ctx = {"math": math, "C": consts}
    body = lines + [f"return [{', '.join(srcs)}]"]
    exec("def f(X, P):\n" + "".join(f"    {line}\n" for line in body), ctx)
    return ctx["f"]


def _run(exprs: tuple, exact: bool, coords, params) -> list:
    """Evaluate one kernel, with the one error mapping of every evaluator."""
    try:
        return _kernel(exprs, exact)(coords, params or {})
    except KeyError as err:
        raise ExprError(f"missing value for parameter #{err.args[0]}") from None
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        raise DomainError(f"numeric evaluation failed: {err}", exprs) from err


def evaluate_numeric(e: Expr, coords, params: Mapping[int, float] | None = None) -> float:
    """Float value of e at float coordinates and parameters. Unit
    coefficients are left out of the kernel, so int inputs could give an
    int: callers convert to float first."""
    return _run((e,), False, coords, params)[0]


def evaluate_exact(exprs: Sequence[Expr], coords: Sequence[Fraction],
                   params: Mapping[int, Fraction] | None = None) -> list:
    """Exact values of the exprs, in order, at int or Fraction coordinates
    and parameters, used as given: a float among them raises TypeError. Each
    value is an int or a Fraction, never a float (see numeric_source): a
    polynomial at int inputs gives an int. The exprs are evaluated in one
    scope, so a block or power they share is computed once."""
    values = _run(tuple(exprs), True, coords, params)
    for value in values:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"exact evaluation needs int or Fraction values, got {type(value).__name__}")
    return values


def compile_numeric(e: Expr) -> Callable:
    """Float evaluator ``f(coords, params=None) -> float`` running the cached
    float kernel of e on the values as given. Domain problems raise
    DomainError naming (e,) as the culprit."""
    return lambda coords, params=None: _run((e,), False, coords, params)[0]


# ---------------------------------------------------------------------------
# parsing and printing


def parse_expression(text: str, vars: Sequence[str], params: Sequence[str] = ()) -> Expr:
    """Parse per the grammar:

    expr := ['-'] term (('+'|'-') term)* ;  term := factor ('*' factor)* ;
    factor := atom ('^' integer)? ;  atom := number | ident | '(' expr ')'
    | fn '(' expr ')' ;  fn in {log, exp, atan, sqrt} ;
    number := integer ('/' positive-integer)?.
    """
    vmap = {name: i for i, name in enumerate(vars)}
    pmap = {name: j for j, name in enumerate(params)}
    return _Parser(text, vmap, pmap).parse()


# deeper nesting of parentheses and function calls (the whole expression is
# the first level) is a parse error, well before Python's recursion limit
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, vmap, pmap):
        self.text = text
        self.i = 0
        self.vmap = vmap
        self.pmap = pmap
        self.depth = 0

    def _offset(self) -> int:
        return len(self.text[: self.i].encode("utf-8"))

    def error(self, message: str):
        raise ParseError(message, self._offset())

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.i != len(self.text):
            self.error(f"unexpected character {self.text[self.i]!r}")
        return e

    def expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        negate = False
        if self.peek() == "-":
            self.i += 1
            negate = True
        e = self.term()
        terms = [neg(e) if negate else e]
        while True:
            c = self.peek()
            if c == "+":
                self.i += 1
                terms.append(self.term())
            elif c == "-":
                self.i += 1
                terms.append(neg(self.term()))
            else:
                self.depth -= 1
                return terms[0] if len(terms) == 1 else add_many(terms)

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() == "*":
            self.i += 1
            e = mul(e, self.factor())
        return e

    def factor(self) -> Expr:
        a = self.atom()
        if self.peek() == "^":
            self.i += 1
            k = self.signed_integer()
            if k < 0 and a.is_zero:
                self.error("zero raised to a negative power")
            a = intpow(a, k)
        return a

    def signed_integer(self) -> int:
        self.skip_ws()
        start = self.i
        if self.i < len(self.text) and self.text[self.i] == "-":
            self.i += 1
        digits = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == digits:
            self.error("expected integer exponent")
        return int(self.text[start : self.i])

    def atom(self) -> Expr:
        c = self.peek()
        if c == "(":
            self.i += 1
            e = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.i += 1
            return e
        if c.isdigit():
            return self.number()
        if c.isalpha() or c == "_":
            name = self.ident()
            if name in FN_KINDS and self.peek() == "(":
                self.i += 1
                arg = self.expr()
                if self.peek() != ")":
                    self.error("expected ')'")
                self.i += 1
                return fn(FN_KINDS[name], arg)
            if name in self.vmap:
                return var(self.vmap[name])
            if name in self.pmap:
                return param(self.pmap[name])
            self.error(f"unknown identifier {name!r}")
        self.error("expected a number, identifier or '('")

    def ident(self) -> str:
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and (self.text[self.i].isalnum() or self.text[self.i] == "_"):
            self.i += 1
        return self.text[start : self.i]

    def number(self) -> Expr:
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        numerator = int(self.text[start : self.i])
        save = self.i
        self.skip_ws()
        if self.i < len(self.text) and self.text[self.i] == "/":
            self.i += 1
            self.skip_ws()
            dstart = self.i
            while self.i < len(self.text) and self.text[self.i].isdigit():
                self.i += 1
            denominator = int(self.text[dstart : self.i] or 0)
            if not denominator:
                self.error("expected positive integer denominator")
            return const(Fraction(numerator, denominator))
        self.i = save
        return const(numerator)


def to_string(e: Expr, vars: Sequence[str], params: Sequence[str] = ()) -> str:
    if not e.terms:
        return "0"

    def fmt_factor(factor, ex):
        tag = factor[0]
        if tag == _V:
            s = vars[factor[1]]
        elif tag == _P:
            s = params[factor[1]]
        elif tag == _F:
            s = f"{FN_NAMES[factor[1]]}({to_string(factor[2], vars, params)})"
        else:
            s = f"({to_string(factor[1], vars, params)})"
        return s if ex == 1 else f"{s}^{ex}"

    parts = []
    for mon, c in e.terms:
        bits = [fmt_factor(f, ex) for f, ex in mon]
        mag = abs(c)
        if mag != 1 or not bits:
            bits.insert(0, str(mag))
        parts.append((c < 0, "*".join(bits)))
    out = []
    for idx, (negative, body) in enumerate(parts):
        if idx == 0:
            out.append(("-" if negative else "") + body)
        else:
            out.append((" - " if negative else " + ") + body)
    return "".join(out)


def generic_str(e: Expr) -> str:
    """Debug rendering with positional names x0,x1,... / c0,c1,..."""
    n = max(used_vars(e), default=-1) + 1
    p = max(used_params(e), default=-1) + 1
    return to_string(e, [f"x{i}" for i in range(n)], [f"c{j}" for j in range(p)])

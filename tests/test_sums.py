"""Sums of many expressions are canonicalised once. Canonical forms are
unique, so every result must carry exactly the terms tuple that summing one
`add` at a time gives. The references below are the term-by-term versions."""

from fractions import Fraction

import pytest

from liefields import catalog as CAT, expr as E, fields as F, invariants as I
from liefields.expr import _F, _P, _Q, _V, Expr


def ref_mul(a, b):
    if not a.terms or not b.terms:
        return E.ZERO
    acc = {}
    pending = []
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            mon, overflow = E._mul_monomials(m1, m2)
            c = c1 * c2
            if overflow:
                piece = Expr(((mon, c),))
                for base, e in overflow:
                    piece = E.mul(piece, E.intpow(base, e))
                pending.append(piece)
            else:
                nc = acc.get(mon, Fraction(0)) + c
                if nc:
                    acc[mon] = nc
                else:
                    acc.pop(mon, None)
    out = E._make(acc)
    for piece in pending:
        out = E.add(out, piece)
    return out


def ref_dfactor(factor, v):
    tag = factor[0]
    if tag == _V:
        return E.ONE if factor[1] == v else E.ZERO
    if tag == _P:
        return E.ZERO
    if tag == _F:
        kind, arg = factor[1], factor[2]
        du = ref_differentiate(arg, v)
        if du.is_zero:
            return E.ZERO
        if kind == E.LOG:
            return ref_mul(du, E.inverse(arg))
        if kind == E.EXP:
            return ref_mul(du, E.fn(E.EXP, arg))
        if kind == E.ATAN:
            return ref_mul(du, E.inverse(E.add(E.ONE, ref_mul(arg, arg))))
        root = Expr((((((_F, E.SQRT, arg), -1),), Fraction(1, 2)),))
        return ref_mul(du, root)
    return ref_differentiate(factor[1], v)


def ref_differentiate(e, v):
    out = E.ZERO
    for mon, c in e.terms:
        for factor, ex in mon:
            df = ref_dfactor(factor, v)
            if df.is_zero:
                continue
            rest = {f: k for f, k in mon}
            if ex == 1:
                del rest[factor]
            else:
                rest[factor] = ex - 1
            overflow = [(f[1], rest.pop(f)) for f in list(rest) if f[0] == _Q and rest[f] > 0]
            mon2 = tuple(sorted(rest.items(), key=lambda fe: E._fkey(fe[0])))
            piece = ref_mul(Expr(((mon2, c * ex),)), df)
            for base, k in overflow:
                piece = ref_mul(piece, E.intpow(base, k))
            out = E.add(out, piece)
    return out


def ref_substitute_vars(e, mapping):
    out = E.ZERO
    for mon, c in e.terms:
        piece = E.const(c)
        for factor, ex in mon:
            tag = factor[0]
            if tag == _V and factor[1] in mapping:
                rep = mapping[factor[1]]
            elif tag == _F:
                rep = E.fn(factor[1], ref_substitute_vars(factor[2], mapping))
            elif tag == _Q:
                rep = E.intpow(ref_substitute_vars(factor[1], mapping), ex)
                piece = ref_mul(piece, rep)
                continue
            else:
                piece = ref_mul(piece, Expr(((((factor, ex),), Fraction(1)),)))
                continue
            piece = ref_mul(piece, E.intpow(rep, ex))
        out = E.add(out, piece)
    return out


def ref_substitute_params(e, mapping):
    out = E.ZERO
    for mon, c in e.terms:
        piece = E.const(c)
        for factor, ex in mon:
            tag = factor[0]
            if tag == _P and factor[1] in mapping:
                rep = E._coerce(mapping[factor[1]])
            elif tag == _F:
                rep = E.fn(factor[1], ref_substitute_params(factor[2], mapping))
            elif tag == _Q:
                rep = ref_substitute_params(factor[1], mapping)
            else:
                piece = ref_mul(piece, Expr(((((factor, ex),), Fraction(1)),)))
                continue
            piece = ref_mul(piece, E.intpow(rep, ex))
        out = E.add(out, piece)
    return out


def ref_apply_to_function(X, f):
    out = E.ZERO
    for i, xi in enumerate(X.coeffs):
        if xi.is_zero:
            continue
        df = ref_differentiate(f, i)
        if not df.is_zero:
            out = E.add(out, ref_mul(xi, df))
    return out


def _catalog_cases():
    """(entry, generator coefficients, attached invariants, their 3-point
    pullbacks, parameter samples) per catalog entry."""
    out = []
    for entry in CAT.builtin_entries():
        L = entry.presentation()
        n = L.dim
        coeffs = [c for g in L.generators for c in g.coeffs]
        invariants = [J.body for J in entry.parsed_invariants()]
        pullbacks = [b for J in entry.parsed_invariants()
                     for b in I.pair_invariant_pullbacks(J, n, 3)]
        samples = [pv for pv in entry.param_value_maps() if pv]
        out.append((entry, coeffs, invariants, pullbacks, samples))
    return out


CASES = _catalog_cases()
IDS = [case[0].id for case in CASES]


@pytest.fixture(autouse=True)
def _cold_derivatives():
    E.differentiate.cache_clear()


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_differentiate_and_substitute_params(case):
    entry, coeffs, invariants, pullbacks, samples = case
    n = len(entry.vars)
    for e, nvars in ([(c, n) for c in coeffs] + [(b, 2 * n) for b in invariants]
                     + [(b, 3 * n) for b in pullbacks]):
        for v in range(nvars):
            assert E.differentiate(e, v).terms == ref_differentiate(e, v).terms
        for pv in samples:
            assert E.substitute_params(e, pv).terms == ref_substitute_params(e, pv).terms


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_substitute_vars(case):
    entry, coeffs, invariants, pullbacks, _ = case
    n = len(entry.vars)
    for block in range(3):
        shift = {j: E.var(block * n + j) for j in range(n)}
        for c in coeffs:
            assert E.substitute_vars(c, shift).terms == ref_substitute_vars(c, shift).terms
    for body in invariants:
        for lam, mu in ((0, 1), (0, 2), (1, 2)):
            mapping = {i: E.var(lam * n + i) for i in range(n)}
            mapping.update({n + i: E.var(mu * n + i) for i in range(n)})
            assert E.substitute_vars(body, mapping).terms == ref_substitute_vars(body, mapping).terms
    for body in pullbacks:
        # a shift off the origin expands every power
        mapping = {i: E.add(E.var(i), E.const(Fraction(i + 1, 3))) for i in range(3 * n)}
        assert E.substitute_vars(body, mapping).terms == ref_substitute_vars(body, mapping).terms


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_apply_to_function_with_point_prolonged_generators(case):
    entry, _, invariants, _, samples = case
    for g in entry.presentation().generators:
        X = F.prolong_points(g, 2)
        for body in invariants:
            res = F.apply_to_function(X, body)
            assert res.terms == ref_apply_to_function(X, body).terms
            for pv in samples:
                assert E.substitute_params(res, pv).terms == ref_substitute_params(res, pv).terms


def test_mul_with_overflowing_blocks():
    x, y = E.var(0), E.var(1)
    block = E.inverse(E.add(x, E.mul(y, y)))           # (x + y^2)^-1
    a = E.add_many([E.mul(x, block), y, E.mul(E.const(3), E.intpow(block, 2))])
    b = E.add_many([E.add(x, E.mul(y, y)), E.neg(x), E.mul(E.const(Fraction(1, 2)), block)])
    assert E.mul(a, b).terms == ref_mul(a, b).terms
    assert E.mul(E.intpow(E.add(x, E.mul(y, y)), 2), a).terms == ref_mul(
        E.intpow(E.add(x, E.mul(y, y)), 2), a).terms


def test_add_many_cancels_and_drops_zeros():
    x, y = E.var(0), E.var(1)
    assert E.add_many([]) == E.ZERO
    assert E.add_many([x, E.neg(x)]).terms == ()
    total = E.add_many([x, y, E.neg(x), E.const(2), E.const(-2), y])
    assert total.terms == E.mul(E.const(2), y).terms

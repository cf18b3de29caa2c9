"""Sums of many expressions are canonicalised once. Canonical forms are
unique, so every result must carry exactly the terms tuple that summing one
`add` at a time gives. The references below are the term-by-term versions."""

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from liefields import catalog as CAT, expr as E, fields as F
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
            mon2 = tuple(sorted(rest.items()))
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


def ref_pair_invariant_pullbacks(J, n, s):
    """All s(s-1)/2 copies of a two-point invariant on the s-point space, in
    the row order of the essentialness gradient: pairs lam < mu."""
    if J.s != 2:
        raise ValueError("pullbacks need a two-point invariant")
    out = []
    for lam in range(s):
        for mu in range(lam + 1, s):
            mapping = {i: E.var(lam * n + i) for i in range(n)}
            mapping.update({n + i: E.var(mu * n + i) for i in range(n)})
            out.append(E.substitute_vars(J.body, mapping))
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
                     for b in ref_pair_invariant_pullbacks(J, n, 3)]
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
                want = E.substitute_params(res, pv)
                assert want.terms == ref_substitute_params(res, pv).terms
                # parameters put in before prolonging give the same residual
                first = F.apply_to_function(F.prolong_points(F.substitute_params(g, pv), 2),
                                            E.substitute_params(body, pv))
                assert first.terms == want.terms


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


def _replacements():
    """Replacements of one variable: renames (block shifts, swaps and
    collapsing maps such as x1 -> x0), constant points, c*x_j, parameter
    monomials, and replacements carrying a sum, an inverted block or a
    function node."""
    j = st.integers(min_value=0, max_value=7)
    q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    k = st.integers(min_value=-2, max_value=2)
    return st.one_of(
        j.map(E.var),
        q.map(E.const),
        st.tuples(q, j).map(lambda a: E.mul(E.const(a[0]), E.var(a[1]))),
        st.tuples(q.filter(bool), k, j, k).map(lambda a: E.mul(
            E.mul(E.const(a[0]), E.intpow(E.param(0), a[1])), E.intpow(E.var(a[2]), a[3]))),
        st.tuples(j, q).map(lambda a: E.add(E.var(a[0]), E.const(a[1]))),
        st.tuples(j, q).map(lambda a: E.mul(E.var(a[0]), E.inverse(
            E.add(E.var(a[0]), E.const(a[1] + 5))))),
        st.tuples(j, st.sampled_from([E.EXP, E.ATAN])).map(
            lambda a: E.mul(E.var(a[0]), E.fn(a[1], E.var(a[0])))),
    )


def _pool():
    x, y, z = E.var(0), E.var(1), E.var(2)
    c = E.param(0)
    hand = [
        E.add_many([E.mul(x, E.intpow(y, -2)), E.mul(c, z), E.const(3)]),
        E.add(E.inverse(E.add(x, E.mul(y, y))), E.mul(E.intpow(x, 3), E.fn(E.LOG, E.add(y, E.ONE)))),
        E.mul(E.fn(E.SQRT, E.add(E.mul(x, x), E.const(1))), E.inverse(E.add(z, c))),
    ]
    exprs = [e for _, coeffs, invariants, _, _ in CASES for e in coeffs + invariants if e]
    return hand + exprs


POOL = _pool()


def _substituted(f, e, mapping):
    try:
        return f(e, mapping).terms
    except ZeroDivisionError:
        return ZeroDivisionError


@given(st.sampled_from(POOL),
       st.dictionaries(st.integers(min_value=0, max_value=5), _replacements(), max_size=6))
@settings(max_examples=300, deadline=None)
def test_substitute_vars_matches_reference_on_random_maps(e, mapping):
    assert _substituted(E.substitute_vars, e, mapping) == _substituted(
        ref_substitute_vars, e, mapping)


def test_block_shift_makes_no_products(monkeypatch):
    """A renaming only relabels exponents: no call of mul."""
    calls = []
    mul = E.mul

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    entry = CAT.entry_by_id("ex94-21")
    n = len(entry.vars)
    bodies = [c for g in entry.presentation().generators for c in g.coeffs]
    bodies += [J.body for J in entry.parsed_invariants()]
    shift = {j: E.var(2 * n + j) for j in range(2 * n)}
    want = [ref_substitute_vars(b, shift) for b in bodies]
    monkeypatch.setattr(E, "mul", counting)
    got = [E.substitute_vars(b, shift) for b in bodies]
    monkeypatch.undo()
    assert [g.terms for g in got] == [w.terms for w in want]
    assert calls == []

"""Sampling work done once: candidate points drawn only when tried, the generic
results cached per presentation, seed and parameter values, and point
configurations with distinct values on every axis."""

import dataclasses
import pathlib
import random
from fractions import Fraction

import pytest

from liefields import algebra as A, catalog as CAT, cli, exactla, expr as E
from liefields import fields as F

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "data" / "algebras"
CACHED = (A._generic_rank, A._generic_point, A._isotropy, A._joint_invariant_count)


def clear_caches():
    for fn in CACHED:
        fn.cache_clear()


def ref_find_generic_point(L, seed, param_values):
    """find_generic_point drawing all 60 candidate points up front; also
    returns the index of the accepted candidate (0 is the origin)."""
    target = F.generic_rank(list(L.generators), seed=seed, param_values=param_values)
    rng = random.Random(seed ^ 0x5EED)
    pidx = F.field_params(list(L.generators))
    candidates = [[0] * L.dim] + [F.sample_point(L.dim, rng) for _ in range(60)]
    for k, coords in enumerate(candidates):
        params = dict(param_values or {})
        for j in sorted(pidx - params.keys()):
            params[j] = F.random_nonspecial_rational(rng)
        try:
            matrix = [E.evaluate_exact(g.coeffs, coords, params) for g in L.generators]
        except E.DomainError:
            continue
        if exactla.rank(matrix) == target:
            return tuple(coords), params, k
    raise F.FieldError("no generic point found")


def counting_draws(monkeypatch):
    """Count the coordinates drawn."""
    count = [0]
    real = F.random_coordinate

    def draw(rng):
        count[0] += 1
        return real(rng)

    monkeypatch.setattr(F, "random_coordinate", draw)
    return count


FIXED_DIRECTION = "false (failing stage: line-element: a real direction stays fixed)"
# `liefields mobility FILE` with every parameter drawn; None: exit 1, not transitive
MOBILITY_WITHOUT_PARAM = {
    "ex87-51": FIXED_DIRECTION, "ex89-58": FIXED_DIRECTION, "ex90-60a": FIXED_DIRECTION,
    "ex90-62a": "true", "ex94-23": FIXED_DIRECTION, "ex94-23r": FIXED_DIRECTION,
    "ex95-30-5": None, "ex95-30-6": None, "thm37-6": FIXED_DIRECTION,
    "thm37-8": FIXED_DIRECTION, "thm37-9": FIXED_DIRECTION,
}

PINNED = [(entry.presentation(), pv) for entry in sorted(CAT.builtin_entries(), key=lambda e: e.id)
          for pv in entry.param_value_maps()]


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pinned_parameters_draw_only_the_candidates_tried(self, seed, monkeypatch):
        tried_beyond_origin = 0
        for L, pv in PINNED:
            want_coords, want_params, k = ref_find_generic_point(L, seed, pv or None)
            A.is_transitive(L, seed=seed, param_values=pv or None)  # the rank, drawn apart
            with monkeypatch.context() as m:
                count = counting_draws(m)
                coords, params = A.find_generic_point(L, seed=seed, param_values=pv or None)
            assert (coords, params) == (want_coords, want_params), (L.name, pv)
            assert count[0] == L.dim * k, (L.name, pv)
            tried_beyond_origin += k > 0
        # the origin is refused somewhere, so a drawn candidate is tried too
        assert tried_beyond_origin

    def test_a_pinned_parameter_costs_no_draw(self, monkeypatch):
        def refuse(rng):
            raise AssertionError("a pinned parameter was drawn")

        monkeypatch.setattr(F, "random_nonspecial_rational", refuse)
        pinned = [(L, pv) for L, pv in PINNED if pv]
        assert len(pinned) == 43
        for L, pv in pinned:
            F.generic_rank(list(L.generators), param_values=pv)
            F.generic_rank(list(L.generators), param_values=pv, copies=3)
            A.find_generic_point(L, param_values=pv)

    @pytest.mark.parametrize("entry_id, seed, coords, params", [
        ("thm37-8", 0, (0, 0, 0), {0: Fraction(-17, 5)}),
        ("thm37-8", 5, (0, 0, 0), {0: Fraction(-27, 40)}),
        ("ex90-62a", 1, (0, 0), {0: Fraction(-29, 61)}),
        ("ex89-58", 1, (0, 0, 0), {0: Fraction(3, 40), 1: Fraction(-6, 5)}),
    ])
    def test_a_free_parameter_is_drawn_after_all_60_points(self, entry_id, seed, coords, params):
        L = CAT.entry_by_id(entry_id).presentation()
        assert A.find_generic_point(L, seed=seed) == (coords, params)
        assert ref_find_generic_point(L, seed, None)[:2] == (coords, params)

    @pytest.mark.parametrize("fixture", sorted(MOBILITY_WITHOUT_PARAM))
    def test_mobility_without_param_of_a_parametrised_fixture(self, fixture, capsys):
        path = FIXTURES / f"{fixture}.alg"
        want = MOBILITY_WITHOUT_PARAM[fixture]
        code = cli.run(["mobility", str(path)])
        captured = capsys.readouterr()
        if want is None:
            assert (code, captured.out) == (1, "")
            assert captured.err == f"error: {path}: the algebra is not transitive at the base point\n"
        else:
            assert (code, captured.out) == (0, f"free mobility: {want}\n")

    def test_every_parametrised_fixture_is_pinned(self):
        names = {p.stem for p in FIXTURES.glob("*.alg") if "\nparams:" in p.read_text()}
        assert names == set(MOBILITY_WITHOUT_PARAM)


class TestCaches:
    def test_catalog_does_not_depend_on_what_was_cached(self):
        ids = sorted(e.id for e in CAT.builtin_entries())
        whole = CAT.export_report(CAT.verify_catalog(seed=0), "json")
        reverse = {eid: CAT.verify_catalog(seed=0, entry_id=eid)[0] for eid in reversed(ids)}
        assert CAT.export_report([reverse[eid] for eid in ids], "json") == whole
        cold = []
        for eid in ids:
            clear_caches()
            cold.extend(CAT.verify_catalog(seed=0, entry_id=eid))
        assert CAT.export_report(cold, "json") == whole

    def test_a_caller_cannot_change_a_cached_result(self):
        L = CAT.entry_by_id("thm37-8").presentation()
        pv = {0: Fraction(1)}
        coords, params = A.find_generic_point(L, param_values=pv)
        assert type(coords) is tuple
        params[0] = Fraction(5)
        params[1] = Fraction(2)
        assert A.find_generic_point(L, param_values=pv) == (coords, {0: Fraction(1)})

        report = A.isotropy_at_point(L, F.Point(coords), pv)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.linear_isotropy = ()
        assert all(type(getattr(report, f.name)) is tuple for f in dataclasses.fields(report))
        assert all(type(row) is tuple for J in report.linear_isotropy for row in J)
        assert all(type(row) is tuple for row in report.combinations)
        pv[0] = Fraction(2)  # a new sample, not an edit of the cached one
        assert A.isotropy_at_point(L, F.Point(coords), {0: Fraction(1)}) is report

    def test_a_float_parameter_never_shares_an_entry_with_a_fraction(self):
        L = CAT.entry_by_id("thm37-8").presentation()
        assert A.is_transitive(L, param_values={0: Fraction(1)})
        assert A.joint_invariant_count(L, 2, param_values={0: 1}) == 1
        with pytest.raises(TypeError):
            A.is_transitive(L, param_values={0: 1.0})
        with pytest.raises(TypeError):
            A.joint_invariant_count(L, 2, param_values={0: 1.0})

    def test_none_and_empty_parameter_values_agree(self):
        L = CAT.entry_by_id("thm37-8").presentation()
        assert A.find_generic_point(L, seed=3) == A.find_generic_point(L, seed=3, param_values={})


class TestConfigurations:
    def test_no_two_points_share_a_value_on_an_axis(self):
        coords = F.sample_configuration(3, 300, random.Random(0))
        assert len(coords) == 900
        for axis in range(3):
            assert len(set(coords[axis::3])) == 300

    def test_without_repeats_the_draws_are_those_of_sample_point(self):
        for seed in range(50):
            plain = F.sample_point(3 * 4, random.Random(seed))
            if all(len(set(plain[axis::3])) == 4 for axis in range(3)):
                assert F.sample_configuration(3, 4, random.Random(seed)) == plain

    def test_a_repeat_is_raised_by_1_until_it_is_new(self):
        def ref_configuration(dim, copies, rng):
            seen = [set() for _ in range(dim)]
            coords = []
            for _ in range(copies):
                for axis in seen:
                    q = F.random_coordinate(rng)
                    while q in axis:
                        q += 1
                    axis.add(q)
                    coords.append(q)
            return coords

        for seed in range(4):
            assert F.sample_configuration(2, 600, random.Random(seed)) == \
                ref_configuration(2, 600, random.Random(seed))

    def test_more_points_than_values_in_the_span_still_ends(self):
        # the span -97..97 holds 195 integers
        coords = F.sample_configuration(1, 11_700, random.Random(0))
        assert len(set(coords)) == 11_700

    def test_many_points_get_their_count_in_bounded_work(self, capsys, monkeypatch):
        # 3*140 - 6 invariants; nearly every configuration of 140 random points
        # repeats some value on some axis, so repeats must be mended, not rejected.
        # Budget: the 8 configurations of one rank, one draw per coordinate each
        count = counting_draws(monkeypatch)
        code = cli.run(["invariants", str(FIXTURES / "thm37-1.alg"), "--points", "140"])
        assert (code, capsys.readouterr().out) == (0, "414\n")
        assert count[0] <= 8 * 140 * 3

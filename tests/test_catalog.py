import dataclasses
import json
import math
from fractions import Fraction

import pytest

from liefields import algebra as A, algfile, catalog as CAT, flows as FL, invariants as I
from liefields import fields as F


@pytest.fixture(scope="module")
def entries():
    return CAT.builtin_entries()


class TestBuiltinEntries:
    def test_at_least_24_entries(self, entries):
        assert len(entries) >= 24

    def test_all_presentations_parse_and_are_independent(self, entries):
        for entry in entries:
            L = entry.presentation()
            L.validate()

    def test_table_group_one_has_six_generators(self, entries):
        entry = CAT.entry_by_id("thm37-1")
        assert len(entry.generators) == 6

    def test_monodromy_flags(self):
        assert CAT.entry_by_id("ex94-24").expected.monodromy is True
        assert CAT.entry_by_id("ex94-24r").expected.monodromy is False

    def test_eleven_table_groups_with_pair_invariants(self, entries):
        table = [e for e in entries if e.id.startswith("thm37-")]
        assert len(table) == 11
        for e in table:
            assert e.expected.pair_invariant_count == 1
            assert e.expected.essential_3pt is False
            assert e.invariants

    def test_published_invariants_attached_where_expected(self):
        for eid in ("thm37-1", "thm37-3", "thm37-8", "thm37-9", "thm37-10",
                    "thm37-11", "thm37-6", "ex89-58", "ex90-60a", "ex90-62a"):
            assert CAT.entry_by_id(eid).invariants, eid

    def test_ids_unique_and_sorted_export(self, entries):
        ids = [e.id for e in entries]
        assert len(set(ids)) == len(ids)


class TestPublishedInvariantsProven:
    def test_every_published_invariant_proves_symbolically(self, entries):
        for entry in entries:
            if not entry.invariants:
                continue
            L = entry.presentation()
            for J in entry.parsed_invariants():
                for pv in entry.param_value_maps():
                    out = I.verify_joint_invariant(L, J, mode="symbolic",
                                                   param_values=pv or None)
                    assert out.verdict is I.Verdict.PROVEN, (entry.id, pv)


class TestVerifyEntry:
    def test_thm37_1_all_checks_pass(self):
        report = CAT.verify_entry(CAT.entry_by_id("thm37-1"), seed=1)
        assert report.passed, CAT.export_report([report])

    def test_ex94_22_profile(self):
        report = CAT.verify_entry(CAT.entry_by_id("ex94-22"), seed=1)
        assert report.passed, CAT.export_report([report])
        names = {c.name: c for c in report.checks}
        assert names["pair_invariant_count"].observed == 0
        assert names["infinitesimal_invariant"].observed is True
        assert names["published_infinitesimal"].observed is True

    def test_ex87_28_excluded_by_criterion(self):
        report = CAT.verify_entry(CAT.entry_by_id("ex87-28"), seed=2)
        assert report.passed, CAT.export_report([report])
        names = {c.name: c for c in report.checks}
        assert names["two_point_criterion"].observed is False

    def test_ex87_51_boundary_behaviour(self):
        report = CAT.verify_entry(CAT.entry_by_id("ex87-51"), seed=2)
        assert report.passed, CAT.export_report([report])
        names = {c.name: c for c in report.checks}
        assert names["two_point_criterion@c=0"].observed is True
        generic = [c for n, c in names.items()
                   if n.startswith("two_point_criterion@") and n != "two_point_criterion@c=0"]
        assert generic and all(c.observed is False for c in generic)

    def test_failures_recorded_not_raised(self):
        entry = CAT.entry_by_id("thm37-1")
        broken = CAT.CatalogEntry(
            id=entry.id, source=entry.source, vars=entry.vars, params=entry.params,
            generators=entry.generators,
            expected=CAT.Expected(pair_invariant_count=7),
        )
        report = CAT.verify_entry(broken, seed=0,
                                  checks=("closure", "pair_invariant_count"))
        assert not report.passed
        assert any(c.status == "fail" for c in report.checks)


class TestCheckRegistry:
    def test_all_checks_come_from_the_registry(self):
        assert CAT._ALL_CHECKS == tuple(CAT.CHECKS)

    @pytest.mark.parametrize("key", ["two_point_critrion", "closure", "structure"])
    def test_boundary_key_must_be_a_sampled_check(self, key):
        with pytest.raises(ValueError, match=repr(key)):
            CAT.CatalogEntry(
                id="bad", source="", vars=("x", "y"), params=("c",), generators=("p",),
                boundary=(CAT.BoundaryCase({"c": Fraction(0)}, {key: True}),))

    def test_boundary_parameter_must_be_an_entry_parameter(self):
        with pytest.raises(ValueError, match="'d'"):
            CAT.CatalogEntry(
                id="bad", source="", vars=("x", "y"), params=("c",), generators=("p",),
                boundary=(CAT.BoundaryCase({"d": Fraction(0)}, {"transitive": True}),))

    @pytest.mark.parametrize("samples", [((Fraction(1), Fraction(2)),), ((),),
                                         ((Fraction(1),), (Fraction(1), Fraction(2)))])
    def test_param_samples_must_match_params(self, samples):
        with pytest.raises(ValueError, match="parameter sample"):
            CAT.CatalogEntry(id="bad", source="", vars=("x", "y"), params=("c",),
                             generators=("p",), param_samples=samples)

    def test_unknown_check_name_raises(self):
        entry = CAT.entry_by_id("thm37-1")
        with pytest.raises(ValueError, match="'closur'"):
            CAT.verify_entry(entry, checks=("closur",))
        with pytest.raises(ValueError, match="'closur'"):
            CAT.verify_catalog(checks=("closure", "closur"))

    def test_unknown_entry_raises_catalog_error(self):
        with pytest.raises(CAT.CatalogError, match="no catalog entry 'nope'"):
            CAT.verify_catalog(entry_id="nope")

    def test_boundary_cases_run_every_registered_check(self):
        base = CAT.entry_by_id("ex87-51")
        case = CAT.BoundaryCase({"c": Fraction(0)}, {"essential_3pt": True,
                                                     "free_mobility": True})
        entry = dataclasses.replace(base, param_samples=(), boundary=(case,))
        report = CAT.verify_entry(entry, seed=0)
        names = [c.name for c in report.checks]
        assert names == ["closure", "structure", "essential_3pt@c=0", "free_mobility@c=0"]
        essential = report.checks[2]
        assert essential.observed == "error: a pair-invariant formula is required when two points have one"
        assert essential.status == "fail" and essential.diagnostics == ""
        mobility = report.checks[3]
        assert mobility.observed is False and mobility.diagnostics

    def test_boundary_cases_follow_the_check_selection(self):
        report = CAT.verify_entry(CAT.entry_by_id("ex87-51"), seed=0,
                                  checks=("two_point_criterion",))
        assert [c.name for c in report.checks][-1] == "two_point_criterion@c=0"
        assert all(c.name.startswith("two_point_criterion@") for c in report.checks)

    def test_not_closed_entry(self):
        entry = CAT.CatalogEntry(id="open", source="", vars=("x", "y"), params=(),
                                 generators=("p", "x*q"), expected=CAT.Expected(transitive=None))
        report = CAT.verify_entry(entry, seed=0)
        closure, structure = report.checks
        assert (closure.observed, closure.status, closure.diagnostics) == (
            False, "fail", "residual q in [X1, X2]")
        assert (structure.observed, structure.status) == (
            "error: [X1, X2] leaves the constant span", "fail")

    def test_monodromy_report_keeps_expected_true(self):
        report = CAT.verify_entry(CAT.entry_by_id("ex94-24r"), seed=0, checks=("monodromy",))
        [check] = report.checks
        assert (check.name, check.expected, check.observed, check.status) == (
            "monodromy", True, True, "pass")
        assert check.diagnostics == "exact: affine, A nilpotent"


def _monodromy_entry(vars, generator, period, fix_point=(), expected=None):
    """An entry whose one claim is the monodromy of its first generator or,
    with a fix_point, of the combination vanishing there and at the origin;
    period None claims that it never returns."""
    return CAT.CatalogEntry(
        id="probe", source="", vars=vars, params=(), generators=generator,
        expected=expected or CAT.Expected(transitive=False, monodromy=period is not None),
        monodromy=CAT.MonodromySpec(fix_point=fix_point,
                                    normalize_generator=None if fix_point else 0,
                                    period=period))


def _monodromy_check(entry):
    [check] = CAT.verify_entry(entry, seed=0, checks=("monodromy",)).checks
    return check


V4 = ("x1", "x2", "x3", "x4")
NEVER_RETURNS = ("ex94-24r", "ex95-30-1", "ex95-30-2", "ex95-30-3", "ex95-30-4",
                 "ex95-30-5", "ex95-30-6")


class TestExactMonodromy:
    def test_ad_x_criterion_decides_the_curious_group(self):
        check = _monodromy_check(CAT.entry_by_id("ex94-24"))
        assert (check.observed, check.status) == (True, "pass")
        assert check.diagnostics == ("exact: ad X semisimple, charpoly λ²(λ²+1)², "
                                     "returns at 6.283185307 (8 starts within 1e-6)")

    def test_ad_x_criterion_decides_never_for_a_non_affine_field(self):
        # sl2 on the line: X = x*(1 - x)*p fixes 0 and 1, and its trajectories tend to them
        entry = _monodromy_entry(("x",), ("p", "x*p", "x^2*p"), None, fix_point=(1,),
                                 expected=CAT.Expected(monodromy=False))
        check = _monodromy_check(entry)
        assert (check.observed, check.status) == (True, "pass")
        assert check.diagnostics == "exact: ad X has real eigenvalues -1, 1"

    def test_affine_criterion_decides_the_rotation_form(self):
        check = _monodromy_check(CAT.entry_by_id("ex95-30-7"))
        assert check.diagnostics == ("exact: affine, A semisimple, charpoly λ(λ²+1), "
                                     "returns at 6.283185307 (8 starts within 1e-6)")

    def test_two_commensurable_frequencies_return_at_two_pi(self):
        # omega = 1 and 2: the common period is 2*pi
        entry = _monodromy_entry(V4, ("-x2*d1 + x1*d2 - 2*x4*d3 + 2*x3*d4",), 2 * math.pi)
        check = _monodromy_check(entry)
        assert (check.observed, check.status) == (True, "pass")
        assert check.diagnostics == ("exact: affine, A semisimple, charpoly λ(λ⁴+5λ²+4), "
                                     "returns at 6.283185307 (8 starts within 1e-6)")

    def test_incommensurable_frequencies_never_return(self, monkeypatch):
        calls = _count_flows(monkeypatch)
        # the linear part has characteristic polynomial (λ²+1)(λ²+2)
        entry = _monodromy_entry(V4, ("-x2*d1 + x1*d2 - 2*x4*d3 + x3*d4",), None)
        check = _monodromy_check(entry)
        assert (check.observed, check.status) == (True, "pass")
        assert check.diagnostics == ("exact: affine, A has incommensurable frequencies, "
                                     "charpoly λ(λ⁴+3λ²+2)")
        assert calls == []

    def test_numeric_fallback_is_labelled(self):
        # the rotation in the coordinates (x, y + x^2): non-affine, and its
        # one-dimensional algebra has ad X = 0, so neither criterion applies
        entry = _monodromy_entry(("x", "y"), ("-(y + x^2)*p + (x + 2*x*y + 2*x^3)*q",),
                                 2 * math.pi)
        check = _monodromy_check(entry)
        assert (check.observed, check.status) == (True, "pass")
        assert check.diagnostics == "numeric: returns at 6.283185307"

    def test_periodic_ad_x_needs_a_zero_where_the_algebra_is_transitive(self):
        # X = (1 + x^2)*p: ad X rotates sl2 with period pi, but X vanishes
        # nowhere, and in this chart its flow runs off to infinity
        entry = _monodromy_entry(("x",), ("p + x^2*p", "x*p", "p - x^2*p"), None,
                                 expected=CAT.Expected(monodromy=False))
        check = _monodromy_check(entry)
        assert (check.observed, check.status) == (True, "pass")
        assert check.diagnostics == "numeric: no start moves inside the domain"

    def test_never_claims_integrate_nothing(self, monkeypatch):
        calls = _count_flows(monkeypatch)
        checks = [c for eid in NEVER_RETURNS
                  for c in CAT.verify_entry(CAT.entry_by_id(eid), seed=0,
                                            checks=("monodromy",)).checks]
        assert len(checks) == 13
        assert all(c.status == "pass" and c.diagnostics.startswith("exact: ") for c in checks)
        assert calls == []

    def test_cross_check_failure_fails_the_claim(self, monkeypatch):
        monkeypatch.setattr(FL, "return_misses", lambda *args, **kwargs: [1e-3] * 8)
        check = _monodromy_check(CAT.entry_by_id("ex95-30-7"))
        assert (check.observed, check.status) == (False, "fail")
        assert check.diagnostics.endswith("period 6.283185307, but a start misses by 1.000e-03")


def _count_flows(monkeypatch) -> list:
    """Record every numeric_flow call from here on."""
    calls, flow = [], FL.numeric_flow
    monkeypatch.setattr(FL, "numeric_flow", lambda *a, **k: calls.append(a) or flow(*a, **k))
    return calls


class TestReducedGroupTable:
    @pytest.mark.parametrize("family,reduced", [
        ("ex94-21", "ex94-21r"),
        ("ex94-22", "ex94-22r"),
        ("ex94-23", "ex94-23r"),
        ("ex94-24", "ex94-24r"),
    ])
    def test_reduction_reproduces_catalog_entry(self, family, reduced):
        fam = CAT.entry_by_id(family)
        red = CAT.entry_by_id(reduced)
        L = fam.presentation()
        pv = fam.param_value_maps()[0]
        out = A.reduced_algebra(L, F.Point((0, 0, 0)), param_values=pv or None)
        expected = red.presentation()
        expected_fields = list(expected.generators)
        if pv:
            from liefields import expr as E
            expected_fields = [
                F.VectorField(3, tuple(E.substitute_params(c, pv) for c in X.coeffs))
                for X in expected_fields
            ]
        assert F.span_equal(list(out.generators), expected_fields)


class TestReportExport:
    def test_empty_report(self):
        assert CAT.export_report([], format="json") == "[]"
        assert CAT.export_report([], format="text") == ""

    def test_single_pass_record(self):
        report = CAT.verify_entry(CAT.entry_by_id("thm37-1"), seed=0, checks=("closure",))
        doc = json.loads(CAT.export_report([report], format="json"))
        assert doc[0]["entry"] == "thm37-1"
        assert doc[0]["seed"] == 0
        assert doc[0]["checks"][0]["status"] == "pass"
        assert set(doc[0]["checks"][0]) == {"name", "expected", "observed",
                                            "status", "diagnostics"}

    def test_full_run_records_seeds(self):
        reports = CAT.verify_catalog(seed=5, checks=("closure",))
        doc = json.loads(CAT.export_report(reports, format="json"))
        assert len(doc) >= 24
        assert all(rec["seed"] == 5 for rec in doc)
        ids = [rec["entry"] for rec in doc]
        assert ids == sorted(ids)


class TestAlgebraFileRoundTrip:
    def test_catalog_round_trips_through_files(self, entries):
        for entry in entries:
            af = algfile.catalog_entry_file(entry)
            text = algfile.format_algebra_file(af)
            again = algfile.parse_algebra_file(text, name=entry.id)
            assert again.vars == af.vars
            assert again.params == af.params
            assert again.presentation().generators == entry.presentation().generators
            assert tuple(again.invariant_literals) == tuple(af.invariant_literals)
            assert again.expectations == af.expectations

    def test_parse_errors(self):
        with pytest.raises(algfile.AlgebraFileError):
            algfile.parse_algebra_file("field: p\n")  # missing vars
        with pytest.raises(algfile.AlgebraFileError):
            algfile.parse_algebra_file("vars: x y\nnonsense line\n")
        with pytest.raises(algfile.AlgebraFileError):
            algfile.parse_algebra_file("vars: x y\nwidget: p\n")

    def test_shipped_fixture_files_match_builtin_data(self, entries):
        import pathlib
        base = pathlib.Path(__file__).resolve().parent.parent / "data" / "algebras"
        for entry in entries:
            path = base / f"{entry.id}.alg"
            assert path.exists(), path
            af = algfile.load_algebra_file(str(path))
            assert af.presentation().generators == entry.presentation().generators, entry.id

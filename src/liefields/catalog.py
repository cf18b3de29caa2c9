"""Built-in library of the classified transformation groups with their
expected properties, plus the verification harness replaying each claim.

Entry ids follow the source labels: thm37-N for the eleven groups of the real
classification table, ex87-* / ex89-* / ex90-* for the construction-by-cases
families, ex94-* for the reduced-group counterexamples, ex95-30-* for the
seven one-parameter normal forms."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence

from . import algebra as A, exactla, expr as E, invariants as I, mobility as M
from . import fields as F

_STANDARD_SAMPLES = (Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(3))


class CatalogError(LookupError):
    """No built-in entry has the requested id."""


@dataclass(frozen=True)
class Expected:
    closed: bool = True
    transitive: Optional[bool] = True
    pair_invariant_count: Optional[int] = None
    two_point_criterion: Optional[bool] = None
    essential_3pt: Optional[bool] = None
    infinitesimal_invariant: Optional[bool] = None
    monodromy: Optional[bool] = None
    free_mobility: Optional[bool] = None

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(frozen=True)
class BoundaryCase:
    param_values: Mapping[str, Fraction]
    expected: Mapping[str, object]   # check name -> value claimed at these parameters

    def __post_init__(self):
        for name in self.expected:
            if name not in CHECKS or CHECKS[name].once:
                raise ValueError(f"boundary case expects {name!r}, which is not a check "
                                 "run at parameter values")


@dataclass(frozen=True)
class MonodromySpec:
    fix_point: tuple                # second fixed point (first is the origin)
    normalize_generator: Optional[int]  # scale the kernel combo so this slot is 1
    period: Optional[float]         # expected period, None = must not return
    t_max: float = 20.0


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    source: str                     # equation label of the generators
    vars: tuple
    params: tuple
    generators: tuple
    constraint: str = ""
    param_samples: tuple = ()       # tuples of Fractions aligned with params
    invariants: tuple = ()          # two-point invariant literals
    infinitesimal_invariant: Optional[str] = None
    expected: Expected = field(default_factory=Expected)
    boundary: tuple = ()
    monodromy: Optional[MonodromySpec] = None
    notes: str = ""

    def __post_init__(self):
        for sample in self.param_samples:
            if len(sample) != len(self.params):
                raise ValueError(f"{self.id}: parameter sample {sample} has {len(sample)} values "
                                 f"for {len(self.params)} parameters")
        for case in self.boundary:
            for name in case.param_values:
                if name not in self.params:
                    raise ValueError(f"{self.id}: boundary case names {name!r}, which is not "
                                     "a parameter")

    def presentation(self) -> A.LieAlgebraPresentation:
        return A.presentation(self.id, self.vars, self.generators, self.params)

    def param_value_maps(self) -> List[dict]:
        """Index-keyed parameter assignments to sweep."""
        if not self.params:
            return [{}]
        return [dict(enumerate(sample)) for sample in self.param_samples]

    def parsed_invariants(self) -> List[I.InvariantCandidate]:
        names = F.point_var_names(self.vars, 2)
        return [
            I.InvariantCandidate(2, E.parse_expression(text, names, self.params))
            for text in self.invariants
        ]


V3 = ("x", "y", "z")
V2 = ("x", "y")

_ROT = ("x*q - y*p", "y*r - z*q", "z*p - x*r")
_ROT_SPLIT = ("x*q - y*p", "y*r + z*q", "z*p + x*r")


def _thm37() -> List[CatalogEntry]:
    U = "(x*p + y*q + z*r)"
    entries = []
    entries.append(CatalogEntry(
        id="thm37-1", source="classification table, group 1 = family (22)",
        vars=V3, params=(), generators=("p", "q", "r") + _ROT,
        invariants=("(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2",),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True,
                          free_mobility=True),
    ))
    entries.append(CatalogEntry(
        id="thm37-2", source="classification table, group 2",
        vars=V3, params=(), generators=("p", "q", "r") + _ROT_SPLIT,
        invariants=("(x1-x2)^2 + (y1-y2)^2 - (z1-z2)^2",),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True),
    ))
    entries.append(CatalogEntry(
        id="thm37-3", source="classification table, group 3 = family (23)",
        vars=V3, params=(),
        generators=(f"p + x*{U}", f"q + y*{U}", f"r + z*{U}") + _ROT,
        invariants=(
            "((x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2 + (x1*y2 - y1*x2)^2"
            " + (y1*z2 - z1*y2)^2 + (z1*x2 - x1*z2)^2)"
            "*(1 + x1*x2 + y1*y2 + z1*z2)^-2",
        ),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True,
                          free_mobility=True),
    ))
    entries.append(CatalogEntry(
        id="thm37-4", source="classification table, group 4",
        vars=V3, params=(),
        generators=(f"p - x*{U}", f"q - y*{U}", f"r - z*{U}") + _ROT,
        invariants=(
            "((x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2 - (x1*y2 - y1*x2)^2"
            " - (y1*z2 - z1*y2)^2 - (z1*x2 - x1*z2)^2)"
            "*(1 - x1*x2 - y1*y2 - z1*z2)^-2",
        ),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True,
                          free_mobility=True),
    ))
    entries.append(CatalogEntry(
        id="thm37-5", source="classification table, group 5",
        vars=V3, params=(),
        generators=(f"p - x*{U}", f"q - y*{U}", f"r + z*{U}") + _ROT_SPLIT,
        invariants=(
            "((x1-x2)^2 + (y1-y2)^2 - (z1-z2)^2 - (x1*y2 - y1*x2)^2"
            " + (y1*z2 - z1*y2)^2 + (z1*x2 - x1*z2)^2)"
            "*(1 - x1*x2 - y1*y2 + z1*z2)^-2",
        ),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True),
    ))
    entries.append(CatalogEntry(
        id="thm37-6", source="classification table, group 6 = family (58) with b = 1",
        vars=V3, params=("c",), constraint="c >= 0",
        param_samples=((Fraction(0),), (Fraction(1, 2),), (Fraction(3),)),
        generators=("p", "q", "x*p + y*q + c*r", "y*p - x*q + r",
                    "(x^2 - y^2)*p + 2*x*y*q + 2*(c*x - y)*r",
                    "2*x*y*p + (y^2 - x^2)*q + 2*(x + c*y)*r"),
        invariants=(
            "z1 + z2 - c*log((x2-x1)^2 + (y2-y1)^2) + 2*atan((y2-y1)*(x2-x1)^-1)",
        ),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True),
    ))
    entries.append(CatalogEntry(
        id="thm37-7", source="classification table, group 7 = family (58) with a = 1, b = 0",
        vars=V3, params=(),
        generators=("p", "q", "x*p + y*q + r", "y*p - x*q",
                    "(x^2 - y^2)*p + 2*x*y*q + 2*x*r",
                    "2*x*y*p + (y^2 - x^2)*q + 2*y*r"),
        invariants=("z1 + z2 - log((x2-x1)^2 + (y2-y1)^2)",),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True),
    ))
    entries.append(CatalogEntry(
        id="thm37-8", source="classification table, group 8 = family (38)",
        vars=V3, params=("c",), constraint="c != 0 and c^2 <= 1",
        param_samples=((Fraction(-1),), (Fraction(-1, 3),), (Fraction(1, 2),), (Fraction(1),)),
        generators=("p", "q", "x*p + r", "y*q + c*r", "x^2*p + 2*x*r", "y^2*q + 2*c*y*r"),
        invariants=("z1 + z2 - log((x2-x1)^2) - c*log((y2-y1)^2)",),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True,
                          free_mobility=False),
        notes=("positive c admits the equivalent product spelling "
               "(x2-x1)*(y2-y1)^c*exp(-1/2*(z1+z2)); recorded identity, the "
               "logarithmic spelling above is the one verified"),
    ))
    entries.append(CatalogEntry(
        id="thm37-9", source="classification table, group 9 = family (32)",
        vars=V3, params=("c",),
        param_samples=tuple((c,) for c in _STANDARD_SAMPLES),
        generators=("p", "q", "x*q + r", "x*p + y*q + c*r",
                    "x^2*q + 2*x*r", "x^2*p + 2*x*y*q + 2*(y + c*x)*r"),
        invariants=("z1 + z2 - c*log((x2-x1)^2) - 2*(y2-y1)*(x2-x1)^-1",),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True,
                          free_mobility=False),
    ))
    entries.append(CatalogEntry(
        id="thm37-10", source="classification table, group 10 = family (45)",
        vars=V3, params=(),
        generators=("p - y*r", "q + x*r", "r", "x*q", "x*p - y*q", "y*p"),
        invariants=("z2 - z1 + x1*y2 - x2*y1",),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True,
                          free_mobility=False),
    ))
    entries.append(CatalogEntry(
        id="thm37-11", source="classification table, group 11 = family (52)",
        vars=V3, params=(),
        generators=("p", "q", "r", "x*q + y*r", "2*x*p + y*q",
                    "x^2*p + x*y*q + 1/2*y^2*r"),
        invariants=("z2 - z1 - 1/2*(y2-y1)^2*(x2-x1)^-1",),
        expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                          essential_3pt=False, infinitesimal_invariant=True,
                          free_mobility=False),
    ))
    return entries


def _imprimitive_cases() -> List[CatalogEntry]:
    return [
        CatalogEntry(
            id="ex87-28", source="rejected case (28), first reduced form",
            vars=V3, params=(),
            generators=("p", "q", "x*q + r", "y*q + z*r", "x*p - z*r", "y*p - z^2*r"),
            expected=Expected(pair_invariant_count=0, two_point_criterion=False,
                              essential_3pt=True, infinitesimal_invariant=False),
            notes="arises as the first-jet prolongation of the full planar linear family",
        ),
        CatalogEntry(
            id="ex87-30", source="rejected case (30), second reduced form",
            vars=V3, params=(),
            generators=("p", "q", "x*q + r", "x*p + y*q", "x*p - y*q - 2*z*r",
                        "x^2*p + x*y*q + (y - x*z)*r"),
            expected=Expected(pair_invariant_count=0, two_point_criterion=False,
                              essential_3pt=True, infinitesimal_invariant=False),
        ),
        CatalogEntry(
            id="ex87-51", source="family (51); the determinant vanishes only at c = 0",
            vars=V3, params=("c",),
            param_samples=tuple((c,) for c in _STANDARD_SAMPLES),
            generators=("p", "q", "r", "2*x*p + y*q", "x*q + y*r",
                        "x^2*p + x*y*q + (1/2*y^2 + c*x)*r"),
            expected=Expected(pair_invariant_count=0, two_point_criterion=False,
                              infinitesimal_invariant=False),
            boundary=(BoundaryCase(
                {"c": Fraction(0)},
                {"pair_invariant_count": 1, "two_point_criterion": True,
                 "infinitesimal_invariant": True},
            ),),
        ),
        CatalogEntry(
            id="ex89-58", source="real family (58) with parameters a, b",
            vars=V3, params=("a", "b"), constraint="(a, b) != (0, 0)",
            param_samples=((Fraction(-2), Fraction(-1, 3)), (Fraction(1, 2), Fraction(3)),
                           (Fraction(3), Fraction(1, 2))),
            generators=("p", "q", "x*p + y*q + a*r", "y*p - x*q + b*r",
                        "(x^2 - y^2)*p + 2*x*y*q + 2*(a*x - b*y)*r",
                        "2*x*y*p + (y^2 - x^2)*q + 2*(b*x + a*y)*r"),
            invariants=(
                "z1 + z2 - a*log((x2-x1)^2 + (y2-y1)^2) + 2*b*atan((y2-y1)*(x2-x1)^-1)",
            ),
            expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                              essential_3pt=False, infinitesimal_invariant=True),
            notes="maps onto group 8 with parameter (a-ib)/(a+ib) under the complex change of variables; recorded identity",
        ),
    ]


def _planar() -> List[CatalogEntry]:
    return [
        CatalogEntry(
            id="ex90-60a", source="planar table (60), first group",
            vars=V2, params=("c",), constraint="c != 0",
            param_samples=tuple((c,) for c in _STANDARD_SAMPLES),
            generators=("p", "q", "x*p + c*y*q"),
            invariants=("c*log((x2-x1)^2) - log((y2-y1)^2)",),
            expected=Expected(pair_invariant_count=1, essential_3pt=False,
                              infinitesimal_invariant=True),
        ),
        CatalogEntry(
            id="ex90-60b", source="planar table (60), second group; also the conic group of the seven-forms analysis",
            vars=V2, params=(),
            generators=("p + x^2*p + x*y*q", "q + x*y*p + y^2*q", "y*p - x*q"),
            invariants=(
                "((x2-x1)^2 + (y2-y1)^2 + (x1*y2 - x2*y1)^2)*(1 + x1*x2 + y1*y2)^-2",
            ),
            expected=Expected(pair_invariant_count=1, essential_3pt=False,
                              infinitesimal_invariant=True, free_mobility=True),
        ),
        CatalogEntry(
            id="ex90-60c", source="planar table (60), third group",
            vars=V2, params=(),
            generators=("x*q", "x*p - y*q", "y*p"),
            invariants=("x1*y2 - x2*y1",),
            expected=Expected(pair_invariant_count=1, essential_3pt=False,
                              infinitesimal_invariant=True),
        ),
        CatalogEntry(
            id="ex90-60d", source="planar table (60), fourth group",
            vars=V2, params=(),
            generators=("p", "q", "x*p + (x + y)*q"),
            invariants=("(x2-x1)*exp(-(y2-y1)*(x2-x1)^-1)",),
            expected=Expected(pair_invariant_count=1, essential_3pt=False,
                              infinitesimal_invariant=True),
        ),
        CatalogEntry(
            id="ex90-62a", source="planar real supplement (62), first group",
            vars=V2, params=("c",),
            param_samples=tuple((c,) for c in _STANDARD_SAMPLES + (Fraction(0),)),
            generators=("p", "q", "y*p - x*q + c*(x*p + y*q)"),
            invariants=(
                "((x2-x1)^2 + (y2-y1)^2)*exp(2*c*atan((y2-y1)*(x2-x1)^-1))",
            ),
            expected=Expected(pair_invariant_count=1, essential_3pt=False,
                              infinitesimal_invariant=True, free_mobility=True),
        ),
        CatalogEntry(
            id="ex90-62b", source="planar real supplement (62), second group",
            vars=V2, params=(),
            generators=("p - x^2*p - x*y*q", "q - x*y*p - y^2*q", "y*p - x*q"),
            invariants=(
                "((x2-x1)^2 + (y2-y1)^2 - (x1*y2 - x2*y1)^2)*(1 - x1*x2 - y1*y2)^-2",
            ),
            expected=Expected(pair_invariant_count=1, essential_3pt=False,
                              infinitesimal_invariant=True, free_mobility=True),
        ),
    ]


def _reduced_counterexamples() -> List[CatalogEntry]:
    return [
        CatalogEntry(
            id="ex94-21", source="counterexample family (21)",
            vars=V3, params=(),
            generators=("q", "x*q + r", "x^2*q + 2*x*r", "x^3*q + 3*x^2*r",
                        "x^4*q + 4*x^3*r", "p"),
            invariants=("x2 - x1",),
            expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                              essential_3pt=True, infinitesimal_invariant=True),
            notes=("three points carry 3 = 9 - 6 invariants while only two "
                   "pair pullbacks are independent, so an essential 3-point "
                   "invariant exists; only the pair claim holds for this family"),
        ),
        CatalogEntry(
            id="ex94-21r", source="reduced form (21')",
            vars=V3, params=(),
            generators=("q", "r", "x*r", "p"),
            invariants=("x2 - x1", "y2 - y1"),
            expected=Expected(pair_invariant_count=2, essential_3pt=True,
                              infinitesimal_invariant=True),
        ),
        CatalogEntry(
            id="ex94-22", source="counterexample family (22)",
            vars=V3, params=(),
            generators=("q", "x*q + r", "x^2*q + 2*x*r", "x^3*q + 3*x^2*r",
                        "p", "x*p - z*r"),
            infinitesimal_invariant="dy - z*dx",
            expected=Expected(pair_invariant_count=0, two_point_criterion=False,
                              essential_3pt=True, infinitesimal_invariant=True),
        ),
        CatalogEntry(
            id="ex94-22r", source="reduced form (22')",
            vars=V3, params=(),
            generators=("q", "r", "x*r", "p", "x*p - z*r"),
            invariants=("y2 - y1",),
            expected=Expected(pair_invariant_count=1, essential_3pt=True,
                              infinitesimal_invariant=True),
        ),
        CatalogEntry(
            id="ex94-23", source="family (23), same algebra as group 9",
            vars=V3, params=("c",),
            param_samples=tuple((c,) for c in _STANDARD_SAMPLES),
            generators=("q", "p", "x*q + r", "x^2*q + 2*x*r", "x*p + y*q + c*r",
                        "x^2*p + 2*x*y*q + 2*(c*x + y)*r"),
            invariants=("z1 + z2 - c*log((x2-x1)^2) - 2*(y2-y1)*(x2-x1)^-1",),
            expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                              essential_3pt=False, infinitesimal_invariant=True),
        ),
        CatalogEntry(
            id="ex94-23r", source="reduced form (23')",
            vars=V3, params=("c",),
            param_samples=tuple((c,) for c in _STANDARD_SAMPLES),
            generators=("q", "p", "r", "x*r", "x*p + y*q - c*x*q", "y*r"),
            invariants=("(y2-y1)*(x2-x1)^-1 + 1/2*c*log((x2-x1)^2)",),
            expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                              infinitesimal_invariant=True),
            notes="contains the three fields r, x*r, y*r with common integral curves",
        ),
        CatalogEntry(
            id="ex94-24", source="family (24), same algebra as group 7",
            vars=V3, params=(),
            generators=("p", "q", "x*p + y*q + r", "y*p - x*q",
                        "(x^2 - y^2)*p + 2*x*y*q + 2*x*r",
                        "2*x*y*p + (y^2 - x^2)*q + 2*y*r"),
            invariants=("((x2-x1)^2 + (y2-y1)^2)*exp(-z1 - z2)",),
            expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                              essential_3pt=False, infinitesimal_invariant=True,
                              monodromy=True),
            monodromy=MonodromySpec(fix_point=(1, 1, 0), normalize_generator=3,
                                    period=2 * math.pi, t_max=8.0),
        ),
        CatalogEntry(
            id="ex94-24r", source="reduced form (24')",
            vars=V3, params=(),
            generators=("p", "q", "r", "y*p - x*q", "x*r", "y*r"),
            invariants=("(x2-x1)^2 + (y2-y1)^2",),
            expected=Expected(pair_invariant_count=1, two_point_criterion=True,
                              essential_3pt=False, infinitesimal_invariant=True,
                              monodromy=False),
            monodromy=MonodromySpec(fix_point=(1, 1, 0), normalize_generator=None,
                                    period=None, t_max=100.0),
        ),
    ]


def _seven_forms() -> List[CatalogEntry]:
    out = []
    for idx, (gen, excluded) in enumerate(M.SEVEN_FORMS, start=1):
        params = ("c",) if excluded else ()
        samples = tuple((c,) for c in _STANDARD_SAMPLES) if params else ()
        out.append(CatalogEntry(
            id=f"ex95-30-{idx}", source=f"one-parameter normal form {idx} of the list (30)",
            vars=V2, params=params,
            constraint=f"c != {', '.join(map(str, excluded))}" if excluded else "",
            param_samples=samples,
            generators=(gen,),
            expected=Expected(transitive=False, monodromy=(idx == 7)),
            monodromy=MonodromySpec(fix_point=(), normalize_generator=0,
                                    period=(2 * math.pi if idx == 7 else None),
                                    t_max=40.0),
        ))
    return out


def builtin_entries() -> List[CatalogEntry]:
    entries = _thm37() + _imprimitive_cases() + _planar() + _reduced_counterexamples() + _seven_forms()
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids)), "duplicate catalog ids"
    return entries


def entry_by_id(eid: str) -> CatalogEntry:
    for e in builtin_entries():
        if e.id == eid:
            return e
    raise CatalogError(f"no catalog entry {eid!r}")


# ---------------------------------------------------------------------------
# verification harness


@dataclass
class CheckResult:
    name: str
    expected: object
    observed: object
    status: str
    diagnostics: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": _plain(self.expected),
            "observed": _plain(self.observed),
            "status": self.status,
            "diagnostics": self.diagnostics,
        }


def _plain(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return float(f"{v:.12g}")
    return v


@dataclass
class VerificationReport:
    entry: str
    seed: int
    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "entry": self.entry,
            "seed": self.seed,
            "checks": [c.as_dict() for c in self.checks],
        }


def monodromy_generator(L: A.LieAlgebraPresentation, fix_points: Sequence[Sequence[Fraction]],
                        param_values=None):
    """Kernel combination of the generators vanishing at every fix point."""
    at_points = [F.evaluate_exact_at(L.generators, [Fraction(v) for v in pt], param_values)
                 for pt in fix_points]
    kernel = exactla.nullspace([list(col) for rows in at_points for col in zip(*rows)])
    return [(vec, F.substitute_params(F.combination(vec, L.generators), param_values))
            for vec in kernel]


class _Context:
    """An entry with its presentation and attached invariants, parsed once,
    and the facts derived from them once for the parameter sweep and the
    boundary cases alike."""

    def __init__(self, entry: CatalogEntry):
        self.entry, self.L, self.invariants = entry, entry.presentation(), entry.parsed_invariants()

    @functools.cached_property
    def constants(self) -> A.StructureConstants:
        return A.check_closure(self.L)

    @functools.cached_property
    def annihilations(self) -> List[I.Annihilation]:
        """One annihilation fact per attached invariant, over Q(params)."""
        return [I.annihilation(self.L, J) for J in self.invariants]


def _closure(ctx, pv, seed):
    try:
        ctx.constants
    except A.NotClosedError as err:
        residual = F.field_to_string(err.residual, ctx.entry.vars, ctx.entry.params)
        return False, f"residual {residual} in [X{err.j + 1}, X{err.k + 1}]"
    return True


def _published_infinitesimal(ctx, pv, seed):
    names = F.differential_var_names(ctx.entry.vars)
    body = E.parse_expression(ctx.entry.infinitesimal_invariant, names, ctx.entry.params)
    images = (F.apply_to_function(F.prolong_differentials(g), body) for g in ctx.L.generators)
    return all(E.is_identically_zero(E.substitute_params(res, pv) if pv else res) is E.Zeroness.YES
               for res in images)


_RETURN_TOL = 1e-6   # return distance and period agreement of a monodromy claim


def _monodromy(ctx, pv, seed):
    """Whether the spec's period, or its absence, is found: the report's
    expected value is always True. mobility.return_period decides it, exactly
    where it can; a period that its integration does not confirm fails."""
    spec, L = ctx.entry.monodromy, ctx.L
    if spec.fix_point:
        fix = [[Fraction(0)] * L.dim, [Fraction(v) for v in spec.fix_point]]
        combos = monodromy_generator(L, fix, pv)
        if not combos:
            return spec.period is None, "no one-parameter subgroup fixes the required points"
        vec, X = combos[0]
        if spec.normalize_generator is not None:
            scale = vec[spec.normalize_generator]
            if scale == 0:
                return spec.period is None, "kernel combination misses the normalizing slot"
            vec, X = [v / scale for v in vec], (1 / scale) * X
        start = F.Point((Fraction(2, 5), Fraction(-3, 10), Fraction(1, 5)))
    else:
        fix, vec = [], [Fraction(int(s == 0)) for s in range(len(L.generators))]
        X = F.substitute_params(L.generators[0], pv)
        start = F.Point(tuple(Fraction(1, 2) + Fraction(k, 7) for k in range(L.dim)))
    try:
        period, note = M.return_period(L, X, vec, start, fix, pv, lambda: ctx.constants,
                                       t_max=spec.t_max, tol=_RETURN_TOL, seed=seed, scale=0.5)
    except M.ReturnMismatch as err:
        return False, str(err)
    if spec.period is None:
        return period is None, note
    return period is not None and abs(period - spec.period) < _RETURN_TOL, note


def _free_mobility(ctx, pv, seed):
    verdict = M.free_mobility_infinitesimal(ctx.L, seed=seed, param_values=pv)
    return verdict.free_mobility, verdict.failing_stage or ""


class Check(NamedTuple):
    expected: Callable            # entry -> the value it claims, None for no claim
    fn: Callable                  # (ctx, pv or None, seed) -> observed | (observed, diagnostics)
    once: bool = False            # holds identically in the parameters: one run per entry
    label: Optional[str] = None   # one claim per attached invariant i: fn(i, ctx, pv, seed)


# The registry, in report order. The parameter sweep and the boundary cases
# both run from it.
CHECKS = {
    "closure": Check(attrgetter("expected.closed"), _closure, once=True),
    "structure": Check(lambda entry: True, lambda ctx, pv, seed: A.verify_structure(ctx.constants),
                       once=True),
    "transitive": Check(attrgetter("expected.transitive"), lambda ctx, pv, seed:
                        A.is_transitive(ctx.L, seed=seed, param_values=pv)),
    "pair_invariant_count": Check(attrgetter("expected.pair_invariant_count"), lambda ctx, pv, seed:
                                  A.joint_invariant_count(ctx.L, 2, seed=seed, param_values=pv)),
    "two_point_criterion": Check(attrgetter("expected.two_point_criterion"), lambda ctx, pv, seed:
                                 A.two_point_invariant_criterion(ctx.L, seed=seed, param_values=pv)),
    "invariants": Check(lambda entry: I.Verdict.PROVEN.value, lambda i, ctx, pv, seed:
                        I.verify_joint_invariant(ctx.L, ctx.invariants[i], mode="symbolic",
                                                 seed=seed, param_values=pv,
                                                 fact=ctx.annihilations[i]).verdict.value,
                        label="invariant_proven"),
    "essential_3pt": Check(attrgetter("expected.essential_3pt"), lambda ctx, pv, seed:
                           I.essential_invariant_check(ctx.L, 3, seed=seed, param_values=pv,
                                                       pair_invariants=ctx.invariants)),
    "infinitesimal_invariant": Check(attrgetter("expected.infinitesimal_invariant"), lambda ctx, pv, seed:
                                     I.infinitesimal_invariant_exists(ctx.L, seed=seed, param_values=pv)),
    "published_infinitesimal": Check(lambda entry: True if entry.infinitesimal_invariant else None,
                                     _published_infinitesimal),
    "monodromy": Check(lambda e: True if e.monodromy and e.expected.monodromy is not None else None,
                       _monodromy),
    "free_mobility": Check(attrgetter("expected.free_mobility"), _free_mobility),
}

_ALL_CHECKS = tuple(CHECKS)


def verify_entry(entry: CatalogEntry, seed: int = 0,
                 checks: Sequence[str] = _ALL_CHECKS) -> VerificationReport:
    """Replay every expected claim of the entry; failures are recorded, never
    raised, so a batch always completes. An unknown check name raises
    ValueError."""
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}")
    ctx = _Context(entry)
    results: List[CheckResult] = []

    def run(name, expected, thunk):
        try:
            observed = thunk()
            observed, diagnostics = observed if isinstance(observed, tuple) else (observed, "")
        except Exception as err:  # recorded, never aborts the batch
            observed, diagnostics = f"error: {err}", ""
        status = "pass" if observed == expected else "fail"
        results.append(CheckResult(name, expected, observed, status, diagnostics))

    def claim(name, expected, pv):
        check, pv = CHECKS[name], pv or None
        tag = "@" + ",".join(f"{entry.params[j]}={v}" for j, v in sorted(pv.items())) if pv else ""
        if check.label is None:
            run(name + tag, expected, lambda: check.fn(ctx, pv, seed))
        else:
            for i in range(len(ctx.invariants)):
                run(f"{check.label}[{i}]{tag}", expected, lambda: check.fn(i, ctx, pv, seed))

    claimed = [(name, exp) for name in CHECKS
               if name in checks and (exp := CHECKS[name].expected(entry)) is not None]
    for pv in [None] + entry.param_value_maps():
        for name, expected in claimed:
            if CHECKS[name].once == (pv is None):
                claim(name, expected, pv)
    for case in entry.boundary:
        pv = {entry.params.index(k): v for k, v in case.param_values.items()}
        for name, expected in case.expected.items():
            if name in checks:
                claim(name, expected, pv)
    return VerificationReport(entry.id, seed, results)


def verify_catalog(seed: int = 0, entry_id: Optional[str] = None,
                   checks: Sequence[str] = _ALL_CHECKS) -> List[VerificationReport]:
    entries = builtin_entries() if entry_id is None else [entry_by_id(entry_id)]
    return [verify_entry(e, seed=seed, checks=checks) for e in sorted(entries, key=lambda e: e.id)]


def export_report(reports: Sequence[VerificationReport], format: str = "text") -> str:
    if format == "json":
        return json.dumps([r.as_dict() for r in reports], indent=2)
    if format != "text":
        raise ValueError("format must be 'json' or 'text'")
    lines = []
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.entry} [seed {r.seed}]: {status}")
        for c in r.checks:
            lines.append(
                f"  {c.name}: expected={_plain(c.expected)} observed={_plain(c.observed)}"
                f" status={c.status}" + (f" ({c.diagnostics})" if c.diagnostics else "")
            )
    return "\n".join(lines)

"""Line-based algebra files: diffable fixtures carrying a presentation plus
optional invariant candidates and expectations.

    vars: x y z
    params: c
    field: x^2*p + 2*x*r
    invariant[s=2]: z2 - z1 - 1/2*(y2-y1)^2*(x2-x1)^-1
    expect: pair_invariant_count=1

'#' starts a comment; blank lines are ignored."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from . import algebra as A, expr as E, invariants as I
from . import fields as F


class AlgebraFileError(Exception):
    pass


@dataclass
class AlgebraFile:
    name: str
    vars: tuple
    params: tuple
    field_literals: tuple
    invariant_literals: tuple  # (s, text)
    expectations: dict

    def presentation(self) -> A.LieAlgebraPresentation:
        return A.presentation(self.name, self.vars, self.field_literals, self.params)

    def invariants(self) -> List[I.InvariantCandidate]:
        out = []
        for s, text in self.invariant_literals:
            names = F.point_var_names(self.vars, s)
            out.append(I.InvariantCandidate(s, E.parse_expression(text, names, self.params)))
        return out


def parse_algebra_file(text: str, name: str = "algebra") -> AlgebraFile:
    names: dict = {}  # "vars" and "params", each given at most once
    fields_: list = []
    invariants_: list = []
    expectations: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise AlgebraFileError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key in ("vars", "params"):
            if key in names:
                raise AlgebraFileError(f"line {lineno}: a second '{key}:' line")
            names[key] = tuple(value.split())
        elif key == "field":
            fields_.append(value)
        elif key.startswith("invariant"):
            tag = re.fullmatch(r"invariant(?:\[s=(\d+)\])?", key)
            if tag is None or tag[1] is not None and int(tag[1]) < 1:
                raise AlgebraFileError(f"line {lineno}: malformed invariant tag {key!r}, "
                                       "expected invariant[s=N] with N >= 1")
            invariants_.append((int(tag[1] or 2), value))
        elif key == "expect":
            if "=" not in value:
                raise AlgebraFileError(f"line {lineno}: expect needs key=value")
            ekey, evalue = (part.strip() for part in value.split("=", 1))
            if ekey in expectations:
                raise AlgebraFileError(f"line {lineno}: expect {ekey!r} is given twice")
            expectations[ekey] = _parse_expect_value(evalue, lineno)
        else:
            raise AlgebraFileError(f"line {lineno}: unknown key {key!r}")
        repeated = F.repeated_name(names.get("vars", ()), names.get("params", ()))
        if repeated is not None:
            raise AlgebraFileError(f"line {lineno}: name {repeated!r} is given twice among vars and params")
    if "vars" not in names:
        raise AlgebraFileError("missing 'vars:' line")
    if not fields_:
        raise AlgebraFileError("no 'field:' lines")
    return AlgebraFile(name, names["vars"], names.get("params", ()), tuple(fields_),
                       tuple(invariants_), expectations)


def _parse_expect_value(text: str, lineno: int):
    """A boolean (true/false/yes/no, any case) or an integer."""
    low = text.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    try:
        return int(text)
    except ValueError:
        raise AlgebraFileError(f"line {lineno}: expect value {text!r} is neither "
                               "true/false/yes/no nor an integer") from None


def load_algebra_file(path: str) -> AlgebraFile:
    """Parse the file at path; a file that cannot be read or is not UTF-8
    raises AlgebraFileError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise AlgebraFileError(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise AlgebraFileError(f"cannot read {path}: not UTF-8 text (byte {err.start})") from None
    return parse_algebra_file(text, name=path)


def format_algebra_file(af: AlgebraFile) -> str:
    lines = [f"vars: {' '.join(af.vars)}"]
    if af.params:
        lines.append(f"params: {' '.join(af.params)}")
    for lit in af.field_literals:
        lines.append(f"field: {lit}")
    for s, lit in af.invariant_literals:
        lines.append(f"invariant[s={s}]: {lit}")
    for key in sorted(af.expectations):
        lines.append(f"expect: {key}={_format_expect_value(af.expectations[key])}")
    return "\n".join(lines) + "\n"


def _format_expect_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def catalog_entry_file(entry) -> AlgebraFile:
    """Round-trip view of a built-in catalog entry as an algebra file."""
    expectations = {}
    exp = entry.expected.as_dict()
    for key in ("transitive", "pair_invariant_count", "two_point_criterion",
                "essential_3pt", "free_mobility", "monodromy"):
        if key in exp:
            expectations[key] = exp[key]
    return AlgebraFile(
        entry.id,
        tuple(entry.vars),
        tuple(entry.params),
        tuple(entry.generators),
        tuple((2, text) for text in entry.invariants),
        expectations,
    )

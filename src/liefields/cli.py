"""Command-line front end.

Subcommands: bracket, closure, invariants, verify, flow, monodromy, mobility,
catalog verify. Exit code 0 on success/pass, 1 on check failure, 2 on usage or
parse errors, and 141 from the script when the reader closes stdout early.
Same argv and seed give byte-identical stdout; the SEED environment variable
overrides the default seed 0. A malformed number in an argument or in SEED is
a usage error that names the value, and so is a coordinate, weight or
parameter value whose float overflows."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

from . import algebra as A, algfile, catalog as CAT, expr as E, flows as FL, invariants as I, mobility as M
from . import fields as F


CLOSED_PIPE = 141  # 128 + SIGPIPE: stdout was closed before the report was written


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class UsageError(Exception):
    """A malformed argument or environment value: exit 2."""


def _number(text: str, what: str, kind=Fraction):
    """text as a Fraction (or int); anything else is a usage error naming
    the value."""
    try:
        return kind(text.strip())
    except (ValueError, ZeroDivisionError):
        noun = "an integer" if kind is int else "a rational number"
        raise UsageError(f"{what} must be {noun}, got {text!r}") from None


def _default_seed() -> int:
    return _number(os.environ.get("SEED", "0"), "SEED", int)


def _coordinate(text: str, what: str) -> Fraction:
    """text as a rational that the numeric layers can also read as a float.
    An overflowing decimal is refused before Fraction expands its exponent."""
    try:
        overflows = math.isinf(float(text))
    except ValueError:  # p/q, or no number at all
        overflows = False
    if not overflows:
        value = _number(text, what)
        try:
            float(value)
            return value
        except OverflowError:
            pass
    raise UsageError(f"{what} must be finite as a float, got {text!r}")


def _parse_point(text: str, what: str = "--from", dim=None):
    """A comma-separated rational point; with dim, one of that length."""
    point = tuple(_coordinate(p, what) for p in text.split(","))
    if dim is not None and len(point) != dim:
        raise UsageError(f"{what} needs {dim} coordinates, got {len(point)}")
    return point


def _require_instantiated(X, af) -> None:
    missing = F.field_params([X])
    if missing:
        names = ", ".join(af.params[j] for j in sorted(missing))
        raise UsageError(
            f"integration needs values for the parameters: {names} (use --param)")


def _parse_param_overrides(pairs, params):
    values = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--param needs name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        name = name.strip()
        if name not in params:
            raise UsageError(f"unknown parameter {name!r}")
        values[params.index(name)] = _coordinate(value, f"--param {name}")
    return values


def _put_params(X, pv, af, what: str):
    """X, a field or an expression, with the --param values put in. A value
    at which X is undefined, such as c = 0 under c^-1, is malformed input."""
    try:
        return (F.substitute_params if isinstance(X, F.VectorField) else E.substitute_params)(X, pv)
    except ZeroDivisionError:
        values = ", ".join(f"{af.params[j]}={v}" for j, v in sorted(pv.items()))
        raise UsageError(f"{what} is undefined at {values}") from None


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _checked(kind, test, requirement: str):
    """An argparse type: text read as kind, then held to test."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_finite_float = _checked(float, math.isfinite, "finite")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args keeps its state
    in a fresh namespace per call, and no default is mutated."""
    parser = _Parser(prog="liefields")
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    b = add_parser("bracket", help="Lie bracket of two field literals")
    b.add_argument("first")
    b.add_argument("second")
    b.add_argument("--vars", default="x y z", help="space-separated variable names")

    c = add_parser("closure", help="structure constants of an algebra file")
    c.add_argument("file")

    inv = add_parser("invariants", help="count of joint invariants of s points")
    inv.add_argument("file")
    inv.add_argument("--points", type=_positive_int, default=2)
    inv.add_argument("--param", action="append", metavar="NAME=VALUE")

    v = add_parser("verify", help="verdict for a joint-invariant candidate")
    v.add_argument("file")
    v.add_argument("--invariant", required=True)
    v.add_argument("--points", type=_positive_int, default=2)
    v.add_argument("--mode", choices=["symbolic", "numeric"], default="symbolic")
    v.add_argument("--param", action="append", metavar="NAME=VALUE")

    fl = add_parser("flow", help="integrate one generator")
    fl.add_argument("file")
    fl.add_argument("--gen", type=int, required=True, help="1-based generator index")
    fl.add_argument("--from", dest="start", required=True, metavar="PT")
    fl.add_argument("--t", type=_finite_float, required=True)
    fl.add_argument("--steps", type=_positive_int, default=10000)
    fl.add_argument("--param", action="append", metavar="NAME=VALUE")
    fl.add_argument("--csv", help="write the trajectory as CSV (t, x1, ..., xn)")

    mo = add_parser("monodromy", help="first common return time of a generator combination")
    mo.add_argument("file")
    mo.add_argument("--gen-combo", required=True, metavar="c1,...,cr")
    mo.add_argument("--from", dest="start", required=True, metavar="PT")
    mo.add_argument("--t-max", type=_positive_float, default=20.0)
    mo.add_argument("--steps", type=_positive_int, default=20000)
    mo.add_argument("--tol", type=_positive_float, default=1e-6)
    mo.add_argument("--param", action="append", metavar="NAME=VALUE")
    mo.add_argument("--fix", action="append", default=[], metavar="PT",
                    help="a point where the combination vanishes, for the exact ad X "
                         "criterion (repeatable)")

    mob = add_parser("mobility", help="free mobility in the infinitesimal")
    mob.add_argument("file")
    mob.add_argument("--param", action="append", metavar="NAME=VALUE")

    cat = add_parser("catalog", help="built-in catalog operations")
    cat.add_argument("action", choices=["verify"])
    cat.add_argument("--entry", default=None)
    cat.add_argument("--format", choices=["json", "text"], default="text")

    return parser


def run(argv) -> int:
    """Run one command line and return its exit code (0, 1 or 2, see the
    module docstring). Usage and check errors print one line to stderr;
    stdout gets the command's report. Every call shares the one parser of
    build_parser, so repeated in-process runs pay for it once."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return _dispatch(args, args.seed if args.seed is not None else _default_seed())
    except (UsageError, E.ParseError, algfile.AlgebraFileError, F.FieldError,
            CAT.CatalogError, M.UnsupportedDimension) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except E.NonPolynomialError as err:  # exact layers on a file they cannot read
        print(f"error: {args.command} needs polynomial coefficients ({err})", file=sys.stderr)
        return 2
    except (E.ExprError, I.DomainExhausted, FL.DivergenceSuspected,
            FL.NormalizationImpossible, A.NotTransitiveAtBase, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _dispatch(args, seed: int) -> int:
    if args.command == "bracket":
        vars_ = tuple(args.vars.split())
        X = F.parse_field(args.first, vars_)
        Y = F.parse_field(args.second, vars_)
        print(F.field_to_string(F.bracket(X, Y), vars_))
        return 0

    if args.command == "catalog":
        reports = CAT.verify_catalog(seed=seed, entry_id=args.entry)
        print(CAT.export_report(reports, format=args.format))
        return 0 if all(r.passed for r in reports) else 1

    af = algfile.load_algebra_file(args.file)
    L = af.presentation()
    pv = _parse_param_overrides(getattr(args, "param", None), af.params)

    if args.command == "closure":
        try:
            C = A.check_closure(L)
        except A.NotClosedError as err:
            print(f"NotClosed({err.j + 1},{err.k + 1}): residual "
                  f"{F.field_to_string(err.residual, af.vars, af.params)}")
            return 1
        for j in range(L.order):
            for k in range(j + 1, L.order):
                terms = []
                for s in range(L.order):
                    cs = C.c[j][k][s]
                    if E.is_identically_zero(cs) is not E.Zeroness.YES:
                        terms.append(f"({E.to_string(cs, af.vars, af.params)})*X{s + 1}")
                rhs = " + ".join(terms) if terms else "0"
                print(f"[X{j + 1}, X{k + 1}] = {rhs}")
        if "closed" in af.expectations and af.expectations["closed"] is not True:
            print("expected not closed, observed closed")
            return 1
        return 0

    if args.command == "invariants":
        count = A.joint_invariant_count(L, args.points, seed=seed, param_values=pv or None)
        print(count)
        expect = af.expectations.get("pair_invariant_count")
        if args.points == 2 and expect is not None and expect != count:
            print(f"expected {expect}")
            return 1
        return 0

    if args.command == "verify":
        names = F.point_var_names(af.vars, args.points)
        body = _put_params(E.parse_expression(args.invariant, names, af.params), pv, af,
                           f"--invariant {args.invariant!r}")
        generators = tuple(_put_params(g, pv, af, f"X{k + 1}") for k, g in enumerate(L.generators))
        L = A.LieAlgebraPresentation(L.name, L.vars, L.params, generators)
        out = I.verify_joint_invariant(L, I.InvariantCandidate(args.points, body),
                                       mode=args.mode, seed=seed, param_values=pv or None)
        print(out.verdict.value)
        if out.verdict is I.Verdict.REFUTED:
            residual = E.to_string(out.witness_residual, names, af.params)
            print(f"witness: generator {out.witness_generator + 1}, residual {residual}")
            return 1
        return 0

    if args.command == "flow":
        if not 1 <= args.gen <= L.order:
            raise UsageError(f"--gen must be in 1..{L.order}")
        X = _put_params(L.generators[args.gen - 1], pv, af, f"X{args.gen}")
        _require_instantiated(X, af)
        start = _parse_point(args.start)
        tracked = {}
        for idx, J in enumerate(af.invariants()):
            if J.s == 1:
                tracked[f"invariant[{idx}]"] = J.body
        traj = FL.numeric_flow(X, F.Point(start), args.t, args.steps,
                               tracked=tracked or None, record=bool(args.csv))
        if args.csv:
            try:
                with open(args.csv, "w", encoding="utf-8") as fh:
                    for t, pt in traj.samples:
                        fh.write(",".join([_fmt(t)] + [_fmt(v) for v in pt]) + "\n")
            except OSError as err:
                raise UsageError(f"cannot write --csv {args.csv}: {err.strerror}") from None
        print("endpoint: " + ", ".join(_fmt(v) for v in traj.endpoint))
        for label in sorted(traj.drift):
            print(f"drift {label}: {_fmt(traj.drift[label])}")
        return 0

    if args.command == "monodromy":
        weights = [_coordinate(w, "--gen-combo") for w in args.gen_combo.split(",")]
        if len(weights) != L.order:
            raise UsageError(
                f"--gen-combo needs {L.order} coefficients, got {len(weights)}")
        X = _put_params(F.combination(weights, L.generators), pv, af, "--gen-combo")
        _require_instantiated(X, af)
        start = F.Point(_parse_point(args.start, "--from", L.dim))
        fix = [_parse_point(p, "--fix", L.dim) for p in args.fix]
        period, note = M.return_period(L, X, weights, start, fix, param_values=pv,
                                       t_max=args.t_max, steps=args.steps, tol=args.tol,
                                       seed=seed)
        verdict = "None" if period is None else f"period {_fmt(period)}"
        print(f"{verdict} ({note})")
        return 0

    if args.command == "mobility":
        verdict = M.free_mobility_infinitesimal(L, seed=seed, param_values=pv or None)
        if verdict.free_mobility:
            print("free mobility: true")
        else:
            print(f"free mobility: false (failing stage: {verdict.failing_stage})")
        expect = af.expectations.get("free_mobility")
        if expect is not None and expect != verdict.free_mobility:
            print(f"expected {str(expect).lower()}")
            return 1
        return 0

    raise algfile.AlgebraFileError(f"unknown command {args.command!r}")


def main() -> None:
    # reports name characteristic polynomials as λ²(λ²+1)²; a stdout that
    # cannot encode them gets escapes rather than an error
    sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the flush at exit raises nothing either (the Python docs' note
        # on SIGPIPE); the code is the one a shell reports for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Fuzz tests of the command line: any argv built from the subcommands, small
fixtures and number tokens either runs or fails with exit 1 or 2, and never
with a traceback. Runs stay small: few RK4 steps, short times, and decimal
exponents of at most three digits (Fraction("1e999999999") alone would build
a billion-digit int)."""

import contextlib
import io
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from liefields import cli

ALGEBRAS = pathlib.Path(__file__).resolve().parent.parent / "data" / "algebras"

# (dimension, generators) of the fixtures: a 3-D group, one with a parameter,
# one periodic by ad X, planar ones with and without a parameter, one with a
# single generator, a non-polynomial one and a file that does not exist
SHAPES = {"thm37-1": (3, 6), "ex87-51": (3, 6), "ex94-24": (3, 6), "ex90-60a": (2, 3),
          "ex95-30-1": (2, 1), "nonpoly": (2, 3), "missing": (3, 6)}

NON_POLYNOMIAL_ALG = "vars: x y\nfield: p\nfield: q\nfield: -y*p + x*q + x^-1*p\n"


def _mostly(good, bad):
    """A token, from good about three times in four, else from bad."""
    return st.sampled_from(good * (3 * len(bad) // len(good) + 1) + bad)


# accepted numbers reach hundreds of digits, whose exact periods are decided
# in well under a second; the overflowing ones are refused at once
numbers = _mostly(["0", "1", "-1", "2", "1/2", "-3/7", "2.5", "1e3", "-1e-3", "1e-400",
                   "3/1" + "0" * 300, " 1 "],
                  ["1e400", "-1e400", "1" + "0" * 400 + "/3", "nan", "inf", "x", "1/0", ""])
times = _mostly(["1", "0.5", "2", "1e-9"], ["-1", "0", "nan", "inf", "1e400", "x"])
steps = _mostly(["1", "7", "40"], ["0", "-2"])
points = _mostly(["1", "2", "3"], ["0", "x"])
invariants = st.sampled_from(["x1", "(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2", "x1*exp(y2)",
                              "log(x1)", "x1 +", "c*x1", "1/0"])


@st.composite
def vectors(draw, size):
    """size numbers, or now and then some other count, comma-separated."""
    size = draw(st.one_of(st.just(size), st.just(size), st.integers(1, 7)))
    return ",".join(draw(st.lists(numbers, min_size=size, max_size=size)))


def _option(flag, values, required=False):
    """[flag, value], or nothing when the option is not required. A value
    that starts with '-' is joined as flag=value, or argparse reads it as
    an option."""
    pair = values.map(lambda v: [f"{flag}={v}"] if v.startswith("-") else [flag, v])
    return pair if required else st.one_of(st.just([]), pair)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["bracket", "closure", "invariants", "verify", "flow",
                                    "monodromy", "mobility", "catalog"]))
    if command == "bracket":
        argv = ["bracket", draw(st.sampled_from(["p", "x*q - y*p", "y*p", "p +", "x^-1*q"])),
                draw(st.sampled_from(["q", "x*p", "z*r - x*q", "w*p", "exp(x)*q", "1/2*r"])),
                *draw(_option("--vars", st.sampled_from(["x y", "x y z", "x x", ""])))]
    elif command == "catalog":
        argv = ["catalog", draw(st.sampled_from(["verify", "check"])),
                *draw(_option("--entry", st.sampled_from(["ex87-51", "ex95-30-1", "nope"]),
                              required=True)),
                *draw(_option("--format", st.sampled_from(["json", "text", "xml"])))]
    else:
        name = draw(st.sampled_from(sorted(SHAPES)))
        dim, order = SHAPES[name]
        params = st.one_of(numbers.map(lambda v: f"c={v}"),
                           st.sampled_from(["d=1", "c", "c=1/2=1"]))
        # only ex87-51 and ex90-60a have a parameter, c
        options = [_option("--param", params, required=True)] if (
            command != "closure" and name in ("ex87-51", "ex90-60a")) else []
        if command == "invariants":
            options.append(_option("--points", points))
        elif command == "verify":
            options += [_option("--invariant", invariants, required=True),
                        _option("--points", points),
                        _option("--mode", st.sampled_from(["symbolic", "numeric", "bogus"]))]
        elif command == "flow":
            options += [_option("--gen", st.sampled_from(["1", str(order), "0", "9", "x"]),
                                required=True),
                        _option("--from", vectors(dim), required=True),
                        _option("--t", times, required=True),
                        # the default is 10,000 steps
                        _option("--steps", steps, required=True)]
        elif command == "monodromy":
            options += [_option("--gen-combo", vectors(order), required=True),
                        _option("--from", vectors(dim), required=True),
                        # the defaults are 20,000 steps up to t = 20
                        _option("--t-max", times, required=True),
                        _option("--steps", steps, required=True),
                        _option("--tol", st.sampled_from(["1e-6", "0.1", "0", "-1", "nan"])),
                        _option("--fix", vectors(dim))]
        argv = [command, "@" + name]
        for option in draw(st.permutations(options)):
            argv += draw(option)
    return argv + draw(_option("--seed", st.sampled_from(["0", "3", "-1", "x"])))


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "nonpoly.alg").write_text(NON_POLYNOMIAL_ALG)
    paths = {f"@{name}": str(ALGEBRAS / f"{name}.alg") for name in SHAPES}
    paths["@nonpoly"] = str(d / "nonpoly.alg")
    paths["@missing"] = str(d / "missing.alg")
    return paths


def _run(argv, fixtures):
    argv = [fixtures.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@given(argvs())
@example(["monodromy", "@thm37-1", "--gen-combo", "0,0,0,1,0,0", "--from", "1e400,0,0"])
@example(["monodromy", "@thm37-1", "--gen-combo", "0,0,0,1e400,0,0", "--from", "1,0,0"])
@example(["monodromy", "@thm37-1", "--gen-combo", "0,0,0,1,0,0", "--from", "1,0,0",
          "--fix", "1e400,0,0"])
@example(["flow", "@thm37-1", "--gen", "4", "--from", "1e400,0,0", "--t", "1"])
@example(["flow", "@thm37-1", "--gen", "4", "--from", "1e-400,0,0", "--t", "1", "--steps", "7"])
@example(["monodromy", "@thm37-1", "--gen-combo", "0,0,0,0,0,1e-400", "--from", "0,0,0",
          "--t-max", "1", "--steps", "1"])
@settings(max_examples=200, deadline=None)
def test_exit_0_1_or_2_without_traceback(fixtures, argv):
    code, out, err = _run(argv, fixtures)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    # a failed check reports on stdout; an error is one line on stderr
    assert not err or (len(err.splitlines()) == 1 and err.startswith("error: ")), err
    assert code or not err

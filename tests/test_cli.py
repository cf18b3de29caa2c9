import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from liefields import cli, expr as E, flows as FL


EUCLID_ALG = """\
vars: x y z
field: p
field: q
field: r
field: x*q - y*p
field: y*r - z*q
field: z*p - x*r
invariant[s=2]: (x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2
expect: pair_invariant_count=1
expect: free_mobility=true
"""

BAD_ALG = """\
vars: x y z
field: p
field: x*q
"""


# the grammar accepts a negative variable power; the coefficients are not polynomial
NON_POLYNOMIAL_ALG = """\
vars: x y
field: p
field: q
field: -y*p + x*q + x^-1*p
"""


@pytest.fixture
def non_polynomial_file(tmp_path):
    path = tmp_path / "nonpoly.alg"
    path.write_text(NON_POLYNOMIAL_ALG)
    return str(path)


# the rotation in the coordinates (x, y + x^2): no exact criterion applies
BENT_ROTATION_ALG = """\
vars: x y
field: p
field: q
field: -(y + x^2)*p + (x + 2*x*y + 2*x^3)*q
"""


@pytest.fixture
def bent_rotation_file(tmp_path):
    path = tmp_path / "bent.alg"
    path.write_text(BENT_ROTATION_ALG)
    return str(path)


@pytest.fixture
def euclid_file(tmp_path):
    path = tmp_path / "euclid.alg"
    path.write_text(EUCLID_ALG)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text(BAD_ALG)
    return str(path)


ALGEBRAS = pathlib.Path(__file__).resolve().parent.parent / "data" / "algebras"
GOLDEN = pathlib.Path(__file__).resolve().parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_process(argv, **kwargs):
    """`python -m liefields.cli argv` in a new interpreter."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.Popen([sys.executable, "-m", "liefields.cli", *argv], env=env, **kwargs)


class TestBracket:
    def test_jet_case(self, capsys):
        code, out, _ = run(["bracket", "p", "x^2*q + 2*x*r"], capsys)
        assert code == 0
        assert out.strip() == "2*x*q + 2*r"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(["bracket", "p", "x++"], capsys)
        assert code == 2
        assert "error" in err

    def test_zero_to_negative_power_exit_2(self, capsys):
        code, out, err = run(["bracket", "p", "0^-1*q"], capsys)
        assert code == 2 and not out
        assert err.startswith("error: zero raised to a negative power")
        assert len(err.strip().splitlines()) == 1

    def test_deep_nesting_exit_2(self, capsys):
        code, out, err = run(["bracket", "p", "(" * 3000 + "x" + ")" * 3000 + "*q"], capsys)
        assert code == 2 and not out
        assert err == "error: nesting deeper than 100 levels at offset 100\n"


class TestClosure:
    def test_not_closed_exit_1(self, bad_file, capsys):
        code, out, _ = run(["closure", bad_file], capsys)
        assert code == 1
        assert "NotClosed" in out and "q" in out

    def test_closed_table(self, euclid_file, capsys):
        code, out, _ = run(["closure", euclid_file], capsys)
        assert code == 0
        assert "[X1, X2] = 0" in out

    @staticmethod
    def constants(out, af):
        """{(j, k, s): Expr} from the printed table."""
        table = {}
        for line in out.splitlines():
            j, k, rhs = re.fullmatch(r"\[X(\d+), X(\d+)\] = (.*)", line).groups()
            for text, s in re.findall(r"\((.*?)\)\*X(\d+)(?: \+ |$)", rhs):
                table[(j, k, s)] = E.parse_expression(text, af.vars, af.params)
        return table

    def test_shifted_thm37_6_prints_its_constants(self, capsys):
        # thm37-6 in the coordinates (x + z, y, z): the residuals and some
        # constants carry (1 + c^2)^-1 blocks that cancel only under the zero test
        tables = []
        for path in (GOLDEN / "thm37-6-shifted.alg", ALGEBRAS / "thm37-6.alg"):
            code, out, err = run(["closure", str(path)], capsys)
            assert code == 0 and not err
            tables.append(self.constants(out, cli.algfile.load_algebra_file(str(path))))
        got, want = tables
        assert got.keys() == want.keys()
        for slot, value in want.items():
            diff = E.add(got[slot], E.neg(value))
            assert E.is_identically_zero(diff) is E.Zeroness.YES, slot

    def test_non_polynomial_coefficients_exit_2(self, non_polynomial_file, capsys):
        code, out, err = run(["closure", non_polynomial_file], capsys)
        assert code == 2 and not out
        assert err == "error: closure needs polynomial coefficients (negative variable power)\n"

    @pytest.mark.parametrize("argv, reason", [
        (["closure"], "function node involving variables"),
        (["invariants", "--points", "2"], "exact evaluation of function node"),
        (["invariants", "--points", "1"], "exact evaluation of function node"),
        (["mobility"], "exact evaluation of function node"),
    ])
    def test_function_node_coefficients_exit_2(self, argv, reason, tmp_path, capsys):
        # a valid file the exact layers cannot evaluate is a usage error, not a failed check
        path = tmp_path / "fn.alg"
        path.write_text("vars: x y\nfield: p\nfield: q\nfield: exp(x)*q\n")
        code, out, err = run([argv[0], str(path), *argv[1:]], capsys)
        assert code == 2 and not out
        assert err == f"error: {argv[0]} needs polynomial coefficients ({reason})\n"


class TestInvariantTags:
    """A malformed invariant tag is malformed input: exit 2, one line, with its line."""

    @pytest.mark.parametrize("tag", ["invariant[s=x]", "invariant[s=0]", "invariant[s=2",
                                     "invariant[2]", "invariants"])
    def test_exit_2_with_line_number(self, tag, tmp_path, capsys):
        path = tmp_path / "tag.alg"
        path.write_text(f"vars: x y\nfield: p\n{tag}: x2 - x1\n")
        code, out, err = run(["invariants", str(path)], capsys)
        assert code == 2 and not out
        assert err == (f"error: line 3: malformed invariant tag {tag!r}, "
                       "expected invariant[s=N] with N >= 1\n")

    @pytest.mark.parametrize("tag", ["invariant", "invariant[s=2]"])
    def test_well_formed_tags(self, tag, tmp_path, capsys):
        path = tmp_path / "tag.alg"
        path.write_text(f"vars: x y\nfield: p\n{tag}: y2 - y1\n")
        code, out, _ = run(["verify", str(path), "--invariant", "y2 - y1"], capsys)
        assert code == 0 and out == "Proven\n"


class TestInvariantCommands:
    def test_count(self, euclid_file, capsys):
        code, out, _ = run(["invariants", euclid_file, "--points", "2"], capsys)
        assert code == 0
        assert out.strip() == "1"

    def test_verify_proven(self, euclid_file, capsys):
        code, out, _ = run(
            ["verify", euclid_file, "--invariant",
             "(x1-x2)^2 + (y1-y2)^2 + (z1-z2)^2"], capsys)
        assert code == 0
        assert out.strip() == "Proven"

    def test_verify_refuted_exit_1(self, euclid_file, capsys):
        code, out, _ = run(["verify", euclid_file, "--invariant", "x2 - x1"], capsys)
        assert code == 1
        assert "Refuted" in out


class TestFlowAndMonodromy:
    def test_flow_endpoint(self, euclid_file, capsys):
        code, out, _ = run(
            ["flow", euclid_file, "--gen", "1", "--from", "0,0,0", "--t", "1.5"], capsys)
        assert code == 0
        assert out.startswith("endpoint: 1.5, 0, 0")

    def test_flow_backwards(self, euclid_file, capsys):
        code, out, _ = run(
            ["flow", euclid_file, "--gen", "1", "--from", "0,0,0", "--t", "-1.5"], capsys)
        assert code == 0
        assert out.startswith("endpoint: -1.5, 0, 0")

    def test_failed_flow_leaves_no_csv(self, tmp_path, capsys):
        path = tmp_path / "pole.alg"
        path.write_text("vars: x\nfield: x^-1*p\n")
        csv = tmp_path / "traj.csv"
        code, out, err = run(["flow", str(path), "--gen", "1", "--from", "0", "--t", "1",
                              "--csv", str(csv)], capsys)
        assert code == 1 and not out
        assert err.startswith("error: numeric evaluation failed")
        assert not csv.exists()

    def test_flow_csv(self, euclid_file, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        code, _, _ = run(
            ["flow", euclid_file, "--gen", "4", "--from", "1,0,0", "--t", "0.5",
             "--steps", "100", "--csv", str(csv)], capsys)
        assert code == 0
        rows = csv.read_text().strip().splitlines()
        assert len(rows) == 101
        assert all(len(row.split(",")) == 4 for row in rows)

    @pytest.mark.parametrize("entry", ["ex95-30-4", "ex95-30-7"])
    def test_flow_start_dimension_mismatch_exit_2(self, entry, capsys):
        code, out, err = run(
            ["flow", str(ALGEBRAS / f"{entry}.alg"), "--gen", "1", "--from", "1", "--t", "1"],
            capsys)
        assert code == 2 and not out
        assert err == "error: the start point needs 2 coordinates, got 1\n"

    def test_monodromy_rotation(self, euclid_file, capsys):
        code, out, _ = run(
            ["monodromy", euclid_file, "--gen-combo", "0,0,0,1,0,0",
             "--from", "1,1/2,0", "--t-max", "10"], capsys)
        assert code == 0
        assert out.startswith("period 6.28318530718")

    def test_monodromy_decided_exactly_without_integration(self, capsys, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("numeric_flow called")

        monkeypatch.setattr(FL, "numeric_flow", no_integration)
        code, out, _ = run(["monodromy", str(ALGEBRAS / "ex95-30-1.alg"), "--gen-combo", "1",
                            "--from", "1/2,1/3"], capsys)
        assert code == 0
        assert out == "None (exact: affine, A has real eigenvalue 1)\n"

    def test_monodromy_exact_period_not_confirmed_fails(self, euclid_file, capsys):
        # five RK4 steps over 2*pi miss the start: the exact period is not confirmed
        code, out, err = run(["monodromy", euclid_file, "--gen-combo", "0,0,0,1,0,0",
                              "--from", "1,1/2,0", "--steps", "5"], capsys)
        assert code == 1 and not out
        assert err.startswith("error: exact: affine, A semisimple") and "misses by" in err

    def test_monodromy_non_polynomial_algebra_falls_back_to_search(self, non_polynomial_file, capsys):
        # no structure constants exist, so the first-return search decides
        code, out, _ = run(["monodromy", non_polynomial_file, "--gen-combo", "0,0,1",
                            "--from", "1,1", "--t-max", "2", "--steps", "2000"], capsys)
        assert code == 0
        assert out.startswith("None (numeric: min distances: ")

    @pytest.mark.parametrize("option", [["--tol", "10"], ["--t-max", "1e-300"]],
                             ids=["tol", "t-max"])
    def test_monodromy_starts_at_rest(self, bent_rotation_file, option, capsys):
        # every start stays in the domain but moves less than 10*tol within t_max
        code, out, _ = run(["monodromy", bent_rotation_file, "--gen-combo", "0,0,1",
                            "--from", "1/2,1/2", "--t-max", "8", "--steps", "100", *option],
                           capsys)
        ten_tol = {"--tol": "100", "--t-max": "1e-5"}[option[0]]
        assert code == 0
        assert out == ("None (numeric: at rest: every start in the domain moves less than "
                       f"10*tol = {ten_tol} within t_max)\n")

    def test_monodromy_starts_at_rest_within_budget(self, bent_rotation_file, capsys):
        # budget 2 s: the search gives up once eight starts were at rest, where
        # all 160 allowed starts at 20,000 RK4 steps would take about 10 s
        began = time.perf_counter()
        code, out, _ = run(["monodromy", bent_rotation_file, "--gen-combo", "0,0,1",
                            "--from", "1/2,1/2", "--t-max", "8", "--tol", "10"], capsys)
        elapsed = time.perf_counter() - began
        assert code == 0
        assert out == ("None (numeric: at rest: every start in the domain moves less than "
                       "10*tol = 100 within t_max)\n")
        assert elapsed < 2.0, f"{elapsed:.2f} s"

    def test_monodromy_weights_of_hundreds_of_digits_within_budget(self, capsys):
        # budget 1 s: the characteristic polynomial of ad X has coefficients
        # of 800 digits, and its rational roots are found by Newton steps from
        # isolating intervals; bisection down to 1/(2 lead^2) took about 20 s
        began = time.perf_counter()
        code, out, _ = run(["monodromy", str(ALGEBRAS / "ex87-51.alg"), "--param", "c=0",
                            "--gen-combo", " 1 ,1,-1,-1,1e3,1e-400", "--from", "1e-400, 1 ,-1e-3",
                            "--t-max", "1", "--steps", "1"], capsys)
        elapsed = time.perf_counter() - began
        n = 10**400 - 1
        assert code == 0
        assert out == (f"None (exact: ad X has real eigenvalues ±√{Fraction(n, 25 * 10**398)}, "
                       f"charpoly λ²(λ⁴-({Fraction(n, 2 * 10**399)})λ²"
                       f"+{Fraction(n * n, 25 * 10**798)}))\n")
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_monodromy_starts_leaving_the_domain(self, tmp_path, capsys):
        # (1 + x^2)*p runs off to infinity before t_max from every start
        path = tmp_path / "sl2.alg"
        path.write_text("vars: x\nfield: p + x^2*p\nfield: x*p\nfield: p - x^2*p\n")
        code, out, _ = run(["monodromy", str(path), "--gen-combo", "1,0,0", "--from", "1/2"],
                           capsys)
        assert code == 0
        assert out == "None (numeric: no start moves inside the domain)\n"

    def test_monodromy_start_of_wrong_length_exit_2(self, capsys):
        # a "never" verdict integrates nothing, so the start is checked up front
        code, out, err = run(["monodromy", str(ALGEBRAS / "ex95-30-1.alg"), "--gen-combo", "1",
                              "--from", "1,2,3"], capsys)
        assert code == 2 and not out
        assert err == "error: --from needs 2 coordinates, got 3\n"

    @pytest.mark.parametrize("combo", ["0,0,0,0,0,1e-400", "0,0,0,0,1e300,1e300"],
                             ids=["underflows", "overflows"])
    def test_monodromy_period_out_of_float_range_exit_1(self, euclid_file, combo, capsys):
        # omega^2 is 10^-800 or 2*10^600: exact, but its period has no float
        code, out, err = run(["monodromy", euclid_file, "--gen-combo", combo,
                              "--from", "0,0,0", "--t-max", "1", "--steps", "1"], capsys)
        assert code == 1 and not out
        assert err.startswith("error: exact: affine, A semisimple, charpoly λ²(λ²+")
        assert err.endswith("), but its period is out of float range\n")
        assert len(err.splitlines()) == 1

    def test_monodromy_fix_points_prove_the_period(self, capsys):
        # criterion (ii) needs a zero of X where the algebra is transitive
        code, out, _ = run(["monodromy", str(ALGEBRAS / "ex94-24.alg"),
                            "--gen-combo", "0,0,0,1,1/2,-1/2", "--from", "2/5,-3/10,1/5",
                            "--t-max", "8", "--fix", "0,0,0", "--fix", "1,1,0"], capsys)
        assert code == 0
        assert out == ("period 6.28318530718 (exact: ad X semisimple, charpoly λ²(λ²+1)², "
                       "returns at 6.283185307 (8 starts within 1e-6))\n")


class TestRepeatedNames:
    """A name given twice among the variables and parameters is malformed
    input: exit 2 with one line, instead of binding the name silently."""

    @pytest.mark.parametrize("text, line, name", [
        ("vars: x x\nfield: p\nfield: x*q\n", 1, "x"),
        ("vars: x y\nparams: x\nfield: p\n", 2, "x"),
        ("params: c y\nvars: x y\nfield: p\n", 2, "y"),
        ("vars: x\nparams: c c\nfield: p\n", 2, "c"),
    ], ids=["vars", "var-and-param", "param-then-var", "params"])
    def test_algebra_file(self, text, line, name, tmp_path, capsys):
        path = tmp_path / "repeat.alg"
        path.write_text(text)
        code, out, err = run(["closure", str(path)], capsys)
        assert code == 2 and not out
        assert err == f"error: line {line}: name {name!r} is given twice among vars and params\n"

    def test_bracket_vars(self, capsys):
        code, out, err = run(["bracket", "p", "x*q", "--vars", "x x"], capsys)
        assert code == 2 and not out
        assert err == "error: name 'x' is given twice among the variables and parameters\n"


class TestUsageErrors:
    """Counts below 1 are usage errors: exit 2 with one line, before any work."""

    @pytest.mark.parametrize("argv, message", [
        (["flow", "{f}", "--gen", "1", "--from", "0,0,0", "--t", "1", "--steps", "0"],
         "error: argument --steps: must be >= 1, got 0\n"),
        (["monodromy", "{f}", "--gen-combo", "0,0,0,1,0,0", "--from", "1,1/2,0",
          "--steps", "0"],
         "error: argument --steps: must be >= 1, got 0\n"),
        (["invariants", "{f}", "--points", "0"],
         "error: argument --points: must be >= 1, got 0\n"),
        (["invariants", "{f}", "--points", "-1"],
         "error: argument --points: must be >= 1, got -1\n"),
        (["verify", "{f}", "--invariant", "x1", "--points", "0"],
         "error: argument --points: must be >= 1, got 0\n"),
        (["invariants", "{f}", "--points", "two"],
         "error: argument --points: invalid int value: 'two'\n"),
        (["invariants", "{p}", "--param", "c=1/0"],
         "error: --param c must be a rational number, got '1/0'\n"),
        (["invariants", "{p}", "--param", "c=abc"],
         "error: --param c must be a rational number, got 'abc'\n"),
        (["verify", "{p}", "--invariant", "x1*c^-1", "--param", "c=0"],
         "error: --invariant 'x1*c^-1' is undefined at c=0\n"),
        (["flow", "{d}/inverse-param.alg", "--gen", "3", "--from", "1,1", "--t", "1",
          "--param", "c=0"],
         "error: X3 is undefined at c=0\n"),
        (["flow", "{f}", "--gen", "1", "--from", "1,1/0,0", "--t", "1"],
         "error: --from must be a rational number, got '1/0'\n"),
        (["flow", "{f}", "--gen", "1", "--from", "1,x,0", "--t", "1"],
         "error: --from must be a rational number, got 'x'\n"),
        (["monodromy", "{f}", "--gen-combo", "1/0", "--from", "1,0,0"],
         "error: --gen-combo must be a rational number, got '1/0'\n"),
        (["monodromy", "{f}", "--gen-combo", "0,0,0,x,0,0", "--from", "1,0,0"],
         "error: --gen-combo must be a rational number, got 'x'\n"),
        (["closure", "{d}/missing.alg"],
         "error: cannot read {d}/missing.alg: No such file or directory\n"),
        (["closure", "{d}"], "error: cannot read {d}: Is a directory\n"),
        (["closure", "{d}/latin1.alg"],
         "error: cannot read {d}/latin1.alg: not UTF-8 text (byte 7)\n"),
        (["flow", "{f}", "--gen", "1", "--from", "0,0,0", "--t", "1",
          "--csv", "{d}/no/such/dir/x.csv"],
         "error: cannot write --csv {d}/no/such/dir/x.csv: No such file or directory\n"),
        (["flow", "{m}", "--gen", "1", "--from", "1,0,0", "--t", "nan"],
         "error: argument --t: must be finite, got nan\n"),
        (["flow", "{m}", "--gen", "1", "--from", "1,0,0", "--t", "1e999"],
         "error: argument --t: must be finite, got inf\n"),
        (["flow", "{m}", "--gen", "1", "--from", "1,0,0", "--t", "one"],
         "error: argument --t: invalid float value: 'one'\n"),
        (["monodromy", "{m}", "--gen-combo", "0,0,0,1,1/2,-1/2", "--from", "2/5,-3/10,1/5",
          "--t-max", "-1"],
         "error: argument --t-max: must be finite and > 0, got -1.0\n"),
        (["monodromy", "{m}", "--gen-combo", "0,0,0,1,1/2,-1/2", "--from", "2/5,-3/10,1/5",
          "--t-max", "nan"],
         "error: argument --t-max: must be finite and > 0, got nan\n"),
        (["monodromy", "{m}", "--gen-combo", "0,0,0,1,1/2,-1/2", "--from", "2/5,-3/10,1/5",
          "--tol", "nan"],
         "error: argument --tol: must be finite and > 0, got nan\n"),
        (["monodromy", "{m}", "--gen-combo", "0,0,0,1,1/2,-1/2", "--from", "2/5,-3/10,1/5",
          "--tol", "-1"],
         "error: argument --tol: must be finite and > 0, got -1.0\n"),
        (["monodromy", "{m}", "--gen-combo", "0,0,0,1,1/2,-1/2", "--from", "2/5,-3/10,1/5",
          "--tol", "0"],
         "error: argument --tol: must be finite and > 0, got 0.0\n"),
        (["monodromy", "{m}", "--gen-combo", "0,0,0,1,1/2,-1/2", "--from", "2/5,-3/10,1/5",
          "--fix", "0,0,0", "--fix", "1,1"],
         "error: --fix needs 3 coordinates, got 2\n"),
        (["monodromy", "{m}", "--gen-combo", "0,0,0,1,1/2,-1/2", "--from", "2/5,-3/10,1/5",
          "--fix", "1,x,0"],
         "error: --fix must be a rational number, got 'x'\n"),
        (["monodromy", "{f}", "--gen-combo", "0,0,0,1,0,0", "--from", "1e400,0,0"],
         "error: --from must be finite as a float, got '1e400'\n"),
        (["monodromy", "{f}", "--gen-combo", "0,0,0,1e400,0,0", "--from", "1,0,0"],
         "error: --gen-combo must be finite as a float, got '1e400'\n"),
        (["monodromy", "{f}", "--gen-combo", "0,0,0,1,0,0", "--from", "1,0,0",
          "--fix", "0,-1e400,0"],
         "error: --fix must be finite as a float, got '-1e400'\n"),
        (["flow", "{f}", "--gen", "4", "--from", "1e400,0,0", "--t", "1"],
         "error: --from must be finite as a float, got '1e400'\n"),
        (["flow", "{f}", "--gen", "4", "--from", "1,1e999999999,0", "--t", "1"],
         "error: --from must be finite as a float, got '1e999999999'\n"),
        (["flow", "{f}", "--gen", "4", "--from", "1" + "0" * 400 + "/3,0,0", "--t", "1"],
         "error: --from must be finite as a float, got '1" + "0" * 400 + "/3'\n"),
        (["invariants", "{p}", "--param", "c=1e400"],
         "error: --param c must be finite as a float, got '1e400'\n"),
        (["closure", "{d}/two-vars.alg"], "error: line 2: a second 'vars:' line\n"),
        (["closure", "{d}/two-params.alg"], "error: line 3: a second 'params:' line\n"),
        (["invariants", "{d}/expect-word.alg"],
         "error: line 5: expect value 'one' is neither true/false/yes/no nor an integer\n"),
        (["invariants", "{d}/expect-twice.alg"],
         "error: line 6: expect 'pair_invariant_count' is given twice\n"),
    ], ids=["flow-steps-0", "monodromy-steps-0", "invariants-points-0",
            "invariants-points-negative", "verify-points-0", "invariants-points-not-int",
            "param-zero-denominator", "param-not-a-number", "invariant-undefined-at-param",
            "generator-undefined-at-param", "from-zero-denominator",
            "from-not-a-number", "gen-combo-zero-denominator", "gen-combo-not-a-number",
            "file-missing", "file-is-directory", "file-not-utf8", "csv-unwritable",
            "t-nan", "t-infinite", "t-not-a-number", "t-max-negative", "t-max-nan",
            "tol-nan", "tol-negative", "tol-zero", "fix-wrong-length", "fix-not-a-number",
            "from-overflows", "gen-combo-overflows", "fix-overflows", "flow-from-overflows",
            "huge-exponent-refused-before-expanding", "ratio-overflows", "param-overflows",
            "vars-twice", "params-twice", "expect-not-a-value", "expect-key-twice"])
    def test_exit_2_with_one_line(self, euclid_file, tmp_path, argv, message, capsys):
        (tmp_path / "latin1.alg").write_bytes(b"vars: x\xe9\nfield: p\n")
        planar = "field: p\nfield: q\nfield: -y*p + x*q\n"
        (tmp_path / "two-vars.alg").write_text("vars: x y z\nvars: x y\n" + planar)
        (tmp_path / "two-params.alg").write_text("vars: x y\nparams: c\nparams: d\n" + planar)
        (tmp_path / "inverse-param.alg").write_text("vars: x y\nparams: c\nfield: p\nfield: q\n"
                                                    "field: c^-1*x*q\n")
        (tmp_path / "expect-word.alg").write_text(
            "vars: x y\n" + planar + "expect: pair_invariant_count=one\n")
        (tmp_path / "expect-twice.alg").write_text(
            "vars: x y\n" + planar + "expect: pair_invariant_count=1\n"
            "expect: pair_invariant_count=0\n")
        keys = dict(f=euclid_file, p=ALGEBRAS / "ex87-51.alg", m=ALGEBRAS / "ex94-24.alg",
                    d=tmp_path)
        code, out, err = run([a.format(**keys) for a in argv], capsys)
        assert code == 2 and not out
        assert err == message.format(**keys)

    def test_missing_argument_one_line(self, capsys):
        code, out, err = run(["flow"], capsys)
        assert code == 2 and not out
        assert err.startswith("error: the following arguments are required: file")
        assert len(err.splitlines()) == 1


class TestMobility:
    def test_expectation_checked(self, euclid_file, capsys):
        code, out, _ = run(["mobility", euclid_file], capsys)
        assert code == 0
        assert out.strip() == "free mobility: true"

    def test_intransitive_algebra_named_as_such(self, tmp_path, capsys):
        path = tmp_path / "two.alg"
        path.write_text("vars: x y\nfield: p\n")
        code, out, err = run(["mobility", str(path)], capsys)
        assert code == 1 and not out
        assert err == f"error: {path}: the algebra is not transitive at the base point\n"

    def test_one_dimensional_input_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "line.alg"
        path.write_text("vars: x\nfield: p\nfield: x*p\n")
        code, out, err = run(["mobility", str(path)], capsys)
        assert code == 2 and not out
        assert err == "error: free mobility needs 2 or 3 variables, got 1\n"


class TestCatalogCommand:
    def test_single_entry_text(self, capsys):
        code, out, _ = run(["catalog", "verify", "--entry", "ex94-24", "--seed", "7"], capsys)
        assert code == 0
        assert "ex94-24 [seed 7]: pass" in out
        assert "returns at 6.283185307" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            ["catalog", "verify", "--entry", "thm37-1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["entry"] == "thm37-1"
        assert list(doc[0]) == ["entry", "seed", "checks"]
        assert list(doc[0]["checks"][0]) == ["name", "expected", "observed",
                                             "status", "diagnostics"]

    def test_unknown_entry_exit_2(self, capsys):
        code, out, err = run(["catalog", "verify", "--entry", "nope"], capsys)
        assert code == 2 and not out
        assert err == "error: no catalog entry 'nope'\n"

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        def broken(**kwargs):
            raise KeyError("internal")
        monkeypatch.setattr(cli.CAT, "verify_catalog", broken)
        with pytest.raises(KeyError):
            cli.run(["catalog", "verify"])

    def test_deterministic_stdout(self, capsys):
        code1, out1, _ = run(["catalog", "verify", "--entry", "thm37-9", "--seed", "3"], capsys)
        code2, out2, _ = run(["catalog", "verify", "--entry", "thm37-9", "--seed", "3"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2


class TestOneParser:
    def test_second_run_builds_no_parser(self, monkeypatch, capsys):
        run(["bracket", "p", "q"], capsys)
        built = []
        real = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *a, **k: built.append(1) or real(self, *a, **k))
        assert run(["bracket", "p", "x*q"], capsys) == (0, "q\n", "")
        assert built == []

    def test_in_process_runs_match_fresh_processes(self, capsys):
        # the shared parser keeps no state from one run to the next
        monodromy = ["monodromy", str(ALGEBRAS / "ex94-24.alg"),
                     "--gen-combo", "0,0,0,1,1/2,-1/2", "--from", "2/5,-3/10,1/5",
                     "--t-max", "8", "--fix", "0,0,0", "--fix", "1,1,0"]
        sequence = [["monodromy", "--steps", "0"], monodromy, monodromy,
                    ["catalog", "verify", "--entry", "thm37-6", "--seed", "7"]]
        for argv in sequence:
            in_process = run(argv, capsys)
            proc = fresh_process(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True, encoding="utf-8")
            out, err = proc.communicate()
            assert in_process == (proc.returncode, out, err), argv


class TestClosedPipe:
    def test_reader_closing_stdout_ends_the_run_quietly(self):
        # the JSON report (about 71 KB) outgrows the 64 KB pipe buffer, so the
        # writer meets the closed pipe after the first line has been read
        proc = fresh_process(["catalog", "verify", "--format", "json"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
        first = b""
        while not first.endswith(b"\n"):
            byte = os.read(proc.stdout.fileno(), 1)
            assert byte, "stdout ended before the first line"
            first += byte
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
        assert first == b"[\n"
        assert (proc.returncode, err) == (cli.CLOSED_PIPE, b"")


class TestSeedEnvOverride:
    def test_env_seed(self, euclid_file, capsys, monkeypatch):
        monkeypatch.setenv("SEED", "11")
        code, out, _ = run(["invariants", euclid_file], capsys)
        assert code == 0
        assert out.strip() == "1"


    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_malformed_env_seed_exit_2(self, value, euclid_file, capsys, monkeypatch):
        monkeypatch.setenv("SEED", value)
        code, out, err = run(["invariants", euclid_file], capsys)
        assert code == 2 and not out
        assert err == f"error: SEED must be an integer, got {value!r}\n"

    def test_seed_option_wins_over_env(self, euclid_file, capsys, monkeypatch):
        monkeypatch.setenv("SEED", "abc")
        code, out, _ = run(["invariants", euclid_file, "--seed", "3"], capsys)
        assert code == 0 and out.strip() == "1"


class TestEndToEnd:
    def test_full_catalog_exits_zero(self, capsys):
        code, out, _ = run(["catalog", "verify", "--seed", "2"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if ": pass" in l and "[seed 2]" in l]
        assert len(lines) >= 24
        assert out == (GOLDEN / "catalog_seed2.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("seed, fmt, golden", [
        ("0", "text", "catalog_seed0.txt"),
        ("7", "text", "catalog_seed7.txt"),
        ("0", "json", "catalog_seed0.json"),
    ])
    def test_catalog_report_is_byte_identical(self, seed, fmt, golden, capsys):
        # a change to how ranks are sampled or decided leaves every report byte alone
        code, out, _ = run(["catalog", "verify", "--seed", seed, "--format", fmt], capsys)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

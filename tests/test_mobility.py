import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from liefields import algebra as A, exactla, mobility as M, upoly


V3 = ["x", "y", "z"]
V2 = ["x", "y"]


def pres(name, gens, vars=V3, params=()):
    return A.presentation(name, vars, gens, params)


class TestClassification:
    def test_rotation_periodic(self):
        cls = M.classify_linear_one_param([[0, -1], [1, 0]])
        assert cls.tag == "Periodic"
        assert abs(cls.omega - 1.0) < 1e-9

    def test_shift_rotation_periodic_up_to_scale(self):
        # a rotation plus a uniform dilation never returns in position but is
        # proportional to its start at the rotation period; the recorded
        # factor is the common real part
        cls = M.classify_linear_one_param([[Fraction(1, 2), -1], [1, Fraction(1, 2)]])
        assert cls.tag == "ProjectivelyPeriodic"
        assert cls.shift == pytest.approx(0.5)
        assert cls.omega == pytest.approx(1.0)
        # the homogeneous projective matrix of the same family has a third,
        # differently-shifted eigenvalue and genuinely spirals
        cls2 = M.classify_linear_one_param(
            [[Fraction(1, 2), 1, 0], [-1, Fraction(1, 2), 0], [0, 0, 0]])
        assert cls2.tag == "Spiral"

    def test_spiral_with_distinct_real_parts(self):
        cls = M.classify_linear_one_param([[1, -1], [1, -2]])
        assert cls.tag in ("Spiral", "RealHyperbolic")
        cls2 = M.classify_linear_one_param([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        assert cls2.tag == "Spiral"

    def test_nilpotent_jordan_block(self):
        cls = M.classify_linear_one_param([[0, 1], [0, 0]])
        assert cls.tag == "Nilpotent"

    def test_zero_and_hyperbolic(self):
        assert M.classify_linear_one_param([[0, 0], [0, 0]]).tag == "Zero"
        assert M.classify_linear_one_param([[2, 0], [0, -1]]).tag == "RealHyperbolic"

    def test_jordan_block_on_imaginary_pair_not_periodic(self):
        # eigenvalues +-i twice with one Jordan block each: x(t) grows like t
        jordan = [[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]
        assert M.classify_linear_one_param(jordan).tag != "Periodic"
        h = Fraction(1, 2)
        shifted = [[h, -1, 1, 0], [1, h, 0, 1], [0, 0, h, -1], [0, 0, 1, h]]
        assert M.classify_linear_one_param(shifted).tag != "ProjectivelyPeriodic"
        # a diagonalizable zero block next to a rotation stays periodic
        assert M.classify_linear_one_param(
            [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]).tag == "Periodic"

    def test_jordan_block_rotation_falls_through_to_spiral(self):
        # the documented fall-through: purely imaginary spectrum, not semisimple
        jordan = [[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]
        assert M.classify_linear_one_param(jordan).tag == "Spiral"
        assert upoly.periodicity(jordan) == (None, "is not semisimple, charpoly (λ²+1)²")

    def test_commensurable_pairs_share_period(self):
        cls = M.classify_linear_one_param(
            [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]])
        assert cls.tag == "Periodic"
        assert abs(cls.omega - 1.0) < 1e-9  # common period 2*pi

    def test_incommensurable_pairs_rejected(self):
        # companion matrix of λ⁴+3λ²+1: omega^2 = (3 +- sqrt 5)/2, irrational ratio
        cls = M.classify_linear_one_param(
            [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -3], [0, 0, 1, 0]])
        assert cls.tag != "Periodic"

    def test_float_entry_rejected(self):
        # a float is a dyadic rational: sqrt(2) as a float is commensurable with 1
        root2 = math.sqrt(2)
        with pytest.raises(TypeError):
            M.classify_linear_one_param(
                [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -root2], [0, 0, root2, 0]])

    def test_close_large_frequencies_share_period(self):
        # frequencies 10^6 and 10^6 + 1 return together at 2*pi
        w = 10**6
        cls = M.classify_linear_one_param(
            [[0, -w, 0, 0], [w, 0, 0, 0], [0, 0, 0, -w - 1], [0, 0, w + 1, 0]])
        assert cls.tag == "Periodic"
        assert cls.omega == 1.0

    def test_any_dimension(self):
        # diag(R(1), R(2), 0) is 5x5
        cls = M.classify_linear_one_param(
            [[0, -1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, -2, 0], [0, 0, 2, 0, 0],
             [0, 0, 0, 0, 0]])
        assert cls.tag == "Periodic"
        assert cls.omega == 1.0

    def test_nondiagonalizable_zero_block_not_periodic(self):
        cls = M.classify_linear_one_param(
            [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        assert cls.tag != "Periodic"


class TestSevenForms:
    def test_exactly_one_periodic(self):
        rows = M.classify_seven_forms()
        periodic = [r for r in rows if r.classification.tag == "Periodic"]
        assert len(periodic) == 1
        assert periodic[0].index == 7

    def test_rejection_witnesses(self):
        rows = {r.index: r for r in M.classify_seven_forms()}
        assert rows[1].witness == "eta = 0"
        assert rows[2].witness == "line at infinity"
        assert rows[3].witness is not None
        assert rows[4].witness == "xi = 0"
        assert rows[5].witness == "eta = 0"

    def test_sixth_form_spirals(self):
        rows = {r.index: r for r in M.classify_seven_forms()}
        assert rows[6].classification.tag == "Spiral"
        assert rows[6].witness is None

    def test_classification_stable_across_samples(self):
        for c in (Fraction(-2), Fraction(1, 2), Fraction(3)):
            rows = M.classify_seven_forms(c_samples=(c,) if c not in (0, 1) else (Fraction(2),))
            tags = [r.classification.tag for r in rows]
            assert tags[6] == "Periodic"
            assert tags[5] == "Spiral"
            assert all(t in ("RealHyperbolic", "Nilpotent") for t in tags[:5])


EUCLID = ["p", "q", "r", "x*q - y*p", "y*r - z*q", "z*p - x*r"]


class TestFreeMobility:
    def test_euclid_true(self):
        verdict = M.free_mobility_infinitesimal(pres("euclid", EUCLID))
        assert verdict.free_mobility is True

    def test_planar_family_true_at_samples(self):
        fam = pres("fam", ["p", "q", "y*p - x*q + c*(x*p + y*q)"], vars=V2, params=["c"])
        for c in (Fraction(0), Fraction(1, 2)):
            verdict = M.free_mobility_infinitesimal(fam, param_values={0: c})
            assert verdict.free_mobility is True, c

    def test_group_45_fails_on_fixed_direction(self):
        g45 = pres("g45", ["p - y*r", "q + x*r", "r", "x*q", "x*p - y*q", "y*p"])
        verdict = M.free_mobility_infinitesimal(g45)
        assert verdict.free_mobility is False
        assert "direction" in verdict.failing_stage
        # the fixed class is the z'-axis
        assert verdict.witness in ((0, 0, 1), (Fraction(0), Fraction(0), Fraction(1)))

    def test_full_planar_affine_fails(self):
        aff = pres("aff", ["p", "q", "x*p", "x*q", "y*p", "y*q"], vars=V2)
        verdict = M.free_mobility_infinitesimal(aff)
        assert verdict.free_mobility is False

    def test_curvature_groups_true_entries_8_to_11_false(self):
        from liefields import catalog as CAT
        for eid, expected in [("thm37-1", True), ("thm37-3", True), ("thm37-4", True),
                              ("thm37-8", False), ("thm37-9", False),
                              ("thm37-10", False), ("thm37-11", False)]:
            entry = CAT.entry_by_id(eid)
            L = entry.presentation()
            pv = entry.param_value_maps()[0]
            verdict = M.free_mobility_infinitesimal(L, param_values=pv or None)
            assert verdict.free_mobility is expected, eid
            if not expected:
                assert verdict.failing_stage

    def test_inconsistent_plane_action_raises(self, monkeypatch):
        # rotation about the z-axis stabilises v = e3 and turns v-perp
        rot = [[Fraction(0), Fraction(-1), Fraction(0)],
               [Fraction(1), Fraction(0), Fraction(0)],
               [Fraction(0), Fraction(0), Fraction(0)]]
        v = [Fraction(0), Fraction(0), Fraction(1)]
        assert M._restrict_to_plane_action([rot], [[Fraction(1)]], v) == [[[0, -1], [1, 0]]]
        solve = exactla.solve
        monkeypatch.setattr(exactla, "solve", lambda matrix, rhs: [
            (x, False) for x, _consistent in solve(matrix, rhs)])
        with pytest.raises(ValueError, match="plane action"):
            M._restrict_to_plane_action([rot], [[Fraction(1)]], v)

    def test_irrational_plane_direction_is_its_quadratic(self):
        # J (1, s) is parallel to (1, s) iff 2 s^2 = 1: the directions (1, +-1/sqrt 2)
        J = [[Fraction(0), Fraction(2)], [Fraction(1), Fraction(0)]]
        assert M._common_fixed_direction_2d([J]) == (
            (1, 0, Fraction(-1, 2)), ((1, 0), (0, 1)))
        rotation = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
        assert M._common_fixed_direction_2d([rotation]) is None

    def test_irrational_space_direction_is_exact(self):
        # the companion matrix of x^3 - 2 and its square share the real
        # eigenvector (r^2, r, 1), r = 2^(1/3), and no rational direction
        C = [[Fraction(v) for v in row] for row in ([0, 0, 2], [1, 0, 0], [0, 1, 0])]
        C2 = [[sum(C[i][k] * C[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        s, c = M._common_fixed_direction_3d([C, C2], random.Random(0))
        assert all(type(v) is Fraction for v in list(s) + [x for ck in c for x in ck])
        assert len(s) == 4 and not upoly.rational_roots(s)
        assert exactla.rank(c) == 3
        [r] = [z.real for z in np.roots([float(v) for v in s]) if abs(z.imag) < 1e-9]
        v = sum(r ** k * np.array([float(x) for x in ck]) for k, ck in enumerate(c))
        cube_root = 2 ** (1 / 3)
        assert np.allclose(np.cross(v, [cube_root ** 2, cube_root, 1]), 0, atol=1e-9 * abs(v).max())

    def test_irrational_space_direction_not_shared(self):
        C = [[Fraction(v) for v in row] for row in ([0, 0, 2], [1, 0, 0], [0, 1, 0])]
        D = [[Fraction(int(i == j) * (i + 1)) for j in range(3)] for i in range(3)]
        assert M._common_fixed_direction_3d([C, D], random.Random(0)) is None

    def test_unsupported_dimension(self):
        L = pres("line", ["d1"], vars=["x"])
        with pytest.raises(M.UnsupportedDimension):
            M.free_mobility_infinitesimal(L)


class TestWithoutNumpy:
    def test_catalog_entries_decide_without_numpy(self):
        # free mobility of thm37-1 and the P*e^g invariants of ex90-62a and
        # ex94-24 take the exact paths; numpy is a test dependency only
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "from liefields import cli\n"
                "sys.exit(max(cli.run(['catalog', 'verify', '--seed', '0', '--entry', e]) for e in sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", code, "thm37-1", "ex90-62a", "ex94-24"],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr
        for entry in ("thm37-1", "ex90-62a", "ex94-24"):
            assert f"{entry} [seed 0]: pass" in result.stdout

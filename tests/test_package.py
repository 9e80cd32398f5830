"""Package surface in fresh interpreters: exports, demos, python -O."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAST_DEMOS = ["branch_of_sqrt_det.py", "cocycle_to_sign.py",
              "coset_walkthrough.py", "transformation_laws.py",
              "trivialize_theta_group.py"]


def src_env() -> dict:
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("module", ["thetacover", "thetacover.theta",
                                    "thetacover.harness"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_fast_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=src_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_validation_survives_optimize():
    # python -O strips assert statements; input checks must still raise
    code = """
import numpy as np
from fractions import Fraction
from thetacover import (CoverElement, IntegerSymplectic, MonomialMatrix, Mu8,
                        SiegelPoint, ThetaParams, big_theta, coset_table,
                        enumerate_isotropic, gamma_pair, j_matrix,
                        make_generator, mobius_act, q0_eval,
                        random_word_element, rao_cocycle, sample_gamma48,
                        sample_point, sqrt_det, subgroup_membership,
                        symplectic_gauss_sum, theta_component, theta_series,
                        transvection_rep, verify_scalar_law,
                        verify_vector_law)
from thetacover.exactla import (box_sides, congruence_signature, det,
                                hnf_with_transform, inv)
from thetacover.f2cosets import refine_rep
assert False, "asserts are live: not running under -O"
cases = [lambda: IntegerSymplectic([[1, 1], [0, 2]]),
         lambda: IntegerSymplectic([[1, 0, 0], [0, 1, 0]]),
         lambda: SiegelPoint([[0.0, 1.0], [0.0, 0.0]], np.eye(2)),
         lambda: SiegelPoint(np.zeros((2, 2)), [[1.0, 0.5], [0.0, 1.0]]),
         lambda: SiegelPoint(np.zeros((1, 1)), np.eye(2)),
         lambda: SiegelPoint([[0.0]], [[float("inf")]]),
         lambda: SiegelPoint([[float("nan")]], [[1.0]]),
         lambda: CoverElement(IntegerSymplectic.identity(1), 0),
         lambda: MonomialMatrix(2, (0, 0), (Mu8(0), Mu8(0))),
         lambda: q0_eval((1, 0, 1)),
         lambda: transvection_rep((1, 1)),
         lambda: transvection_rep((1, 0, 1)),
         lambda: refine_rep((1, 1)),
         lambda: refine_rep((0, 1, 1)),
         lambda: rao_cocycle(make_generator("omega", 1),
                             make_generator("omega", 2)),
         lambda: make_generator("omega", 1) @ make_generator("omega", 2),
         lambda: make_generator("h", 2, a=[[1, 0, 0], [0, 1, 0]]),
         lambda: make_generator("h", 2, a=[[1]]),
         lambda: make_generator("h", 2, a=[[1, 0], [0, 1], [0, 0]]),
         lambda: make_generator("u", 2, b=[[1]]),
         lambda: make_generator("iota", 2, i=1, g=[[1]]),
         lambda: make_generator("iota_pair", 2, jk=(1, 2), g=[[0, -1], [1, 0]]),
         lambda: random_word_element(2, "Sp", length=-3, seed=1),
         lambda: sample_gamma48(2, np.random.default_rng(0), factors=0),
         lambda: (MonomialMatrix(2, (0, 1), (Mu8(0),) * 2)
                  @ MonomialMatrix(3, (0, 1, 2), (Mu8(0),) * 3)),
         lambda: Mu8(2).as_sign(),
         # an exponent that int() would truncate, parse or overflow on
         lambda: Mu8(1.5),
         lambda: Mu8("3"),
         lambda: Mu8(float("inf")),
         lambda: sqrt_det(make_generator("u_ij", 2, i=1, j=1, t=2),
                          SiegelPoint.z0(1)),
         lambda: j_matrix(make_generator("omega", 2), SiegelPoint.z0(1)),
         lambda: mobius_act(make_generator("omega", 1), SiegelPoint.z0(2)),
         lambda: j_matrix(np.eye(3), SiegelPoint.z0(1)),
         lambda: gamma_pair(SiegelPoint.z0(1), SiegelPoint.z0(2)),
         lambda: congruence_signature([[0, 1], [0, 0]]),
         lambda: det([[1, 2]]),
         lambda: inv([[1, 2], [2, 4]]),
         # a residue box of a lattice without full rank
         lambda: box_sides([[0]]),
         lambda: box_sides([[2, 1], [0, 0]]),
         # a weight, genus, subgroup or index that has no meaning
         lambda: theta_series(SiegelPoint.z0(1), "one"),
         lambda: theta_component(coset_table(1)[0], SiegelPoint.z0(1), "one"),
         lambda: big_theta(SiegelPoint.z0(1), "one"),
         lambda: theta_component(coset_table(1)[0], SiegelPoint.z0(2), "half"),
         lambda: make_generator("u_minus", 2, c=[[0, 1], [0, 0]]),
         # parameters that would make a generator that is not symplectic:
         # the checks of each kind are the only guard
         lambda: make_generator("u", 2, b=[[0, 1], [2, 0]]),
         lambda: make_generator("iota", 2, i=1, g=[[1, 1], [0, 2]]),
         lambda: make_generator("iota_pair", 2, jk=(1, 2),
                                g=[[1, 1, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 1, 0], [0, 0, 0, 1]]),
         lambda: make_generator("v_ij", 2, i=1, j=1),
         lambda: random_word_element(2, "Gamma4_8", length=3, seed=1),
         # entries that int() would truncate or parse
         lambda: IntegerSymplectic([[1.9, 0], [0, 1]]),
         lambda: IntegerSymplectic([["1", "0"], ["0", "1"]]),
         lambda: make_generator("u", 1, b=[[0.5]]),
         lambda: make_generator("u_ij", 2, i=1, j=2, t=1.5),
         lambda: make_generator("v_ij", 2, i=1, j=2, t=0.5),
         lambda: symplectic_gauss_sum([[1.5]], [[-4]]),
         lambda: transvection_rep((1.5, 0)),
         lambda: q0_eval((1.9, 1)),
         lambda: q0_eval(("1", 1)),
         lambda: q0_eval((1, 1, 1, 0.5)),
         lambda: hnf_with_transform([[1.5, 0], [0, 1]]),
         lambda: hnf_with_transform([[Fraction(1, 2)]]),
         # counts that range() or product() would refuse with a TypeError
         lambda: coset_table(2.5),
         lambda: enumerate_isotropic("2"),
         lambda: verify_scalar_law(1, trials=2.5),
         lambda: verify_vector_law(1, trials=2.5),
         # a seed numpy would refuse with its own message, or len() on
         # None, and a tol the comparison would refuse with a TypeError
         lambda: verify_scalar_law(1, trials=1, seed=1.5),
         lambda: verify_vector_law(1, trials=1, seed=1.5),
         lambda: verify_scalar_law(1, trials=1, seed=None),
         lambda: verify_vector_law(1, trials=1, seed=None),
         lambda: verify_scalar_law(1, trials=1, seed=-1),
         lambda: verify_vector_law(1, trials=1, seed=-1),
         lambda: verify_scalar_law(1, trials=1, tol="x"),
         lambda: verify_vector_law(1, trials=1, tol="x"),
         lambda: make_generator("omega", 2.5),
         lambda: make_generator("u_ij", 2, i=1.5, j=1),
         lambda: random_word_element(2.5, "Sp", length=3, seed=1),
         lambda: random_word_element(2, "Sp", length=2.5, seed=1),
         lambda: random_word_element(2, "Sp", length=3, seed=1.5),
         lambda: random_word_element(2, "Sp", length=3, seed=float("nan")),
         # a subgroup name that is not a str
         lambda: subgroup_membership(make_generator("omega", 1), 12),
         lambda: subgroup_membership(make_generator("omega", 1), ["Sp"]),
         lambda: sample_point(2.5, np.random.default_rng(0)),
         # a tail_tol that is not a number
         lambda: ThetaParams(tail_tol="0.5"),
         lambda: ThetaParams(tail_tol=None),
         lambda: SiegelPoint.z0(2.5),
         lambda: IntegerSymplectic.identity(1.5),
         lambda: sample_gamma48(2, np.random.default_rng(0), factors=2.5),
         # entries on which int() raises OverflowError
         lambda: IntegerSymplectic([[float("inf"), 0], [0, 1]]),
         lambda: make_generator("u", 1, b=[[float("inf")]]),
         lambda: symplectic_gauss_sum([[float("inf")]], [[1]]),
         # entries and counts on which int() raises TypeError
         lambda: Mu8(1 + 0j),
         lambda: IntegerSymplectic([[1 + 0j, 0], [0, 1]]),
         lambda: make_generator("omega", None),
         lambda: coset_table(None),
         # a lift sign that is not +-1 by the as_int rule
         lambda: CoverElement(IntegerSymplectic.identity(1), 1.5),
         lambda: CoverElement(IntegerSymplectic.identity(1), None),
         # a genus below 1
         lambda: SiegelPoint.z0(0),
         lambda: SiegelPoint(np.zeros((0, 0)), np.zeros((0, 0))),
         lambda: sample_point(0, np.random.default_rng(0))]
unit4 = [[int(r == c) for c in range(4)] for r in range(4)]
cases.append(lambda: make_generator("iota_pair", 2, jk=(1, 1), g=unit4))
for bad in (0, 3):
    cases += [lambda bad=bad, kind=kind: make_generator(kind, 2, i=bad, j=1)
              for kind in ("u_ij", "u_minus_ij", "v_ij")]
    cases += [lambda bad=bad: make_generator("iota", 2, i=bad, g=[[1, 1], [0, 1]]),
              lambda bad=bad: make_generator("iota_pair", 2, jk=(1, bad), g=unit4),
              lambda bad=bad: make_generator("omega_S", 2, S={bad})]
for case in cases:
    try:
        case()
    except ValueError:
        continue
    raise SystemExit("accepted invalid input")
if coset_table(2.0) is not coset_table(2):
    raise SystemExit("coset_table keyed 2.0 apart from 2")
if SiegelPoint.z0(2.0) is not SiegelPoint.z0(2):
    raise SystemExit("SiegelPoint.z0 keyed 2.0 apart from 2")
if type(CoverElement(IntegerSymplectic.identity(1), 1.0).eps) is not int:
    raise SystemExit("CoverElement kept a float eps")
print("ok")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "ok"


def test_direct_sums_hold_no_point_list():
    # m = 3, R = 42: 614,125 points.  A complex tensor over the box is
    # 9.8 MB; a list of int64 points and its sorted copy, 14.7 MB each.
    code = """
import resource
import numpy as np
from thetacover import SiegelPoint, ThetaParams, theta_series, truncation_radius
z = SiegelPoint(np.zeros((3, 3)), 0.0055 * np.eye(3))
assert truncation_radius(z.Y, ThetaParams()) == 42
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
theta_series(z, "half")
theta_series(z, "three_half")
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) / 1024)
"""
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 48, f"peak RSS rose by {proc.stdout.strip()} MB"


def test_benchmark_tracer_binds_the_library(monkeypatch):
    # perfbench's tracer patches names it reads off the library and binds
    # hook arguments by name: a deletion that breaks it must fail here too
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    import thetacover as tc
    from thetacover import cocycle, theta
    original = cocycle.pws_decompose
    assert theta.pws_decompose is original
    tr = tracing.Tracer()
    patch = tracing.Patch(tr)
    tr.current_item = 0
    with patch.installed():
        assert theta.pws_decompose is tc.pws_decompose is not original
        tc.theta_component(tc.coset_table(1)[1], tc.SiegelPoint.z0(1), "half",
                           params=tc.ThetaParams())
        tc.symplectic_gauss_sum([[1]], c=[[4]])
        tc.beta_tilde(g=tc.make_generator("omega", 1))
    calls = {name: tr.totals(tracing.ITEMS)[name][0]
             for name in ("theta.theta_component", "gauss.symplectic_gauss_sum",
                          "gauss.beta_tilde")}
    assert calls == {"theta.theta_component": 1,
                     "gauss.symplectic_gauss_sum": 1, "gauss.beta_tilde": 1}
    assert tr.counts["theta.theta_component.lattice_points"] > 0
    assert tr.counts["gauss.symplectic_gauss_sum.classes"] == 4
    assert tr.counts["gauss.beta_tilde.degenerate_calls"] == 0

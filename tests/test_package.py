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
from thetacover import (CoverElement, IntegerSymplectic, Lagrangian,
                        MonomialMatrix, Mu8, SiegelPoint, ThetaComponentValue,
                        make_generator, q0_eval, rao_cocycle, sqrt_det,
                        transvection_rep)
from thetacover.f2cosets import refine_rep
assert False, "asserts are live: not running under -O"
cases = [lambda: IntegerSymplectic([[1, 1], [0, 2]]),
         lambda: IntegerSymplectic([[1, 0, 0], [0, 1, 0]]),
         lambda: SiegelPoint([[0.0, 1.0], [0.0, 0.0]], np.eye(2)),
         lambda: SiegelPoint(np.zeros((2, 2)), [[1.0, 0.5], [0.0, 1.0]]),
         lambda: SiegelPoint(np.zeros((1, 1)), np.eye(2)),
         lambda: Lagrangian([[1, 0, 0, 0], [2, 0, 0, 0]]),
         lambda: Lagrangian([[1, 0, 0, 0], [0, 0, 1, 0]]),
         lambda: CoverElement(IntegerSymplectic.identity(1), 0),
         lambda: MonomialMatrix(2, (0, 0), (Mu8(0), Mu8(0))),
         lambda: ThetaComponentValue((0, 0), 1.0, 2.0),
         lambda: q0_eval((1, 0, 1)),
         lambda: transvection_rep((1, 1)),
         lambda: transvection_rep((1, 0, 1)),
         lambda: refine_rep((1, 1)),
         lambda: refine_rep((0, 1, 1)),
         lambda: rao_cocycle(make_generator("omega", 1),
                             make_generator("omega", 2)),
         lambda: make_generator("omega", 1) @ make_generator("omega", 2),
         lambda: Mu8(2).as_sign(),
         lambda: sqrt_det(make_generator("u_ij", 2, i=1, j=1, t=2),
                          SiegelPoint.z0(1))]
for case in cases:
    try:
        case()
    except ValueError:
        continue
    raise SystemExit("accepted invalid input")
print("ok")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "ok"

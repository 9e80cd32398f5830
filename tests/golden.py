"""Golden answers: the library's outputs on seeded inputs, checked in.

tests/golden.json holds what the functions below return; test_golden.py
recomputes them and compares.  Regenerate the file with

    PYTHONPATH=src python tests/golden.py

Only a change that means to move outputs regenerates it, and says why.

What is pinned:
- exact values, compared for equality: Mu8 exponents of m_xstar,
  rao_cocycle, beta_tilde and lambda_multiplier on seeded words; the coset
  tables; the image (permutation and exponents) of every letter of the Sp
  word alphabet; each law trial's drawn element and lift; the verdicts;
- floats, compared to REL_TOL relative (|a - b| <= REL_TOL max(1, |b|)):
  each law trial's point z = X + iY and the selftest values.

Not pinned: the law reports' errors and worst-case trial, which sit at
rounding level and move with any rounding-level change of a lattice sum,
the Gauss sums' snap residuals and the selftest's abs_error.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from thetacover import (beta_tilde, cli, coset_table, harness,
                        lambda_multiplier, m_xstar, random_word_element,
                        rao_cocycle)
from thetacover.symplectic import _alphabet, _subgroup

PATH = Path(__file__).with_name("golden.json")
REL_TOL = 1e-13
GENERA = (1, 2, 3, 4)           # exponents and coset tables
IMAGE_GENERA = (1, 2, 3)        # letter images and laws (m = 4 takes seconds)
WORDS = 40                      # seeded words per genus and sampler
LAW_SEEDS = (0, 3, 7)
LAW_TRIALS = {1: 20, 2: 10, 3: 4}


def _rows(g) -> list:
    return [list(row) for row in g.rows]


def _words(m: int, group: str) -> list:
    """WORDS seeded words of 6 to 20 letters."""
    return [random_word_element(m, group, length=6 + seed % 15, seed=seed)[0]
            for seed in range(WORDS)]


def exponents(m: int) -> dict:
    """Exact Mu8 exponents on seeded words: m_xstar of Sp words, rao_cocycle
    of each Sp word with the next (cyclically), beta_tilde and
    lambda_multiplier of Gamma(1,2) words; the words' rows alongside."""
    sp, theta = _words(m, "Sp"), _words(m, "Gamma(1,2)")
    return {
        "sp_words": [_rows(g) for g in sp],
        "m_xstar": [m_xstar(g).exponent for g in sp],
        "rao_cocycle": [rao_cocycle(g1, g2).exponent
                        for g1, g2 in zip(sp, sp[1:] + sp[:1])],
        "theta_words": [_rows(r) for r in theta],
        "beta_tilde": [beta_tilde(r).value.exponent for r in theta],
        "lambda": [lambda_multiplier(r).exponent for r in theta],
    }


def cosets(m: int) -> list:
    """Every record of coset_table(m), in table order."""
    return [{"q": list(rec.q), "M_prime": _rows(rec.M_prime), "M": _rows(rec.M),
             "m_q": list(rec.m_q), "eps_q": list(rec.eps_q),
             "m_xstar_q": rec.m_xstar_q.exponent, "kappa": rec.kappa}
            for rec in coset_table(m)]


def _plain(params: dict) -> dict:
    return {k: sorted(v) if isinstance(v, frozenset) else v
            for k, v in sorted(params.items())}


def letter_images(m: int) -> list:
    """gamma_bar of the plus lift of every letter of the Sp alphabet."""
    out = []
    for kind, params, letter in _alphabet(m, _subgroup("Sp")):
        image = harness._letter_image(letter)
        out.append({"kind": kind, "params": _plain(params),
                    "perm": list(image.perm),
                    "exponents": [c.exponent for c in image.coeffs]})
    return out


def law(theorem: str, m: int, seed: int) -> dict:
    """The verdict of one law run and each trial's element, lift (vector
    law) and point, recorded where the trial loop draws the point."""
    drawn = []
    workable_point = harness._workable_point

    def record(m, r, rng, params):
        z, rz = workable_point(m, r, rng, params)
        drawn.append({"element": _rows(r), "z_X": z.X.tolist(),
                      "z_Y": z.Y.tolist()})
        return z, rz

    verify = {"scalar": harness.verify_scalar_law,
              "vector": harness.verify_vector_law}[theorem]
    harness._workable_point = record
    try:
        report = verify(m, trials=LAW_TRIALS[m], seed=seed)
    finally:
        harness._workable_point = workable_point
    if theorem == "vector":
        for t, trial in enumerate(drawn):
            trial["lift"] = harness._vector_draw(m, seed, t)[2].eps
    return {"theorem": report.theorem, "m": report.m, "trials": report.trials,
            "tol": report.tol, "passed": report.passed, "drawn": drawn}


def selftest() -> dict:
    """thetacover selftest's JSON without the abs_error of each check."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cli_run(["selftest"])
    report = json.loads(out.getvalue())
    for check in report["checks"]:
        del check["abs_error"]
    return {"exit": code, **report}


def compute() -> dict:
    return {
        "exponents": {str(m): exponents(m) for m in GENERA},
        "cosets": {str(m): cosets(m) for m in GENERA},
        "letter_images": {str(m): letter_images(m) for m in IMAGE_GENERA},
        "laws": {f"{theorem}-m{m}-seed{seed}": law(theorem, m, seed)
                 for theorem in ("scalar", "vector")
                 for m in IMAGE_GENERA for seed in LAW_SEEDS},
        "selftest": selftest(),
    }


if __name__ == "__main__":
    PATH.write_text(json.dumps(compute(), sort_keys=True, separators=(",", ":"))
                    + "\n")
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes)")

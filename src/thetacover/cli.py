"""Command line front end.

Each subcommand returns its report, a dict, or the aligned text of
coset-table --text, and neither prints nor picks an exit code.  cli_run
alone prints one report per run, a dict as JSON stamped with "schema",
and picks the exit code: 0 success, 1 a verification ran and failed (a
report with "passed": false), 2 malformed input.  Every ValueError and
CapacityError that a subcommand's input raises, in the file readers here
or in the library, means exit 2, with its message as the report's
"error".  So does a command line that argparse refuses, such as a flag
that does not parse or a missing required one, before any subcommand
runs; --help prints its usage and exits 0.  Matrix files are JSON
objects {"m": int, "entries": [[...]]} with integer entries, 2m x 2m for
group elements and m x m for plain blocks; points of the Siegel half
space are {"m": int, "X": [[...]], "Y": [[...]]}, with finite entries.
A config file given with --config holds default flag values under their
long names.  Reports are strict JSON: a float that is not finite, such as
the infinite error of a failed trial, prints as the string "inf", "-inf"
or "nan", never as the bare Infinity or NaN that strict parsers refuse.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from .cocycle import cbar_cocycle, m_xstar, rao_cocycle
from .f2cosets import coset_table
from .gauss import _gauss_sum_parts, _lambda_of, beta_tilde, \
    lambda_multiplier, modified_cocycle, symplectic_gauss_sum
from .harness import verify_scalar_law, verify_vector_law
from .symplectic import IntegerSymplectic, SiegelPoint, make_generator
from .theta import CapacityError, ThetaParams, det_invsqrt, gamma_pair, \
    j_half, sqrt_det, theta_component, theta_series, truncation_radius

SCHEMA = "thetacover-report/1"


def _cplx(v) -> dict:
    v = complex(v)
    return {"re": v.real, "im": v.imag}


def _finite(obj):
    """obj with every float that is not finite replaced by its str, "inf",
    "-inf" or "nan", in dicts and lists at any depth."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    return data


def _int_matrix(data, path: str, rows: int, cols: int) -> list:
    try:
        mat = [[_number(x, int, path) for x in row] for row in data]
    except (TypeError, ValueError):
        raise ValueError(f"{path}: entries must be integers") from None
    if len(mat) != rows or any(len(r) != cols for r in mat):
        raise ValueError(f"{path}: expected a {rows}x{cols} matrix")
    return mat


def _number(val, kind: type, what: str):
    """A JSON number as kind, int or float: no bool, string or truncation."""
    allowed = int if kind is int else (int, float)
    if isinstance(val, bool) or not isinstance(val, allowed):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} must be {noun}")
    return kind(val)


def _load_matrix(path: str, per_m: int) -> list:
    """Entries of a {"m", "entries"} file, checked to be (per_m m) x (per_m m)."""
    data = _load_json(path)
    if "m" not in data or "entries" not in data:
        raise ValueError(f"{path}: needs keys 'm' and 'entries'")
    n = per_m * _number(data["m"], int, f"{path}: m")
    return _int_matrix(data["entries"], path, n, n)


def _load_symplectic(path: str) -> IntegerSymplectic:
    mat = _load_matrix(path, 2)
    try:
        return IntegerSymplectic(mat)
    except ValueError as e:
        raise ValueError(f"{path}: not symplectic: {e}") from None


def _load_point(path: str) -> SiegelPoint:
    data = _load_json(path)
    for key in ("m", "X", "Y"):
        if key not in data:
            raise ValueError(f"{path}: needs keys 'm', 'X' and 'Y'")
    m = _number(data["m"], int, f"{path}: m")
    try:
        X, Y = (np.array([[_number(x, float, path) for x in row]
                          for row in data[key]]) for key in ("X", "Y"))
    except (TypeError, ValueError):
        raise ValueError(f"{path}: X and Y must be numeric matrices") from None
    if X.shape != (m, m) or Y.shape != (m, m):
        raise ValueError(f"{path}: X and Y must be {m}x{m}")
    try:
        return SiegelPoint(X, Y)
    except ValueError as e:
        raise ValueError(f"{path}: not a point of the half space: {e}") from None


def _rows(g: IntegerSymplectic) -> list:
    return [list(r) for r in g.rows]


def _eff(args, cfg: dict, name: str, default):
    val = getattr(args, name, None)
    if val is not None:
        return val
    if name in cfg:
        return _number(cfg[name], type(default), f"config: {name}")
    return default


# --- subcommands ---

def _cmd_coset_table(args, cfg) -> dict | str:
    m = _eff(args, cfg, "m", 1)
    rows = [{
        "q": list(rec.q),
        "M_prime": _rows(rec.M_prime),
        "M": _rows(rec.M),
        "m_q": list(rec.m_q),
        "eps_q": list(rec.eps_q),
        "m_xstar_exponent": rec.m_xstar_q.exponent,
        "kappa": rec.kappa,
    } for rec in coset_table(m)]
    if args.text:
        lines = []
        for r in rows:
            lines.append(f"q={tuple(r['q'])}  m_q={tuple(r['m_q'])}  "
                         f"eps_q={tuple(r['eps_q'])}  "
                         f"m_xstar_exp={r['m_xstar_exponent']}  "
                         f"kappa={r['kappa']:+d}")
            lines.append(f"  M' = {r['M_prime']}")
            lines.append(f"  M  = {r['M']}")
        return "\n".join(lines)
    return {"m": m, "count": len(rows), "cosets": rows}


def _cmd_cocycle(args, cfg) -> dict:
    g1 = _load_symplectic(args.g1)
    g2 = _load_symplectic(args.g2)
    if g1.m != g2.m:
        raise ValueError("g1 and g2 must have the same size")
    return {
        "m": g1.m,
        "c_tilde_exponent": rao_cocycle(g1, g2).exponent,
        "c_bar_sign": cbar_cocycle(g1, g2),
        "m_xstar_exponents": {
            "g1": m_xstar(g1).exponent,
            "g2": m_xstar(g2).exponent,
            "g1g2": m_xstar(g1 @ g2).exponent,
        },
    }


def _cmd_gauss_sum(args, cfg) -> dict:
    d = _load_matrix(args.d, 1)
    c = _load_matrix(args.c, 1)
    value, size, exponent, radical = _gauss_sum_parts(d, c)
    return {
        "value": _cplx(value),
        "abs_det_c": size,
        "radical_order": radical,
        "mu8_exponent": exponent,
    }


def _cmd_beta(args, cfg) -> dict:
    g = _load_symplectic(args.g)
    root = beta_tilde(g)
    return {
        "value": _cplx(root.value.value),
        "mu8_exponent": root.value.exponent,
        "raw": _cplx(root.raw),
        "residual": root.residual,
    }


def _cmd_lambda(args, cfg) -> dict:
    g = _load_symplectic(args.g)
    root = beta_tilde(g)
    lam = _lambda_of(g, root)
    return {
        "value": _cplx(lam.value),
        "mu8_exponent": lam.exponent,
        "residual": root.residual,
    }


def _parse_label(text: str, m: int) -> tuple:
    bits = text.replace(",", "").replace(" ", "").replace("(", "").replace(")", "")
    if len(bits) != 2 * m or any(ch not in "01" for ch in bits):
        raise ValueError(f"component label must be 2m = {2 * m} bits of 0/1")
    return tuple(int(ch) for ch in bits)


def _cmd_theta(args, cfg) -> dict:
    z = _load_point(args.z)
    tol = _eff(args, cfg, "tol", 1e-12)
    weight = {"1/2": "half", "half": "half",
              "3/2": "three_half", "three_half": "three_half"}[args.weight]
    params = ThetaParams(tail_tol=tol)
    report = {"m": z.m, "weight": args.weight,
              "tail_bound": tol, "radius": truncation_radius(z.Y, params)}
    if args.component is None:
        value = theta_series(z, weight, params)
        report["component"] = None
    else:
        q = _parse_label(args.component, z.m)
        recs = [r for r in coset_table(z.m) if r.q == q]
        if not recs:
            raise ValueError(f"label {q} is not isotropic; no such component")
        value = theta_component(recs[0], z, weight, params).value
        report["component"] = list(q)
    report["value"] = _cplx(value) if weight == "half" \
        else [_cplx(v) for v in value]
    return report


def _cmd_verify(args, cfg) -> dict:
    m = _eff(args, cfg, "m", 2)
    trials = _eff(args, cfg, "trials", 200)
    tol = _eff(args, cfg, "tol", 1e-8)
    tail = _eff(args, cfg, "tail_tol", 1e-12)
    seed = _eff(args, cfg, "seed", 0)
    names = {"main1": ["scalar"], "scalar": ["scalar"],
             "main112": ["vector"], "vector": ["vector"],
             "all": ["scalar", "vector"]}
    if args.thm not in names:
        raise ValueError(f"unknown theorem {args.thm!r}")
    reports = []
    for kind in names[args.thm]:
        fn = verify_scalar_law if kind == "scalar" else verify_vector_law
        reports.append(fn(m, trials=trials, tol=tol, seed=seed,
                          params=ThetaParams(tail_tol=tail)))
    return {"reports": [r.as_dict() for r in reports],
            "passed": all(r.passed for r in reports)}


def _selftest_checks() -> list:
    z0 = SiegelPoint.z0(1)
    om = make_generator("omega", 1)
    u1 = make_generator("u_ij", 1, i=1, j=1, t=1)
    um2 = make_generator("u_minus_ij", 1, i=1, j=1, t=2)
    um4 = make_generator("u_minus_ij", 1, i=1, j=1, t=4)
    g345 = IntegerSymplectic(((-3, 4), (-4, 5)))
    rec01 = [r for r in coset_table(1) if r.q == (0, 1)][0]

    def iota2(mat, i):
        return make_generator("iota", 2, i=i, g=mat)

    checks = [
        ("theta_half_at_i", theta_series(z0, "half"), 1.0864348112133082),
        ("alternating_component_at_i",
         theta_component(rec01, z0, "half").value, 0.9135791381561169),
        ("gamma_pair_4i_i",
         gamma_pair(SiegelPoint([[0]], [[4]]), z0), 2 / 5 ** 0.5),
        ("det_invsqrt_1_minus_i", det_invsqrt([[1 - 1j]]),
         2 ** -0.25 * cmath.exp(1j * cmath.pi / 8)),
        ("gauss_sum_1_minus4", symplectic_gauss_sum([[1]], [[-4]]),
         2 * cmath.exp(-1j * cmath.pi / 4)),
        ("beta_lower_4", beta_tilde(um4).value.value, cmath.exp(1j * cmath.pi / 4)),
        ("beta_m3_4_m4_5", beta_tilde(g345).value.value,
         -cmath.exp(1j * cmath.pi / 4)),
        ("lambda_omega", lambda_multiplier(om).value,
         cmath.exp(-1j * cmath.pi / 4)),
        ("lambda_lower_2", lambda_multiplier(um2).value, 1),
        ("cocycle_omega_u1_omega", rao_cocycle(om @ u1, om).value,
         cmath.exp(1j * cmath.pi / 4)),
        ("sqrt_det_omega_at_i", sqrt_det(om, z0), cmath.exp(1j * cmath.pi / 4)),
        ("negative_lift_rep_sqrt_det",
         sqrt_det([r for r in coset_table(2) if r.kappa == -1][0].M,
                  SiegelPoint.z0(2)), -1 + 1j),
        ("minus_one_witness",
         modified_cocycle(iota2(((1, 1), (0, 1)), 1),
                          iota2(((1, 0), (-4, 1)), 1)).value, -1),
        ("coset_count_m1", len(coset_table(1)), 3),
        ("coset_count_m2", len(coset_table(2)), 10),
        ("coset_count_m3", len(coset_table(3)), 36),
    ]
    for m in (1, 2, 3):
        checks.append((f"j_half_omega_z0_m{m}",
                       j_half(make_generator("omega", m), SiegelPoint.z0(m)), 1))
    return checks


def _cmd_selftest(args, cfg) -> dict:
    results = []
    for name, got, expected in _selftest_checks():
        err = abs(complex(got) - complex(expected))
        results.append({"name": name, "got": _cplx(got),
                        "expected": _cplx(expected),
                        "abs_error": err, "ok": err < 5e-12})
    return {"checks": results, "passed": all(r["ok"] for r in results)}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the parser of each subcommand, whose refusals
    raise ValueError, so that they reach cli_run's report."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="thetacover",
        description="Coset tables, cocycles, Gauss-sum trivializations and "
                    "theta transformation checks.")
    p.add_argument("--config", help="JSON file with default flag values")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coset-table", help="emit the full coset table")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--text", action="store_true", help="aligned text output")
    sp.set_defaults(fn=_cmd_coset_table)

    sp = sub.add_parser("cocycle", help="cocycle data of a pair of elements")
    sp.add_argument("--g1", required=True, help="matrix file")
    sp.add_argument("--g2", required=True, help="matrix file")
    sp.set_defaults(fn=_cmd_cocycle)

    sp = sub.add_parser("gauss-sum", help="quadratic Gauss sum of a block pair")
    sp.add_argument("--d", required=True, help="block matrix file")
    sp.add_argument("--c", required=True, help="block matrix file")
    sp.set_defaults(fn=_cmd_gauss_sum)

    sp = sub.add_parser("beta", help="trivializing phase of one element")
    sp.add_argument("--g", required=True, help="matrix file")
    sp.set_defaults(fn=_cmd_beta)

    sp = sub.add_parser("lambda", help="theta multiplier of one element")
    sp.add_argument("--g", required=True, help="matrix file")
    sp.set_defaults(fn=_cmd_lambda)

    sp = sub.add_parser("theta", help="evaluate theta sums at a point")
    sp.add_argument("--z", required=True, help="point file")
    sp.add_argument("--weight", choices=["1/2", "3/2", "half", "three_half"],
                    default="1/2")
    sp.add_argument("--component", default=None,
                    help="coset label bits, e.g. 0110")
    sp.add_argument("--tol", type=float, default=None, help="tail bound")
    sp.set_defaults(fn=_cmd_theta)

    sp = sub.add_parser("verify", help="randomized transformation law checks")
    sp.add_argument("--thm", default="all",
                    help="main1 (scalar), main112 (vector), or all")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--tail-tol", dest="tail_tol", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("selftest", help="check the anchored constants")
    sp.set_defaults(fn=_cmd_selftest)
    return p


def cli_run(argv=None) -> int:
    """Run one subcommand, print its report and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
        cfg = {}
        if args.config:
            cfg = {k.replace("-", "_"): v
                   for k, v in _load_json(args.config).items()}
        report = args.fn(args, cfg)
        code = 1 if isinstance(report, dict) and report.get("passed") is False else 0
    except (ValueError, CapacityError) as e:
        report, code = {"error": str(e)}, 2
    print(report if isinstance(report, str)
          else json.dumps(_finite({"schema": SCHEMA, **report}), indent=2,
                          sort_keys=True, allow_nan=False))
    return code


def main() -> None:
    sys.exit(cli_run())


if __name__ == "__main__":
    main()

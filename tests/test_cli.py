"""End-to-end command line checks, run in process."""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetacover import (CapacityError, IntegerSymplectic, Mu8, m_xstar,
                        make_generator)
from thetacover import cli
from thetacover.cli import cli_run


def run(capsys, *argv):
    code = cli_run(list(argv))
    out = capsys.readouterr().out
    return code, out


def refuse_constant(name):
    raise AssertionError(f"not strict JSON: {name}")


def run_json(capsys, *argv):
    """The exit code and the report, parsed as strict JSON: Infinity, -Infinity
    and NaN, which jq and JSON.parse refuse, are refused here too."""
    code, out = run(capsys, *argv)
    return code, json.loads(out, parse_constant=refuse_constant)


def matrix_file(tmp_path, name, g):
    rows = [list(r) for r in g.rows]
    path = tmp_path / name
    path.write_text(json.dumps({"m": len(rows) // 2, "entries": rows}))
    return str(path)


def block_file(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"m": len(entries), "entries": entries}))
    return str(path)


def point_file(tmp_path, name, m, X, Y):
    path = tmp_path / name
    path.write_text(json.dumps({"m": m, "X": X, "Y": Y}))
    return str(path)


def test_selftest_passes(capsys):
    code, rep = run_json(capsys, "selftest")
    assert code == 0
    assert rep["passed"] is True
    assert len(rep["checks"]) == 19
    assert all(c["ok"] for c in rep["checks"])


def run_module(module, *argv):
    """python -m module argv in a fresh interpreter, on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", module, *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def test_module_entry_point_runs_the_cli():
    proc = run_module("thetacover.cli", "selftest")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["passed"] is True and len(rep["checks"]) == 19


def test_package_entry_point_runs_the_cli():
    proc = run_module("thetacover", "coset-table", "--m", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 3


def test_coset_table_counts(capsys):
    for m, count in ((1, 3), (2, 10), (3, 36)):
        code, rep = run_json(capsys, "coset-table", "--m", str(m))
        assert code == 0
        assert rep["count"] == count == len(rep["cosets"])
        assert rep["schema"] == "thetacover-report/1"
    row = rep["cosets"][0]
    assert set(row) == {"q", "M_prime", "M", "m_q", "eps_q",
                        "m_xstar_exponent", "kappa"}


def test_coset_table_text_mode(capsys):
    code, out = run(capsys, "coset-table", "--m", "1", "--text")
    assert code == 0
    assert sum(line.startswith("q=(") for line in out.splitlines()) == 3
    assert "kappa=+1" in out


def test_cocycle_known_pair(capsys, tmp_path):
    om = make_generator("omega", 1)
    u1 = make_generator("u_ij", 1, i=1, j=1, t=1)
    f1 = matrix_file(tmp_path, "g1.json", om @ u1)
    f2 = matrix_file(tmp_path, "g2.json", om)
    code, rep = run_json(capsys, "cocycle", "--g1", f1, "--g2", f2)
    assert code == 0
    assert rep["c_tilde_exponent"] == 1
    assert rep["c_bar_sign"] in (1, -1)
    assert rep["m_xstar_exponents"]["g2"] == 7


def test_gauss_sum_known_value(capsys, tmp_path):
    fd = block_file(tmp_path, "d.json", [[1]])
    fc = block_file(tmp_path, "c.json", [[-4]])
    code, rep = run_json(capsys, "gauss-sum", "--d", fd, "--c", fc)
    assert code == 0
    assert rep["abs_det_c"] == 4
    want = 2 * cmath.exp(-1j * cmath.pi / 4)
    assert abs(complex(rep["value"]["re"], rep["value"]["im"]) - want) < 1e-12
    assert rep["mu8_exponent"] == 7 and rep["radical_order"] == 1


@pytest.mark.parametrize("d, c, value, exponent, radical", [
    # (Z/4, x^2 / 4): R = 2 Z/4, and G = 2 (1 + i)
    ([[2]], [[4]], 2 + 2j, 1, 2),
    # (Z/2, 0): all radical, G = 2
    ([[0]], [[2]], 2, 0, 2),
    # (Z/2, x^2 / 2): q is a nontrivial character of R = A, G = 0
    ([[2]], [[2]], 0, None, None),
    # 1002000 classes, past the count's former guard of 10**6
    ([[1, 0], [0, 1]], [[1000, 0], [0, 1002]], 1002000 ** 0.5 * 1j, 2, 1),
], ids=["degenerate", "all-radical", "zero", "past-the-old-guard"])
def test_gauss_sum_reports_the_radical(capsys, tmp_path, d, c, value,
                                       exponent, radical):
    # |G|^2 = |det c| |R|, R the radical of the module; its exponent and |R|
    # are null only when G = 0
    fd = block_file(tmp_path, "d.json", d)
    fc = block_file(tmp_path, "c.json", c)
    code, rep = run_json(capsys, "gauss-sum", "--d", fd, "--c", fc)
    assert code == 0
    assert set(rep) == {"schema", "value", "abs_det_c", "radical_order",
                        "mu8_exponent"}
    assert abs(complex(rep["value"]["re"], rep["value"]["im"]) - value) < 1e-9
    assert rep["abs_det_c"] == math.prod(c[i][i] for i in range(len(c)))
    assert rep["mu8_exponent"] == exponent and rep["radical_order"] == radical


@pytest.mark.parametrize("d, c", [
    ([[1]], [[3]]),                              # odd diagonal of c d^T
    ([[1, 0], [1, 1]], [[2, 0], [0, 2]]),        # c d^T not symmetric
    ([[1, 0], [0, 1]], [[2]]),                   # sizes differ
])
def test_gauss_sum_ill_defined_exits_2(capsys, tmp_path, d, c):
    fd = block_file(tmp_path, "d.json", d)
    fc = block_file(tmp_path, "c.json", c)
    code, rep = run_json(capsys, "gauss-sum", "--d", fd, "--c", fc)
    assert code == 2 and "Gauss sum needs" in rep["error"]


def test_beta_member_and_rejection(capsys, tmp_path):
    fg = matrix_file(tmp_path, "um4.json",
                     make_generator("u_minus_ij", 1, i=1, j=1, t=4))
    code, rep = run_json(capsys, "beta", "--g", fg)
    assert code == 0
    assert rep["mu8_exponent"] == 1
    assert rep["residual"] < 1e-9

    fbad = matrix_file(tmp_path, "u1.json",
                       make_generator("u_ij", 1, i=1, j=1, t=1))
    code, rep = run_json(capsys, "beta", "--g", fbad)
    assert code == 2
    assert "error" in rep


def test_lambda_omega(capsys, tmp_path):
    fg = matrix_file(tmp_path, "om.json", make_generator("omega", 1))
    code, rep = run_json(capsys, "lambda", "--g", fg)
    assert code == 0
    assert rep["mu8_exponent"] == 7


def test_beta_and_lambda_past_the_old_class_guard(capsys, tmp_path):
    # |det c| = 23165616 classes, which the count refuses past 10**6; the
    # exact root needs no count: beta = e(1/8), with residual 0.0
    g = IntegerSymplectic([[9692521, -2124096], [-23165616, 5076697]])
    fg = matrix_file(tmp_path, "big.json", g)
    code, rep = run_json(capsys, "beta", "--g", fg)
    assert code == 0
    assert rep["mu8_exponent"] == 1 and rep["residual"] == 0.0
    code, rep = run_json(capsys, "lambda", "--g", fg)
    assert code == 0
    assert rep["mu8_exponent"] == (m_xstar(g) * Mu8(-1)).exponent
    assert rep["residual"] == 0.0


def test_theta_plain_and_component(capsys, tmp_path):
    fz = point_file(tmp_path, "z.json", 1, [[0.0]], [[1.0]])
    code, rep = run_json(capsys, "theta", "--z", fz)
    assert code == 0
    assert rep["value"]["re"] == pytest.approx(1.0864348112133082, abs=1e-11)
    assert rep["value"]["im"] == pytest.approx(0.0, abs=1e-12)

    code, rep = run_json(capsys, "theta", "--z", fz, "--component", "01")
    assert code == 0
    assert rep["value"]["re"] == pytest.approx(0.9135791381561169, abs=1e-11)
    assert rep["component"] == [0, 1] and "prefactor_exponent" not in rep

    code, rep = run_json(capsys, "theta", "--z", fz, "--weight", "3/2")
    assert code == 0
    assert abs(rep["value"][0]["re"]) < 1e-10

    # a tail_tol below the smallest normal float: 1 / tol would overflow
    code, rep = run_json(capsys, "theta", "--z", fz, "--tol", "1e-320")
    assert code == 0 and rep["radius"] == 18
    assert rep["value"]["re"] == pytest.approx(1.0864348112133082, abs=1e-11)


def test_theta_input_errors(capsys, tmp_path):
    fz = point_file(tmp_path, "z.json", 1, [[0.0]], [[1.0]])
    # non-isotropic label
    code, rep = run_json(capsys, "theta", "--z", fz, "--component", "11")
    assert code == 2 and "error" in rep
    # malformed label
    code, rep = run_json(capsys, "theta", "--z", fz, "--component", "012")
    assert code == 2 and "error" in rep
    # tail radius beyond capacity
    flat = point_file(tmp_path, "flat.json", 1, [[0.0]], [[1e-6]])
    code, rep = run_json(capsys, "theta", "--z", flat)
    assert code == 2 and "error" in rep
    # a lambda_min so small that the radius overflows a float, and one
    # that asks for a 151-digit radius: refusals too, with short messages
    for y, shown in ((1e-310, "inf"), (1e-300, "2.97e+150")):
        tiny = point_file(tmp_path, "tiny.json", 1, [[0]], [[y]])
        code, rep = run_json(capsys, "theta", "--z", tiny)
        assert code == 2
        assert rep["error"] == f"truncation radius {shown} exceeds cap 64"
    # Y not positive definite
    bad = point_file(tmp_path, "bad.json", 1, [[0.0]], [[-1.0]])
    code, rep = run_json(capsys, "theta", "--z", bad)
    assert code == 2 and "error" in rep
    # JSON's Infinity and NaN parse as floats; the point names them
    for y in (float("inf"), float("nan")):
        nonfinite = point_file(tmp_path, "nonfinite.json", 1, [[0.0]], [[y]])
        code, rep = run_json(capsys, "theta", "--z", nonfinite)
        assert code == 2
        assert rep["error"] == (f"{nonfinite}: not a point of the half space: "
                                "X and Y must be finite")


@pytest.mark.parametrize("y", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_point_is_refused_before_it_is_built(tmp_path, y):
    # SiegelPoint's constructor refuses the entry before numpy computes
    # with it, so nothing reaches stderr (an inf - inf used to print a
    # RuntimeWarning)
    path = tmp_path / "z.json"
    path.write_text(f'{{"m": 1, "X": [[0.0]], "Y": [[{y}]]}}')
    proc = run_module("thetacover", "theta", "--z", str(path))
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["error"] == (
        f"{path}: not a point of the half space: X and Y must be finite")


@pytest.mark.parametrize("argv, error", [
    (["verify", "--m", "x"], "thetacover verify: argument --m: invalid int value: 'x'"),
    (["beta"], "thetacover beta: the following arguments are required: --g"),
    (["cocycle", "--g1", "a.json"],
     "thetacover cocycle: the following arguments are required: --g2"),
    (["selftest", "--nope"], "thetacover: unrecognized arguments: --nope"),
    ([], "thetacover: the following arguments are required: command"),
])
def test_argparse_refusals_print_a_report(capsys, argv, error):
    # a command line argparse refuses takes the one report path: exit 2
    # and a JSON report with the error, not usage text and SystemExit
    code = cli_run(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert json.loads(out) == {"schema": cli.SCHEMA, "error": error}


def test_help_prints_usage_and_exits_0(capsys):
    for argv, usage in ((["--help"], "usage: thetacover "),
                        (["verify", "--help"], "usage: thetacover verify ")):
        with pytest.raises(SystemExit) as stop:
            cli_run(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith(usage)


def test_malformed_files(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, rep = run_json(capsys, "beta", "--g", str(broken))
    assert code == 2 and "not valid JSON" in rep["error"]

    nolist = tmp_path / "toplevel.json"
    nolist.write_text("[1, 2]")
    code, rep = run_json(capsys, "beta", "--g", str(nolist))
    assert code == 2

    nonsymp = tmp_path / "nonsymp.json"
    nonsymp.write_text(json.dumps({"m": 1, "entries": [[1, 1], [1, 1]]}))
    code, rep = run_json(capsys, "beta", "--g", str(nonsymp))
    assert code == 2 and "not symplectic" in rep["error"]

    code, rep = run_json(capsys, "beta", "--g", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in rep["error"]

    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"m": 2, "entries": [[1, 0], [0, 1]]}))
    code, rep = run_json(capsys, "beta", "--g", str(shape))
    assert code == 2 and "expected a 4x4" in rep["error"]

    # m must be a JSON integer: no string, list or truncated float
    for name, m in (("mstr.json", "x"), ("mfloat.json", 1.5)):
        bad_m = tmp_path / name
        bad_m.write_text(json.dumps({"m": m, "entries": [[1, 0], [0, 1]]}))
        code, rep = run_json(capsys, "beta", "--g", str(bad_m))
        assert code == 2 and "m must be an integer" in rep["error"]
        code, rep = run_json(capsys, "gauss-sum", "--d", str(bad_m),
                             "--c", str(bad_m))
        assert code == 2 and "m must be an integer" in rep["error"]
    listm = tmp_path / "listm.json"
    listm.write_text(json.dumps({"m": [1], "X": [[0.0]], "Y": [[1.0]]}))
    code, rep = run_json(capsys, "theta", "--z", str(listm))
    assert code == 2 and "m must be an integer" in rep["error"]

    # every entry must be a JSON number of its kind: nothing is truncated,
    # parsed from a string or read from a bool
    for k, entries in enumerate(([[1.9, 0], [0, 1]], [["1", "0"], ["0", "1"]],
                                 [[True, 0], [0, 1]])):
        lax = tmp_path / f"lax{k}.json"
        lax.write_text(json.dumps({"m": 1, "entries": entries}))
        code, rep = run_json(capsys, "beta", "--g", str(lax))
        assert code == 2 and "entries must be integers" in rep["error"]
    for k, (x, y) in enumerate(((0.0, "0.5"), (True, 1.0), ("0", 1.0))):
        lax = tmp_path / f"laxpoint{k}.json"
        lax.write_text(json.dumps({"m": 1, "X": [[x]], "Y": [[y]]}))
        code, rep = run_json(capsys, "theta", "--z", str(lax))
        assert code == 2 and "X and Y must be numeric" in rep["error"]


def test_incomplete_or_mismatched_files_exit_2(capsys, tmp_path):
    noentries = tmp_path / "noentries.json"
    noentries.write_text(json.dumps({"m": 1}))
    code, rep = run_json(capsys, "beta", "--g", str(noentries))
    assert code == 2 and rep["error"].endswith("needs keys 'm' and 'entries'")
    noy = tmp_path / "noy.json"
    noy.write_text(json.dumps({"m": 1, "X": [[0.0]]}))
    code, rep = run_json(capsys, "theta", "--z", str(noy))
    assert code == 2 and rep["error"].endswith("needs keys 'm', 'X' and 'Y'")
    small = point_file(tmp_path, "small.json", 2, [[0.0]], [[1.0]])
    code, rep = run_json(capsys, "theta", "--z", small)
    assert code == 2 and rep["error"].endswith("X and Y must be 2x2")
    f1 = matrix_file(tmp_path, "g1.json", make_generator("omega", 1))
    f2 = matrix_file(tmp_path, "g2.json", make_generator("omega", 2))
    code, rep = run_json(capsys, "cocycle", "--g1", f1, "--g2", f2)
    assert code == 2 and rep["error"] == "g1 and g2 must have the same size"


def test_verify_small_run(capsys):
    code, rep = run_json(capsys, "verify", "--thm", "scalar", "--m", "1",
                         "--trials", "3", "--seed", "1")
    assert code == 0
    assert rep["passed"] is True
    assert rep["reports"][0]["theorem"] == "scalar-law"
    assert rep["reports"][0]["m"] == 1


def test_failing_verification_exits_1(capsys):
    # no rounding error meets 1e-30: the run completes and fails
    code, rep = run_json(capsys, "verify", "--thm", "vector", "--m", "2",
                         "--trials", "2", "--tol", "1e-30")
    assert code == 1
    assert rep["passed"] is False and rep["reports"][0]["passed"] is False
    assert rep["schema"] == cli.SCHEMA


def test_verification_on_nan_exits_1(capsys, monkeypatch):
    # a nan error fails the run; the report is still strict JSON, as jq
    # reads it, with the non-finite floats as strings
    from thetacover import harness
    real = harness.theta_vector

    def nan_half(z, params=None):
        half, three_half = real(z, params)
        return half * float("nan"), three_half

    monkeypatch.setattr(harness, "theta_vector", nan_half)
    code, rep = run_json(capsys, "verify", "--thm", "vector", "--m", "1",
                         "--trials", "2")
    assert code == 1
    assert rep["passed"] is False and rep["reports"][0]["passed"] is False
    worst = rep["reports"][0]["worst_case"]
    assert worst["trial"] == 0 and worst["rel_error_half"] == "nan"
    assert rep["reports"][0]["max_abs_error"] == "inf"
    assert rep["reports"][0]["max_rel_error"] == "inf"


def test_subcommands_return_their_reports_and_print_nothing(capsys, tmp_path):
    # printing, the schema stamp and the exit code belong to cli_run alone
    fg = matrix_file(tmp_path, "om.json", make_generator("omega", 1))
    fd = block_file(tmp_path, "d.json", [[1]])
    fc = block_file(tmp_path, "c.json", [[-4]])
    fz = point_file(tmp_path, "z.json", 1, [[0.0]], [[1.0]])
    runs = [["coset-table", "--m", "1"],
            ["cocycle", "--g1", fg, "--g2", fg],
            ["gauss-sum", "--d", fd, "--c", fc],
            ["beta", "--g", fg],
            ["lambda", "--g", fg],
            ["theta", "--z", fz],
            ["verify", "--thm", "scalar", "--m", "1", "--trials", "1"],
            ["selftest"]]
    for argv in runs:
        args = cli._build_parser().parse_args(argv)
        report = args.fn(args, {})
        assert capsys.readouterr() == ("", ""), argv
        assert isinstance(report, dict) and report and "schema" not in report, argv
    args = cli._build_parser().parse_args(["coset-table", "--m", "1", "--text"])
    text = args.fn(args, {})
    assert capsys.readouterr() == ("", "")
    assert isinstance(text, str) and text.startswith("q=(")
    code, out = run(capsys, "coset-table", "--m", "1", "--text")
    assert code == 0 and out == text + "\n"


def test_out_of_range_runs_exit_2(capsys, tmp_path):
    # a run that compares nothing must not pass; m = 0 has no coset table
    fz = point_file(tmp_path, "z.json", 1, [[0.0]], [[1.0]])
    for argv in (["verify", "--m", "1", "--trials", "0"],
                 ["verify", "--thm", "vector", "--m", "1", "--trials", "-3"],
                 ["verify", "--m", "0", "--trials", "1"],
                 ["verify", "--m", "1", "--trials", "1", "--tail-tol", "0"],
                 ["verify", "--m", "1", "--trials", "1", "--tail-tol", "2"],
                 ["verify", "--m", "1", "--trials", "1", "--tail-tol", "inf"],
                 ["theta", "--z", fz, "--tol", "1"],
                 ["coset-table", "--m", "0"],
                 ["theta", "--z", fz, "--tol", "0"],
                 ["verify", "--m", "1", "--trials", "1", "--seed", "-1"]):
        code, rep = run_json(capsys, *argv)
        assert code == 2 and rep["error"], argv
    code, rep = run_json(capsys, "verify", "--m", "1", "--trials", "0")
    assert "trials" in rep["error"]
    code, rep = run_json(capsys, "verify", "--m", "1", "--trials", "1",
                         "--tail-tol", "2")
    assert "tail_tol must lie in (0, 1)" in rep["error"]
    code, rep = run_json(capsys, "verify", "--thm", "vector", "--m", "1",
                         "--trials", "1", "--seed", "-1")
    assert rep["error"] == "seed must be non-negative, got -1"


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_tol_that_checks_nothing_exits_2(capsys, tol):
    # --tol inf used to pass any error, and 0, -1 and nan to fail as a
    # verification (exit 1)
    for thm in ("scalar", "vector"):
        code, rep = run_json(capsys, "verify", "--thm", thm, "--m", "1",
                             "--trials", "1", "--tol", tol)
        assert code == 2 and "tol must be positive and finite" in rep["error"]


def test_verify_unknown_theorem(capsys):
    code, rep = run_json(capsys, "verify", "--thm", "bogus", "--m", "1")
    assert code == 2 and "unknown theorem" in rep["error"]


def test_config_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 1, "trials": 2, "seed": 4}))
    code, rep = run_json(capsys, "--config", str(cfg),
                         "verify", "--thm", "vector")
    assert code == 0
    assert rep["reports"][0]["m"] == 1
    assert rep["reports"][0]["trials"] == 2

    code, rep = run_json(capsys, "--config", str(cfg),
                         "verify", "--thm", "vector", "--trials", "1")
    assert code == 0
    assert rep["reports"][0]["trials"] == 1

    broken = tmp_path / "badcfg.json"
    broken.write_text("nope")
    code, rep = run_json(capsys, "--config", str(broken), "selftest")
    assert code == 2 and "error" in rep

    for bad in ({"m": "two"}, {"m": 1.5}, {"tol": "tight"}):
        badcfg = tmp_path / "badvalue.json"
        badcfg.write_text(json.dumps(bad))
        code, rep = run_json(capsys, "--config", str(badcfg),
                             "verify", "--trials", "1")
        assert code == 2 and "config: " in rep["error"], bad


def test_library_errors_exit_2_from_every_subcommand(capsys, tmp_path, monkeypatch):
    # cli_run alone maps a library ValueError or CapacityError to exit 2, so
    # a subcommand that wraps nothing keeps the contract
    fg = matrix_file(tmp_path, "om.json", make_generator("omega", 1))
    fb = block_file(tmp_path, "b.json", [[1]])
    fz = point_file(tmp_path, "z.json", 1, [[0.0]], [[1.0]])
    runs = [("coset_table", ["coset-table", "--m", "1"]),
            ("rao_cocycle", ["cocycle", "--g1", fg, "--g2", fg]),
            ("_gauss_sum_parts", ["gauss-sum", "--d", fb, "--c", fb]),
            ("beta_tilde", ["beta", "--g", fg]),
            ("beta_tilde", ["lambda", "--g", fg]),
            ("theta_series", ["theta", "--z", fz]),
            ("verify_scalar_law", ["verify", "--thm", "scalar", "--m", "1"]),
            ("_selftest_checks", ["selftest"])]

    def boom(*args, **kwargs):
        raise ValueError("boom")

    for name, argv in runs:
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, boom)
            code, rep = run_json(capsys, *argv)
        assert code == 2 and rep == {"schema": cli.SCHEMA, "error": "boom"}, argv

    def over_cap(*args, **kwargs):
        raise CapacityError(99, 64)

    monkeypatch.setattr(cli, "truncation_radius", over_cap)
    code, rep = run_json(capsys, "theta", "--z", fz)
    assert code == 2 and rep["error"] == "truncation radius 99 exceeds cap 64"

"""Tests of the benchmark itself: checks that can fail, exact trace counts,
and the output contract.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run          # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402

import thetacover as tc                 # noqa: E402
from thetacover import harness          # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OneBadItem:
    """The workload cut to `items` items, item `bad` computed wrongly by
    `corrupt(w, inp)`."""

    def __init__(self, w, corrupt, bad=1, items=3):
        self.w, self.corrupt, self.bad, self.items, self.calls = w, corrupt, bad, items, 0
        self.name, self.check = w.name, w.check

    def inputs(self, seed):
        return itertools.islice(self.w.inputs(seed), self.items)

    def compute(self, inp):
        self.calls += 1
        if self.calls - 1 == self.bad:
            return self.corrupt(self.w, inp)
        return self.w.compute(inp)


def flipped_lambda(w, inp):
    orig = harness.lambda_bar
    harness.lambda_bar = lambda rbar: orig(rbar) * tc.Mu8(1)
    try:
        return w.compute(inp)
    finally:
        harness.lambda_bar = orig


def flipped_beta(w, inp):
    b1, b2, c, b12 = w.compute(inp)
    return b1, b2, c, b12 * tc.Mu8(1)


def perturbed_theta(w, inp):
    sd, gz, thetas, series = w.compute(inp)
    at_z, at_gz = thetas["half"]
    bumped = dataclasses.replace(at_z[0], value=at_z[0].value * (1 + 1e-6))
    thetas["half"] = ((bumped,) + at_z[1:], at_gz)
    return sd, gz, thetas, series


def rotated_sqrt_det(w, inp):
    sd, gz, thetas, series = w.compute(inp)
    return 1j * sd, gz, thetas, series


@pytest.mark.parametrize("name, corrupt", [
    ("vector-law-m2", flipped_lambda),
    ("gauss-m2", flipped_beta),
    ("theta-m3", perturbed_theta),
    ("theta-m3", rotated_sqrt_det),
])
def test_wrong_result_is_counted_as_failure(name, corrupt):
    w = workloads.WORKLOADS[name]
    w.prepare()
    tally, _ = run.timed_loop(OneBadItem(w, corrupt), seed=3, seconds=1e-9)
    assert len(tally.times) == 3
    assert tally.failed == 1            # fail_frac = 1/3


def test_exception_is_counted_as_failure():
    w = workloads.WORKLOADS["gauss-m2"]

    def refuse(w, inp):
        raise ValueError("residue system too large")

    tally, _ = run.timed_loop(OneBadItem(w, refuse, bad=0, items=2), seed=3,
                              seconds=1e-9)
    assert (len(tally.times), tally.failed) == (2, 1)


def test_inputs_depend_only_on_seed():
    for w in workloads.WORKLOADS.values():
        a, b, c = (w.inputs(s) for s in (5, 5, 6))
        first = [repr(next(a)) for _ in range(3)]
        assert first == [repr(next(b)) for _ in range(3)]
        assert first != [repr(next(c)) for _ in range(3)]


def test_fixed_mix_gives_the_profile_in_pairs():
    keys = itertools.cycle(["a", "b", "a", "c", "x", "a"])   # "x" is not in the mix
    pool = ((k, (k, i)) for i, k in enumerate(keys))
    profile = {"a": 3, "b": 2, "c": 1}
    out = list(itertools.islice(workloads._in_fixed_mix(pool, profile, "t"), 24))
    got = [k for k, _ in out]
    assert got[0::2] == got[1::2]
    for block in (got[:12], got[12:]):
        assert {k: block.count(k) for k in profile} == {k: 2 * n for k, n in profile.items()}
    assert len({i for _, i in out}) == 24      # no input is handed out twice


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    parent, child = tr.intern("parent"), tr.intern("child")
    for name, par, start, end in [(parent, -1, 0.0, 1.0), (child, 0, 0.1, 0.3),
                                  (child, 0, 0.5, 0.6), (parent, -1, 2.0, 2.5)]:
        tr.name.append(name)
        tr.parent.append(par)
        tr.item.append(0)
        tr.start.append(start)
        tr.end.append(end)
    assert tr.self_times() == pytest.approx([0.7, 0.2, 0.1, 0.5])
    calls, self_s, total_s = tr.totals(tracing.ITEMS)["parent"]
    assert (calls, self_s, total_s) == (2, pytest.approx(1.2), pytest.approx(1.5))


def test_patch_covers_every_namespace_and_restores():
    from thetacover import cocycle, exactla, theta
    before = (tc.pws_decompose, cocycle.pws_decompose, theta.pws_decompose,
              harness.coset_table, exactla.det, tc.IntegerSymplectic.__init__)
    tr = tracing.Tracer()
    patch = tracing.Patch(tr)
    with pytest.raises(KeyError):
        with patch.installed():
            assert theta.pws_decompose is tc.pws_decompose is not before[0]
            assert harness.coset_table is not before[3]
            tc.make_generator("omega", 1)
            raise KeyError("leave through the exception path")
    after = (tc.pws_decompose, cocycle.pws_decompose, theta.pws_decompose,
             harness.coset_table, exactla.det, tc.IntegerSymplectic.__init__)
    assert all(a is b for a, b in zip(before, after))
    assert tr.totals(tracing.SETUP)["symplectic.IntegerSymplectic"][0] >= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    runs = [result(bench("--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", "1")) for _ in range(2)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0
        assert r["attempted"] == 2 * workloads.WORKLOADS[name].trace_items
        assert [(k, v["unit"]) for k, v in r["metrics"].items()] == \
            [(n, u) for n, u, _ in tracing.PER_LAYER]
    counts = [n for n, unit, _ in tracing.PER_LAYER if unit == "count"]
    a, b = (r["metrics"] for r in runs)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert sum(a[k]["value"] for k in counts) > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.PER_LAYER
    r = result(bench("--workload", "gauss-m2", "--seed", "1", "--seconds", "1",
                     "--trace", "0"))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= run.MIN_ITEMS
    assert [(k, v["unit"]) for k, v in r["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "gauss-m2", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

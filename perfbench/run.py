"""Benchmark of the thetacover verifiers, timed from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src``.  One process, closed loop: one item at a time, the next only after
the previous one is checked.  BLAS is pinned to one thread.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of import, first-use construction and one warm-up item:
at least SETUP_REPEATS of them, and more until SETUP_SECONDS of set-up have
been timed, since a short set-up reads less steadily), then a timed loop
of at least ``--seconds`` seconds and MIN_ITEMS items giving ``items_per_s``, ``item_p50_ms``, ``item_p90_ms``,
``pass_frac`` and ``peak_rss_mb``.  Times are scaled to a reference host
speed (see ``speed.py``); the unscaled ones are printed on the line before
the result, as ``{"raw": {...}}``.

``--trace 1`` traces set-up and a fixed number of items (the workload's
``trace_items``, so counts repeat exactly for one seed), interleaved with
as many untraced items for ``trace.overhead_frac``, and reports the
per-layer metrics in raw seconds.  Spans are written to ``perfbench/out/``.

Every item's output is checked; a wrong verdict, an exception or a capacity
refusal counts as a failed item.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
MIN_ITEMS = 100


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def setup(workload_name: str):
    """Import, first-use construction and one warm-up item.

    Returns the workload (None if there is no such workload) and the
    seconds it took, raw and scaled by the kernel times around it.
    """
    k0 = speed.kernel()
    t0 = time.perf_counter()
    import workloads
    w = workloads.WORKLOADS.get(workload_name)
    if w is None:
        return None, 0.0, 0.0
    w.prepare()
    inp = workloads.warmup_input(w)
    if not w.check(inp, w.compute(inp)):
        raise RuntimeError(f"{workload_name}: warm-up item failed its check")
    raw = time.perf_counter() - t0
    return w, raw, raw * speed.factor((k0 + speed.kernel()) / 2)


def probe_setup(workload_name: str) -> tuple:
    """setup() in a fresh interpreter, so every import and cache is cold."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload_name, "--probe-setup"],
        cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
        timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["raw_s"], out["setup_s"]


def run_item(w, inp, around=contextlib.nullcontext):
    """(start, seconds, passed, error) for one item.

    Only ``compute`` is timed, inside the ``around()`` context; the check
    runs outside both.
    """
    t0 = time.perf_counter()
    try:
        with around():
            out = w.compute(inp)
    except Exception as exc:                 # a refusal or crash fails the item
        return t0, time.perf_counter() - t0, False, exc
    dt = time.perf_counter() - t0
    try:
        return t0, dt, bool(w.check(inp, out)), None
    except Exception as exc:
        return t0, dt, False, exc


class Tally:
    """Per-item times and failures of one loop."""

    def __init__(self):
        self.times: list[float] = []
        self.mids: list[float] = []          # instant halfway through each item
        self.failed = 0

    def add(self, start: float, dt: float, ok: bool, err, label: str):
        self.times.append(dt)
        self.mids.append(start + dt / 2)
        if not ok:
            self.failed += 1
            print(f"FAILED item {len(self.times) - 1} ({label}): {err!r}",
                  file=sys.stderr)


def timed_loop(w, seed: int, seconds: float):
    """Closed loop until `seconds` and MIN_ITEMS are both reached, or the
    input stream ends.  Returns the tally and the item times scaled to the
    reference speed."""
    tally, probe = Tally(), speed.SpeedProbe()
    stop = time.perf_counter() + seconds
    for inp in w.inputs(seed):
        probe.maybe_sample()
        tally.add(*run_item(w, inp), label=w.name)
        if len(tally.times) >= MIN_ITEMS and time.perf_counter() >= stop:
            break
    probe.sample()
    return tally, [dt * probe.scale(t) for dt, t in zip(tally.times, tally.mids)]


def traced_loop(w, seed: int, items: int):
    """`items` traced items interleaved with as many untraced ones.

    Even positions of the input stream run untraced, odd ones traced, so
    both see the same cache states and, as the workloads draw their inputs,
    the same mix of input sizes.
    """
    import tracing
    import workloads
    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer)

    @contextlib.contextmanager
    def traced_span(name, item):
        with patch.installed(), tracer.span(name, item):
            yield

    with traced_span("setup", -1):
        w.prepare()
    _, _, ok, err = run_item(w, workloads.warmup_input(w),
                             lambda: traced_span("setup", -1))
    if not ok:
        raise RuntimeError(f"{w.name}: warm-up item failed its check") from err
    plain, traced = Tally(), Tally()
    stream = w.inputs(seed)
    for k in range(items):
        plain.add(*run_item(w, next(stream)), label=w.name)
        traced.add(*run_item(w, next(stream), lambda: traced_span("item", k)),
                   label=f"{w.name} traced")
    overhead = sum(traced.times) / sum(plain.times) - 1.0
    return tracer, plain, traced, overhead


def run_info(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def loop_metrics(setups: list[float], times: list[float], failed: int) -> dict:
    """The end-to-end metrics from set-up samples and per-item seconds."""
    n = len(times)
    ms = sorted(1e3 * t for t in times)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "items_per_s": metric(n / sum(times), "1/s"),
        "item_p50_ms": metric(statistics.median(ms), "ms"),
        "item_p90_ms": metric(statistics.quantiles(ms, n=10, method="inclusive")[-1], "ms"),
        "pass_frac": metric((n - failed) / n, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    if not (ROOT / "src" / "thetacover" / "__init__.py").is_file():
        print(f"no thetacover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.trace:
        import workloads    # set-up is traced from cold in traced_loop
        w = workloads.WORKLOADS.get(args.workload)
    else:
        w, setup_raw, setup_s = setup(args.workload)
    if w is None:
        import workloads
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.probe_setup:
        print(json.dumps({"raw_s": setup_raw, "setup_s": setup_s}))
        return 0

    info = run_info(args)
    print(json.dumps({"run": info}))
    if args.trace:
        import tracing
        tracer, plain, traced, overhead = traced_loop(w, args.seed, w.trace_items)
        metrics = tracing.layer_metrics(tracer, w.trace_items, overhead)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path, info)
        print(f"spans: {len(tracer.name)} written to {path}")
        attempted = len(plain.times) + len(traced.times)
        failed = plain.failed + traced.failed
    else:
        setups = [(setup_raw, setup_s)]
        while (len(setups) < SETUP_REPEATS
               or sum(r for r, _ in setups) < SETUP_SECONDS):
            setups.append(probe_setup(args.workload))
        tally, times = timed_loop(w, args.seed, args.seconds)
        attempted, failed = len(times), tally.failed
        metrics = loop_metrics([s for _, s in setups], times, failed)
        raw = loop_metrics([r for r, _ in setups], tally.times, failed)
        print(f"items: {attempted}, fail_frac: {failed / attempted}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(json.dumps({"raw": {k: raw[k]["value"] for k in
                                  ("setup_s", "items_per_s", "item_p50_ms", "item_p90_ms")}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarize it, for a baseline or
for the before and after of a change.

    python3 perfbench/sweep.py --seeds 0-9 --out perfbench/out/sweep.json

Each workload runs once per seed with ``--trace 0`` and once with
``--trace 1`` on the first seed.  For every end-to-end metric the summary
gives the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (q3 - q1) / median, to compare with the bound in BENCHMARK.json.
``raw_summary`` gives the same for the times before scaling to the
reference host speed (``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["run"] = json.loads(lines[0])["run"]
    if not trace:
        out["raw"] = json.loads(lines[-2])["raw"]
    return out


def summarize(runs: list[dict], spec: dict, raw: bool = False) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        if raw and m["name"] not in runs[0]["raw"]:
            continue
        vals = [r["raw"][m["name"]] if raw else r["metrics"][m["name"]]["value"]
                for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if len(args.seeds) < 2:
        ap.error("need at least two seeds for quartiles")

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            r = bench(name, seed, spec["run_seconds"], 0)
            runs.append(r)
            print(name, seed, {k: round(v["value"], 4)
                               for k, v in r["metrics"].items()}, flush=True)
        traced = bench(name, args.seeds[0], spec["run_seconds"], 1)
        report["run"] = {k: v for k, v in runs[0]["run"].items()
                         if k not in ("workload", "seed", "trace")}
        report["workloads"][name] = {
            "summary": summarize(runs, spec),
            "raw_summary": summarize(runs, spec, raw=True),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "runs": [{k: v["value"] for k, v in r["metrics"].items()} for r in runs],
            "raw_runs": [r["raw"] for r in runs],
            "traced": {"seed": args.seeds[0], "attempted": traced["attempted"],
                       "failed": traced["failed"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        raw = report["workloads"][name]["raw_summary"]
        for metric, s in report["workloads"][name]["summary"].items():
            unscaled = f", raw {raw[metric]['spread']:.4f}" if metric in raw else ""
            print(f"{name:14s} {metric:12s} median {s['median']:10.4g} "
                  f"spread {s['spread']:.4f}{unscaled} (bound {s['bound']})",
                  flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

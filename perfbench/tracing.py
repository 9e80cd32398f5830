"""Spans around the public functions of each ``thetacover`` layer.

The tracer replaces each traced function by a wrapper in every
``thetacover.*`` namespace that binds it (``harness``, ``gauss`` and
``theta`` import these names directly, so patching the defining module
alone would miss their calls), and puts the originals back in ``finally``.
A span records its name, start, end, parent span and the item it belongs
to; spans stay in memory and are written once, at the end of the run.
A span's self time is its duration minus the time its child spans cover.

Besides spans, a few wrappers record counts that size the work: Gauss-sum
classes (|det c|), lattice points ((2 R + 1)**m per theta component),
degenerate beta_tilde calls, the largest truncation radius and the largest
snap residual.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import thetacover as tc
from thetacover import exactla
from workloads import int_det

# Public functions traced in each layer; exactla is traced whole.
TRACED = {
    "cocycle": ("pws_decompose", "m_xstar", "rao_cocycle", "cbar_cocycle",
                "cover_mul"),
    "symplectic": ("mobius_act", "random_word_element"),
    "gauss": ("beta_tilde", "symplectic_gauss_sum"),
    "theta": ("sqrt_det", "theta_component", "theta_series",
              "truncation_radius"),
    "harness": ("sample_point", "induced_rep_matrix"),
    "f2cosets": ("coset_table", "coset_profile"),
}

# Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = [
    ("cocycle.pws_decompose.calls", "count", "lower"),
    ("cocycle.pws_decompose.self_s", "s", "lower"),
    ("cocycle.pws_decompose.total_s", "s", "lower"),
    ("cocycle.m_xstar.calls", "count", "lower"),
    ("cocycle.rao_cocycle.calls", "count", "lower"),
    ("cocycle.rao_cocycle.self_s", "s", "lower"),
    ("cocycle.cbar_cocycle.calls", "count", "lower"),
    ("cocycle.cover_mul.calls", "count", "lower"),
    ("symplectic.IntegerSymplectic.calls", "count", "lower"),
    ("symplectic.IntegerSymplectic.self_s", "s", "lower"),
    ("symplectic.mobius_act.self_s", "s", "lower"),
    ("symplectic.random_word_element.self_s", "s", "lower"),
    ("gauss.beta_tilde.calls", "count", "lower"),
    ("gauss.beta_tilde.self_s", "s", "lower"),
    ("gauss.beta_tilde.total_s", "s", "lower"),
    ("gauss.beta_tilde.degenerate_calls", "count", "lower"),
    ("gauss.symplectic_gauss_sum.calls", "count", "lower"),
    ("gauss.symplectic_gauss_sum.self_s", "s", "lower"),
    ("gauss.symplectic_gauss_sum.classes", "count", "lower"),
    ("gauss.symplectic_gauss_sum.us_per_class", "us", "lower"),
    ("gauss.snap_residual_max", "1", "lower"),
    ("theta.theta_component.calls", "count", "lower"),
    ("theta.theta_component.self_s", "s", "lower"),
    ("theta.theta_component.lattice_points", "count", "lower"),
    ("theta.theta_component.ns_per_point", "ns", "lower"),
    ("theta.theta_series.self_s", "s", "lower"),
    ("theta.truncation_radius.max", "count", "lower"),
    ("theta.sqrt_det.calls", "count", "lower"),
    ("theta.sqrt_det.self_s", "s", "lower"),
    ("harness.sample_point.calls", "count", "lower"),
    ("harness.sample_point.self_s", "s", "lower"),
    ("harness.point_accept_ratio", "ratio", "higher"),
    ("harness.induced_rep_matrix.calls", "count", "lower"),
    ("harness.induced_rep_matrix.self_s", "s", "lower"),
    ("f2cosets.coset_table.self_s", "s", "lower"),
    ("f2cosets.coset_table.total_s", "s", "lower"),
    ("f2cosets.coset_profile.calls", "count", "lower"),
    ("exactla.calls", "count", "lower"),
    ("exactla.self_s", "s", "lower"),
    ("setup.cocycle.pws_decompose.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

SETUP, ITEMS = "setup", "items"


class Tracer:
    """In-memory span store, with counters over the traced items."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_item = -1           # -1 marks set-up spans
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, item: int):
        self.current_item = item
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, n: int = 1):
        if self.current_item >= 0:
            self.counts[key] += n

    def track_max(self, key: str, value: float):
        if self.current_item >= 0:
            self.maxima[key] = max(self.maxima[key], float(value))

    # -- results --

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - covered

    def totals(self, phase: str) -> dict:
        """name -> (calls, self seconds, total seconds) over one phase."""
        item = np.frombuffer(self.item, dtype=np.int32)
        mask = item < 0 if phase == SETUP else item >= 0
        name = np.frombuffer(self.name, dtype=np.int32)[mask]
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))[mask]
        own = self.self_times()[mask]
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        selfs = np.bincount(name, weights=own, minlength=n)
        tots = np.bincount(name, weights=dur, minlength=n)
        return {nm: (int(calls[i]), float(selfs[i]), float(tots[i]))
                for i, nm in enumerate(self.names)}

    def write(self, path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "names": self.names,
               "spans": {"name": list(self.name), "parent": list(self.parent),
                         "item": list(self.item), "start": list(self.start),
                         "end": list(self.end)}}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments.get(name)


def _annotations(orig):
    """Hooks (before, after) that size the work of a few traced calls.

    They call no traced function, so they add no spans.
    """
    radius = orig["theta.truncation_radius"]

    beta_g = _arg(orig["gauss.beta_tilde"], "g")

    def beta_before(tr, args, kwargs):
        if int_det(beta_g(args, kwargs).c) == 0:
            tr.count("gauss.beta_tilde.degenerate_calls")

    def beta_after(tr, out):
        tr.track_max("gauss.snap_residual_max", out.residual)

    gauss_c = _arg(orig["gauss.symplectic_gauss_sum"], "c")

    def gauss_before(tr, args, kwargs):
        c = gauss_c(args, kwargs)
        c = [[c]] if not hasattr(c, "__len__") else c
        tr.count("gauss.symplectic_gauss_sum.classes", abs(int_det(c)))

    comp_z = _arg(orig["theta.theta_component"], "z")
    comp_params = _arg(orig["theta.theta_component"], "params")

    def component_before(tr, args, kwargs):
        z = comp_z(args, kwargs)
        try:
            r = radius(z.Y, comp_params(args, kwargs) or tc.ThetaParams())
        except (ValueError, tc.CapacityError):
            return                  # the traced call raises the same error
        tr.count("theta.theta_component.lattice_points", (2 * r + 1) ** z.m)

    def radius_after(tr, out):
        tr.track_max("theta.truncation_radius.max", out)

    return {
        "gauss.beta_tilde": (beta_before, beta_after),
        "gauss.symplectic_gauss_sum": (gauss_before, None),
        "theta.theta_component": (component_before, None),
        "theta.truncation_radius": (None, radius_after),
    }


def _wrap(tracer, name, fn, before=None, after=None):
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        idx = tracer.open(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, out)
        return out

    return traced


def _targets():
    """(qualified name, original) for every traced function."""
    out = []
    for mod_name, names in TRACED.items():
        mod = sys.modules[f"thetacover.{mod_name}"]
        out += [(f"{mod_name}.{n}", getattr(mod, n)) for n in names]
    out += [(f"exactla.{n}", fn) for n, fn in vars(exactla).items()
            if inspect.isfunction(fn) and not n.startswith("_")
            and fn.__module__ == exactla.__name__]
    return out


class Patch:
    """Installs the tracer's wrappers; ``installed()`` restores the originals."""

    def __init__(self, tracer: Tracer):
        targets = _targets()
        hooks = _annotations(dict(targets))
        wrapped = {id(fn): (fn, _wrap(tracer, name, fn, *hooks.get(name, (None, None))))
                   for name, fn in targets}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "thetacover" or n.startswith("thetacover.")]
        # every (namespace, attribute) that binds a traced function
        self._sites = [(mod, attr, val, wrapped[id(val)][1])
                       for mod in modules for attr, val in list(vars(mod).items())
                       if wrapped.get(id(val), (None,))[0] is val]
        init = tc.IntegerSymplectic.__init__
        self._sites.append((tc.IntegerSymplectic, "__init__", init,
                            _wrap(tracer, "symplectic.IntegerSymplectic", init)))

    @contextlib.contextmanager
    def installed(self):
        try:
            for owner, attr, _, wrapped in self._sites:
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original, _ in self._sites:
                setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, items: int, overhead_frac: float) -> dict:
    """The PER_LAYER metrics from a finished trace of ``items`` items."""
    tot = tracer.totals(ITEMS)
    setup = tracer.totals(SETUP)
    counts, maxima = tracer.counts, tracer.maxima

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    exact = [v for k, v in tot.items() if k.startswith("exactla.")]
    classes = counts["gauss.symplectic_gauss_sum.classes"]
    points = counts["theta.theta_component.lattice_points"]
    samples = calls("harness.sample_point")
    table = [setup.get("f2cosets.coset_table", (0, 0.0, 0.0)),
             tot.get("f2cosets.coset_table", (0, 0.0, 0.0))]
    values = {
        "gauss.beta_tilde.degenerate_calls": counts["gauss.beta_tilde.degenerate_calls"],
        "gauss.symplectic_gauss_sum.classes": classes,
        "gauss.symplectic_gauss_sum.us_per_class":
            1e6 * self_s("gauss.symplectic_gauss_sum") / classes if classes else 0.0,
        "gauss.snap_residual_max": maxima["gauss.snap_residual_max"],
        "theta.theta_component.lattice_points": points,
        "theta.theta_component.ns_per_point":
            1e9 * self_s("theta.theta_component") / points if points else 0.0,
        "theta.truncation_radius.max": int(maxima["theta.truncation_radius.max"]),
        "harness.point_accept_ratio": items / samples if samples else 0.0,
        "f2cosets.coset_table.self_s": sum(t[1] for t in table),
        "f2cosets.coset_table.total_s": sum(t[2] for t in table),
        "exactla.calls": sum(v[0] for v in exact),
        "exactla.self_s": sum(v[1] for v in exact),
        "setup.cocycle.pws_decompose.self_s":
            setup.get("cocycle.pws_decompose", (0, 0.0, 0.0))[1],
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = calls(name[:-len(".calls")])
        elif name.endswith(".total_s"):
            value = tot.get(name[:-len(".total_s")], (0, 0.0, 0.0))[2]
        else:
            value = self_s(name[:-len(".self_s")])
        out[name] = {"value": value, "unit": unit}
    return out

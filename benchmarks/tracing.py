"""Opt-in per-layer tracing of cubemass, applied from outside the package.

A :class:`Tracer` wraps the public functions listed in :data:`TARGETS` at
run time.  Several modules import functions by name (``quad``, ``mass``
and ``stern`` bind ``metric_jet`` directly), so each wrapper is rebound
in every ``cubemass`` module namespace that holds the original object,
and the originals are restored when tracing stops.

Each call records one span ``[name, parent, start, end, nodes]`` in
memory; ``parent`` is the index of the enclosing traced span (-1 at top
level), which gives self times.  :func:`summarize` turns the spans of one
pass into the per-layer metrics, and :meth:`Tracer.write` dumps the raw
spans when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

#: geom functions reported one by one (calls and self time).
GEOM_REPORTED = ("inverse_and_christoffel", "face_frame", "face_normal", "edge_frame",
                 "curve_frame", "turning_angles", "coordinate_gradient_jet",
                 "area_density")

#: geom functions that invert the metric themselves (np.linalg.inv).
GEOM_INVERTING = ("inverse_and_christoffel", "face_normal", "face_frame", "edge_frame")

#: Estimator entry points and the method each one's time is reported under.
#: A method's time is the duration of its outermost span, so an estimator
#: that calls another (gromov_defect, bartnik_sum_mass, bkks_direction_mass)
#: is counted once, under itself.
MASS_METHODS = {
    "adm_flux_cube": "adm", "adm_flux_sphere": "adm_sphere",
    "gromov_cube_mass": "gromov", "gromov_defect": "defect",
    "gauss_bonnet_slice_mass": "gauss_bonnet", "bkks_direction_mass": "bkks",
    "bartnik_sum_mass": "bartnik_sum", "bartnik_gradient_integral": "bartnik_integral",
}

MODEL_CONSTRUCTORS = ("flat_model", "schwarzschild_model", "conformal_model",
                      "pullback_model", "composed_model", "expression_model",
                      "load_model")

#: Wrapped public functions per layer; a layer is a ``cubemass`` module.
TARGETS = {
    "expr": ("eval_jet2", "radius_jet"),
    "metric": ("metric_jet", *MODEL_CONSTRUCTORS),
    "geom": GEOM_REPORTED,
    "quad": ("gauss_nodes", "face_points", "edge_points", "slice_segments",
             "sphere_points", "integrate_face", "integrate_edge", "integrate_edges",
             "integrate_slice_curve", "integrate_slices"),
    "mass": ("estimate", *MASS_METHODS, "slice_defect", "edge_deficit_sums"),
    "converge": ("run_ladder", "fit_rate", "ladder_csv"),
    "cli": ("main", "build_parser", "cmd_estimate", "cmd_converge", "dumps"),
}

#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS = (
    [("expr.eval_calls", "count"), ("expr.eval_s", "s"),
     ("expr.radius_jet_calls", "count"), ("expr.radius_jet_s", "s"),
     ("metric.jet_calls", "count"), ("metric.jet_nodes", "count"),
     ("metric.nodes_per_call", "nodes/call"), ("metric.unique_node_ratio", "ratio"),
     ("metric.jet_s", "s"), ("metric.jet_self_s", "s"), ("metric.model_build_s", "s")]
    + [(f"geom.{fn}.{kind}", unit) for fn in GEOM_REPORTED
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("geom.inversions_per_jet_node", "ratio"),
       ("quad.calls", "count"), ("quad.self_s", "s")]
    + [(f"mass.{method}_s", "s") for method in MASS_METHODS.values()]
    + [("mass.self_s", "s"), ("converge.ladder_s", "s"), ("converge.fit_s", "s"),
       ("cli.self_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Span recorder over the functions in :data:`TARGETS`."""

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
        self.spans = []       # [name index, parent index, start, end, nodes]
        self.points = {}      # span index -> (n, 3) points of a metric_jet call
        self._stack = []
        self._patches = []

    def _wrap(self, index, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name = self.names[index]
        if name == "metric.metric_jet":
            def probe(i, args, kwargs):
                points = args[1] if len(args) > 1 else kwargs["points"]
                rows = self.points[i] = np.asarray(points, dtype=float).reshape(-1, 3)
                return len(rows)
        elif name.split(".", 1)[1] in GEOM_INVERTING:
            def probe(i, args, kwargs):
                jet = args[0] if args else kwargs["jet"]
                return jet.g.size // 9
        else:
            probe = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            span = [index, stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            if probe is not None:
                span[4] = probe(i, args, kwargs)
            stack.append(i)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return traced

    @contextmanager
    def active(self):
        """Wrap every target for the duration of the block."""
        originals = [getattr(importlib.import_module(f"cubemass.{layer}"), fn)
                     for layer, fns in TARGETS.items() for fn in fns]
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "cubemass" or key.startswith("cubemass.")]
        for index, original in enumerate(originals):
            wrapper = self._wrap(index, original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in reversed(self._patches):
                setattr(mod, attr, original)
            self._patches.clear()

    def model_build_s(self) -> float:
        """Median duration of one model construction over the whole run."""
        builds = [s[3] - s[2] for s in self.spans
                  if self.names[s[0]].split(".", 1)[1] in MODEL_CONSTRUCTORS]
        return statistics.median(builds) if builds else 0.0

    def write(self, path) -> None:
        """Dump every recorded span (times in seconds from the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], s[1], round(s[2] - t0, 9), round(s[3] - t0, 9), s[4]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "start_s", "end_s", "nodes"],
                       "spans": rows}, fh, separators=(",", ":"))


def summarize(tracer: Tracer, start: int, end: int) -> dict:
    """Per-layer metrics of the spans ``start:end`` (one pass).

    Counts are exact; times are seconds.  ``metric.model_build_s`` and
    ``trace.overhead_s`` are run-level and filled in by the caller.  The
    points kept for the pass are released.
    """
    names, spans = tracer.names, tracer.spans
    n = end - start
    duration = [spans[i][3] - spans[i][2] for i in range(start, end)]
    child = [0.0] * n
    under_method = [False] * n
    fn_of = [names[spans[i][0]].split(".", 1)[1] for i in range(start, end)]
    for k in range(n):
        parent = spans[start + k][1] - start
        if parent >= 0:
            child[parent] += duration[k]
            under_method[k] = under_method[parent] or fn_of[parent] in MASS_METHODS

    calls, incl, self_s, nodes = {}, {}, {}, {}
    layer_self = {}
    method_s = {m: 0.0 for m in MASS_METHODS.values()}
    for k in range(n):
        name = names[spans[start + k][0]]
        own = duration[k] - child[k]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + duration[k]
        self_s[name] = self_s.get(name, 0.0) + own
        nodes[name] = nodes.get(name, 0) + spans[start + k][4]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if fn_of[k] in MASS_METHODS and not under_method[k]:
            method_s[MASS_METHODS[fn_of[k]]] += duration[k]

    jet_calls = calls.get("metric.metric_jet", 0)
    jet_nodes = nodes.get("metric.metric_jet", 0)
    rows = [tracer.points.pop(i) for i in range(start, end) if i in tracer.points]
    distinct = len(np.unique(np.concatenate(rows), axis=0)) if rows else 0
    inverted = sum(nodes.get(f"geom.{fn}", 0) for fn in GEOM_INVERTING)
    quad_calls = sum(c for name, c in calls.items() if name.startswith("quad."))

    out = {
        "expr.eval_calls": calls.get("expr.eval_jet2", 0),
        "expr.eval_s": incl.get("expr.eval_jet2", 0.0),
        "expr.radius_jet_calls": calls.get("expr.radius_jet", 0),
        "expr.radius_jet_s": incl.get("expr.radius_jet", 0.0),
        "metric.jet_calls": jet_calls,
        "metric.jet_nodes": jet_nodes,
        "metric.nodes_per_call": jet_nodes / jet_calls if jet_calls else 0.0,
        "metric.unique_node_ratio": distinct / jet_nodes if jet_nodes else 0.0,
        "metric.jet_s": incl.get("metric.metric_jet", 0.0),
        "metric.jet_self_s": self_s.get("metric.metric_jet", 0.0),
    }
    for fn in GEOM_REPORTED:
        out[f"geom.{fn}.calls"] = calls.get(f"geom.{fn}", 0)
        out[f"geom.{fn}.self_s"] = self_s.get(f"geom.{fn}", 0.0)
    out["geom.inversions_per_jet_node"] = inverted / jet_nodes if jet_nodes else 0.0
    out["quad.calls"] = quad_calls
    out["quad.self_s"] = layer_self.get("quad", 0.0)
    for method, seconds in method_s.items():
        out[f"mass.{method}_s"] = seconds
    out["mass.self_s"] = layer_self.get("mass", 0.0)
    out["converge.ladder_s"] = incl.get("converge.run_ladder", 0.0)
    out["converge.fit_s"] = incl.get("converge.fit_rate", 0.0)
    out["cli.self_s"] = layer_self.get("cli", 0.0)
    return out

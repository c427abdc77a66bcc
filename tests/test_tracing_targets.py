"""The benchmark's per-layer tracer wraps cubemass functions by name.

``benchmarks/tracing.py`` looks every name in its ``TARGETS`` up in the
matching ``cubemass`` module, so renaming or removing one of them breaks
``benchmarks/run.py --trace 1``.  These tests catch that in the fast suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cubemass import mass, metric
from cubemass.quad import QuadratureSpec

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    targets = _tracing().TARGETS
    missing = [f"{layer}.{fn}" for layer, fns in targets.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"cubemass.{layer}"),
                                       fn, None))]
    assert not missing


def test_traced_estimate_records_spans_and_restores_the_package():
    tracing = _tracing()
    original = mass.metric_jet
    tracer = tracing.Tracer()
    model = metric.schwarzschild_model(1.0)
    spec = QuadratureSpec(4)
    with tracer.active():
        traced = mass.estimate(model, "bkks_direction", 20.0, spec, axis=0)
    layers = tracing.summarize(tracer, 0, len(tracer.spans))
    assert mass.metric_jet is original
    assert traced.value == mass.estimate(model, "bkks_direction", 20.0, spec, axis=0).value
    assert layers["metric.jet_calls"] > 0
    assert np.isfinite(layers["geom.coordinate_gradient_jet.self_s"])
    # gauss-bonnet reads one jet per face plus one jet of the 12 edges, its slice
    # corners, and each face serves its two slice axes
    start = len(tracer.spans)
    with tracer.active():
        mass.estimate(model, "gauss_bonnet_slices", 20.0, spec)
    layers = tracing.summarize(tracer, start, len(tracer.spans))
    assert layers["metric.jet_calls"] == 7
    assert layers["geom.curve_frame.calls"] == 12

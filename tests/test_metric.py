import json

import numpy as np
import pytest

from cubemass import geom, metric
from cubemass.errors import NotPositiveDefinite, OutsideDomain, ValidationError


ALL_MODELS = {
    "schwarzschild": lambda: metric.schwarzschild_model(1.0),
    "conformal_expr": lambda: metric.conformal_model("1 + 0.3*r^(-0.8)", tau=0.8),
    "pullback": lambda: metric.pullback_model(tau=0.75),
    "composed": lambda: metric.composed_model(1.0, tau_diffeo=0.75, amplitude=0.2),
    "expression": lambda: metric.expression_model(
        {"g11": "1 + 0.1*exp(-r)", "g12": "0.05*sin(x)*exp(-r)", "g13": "0",
         "g22": "1 + 0.1/r", "g23": "0.02*x*y/r^3", "g33": "1 + 0.2/r^2"},
        tau=1.0, inner_radius=1.0),
}


def test_flat_model_is_exactly_euclidean():
    jet = metric.metric_jet(metric.flat_model(), np.array([3.0, -1.0, 7.0]))
    assert np.array_equal(jet.g, np.eye(3))
    assert not jet.dg.any()
    assert not jet.ddg.any()


def test_schwarzschild_component_value():
    jet = metric.metric_jet(metric.schwarzschild_model(1.0), np.array([10.0, 0.0, 0.0]))
    assert jet.g[0, 0] == pytest.approx(1.21550625, abs=1e-12)  # (1 + 1/20)^4
    assert jet.g[0, 1] == 0.0


def test_pullback_with_zero_displacement_is_flat():
    model = metric.pullback_model(tau=0.75, displacement=["0", "0", "0"])
    pts = np.array([[5.0, 1.0, 2.0], [8.0, -3.0, 0.5]])
    jet = metric.metric_jet(model, pts)
    assert np.allclose(jet.g, np.eye(3), atol=0)
    assert not jet.dg.any()
    assert not jet.ddg.any()
    assert model.exact_mass == 0.0


@pytest.mark.parametrize("name", sorted(ALL_MODELS))
def test_dg_matches_finite_differences_of_g(name):
    model = ALL_MODELS[name]()
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    for _ in range(3):
        p = rng.uniform(5.0, 100.0) * _random_direction(rng)
        h = 1e-4 * max(1.0, float(np.linalg.norm(p)))
        jet = metric.metric_jet(model, p)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (metric.metric_jet(model, p + e).g
                  - metric.metric_jet(model, p - e).g) / (2 * h)
            scale = np.max(np.abs(fd)) + 1e-3
            assert np.allclose(jet.dg[k], fd, atol=1e-6 * scale), (name, k)


@pytest.mark.parametrize("name", sorted(ALL_MODELS))
def test_ddg_matches_finite_differences_of_dg(name):
    model = ALL_MODELS[name]()
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    p = rng.uniform(5.0, 30.0) * _random_direction(rng)
    h = 1e-4 * max(1.0, float(np.linalg.norm(p)))
    jet = metric.metric_jet(model, p)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (metric.metric_jet(model, p + e).dg
              - metric.metric_jet(model, p - e).dg) / (2 * h)
        scale = np.max(np.abs(fd)) + 1e-4
        assert np.allclose(jet.ddg[k], fd, atol=2e-6 * scale), (name, k)


def _random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("name", sorted(ALL_MODELS))
def test_jet_symmetries(name):
    model = ALL_MODELS[name]()
    pts = np.array([[6.0, 2.0, -1.0], [15.0, -4.0, 3.0]])
    jet = metric.metric_jet(model, pts)
    assert np.array_equal(jet.g, np.swapaxes(jet.g, -1, -2))
    assert np.array_equal(jet.dg, np.swapaxes(jet.dg, -1, -2))
    assert np.array_equal(jet.ddg, np.swapaxes(jet.ddg, -1, -2))
    assert np.allclose(jet.ddg, np.swapaxes(jet.ddg, -3, -4), rtol=0, atol=1e-13)


def test_conformal_positive_definite_where_factor_positive():
    model = metric.conformal_model("1 - 0.9*exp(-r)", tau=1.0, inner_radius=0.0)
    jet = metric.metric_jet(model, np.array([0.5, 0.2, 0.1]))  # U ~ 0.33 > 0
    np.linalg.cholesky(jet.g)
    with pytest.raises(NotPositiveDefinite):
        metric.metric_jet(metric.conformal_model("1 - 2*exp(-r)", tau=1.0,
                                                 inner_radius=0.0),
                          np.array([0.1, 0.0, 0.0]))


def test_not_positive_definite_detected_at_evaluation():
    model = metric.expression_model(
        {"g11": "-1", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"},
        tau=1.0, inner_radius=0.0)
    with pytest.raises(NotPositiveDefinite):
        metric.metric_jet(model, np.array([1.0, 0.0, 0.0]))


def test_outside_domain():
    model = metric.schwarzschild_model(1.0)  # inner_radius 1
    with pytest.raises(OutsideDomain):
        metric.metric_jet(model, np.array([0.5, 0.0, 0.0]))


def test_pullback_riemann_vanishes_downstream():
    model = metric.pullback_model(tau=0.75)
    rng = np.random.default_rng(5)
    pts = rng.uniform(3.0, 60.0, size=(12, 1)) * rng.normal(size=(12, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * rng.uniform(3, 60, size=(12, 1))
    riem, _, scalar = geom.curvature(metric.metric_jet(model, pts))
    assert np.max(np.abs(riem)) < 1e-9
    assert np.max(np.abs(scalar)) < 1e-9


def test_composed_model_metadata():
    model = metric.composed_model(2.5, tau_diffeo=0.75)
    assert model.exact_mass == 2.5
    assert model.tau == 0.75
    model2 = metric.composed_model(1.0, tau_diffeo=1.5)
    assert model2.tau == 1.0  # min(1, tau_diffeo)


@pytest.mark.parametrize("build", [metric.pullback_model, metric.composed_model],
                         ids=["pullback", "composed"])
def test_displacement_needs_three_components(build):
    with pytest.raises(ValidationError, match="exactly three components"):
        build(displacement=["0.1*x/r", "0.1*y/r"])


@pytest.mark.parametrize("name", sorted(ALL_MODELS))
def test_metric_jet_arrays_are_batch_first_and_c_contiguous(name):
    # the geometry kernel's einsums sum in an order that follows the strides
    pts = np.array([[5.0, 1.0, 2.0], [8.0, -3.0, 0.5], [-4.0, 6.0, 3.0]])
    jet = metric.metric_jet(ALL_MODELS[name](), pts)
    for array, shape in ((jet.g, (3, 3, 3)), (jet.dg, (3, 3, 3, 3)),
                         (jet.ddg, (3, 3, 3, 3, 3))):
        assert array.shape == shape
        assert array.flags.c_contiguous


def test_tau_must_exceed_half():
    with pytest.raises(ValidationError):
        metric.pullback_model(tau=0.5)


# ---------------------------------------------------------------------------
# falloff audit
# ---------------------------------------------------------------------------

def test_falloff_audit_flat_trivially_passes():
    audit = metric.falloff_audit(metric.flat_model(), [5.0, 10.0, 20.0])
    assert audit.trivially_flat
    assert all(audit.passed)
    assert not audit.sup_g_minus_delta.any()


def test_falloff_audit_schwarzschild():
    audit = metric.falloff_audit(metric.schwarzschild_model(1.0),
                                 [10.0, 20.0, 40.0, 80.0, 160.0])
    assert audit.fitted[0] == pytest.approx(1.0, abs=0.1)
    assert all(audit.passed)


def test_falloff_audit_slow_conformal():
    model = metric.conformal_model("1 + 0.7*r^(-0.6)", tau=0.6, inner_radius=1.0)
    audit = metric.falloff_audit(model, [50.0, 100.0, 200.0, 400.0])
    assert audit.fitted[0] == pytest.approx(0.6, abs=0.1)
    assert all(audit.passed)


def test_falloff_audit_pullback():
    audit = metric.falloff_audit(metric.pullback_model(tau=0.75),
                                 [5.0, 10.0, 20.0, 40.0, 80.0])
    assert audit.fitted[0] == pytest.approx(0.75, abs=0.1)
    assert all(audit.passed)


def test_falloff_audit_validates_radii():
    with pytest.raises(ValidationError):
        metric.falloff_audit(metric.flat_model(), [10.0, 5.0])
    with pytest.raises(OutsideDomain):
        metric.falloff_audit(metric.schwarzschild_model(1.0), [0.5, 2.0])


# ---------------------------------------------------------------------------
# model config files
# ---------------------------------------------------------------------------

def test_load_model_round_trip(tmp_path):
    cfg = {"kind": "conformal", "tau": 1.0, "inner_radius": 1.0,
           "exact_mass": 1.0, "params": {"schwarzschild_mass": 1.0}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    model = metric.load_model(path)
    assert model.exact_mass == 1.0
    jet = metric.metric_jet(model, np.array([10.0, 0.0, 0.0]))
    assert jet.g[0, 0] == pytest.approx(1.21550625)


def test_load_model_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        metric.load_model({"kind": "flat", "tau": 1.0, "inner_radius": 0.0,
                           "params": {}, "bogus": 1})
    with pytest.raises(ValidationError):
        metric.load_model({"kind": "conformal", "tau": 1.0, "inner_radius": 1.0,
                           "params": {"factor": "1 + 1/r", "typo": 2}})


def test_load_model_requires_fields():
    with pytest.raises(ValidationError):
        metric.load_model({"kind": "flat"})


def test_load_expression_model():
    model = metric.load_model({
        "kind": "expression", "tau": 1.0, "inner_radius": 1.0, "exact_mass": None,
        "params": {"g11": "1 + 1/r", "g12": "0", "g13": "0",
                   "g22": "1", "g23": "0", "g33": "1"}})
    jet = metric.metric_jet(model, np.array([4.0, 0.0, 0.0]))
    assert jet.g[0, 0] == pytest.approx(1.25)


def test_load_pullback_with_custom_displacement():
    model = metric.load_model({
        "kind": "diffeo_pullback_flat", "tau": 0.75, "inner_radius": 2.0,
        "exact_mass": 0.0,
        "params": {"xi1": "0.1*r^(-0.75)*x", "xi2": "0.1*r^(-0.75)*y",
                   "xi3": "0.1*r^(-0.75)*z"}})
    riem, _, _ = geom.curvature(metric.metric_jet(model, np.array([8.0, 1.0, -3.0])))
    assert np.max(np.abs(riem)) < 1e-10

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubemass import expr, metric
from cubemass.errors import (DomainError, NoSecondDerivatives, NotPositiveDefinite,
                             OutsideDomain, ValidationError)


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
    riem, _, scalar = metric.metric_jet(model, pts).curvature
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


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, message", [
    (lambda: metric.schwarzschild_model(_NAN), "mass"),
    (lambda: metric.schwarzschild_model(-_INF), "mass"),
    (lambda: metric.pullback_model(_INF), "tau"),
    (lambda: metric.pullback_model(amplitude=_NAN), "amplitude"),
    (lambda: metric.pullback_model(angular=_INF), "angular"),
    (lambda: metric.composed_model(_NAN), "mass"),
    (lambda: metric.composed_model(tau_diffeo=_INF), "tau_diffeo"),
    (lambda: metric.composed_model(amplitude=-_INF), "amplitude"),
    (lambda: metric.composed_model(angular=_NAN), "angular"),
    (lambda: metric.conformal_model("1 + 1/r", _INF), "tau"),
    (lambda: metric.conformal_model("1 + 1/r", 1.0, inner_radius=_NAN), "inner_radius"),
    (lambda: metric.conformal_model("1 + 1/r", 1.0, exact_mass=_NAN), "exact_mass"),
], ids=["schwarzschild_mass_nan", "schwarzschild_mass_inf", "pullback_tau",
        "pullback_amplitude", "pullback_angular", "composed_mass", "composed_tau_diffeo",
        "composed_amplitude", "composed_angular", "model_tau", "model_inner_radius",
        "model_exact_mass"])
def test_non_finite_model_parameters_are_rejected(build, message):
    with pytest.raises(ValidationError, match=f"^{message} must be finite"):
        build()


@pytest.mark.parametrize("cfg, message", [
    ({"kind": "flat", "tau": "abc", "inner_radius": 0.0}, "'tau' must be a number"),
    ({"kind": "flat", "tau": 1.0, "inner_radius": None}, "'inner_radius' must be a number"),
    ({"kind": "composed", "tau": 0.75, "inner_radius": 2.0,
      "params": {"angular": [1]}}, "'params.angular' must be a number"),
], ids=["tau", "inner_radius", "params"])
def test_load_model_names_a_value_that_is_not_a_number(cfg, message):
    with pytest.raises(ValidationError, match=message):
        metric.load_model(cfg)


@pytest.mark.parametrize("name", sorted(ALL_MODELS) + ["flat"])
@pytest.mark.parametrize("index", [2, (1, slice(1, 4)), (slice(None), 0)], ids=str)
def test_jet_slice_equals_slice_of_ddg(count_computations, name, index):
    model = metric.flat_model() if name == "flat" else ALL_MODELS[name]()
    pts = np.random.default_rng(7).uniform(3.0, 9.0, size=(4, 5, 3))
    built = count_computations("ddg")
    jet = metric.metric_jet(model, pts)
    part = jet[index]  # sliced while ddg is still compact
    assert built == []
    assert np.array_equal(part.ddg, jet.ddg[index])
    assert np.array_equal(jet[index].ddg, jet.ddg[index])  # sliced after the build
    assert len(built) == 2


def test_non_finite_second_derivative_fails_at_evaluation():
    # g and dg are finite at x = 4; d_x d_x g11 = 1e-50 * (1e200)^2 overflows
    model = metric.expression_model(
        {"g11": "1 + 1e-50*exp(1e200*(x - 4))", "g12": "0", "g13": "0",
         "g22": "1", "g23": "0", "g33": "1"}, tau=1.0, inner_radius=0.0)
    with pytest.raises(DomainError, match="not finite"):
        metric.metric_jet(model, np.array([[4.0, 1.0, 0.0]]))


@pytest.mark.parametrize("name", sorted(ALL_MODELS) + ["flat"])
def test_first_order_jet_equals_the_second_order_one(name):
    model = metric.flat_model() if name == "flat" else ALL_MODELS[name]()
    pts = np.random.default_rng(11).uniform(3.0, 40.0, size=(5, 7, 3))
    first, second = (metric.metric_jet(model, pts, order) for order in (1, 2))
    for attr in ("g", "dg", "ginv", "dginv", "christoffel"):
        assert getattr(first, attr).tobytes() == getattr(second, attr).tobytes(), attr


@pytest.mark.parametrize("name", sorted(ALL_MODELS) + ["flat"])
@pytest.mark.parametrize("index", [None, 2, (slice(None), 0)], ids=str)
def test_second_derivatives_of_a_first_order_jet_raise(name, index):
    model = metric.flat_model() if name == "flat" else ALL_MODELS[name]()
    pts = np.random.default_rng(7).uniform(3.0, 9.0, size=(4, 5, 3))
    jet = metric.metric_jet(model, pts, order=1)
    part = jet if index is None else jet[index]
    assert part.d2 == []
    for attr in ("ddg", "curvature"):
        with pytest.raises(NoSecondDerivatives, match="first order: evaluate it with "
                                                      r"metric_jet\(\.\.\., order=2\)"):
            getattr(part, attr)


@pytest.mark.parametrize("order", [0, 3, 1.5])
def test_metric_jet_rejects_an_order_other_than_one_or_two(order):
    with pytest.raises(ValueError, match="jet order must be 1 or 2"):
        metric.metric_jet(metric.flat_model(), (1.0, 2.0, 3.0), order)


# ---------------------------------------------------------------------------
# pullback and composed components against jet arithmetic
# ---------------------------------------------------------------------------

_USER_XI = ["0.1*r^(-0.75)*x + 0.02*sin(y)*exp(-r/50)", "0.1*r^(-0.75)*y",
            "0.05*x*z/r^2"]


def _reference_gram(dxi):
    """Component jets of (I + Dxi)^T (I + Dxi) from the nine jets of d_i xi^m."""
    J = [[dxi[3 * m + i] + 1.0 if m == i else dxi[3 * m + i] for i in range(3)]
         for m in range(3)]
    comps = {}
    for i in range(3):
        for j in range(i, 3):
            s = J[0][i] * J[0][j]
            s = s + J[1][i] * J[1][j]
            s = s + J[2][i] * J[2][j]
            comps[(i, j)] = s
    return comps


def _reference_jets(xi, points, mass=None):
    """g, dg, ddg of a pullback (mass None) or composed model: only the
    displacement and its Jacobian are compiled, and the Gram matrix and
    U(phi)^4 are formed by jet arithmetic afterwards."""
    program = expr.JetProgram([expr.derivative(xi[m], i) for m in range(3)
                               for i in range(3)] + xi)
    compiled = program(points)
    comps = _reference_gram(compiled[:9])
    if mass is not None:
        phi = [compiled[9 + m] + expr.coordinate_jet(points, m) for m in range(3)]
        rho2 = phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2]
        U4 = expr.jet_ipow(1.0 + 0.5 * mass / expr.jet_sqrt(rho2), 4)
        comps = {key: U4 * jet for key, jet in comps.items()}
    batch = points.shape[:-1]
    g, dg, ddg = (np.zeros(batch + (3,) * n) for n in (2, 3, 4))
    for (i, j), jet in comps.items():
        for a, b in ((i, j), (j, i)):
            g[..., a, b] = jet.value
            dg[..., a, b] = jet.gradient
            ddg[..., a, b] = jet.hessian
    return g, dg, ddg


_REFERENCE_MODELS = {
    "pullback": (lambda: metric.pullback_model(0.75),
                 lambda: metric._builtin_displacement(0.75, 0.4, 0.3), None),
    "pullback_user": (lambda: metric.pullback_model(0.75, displacement=_USER_XI),
                      lambda: [expr.parse(c) for c in _USER_XI], None),
    "composed": (lambda: metric.composed_model(),
                 lambda: metric._builtin_displacement(0.75, 0.2, 0.3), 1.0),
    "composed_user": (lambda: metric.composed_model(-1.3, displacement=_USER_XI),
                      lambda: [expr.parse(c) for c in _USER_XI], -1.3),
}


@pytest.mark.parametrize("shape", [(), (7, 5), (1024,)], ids=str)
@pytest.mark.parametrize("name", sorted(_REFERENCE_MODELS))
def test_compiled_components_equal_jet_arithmetic_bitwise(name, shape):
    build, displacement, mass = _REFERENCE_MODELS[name]
    rng = np.random.default_rng(29)
    d = rng.normal(size=shape + (3,))
    pts = d / np.linalg.norm(d, axis=-1, keepdims=True) * rng.uniform(
        3.0, 400.0, size=shape + (1,))
    jet = metric.metric_jet(build(), pts)
    with np.errstate(all="ignore"):
        reference = _reference_jets(displacement(), pts, mass)
    for new, old in zip((jet.g, jet.dg, jet.ddg), reference):
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))


def test_composed_rejects_a_non_positive_conformal_factor():
    # U = 1 - 2/r at the image point is -1 at r = 1, yet U^4 = 1 makes g = delta
    model = metric.composed_model(-4.0, inner_radius=0.5, displacement=["0", "0", "0"])
    assert metric.metric_jet(model, np.array([5.0, 0.0, 0.0])).g[0, 0] > 0.0
    with pytest.raises(NotPositiveDefinite, match="conformal factor"):
        metric.metric_jet(model, np.array([[5.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


# ---------------------------------------------------------------------------
# closed-form 3x3 kernel against the general-purpose formulas
# ---------------------------------------------------------------------------

def _reference_ginv(g):
    """The Cholesky check and the LAPACK inverse."""
    np.linalg.cholesky(g)
    return np.linalg.inv(g)


def _reference_dginv(ginv, dg):
    return -np.einsum("...ac,...mcd,...db->...mab", ginv, dg, ginv)


def _reference_christoffel(ginv, dg):
    t1 = np.einsum("...km,...jmi->...kij", ginv, dg)
    t2 = np.einsum("...km,...imj->...kij", ginv, dg)
    t3 = np.einsum("...km,...mij->...kij", ginv, dg)
    return 0.5 * (t1 + t2 - t3)


def _reference_curvature(ginv, Gamma, dg, ddg):
    """Riemann, Ricci, scalar, and the size of the terms Riemann sums."""
    dginv = _reference_dginv(ginv, dg)
    S = np.einsum("...jmi->...mij", dg) + np.einsum("...imj->...mij", dg) - dg
    dS = (np.einsum("...ljmi->...lmij", ddg)
          + np.einsum("...limj->...lmij", ddg) - ddg)
    dGamma = 0.5 * (np.einsum("...lkm,...mij->...lkij", dginv, S)
                    + np.einsum("...km,...lmij->...lkij", ginv, dS))
    riemann = (np.einsum("...cadb->...abcd", dGamma)
               - np.einsum("...dacb->...abcd", dGamma)
               + np.einsum("...ace,...edb->...abcd", Gamma, Gamma)
               - np.einsum("...ade,...ecb->...abcd", Gamma, Gamma))
    ricci = np.einsum("...abad->...bd", riemann)
    scalar = np.einsum("...bd,...bd->...", ginv, ricci)
    return riemann, ricci, scalar, _point_max(dGamma, 4) + _point_max(Gamma, 3) ** 2


def _point_max(a, tensor_ndim):
    return np.max(np.abs(a), axis=tuple(range(a.ndim - tensor_ndim, a.ndim)))


def _assert_point_close(new, old, tensor_ndim, scale=None, rtol=1e-14):
    """|new - old| <= rtol * scale at every point (scale: max |old| there)."""
    if scale is None:
        scale = _point_max(old, tensor_ndim)
    err = _point_max(new - old, tensor_ndim)
    assert np.all(err <= rtol * scale), float(np.max(err / scale))


def _assert_kernel_matches_references(jet):
    ginv = _reference_ginv(jet.g)
    Gamma = _reference_christoffel(ginv, jet.dg)
    riemann, ricci, scalar, terms = _reference_curvature(ginv, Gamma, jet.dg, jet.ddg)
    _assert_point_close(jet.ginv, ginv, 2)
    _assert_point_close(jet.dginv, _reference_dginv(ginv, jet.dg), 3)
    _assert_point_close(jet.christoffel, Gamma, 3)
    # the flat pullbacks' curvature is pure cancellation, so it is compared
    # with the size of the terms that cancel, not with its own size
    new_riemann, new_ricci, new_scalar = jet.curvature
    _assert_point_close(new_riemann, riemann, 4, terms)
    _assert_point_close(new_ricci, ricci, 2, terms)
    _assert_point_close(new_scalar, scalar, 0, terms * _point_max(ginv, 2))


def _random_spd(rng, shape, low=0.2, high=5.0):
    """Symmetric matrices with eigenvalues in [low, high] (signs allowed)."""
    q = np.linalg.qr(rng.normal(size=shape + (3, 3)))[0]
    lam = rng.uniform(low, high, size=shape + (3,))
    g = q @ (lam[..., None] * np.swapaxes(q, -1, -2))
    return 0.5 * (g + np.swapaxes(g, -1, -2))


@given(st.sampled_from([(), (1,), (7, 5), (1024,)]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_form_kernel_matches_references_on_spd_batches(shape, seed):
    rng = np.random.default_rng(seed)
    dg = rng.normal(size=shape + (3, 3, 3))
    ddg = rng.normal(size=shape + (3, 3, 3, 3))
    ddg = ddg + np.swapaxes(ddg, -1, -2)
    jet = metric.MetricJet2(_random_spd(rng, shape), dg + np.swapaxes(dg, -1, -2),
                            ddg + np.swapaxes(ddg, -3, -4))
    _assert_kernel_matches_references(jet)


@pytest.mark.parametrize("shape", [(), (7, 5), (1024,)], ids=str)
@pytest.mark.parametrize("name", sorted(ALL_MODELS))
def test_closed_form_kernel_matches_references_on_model_jets(name, shape):
    rng = np.random.default_rng(23)
    d = rng.normal(size=shape + (3,))
    pts = d / np.linalg.norm(d, axis=-1, keepdims=True) * rng.uniform(
        2.5, 400.0, size=shape + (1,))
    _assert_kernel_matches_references(metric.metric_jet(ALL_MODELS[name](), pts))


def _cholesky_accepts(g):
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def _sylvester_accepts(g):
    try:
        metric.MetricJet2(g, np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3))).ginv
    except NotPositiveDefinite:
        return False
    return True


def _borderline_symmetric(rng):
    """Symmetric matrices that probe each leading minor of the SPD check."""
    kind = rng.integers(4)
    if kind == 0:      # anything: mostly indefinite
        g = rng.normal(size=(3, 3))
        return (g + g.T) * 10.0 ** rng.uniform(-3, 3)
    if kind == 1:      # one eigenvalue just above or below zero
        lam, q = np.linalg.eigh(_random_spd(rng, (), 0.5, 2.0))
        lam[0] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -4)
        g = q @ (lam[:, None] * q.T)
        return 0.5 * (g + g.T)
    # leading 2x2 block SPD, third pivot (Schur complement) of either sign,
    # sometimes tiny: kind 2 indefinite, kind 3 definite
    a = _random_spd(rng, (), 0.5, 2.0)[:2, :2]
    v = rng.normal(size=2)
    pivot = 10.0 ** rng.uniform(-9, 0) * (-1.0 if kind == 2 else 1.0)
    g = np.empty((3, 3))
    g[:2, :2], g[:2, 2], g[2, :2] = a, v, v
    g[2, 2] = v @ np.linalg.solve(a, v) + pivot
    return g


def test_sylvester_check_accepts_exactly_what_cholesky_accepts():
    rng = np.random.default_rng(41)
    accepted = rejected = two_minors_then_rejected = 0
    for _ in range(4000):
        g = _borderline_symmetric(rng) * 10.0 ** rng.uniform(-100, 100)
        ok = _cholesky_accepts(g)
        assert _sylvester_accepts(g) == ok, g
        accepted += ok
        rejected += not ok
        if not ok and g[0, 0] > 0 and g[0, 0] * g[1, 1] > g[0, 1] ** 2:
            two_minors_then_rejected += 1
    assert min(accepted, rejected, two_minors_then_rejected) > 500


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
def test_inverse_of_a_huge_or_tiny_metric_neither_overflows_nor_underflows(scale):
    g = _random_spd(np.random.default_rng(43), (64,)) * scale
    jet = metric.MetricJet2(g, np.zeros((64, 3, 3, 3)), np.zeros((64, 3, 3, 3, 3)))
    _assert_point_close(jet.ginv, _reference_ginv(g), 2)


def test_sylvester_check_rejects_nan():
    g = np.eye(3)
    g[1, 1] = np.nan
    assert not _sylvester_accepts(g)


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
    riem, _, _ = metric.metric_jet(model, np.array([8.0, 1.0, -3.0])).curvature
    assert np.max(np.abs(riem)) < 1e-10


_FILE_MODELS = {
    "flat": ({"kind": "flat", "tau": 1.0, "inner_radius": 0.0},
             lambda: metric.flat_model()),
    "schwarzschild": ({"kind": "conformal", "tau": 1.0, "inner_radius": 1.5,
                       "params": {"schwarzschild_mass": 2.0}},
                      lambda: metric.schwarzschild_model(2.0, inner_radius=1.5)),
    "conformal_factor": ({"kind": "conformal", "tau": 0.8, "inner_radius": 1.0,
                          "exact_mass": 0.6, "params": {"factor": "1 + 0.3*r^(-0.8)"}},
                         lambda: metric.conformal_model("1 + 0.3*r^(-0.8)", 0.8, 1.0,
                                                        0.6)),
    "pullback_defaults": ({"kind": "diffeo_pullback_flat", "tau": 0.9,
                           "inner_radius": 2.0},
                          lambda: metric.pullback_model(0.9)),
    "pullback_amplitude": ({"kind": "diffeo_pullback_flat", "tau": 0.75,
                            "inner_radius": 3.0,
                            "params": {"tau": 0.75, "amplitude": 0.25}},
                           lambda: metric.pullback_model(0.75, amplitude=0.25,
                                                         inner_radius=3.0)),
    "pullback_user": ({"kind": "diffeo_pullback_flat", "tau": 0.75, "inner_radius": 2.0,
                       "params": dict(zip(("xi1", "xi2", "xi3"), _USER_XI))},
                      lambda: metric.pullback_model(0.75, displacement=_USER_XI)),
    "composed_defaults": ({"kind": "composed", "tau": 0.75, "inner_radius": 2.0},
                          lambda: metric.composed_model()),
    "composed_params": ({"kind": "composed", "tau": 0.8, "inner_radius": 2.0,
                         "exact_mass": 1.5,
                         "params": {"schwarzschild_mass": 1.5, "tau_diffeo": 0.8,
                                    "amplitude": 0.1, "angular": 0.0}},
                        lambda: metric.composed_model(1.5, tau_diffeo=0.8,
                                                      amplitude=0.1, angular=0.0)),
    "composed_user": ({"kind": "composed", "tau": 0.75, "inner_radius": 2.0,
                       "params": {"schwarzschild_mass": -1.3,
                                  **dict(zip(("xi1", "xi2", "xi3"), _USER_XI))}},
                      lambda: metric.composed_model(-1.3, tau_diffeo=0.75,
                                                    displacement=_USER_XI)),
    "expression": ({"kind": "expression", "tau": 1.0, "inner_radius": 1.0,
                    "params": {"g11": "1 + 0.1*exp(-r)", "g12": "0.05*sin(x)*exp(-r)",
                               "g13": "0", "g22": "1 + 0.1/r", "g23": "0.02*x*y/r^3",
                               "g33": "1 + 0.2/r^2"}},
                   lambda: ALL_MODELS["expression"]()),
}


@pytest.mark.parametrize("name", sorted(_FILE_MODELS))
def test_load_model_equals_the_constructor(name, tmp_path):
    cfg, build = _FILE_MODELS[name]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    loaded, direct = metric.load_model(path), build()
    assert loaded.describe() == direct.describe()
    pts = np.array([[5.0, 1.0, 2.0], [8.0, -3.0, 0.5], [-40.0, 60.0, 30.0]])
    new, old = metric.metric_jet(loaded, pts), metric.metric_jet(direct, pts)
    for part in ("g", "dg", "ddg"):
        assert np.array_equal(getattr(new, part), getattr(old, part))


@pytest.mark.parametrize("cfg, message", [
    ({"kind": "flat", "tau": 0.5, "inner_radius": 0.0}, "must exceed 1/2"),
    ({"kind": "flat", "tau": 1.0, "inner_radius": -1.0}, "non-negative"),
    ({"kind": "conformal", "tau": 0.3, "inner_radius": 1.0,
      "params": {"schwarzschild_mass": 1.0}}, "must exceed 1/2"),
    ({"kind": "composed", "tau": 0.4, "inner_radius": 2.0,
      "params": {"tau_diffeo": 0.75}}, "must exceed 1/2"),
    ({"kind": "composed", "tau": 0.95, "inner_radius": 2.0,
      "params": {"tau_diffeo": 0.6}}, r"exceeds the chart falloff min\(1, tau_diffeo\) = 0.6"),
    ({"kind": "diffeo_pullback_flat", "tau": 0.75, "inner_radius": 2.0,
      "params": {"tau": 0.95}}, "params tau=0.95 differs from the model tau=0.75"),
    ({"kind": "diffeo_pullback_flat", "tau": 0.75, "inner_radius": 2.0,
      "params": {"xi1": "0.5*x/r"}}, r"missing \['xi2', 'xi3'\]"),
    ({"kind": "composed", "tau": 0.75, "inner_radius": 2.0,
      "params": {"xi1": "0.5*x/r", "xi3": "0"}}, r"missing \['xi2'\]"),
], ids=["flat_tau", "flat_inner_radius", "schwarzschild_tau", "composed_tau",
        "composed_tau_above_falloff", "pullback_params_tau", "pullback_partial_xi",
        "composed_partial_xi"])
def test_load_model_validates_the_file_values(cfg, message):
    with pytest.raises(ValidationError, match=message):
        metric.load_model(cfg)

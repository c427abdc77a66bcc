import math

import numpy as np
import pytest

from cubemass import geom, metric, quad
from cubemass.errors import BadInterval, OutsideDomain, ValidationError
from cubemass.quad import QuadratureSpec, gauss_nodes

FLAT = metric.flat_model()
SCH = metric.schwarzschild_model(1.0)
SMALL = QuadratureSpec(16)


def one(points, jets, *extra):
    return np.ones(points.shape[0])


# ---------------------------------------------------------------------------
# 1D rule
# ---------------------------------------------------------------------------

def test_single_node_rule():
    x, w = gauss_nodes(1, -1.0, 1.0)
    assert x[0] == 0.0 and w[0] == 2.0


def test_quartic_exactness():
    x, w = gauss_nodes(3, -1.0, 1.0)
    assert float(np.sum(w * x ** 4)) == pytest.approx(0.4, abs=1e-14)


def test_exponential_integral():
    x, w = gauss_nodes(16, 0.0, 1.0)
    assert float(np.sum(w * np.exp(x))) == pytest.approx(math.e - 1.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 5, 9, 14])
def test_weights_sum_and_polynomial_exactness(n):
    a, b = -2.5, 4.0
    x, w = gauss_nodes(n, a, b)
    assert float(np.sum(w)) == pytest.approx(b - a, abs=1e-13)
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(-1, 1, size=2 * n)  # degree 2n-1
    vals = np.polyval(coeffs, x)
    exact = np.polyval(np.polyint(coeffs), b) - np.polyval(np.polyint(coeffs), a)
    assert float(np.sum(w * vals)) == pytest.approx(exact, rel=1e-13, abs=1e-12)


def test_bad_interval():
    with pytest.raises(BadInterval):
        gauss_nodes(4, 1.0, 1.0)
    with pytest.raises(BadInterval):
        gauss_nodes(4, 2.0, -1.0)
    with pytest.raises(BadInterval):
        gauss_nodes(4, 0.0, math.inf)
    with pytest.raises(ValidationError):
        gauss_nodes(0, 0.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec(1)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def test_flat_face_area():
    L = 7.0
    val = quad.integrate_face(FLAT, geom.FaceId(2, -1), L, one, "euclidean", SMALL)
    assert val == pytest.approx((2 * L) ** 2, rel=1e-14)


def test_conformal_face_area_matches_refined_rule():
    L = 10.0
    face = geom.FaceId(0, 1)
    coarse = quad.integrate_face(SCH, face, L, one, "g", QuadratureSpec())
    fine = quad.integrate_face(SCH, face, L, one, "g",
                               QuadratureSpec(96))
    assert coarse == pytest.approx(fine, rel=1e-10)
    # and the g-measure really is the U^4 weight
    def u4(points, jets):
        r = np.linalg.norm(points, axis=-1)
        return (1 + 0.5 / r) ** 4
    direct = quad.integrate_face(SCH, face, L, u4, "euclidean", QuadratureSpec())
    assert coarse == pytest.approx(direct, rel=1e-12)


def test_expression_metric_face_integral_matches_fine_grid():
    model = metric.expression_model(
        {"g11": "1", "g12": "sin(x^2)*exp(-r)", "g13": "0",
         "g22": "1", "g23": "0", "g33": "1"},
        tau=1.0, inner_radius=0.0)
    L = 3.0
    face = geom.FaceId(0, 1)

    def f(points, jets):
        return jets.dg[..., 1, 0, 1]  # d_y g_xy

    val = quad.integrate_face(model, face, L, f, "euclidean",
                              QuadratureSpec(32))
    ref = quad.integrate_face(model, face, L, f, "euclidean",
                              QuadratureSpec(128))
    assert val == pytest.approx(ref, rel=1e-8, abs=1e-12)


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

def test_flat_edge_lengths():
    L = 4.0
    total = quad.integrate_edges(FLAT, L, one, "euclidean", SMALL)
    assert total == pytest.approx(12 * 2 * L, rel=1e-14)


def test_conformal_edge_length_matches_refinement():
    L = 6.0
    coarse = quad.integrate_edges(SCH, L, one, "g", SMALL)
    fine = quad.integrate_edges(SCH, L, one, "g", QuadratureSpec(128))
    assert coarse == pytest.approx(fine, rel=1e-10)

    # edge measure is U^2 ds0 for the conformal metric
    def u2(points, jets, edge):
        r = np.linalg.norm(points, axis=-1)
        return (1 + 0.5 / r) ** 2
    direct = quad.integrate_edges(SCH, L, u2, "euclidean", SMALL)
    assert coarse == pytest.approx(direct, rel=1e-12)


def test_flat_deficit_integral_zero():
    def deficit(points, jets, edge):
        return 0.5 * math.pi - geom.edge_frame(jets, edge, points).theta
    assert quad.integrate_edges(FLAT, 5.0, deficit, "g", SMALL) == 0.0


def _edge_deficit(points, jets, edge):
    return 0.5 * math.pi - geom.edge_frame(jets, edge, points).theta


_EDGE_MODELS = {
    "schwarzschild": lambda: SCH,
    "pullback": lambda: metric.pullback_model(0.75),
    "composed": lambda: metric.composed_model(),
    "expression": lambda: metric.expression_model(
        {"g11": "1 + 0.4/r", "g12": "0.1*x*y/r^3", "g13": "0",
         "g22": "1 + 0.4/r", "g23": "0.05*z/r^2", "g33": "1 + 0.3/r"},
        tau=1.0, inner_radius=2.0),
}


@pytest.mark.parametrize("measure", ["g", "euclidean"])
@pytest.mark.parametrize("name", sorted(_EDGE_MODELS))
def test_edges_share_one_jet_and_equal_the_edge_by_edge_sum(monkeypatch, name, measure):
    model, spec, L = _EDGE_MODELS[name](), QuadratureSpec(7), 33.25
    by_edge = 0.0
    for edge in geom.EDGES:
        by_edge += quad.integrate_edge(model, edge, L, _edge_deficit, measure, spec)
    calls = []

    def counting_jet(model, points, order=2):
        calls.append(len(points))
        return metric.metric_jet(model, points, order)

    monkeypatch.setattr(quad, "metric_jet", counting_jet)
    batched = quad.integrate_edges(model, L, _edge_deficit, measure, spec)
    assert calls == [12 * 7]
    assert np.float64(batched).tobytes() == np.float64(by_edge).tobytes()


# ---------------------------------------------------------------------------
# slice curves and slices
# ---------------------------------------------------------------------------

def test_flat_slice_perimeter():
    L = 5.0
    val = quad.integrate_slice_curve(FLAT, 2, 1.0, L, one, "euclidean", SMALL)
    assert val == pytest.approx(8 * L, rel=1e-14)


def test_flat_kappa_integral_zero():
    def kappa(points, jets, face):
        return geom.curve_frame(jets, 2, face, points).kappa
    assert quad.integrate_slice_curve(FLAT, 2, -2.0, 10.0, kappa, "g", SMALL) == 0.0


def test_conformal_slice_perimeter_matches_refinement():
    L, t = 8.0, 3.0
    coarse = quad.integrate_slice_curve(SCH, 1, t, L, one, "g", SMALL)
    fine = quad.integrate_slice_curve(SCH, 1, t, L, one, "g",
                                      QuadratureSpec(128))
    assert coarse == pytest.approx(fine, rel=1e-10)


def test_slice_outer_rule():
    L = 6.0
    assert quad.integrate_slices(FLAT, 0, L, lambda t: 1.0, SMALL) == pytest.approx(2 * L, rel=1e-14)
    assert quad.integrate_slices(FLAT, 0, L, lambda t: t * t, SMALL) == pytest.approx(2 * L ** 3 / 3, rel=1e-13)


def test_slice_level_outside_cube():
    with pytest.raises(OutsideDomain):
        quad.integrate_slice_curve(FLAT, 0, 11.0, 10.0, one, "g", SMALL)


# ---------------------------------------------------------------------------
# determinism and self-consistency
# ---------------------------------------------------------------------------

def test_results_bitwise_deterministic():
    def fH(points, jets):
        return geom.face_frame(jets, geom.FaceId(0, 1), points).H
    a = quad.integrate_face(SCH, geom.FaceId(0, 1), 12.0, fH, "g", SMALL)
    b = quad.integrate_face(SCH, geom.FaceId(0, 1), 12.0, fH, "g", SMALL)
    assert a == b


def test_doubling_orders_stays_within_declared_tolerance():
    from cubemass import mass
    base = QuadratureSpec()
    doubled = QuadratureSpec(64)
    for model in (SCH, metric.pullback_model(tau=0.75)):
        a = mass.adm_flux_cube(model, 25.0, base).value
        b = mass.adm_flux_cube(model, 25.0, doubled).value
        assert abs(a - b) < quad.DEFAULT_TOLERANCE
        c = mass.gromov_cube_mass(model, 25.0, base).value
        d = mass.gromov_cube_mass(model, 25.0, doubled).value
        assert abs(c - d) < quad.DEFAULT_TOLERANCE


def test_default_orders_match_the_previous_default():
    # order 24 sits at the round-off floor, like 32 above it
    from cubemass import mass
    previous = QuadratureSpec(32)
    for model in (metric.pullback_model(tau=0.75), metric.composed_model()):
        for L in (25.0, 400.0):
            for method in mass.METHODS:
                new = mass.estimate(model, method, L, axis=0).value
                old = mass.estimate(model, method, L, previous, axis=0).value
                assert abs(new - old) <= 1e-12 * max(1.0, abs(old)), (method, L)


def test_cube_size_must_clear_inner_radius():
    with pytest.raises(OutsideDomain):
        quad.integrate_face(SCH, geom.FaceId(0, 1), 1.5, one, "g", SMALL)
    with pytest.raises(OutsideDomain):
        quad.integrate_face(SCH, geom.FaceId(0, 1), -3.0, one, "g", SMALL)


def test_measure_validation():
    with pytest.raises(ValidationError):
        quad.integrate_face(FLAT, geom.FaceId(0, 1), 5.0, one, "lebesgue", SMALL)

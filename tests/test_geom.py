import math

import numpy as np
import pytest

from cubemass import geom, metric
from cubemass.errors import DegenerateGradient, NotPositiveDefinite
from cubemass.expr import ScalarJet2, eval_jet2, parse
from cubemass.metric import MetricJet2, metric_jet


def constant_metric(gmat):
    """Jet of a constant metric (all derivatives zero)."""
    g = np.asarray(gmat, dtype=float)
    return MetricJet2(g, np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3)))


def epsilon_offdiag(eps):
    g = np.eye(3)
    g[0, 1] = g[1, 0] = eps
    return constant_metric(g)


FLAT = metric.flat_model()
SCH = metric.schwarzschild_model(1.0)


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature
# ---------------------------------------------------------------------------

def test_flat_inverse_and_christoffel():
    jet = metric_jet(FLAT, np.array([2.0, -1.0, 5.0]))
    ginv, Gamma = geom.inverse_and_christoffel(jet)
    assert np.allclose(ginv, np.eye(3), atol=0)
    assert not Gamma.any()


def test_offdiagonal_inverse_first_order():
    # g^{12} = -g_12 + O(eps^2) for the constant off-diagonal perturbation
    for eps in (1e-3, 1e-4):
        ginv, _ = geom.inverse_and_christoffel(epsilon_offdiag(eps))
        assert abs(ginv[0, 1] + eps) <= 2.0 * eps ** 2


INDEFINITE = constant_metric(np.diag([1.0, -1.0, 1.0]))
ORIGIN = np.zeros(3)
FRAME_CALLS = {
    "inverse_and_christoffel": lambda jet: geom.inverse_and_christoffel(jet),
    "face_normal": lambda jet: geom.face_normal(jet, geom.FACES[0]),
    "face_frame": lambda jet: geom.face_frame(jet, geom.FACES[0], ORIGIN),
    "edge_frame": lambda jet: geom.edge_frame(jet, geom.EDGES[0], ORIGIN),
    "curve_frame": lambda jet: geom.curve_frame(jet, 2, geom.FACES[0], ORIGIN),
    "coordinate_gradient_jet": lambda jet: geom.coordinate_gradient_jet(jet, 0),
    "curvature": lambda jet: geom.curvature(jet),
    "turning_angles": lambda jet: geom.turning_angles([jet] * 4, 2, 0.0),
}


@pytest.mark.parametrize("name", FRAME_CALLS)
def test_every_frame_rejects_an_indefinite_metric(name):
    with pytest.raises(NotPositiveDefinite):
        FRAME_CALLS[name](INDEFINITE)


def test_schwarzschild_christoffel_closed_form():
    p = np.array([5.0, 0.0, 0.0])
    jet = metric_jet(SCH, p)
    _, Gamma = geom.inverse_and_christoffel(jet)
    r = np.linalg.norm(p)
    U = 1.0 + 0.5 / r
    dlnU = (-0.5 * p / r ** 3) / U
    for k in range(3):
        for i in range(3):
            for j in range(3):
                ref = 2.0 * ((k == i) * dlnU[j] + (k == j) * dlnU[i]
                             - (i == j) * dlnU[k])
                assert abs(Gamma[k, i, j] - ref) < 1e-10


def test_christoffel_symmetric_in_lower_indices():
    jets = metric_jet(metric.pullback_model(tau=0.75), np.array([[7.0, 2.0, 1.0]]))
    _, Gamma = geom.inverse_and_christoffel(jets)
    assert np.allclose(Gamma, np.swapaxes(Gamma, -1, -2), atol=0)


def test_curvature_flat_zero():
    riem, ricci, scalar = geom.curvature(metric_jet(FLAT, np.array([1.0, 2.0, 3.0])))
    assert not riem.any() and not ricci.any() and scalar == 0.0


def test_schwarzschild_scalar_curvature_vanishes():
    pts = np.array([[5.0, 1.0, -2.0], [3.0, 3.0, 3.0], [10.0, -4.0, 0.5]])
    _, _, scalar = geom.curvature(metric_jet(SCH, pts))
    assert np.max(np.abs(scalar)) < 1e-9


def test_conformal_scalar_curvature_oracle():
    a = 0.2
    model = metric.conformal_model(f"1 + {a}*exp(-r)", tau=1.0, inner_radius=0.5)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.8, 4.0, size=(10, 3))
    _, _, scalar = geom.curvature(metric_jet(model, pts))
    r = np.linalg.norm(pts, axis=1)
    U = 1.0 + a * np.exp(-r)
    lap = a * np.exp(-r) * (1.0 - 2.0 / r)  # flat Laplacian of exp(-r)
    ref = -8.0 * U ** -5 * lap
    assert np.allclose(scalar, ref, rtol=1e-8)


def test_ricci_symmetry_and_first_bianchi():
    model = metric.composed_model(1.0, tau_diffeo=0.75, amplitude=0.2)
    jet = metric_jet(model, np.array([6.0, -2.0, 3.0]))
    riem, ricci, _ = geom.curvature(jet)
    assert np.allclose(ricci, ricci.T, atol=1e-12)
    lowered = np.einsum("al,lbcd->abcd", jet.g, riem)
    assert np.allclose(lowered, -np.einsum("abcd->abdc", lowered), atol=1e-10)
    assert np.allclose(lowered, -np.einsum("abcd->bacd", lowered), atol=1e-10)
    bianchi = riem + np.einsum("abcd->acdb", riem) + np.einsum("abcd->adbc", riem)
    assert np.max(np.abs(bianchi)) < 1e-10


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def test_flat_face_frame():
    face = geom.FaceId(0, 1)
    p = np.array([4.0, 1.0, -2.0])
    frame = geom.face_frame(metric_jet(FLAT, p), face, p)
    assert np.allclose(frame.nu, [1.0, 0.0, 0.0], atol=0)
    assert frame.H == 0.0
    assert frame.area_density == 1.0


def test_face_normal_is_unit_and_outward():
    model = metric.pullback_model(tau=0.75)
    for face in geom.FACES:
        pts = np.zeros((5, 3))
        rng = np.random.default_rng(face.axis * 2 + (face.sign > 0))
        pts[:, face.axis] = face.sign * 20.0
        for a in face.in_face_axes:
            pts[:, a] = rng.uniform(-20, 20, size=5)
        jet = metric_jet(model, pts)
        frame = geom.face_frame(jet, face, pts)
        norms = geom.g_norm(jet.g, frame.nu)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.all(face.sign * frame.nu[:, face.axis] > 0)
        assert np.all(frame.area_density > 0)


def test_schwarzschild_face_mean_curvature_conformal_law():
    # exact law for g = U^4 delta on a flat plane: H = 4 U^-3 dU/dnu0
    L = 10.0
    face = geom.FaceId(0, 1)
    rng = np.random.default_rng(8)
    pts = np.stack([np.full(6, L), rng.uniform(-L, L, 6), rng.uniform(-L, L, 6)], axis=-1)
    frame = geom.face_frame(metric_jet(SCH, pts), face, pts)
    r = np.linalg.norm(pts, axis=1)
    U = 1.0 + 0.5 / r
    dU_x = -0.5 * pts[:, 0] / r ** 3
    assert np.allclose(frame.H, 4.0 * U ** -3 * dU_x, atol=1e-12)
    assert np.all(frame.H < 0)  # positive mass pulls faces inward


def _perturbed_model(eps):
    return metric.expression_model({
        "g11": "1",
        "g12": f"{eps}*(x*exp(-(r^2)/64))",
        "g13": "0",
        "g22": f"1 + {eps}*(y^2*exp(-(r^2)/64))",
        "g23": f"{eps}*(y*z*exp(-(r^2)/64))",
        "g33": f"1 + {eps}*(sin(z)*exp(-(r^2)/64))",
    }, tau=1.0, inner_radius=0.0)


def test_face_H_first_order_matches_kappa_sum_expansion():
    # H = sum_{j != i} (g_jj,i/2 - g_ij,j) + O(eps^2) for g = delta + eps*h
    p = np.array([3.0, 1.5, -2.0])
    face = geom.FaceId(0, 1)
    results = {}
    for eps in (1e-3, 1e-4):
        jet = metric_jet(_perturbed_model(eps), p)
        H = float(geom.face_frame(jet, face, p).H)
        lead = 0.0
        for j in (1, 2):
            lead += 0.5 * jet.dg[0, j, j] - jet.dg[j, 0, j]
        results[eps] = abs(H - lead)
    # remainder is quadratic: shrinking eps by 10 shrinks it by ~100
    assert results[1e-3] < 1e-4
    assert results[1e-3] / max(results[1e-4], 1e-18) > 30.0


# ---------------------------------------------------------------------------
# edges and angles
# ---------------------------------------------------------------------------

def test_flat_edge_angle_is_right():
    edge = geom.EdgeId.make(0, 1, 1, 1)
    p = np.array([3.0, 3.0, 0.7])
    frame = geom.edge_frame(metric_jet(FLAT, p), edge, p)
    assert float(frame.theta) == pytest.approx(math.pi / 2, abs=0)
    assert float(frame.alpha) + float(frame.theta) == pytest.approx(math.pi, abs=1e-15)
    assert float(frame.length_density) == 1.0


def test_conformal_angles_stay_right():
    L = 25.0
    worst_theta = 0.0
    for edge in geom.EDGES:
        pts = np.zeros((4, 3))
        pts[:, edge.axis_a] = edge.sign_a * L
        pts[:, edge.axis_b] = edge.sign_b * L
        pts[:, edge.direction] = np.linspace(-0.8 * L, 0.8 * L, 4)
        frame = geom.edge_frame(metric_jet(SCH, pts), edge, pts)
        worst_theta = max(worst_theta, float(np.max(np.abs(frame.theta - math.pi / 2))))
    assert worst_theta < 1e-12


def test_offdiagonal_edge_angle_first_order():
    # cos(theta) = -g_12 exactly for a constant off-diagonal perturbation
    for eps in (1e-3, 1e-4):
        jet = epsilon_offdiag(eps)
        frame = geom.edge_frame(jet, geom.EdgeId.make(0, 1, 1, 1),
                                np.array([1.0, 1.0, 0.0]))
        assert abs(math.cos(float(frame.theta)) + eps) < 1e-15 + eps ** 2


def test_edge_symmetry_under_face_order():
    assert geom.EdgeId.make(0, 1, 1, -1) == geom.EdgeId.make(1, 0, -1, 1)
    assert geom.EdgeId.make(2, 0, -1, -1) == geom.EdgeId.make(0, 2, -1, -1)


def test_general_metric_stable_angle_against_arccos():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(3, 3)) * 0.2
    g = np.eye(3) + A @ A.T
    jet = constant_metric(g)
    frame = geom.edge_frame(jet, geom.EdgeId.make(0, 2, 1, -1), np.zeros(3))
    ginv = np.linalg.inv(g)
    n1 = ginv[0] / math.sqrt(ginv[0, 0])
    n2 = -ginv[2] / math.sqrt(ginv[2, 2])
    ref = math.acos(np.clip(n1 @ g @ n2, -1, 1))
    assert float(frame.theta) == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# slice curves and turning angles
# ---------------------------------------------------------------------------

def test_flat_curve_frame():
    face = geom.FaceId(0, 1)
    p = np.array([5.0, 2.0, 1.0])
    frame = geom.curve_frame(metric_jet(FLAT, p), 2, face, p, level=1.0)
    assert frame.kappa == 0.0
    assert np.allclose(frame.T, [0.0, 1.0, 0.0], atol=0)
    assert np.allclose(frame.nu_bar, [1.0, 0.0, 0.0], atol=0)


def test_circle_fixes_kappa_sign():
    # round circle of radius rho in the flat plane: kappa = +1/rho
    rho = 2.5
    p = np.array([rho, 0.0, 0.0])
    jet = metric_jet(FLAT, p)
    _, Gamma = geom.inverse_and_christoffel(jet)
    T = np.array([0.0, 1.0, 0.0])
    dT = np.array([[0.0, 0.0, 0.0], [-1.0 / rho, 0.0, 0.0], [0.0, 0.0, 0.0]])
    acc = geom.covariant_acceleration(Gamma, T, dT)
    kappa = -float(np.einsum("a,ab,b->", acc, jet.g, np.array([1.0, 0.0, 0.0])))
    assert kappa == pytest.approx(1.0 / rho, abs=1e-14)


def test_curve_frame_invariants_on_curved_metric():
    model = metric.composed_model(1.0, tau_diffeo=0.75, amplitude=0.2)
    face = geom.FaceId(1, -1)
    L, t = 20.0, 4.0
    pts = np.zeros((6, 3))
    pts[:, 1] = -L
    pts[:, 2] = t
    pts[:, 0] = np.linspace(-0.9 * L, 0.9 * L, 6)
    jet = metric_jet(model, pts)
    frame = geom.curve_frame(jet, 2, face, pts, level=t)
    assert np.allclose(geom.g_norm(jet.g, frame.T), 1.0, atol=1e-12)
    assert np.allclose(geom.g_norm(jet.g, frame.nu_bar), 1.0, atol=1e-12)
    assert np.allclose(geom.g_inner(jet.g, frame.T, frame.nu_bar), 0.0, atol=1e-12)
    assert np.allclose(frame.nu_bar[:, 2], 0.0, atol=0)  # tangent to the slice plane
    assert np.all(frame.nu_bar[:, 1] * face.sign > 0)    # outward


def test_kappa_first_order_expansion():
    # kappa = g_jj,i/2 - g_ij,j + O(eps^2) on the +i face
    comps = {"g11": "1", "g12": "sin(y)*exp(-(r^2)/200)", "g13": "0",
             "g22": "1 + cos(x)*exp(-(r^2)/200)", "g23": "0", "g33": "1"}
    p = np.array([6.0, 2.0, 3.0])
    face = geom.FaceId(0, 1)
    gaps = {}
    for eps in (1e-3, 1e-4):
        scaled = dict(comps)
        scaled["g12"] = f"{eps}*(sin(y)*exp(-(r^2)/200))"
        scaled["g22"] = f"1 + {eps}*(cos(x)*exp(-(r^2)/200))"
        model = metric.expression_model(scaled, tau=1.0, inner_radius=0.0)
        jet = metric_jet(model, p)
        frame = geom.curve_frame(jet, 2, face, p)  # curve direction j = 1
        lead = 0.5 * jet.dg[0, 1, 1] - jet.dg[1, 0, 1]
        gaps[eps] = abs(float(frame.kappa) - float(lead))
    assert gaps[1e-3] / max(gaps[1e-4], 1e-18) > 30.0


def test_kappa_leading_term_carries_opposite_sign_on_opposite_face():
    # on the -i face the leading expression flips: kappa ~ -(g_jj,i/2 - g_ij,j)
    p = np.array([-6.0, 2.0, 3.0])  # on the -x face
    face = geom.FaceId(0, -1)
    gaps = {}
    for eps in (1e-3, 1e-4):
        jet = metric_jet(_perturbed_model(eps), p)
        frame = geom.curve_frame(jet, 2, face, p)  # curve direction j = 1
        lead = -(0.5 * jet.dg[0, 1, 1] - jet.dg[1, 0, 1])
        gaps[eps] = abs(float(frame.kappa) - float(lead))
    assert gaps[1e-3] / max(gaps[1e-4], 1e-18) > 30.0


def test_flat_turning_angles():
    L, t = 7.0, 1.5
    pts = np.zeros((4, 3))
    pts[:, 2] = t
    pts[:, 0] = (L, -L, -L, L)
    pts[:, 1] = (L, L, -L, -L)
    jets = metric_jet(FLAT, pts)
    corner = [MetricJet2(jets.g[c], jets.dg[c], jets.ddg[c]) for c in range(4)]
    angles = geom.turning_angles(corner, 2, t)
    assert np.allclose(angles.betas, math.pi / 2, atol=0)
    assert float(angles.beta_total) == pytest.approx(2 * math.pi, abs=0)
    assert float(angles.beta_total) == pytest.approx(float(np.sum(angles.betas)), abs=0)


def test_offdiagonal_turning_angle_first_order():
    # cos(beta) = -g_21 exactly at the (+,+) vertex for slice axis 3
    for eps in (1e-3, 1e-4):
        corner = [epsilon_offdiag(eps) for _ in range(4)]
        angles = geom.turning_angles(corner, 2, 0.0)
        c0 = math.cos(float(angles.betas[0]))
        assert abs(c0 + eps) < 1e-15 + eps ** 2
        # mixed-sign vertices carry the opposite sign
        assert abs(math.cos(float(angles.betas[1])) - eps) < 1e-15 + eps ** 2


def test_conformal_turning_angles_right():
    L, t = 25.0, -10.0
    pts = np.zeros((4, 3))
    pts[:, 2] = t
    pts[:, 0] = (L, -L, -L, L)
    pts[:, 1] = (L, L, -L, -L)
    jets = metric_jet(SCH, pts)
    corner = [MetricJet2(jets.g[c], jets.dg[c], jets.ddg[c]) for c in range(4)]
    angles = geom.turning_angles(corner, 2, t)
    assert np.max(np.abs(angles.betas - math.pi / 2)) < 1e-12


def test_theta_equals_beta_identically_on_conformal():
    # conformal invariance of angles: both are exactly pi/2
    L, t = 50.0, 12.0
    pts = np.zeros((4, 3))
    pts[:, 2] = t
    pts[:, 0] = (L, -L, -L, L)
    pts[:, 1] = (L, L, -L, -L)
    jets = metric_jet(SCH, pts)
    edges = [geom.EdgeId.make(0, 1, 1, 1), geom.EdgeId.make(0, 1, -1, 1),
             geom.EdgeId.make(0, 1, -1, -1), geom.EdgeId.make(0, 1, 1, -1)]
    corner = [MetricJet2(jets.g[c], jets.dg[c], jets.ddg[c]) for c in range(4)]
    angles = geom.turning_angles(corner, 2, t)
    for c, edge in enumerate(edges):
        theta = geom.edge_frame(corner[c], edge, pts[c]).theta
        assert abs(float(theta) - float(angles.betas[c])) < 1e-12


def _theta_beta_gap(model, L):
    gaps = []
    for t in (-0.7 * L, 0.2 * L, 0.6 * L):
        pts = np.zeros((4, 3))
        pts[:, 2] = t
        pts[:, 0] = (L, -L, -L, L)
        pts[:, 1] = (L, L, -L, -L)
        jets = metric_jet(model, pts)
        corner = [MetricJet2(jets.g[c], jets.dg[c], jets.ddg[c]) for c in range(4)]
        angles = geom.turning_angles(corner, 2, t)
        edges = [geom.EdgeId.make(0, 1, 1, 1), geom.EdgeId.make(0, 1, -1, 1),
                 geom.EdgeId.make(0, 1, -1, -1), geom.EdgeId.make(0, 1, 1, -1)]
        for c, edge in enumerate(edges):
            theta = geom.edge_frame(corner[c], edge, pts[c]).theta
            gaps.append(abs(float(theta) - float(angles.betas[c])))
    return max(gaps)


def test_theta_minus_beta_decays_quadratically_in_L():
    # needs a non-conformal chart for a nonzero signal: pullback at tau = 1
    # gives |theta - beta| ~ L^-2, so doubling L divides the gap by ~4
    model = metric.pullback_model(tau=1.0)
    g50 = _theta_beta_gap(model, 50.0)
    g100 = _theta_beta_gap(model, 100.0)
    assert g50 > 1e-9
    assert 0.125 <= g100 / g50 <= 0.5


def _face_defect(model, L, n=9):
    worst = 0.0
    for face in (geom.FaceId(0, 1), geom.FaceId(1, -1)):
        u = np.linspace(-0.8 * L, 0.8 * L, n)
        A, B = np.meshgrid(u, u, indexing="ij")
        pts = np.zeros((A.size, 3))
        pts[:, face.axis] = face.sign * L
        a, b = face.in_face_axes
        pts[:, a] = A.ravel()
        pts[:, b] = B.ravel()
        jets = metric_jet(model, pts)
        H = geom.face_frame(jets, face, pts).H
        ks = 0.0
        for k in face.in_face_axes:
            ks = ks + geom.curve_frame(jets, k, face, pts).kappa
        worst = max(worst, float(np.max(np.abs(H - ks))))
    return worst


def test_H_equals_kappa_sum_exactly_on_conformal():
    # conformal metrics make the mean curvature equal the kappa sum pointwise
    assert _face_defect(SCH, 50.0) < 1e-12
    assert _face_defect(SCH, 100.0) < 1e-12


def test_H_minus_kappa_sum_decays_cubically():
    # non-conformal chart: |H - sum kappa| ~ L^(-2 tau - 1) = L^-3 at tau = 1
    model = metric.pullback_model(tau=1.0)
    d50 = _face_defect(model, 50.0)
    d100 = _face_defect(model, 100.0)
    assert d50 > 1e-9
    assert 1.0 / 16.0 <= d100 / d50 <= 1.0 / 4.0


# ---------------------------------------------------------------------------
# coordinate gradients and level sets
# ---------------------------------------------------------------------------

def test_flat_coordinate_gradient():
    jet = metric_jet(FLAT, np.array([1.0, 2.0, 3.0]))
    norm, dnorm, lap = geom.coordinate_gradient_jet(jet, 1)
    assert norm == 1.0 and not dnorm.any() and lap == 0.0


def test_schwarzschild_coordinate_gradient_closed_forms():
    rng = np.random.default_rng(12)
    pts = rng.uniform(3.0, 30.0, size=(8, 3))
    jet = metric_jet(SCH, pts)
    r = np.linalg.norm(pts, axis=1)
    U = 1.0 + 0.5 / r
    for k in range(3):
        norm, _, lap = geom.coordinate_gradient_jet(jet, k)
        assert np.allclose(norm, U ** -2, atol=1e-12)
        dU_k = -0.5 * pts[:, k] / r ** 3
        assert np.allclose(lap, 2.0 * U ** -5 * dU_k, atol=1e-10)


def test_coordinate_gradient_laplacian_matches_divergence_form():
    model = metric.pullback_model(tau=0.75)
    pts = np.array([[9.0, 2.0, -5.0], [30.0, 10.0, 3.0]])
    jet = metric_jet(model, pts)
    ginv, _ = geom.inverse_and_christoffel(jet)
    dginv = geom.inverse_metric_derivative(ginv, jet.dg)
    dlog = 0.5 * np.einsum("...ab,...mab->...m", ginv, jet.dg)
    for k in range(3):
        _, _, lap = geom.coordinate_gradient_jet(jet, k)
        div = (np.einsum("...aa->...", dginv[..., :, k, :])
               + np.einsum("...a,...a->...", ginv[..., k, :], dlog))
        assert np.allclose(lap, div, atol=1e-13)


def test_level_set_sphere_curvature_flat():
    p = np.array([2.0, 1.0, 2.0])
    rho = np.linalg.norm(p)
    K = geom.level_set_gauss_curvature(metric_jet(FLAT, p),
                                       eval_jet2(parse("1/r"), p))
    assert float(K) == pytest.approx(1.0 / rho ** 2, rel=1e-12)


def test_level_set_plane_curvature_flat():
    p = np.array([0.3, -1.0, 4.0])
    K = geom.level_set_gauss_curvature(metric_jet(FLAT, p),
                                       eval_jet2(parse("x"), p))
    assert float(K) == pytest.approx(0.0, abs=1e-15)


def test_level_set_schwarzschild_sphere():
    # induced metric on a coordinate sphere is round with radius U^2 r
    from cubemass.stern import schwarzschild_radial
    u = schwarzschild_radial(1.0)
    rng = np.random.default_rng(9)
    pts = rng.uniform(2.0, 20.0, size=(6, 3))
    K = geom.level_set_gauss_curvature(metric_jet(SCH, pts), u.jet(pts))
    r = np.linalg.norm(pts, axis=1)
    U = 1.0 + 0.5 / r
    assert np.allclose(K, U ** -4 / r ** 2, rtol=1e-10)


def test_degenerate_gradient_raises():
    p = np.array([1.0, 1.0, 1.0])
    zero = ScalarJet2(np.asarray(0.0), np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(DegenerateGradient):
        geom.level_set_gauss_curvature(metric_jet(FLAT, p), zero)

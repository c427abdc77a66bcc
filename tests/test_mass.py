import math
import weakref

import numpy as np
import pytest

from cubemass import geom, mass, metric, quad
from cubemass.errors import DomainError
from cubemass.quad import QuadratureSpec

SPEC = QuadratureSpec()
FLAT = metric.flat_model()
SCH = metric.schwarzschild_model(1.0)


@pytest.fixture(scope="module")
def sch_ladder():
    """Shared Schwarzschild estimates over the standard ladder."""
    Ls = (25.0, 50.0, 100.0, 200.0)
    out = {"Ls": Ls}
    out["adm"] = [mass.adm_flux_cube(SCH, L, SPEC).value for L in Ls]
    out["gromov"] = [mass.gromov_cube_mass(SCH, L, SPEC) for L in Ls]
    return out


# ---------------------------------------------------------------------------
# flat zeros
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", mass.METHODS)
def test_flat_estimators_vanish(method):
    est = mass.estimate(FLAT, method, 10.0, SPEC, axis=1)
    assert abs(est.value) < 1e-12
    assert all(abs(v) < 1e-12 for v in est.breakdown.values())


def test_flat_defect_zero():
    assert mass.gromov_defect(FLAT, 10.0, SPEC).defect == 0.0


# ---------------------------------------------------------------------------
# ADM flux
# ---------------------------------------------------------------------------

def test_adm_cube_schwarzschild_against_closed_form(sch_ladder):
    # independent oracle: the face flux reduces to -2 dU^4/dnu0, so
    # value(L) = (3qL/pi) * Int (1+q/r)^3 / r^3 over one face (symmetry x6)
    L = 100.0
    q = 0.5
    u, w = quad.gauss_nodes(200, -L, L)
    A, B = np.meshgrid(u, u, indexing="ij")
    W = np.outer(w, w)
    r = np.sqrt(L ** 2 + A ** 2 + B ** 2)
    oracle = 3 * q * L / math.pi * float(np.sum(W * (1 + q / r) ** 3 / r ** 3))
    value = sch_ladder["adm"][2]
    assert value == pytest.approx(oracle, rel=1e-10)
    # pinned: the finite-L bias at L=100 is ~ +1.25e-2
    assert value == pytest.approx(1.0125, abs=5e-4)


def test_adm_cube_error_halves_with_L(sch_ladder):
    errs = [abs(v - 1.0) for v in sch_ladder["adm"]]
    for a, b in zip(errs, errs[1:]):
        assert 1.7 < a / b < 2.3


def test_adm_sphere_flat_and_schwarzschild():
    assert mass.adm_flux_sphere(FLAT, 100.0).value == 0.0
    v = mass.adm_flux_sphere(SCH, 1e4).value
    # closed form: value = m U(rho)^3 = 1 + 1.5e-4 + O(rho^-2)
    assert abs(v - 1.0) < 1e-3
    assert v == pytest.approx((1 + 0.5e-4) ** 3, rel=1e-9)


def test_adm_measure_policies_agree_to_leading_order():
    g_meas = mass.adm_flux_cube(SCH, 100.0, SPEC, measure="g").value
    e_meas = mass.adm_flux_cube(SCH, 100.0, SPEC, measure="euclidean").value
    assert e_meas != g_meas
    assert abs(g_meas - e_meas) < 0.05  # difference is O(L^(1-2tau))


def test_adm_cube_pullback_decays_at_sharp_rate():
    model = metric.pullback_model(tau=0.75)
    v25 = mass.adm_flux_cube(model, 25.0, SPEC).value
    v100 = mass.adm_flux_cube(model, 100.0, SPEC).value
    assert abs(v100) < 0.15
    # calibrated bound: C = |v25| * 25^0.5, check |v100| <= C * 100^-0.5 * 1.3
    C = abs(v25) * 25.0 ** 0.5
    assert abs(v100) <= 1.3 * C * 100.0 ** -0.5


# ---------------------------------------------------------------------------
# mean curvature + dihedral deficit
# ---------------------------------------------------------------------------

def test_gromov_cube_schwarzschild(sch_ladder):
    # conformal angle invariance kills the edge term entirely
    for est in sch_ladder["gromov"]:
        assert abs(est.breakdown["edge_term"]) < 1e-12
    errs = [abs(e.value - 1.0) for e in sch_ladder["gromov"]]
    for a, b in zip(errs, errs[1:]):
        assert 1.7 < a / b < 2.3
    # independent oracle: value = -(1/2pi) Int U dU/dnu0 over the cube
    L, q = 50.0, 0.5
    u, w = quad.gauss_nodes(200, -L, L)
    A, B = np.meshgrid(u, u, indexing="ij")
    W = np.outer(w, w)
    r = np.sqrt(L ** 2 + A ** 2 + B ** 2)
    oracle = 6 * q * L / (2 * math.pi) * float(np.sum(W * (1 + q / r) / r ** 3))
    assert sch_ladder["gromov"][1].value == pytest.approx(oracle, rel=1e-10)


def test_gromov_value_is_documented_combination(sch_ladder):
    est = sch_ladder["gromov"][0]
    combo = (-est.breakdown["face_term"] + est.breakdown["edge_term"]) / (8 * math.pi)
    assert est.value == combo  # bitwise


def test_gromov_alpha_and_theta_forms_agree_bitwise(sch_ladder):
    est = sch_ladder["gromov"][0]
    assert est.breakdown["edge_term_alpha"] == est.breakdown["edge_term"]


def test_gromov_pullback_converges_to_zero():
    model = metric.pullback_model(tau=0.75)
    vals = [mass.gromov_cube_mass(model, L, SPEC).value for L in (25.0, 50.0, 100.0, 200.0)]
    errs = np.abs(vals)
    rate = -np.polyfit(np.log([25.0, 50.0, 100.0, 200.0]), np.log(errs), 1)[0]
    assert 0.3 < rate < 0.7


def test_edge_double_counting_bookkeeping():
    model = metric.pullback_model(tau=1.0)
    ordered, unordered = mass.edge_deficit_sums(model, 25.0, SPEC)
    assert abs(unordered) > 1e-6  # non-trivial deficit on this model
    assert abs(ordered - 2.0 * unordered) <= 1e-12 * max(1.0, abs(ordered))


# ---------------------------------------------------------------------------
# sliced angle defect
# ---------------------------------------------------------------------------

def test_gauss_bonnet_flat_slice_defect_identically_zero():
    for t in (-8.0, 0.3, 7.7):
        assert mass.slice_defect(FLAT, 1, t, 10.0, SPEC) == 0.0


#: a small odd order, not the default: ``slice_defect`` places each level's
#: corners itself, so corners read from the wrong edges, or in the wrong
#: traversal order, fail the level-by-level comparison below
SLICE_SPEC = QuadratureSpec(5)


def _slice_defects(model, axes, L, spec):
    """Level weights and per-level slice defects, read as the estimators read them."""
    _, wt = quad.gauss_nodes(spec.order, -L, L)
    kappa = sum(mass._face_kappa(face, quad.face_sample(model, face, L, spec), axes, wt)
                for face in geom.FACES)
    return wt, mass._slice_defects(model, axes, L, spec, kappa)


@pytest.mark.parametrize("model", [SCH, metric.pullback_model(0.75),
                                   metric.composed_model()],
                         ids=["schwarzschild", "pullback", "composed"])
def test_slice_term_equals_per_level_integral(model):
    L, spec = 37.0, SLICE_SPEC
    levels, _ = quad.gauss_nodes(spec.order, -L, L)
    wt, defects = _slice_defects(model, (0, 1, 2), L, spec)
    gauss_bonnet = mass.gauss_bonnet_slice_mass(model, L, spec).breakdown
    for axis in range(3):
        # level by level: a face grid read with levels and curve nodes
        # swapped integrates to the same term, so only this tells it apart
        for t, defect in zip(levels, defects[axis]):
            ref = mass.slice_defect(model, axis, float(t), L, spec)
            assert abs(defect - ref) <= 1e-12 * max(1.0, abs(ref))
        per_level = quad.integrate_slices(
            model, axis, L, lambda t: mass.slice_defect(model, axis, t, L, spec), spec)
        term = float(wt @ defects[axis])
        assert abs(term - per_level) <= 1e-12 * max(1.0, abs(per_level))
        assert gauss_bonnet[f"slice_term_{axis + 1}"] == term
        # one axis alone reads the same face sample as all three together
        _, (alone,) = _slice_defects(model, (axis,), L, spec)
        assert float(wt @ alone) == term
        bkks = mass.bkks_direction_mass(model, L, axis, spec).breakdown
        assert bkks[f"slice_term_{axis + 1}"] == term


def _counting_jets(monkeypatch, orders=None):
    """Sizes of every metric_jet call made through quad or mass; the order
    each call asks for is appended to ``orders`` when it is given."""
    sizes = []

    def counting_jet(model, points, order=2):
        sizes.append(np.asarray(points).size // 3)
        if orders is not None:
            orders.append(order)
        return metric.metric_jet(model, points, order)

    for module in (quad, mass):
        monkeypatch.setattr(module, "metric_jet", counting_jet)
    return sizes


# one jet per face, then the 4 corner edges of each of the 3 slice axes
@pytest.mark.parametrize("spec", [SPEC, SLICE_SPEC], ids=["default", "slice_spec"])
def test_gauss_bonnet_jet_batches(monkeypatch, count_computations, spec):
    inversions = count_computations("ginv")  # the SPD check and the inverse
    sizes = _counting_jets(monkeypatch)
    mass.gauss_bonnet_slice_mass(SCH, 50.0, spec)
    n = spec.order
    assert sizes == [n * n] * 6 + [12 * n]
    # the corner jets are slices of one checked batch jet: no new inversions
    assert len(inversions) == len(sizes)


def _sorted_rows(points):
    return points[np.lexsort(points.T[::-1])]


@pytest.mark.parametrize("spec", [SPEC, SLICE_SPEC], ids=["default", "slice_spec"])
def test_slice_corners_are_the_edge_nodes(monkeypatch, spec):
    L, calls = 50.0, []

    def recording_jet(model, points, order=2):
        calls.append(np.array(points).reshape(-1, 3))
        return metric.metric_jet(model, points, order)

    for module in (quad, mass):
        monkeypatch.setattr(module, "metric_jet", recording_jet)
    mass.gromov_cube_mass(SCH, L, spec)
    edges = _sorted_rows(calls[-1])
    mass.gauss_bonnet_slice_mass(SCH, L, spec)
    # gauss-bonnet's corner jet is gromov's edge jet, node for node
    assert np.array_equal(_sorted_rows(calls[-1]), edges)
    for axis in range(3):
        mass.bkks_direction_mass(SCH, L, axis, spec)
        # bkks reads the 4 edges parallel to its axis, and no other
        i, j = (a for a in range(3) if a != axis)
        parallel = edges[(np.abs(edges[:, i]) == L) & (np.abs(edges[:, j]) == L)]
        assert len(parallel) == 4 * spec.order
        assert np.array_equal(_sorted_rows(calls[-1]), parallel)


@pytest.mark.parametrize("estimator", [mass.gromov_cube_mass, mass.bartnik_sum_mass])
def test_metric_checked_and_inverted_once_per_jet(monkeypatch, count_computations,
                                                  estimator):
    jets = []
    inversions = count_computations("ginv")  # the SPD check and the inverse

    def counting_jet(model, points, order=2):
        jets.append(len(points))
        return metric.metric_jet(model, points, order)

    for module in (quad, mass):
        monkeypatch.setattr(module, "metric_jet", counting_jet)
    estimator(SCH, 20.0, QuadratureSpec(4))
    assert len(jets) > 0
    assert len(inversions) == len(jets)


@pytest.mark.parametrize("model", [SCH, metric.composed_model()], ids=["sch", "composed"])
def test_bartnik_sum_evaluates_each_face_once(monkeypatch, model):
    spec = QuadratureSpec(6)
    per_axis = [mass.bartnik_gradient_integral(model, 30.0, axis, spec) for axis in range(3)]
    calls = []

    def counting_jet(model, points, order=2):
        calls.append(len(points))
        return metric.metric_jet(model, points, order)

    monkeypatch.setattr(quad, "metric_jet", counting_jet)
    est = mass.bartnik_sum_mass(model, 30.0, spec)
    assert calls == [36] * 6
    # same face order per axis: the terms are the single-axis integrals, bit for bit
    assert [est.breakdown[f"gradient_flux_term_{k + 1}"] for k in range(3)] == per_axis
    assert est.breakdown["gradient_flux_term"] == per_axis[0] + per_axis[1] + per_axis[2]


@pytest.mark.parametrize("model", [SCH, metric.composed_model()], ids=["sch", "composed"])
@pytest.mark.parametrize("axis", range(3))
def test_bkks_evaluates_each_face_once(monkeypatch, model, axis):
    spec = QuadratureSpec(6)
    flux = mass.bartnik_gradient_integral(model, 30.0, axis, spec)

    def laplacian(points, jets):
        return geom.coordinate_gradient_jet(jets, axis)[2]

    plus, minus = (quad.integrate_face(model, geom.FaceId(axis, sign), 30.0, laplacian,
                                       "euclidean", spec) for sign in (1, -1))
    calls = _counting_jets(monkeypatch)
    est = mass.bkks_direction_mass(model, 30.0, axis, spec)
    # the slice term reads the face jets; its corners are one jet of 4 lines
    assert calls == [36] * 6 + [4 * 6]
    # same face order: the terms are the separate face integrals, bit for bit
    assert est.breakdown["gradient_flux_term"] == flux
    assert est.breakdown["correction_term"] == plus - minus


def _tracking_jets(monkeypatch):
    """Per metric_jet call made through quad or mass, how many earlier jets
    are still alive when it starts."""
    refs, alive = [], []

    def tracking_jet(model, points, order=2):
        alive.append(sum(ref() is not None for ref in refs))
        jet = metric.metric_jet(model, points, order)
        refs.append(weakref.ref(jet))
        return jet

    for module in (quad, mass):
        monkeypatch.setattr(module, "metric_jet", tracking_jet)
    return alive


@pytest.mark.parametrize("method", ["gauss_bonnet_slices", "bkks_direction"])
def test_slice_estimators_hold_one_jet_at_a_time(monkeypatch, method):
    alive = _tracking_jets(monkeypatch)
    mass.estimate(SCH, method, 30.0, QuadratureSpec(4), axis=1)
    # each face's jet is dropped before the next face's (or the corners') is built
    assert alive == [0] * 7


@pytest.mark.parametrize("model", [SCH, metric.composed_model()], ids=["sch", "composed"])
@pytest.mark.parametrize("method", mass.METHODS)
def test_estimators_read_no_ddg_and_christoffel_only_for_the_laplacian(count_computations,
                                                                       model, method):
    built = count_computations("ddg")
    gammas = count_computations("christoffel")
    mass.estimate(model, method, 20.0, QuadratureSpec(4), axis=1)
    assert built == []
    # bkks: Delta x^k on its two axis faces; curve_frame reads Gamma^m_jj itself
    assert len(gammas) == (2 if method == "bkks_direction" else 0)


# after the 6 face jets: gromov's one jet of 12 edges, bkks's one jet of the
# 4 edges parallel to its axis
@pytest.mark.parametrize("estimate, last_jets", [
    (mass.bartnik_sum_mass, []), (mass.gromov_cube_mass, [12 * 4]),
    (lambda model, L, spec: mass.bkks_direction_mass(model, L, 1, spec), [4 * 4])],
    ids=["bartnik_sum", "gromov", "bkks"])
def test_inverse_metric_derivative_computed_once_per_face_jet(monkeypatch, count_computations,
                                                              estimate, last_jets):
    derivatives = count_computations("dginv")
    jets = _counting_jets(monkeypatch)
    estimate(SCH, 20.0, QuadratureSpec(4))
    # every face jet needs d g^-1; the edge and corner jets do not
    assert len(derivatives) == 6
    assert jets == [16] * 6 + last_jets


# face jets of order 4 hold 16 nodes; the sphere rule of order 4 holds 32
@pytest.mark.parametrize("model", [SCH, metric.composed_model()], ids=["sch", "composed"])
@pytest.mark.parametrize("run, sizes", [
    (lambda m, spec: mass.adm_flux_cube(m, 20.0, spec), [16] * 6),
    (lambda m, spec: mass.adm_flux_sphere(m, 20.0, spec.order), [32]),
    (lambda m, spec: mass.gromov_cube_mass(m, 20.0, spec), [16] * 6 + [12 * 4]),
    (lambda m, spec: mass.gromov_defect(m, 20.0, spec), [16] * 6 + [12 * 4]),
    (lambda m, spec: mass.gauss_bonnet_slice_mass(m, 20.0, spec), [16] * 6 + [12 * 4]),
    (lambda m, spec: mass.bkks_direction_mass(m, 20.0, 2, spec), [16] * 6 + [4 * 4]),
    (lambda m, spec: mass.bartnik_sum_mass(m, 20.0, spec), [16] * 6),
    (lambda m, spec: mass.bartnik_gradient_integral(m, 20.0, 0, spec), [16] * 6),
    (lambda m, spec: mass.slice_defect(m, 1, 3.5, 20.0, spec), [4] + [4] * 4),
], ids=["adm", "adm_sphere", "gromov", "defect", "gauss_bonnet", "bkks", "bartnik_sum",
        "bartnik_integral", "slice_defect"])
def test_estimators_evaluate_first_order_jets(monkeypatch, model, run, sizes):
    orders = []
    calls = _counting_jets(monkeypatch, orders)
    run(model, QuadratureSpec(4))
    assert calls == sizes
    assert orders == [1] * len(sizes)


# g = delta and dg = 0 exactly for x < 4, where the Hessian of g11 is NaN (0 * inf)
_OVERFLOWING_HESSIAN = {"g11": "1 + 1e-50*exp(1e200*(x - 4))", "g12": "0", "g13": "0",
                        "g22": "1", "g23": "0", "g33": "1"}


@pytest.mark.parametrize("method", mass.METHODS)
def test_estimators_never_evaluate_an_overflowing_hessian(method):
    model = metric.expression_model(_OVERFLOWING_HESSIAN, tau=1.0, inner_radius=0.0)
    spec = QuadratureSpec(4)
    face_nodes, _ = quad.face_points(geom.FaceId(0, 1), 3.0, spec)
    with pytest.raises(DomainError, match="not finite"):
        metric.metric_jet(model, face_nodes)  # the default order evaluates it
    est = mass.estimate(model, method, 3.0, spec, axis=1)
    assert abs(est.value) < 1e-12
    assert all(abs(v) < 1e-12 for v in est.breakdown.values())


@pytest.mark.parametrize("L", [1e103, 1e150])
@pytest.mark.parametrize("method, axis", [("adm_cube", None), ("gromov_cube", None),
                                          ("gauss_bonnet_slices", None),
                                          ("bkks_direction", 0), ("bkks_direction", 2)])
def test_schwarzschild_mass_on_cubes_where_r_cubed_overflows(method, axis, L):
    # r^3 overflows beyond r ~ 1e102, yet m/r^2 and every flux stay finite
    est = mass.estimate(SCH, method, L, SPEC, axis=axis)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_slice_term_rejects_small_cube():
    from cubemass.errors import OutsideDomain
    with pytest.raises(OutsideDomain):
        mass.gauss_bonnet_slice_mass(SCH, 1.5, SPEC)


def test_gauss_bonnet_schwarzschild():
    est50 = mass.gauss_bonnet_slice_mass(SCH, 50.0, SPEC)
    est100 = mass.gauss_bonnet_slice_mass(SCH, 100.0, SPEC)
    terms50 = [est50.breakdown[f"slice_term_{k}"] for k in (1, 2, 3)]
    # spherical symmetry: per-axis terms agree to relative 1e-6 (and better)
    for term in terms50[1:]:
        assert term == pytest.approx(terms50[0], rel=1e-6)
    assert abs(est50.value - 1.0) < 0.01
    ratio = abs(est50.value - 1.0) / abs(est100.value - 1.0)
    assert 1.7 < ratio < 2.3


def test_gauss_bonnet_localized_bump_sees_nothing():
    # metric differs from flat only deep inside the cube
    bump = "exp(-(r^2))"
    model = metric.expression_model(
        {"g11": f"1 + 0.3*{bump}", "g12": f"0.1*{bump}", "g13": "0",
         "g22": "1", "g23": "0", "g33": f"1 + 0.2*{bump}"},
        tau=1.0, inner_radius=0.0)
    est = mass.gauss_bonnet_slice_mass(model, 12.0, SPEC)
    assert abs(est.value) < 1e-12


# ---------------------------------------------------------------------------
# per-direction formula
# ---------------------------------------------------------------------------

def test_bkks_direction_schwarzschild_each_axis():
    for axis in range(3):
        est100 = mass.bkks_direction_mass(SCH, 100.0, axis, SPEC)
        est200 = mass.bkks_direction_mass(SCH, 200.0, axis, SPEC)
        assert abs(est100.value - 1.0) < 0.01
        ratio = abs(est100.value - 1.0) / abs(est200.value - 1.0)
        assert 1.7 < ratio < 2.3
        # the chart is not harmonic: correction must be substantial
        assert abs(est100.breakdown["correction_term"]) > 1.0
        assert abs(est100.breakdown["uncorrected_value"] - 1.0) > 0.05


def test_bkks_correction_matches_conformal_closed_form():
    L, axis, q = 50.0, 1, 0.5
    est = mass.bkks_direction_mass(SCH, L, axis, SPEC)

    def lap_closed(points, jets):
        r = np.linalg.norm(points, axis=-1)
        U = 1 + q / r
        dU = -q * points[:, axis] / r ** 3
        return 2.0 * U ** -5 * dU

    plus = quad.integrate_face(SCH, geom.FaceId(axis, 1), L, lap_closed,
                               "euclidean", SPEC)
    minus = quad.integrate_face(SCH, geom.FaceId(axis, -1), L, lap_closed,
                                "euclidean", SPEC)
    assert est.breakdown["correction_term"] == pytest.approx(plus - minus, rel=1e-6)


def test_bkks_combination_identity_with_slices_and_fluxes():
    # sum_k (8 pi value_k + correction_k) = sum_k flux_k + 8 pi * slice mass
    L = 50.0
    gb = mass.gauss_bonnet_slice_mass(SCH, L, SPEC)
    lhs = 0.0
    flux_sum = 0.0
    for axis in range(3):
        est = mass.bkks_direction_mass(SCH, L, axis, SPEC)
        lhs += 8 * math.pi * est.value + est.breakdown["correction_term"]
        flux_sum += est.breakdown["gradient_flux_term"]
    rhs = flux_sum + 8 * math.pi * gb.value
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_bartnik_integral_matches_conformal_closed_form():
    # flux of d_nu U^-2 with g-measure reduces to -2 Int U^-1 dU/dnu0 dsigma0
    L, axis, q = 100.0, 0, 0.5
    flux = mass.bartnik_gradient_integral(SCH, L, axis, SPEC)

    def closed(points, jets, face_axis, face_sign):
        r = np.linalg.norm(points, axis=-1)
        U = 1 + q / r
        dU = -q * points[:, face_axis] / r ** 3
        return -2.0 * dU * face_sign / U

    ref = 0.0
    for face in geom.FACES:
        ref += quad.integrate_face(
            SCH, face, L,
            lambda pts, jets, fa=face.axis, fs=face.sign: closed(pts, jets, fa, fs),
            "euclidean", SPEC)
    assert flux == pytest.approx(ref, rel=1e-8)


def test_bartnik_sum_reports_per_axis_terms():
    est = mass.bartnik_sum_mass(SCH, 50.0, SPEC)
    total = sum(est.breakdown[f"gradient_flux_term_{k}"] for k in (1, 2, 3))
    assert est.breakdown["gradient_flux_term"] == pytest.approx(total, abs=1e-12)
    assert est.value == total / (16 * math.pi) or est.value == pytest.approx(
        total / (16 * math.pi), abs=1e-15)
    # isotropic chart is not harmonic: the sum is biased (about 3/4 here)
    assert est.value == pytest.approx(0.75, abs=0.03)


# ---------------------------------------------------------------------------
# defect sign
# ---------------------------------------------------------------------------

def test_defect_sign_tracks_mass_sign():
    neg = metric.schwarzschild_model(-1.0)
    assert neg.inner_radius > 0.5
    for L in (50.0, 100.0):
        assert mass.gromov_defect(SCH, L, SPEC).defect > 0.0
        assert mass.gromov_defect(neg, L, SPEC).defect < 0.0


# ---------------------------------------------------------------------------
# composed model and cross-checks
# ---------------------------------------------------------------------------

def test_composed_model_sphere_oracle_self_check():
    model = metric.composed_model(1.0, tau_diffeo=0.75, amplitude=0.2)
    e100 = abs(mass.adm_flux_sphere(model, 100.0).value - 1.0)
    e400 = abs(mass.adm_flux_sphere(model, 400.0).value - 1.0)
    # error is O(r^(1-2tau)) = O(r^-1/2): quadrupling r at least halves it
    assert e400 <= 0.75 * e100
    assert e100 < 0.05


def test_composed_adm_cube_recovers_mass():
    model = metric.composed_model(1.0, tau_diffeo=0.75, amplitude=0.2)
    assert mass.adm_flux_cube(model, 100.0, SPEC).value == pytest.approx(1.0, abs=0.05)


def test_estimate_dispatch_and_validation():
    from cubemass.errors import ValidationError
    with pytest.raises(ValidationError):
        mass.estimate(FLAT, "bogus", 10.0, SPEC)
    with pytest.raises(ValidationError):
        mass.estimate(FLAT, "bkks_direction", 10.0, SPEC)  # missing axis


def test_every_value_is_the_documented_breakdown_combination():
    model = metric.composed_model(1.0, tau_diffeo=0.75, amplitude=0.2)
    L = 10.0
    adm = mass.adm_flux_cube(model, L, SPEC)
    assert adm.value == adm.breakdown["face_term"] / (16 * math.pi)
    bk = mass.bkks_direction_mass(model, L, 2, SPEC)
    combo = (bk.breakdown["gradient_flux_term"] + bk.breakdown["slice_term_3"]
             - bk.breakdown["correction_term"]) / (8 * math.pi)
    assert bk.value == combo
    gb = mass.gauss_bonnet_slice_mass(model, L, SPEC)
    combo = sum(gb.breakdown[f"slice_term_{k}"] for k in (1, 2, 3)) / (8 * math.pi)
    assert gb.value == pytest.approx(combo, abs=1e-12 * max(1.0, abs(gb.value)))
    bs = mass.bartnik_sum_mass(model, L, SPEC)
    assert bs.value == bs.breakdown["gradient_flux_term"] / (16 * math.pi)


# ---------------------------------------------------------------------------
# ladders: the rungs share one walk of the boundary
# ---------------------------------------------------------------------------

_LADDER_MODELS = {"flat": FLAT, "schwarzschild": SCH,
                  "pullback": metric.pullback_model(0.75), "composed": metric.composed_model()}
_LADDER_METHODS = ([(method, None, "euclidean") for method in mass.METHODS
                    if method != "bkks_direction"]
                   + [("bkks_direction", axis, "euclidean") for axis in range(3)]
                   + [("adm_cube", None, "g")])


@pytest.mark.parametrize("name", sorted(_LADDER_MODELS))
@pytest.mark.parametrize("method, axis, measure", _LADDER_METHODS,
                         ids=[f"{m}-{a}-{s}" for m, a, s in _LADDER_METHODS])
def test_a_ladder_equals_its_rungs(name, method, axis, measure):
    model, spec, Ls = _LADDER_MODELS[name], QuadratureSpec(4), [20.0, 40.0, 80.0, 160.0]
    ladder = mass.estimate_ladder(model, method, Ls, spec, axis=axis, measure=measure)
    assert len(ladder) == len(Ls)
    for L, rung in zip(Ls, ladder):
        alone = mass.estimate(model, method, L, spec, axis=axis, measure=measure)
        # repr holds every float to the last bit and the sign of zero
        assert repr(rung) == repr(alone)


# one jet per face and one for the edges, whatever the number of rungs
@pytest.mark.parametrize("rungs", [1, 2, 4])
@pytest.mark.parametrize("method, edge_nodes", [
    ("adm_cube", []), ("adm_sphere", None), ("gromov_cube", [12]),
    ("gauss_bonnet_slices", [12]), ("bkks_direction", [4]), ("bartnik_sum", [])])
def test_a_ladder_makes_one_jet_call_per_face(monkeypatch, rungs, method, edge_nodes):
    n = 4
    sizes = _counting_jets(monkeypatch)
    mass.estimate_ladder(SCH, method, [20.0 * 2 ** k for k in range(rungs)],
                         QuadratureSpec(n), axis=1)
    if edge_nodes is None:  # the sphere rule of order n holds 2 n^2 nodes
        assert sizes == [rungs * 2 * n * n]
    else:
        assert sizes == [rungs * n * n] * 6 + [rungs * e * n for e in edge_nodes]


@pytest.mark.parametrize("method", ["gauss_bonnet_slices", "bkks_direction"])
def test_ladder_slice_estimators_hold_one_jet_at_a_time(monkeypatch, method):
    alive = _tracking_jets(monkeypatch)
    mass.estimate_ladder(SCH, method, [30.0, 60.0, 120.0], QuadratureSpec(4), axis=1)
    assert alive == [0] * 7


def test_a_ladder_raises_the_error_of_its_first_failing_rung():
    # exp(r - 700) overflows on the L = 2000 cube, and the last rung is not
    # finite: estimated one by one, the 2000 rung fails first
    factor = "1 + exp(r - 700)"
    model = metric.expression_model({"g11": factor, "g12": "0", "g13": "0",
                                     "g22": factor, "g23": "0", "g33": factor},
                                    tau=1.0, inner_radius=0.0)
    with pytest.raises(DomainError, match="metric jet is not finite"):
        mass.estimate_ladder(model, "adm_cube", [100.0, 2000.0, math.inf], QuadratureSpec(4))

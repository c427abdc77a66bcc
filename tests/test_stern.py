import numpy as np
import pytest

from cubemass import metric, stern
from cubemass.errors import DegenerateGradient, ValidationError

FLAT = metric.flat_model()
SCH = metric.schwarzschild_model(1.0)


# ---------------------------------------------------------------------------
# harmonicity audits
# ---------------------------------------------------------------------------

HARMONIC_PAIRS = [
    (FLAT, stern.flat_linear((1.0, -2.0, 0.5))),
    (FLAT, stern.flat_monopole((0.3, -0.2, 0.1))),
    (FLAT, stern.flat_dipole((0.4, 1.0, -0.7))),
    (SCH, stern.schwarzschild_radial(1.0)),
]


@pytest.mark.parametrize("model,u", HARMONIC_PAIRS,
                         ids=[u.id for _, u in HARMONIC_PAIRS])
def test_harmonicity_audit(model, u):
    rng = np.random.default_rng(17)
    pts = rng.uniform(2.0, 20.0, size=(50, 1)) * _unit(rng, 50)
    res = stern.harmonicity_residual(model, u, pts)
    hess_scale = np.max(np.abs(u.jet(pts).hessian), axis=(-1, -2))
    assert np.all(res <= 1e-9 * (1.0 + hess_scale))


def _unit(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# pointwise identity
# ---------------------------------------------------------------------------

def test_flat_linear_everything_vanishes():
    sample = stern.stern_residual(FLAT, stern.flat_linear((2.0, 0.0, 0.0)),
                                  (1.0, 2.0, 3.0))
    assert sample.lhs == 0.0
    assert sample.rhs == 0.0
    assert sample.residual == 0.0
    assert sample.terms["hess_sq"] == 0.0


def test_flat_monopole_closed_form():
    p = np.array([2.0, 1.0, -2.0])
    rho = float(np.linalg.norm(p))
    sample = stern.stern_residual(FLAT, stern.flat_monopole(), p,
                                  fd_step=1e-5 * rho)
    assert sample.terms["hess_sq"] == pytest.approx(6.0 / rho ** 6, rel=1e-12)
    assert sample.terms["grad_norm"] == pytest.approx(1.0 / rho ** 2, rel=1e-12)
    assert sample.terms["scalar_R"] == pytest.approx(0.0, abs=1e-15)
    assert sample.terms["gauss_K"] == pytest.approx(1.0 / rho ** 2, rel=1e-12)
    assert sample.rhs == pytest.approx(2.0 / rho ** 4, rel=1e-12)
    assert abs(sample.residual) < 1e-9


def test_sample_invariant_rhs_is_definitional():
    sample = stern.stern_residual(SCH, stern.schwarzschild_radial(1.0),
                                  (4.0, 1.0, -2.0))
    t = sample.terms
    recon = (t["hess_sq"] + t["grad_norm"] ** 2
             * (t["scalar_R"] - 2.0 * t["gauss_K"])) / (2.0 * t["grad_norm"])
    assert sample.rhs == recon  # bitwise
    assert sample.residual == sample.lhs - sample.rhs


def test_schwarzschild_residual_quadratic_in_step():
    u = stern.schwarzschild_radial(1.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.uniform(3.0, 10.0) * _unit(rng, 1)[0]
        r = float(np.linalg.norm(p))
        s1 = stern.stern_residual(SCH, u, p, fd_step=1e-3 * r)
        s2 = stern.stern_residual(SCH, u, p, fd_step=0.5e-3 * r)
        guard = 100 * np.finfo(float).eps * abs(s1.lhs)
        if abs(s1.residual) > guard:
            assert 3.0 <= abs(s1.residual) / abs(s2.residual) <= 5.0


def test_schwarzschild_residual_magnitude():
    u = stern.schwarzschild_radial(1.0)
    p = np.array([3.0, 2.0, -3.0])
    r = float(np.linalg.norm(p))
    sample = stern.stern_residual(SCH, u, p, fd_step=1e-4 * r)
    assert abs(sample.residual) <= 1e-5


def test_christoffel_computed_once_per_jet(monkeypatch, count_computations):
    jets = []
    real_jet = stern.metric_jet
    gammas = count_computations("christoffel")

    def counting_jet(model, points, order=2):
        jets.append(len(points))
        return real_jet(model, points, order)

    monkeypatch.setattr(stern, "metric_jet", counting_jet)
    pts = np.array([[3.0, 2.0, -3.0], [4.0, 1.0, -2.0]])
    stern.stern_residuals(SCH, stern.schwarzschild_radial(1.0), pts)
    # the centre jet (reused for dw0) needs Gamma; the stencil jet needs only ginv
    assert len(jets) == 2
    assert len(gammas) == 1


def test_ddg_built_once_per_batch(count_computations):
    built = count_computations("ddg")
    pts = np.array([[3.0, 2.0, -3.0], [4.0, 1.0, -2.0]])
    stern.stern_residuals(SCH, stern.schwarzschild_radial(1.0), pts)
    # the centre jet's curvature reads it; the stencil jet does not
    assert len(built) == 1


def test_curvature_computed_once_per_batch(monkeypatch):
    riemanns = []
    real_einsum = np.einsum

    def counting_einsum(subscripts, *operands, **kwargs):
        if subscripts == "...cadb->...abcd":  # first term of Riemann
            riemanns.append(subscripts)
        return real_einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    pts = np.array([[3.0, 2.0, -3.0], [4.0, 1.0, -2.0]])
    stern.stern_residuals(SCH, stern.schwarzschild_radial(1.0), pts)
    # R for the identity and K for the level set share one curvature
    assert len(riemanns) == 1


def test_degenerate_gradient():
    with pytest.raises(DegenerateGradient):
        stern.stern_residual(FLAT, stern.flat_linear((0.0, 0.0, 0.0)),
                             (1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

def test_monopole_survey_bound():
    survey = stern.stern_survey(FLAT, stern.flat_monopole(), sample_count=1000,
                                seed=11, r_min=2.0, r_max=20.0,
                                fd_step_factor=1e-5)
    assert survey.max_residual <= 1e-8
    assert survey.median_residual <= survey.max_residual
    assert len(survey.worst) == 10
    assert abs(survey.worst[0]["residual"]) == survey.max_residual


def test_survey_deterministic_given_seed():
    a = stern.stern_survey(SCH, stern.schwarzschild_radial(1.0), 100, seed=5)
    b = stern.stern_survey(SCH, stern.schwarzschild_radial(1.0), 100, seed=5)
    assert a.max_residual == b.max_residual
    assert a.worst == b.worst
    c = stern.stern_survey(SCH, stern.schwarzschild_radial(1.0), 100, seed=6)
    assert c.max_residual != a.max_residual


def test_survey_validation():
    with pytest.raises(ValidationError):
        stern.stern_survey(SCH, stern.schwarzschild_radial(1.0), 10, r_min=0.5)
    with pytest.raises(ValidationError):
        stern.stern_survey(FLAT, stern.flat_monopole(), 10, r_min=5.0, r_max=2.0)
    with pytest.raises(ValidationError):
        stern.stern_survey(FLAT, stern.flat_monopole(), 0)


def test_default_step_policy():
    # default step is eps^(1/3) * max(1, |p|): residual already tiny with it
    sample = stern.stern_residual(FLAT, stern.flat_monopole(), (3.0, 0.0, 0.0))
    assert abs(sample.residual) < 1e-9


def test_stencil_and_harmonicity_jets_are_first_order(monkeypatch):
    # the Schwarzschild slice written as an expression, so its jets honour the order
    model = metric.conformal_model("1 + 0.5/r", tau=1.0)
    u = stern.schwarzschild_radial(1.0)
    pts = np.random.default_rng(4).uniform(3.0, 9.0, size=(20, 3))
    real_jet, orders = stern.metric_jet, []

    def recording_jet(model, points, order=2):
        orders.append(order)
        return real_jet(model, points, order)

    monkeypatch.setattr(stern, "metric_jet", recording_jet)
    first = stern.stern_residuals(model, u, pts)
    first_harmonicity = stern.harmonicity_residual(model, u, pts)
    # the centre jet reads curvature; the stencil and the Laplacian do not
    assert orders == [2, 1, 1]
    monkeypatch.setattr(stern, "metric_jet", lambda model, points, order=2:
                        real_jet(model, points))
    second = stern.stern_residuals(model, u, pts)
    for a, b in zip(first[:3], second[:3]):
        assert a.tobytes() == b.tobytes()
    assert {k: v.tobytes() for k, v in first[3].items()} == \
        {k: v.tobytes() for k, v in second[3].items()}
    assert first_harmonicity.tobytes() == \
        stern.harmonicity_residual(model, u, pts).tobytes()

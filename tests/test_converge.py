import numpy as np
import pytest

from cubemass import converge, mass, metric
from cubemass.errors import DegenerateFit, InsufficientPoints, ValidationError
from cubemass.quad import QuadratureSpec

SPEC = QuadratureSpec()


# ---------------------------------------------------------------------------
# fit_rate
# ---------------------------------------------------------------------------

def test_fit_exact_inverse_law():
    Ls = [10.0, 20.0, 40.0, 80.0]
    p, C, r2 = converge.fit_rate([(L, 3.0 / L) for L in Ls])
    assert p == pytest.approx(1.0, abs=1e-12)
    assert C == pytest.approx(3.0, rel=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_exact_sqrt_law():
    Ls = [25.0, 50.0, 100.0, 200.0]
    p, C, r2 = converge.fit_rate([(L, 0.7 * L ** -0.5) for L in Ls])
    assert p == pytest.approx(0.5, abs=1e-12)
    assert C == pytest.approx(0.7, rel=1e-10)


def test_fit_with_noise():
    rng = np.random.default_rng(42)
    Ls = np.geomspace(10, 640, 8)
    errs = (2.0 / Ls) * (1.0 + 0.01 * rng.standard_normal(len(Ls)))
    p, _, r2 = converge.fit_rate(list(zip(Ls, errs)))
    assert p == pytest.approx(1.0, abs=0.05)
    assert r2 > 0.99


def test_fit_validation():
    with pytest.raises(ValidationError):
        converge.fit_rate([(10.0, 1.0)])
    with pytest.raises(ValidationError):
        converge.fit_rate([(10.0, 1.0), (20.0, 0.0)])
    with pytest.raises(DegenerateFit):
        converge.fit_rate([(10.0, 1.0), (10.0, 0.5)])


# ---------------------------------------------------------------------------
# run_ladder
# ---------------------------------------------------------------------------

def test_flat_ladder_is_vacuous_pass():
    report = converge.run_ladder(metric.flat_model(), "gromov_cube",
                                 [10.0, 20.0, 40.0, 80.0], SPEC)
    assert report.verdict == "pass"
    assert report.quadrature_floor
    assert report.fitted_rate is None
    assert report.used_points == 0


def test_schwarzschild_gromov_ladder():
    report = converge.run_ladder(metric.schwarzschild_model(1.0), "gromov_cube",
                                 [25.0, 50.0, 100.0, 200.0], SPEC)
    assert report.reference_mass == 1.0
    assert report.verdict == "pass"
    assert 0.8 <= report.fitted_rate <= 1.2
    assert report.fit_r_squared > 0.999
    assert report.expected_rate == 1.0


def test_pullback_gauss_bonnet_ladder():
    report = converge.run_ladder(metric.pullback_model(tau=0.75),
                                 "gauss_bonnet_slices",
                                 [25.0, 50.0, 100.0, 200.0], SPEC)
    assert report.expected_rate == pytest.approx(0.5)
    assert 0.3 <= report.fitted_rate <= 0.7
    assert report.verdict == "pass"


def test_reference_falls_back_to_sphere_flux():
    model = metric.schwarzschild_model(1.0)
    model.exact_mass = None
    report = converge.run_ladder(model, "adm_cube", [25.0, 50.0, 100.0, 200.0], SPEC)
    # sphere reference at r = 2000 is within 1e-4 of the true mass
    assert report.reference_mass == pytest.approx(1.0, abs=1e-3)
    assert report.verdict == "pass"


def test_ladder_validation():
    model = metric.flat_model()
    with pytest.raises(ValidationError):
        converge.run_ladder(model, "adm_cube", [10.0, 20.0, 40.0], SPEC)
    with pytest.raises(ValidationError):
        converge.run_ladder(model, "adm_cube", [10.0, 10.0, 20.0, 40.0], SPEC)


def test_insufficient_points_above_floor():
    # errors straddle the floor: some usable, fewer than four
    model = metric.schwarzschild_model(1.0)
    with pytest.raises(InsufficientPoints):
        converge.run_ladder(model, "gromov_cube", [25.0, 50.0, 100.0, 200.0],
                            SPEC, floor=5e-3)


def test_verdict_monotone_in_band_width():
    model = metric.schwarzschild_model(1.0)
    Ls = [25.0, 50.0, 100.0, 200.0]
    verdicts = {}
    for band in (0.001, 0.05, 0.3, 1.0):
        rep = converge.run_ladder(model, "gromov_cube", Ls, SPEC, rate_band=band)
        verdicts[band] = rep.verdict
    passed = [b for b, v in verdicts.items() if v == "pass"]
    # once a band passes, every wider band passes
    if passed:
        threshold = min(passed)
        assert all(v == "pass" for b, v in verdicts.items() if b >= threshold)
    assert verdicts[1.0] == "pass"


def test_csv_rendering():
    report = converge.run_ladder(metric.schwarzschild_model(1.0), "adm_cube",
                                 [25.0, 50.0, 100.0, 200.0], SPEC)
    csv = converge.ladder_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "L,estimate,abs_error"
    assert len(lines) == 5
    L, est, err = lines[1].split(",")
    assert float(L) == 25.0
    assert abs(float(est) - report.ladder[0][1]) == 0.0


def test_composed_ladder_rungs_are_the_single_estimates():
    model, Ls = metric.composed_model(), [25.0, 50.0, 100.0, 200.0]
    report = converge.run_ladder(model, "gromov_cube", Ls, QuadratureSpec(8))
    assert report.ladder == [(L, mass.estimate(model, "gromov_cube", L, QuadratureSpec(8)).value)
                             for L in Ls]

"""Ladders of cube sizes, error-decay fits and rate verdicts.

For a model of falloff rate tau, the estimators carry an error term of
order L^(1-2tau); a ladder run fits log-error against log-L and checks
the fitted decay exponent against the expected 2*tau - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import mass, quad
from .errors import DegenerateFit, InsufficientPoints, ValidationError
from .metric import MetricModel
from .quad import QuadratureSpec

#: Errors below this are treated as quadrature floor and excluded from fits.
DEFAULT_FLOOR = 100.0 * quad.DEFAULT_TOLERANCE


@dataclass
class ConvergenceReport:
    method: str
    model: dict
    ladder: list                      # [(L, estimate), ...]
    errors: list
    reference_mass: float
    expected_rate: float
    rate_band: float
    fitted_rate: Optional[float]
    fitted_constant: Optional[float]
    fit_r_squared: Optional[float]
    verdict: str                      # 'pass' or 'fail'
    quadrature_floor: bool = False
    axis: Optional[int] = None
    floor: float = DEFAULT_FLOOR
    used_points: int = 0


def fit_rate(pairs):
    """Least squares of log(error) against log(L): returns (p, C, r^2)
    for the model error = C * L^(-p)."""
    pairs = [(float(L), float(e)) for L, e in pairs]
    if len(pairs) < 2:
        raise ValidationError("rate fit needs at least two (L, error) pairs")
    if any(e <= 0.0 for _, e in pairs):
        raise ValidationError("rate fit needs strictly positive errors")
    x = np.log([L for L, _ in pairs])
    y = np.log([e for _, e in pairs])
    xbar = x.mean()
    var = float(np.sum((x - xbar) ** 2))
    if var == 0.0:
        raise DegenerateFit("all ladder sizes coincide")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / var)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return -slope, math.exp(intercept), r_squared


def default_rate_band(expected_rate: float) -> float:
    """Tolerance on the fitted exponent: O(.) hides subleading terms and
    desk-scale ladders have only a handful of points."""
    return max(0.2, 0.25 * expected_rate)


def run_ladder(model: MetricModel, method: str, Ls, spec: QuadratureSpec = QuadratureSpec(),
               axis: int | None = None, reference: float | None = None,
               floor: float = DEFAULT_FLOOR, rate_band: float | None = None,
               measure: str = "euclidean") -> ConvergenceReport:
    """Run one estimator over increasing cube sizes and fit the error decay.

    The rungs share one walk of the boundary (``mass.estimate_ladder``).

    The reference mass is the model's exact mass when known, otherwise a
    single high-radius sphere flux (radius 10x the largest ladder size).
    That reference is biased: with errors decaying like L^-(2 tau - 1),
    its own error is about 10^-(2 tau - 1) of the top rung's, which is
    32% at tau = 0.75, so it shifts the fitted rate.
    """
    Ls = [float(L) for L in Ls]
    if len(Ls) < 4:
        raise ValidationError("a ladder needs at least four sizes")
    if any(b <= a for a, b in zip(Ls, Ls[1:])):
        raise ValidationError("ladder sizes must be strictly increasing")
    estimates = [est.value for est in
                 mass.estimate_ladder(model, method, Ls, spec, axis=axis, measure=measure)]
    if reference is None:
        reference = model.exact_mass
    if reference is None:
        reference = mass.adm_flux_sphere(model, 10.0 * max(Ls)).value
    errors = [abs(v - reference) for v in estimates]

    expected = 2.0 * model.tau - 1.0
    band = default_rate_band(expected) if rate_band is None else float(rate_band)
    usable = [(L, e) for L, e in zip(Ls, errors) if e > floor]
    common = dict(method=method, model=model.describe(),
                  ladder=list(zip(Ls, estimates)), errors=errors,
                  reference_mass=float(reference), expected_rate=expected,
                  rate_band=band, axis=axis, floor=floor)
    if not usable:
        # everything at quadrature floor: nothing to fit, vacuous pass
        return ConvergenceReport(fitted_rate=None, fitted_constant=None,
                                 fit_r_squared=None, verdict="pass",
                                 quadrature_floor=True, used_points=0, **common)
    if len(usable) < 4:
        raise InsufficientPoints(
            f"only {len(usable)} ladder points above the quadrature floor")
    p, C, r2 = fit_rate(usable)
    verdict = "pass" if abs(p - expected) <= band else "fail"
    return ConvergenceReport(fitted_rate=p, fitted_constant=C, fit_r_squared=r2,
                             verdict=verdict, quadrature_floor=False,
                             used_points=len(usable), **common)


def ladder_csv(report: ConvergenceReport) -> str:
    """CSV rendering with columns L, estimate, abs_error."""
    lines = ["L,estimate,abs_error"]
    for (L, est), err in zip(report.ladder, report.errors):
        lines.append(f"{format(L, '.17g')},{format(est, '.17g')},{format(err, '.17g')}")
    return "\n".join(lines) + "\n"

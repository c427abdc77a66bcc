"""Pointwise verification of the harmonic level-set identity.

For a harmonic function u on (M, g) with non-vanishing gradient,

    Delta |grad u| = (|Hess u|^2 + |grad u|^2 (R - 2 K)) / (2 |grad u|),

where R is the scalar curvature and K the Gauss curvature of the level
set through the point.  The right side is assembled exactly from jets;
the left side needs third derivatives of u composed with derivatives of
g, so it is measured by second-order central differences of the exact
first-derivative field of w = |grad u| (six shifted points plus the
center).  The residual therefore scales as the square of the step.

Only analytically harmonic (metric, function) pairs are provided;
solving Delta u = 0 numerically is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geom
from .errors import DegenerateGradient, ValidationError
from .expr import ScalarJet2, batch_last, identity_last
from .metric import MetricModel, metric_jet

#: Default relative step for the outer central difference.
DEFAULT_STEP_FACTOR = float(np.finfo(float).eps ** (1.0 / 3.0))

HARMONIC_IDS = ("flat_linear", "flat_monopole", "flat_dipole", "schwarzschild_radial")


@dataclass
class HarmonicTestFunction:
    """Analytically harmonic function with exact pointwise jets."""

    id: str
    params: dict
    jet: Callable[[np.ndarray], ScalarJet2] = field(repr=False, compare=False)


def flat_linear(direction=(1.0, 0.0, 0.0)) -> HarmonicTestFunction:
    a = np.asarray(direction, dtype=float)

    def jet(points):
        pts = np.asarray(points, dtype=float)
        batch = pts.shape[:-1]
        grad = np.broadcast_to(a.reshape((3,) + (1,) * len(batch)), (3,) + batch).copy()
        return ScalarJet2(pts @ a, grad, np.zeros((3, 3) + batch))

    return HarmonicTestFunction("flat_linear", {"direction": tuple(a)}, jet)


def flat_monopole(center=(0.0, 0.0, 0.0)) -> HarmonicTestFunction:
    c = np.asarray(center, dtype=float)

    def jet(points):
        d = np.asarray(points, dtype=float) - c
        s2 = np.sum(d * d, axis=-1)
        s = np.sqrt(s2)
        value = 1.0 / s
        d, sb = batch_last(d), s[None]
        grad = -d / sb ** 3
        outer = d[:, None] * d[None, :]
        hess = 3.0 * outer / sb ** 5 - identity_last(s.ndim) / sb ** 3
        return ScalarJet2(value, grad, hess)

    return HarmonicTestFunction("flat_monopole", {"center": tuple(c)}, jet)


def flat_dipole(moment=(0.0, 0.0, 1.0)) -> HarmonicTestFunction:
    d = np.asarray(moment, dtype=float)

    def jet(points):
        x = np.asarray(points, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        r = np.sqrt(r2)
        dx = x @ d
        value = dx / r ** 3
        x, rb = batch_last(x), r[None]
        dl = d.reshape((3,) + (1,) * r.ndim)
        grad = dl / rb ** 3 - 3.0 * dx * x / rb ** 5
        xo = x[:, None] * x[None, :]
        dsym = dl[:, None] * x[None, :] + x[:, None] * dl[None, :]
        hess = (-3.0 * (dsym + dx * identity_last(r.ndim)) / rb ** 5
                + 15.0 * dx * xo / rb ** 7)
        return ScalarJet2(value, grad, hess)

    return HarmonicTestFunction("flat_dipole", {"moment": tuple(d)}, jet)


def schwarzschild_radial(mass: float = 1.0) -> HarmonicTestFunction:
    """u = -1/(r + m/2), harmonic for the conformal factor 1 + m/(2r)."""
    q = 0.5 * mass

    def jet(points):
        x = np.asarray(points, dtype=float)
        r = np.sqrt(np.sum(x * x, axis=-1))
        s = r + q
        value = -1.0 / s
        x, rb, sb = batch_last(x), r[None], s[None]
        grad = x / (rb * sb ** 2)
        outer = x[:, None] * x[None, :]
        hess = (-2.0 * outer / (sb ** 3 * rb ** 2)
                + (identity_last(r.ndim) / rb - outer / rb ** 3) / sb ** 2)
        return ScalarJet2(value, grad, hess)

    return HarmonicTestFunction("schwarzschild_radial", {"mass": float(mass)}, jet)


BUILTIN_HARMONICS = {
    "flat_linear": flat_linear, "flat_monopole": flat_monopole,
    "flat_dipole": flat_dipole, "schwarzschild_radial": schwarzschild_radial,
}


@dataclass
class SternSample:
    point: np.ndarray
    lhs: float
    rhs: float
    terms: dict
    residual: float


@dataclass
class SternSurvey:
    sample_count: int
    seed: int
    fd_step_factor: float
    max_residual: float
    median_residual: float
    worst: list             # up to 10 dicts, largest |residual| first


def _gradient_norm_field(jets, du: ScalarJet2):
    """w = |grad u|_g and its exact coordinate gradient from the jets of g and u."""
    ginv = jets.ginv
    g1 = du.gradient
    grad_sq = np.einsum("...a,...ab,...b->...", g1, ginv, g1)
    w = np.sqrt(grad_sq)
    dw = (np.einsum("...mab,...a,...b->...m", jets.dginv, g1, g1)
          + 2.0 * np.einsum("...ab,...am,...b->...m", ginv, du.hessian, g1))
    return w, dw / (2.0 * w[..., None])


def stern_residuals(model: MetricModel, u: HarmonicTestFunction, points,
                    fd_step=None):
    """Both sides of the identity at a batch of points.

    Returns (lhs, rhs, residual, terms); ``fd_step`` may be a scalar or
    per-point array and defaults to eps^(1/3) * max(1, |p|).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    radii = np.sqrt(np.sum(pts * pts, axis=-1))
    if fd_step is None:
        h = DEFAULT_STEP_FACTOR * np.maximum(1.0, radii)
    else:
        h = np.broadcast_to(np.asarray(fd_step, dtype=float), (n,)).copy()

    jets = metric_jet(model, pts)
    ginv, Gamma = geom.inverse_and_christoffel(jets)
    _, _, scalar = jets.curvature
    du = u.jet(pts)
    g1 = du.gradient
    grad_sq = np.einsum("...a,...ab,...b->...", g1, ginv, g1)
    w = np.sqrt(grad_sq)
    if np.any(w <= 1e-8):
        raise DegenerateGradient("|grad u| vanishes at a sample point")
    hess_cov = du.hessian - np.einsum("...mab,...m->...ab", Gamma, g1)
    hess_sq = np.einsum("...ia,...jb,...ij,...ab->...", ginv, ginv,
                        hess_cov, hess_cov)
    K = geom.level_set_gauss_curvature(jets, du)
    rhs = (hess_sq + w ** 2 * (scalar - 2.0 * K)) / (2.0 * w)

    # outer derivative of the exact gradient field of w: 6 shifted points,
    # whose metric jets need no second derivatives
    shifts = np.zeros((n, 6, 3))
    for axis in range(3):
        shifts[:, 2 * axis, axis] = h
        shifts[:, 2 * axis + 1, axis] = -h
    stencil = (pts[:, None, :] + shifts).reshape(-1, 3)
    _, dw_s = _gradient_norm_field(metric_jet(model, stencil, order=1), u.jet(stencil))
    dw_s = dw_s.reshape(n, 6, 3)
    fd_hess = np.empty((n, 3, 3))
    for axis in range(3):
        fd_hess[:, axis, :] = (dw_s[:, 2 * axis, :] - dw_s[:, 2 * axis + 1, :]) \
            / (2.0 * h[:, None])
    fd_hess = 0.5 * (fd_hess + np.swapaxes(fd_hess, -1, -2))
    _, dw0 = _gradient_norm_field(jets, du)
    lhs = (np.einsum("...ab,...ab->...", ginv, fd_hess)
           - np.einsum("...ab,...mab,...m->...", ginv, Gamma, dw0))
    terms = {"hess_sq": hess_sq, "grad_norm": w, "scalar_R": scalar, "gauss_K": K}
    return lhs, rhs, lhs - rhs, terms


def stern_residual(model: MetricModel, u: HarmonicTestFunction, point,
                   fd_step=None) -> SternSample:
    """Single-point sample with term-by-term breakdown."""
    p = np.asarray(point, dtype=float)
    lhs, rhs, res, terms = stern_residuals(model, u, p[None, :], fd_step)
    terms = {k: float(v[0]) for k, v in terms.items()}
    # stored rhs reproduces the definitional combination of the terms exactly
    rhs_def = (terms["hess_sq"] + terms["grad_norm"] ** 2
               * (terms["scalar_R"] - 2.0 * terms["gauss_K"])) / (2.0 * terms["grad_norm"])
    return SternSample(point=p, lhs=float(lhs[0]), rhs=rhs_def, terms=terms,
                       residual=float(lhs[0]) - rhs_def)


def harmonicity_residual(model: MetricModel, u: HarmonicTestFunction, points):
    """|Delta_g u| from exact jets; an audit that the pair really is harmonic."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    jets = metric_jet(model, pts, order=1)
    return np.abs(geom.laplace_beltrami(jets, u.jet(pts)))


def stern_survey(model: MetricModel, u: HarmonicTestFunction,
                 sample_count: int = 1000, seed: int = 0,
                 r_min: float = 2.0, r_max: float = 20.0,
                 fd_step_factor: float | None = None) -> SternSurvey:
    """Residuals over seeded pseudo-random points in an annulus."""
    if sample_count < 1:
        raise ValidationError("sample_count must be positive")
    if r_min < model.inner_radius:
        raise ValidationError("r_min must be at least the model inner_radius")
    if r_max <= r_min:
        raise ValidationError("r_max must exceed r_min")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(sample_count, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    radii = rng.uniform(r_min, r_max, size=sample_count)
    pts = radii[:, None] * dirs
    factor = DEFAULT_STEP_FACTOR if fd_step_factor is None else float(fd_step_factor)
    h = factor * np.maximum(1.0, radii)
    lhs, rhs, res, _ = stern_residuals(model, u, pts, fd_step=h)
    absres = np.abs(res)
    order = np.argsort(-absres, kind="stable")[:10]
    worst = [{"point": pts[i].tolist(), "lhs": float(lhs[i]), "rhs": float(rhs[i]),
              "residual": float(res[i])} for i in order]
    return SternSurvey(sample_count=sample_count, seed=seed,
                       fd_step_factor=factor,
                       max_residual=float(np.max(absres)),
                       median_residual=float(np.median(absres)), worst=worst)

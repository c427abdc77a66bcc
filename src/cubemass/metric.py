"""Asymptotically flat metric models with exact pointwise 2-jets.

Every model produces, at any chart point, the metric components together
with their exact first and second coordinate derivatives (a
:class:`MetricJet2`).  Model kinds:

``flat``
    The Euclidean metric.
``conformal``
    ``g = U^4 delta`` for a positive factor ``U``, either the built-in
    ``U = 1 + m/(2r)`` (exact mass ``m``) or an arbitrary expression.
``diffeo_pullback_flat``
    Pullback of the flat metric by ``x -> x + xi(x)`` for a decaying
    displacement ``xi``; isometric to flat space, so the exact mass is
    zero while the chart falloff rate is tunable.  This is the sharp
    test family for error-decay exponents.
``composed``
    The built-in conformal metric pulled back by the same kind of
    displacement; tests coordinate robustness of the estimators.
``expression``
    Six user expressions for the independent components of ``g``.

Jets for the pullback kinds are assembled from symbolically
differentiated displacement Jacobians evaluated through the jet
algebra, so ``dg`` and ``ddg`` are exact to roundoff; nothing is ever
finite-differenced.  Each expression-based model compiles all its
expressions once, at construction, into one :class:`expr.JetProgram`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import expr
from .errors import DomainError, NotPositiveDefinite, OutsideDomain, ValidationError
from .expr import Expression, ScalarJet2

MODEL_KINDS = ("flat", "conformal", "diffeo_pullback_flat", "composed", "expression")

_COMPONENT_KEYS = ("g11", "g12", "g13", "g22", "g23", "g33")
_COMPONENT_INDEX = {"g11": (0, 0), "g12": (0, 1), "g13": (0, 2),
                    "g22": (1, 1), "g23": (1, 2), "g33": (2, 2)}


@dataclass
class MetricJet2:
    """Metric components with first and second derivatives at points.

    ``g``   -- (..., 3, 3), symmetric positive definite
    ``dg``  -- (..., 3, 3, 3) with ``dg[..., k, i, j] = d_k g_ij``
    ``ddg`` -- (..., 3, 3, 3, 3) with ``ddg[..., k, l, i, j] = d_k d_l g_ij``
    """

    g: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray

    @cached_property
    def ginv(self) -> np.ndarray:
        """Inverse metric, computed once after checking that ``g`` is SPD."""
        try:
            np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(
                "metric is not positive definite on the sample") from None
        return np.linalg.inv(self.g)

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Christoffel symbols ``Gamma[..., k, i, j] = Gamma^k_ij``, computed once."""
        ginv, dg = self.ginv, self.dg
        t1 = np.einsum("...km,...jmi->...kij", ginv, dg)
        t2 = np.einsum("...km,...imj->...kij", ginv, dg)
        t3 = np.einsum("...km,...mij->...kij", ginv, dg)
        return 0.5 * (t1 + t2 - t3)

    def __getitem__(self, index) -> "MetricJet2":
        """The jet at a sub-batch; it keeps the inverse if this jet has one."""
        part = MetricJet2(self.g[index], self.dg[index], self.ddg[index])
        if "ginv" in self.__dict__:
            part.__dict__["ginv"] = self.ginv[index]
        return part


@dataclass
class MetricModel:
    """A named asymptotically flat metric with declared falloff rate.

    ``tau`` is the decay exponent of ``g - delta`` (must exceed 1/2),
    ``exact_mass`` the analytically known total mass when available, and
    ``inner_radius`` the radius inside which the chart is not used.
    """

    kind: str
    tau: float
    inner_radius: float
    exact_mass: Optional[float]
    params: dict
    _jets: Callable[[np.ndarray], tuple] = field(repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValidationError(f"unknown metric kind '{self.kind}'")
        if not self.tau > 0.5:
            raise ValidationError(f"falloff rate tau={self.tau} must exceed 1/2")
        if self.inner_radius < 0.0:
            raise ValidationError("inner_radius must be non-negative")

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "tau": self.tau,
            "inner_radius": self.inner_radius,
            "exact_mass": self.exact_mass,
            "params": self.params,
        }


# ---------------------------------------------------------------------------
# jet assembly helpers
# ---------------------------------------------------------------------------

def _assemble_components(component_jets: dict, batch: tuple) -> tuple:
    g = np.zeros(batch + (3, 3))
    dg = np.zeros(batch + (3, 3, 3))
    ddg = np.zeros(batch + (3, 3, 3, 3))
    for (i, j), jet in component_jets.items():
        g[..., i, j] = jet.value
        g[..., j, i] = jet.value
        dg[..., :, i, j] = jet.gradient
        dg[..., :, j, i] = jet.gradient
        ddg[..., :, :, i, j] = jet.hessian
        ddg[..., :, :, j, i] = jet.hessian
    return g, dg, ddg


def _conformal_components(U: ScalarJet2, batch: tuple) -> tuple:
    if np.any(U.value <= 0.0):
        raise NotPositiveDefinite("conformal factor is not positive on the sample")
    u = U.value
    du = U.gradient
    eye = np.eye(3)
    g = (u ** 4)[..., None, None] * eye
    dg = (4.0 * u ** 3)[..., None, None, None] * du[..., :, None, None] * eye
    quad = du[..., :, None] * du[..., None, :]
    dd = (12.0 * u ** 2)[..., None, None] * quad + (4.0 * u ** 3)[..., None, None] * U.hessian
    ddg = dd[..., :, :, None, None] * eye
    return g, dg, ddg


def _schwarzschild_factor(points: np.ndarray, mass: float) -> ScalarJet2:
    """Exact jet of U = 1 + m/(2r)."""
    pts = np.asarray(points, dtype=float)
    r2 = np.sum(pts * pts, axis=-1)
    r = np.sqrt(r2)
    q = 0.5 * mass
    value = 1.0 + q / r
    grad = -q * pts / r[..., None] ** 3
    eye = np.eye(3)
    outer = pts[..., :, None] * pts[..., None, :]
    hess = q * (3.0 * outer / r[..., None, None] ** 5 - eye / r[..., None, None] ** 3)
    return ScalarJet2(value, grad, hess)


def _builtin_displacement(tau: float, amplitude: float, angular: float) -> list:
    """Displacement x -> x + a r^(1-tau) P(angles) x/r, one AST per component.

    The profile P = 1 + b*x*y/r^2 breaks rotational symmetry so no
    estimator sees an accidentally fast-converging special case.
    """
    r = expr.Var("r")
    profile: Expression = expr.Num(1.0)
    if angular != 0.0:
        xy_over_r2 = expr.BinOp("/", expr.BinOp("*", expr.Var("x"), expr.Var("y")),
                                expr.BinOp("*", r, r))
        profile = expr.BinOp("+", expr.Num(1.0),
                             expr.BinOp("*", expr.Num(angular), xy_over_r2))
    radial = expr.BinOp("^", r, expr.Num(-tau))
    scale = expr.BinOp("*", expr.Num(amplitude), radial)
    return [expr.BinOp("*", expr.BinOp("*", scale, profile), expr.Var(name))
            for name in ("x", "y", "z")]


def _displacement_jacobian(xi: list) -> list:
    """ASTs of d_i xi^m via exact symbolic differentiation, row by row."""
    return [expr.derivative(xi[m], i) for m in range(3) for i in range(3)]


def _pullback_gram(dxi: list) -> dict:
    """Component jets of (I + Dxi)^T (I + Dxi) from the jets of d_i xi^m."""
    J = [[None] * 3 for _ in range(3)]
    for m in range(3):
        for i in range(3):
            jet = dxi[3 * m + i]
            if m == i:
                jet = jet + 1.0
            J[m][i] = jet
    comps = {}
    for i in range(3):
        for j in range(i, 3):
            s = J[0][i] * J[0][j]
            s = s + J[1][i] * J[1][j]
            s = s + J[2][i] * J[2][j]
            comps[(i, j)] = s
    return comps


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------

def flat_model() -> MetricModel:
    def jets(points):
        batch = points.shape[:-1]
        return (np.broadcast_to(np.eye(3), batch + (3, 3)).copy(),
                np.zeros(batch + (3, 3, 3)),
                np.zeros(batch + (3, 3, 3, 3)))

    return MetricModel("flat", 1.0, 0.0, 0.0, {}, jets)


def schwarzschild_model(mass: float = 1.0, inner_radius: float | None = None) -> MetricModel:
    """Conformally flat slice with U = 1 + m/(2r); exact mass m.

    Negative masses are admitted for sign-sensitivity tests; the default
    inner radius keeps the chart away from the zero of U.
    """
    if inner_radius is None:
        inner_radius = max(1.0, abs(mass))
    if inner_radius <= abs(mass) / 2.0:
        raise ValidationError("inner_radius must exceed |m|/2 so that U > 0")

    def jets(points):
        return _conformal_components(_schwarzschild_factor(points, mass),
                                     points.shape[:-1])

    return MetricModel("conformal", 1.0, float(inner_radius), float(mass),
                       {"schwarzschild_mass": float(mass)}, jets)


def conformal_model(factor, tau: float, inner_radius: float = 1.0,
                    exact_mass: Optional[float] = None) -> MetricModel:
    node = expr.ensure_expression(factor)
    program = expr.JetProgram([node])

    def jets(points):
        return _conformal_components(program(points)[0], points.shape[:-1])

    return MetricModel("conformal", float(tau), float(inner_radius), exact_mass,
                       {"factor": expr.to_source(node)}, jets)


def pullback_model(tau: float = 0.75, amplitude: float = 0.4, angular: float = 0.3,
                   inner_radius: float = 2.0, displacement=None) -> MetricModel:
    """Flat space pulled back by a decaying diffeomorphism; exact mass 0."""
    if displacement is None:
        xi = _builtin_displacement(tau, amplitude, angular)
        params = {"tau": float(tau), "amplitude": float(amplitude),
                  "angular": float(angular)}
    else:
        xi = [expr.ensure_expression(c) for c in displacement]
        if len(xi) != 3:
            raise ValidationError("displacement needs exactly three components")
        params = {"xi1": expr.to_source(xi[0]), "xi2": expr.to_source(xi[1]),
                  "xi3": expr.to_source(xi[2])}
    program = expr.JetProgram(_displacement_jacobian(xi))

    def jets(points):
        return _assemble_components(_pullback_gram(program(points)), points.shape[:-1])

    return MetricModel("diffeo_pullback_flat", float(tau), float(inner_radius),
                       0.0, params, jets)


def composed_model(mass: float = 1.0, tau_diffeo: float = 0.75, amplitude: float = 0.2,
                   angular: float = 0.3, inner_radius: float = 2.0,
                   displacement=None) -> MetricModel:
    """Built-in conformal metric pulled back by a decaying diffeomorphism.

    The mass is invariant under the coordinate change, while the chart
    falloff drops to min(1, tau_diffeo).
    """
    if displacement is None:
        xi = _builtin_displacement(tau_diffeo, amplitude, angular)
        params = {"schwarzschild_mass": float(mass), "tau_diffeo": float(tau_diffeo),
                  "amplitude": float(amplitude), "angular": float(angular)}
    else:
        xi = [expr.ensure_expression(c) for c in displacement]
        params = {"schwarzschild_mass": float(mass),
                  "xi1": expr.to_source(xi[0]), "xi2": expr.to_source(xi[1]),
                  "xi3": expr.to_source(xi[2])}
    program = expr.JetProgram(_displacement_jacobian(xi) + xi)
    q = 0.5 * mass

    def jets(points):
        batch = points.shape[:-1]
        compiled = program(points)
        gram = _pullback_gram(compiled[:9])
        # conformal factor evaluated at the image point phi(x) = x + xi(x)
        phi = [compiled[9 + m] + expr.coordinate_jet(points, m) for m in range(3)]
        rho2 = phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2]
        U = 1.0 + q / expr.jet_sqrt(rho2)
        if np.any(U.value <= 0.0):
            raise NotPositiveDefinite("conformal factor is not positive on the sample")
        U4 = expr.jet_ipow(U, 4)
        comps = {key: U4 * jet for key, jet in gram.items()}
        return _assemble_components(comps, batch)

    return MetricModel("composed", min(1.0, float(tau_diffeo)), float(inner_radius),
                       float(mass), params, jets)


def expression_model(components: dict, tau: float, inner_radius: float = 1.0,
                     exact_mass: Optional[float] = None) -> MetricModel:
    missing = [k for k in _COMPONENT_KEYS if k not in components]
    extra = [k for k in components if k not in _COMPONENT_KEYS]
    if missing or extra:
        raise ValidationError(
            f"expression metric needs exactly {_COMPONENT_KEYS}; "
            f"missing {missing}, unknown {extra}")
    nodes = {key: expr.ensure_expression(components[key]) for key in _COMPONENT_KEYS}
    program = expr.JetProgram(list(nodes.values()))

    def jets(points):
        comps = dict(zip((_COMPONENT_INDEX[key] for key in nodes), program(points)))
        return _assemble_components(comps, points.shape[:-1])

    params = {key: expr.to_source(node) for key, node in nodes.items()}
    return MetricModel("expression", float(tau), float(inner_radius), exact_mass,
                       params, jets)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def metric_jet(model: MetricModel, points) -> MetricJet2:
    """Evaluate the metric 2-jet at one point (3,) or a batch (..., 3)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError("points must have a trailing axis of length 3")
    radii = np.sqrt(np.sum(pts * pts, axis=-1))
    if model.inner_radius > 0.0 and np.any(radii < model.inner_radius * (1.0 - 1e-12)):
        raise OutsideDomain(
            f"point at radius {float(np.min(radii)):.6g} is inside "
            f"inner_radius={model.inner_radius:.6g}")
    with np.errstate(all="ignore"):
        g, dg, ddg = model._jets(pts)
    if not (np.isfinite(g).all() and np.isfinite(dg).all() and np.isfinite(ddg).all()):
        raise DomainError("metric jet is not finite on the sample")
    jet = MetricJet2(g, dg, ddg)
    jet.ginv  # a metric that is not SPD fails here, at evaluation
    return jet


# ---------------------------------------------------------------------------
# falloff audit
# ---------------------------------------------------------------------------

@dataclass
class FalloffAudit:
    radii: np.ndarray
    sup_g_minus_delta: np.ndarray
    sup_dg: np.ndarray
    sup_ddg: np.ndarray
    required: tuple
    fitted: tuple          # exponent or None when the quantity vanishes
    passed: tuple
    trivially_flat: bool


def _fibonacci_directions(n: int = 32) -> np.ndarray:
    k = np.arange(n, dtype=float)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * k + 1.0) / n
    theta = 2.0 * math.pi * k / phi
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(theta), s * np.sin(theta), z], axis=-1)


def falloff_audit(model: MetricModel, radii, tolerance: float = 0.15,
                  directions: int = 32) -> FalloffAudit:
    """Sample decay of |g - delta|, |dg|, |ddg| on coordinate spheres.

    Fits the decay exponents on the given (increasing) radii and checks
    them against the declared tau, tau+1, tau+2.
    """
    rr = np.asarray(radii, dtype=float)
    if rr.ndim != 1 or len(rr) < 2 or np.any(np.diff(rr) <= 0.0):
        raise ValidationError("radii must be an increasing sequence of length >= 2")
    if np.any(rr < model.inner_radius):
        raise OutsideDomain("audit radii must not go inside inner_radius")
    dirs = _fibonacci_directions(directions)
    eye = np.eye(3)
    sup0, sup1, sup2 = [], [], []
    for r in rr:
        jet = metric_jet(model, r * dirs)
        sup0.append(float(np.max(np.abs(jet.g - eye))))
        sup1.append(float(np.max(np.abs(jet.dg))))
        sup2.append(float(np.max(np.abs(jet.ddg))))
    sups = (np.array(sup0), np.array(sup1), np.array(sup2))
    required = (model.tau, model.tau + 1.0, model.tau + 2.0)
    fitted, passed = [], []
    for sup, req in zip(sups, required):
        if np.all(sup < 1e-14):
            fitted.append(None)
            passed.append(True)
            continue
        slope = np.polyfit(np.log(rr), np.log(np.maximum(sup, 1e-300)), 1)[0]
        exponent = -float(slope)
        fitted.append(exponent)
        passed.append(exponent >= req - tolerance)
    return FalloffAudit(rr, *sups, required=required, fitted=tuple(fitted),
                        passed=tuple(passed),
                        trivially_flat=all(f is None for f in fitted))


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

_TOP_KEYS = {"kind", "tau", "params", "inner_radius", "exact_mass"}

_PARAM_KEYS = {
    "flat": set(),
    "conformal": {"factor", "schwarzschild_mass"},
    "diffeo_pullback_flat": {"tau", "amplitude", "angular", "xi1", "xi2", "xi3"},
    "composed": {"schwarzschild_mass", "tau_diffeo", "amplitude", "angular",
                 "xi1", "xi2", "xi3"},
    "expression": set(_COMPONENT_KEYS),
}


def load_model(source) -> MetricModel:
    """Build a model from a config dict or a JSON file path.

    Unknown keys are rejected so typos never silently change a run.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    else:
        cfg = dict(source)
    if not isinstance(cfg, dict):
        raise ValidationError("model config must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown model config keys: {sorted(unknown)}")
    for req in ("kind", "tau", "inner_radius"):
        if req not in cfg:
            raise ValidationError(f"model config is missing '{req}'")
    kind = cfg["kind"]
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown metric kind '{kind}'")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("'params' must be an object")
    bad = set(params) - _PARAM_KEYS[kind]
    if bad:
        raise ValidationError(f"unknown params for kind '{kind}': {sorted(bad)}")
    tau = float(cfg["tau"])
    inner = float(cfg["inner_radius"])
    exact = cfg.get("exact_mass")
    exact = None if exact is None else float(exact)

    if kind == "flat":
        model = flat_model()
        model.tau, model.inner_radius = tau, inner
        if exact is not None:
            model.exact_mass = exact
        return model
    if kind == "conformal":
        if "schwarzschild_mass" in params:
            model = schwarzschild_model(float(params["schwarzschild_mass"]),
                                        inner_radius=inner)
            model.tau = tau
            if exact is not None:
                model.exact_mass = exact
            return model
        if "factor" not in params:
            raise ValidationError("conformal params need 'factor' or 'schwarzschild_mass'")
        return conformal_model(params["factor"], tau, inner, exact)
    if kind == "diffeo_pullback_flat":
        if {"xi1", "xi2", "xi3"} <= set(params):
            model = pullback_model(tau, inner_radius=inner,
                                   displacement=[params["xi1"], params["xi2"], params["xi3"]])
        else:
            model = pullback_model(tau,
                                   amplitude=float(params.get("amplitude", 0.4)),
                                   angular=float(params.get("angular", 0.3)),
                                   inner_radius=inner)
        if exact is not None:
            model.exact_mass = exact
        return model
    if kind == "composed":
        mass = float(params.get("schwarzschild_mass", 1.0))
        if {"xi1", "xi2", "xi3"} <= set(params):
            model = composed_model(mass, tau_diffeo=tau, inner_radius=inner,
                                   displacement=[params["xi1"], params["xi2"], params["xi3"]])
        else:
            model = composed_model(mass,
                                   tau_diffeo=float(params.get("tau_diffeo", tau)),
                                   amplitude=float(params.get("amplitude", 0.2)),
                                   angular=float(params.get("angular", 0.3)),
                                   inner_radius=inner)
        model.tau = tau
        if exact is not None:
            model.exact_mass = exact
        return model
    # expression
    return expression_model(params, tau, inner, exact)

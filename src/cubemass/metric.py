"""Asymptotically flat metric models with exact pointwise 2-jets.

Every model produces, at any chart point, the metric components together
with their exact first and second coordinate derivatives (a
:class:`MetricJet2`).  ``metric_jet(model, points, order=1)`` asks for
the first derivatives alone: the cube estimators read only ``g`` and
``dg`` (and ``ginv``, ``dginv`` and the Christoffels made from them), so
they evaluate first-order jets, and the jet program then skips every
Hessian.  ``g`` and ``dg`` are bitwise those of the full jet.
Model kinds:

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

Every kind writes its six metric components, then any conformal factor
that must stay positive, as expressions and compiles them once, at
construction, into one :class:`expr.JetProgram`, so every jet comes from
the one forward-mode evaluator and honours ``order=1``.  The pullback
kinds build their components from the symbolically differentiated
displacement, so ``dg`` and ``ddg`` are exact to roundoff; nothing is
ever finite-differenced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import expr
from .errors import (DomainError, NoSecondDerivatives, NotPositiveDefinite, OutsideDomain,
                     ValidationError)
from .expr import Expression

MODEL_KINDS = ("flat", "conformal", "diffeo_pullback_flat", "composed", "expression")

_COMPONENT_KEYS = ("g11", "g12", "g13", "g22", "g23", "g33")
_COMPONENT_INDEX = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class MetricJet2:
    """Metric components with first and second derivatives at points.

    ``g``   -- (..., 3, 3), symmetric positive definite
    ``dg``  -- (..., 3, 3, 3) with ``dg[..., k, i, j] = d_k g_ij``
    ``ddg`` -- (..., 3, 3, 3, 3) with ``ddg[..., k, l, i, j] = d_k d_l g_ij``

    ``ddg`` is given either as that array or compactly: ``d2`` is the
    list of the Hessians ``(..., 3, 3)`` of g11 ... g33, laid out as
    ``ddg`` on first read.  Only the curvature tensors and the falloff
    audit read ``ddg``.  A first-order jet (``metric_jet(..., order=1)``,
    what the cube estimators evaluate) has neither, and reading ``ddg``
    or ``curvature`` on it, or on a slice of it, raises
    :class:`NoSecondDerivatives`.
    """

    def __init__(self, g, dg, ddg=None, *, d2=()):
        self.g, self.dg = g, dg
        self.d2 = list(d2)
        if ddg is not None:
            self.__dict__["ddg"] = ddg

    @cached_property
    def ddg(self) -> np.ndarray:
        if not self.d2:
            raise NoSecondDerivatives("this metric jet is first order: evaluate it with "
                                      "metric_jet(..., order=2) to read ddg or curvature")
        ddg = np.zeros(self.d2[0].shape[:-2] + (3, 3, 3, 3))
        for (i, j), d in zip(_COMPONENT_INDEX, self.d2):
            ddg[..., i, j] = d
            ddg[..., j, i] = d
        return ddg

    @cached_property
    def ginv(self) -> np.ndarray:
        """Inverse metric, computed once after checking that ``g`` is SPD.

        The check is Sylvester's criterion (all three leading minors
        positive, which also rejects NaN); the inverse is the adjugate
        over the determinant, from six cofactors of the symmetric matrix.
        Both run on g scaled by a power of two near 1/trace, which is
        exact and keeps the cubic products clear of overflow.
        """
        g = self.g
        scale = np.ldexp(1.0, -np.frexp(g[..., 0, 0] + g[..., 1, 1] + g[..., 2, 2])[1])
        a, b, c, d, e, f = (g[..., i, j] * scale for i, j in
                            ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
        A, B, C = d * f - e * e, c * e - b * f, b * e - c * d
        minor2 = a * d - b * b
        det = a * A + b * B + c * C
        if not (np.all(a > 0.0) and np.all(minor2 > 0.0) and np.all(det > 0.0)):
            raise NotPositiveDefinite("metric is not positive definite on the sample")
        ginv = np.empty(g.shape)
        ginv[..., 0, 0], ginv[..., 1, 1], ginv[..., 2, 2] = A, a * f - c * c, minor2
        ginv[..., 0, 1] = ginv[..., 1, 0] = B
        ginv[..., 0, 2] = ginv[..., 2, 0] = C
        ginv[..., 1, 2] = ginv[..., 2, 1] = b * c - a * e
        return ginv / (det / scale)[..., None, None]

    @cached_property
    def dginv(self) -> np.ndarray:
        """``dginv[..., m, a, b] = d_m g^ab``, computed once."""
        return inverse_metric_derivative(self.ginv, self.dg)

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Christoffel symbols ``Gamma[..., k, i, j] = Gamma^k_ij``, computed once."""
        S = _lowered_symbol(self.dg)
        return 0.5 * (self.ginv @ S.reshape(S.shape[:-3] + (3, 9))).reshape(S.shape)

    @cached_property
    def curvature(self) -> tuple:
        """Riemann (1,3) tensor, Ricci tensor and scalar curvature, computed once."""
        ginv, Gamma = self.ginv, self.christoffel
        S, dS = _lowered_symbol(self.dg), _lowered_symbol(self.ddg)
        # d_l Gamma^k_ij = 1/2 (d_l g^km S_mij + g^km d_l S_mij), matmuls over m
        batch = S.shape[:-3]
        dGamma = 0.5 * (self.dginv @ S.reshape(batch + (1, 3, 9))
                        + ginv[..., None, :, :] @ dS.reshape(batch + (3, 3, 9)))
        dGamma = dGamma.reshape(batch + (3, 3, 3, 3))
        riemann = (np.einsum("...cadb->...abcd", dGamma)
                   - np.einsum("...dacb->...abcd", dGamma)
                   + np.einsum("...ace,...edb->...abcd", Gamma, Gamma)
                   - np.einsum("...ade,...ecb->...abcd", Gamma, Gamma))
        ricci = np.einsum("...abad->...bd", riemann)
        scalar = np.einsum("...bd,...bd->...", ginv, ricci)
        return riemann, ricci, scalar

    def __getitem__(self, index) -> "MetricJet2":
        """The jet at a sub-batch; it keeps the inverse if this jet has one."""
        if "ddg" in self.__dict__:
            part = MetricJet2(self.g[index], self.dg[index], self.ddg[index])
        else:
            part = MetricJet2(self.g[index], self.dg[index],
                              d2=[d[index] for d in self.d2])
        if "ginv" in self.__dict__:
            part.__dict__["ginv"] = self.ginv[index]
        return part


def inverse_metric_derivative(ginv, dg):
    """d_m g^{ab} = -g^{ac} (d_m g_cd) g^{db}, indexed [..., m, a, b]."""
    up = ginv[..., None, :, :]
    return -(up @ dg @ up)


def _lowered_symbol(d):
    """S[..., m, i, j] = d_j g_mi + d_i g_mj - d_m g_ij from d[..., k, i, j] = d_k g_ij.

    Acts on the last three axes, so it also lowers the derivative of dg.
    """
    return np.moveaxis(d, -3, -1) + np.swapaxes(d, -3, -2) - d


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


@dataclass
class MetricModel:
    """A named asymptotically flat metric with declared falloff rate.

    ``tau`` is the decay exponent of ``g - delta`` (must exceed 1/2),
    ``exact_mass`` the analytically known total mass when available,
    ``inner_radius`` the radius inside which the chart is not used, and
    ``program`` the compiled g11 ... g33, then any conformal factor.
    """

    kind: str
    tau: float
    inner_radius: float
    exact_mass: Optional[float]
    params: dict
    program: expr.JetProgram = field(repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValidationError(f"unknown metric kind '{self.kind}'")
        if not self.tau > 0.5:
            raise ValidationError(f"falloff rate tau={self.tau} must exceed 1/2")
        _require_finite(tau=self.tau, inner_radius=self.inner_radius)
        if self.exact_mass is not None:
            _require_finite(exact_mass=self.exact_mass)
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

def _assemble_components(program: expr.JetProgram, points: np.ndarray,
                         order: int) -> MetricJet2:
    """The jet from a program whose roots are g11 ... g33, then optionally
    a conformal factor, which must be positive."""
    jets = program(points, order)
    if any(np.any(U.value <= 0.0) for U in jets[6:]):
        raise NotPositiveDefinite("conformal factor is not positive on the sample")
    batch = points.shape[:-1]
    g = np.zeros(batch + (3, 3))
    dg = np.zeros(batch + (3, 3, 3))
    # batch-last view of the batch-first array, the layout of the jets
    dg_last = np.moveaxis(dg, (-3, -2, -1), (0, 1, 2))
    for (i, j), jet in zip(_COMPONENT_INDEX, jets):
        g[..., i, j] = jet.value
        g[..., j, i] = jet.value
        dg_last[:, i, j] = jet.d1
        dg_last[:, j, i] = jet.d1
    if order == 1:
        return MetricJet2(g, dg)
    hessians = [np.moveaxis(jet.d2, (0, 1), (-2, -1)) for jet in jets[:6]]
    return MetricJet2(g, dg, d2=hessians)


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


def _user_displacement(displacement) -> tuple:
    """ASTs of a user displacement's three components and their params."""
    xi = [expr.ensure_expression(c) for c in displacement]
    if len(xi) != 3:
        raise ValidationError("displacement needs exactly three components")
    return xi, {f"xi{m + 1}": expr.to_source(xi[m]) for m in range(3)}


def _dot(a: list, b: list) -> Expression:
    """AST of a[0]*b[0] + a[1]*b[1] + a[2]*b[2], summed left to right."""
    s = expr.BinOp("*", a[0], b[0])
    for m in (1, 2):
        s = expr.BinOp("+", s, expr.BinOp("*", a[m], b[m]))
    return s


def _pullback_gram(xi: list) -> list:
    """ASTs of g11 ... g33 of (I + Dxi)^T (I + Dxi), with Dxi differentiated exactly."""
    columns = [[expr.derivative(xi[m], i) for m in range(3)] for i in range(3)]
    for i in range(3):
        columns[i][i] = expr.BinOp("+", columns[i][i], expr.Num(1.0))
    return [_dot(columns[i], columns[j]) for i, j in _COMPONENT_INDEX]


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------

def flat_model() -> MetricModel:
    program = expr.JetProgram([expr.Num(float(i == j)) for i, j in _COMPONENT_INDEX])
    return MetricModel("flat", 1.0, 0.0, 0.0, {}, program)


def _schwarzschild_factor_at(rho: Expression, mass: float) -> Expression:
    """AST of U = m/(2 rho) + 1."""
    return expr.BinOp("+", expr.BinOp("/", expr.Num(0.5 * mass), rho), expr.Num(1.0))


def _conformal_program(U: Expression) -> expr.JetProgram:
    """g = U^4 delta, then U, which metric_jet checks to be positive."""
    U4, zero = expr.BinOp("^", U, expr.Num(4.0)), expr.Num(0.0)
    return expr.JetProgram([U4, zero, zero, U4, zero, U4, U])


def schwarzschild_model(mass: float = 1.0, inner_radius: float | None = None) -> MetricModel:
    """Conformally flat slice with U = 1 + m/(2r); exact mass m.

    Negative masses are admitted for sign-sensitivity tests; the default
    inner radius keeps the chart away from the zero of U.
    """
    _require_finite(mass=mass)
    if inner_radius is None:
        inner_radius = max(1.0, abs(mass))
    if inner_radius <= abs(mass) / 2.0:
        raise ValidationError("inner_radius must exceed |m|/2 so that U > 0")
    program = _conformal_program(_schwarzschild_factor_at(expr.Var("r"), mass))
    return MetricModel("conformal", 1.0, float(inner_radius), float(mass),
                       {"schwarzschild_mass": float(mass)}, program)


def conformal_model(factor, tau: float, inner_radius: float = 1.0,
                    exact_mass: Optional[float] = None) -> MetricModel:
    node = expr.ensure_expression(factor)
    return MetricModel("conformal", float(tau), float(inner_radius), exact_mass,
                       {"factor": expr.to_source(node)}, _conformal_program(node))


def pullback_model(tau: float = 0.75, amplitude: float = 0.4, angular: float = 0.3,
                   inner_radius: float = 2.0, displacement=None) -> MetricModel:
    """Flat space pulled back by a decaying diffeomorphism; exact mass 0."""
    _require_finite(tau=tau, amplitude=amplitude, angular=angular)
    if displacement is None:
        xi = _builtin_displacement(tau, amplitude, angular)
        params = {"tau": float(tau), "amplitude": float(amplitude),
                  "angular": float(angular)}
    else:
        xi, params = _user_displacement(displacement)
    program = expr.JetProgram(_pullback_gram(xi))
    return MetricModel("diffeo_pullback_flat", float(tau), float(inner_radius),
                       0.0, params, program)


def composed_model(mass: float = 1.0, tau_diffeo: float = 0.75, amplitude: float = 0.2,
                   angular: float = 0.3, inner_radius: float = 2.0,
                   displacement=None) -> MetricModel:
    """Built-in conformal metric pulled back by a decaying diffeomorphism.

    The mass is invariant under the coordinate change, while the chart
    falloff drops to min(1, tau_diffeo).
    """
    _require_finite(mass=mass, tau_diffeo=tau_diffeo, amplitude=amplitude,
                    angular=angular)
    if displacement is None:
        xi = _builtin_displacement(tau_diffeo, amplitude, angular)
        params = {"schwarzschild_mass": float(mass), "tau_diffeo": float(tau_diffeo),
                  "amplitude": float(amplitude), "angular": float(angular)}
    else:
        xi, xi_params = _user_displacement(displacement)
        params = {"schwarzschild_mass": float(mass), **xi_params}
    # U = 1 + m/(2 rho) at the image point phi(x) = x + xi(x), rho = |phi|
    phi = [expr.BinOp("+", xi[m], expr.Var(name)) for m, name in enumerate("xyz")]
    U = _schwarzschild_factor_at(expr.Call("sqrt", _dot(phi, phi)), mass)
    U4 = expr.BinOp("^", U, expr.Num(4.0))
    program = expr.JetProgram([expr.BinOp("*", U4, c) for c in _pullback_gram(xi)] + [U])
    return MetricModel("composed", min(1.0, float(tau_diffeo)), float(inner_radius),
                       float(mass), params, program)


def expression_model(components: dict, tau: float, inner_radius: float = 1.0,
                     exact_mass: Optional[float] = None) -> MetricModel:
    missing = [k for k in _COMPONENT_KEYS if k not in components]
    extra = [k for k in components if k not in _COMPONENT_KEYS]
    if missing or extra:
        raise ValidationError(
            f"expression metric needs exactly {_COMPONENT_KEYS}; "
            f"missing {missing}, unknown {extra}")
    nodes = {key: expr.ensure_expression(components[key]) for key in _COMPONENT_KEYS}
    params = {key: expr.to_source(node) for key, node in nodes.items()}
    program = expr.JetProgram(list(nodes.values()))
    return MetricModel("expression", float(tau), float(inner_radius), exact_mass,
                       params, program)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def metric_jet(model: MetricModel, points, order: int = 2) -> MetricJet2:
    """Evaluate the metric 2-jet at one point (3,) or a batch (..., 3).

    ``order=1`` asks for ``g`` and ``dg`` alone (see the module docstring).
    Every derivative the jet carries must be finite.  So a Hessian that
    overflows where ``g`` and ``dg`` are finite fails here at ``order=2``;
    at ``order=1`` it is never evaluated.  A point whose squared radius
    overflows (coordinates beyond about 1e154) fails here at either order.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError("points must have a trailing axis of length 3")
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    with np.errstate(all="ignore"):
        radii = np.sqrt(np.sum(pts * pts, axis=-1))
        if not np.isfinite(radii).all():
            raise DomainError("the radius of a sample point is not finite")
        if model.inner_radius > 0.0 and np.any(radii < model.inner_radius * (1.0 - 1e-12)):
            raise OutsideDomain(
                f"point at radius {float(np.min(radii)):.6g} is inside "
                f"inner_radius={model.inner_radius:.6g}")
        jet = _assemble_components(model.program, pts, order)
    if not all(np.isfinite(a).all() for a in (jet.g, jet.dg, *jet.d2)):
        raise DomainError("metric jet is not finite on the sample")
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

#: Numeric params passed on to the pullback and composed constructors, by
#: argument name; a constructor's own default holds for a key left out.
_CONSTRUCTOR_ARGS = {"schwarzschild_mass": "mass", "tau_diffeo": "tau_diffeo",
                     "amplitude": "amplitude", "angular": "angular"}


def _number(value, key: str) -> float:
    """A config number as a float; anything else is an error naming its key."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"'{key}' must be a number, got {value!r}") from None


def _expression(params: dict, key: str) -> str:
    """A config expression string; anything else is an error naming its key."""
    if not isinstance(params[key], str):
        raise ValidationError(f"'params.{key}' must be an expression string, "
                              f"got {params[key]!r}")
    return params[key]


def load_model(source) -> MetricModel:
    """Build a model from a config dict or a JSON file path.

    Unknown keys are rejected so typos never silently change a run.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as err:
            raise ValidationError(f"cannot read model file '{source}': {err}") from None
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
    tau = _number(cfg["tau"], "tau")
    inner = _number(cfg["inner_radius"], "inner_radius")
    exact = cfg.get("exact_mass")
    exact = None if exact is None else _number(exact, "exact_mass")

    if kind == "flat":
        model = flat_model()
    elif kind == "conformal":
        if "schwarzschild_mass" in params:
            model = schwarzschild_model(
                _number(params["schwarzschild_mass"], "params.schwarzschild_mass"),
                inner_radius=inner)
        elif "factor" in params:
            model = conformal_model(_expression(params, "factor"), tau, inner, exact)
        else:
            raise ValidationError("conformal params need 'factor' or 'schwarzschild_mass'")
    elif kind == "expression":
        model = expression_model({key: _expression(params, key) for key in params},
                                 tau, inner, exact)
    else:
        given = {_CONSTRUCTOR_ARGS[key]: _number(value, f"params.{key}")
                 for key, value in params.items() if key in _CONSTRUCTOR_ARGS}
        xi_keys = ("xi1", "xi2", "xi3")
        missing = [key for key in xi_keys if key not in params]
        if len(missing) < 3:
            if missing:
                raise ValidationError(f"displacement params are missing {missing}")
            given["displacement"] = [_expression(params, key) for key in xi_keys]
        if kind == "composed":
            model = composed_model(**{"tau_diffeo": tau, **given}, inner_radius=inner)
            if tau > model.tau:
                raise ValidationError(f"tau={tau} exceeds the chart falloff "
                                      f"min(1, tau_diffeo) = {model.tau}")
        else:
            if "tau" in params and _number(params["tau"], "params.tau") != tau:
                raise ValidationError(f"params tau={float(params['tau'])} differs "
                                      f"from the model tau={tau}")
            model = pullback_model(tau, inner_radius=inner, **given)
    # replace() re-runs MetricModel's validation on the file's values
    return replace(model, tau=tau, inner_radius=inner,
                   exact_mass=model.exact_mass if exact is None else exact)

"""Mass estimators on large coordinate cubes (and reference spheres).

Each estimator integrates exact geometric quantities over the boundary
of the cube of half-side L centered at the coordinate origin and returns
a :class:`MassEstimate` whose ``value`` is a documented combination of
the reported breakdown terms:

``adm_cube``            value = face_term / (16 pi)
``adm_sphere``          value = face_term / (16 pi)
``gromov_cube``         value = (-face_term + edge_term) / (8 pi)
``gauss_bonnet_slices`` value = (slice_term_1 + slice_term_2 + slice_term_3) / (8 pi)
``bkks_direction``      value = (gradient_flux_term + slice_term_k
                                 - correction_term) / (8 pi)
``bartnik_sum``         value = gradient_flux_term / (16 pi)

Measure policy: the ADM flux uses the Euclidean area measure with the
coordinate normal (the classical convention; the difference from the
intrinsic measure is absorbed by the error term).  The curvature-based
estimators use intrinsic g-measures throughout, except the Laplacian
correction of ``bkks_direction``, which is a Euclidean-measure face
integral by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom, quad
from .errors import OutsideDomain, ValidationError
from .metric import MetricModel, metric_jet
from .quad import QuadratureSpec

METHODS = ("adm_cube", "adm_sphere", "gromov_cube", "gauss_bonnet_slices",
           "bkks_direction", "bartnik_sum")


@dataclass
class MassEstimate:
    method: str
    L: float
    value: float
    breakdown: dict
    quadrature: QuadratureSpec
    measure: str


@dataclass
class GromovDefect:
    """Integrated mean-curvature/dihedral defect of the cube boundary.

    Non-negative for large cubes in complete metrics of non-negative
    scalar curvature; its sign flips with the sign of the mass.
    """

    L: float
    defect: float
    face_term: float
    edge_term: float


# ---------------------------------------------------------------------------
# ADM flux
# ---------------------------------------------------------------------------

def _adm_face_integrand(axis: int):
    def f(points, jets):
        total = 0.0
        for j in range(3):
            if j == axis:
                continue
            total = total + jets.dg[..., j, j, axis] - jets.dg[..., axis, j, j]
        return total
    return f


def adm_flux_cube(model: MetricModel, L: float,
                  spec: QuadratureSpec = QuadratureSpec(),
                  measure: str = "euclidean") -> MassEstimate:
    """Coordinate flux of sum_j (g_ji,j - g_jj,i) over the six faces."""
    total = 0.0
    for face in geom.FACES:
        total += face.sign * quad.integrate_face(
            model, face, L, _adm_face_integrand(face.axis), measure, spec)
    return MassEstimate(method="adm_cube", L=float(L),
                        value=total / (16.0 * math.pi),
                        breakdown={"face_term": total}, quadrature=spec,
                        measure=f"{measure}+coordinate-normal")


def adm_flux_sphere(model: MetricModel, radius: float,
                    angular_order: int = 64) -> MassEstimate:
    """Same flux over a coordinate sphere; the cross-estimator reference."""
    if not (math.isfinite(radius) and radius > 0.0 and radius >= model.inner_radius):
        raise OutsideDomain(f"sphere radius {radius} must be finite, positive and at "
                            f"least inner_radius = {model.inner_radius}")
    pts, w, normals = quad.sphere_points(radius, angular_order)
    jets = metric_jet(model, pts)
    vals = 0.0
    for k in range(3):
        inner = 0.0
        for j in range(3):
            inner = inner + jets.dg[..., j, j, k] - jets.dg[..., k, j, j]
        vals = vals + inner * normals[:, k]
    total = float(np.sum(w * vals))
    return MassEstimate(method="adm_sphere", L=float(radius),
                        value=total / (16.0 * math.pi),
                        breakdown={"face_term": total},
                        quadrature=QuadratureSpec(face_order=max(2, int(angular_order)),
                                                  edge_order=2, curve_order=2,
                                                  slice_order=2),
                        measure="euclidean+coordinate-normal")


# ---------------------------------------------------------------------------
# mean curvature + dihedral deficit
# ---------------------------------------------------------------------------

def _face_H(face: geom.FaceId):
    def f(points, jets):
        return geom.face_frame(jets, face, points).H
    return f


def _edge_deficit(points, jets, edge):
    frame = geom.edge_frame(jets, edge, points)
    return 0.5 * math.pi - frame.theta


def gromov_cube_mass(model: MetricModel, L: float,
                     spec: QuadratureSpec = QuadratureSpec()) -> MassEstimate:
    """Mass from the face mean curvature and the edge normal-angle deficit.

    The dihedral-angle form of the edge term, (alpha - pi/2) with
    alpha = pi - theta, is symbolically identical to (pi/2 - theta), so
    both reported forms come from one computation and agree bitwise.
    """
    face_term = 0.0
    for face in geom.FACES:
        face_term += quad.integrate_face(model, face, L, _face_H(face), "g", spec)
    edge_term = quad.integrate_edges(model, L, _edge_deficit, "g", spec)
    edge_term_alpha = edge_term
    return MassEstimate(method="gromov_cube", L=float(L),
                        value=(-face_term + edge_term) / (8.0 * math.pi),
                        breakdown={"face_term": face_term,
                                   "edge_term": edge_term,
                                   "edge_term_alpha": edge_term_alpha},
                        quadrature=spec, measure="g")


def gromov_defect(model: MetricModel, L: float,
                  spec: QuadratureSpec = QuadratureSpec()) -> GromovDefect:
    est = gromov_cube_mass(model, L, spec)
    return GromovDefect(L=float(L), defect=est.value,
                        face_term=est.breakdown["face_term"],
                        edge_term=est.breakdown["edge_term"])


def edge_deficit_sums(model: MetricModel, L: float,
                      spec: QuadratureSpec = QuadratureSpec()):
    """(ordered-face-pair sum, unordered edge sum) of the deficit integral.

    Ordered pairs visit every physical edge twice, so the first sum must
    equal twice the second; the estimators use the unordered sum.
    """
    ordered = 0.0
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for si in (1, -1):
                for sj in (1, -1):
                    edge = geom.EdgeId.make(i, j, si, sj)
                    ordered += quad.integrate_edge(model, edge, L,
                                                   _edge_deficit, "g", spec)
    unordered = quad.integrate_edges(model, L, _edge_deficit, "g", spec)
    return ordered, unordered


# ---------------------------------------------------------------------------
# slice defects (shared by the slicing estimators)
# ---------------------------------------------------------------------------

def _corner_points(axis: int, t, L: float) -> np.ndarray:
    """Corners of the slice squares at levels t: (4,) + shape(t) + (3,).

    In the counterclockwise order that ``geom.turning_angles`` expects.
    """
    i, j = (a for a in range(3) if a != axis)
    t = np.asarray(t, dtype=float)
    pts = np.empty((4,) + t.shape + (3,))
    pts[..., axis] = t
    for c, (xi, xj) in enumerate(((L, L), (-L, L), (-L, -L), (L, -L))):
        pts[c, ..., i] = xi
        pts[c, ..., j] = xj
    return pts


def _turning_total(model, axis, t, L):
    """Sum of the four corner turning angles of the slice squares at levels t."""
    jets = metric_jet(model, _corner_points(axis, t, L))
    return geom.turning_angles([jets[c] for c in range(4)], axis, t).beta_total


def _kappa_integrand(axis: int):
    def f(points, jets, face):
        return geom.curve_frame(jets, axis, face, points).kappa
    return f


def slice_defect(model: MetricModel, axis: int, t: float, L: float,
                 spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Angle defect 2 pi - (corner turning angles) - (geodesic curvature)
    of the slice square {x^axis = t} on the cube boundary.

    The per-level diagnostic; the estimators integrate the same defect
    over all levels at once in ``_slice_term``.
    """
    beta_total = _turning_total(model, axis, t, L)
    kappa_int = quad.integrate_slice_curve(model, axis, t, L,
                                           _kappa_integrand(axis), "g", spec)
    return 2.0 * math.pi - float(beta_total) - kappa_int


def _level_blocks(levels: int, nodes_per_level: int, cap: int):
    """Runs of whole levels holding at most cap nodes (at least one level)."""
    step = max(1, cap // nodes_per_level)
    return [slice(k, k + step) for k in range(0, levels, step)]


def _slice_term(model, axis, L, spec):
    """Integral over t in [-L, L] of the slice defect, in face and edge form.

    By Fubini, Int [2 pi - beta(t) - Int kappa ds] dt is 2 pi times the
    slice interval, minus the corner turning angles integrated along the
    four cube edges parallel to the axis, minus kappa * sqrt(g_dd)
    integrated over the four side faces on the (slice level, curve node)
    tensor grid.  Jets are evaluated in blocks of whole levels of at most
    face_order**2 nodes, the size of one face batch elsewhere.
    """
    quad.require_cube(model, L)
    t, wt = quad.gauss_nodes(spec.slice_order, -L, L)
    s, ws = quad.gauss_nodes(spec.curve_order, -L, L)
    cap = spec.face_order ** 2
    beta = np.concatenate([_turning_total(model, axis, t[b], L)
                           for b in _level_blocks(len(t), 4, cap)])
    kappa = np.zeros(len(t))
    for face in geom.FACES:
        if face.axis == axis:
            continue
        d = 3 - axis - face.axis
        for b in _level_blocks(len(t), len(s), cap):
            pts = np.empty((len(t[b]), len(s), 3))
            pts[..., axis] = t[b, None]
            pts[..., face.axis] = face.sign * L
            pts[..., d] = s
            jets = metric_jet(model, pts)
            frame = geom.curve_frame(jets, axis, face, pts)
            kappa[b] += (frame.kappa * np.sqrt(jets.g[..., d, d])) @ ws
    # combine per level first: the three terms are O(L) each while the
    # defect is O(m), so summing them separately loses digits
    return float(wt @ (2.0 * math.pi - beta - kappa))


def gauss_bonnet_slice_mass(model: MetricModel, L: float,
                            spec: QuadratureSpec = QuadratureSpec()) -> MassEstimate:
    """Mass as the integrated angle defect of coordinate-plane slices."""
    terms = {}
    for axis in range(3):
        terms[f"slice_term_{axis + 1}"] = _slice_term(model, axis, L, spec)
    value = sum(terms.values()) / (8.0 * math.pi)
    return MassEstimate(method="gauss_bonnet_slices", L=float(L), value=value,
                        breakdown=terms, quadrature=spec, measure="g")


# ---------------------------------------------------------------------------
# per-direction gradient-flux formula
# ---------------------------------------------------------------------------

def _gradient_flux_integrand(axis: int, face: geom.FaceId):
    def f(points, jets):
        nu = geom.face_normal(jets, face)
        _, dnorm, _ = geom.coordinate_gradient_jet(jets, axis)
        return np.einsum("...a,...a->...", nu, dnorm)
    return f


def bartnik_gradient_integral(model: MetricModel, L: float, axis: int,
                              spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Flux of d_nu |grad x^axis| through the cube boundary (g-measure).

    One direction's contribution to the gradient-flux mass identity;
    sums to 16 pi m only when the coordinates are harmonic, and is
    otherwise reported as a diagnostic.
    """
    total = 0.0
    for face in geom.FACES:
        total += quad.integrate_face(model, face, L,
                                     _gradient_flux_integrand(axis, face), "g", spec)
    return total


def _laplacian_integrand(axis: int):
    def f(points, jets):
        _, _, lap = geom.coordinate_gradient_jet(jets, axis)
        return lap
    return f


def bkks_direction_mass(model: MetricModel, L: float, axis: int,
                        spec: QuadratureSpec = QuadratureSpec()) -> MassEstimate:
    """Single-direction mass: gradient flux plus slice defect, corrected
    by the Laplacian of the coordinate function when the chart is not
    harmonic.  The uncorrected combination is reported alongside."""
    if axis not in (0, 1, 2):
        raise ValidationError("axis must be 0, 1 or 2")
    flux = bartnik_gradient_integral(model, L, axis, spec)
    slice_term = _slice_term(model, axis, L, spec)
    plus = quad.integrate_face(model, geom.FaceId(axis, 1), L,
                               _laplacian_integrand(axis), "euclidean", spec)
    minus = quad.integrate_face(model, geom.FaceId(axis, -1), L,
                                _laplacian_integrand(axis), "euclidean", spec)
    correction = plus - minus
    value = (flux + slice_term - correction) / (8.0 * math.pi)
    return MassEstimate(
        method="bkks_direction", L=float(L), value=value,
        breakdown={"gradient_flux_term": flux,
                   f"slice_term_{axis + 1}": slice_term,
                   "correction_term": correction,
                   "uncorrected_value": (flux + slice_term) / (8.0 * math.pi)},
        quadrature=spec, measure="g+euclidean-correction")


def bartnik_sum_mass(model: MetricModel, L: float,
                     spec: QuadratureSpec = QuadratureSpec()) -> MassEstimate:
    """Sum of the three gradient fluxes over 16 pi.

    Equals the mass in the limit only for harmonic charts; kept as an
    estimator because it vanishes identically on flat space and feeds
    the diagnostic consistency identities.
    """
    fluxes = [bartnik_gradient_integral(model, L, axis, spec) for axis in range(3)]
    total = fluxes[0] + fluxes[1] + fluxes[2]
    breakdown = {"gradient_flux_term": total}
    for axis, fk in enumerate(fluxes):
        breakdown[f"gradient_flux_term_{axis + 1}"] = fk
    return MassEstimate(method="bartnik_sum", L=float(L),
                        value=total / (16.0 * math.pi), breakdown=breakdown,
                        quadrature=spec, measure="g")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def estimate(model: MetricModel, method: str, L: float,
             spec: QuadratureSpec = QuadratureSpec(), axis: int | None = None,
             measure: str = "euclidean") -> MassEstimate:
    """Run one estimator by method name (axis required for bkks_direction)."""
    if method == "adm_cube":
        return adm_flux_cube(model, L, spec, measure)
    if method == "adm_sphere":
        return adm_flux_sphere(model, L, angular_order=spec.face_order)
    if method == "gromov_cube":
        return gromov_cube_mass(model, L, spec)
    if method == "gauss_bonnet_slices":
        return gauss_bonnet_slice_mass(model, L, spec)
    if method == "bkks_direction":
        if axis is None:
            raise ValidationError("bkks_direction needs an axis")
        return bkks_direction_mass(model, L, axis, spec)
    if method == "bartnik_sum":
        return bartnik_sum_mass(model, L, spec)
    raise ValidationError(f"unknown method '{method}' (one of {METHODS})")

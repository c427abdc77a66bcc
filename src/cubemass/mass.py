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

Every estimator takes a half-side L or a 1-D array of them, the rungs of
a ladder.  An array is evaluated in one walk of the boundary: each face,
and the edges, take one ``metric_jet`` call over every rung, and the
estimate's L, value and terms are arrays over the rungs, which
:func:`estimate_ladder` splits into one estimate per rung.  Each rung is
the same float as the estimate at that half-side alone.

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
from .errors import CubeMassError, OutsideDomain, ValidationError
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


def _estimate(method, L, value, breakdown, quadrature, measure) -> MassEstimate:
    per_rung = quad.per_rung
    return MassEstimate(method=method, L=per_rung(L), value=per_rung(value),
                        breakdown={name: per_rung(term) for name, term in breakdown.items()},
                        quadrature=quadrature, measure=measure)


def _rule_sum(values, wt):
    """Sum of wt * values along the last axis, per rung, in the order of the
    1-D dot product ``wt @ values`` of one rung."""
    return (values[..., None, :] @ wt[..., :, None])[..., 0, 0]


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


def adm_flux_cube(model: MetricModel, L,
                  spec: QuadratureSpec = QuadratureSpec(),
                  measure: str = "euclidean") -> MassEstimate:
    """Coordinate flux of sum_j (g_ji,j - g_jj,i) over the six faces."""
    total = 0.0
    for face in geom.FACES:
        total += face.sign * quad.integrate_face(
            model, face, L, _adm_face_integrand(face.axis), measure, spec)
    return _estimate("adm_cube", L, total / (16.0 * math.pi), {"face_term": total},
                     spec, f"{measure}+coordinate-normal")


def adm_flux_sphere(model: MetricModel, radius,
                    angular_order: int = 64) -> MassEstimate:
    """Same flux over a coordinate sphere; the cross-estimator reference.

    ``angular_order`` is the Gauss rule's node count in cos(theta), at
    least 2 like every ``QuadratureSpec`` order, and the report's label."""
    spec = QuadratureSpec(angular_order)
    for r in np.ravel(radius):
        r = float(r)
        if not (math.isfinite(r) and r > 0.0 and r >= model.inner_radius):
            raise OutsideDomain(f"sphere radius {r} must be finite, positive and at "
                                f"least inner_radius = {model.inner_radius}")
    pts, w, normals = quad.sphere_points(radius, spec.order)
    jets = metric_jet(model, pts, order=1)
    vals = 0.0
    for k in range(3):
        inner = 0.0
        for j in range(3):
            inner = inner + jets.dg[..., j, j, k] - jets.dg[..., k, j, j]
        vals = vals + inner * normals[:, k]
    total = np.sum(w * vals, axis=-1)
    return _estimate("adm_sphere", radius, total / (16.0 * math.pi), {"face_term": total},
                     spec, "euclidean+coordinate-normal")


# ---------------------------------------------------------------------------
# mean curvature + dihedral deficit
# ---------------------------------------------------------------------------

def _face_H(face: geom.FaceId):
    def f(points, jets):
        return geom.face_frame(jets, face, points).H
    return f


def _edge_deficit(points, jets, edge):
    """pi/2 - theta for the angle theta between the two faces' outward
    normals, as asin(cos theta) = asin(s_a s_b g^ab / sqrt(g^aa g^bb)).

    Formed from the small g^ab itself, it keeps its relative precision at
    any L, where pi/2 - theta would carry an absolute round-off of eps."""
    ginv, a, b = jets.ginv, edge.axis_a, edge.axis_b
    return np.arcsin(edge.sign_a * edge.sign_b * ginv[..., a, b]
                     / np.sqrt(ginv[..., a, a] * ginv[..., b, b]))


def _corner_deficit(jets, edge):
    """pi/2 - beta for the turning angle beta of a slice square at its corner
    on edge, traversed as ``geom.turning_angles`` does: asin(cos beta) with
    cos beta = -s_a s_b g_ab / sqrt(g_aa g_bb), small like the edge deficit."""
    g, a, b = jets.g, edge.axis_a, edge.axis_b
    return np.arcsin(-edge.sign_a * edge.sign_b * g[..., a, b]
                     / np.sqrt(g[..., a, a] * g[..., b, b]))


def gromov_cube_mass(model: MetricModel, L,
                     spec: QuadratureSpec = QuadratureSpec()) -> MassEstimate:
    """Mass from the face mean curvature and the edge normal-angle deficit.

    The dihedral-angle form of the edge term, (alpha - pi/2) with
    alpha = pi - theta, is symbolically identical to (pi/2 - theta), so
    both reported forms come from one computation (``_edge_deficit``) and
    agree bitwise.
    """
    face_term = 0.0
    for face in geom.FACES:
        face_term += quad.integrate_face(model, face, L, _face_H(face), "g", spec)
    edge_term = quad.integrate_edges(model, L, _edge_deficit, "g", spec)
    edge_term_alpha = edge_term
    return _estimate("gromov_cube", L, (-face_term + edge_term) / (8.0 * math.pi),
                     {"face_term": face_term, "edge_term": edge_term,
                      "edge_term_alpha": edge_term_alpha}, spec, "g")


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
    """Corners of the slice squares at levels t, (4,) + shape(t) + (3,), in
    the counterclockwise order that ``geom.turning_angles`` expects."""
    i, j = (a for a in range(3) if a != axis)
    t = np.asarray(t, dtype=float)
    pts = np.empty((4,) + t.shape + (3,))
    pts[..., axis] = t
    for c, (xi, xj) in enumerate(((L, L), (-L, L), (-L, -L), (L, -L))):
        pts[c, ..., i] = xi
        pts[c, ..., j] = xj
    return pts


def slice_defect(model: MetricModel, axis: int, t: float, L: float,
                 spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Angle defect 2 pi - (corner turning angles) - (geodesic curvature)
    of the slice square {x^axis = t} on the cube boundary.

    The per-level reference for ``_slice_defects``, which the estimators
    integrate over all levels at once."""
    jets = metric_jet(model, _corner_points(axis, t, L), order=1)
    beta_total = geom.turning_angles([jets[c] for c in range(4)], axis, t).beta_total
    kappa_int = quad.integrate_slice_curve(
        model, axis, t, L, lambda pts, jets, face: geom.curve_frame(jets, axis, face, pts).kappa,
        "g", spec)
    return 2.0 * math.pi - float(beta_total) - kappa_int


def _face_kappa(face, sample, axes, wt):
    """Per slice level, Int kappa ds along one face for each axis in axes
    (zero for the face's own axis), read on the face's ``quad.face_sample``:
    by Fubini, one jet per face serves the kappa part of every slice axis."""
    pts, _, jets = sample
    n = wt.shape[-1]
    kappa = np.zeros((len(axes),) + wt.shape)
    for k, axis in enumerate(axes):
        if axis == face.axis:
            continue
        frame = geom.curve_frame(jets, axis, face, pts)
        grid = (frame.kappa * frame.length_density).reshape(wt.shape[:-1] + (n, n))
        # the grid's rows are the nodes of in_face_axes[0]: put levels on rows
        levels = grid if axis == face.in_face_axes[0] else np.swapaxes(grid, -1, -2)
        kappa[k] = (levels @ wt[..., None])[..., 0]
    return kappa


def _slice_defects(model, axes, L, spec, kappa):
    """The slice defect 2 pi - beta(t) - Int kappa ds at each level t, one
    row per axis in axes, from the summed ``_face_kappa`` rows.  The levels
    are the edge nodes: the corners are one ``quad.edge_sample`` of the four
    edges parallel to each axis, and 2 pi - beta is the sum of their four
    small deficits pi/2 - beta_c (``_corner_deficit``)."""
    edges = [geom.EdgeId(*(a for a in range(3) if a != axis), si, sj)
             for axis in axes for si, sj in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    deficits = [_corner_deficit(jets, edge)
                for edge, (_, _, jets) in zip(edges, quad.edge_sample(model, L, spec, edges))]
    return np.stack([sum(deficits[4 * k:4 * k + 4]) for k in range(len(axes))]) - kappa


def gauss_bonnet_slice_mass(model: MetricModel, L,
                            spec: QuadratureSpec = QuadratureSpec()) -> MassEstimate:
    """Mass as the integrated angle defect of coordinate-plane slices."""
    quad.require_cube(model, L)
    _, wt = quad.gauss_nodes(spec.order, -L, L)  # the rule along every face axis and edge
    kappa = sum(_face_kappa(face, quad.face_sample(model, face, L, spec), (0, 1, 2), wt)
                for face in geom.FACES)
    defects = _slice_defects(model, (0, 1, 2), L, spec, kappa)
    terms = {f"slice_term_{axis + 1}": _rule_sum(defects[axis], wt) for axis in range(3)}
    value = sum(terms.values()) / (8.0 * math.pi)
    return _estimate("gauss_bonnet_slices", L, value, terms, spec, "g")


# ---------------------------------------------------------------------------
# per-direction gradient-flux formula
# ---------------------------------------------------------------------------

def _gradient_flux_integrand(axes, face: geom.FaceId):
    """d_nu |grad x^k| times the face's area density, one row per k in axes."""
    def f(points, jets):
        nu = geom.face_normal(jets, face)
        area = geom.area_density(jets, face.axis)
        return [np.einsum("...a,...a->...", nu, geom.coordinate_gradient_norm(jets, k)[1])
                * area for k in axes]
    return f


def _gradient_fluxes(model: MetricModel, L, axes,
                     spec: QuadratureSpec) -> np.ndarray:
    """Boundary flux of d_nu |grad x^k| for each k in axes, one jet per face,
    as an array with one row per k.

    The g-measure is folded into the integrand, so the face integral
    itself is Euclidean.
    """
    totals = np.zeros((len(axes),) + np.shape(L))
    for face in geom.FACES:
        totals += quad.integrate_face(model, face, L, _gradient_flux_integrand(axes, face),
                                      "euclidean", spec)
    return totals


def bartnik_gradient_integral(model: MetricModel, L, axis: int,
                              spec: QuadratureSpec = QuadratureSpec()):
    """Flux of d_nu |grad x^axis| through the cube boundary (g-measure).

    One direction's contribution to the gradient-flux mass identity;
    sums to 16 pi m only when the coordinates are harmonic, and is
    otherwise reported as a diagnostic.
    """
    return quad.per_rung(_gradient_fluxes(model, L, (axis,), spec)[0])


def _bkks_integrand(axis: int, face: geom.FaceId):
    """The gradient-flux row, plus the Laplacian of x^axis on the two axis faces."""
    flux = _gradient_flux_integrand((axis,), face)

    def f(points, jets):
        rows = flux(points, jets)
        if face.axis == axis:
            rows.append(geom.coordinate_gradient_jet(jets, axis)[2])
        return rows
    return f


def bkks_direction_mass(model: MetricModel, L, axis: int,
                        spec: QuadratureSpec = QuadratureSpec()) -> MassEstimate:
    """Single-direction mass: gradient flux plus slice defect, corrected
    by the Laplacian of the coordinate function when the chart is not
    harmonic.  The uncorrected combination is reported alongside.

    Each face is evaluated once: its jet gives the flux, the slice term's
    kappa and, on the axis faces, the (Euclidean-measure) Laplacian."""
    if axis not in (0, 1, 2):
        raise ValidationError("axis must be 0, 1 or 2")
    quad.require_cube(model, L)
    _, wt = quad.gauss_nodes(spec.order, -L, L)  # the rule along every face axis and edge
    kappa, flux, laplacian = 0, 0.0, {}
    for face in geom.FACES:
        sample = quad.face_sample(model, face, L, spec)
        kappa = kappa + _face_kappa(face, sample, (axis,), wt)
        rows = quad.integrate_sample(face, sample, _bkks_integrand(axis, face), "euclidean")
        flux += rows[0]
        if face.axis == axis:
            laplacian[face.sign] = rows[1]
        del sample  # one face jet alive at a time: drop it before the next is built
    slice_term = _rule_sum(_slice_defects(model, (axis,), L, spec, kappa)[0], wt)
    correction = laplacian[1] - laplacian[-1]
    value = (flux + slice_term - correction) / (8.0 * math.pi)
    return _estimate("bkks_direction", L, value,
                     {"gradient_flux_term": flux, f"slice_term_{axis + 1}": slice_term,
                      "correction_term": correction,
                      "uncorrected_value": (flux + slice_term) / (8.0 * math.pi)},
                     spec, "g+euclidean-correction")


def bartnik_sum_mass(model: MetricModel, L,
                     spec: QuadratureSpec = QuadratureSpec()) -> MassEstimate:
    """Sum of the three gradient fluxes over 16 pi.

    Equals the mass in the limit only for harmonic charts; kept as an
    estimator because it vanishes identically on flat space and feeds
    the diagnostic consistency identities.
    """
    fluxes = _gradient_fluxes(model, L, range(3), spec)
    total = fluxes[0] + fluxes[1] + fluxes[2]
    breakdown = {"gradient_flux_term": total}
    for axis, fk in enumerate(fluxes):
        breakdown[f"gradient_flux_term_{axis + 1}"] = fk
    return _estimate("bartnik_sum", L, total / (16.0 * math.pi), breakdown, spec, "g")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def estimate_ladder(model: MetricModel, method: str, Ls,
                    spec: QuadratureSpec = QuadratureSpec(), axis: int | None = None,
                    measure: str = "euclidean") -> list:
    """One estimate per half-side in Ls, from one :func:`estimate` over all
    the rungs; each equals :func:`estimate` at its half-side alone.

    A failure is the one that the first failing rung gives on its own,
    as when the rungs are estimated one by one.
    """
    Ls = np.array(Ls, dtype=float, ndmin=1)
    try:
        est = estimate(model, method, Ls, spec, axis, measure)
    except CubeMassError:
        if len(Ls) > 1:
            for L in Ls:
                estimate(model, method, float(L), spec, axis, measure)
        raise
    return [MassEstimate(method=est.method, L=float(L), value=float(est.value[k]),
                         breakdown={name: float(term[k]) for name, term in est.breakdown.items()},
                         quadrature=est.quadrature, measure=est.measure)
            for k, L in enumerate(Ls)]


def estimate(model: MetricModel, method: str, L,
             spec: QuadratureSpec = QuadratureSpec(), axis: int | None = None,
             measure: str = "euclidean") -> MassEstimate:
    """Run one estimator by method name (axis required for bkks_direction).

    At a 1-D array of half-sides the estimate's fields are arrays over the
    rungs; :func:`estimate_ladder` splits them."""
    if method == "adm_cube":
        return adm_flux_cube(model, L, spec, measure)
    if method == "adm_sphere":
        return adm_flux_sphere(model, L, angular_order=spec.order)
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

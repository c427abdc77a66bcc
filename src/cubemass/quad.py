"""Deterministic Gauss-Legendre quadrature over cube faces, edges and slices.

Tensor-product rules with fixed node ordering: for a given spec and
model every integral is evaluated in one canonical order, so results are
reproducible bit for bit run-to-run.  Integrands receive the whole node
batch (points plus metric jets) in a single call.  The jets are first
order (``metric_jet(..., order=1)``): every boundary integrand reads only
``g``, ``dg`` and what the jet derives from them.

The cube layouts and integrators take a half-side L or a 1-D array of
them, the rungs of a ladder.  An array adds a leading rung axis to the
nodes, weights and jets, and the integrals come back as arrays over the
rungs, so one ``metric_jet`` call per face (and one for the edges)
serves every rung.  Each rung's integral is the same float as at that
half-side alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geom
from .errors import BadInterval, DomainError, OutsideDomain, ValidationError
from .metric import MetricModel, metric_jet

#: Assumed error scale of the default order, with a wide margin: on the
#: built-in model families the order-24 rule is within 1.7e-14 of an
#: order-64 reference at L <= 400, and doubling the order moves the
#: reported integrals by less than this (asserted by tests).  The
#: truncation error does not depend on L, but the round-off of the angle
#: deficits does: 7.5e-11 at L = 1e6.  It is not measured per run.  The
#: convergence module treats errors below 100x this value as quadrature
#: floor.
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre node count of every 1-D rule on the cube: along each
    face axis and edge, and across the slice levels, which are the edge nodes."""

    order: int = 24

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)) or self.order < 2:
            raise ValidationError("order must be an integer >= 2")

    def describe(self) -> dict:
        return {"order": self.order}


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_nodes(n: int, a, b):
    """Nodes and weights for the interval [a, b]; degree 2n-1 exactness.

    Arrays a and b of one shape give one rule per interval, stacked on
    the leading axes."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError("node count must be a positive integer")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all() and (a < b).all()):
        raise BadInterval(f"bad interval [{a}, {b}]")
    x, w = _leggauss(int(n))
    mid, half = (0.5 * (a + b))[..., None], (0.5 * (b - a))[..., None]
    return mid + half * x, half * w


def require_cube(model: MetricModel, L) -> None:
    """Reject a cube half-side that is not finite, not positive, or reaches
    into the model's excluded core (L < 2 * inner_radius); the rungs of an
    array are checked in order."""
    for half in np.ravel(L):
        half = float(half)
        if not np.isfinite(half) or half <= 0.0:
            fault = "positive" if np.isfinite(half) else "finite"
            raise OutsideDomain(f"cube half-side must be {fault}, got {half}")
        if half < 2.0 * model.inner_radius:
            raise OutsideDomain(
                f"cube half-side {half} is below 2*inner_radius = {2 * model.inner_radius}")


# ---------------------------------------------------------------------------
# node layouts
# ---------------------------------------------------------------------------

def face_points(face: geom.FaceId, L, spec: QuadratureSpec):
    """Tensor-product nodes (..., n², 3) and weights (..., n²) of one face,
    for half-sides L of shape (...); the second in-face axis runs fastest."""
    a, b = face.in_face_axes
    L = np.asarray(L, dtype=float)
    n = spec.order
    x, w = gauss_nodes(n, -L, L)
    pts = np.empty(L.shape + (n, n, 3))
    pts[..., face.axis] = face.sign * L[..., None, None]
    pts[..., a] = x[..., :, None]
    pts[..., b] = x[..., None, :]
    return (pts.reshape(L.shape + (n * n, 3)),
            (w[..., :, None] * w[..., None, :]).reshape(L.shape + (n * n,)))


def edge_points(edge: geom.EdgeId, L, spec: QuadratureSpec):
    """Nodes (..., n, 3) and weights (..., n) of one edge, for half-sides L
    of shape (...)."""
    L = np.asarray(L, dtype=float)
    x, w = gauss_nodes(spec.order, -L, L)
    pts = np.empty(x.shape + (3,))
    pts[..., edge.axis_a] = edge.sign_a * L[..., None]
    pts[..., edge.axis_b] = edge.sign_b * L[..., None]
    pts[..., edge.direction] = x
    return pts, w


def slice_segments(axis: int, t: float, L: float, spec: QuadratureSpec):
    """The four straight segments of the slice square, split at the corners.

    Returned in counterclockwise traversal order of the (i, j) plane
    (i < j the in-plane axes); Gauss nodes are interior, so corners are
    never sampled as curve nodes.
    """
    i, j = (a for a in range(3) if a != axis)
    path = ((geom.FaceId(i, 1), j), (geom.FaceId(j, 1), i),
            (geom.FaceId(i, -1), j), (geom.FaceId(j, -1), i))
    x, w = gauss_nodes(spec.order, -L, L)
    out = []
    for face, d in path:
        pts = np.empty((len(x), 3))
        pts[:, axis] = t
        pts[:, face.axis] = face.sign * L
        pts[:, d] = x
        out.append((face, pts, w))
    return out


def sphere_points(radius, order: int):
    """Product rule on a coordinate sphere: Gauss in cos(theta), uniform phi.

    Returns points (..., M, 3), weights (..., M) absorbing radius^2, and
    the Euclidean unit normals (M, 3), for radii of shape (...).  A radius
    whose square overflows fails like a cube point beyond about 1.3e154.
    """
    radius = np.asarray(radius, dtype=float)
    if np.any(radius <= 0.0):
        raise BadInterval("sphere radius must be positive")
    with np.errstate(over="ignore"):
        # a float64 scalar's ** is libm's pow, as a Python float's: an array's
        # ** 2 rounds r * r, which differs from it in the last bit for some r
        area = np.array([r ** 2 for r in radius.ravel()]).reshape(radius.shape)
    if not np.isfinite(area).all():
        raise DomainError("the radius of a sample point is not finite")
    mu, wmu = gauss_nodes(order, -1.0, 1.0)
    n_phi = 2 * int(order)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    MU, PHI = np.meshgrid(mu, phi, indexing="ij")
    s = np.sqrt(1.0 - MU ** 2)
    normals = np.stack([s * np.cos(PHI), s * np.sin(PHI), MU], axis=-1).reshape(-1, 3)
    w = (np.outer(wmu, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()) * area[..., None]
    return radius[..., None, None] * normals, w, normals


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

def _measure_ok(measure: str) -> None:
    if measure not in ("g", "euclidean"):
        raise ValidationError(f"measure must be 'g' or 'euclidean', got '{measure}'")


def integrate_face(model: MetricModel, face: geom.FaceId, L, f,
                   measure: str = "g", spec: QuadratureSpec = QuadratureSpec()):
    """Integral of f over one face; f(points, jets) -> values per node.

    An f that returns k rows of values per node, one per integrand, gets
    the k integrals as an array, all from one jet evaluation.
    """
    _measure_ok(measure)
    return integrate_sample(face, face_sample(model, face, L, spec), f, measure)


def face_sample(model: MetricModel, face: geom.FaceId, L, spec: QuadratureSpec):
    """Nodes, weights and metric jet of one face: the one face layout."""
    require_cube(model, L)
    pts, w = face_points(face, L, spec)
    return pts, w, metric_jet(model, pts, order=1)


def integrate_sample(face: geom.FaceId, sample, f, measure: str):
    """:func:`integrate_face` on a ``face_sample`` already taken."""
    pts, w, jets = sample
    vals = np.asarray(f(pts, jets), dtype=float)
    if measure == "g":
        vals = vals * geom.area_density(jets, face.axis)
    return per_rung(np.sum(w * vals, axis=-1))


def per_rung(x):
    """x as a float at one half-side, or as an array over a ladder's rungs
    (and over an integrand's rows)."""
    return float(x) if np.ndim(x) == 0 else np.asarray(x)


def edge_sample(model: MetricModel, L, spec: QuadratureSpec,
                edges=geom.EDGES) -> list:
    """Nodes, weights and metric jet of each listed edge, in order: the one edge
    layout.  Each edge's jet is a slice of one jet of all their nodes."""
    require_cube(model, L)
    layouts = [edge_points(edge, L, spec) for edge in edges]
    jets = metric_jet(model, np.concatenate([pts for pts, _ in layouts], axis=-2), order=1)
    n, rungs = spec.order, (slice(None),) * np.ndim(L)
    return [(pts, w, jets[rungs + (slice(k * n, (k + 1) * n),)])
            for k, (pts, w) in enumerate(layouts)]


def integrate_edges(model: MetricModel, L, f, measure: str = "g",
                    spec: QuadratureSpec = QuadratureSpec()):
    """Sum of integrals over the 12 cube edges, each counted once.

    f(points, jets, edge) -> values per node.  Any double counting a
    formula wants (e.g. summing over ordered face pairs) belongs to the
    caller, not here.  The edges are read from one :func:`edge_sample`
    and added in ``geom.EDGES`` order; each edge's integral is the same
    float as :func:`integrate_edge`'s.
    """
    _measure_ok(measure)
    total = 0.0
    for edge, sample in zip(geom.EDGES, edge_sample(model, L, spec)):
        total += _edge_integral(edge, sample, f, measure)
    return total


def integrate_edge(model: MetricModel, edge: geom.EdgeId, L: float, f,
                   measure: str = "g", spec: QuadratureSpec = QuadratureSpec()) -> float:
    _measure_ok(measure)
    (sample,) = edge_sample(model, L, spec, (edge,))
    return _edge_integral(edge, sample, f, measure)


def _edge_integral(edge: geom.EdgeId, sample, f, measure: str):
    pts, w, jets = sample
    vals = np.asarray(f(pts, jets, edge), dtype=float)
    if measure == "g":
        k = edge.direction
        vals = vals * np.sqrt(jets.g[..., k, k])
    return per_rung(np.sum(w * vals, axis=-1))


def integrate_slice_curve(model: MetricModel, axis: int, t: float, L: float, f,
                          measure: str = "g",
                          spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral over the slice square {x^axis = t} ∩ cube boundary.

    Piecewise over the four segments, split at the corners;
    f(points, jets, face) -> values per node.
    """
    _measure_ok(measure)
    require_cube(model, L)
    if not -L <= t <= L:
        raise OutsideDomain(f"slice level {t} outside [-L, L]")
    total = 0.0
    for face, pts, w in slice_segments(axis, t, L, spec):
        jets = metric_jet(model, pts, order=1)
        vals = np.asarray(f(pts, jets, face), dtype=float)
        if measure == "g":
            d = 3 - axis - face.axis
            vals = vals * np.sqrt(jets.g[..., d, d])
        total += float(np.sum(w * vals))
    return total


def integrate_slices(model: MetricModel, axis: int, L: float, F,
                     spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Outer rule over the slice level t in [-L, L]; F(t) -> value."""
    require_cube(model, L)
    t_nodes, w = gauss_nodes(spec.order, -L, L)
    total = 0.0
    for t, wt in zip(t_nodes, w):
        total += wt * float(F(float(t)))
    return total

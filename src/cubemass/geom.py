"""Differential-geometry kernel on metric 2-jets.

All quantities (Christoffel symbols, curvature tensors, face normals and
mean curvature, edge angles, slice-curve geodesic curvature, coordinate
gradient norms and Laplacians, level-set Gauss curvature) are computed
exactly from the pointwise jet ``(g, dg, ddg)``.  The large-cube
expansions the mass formulas rest on are verified by tests against these
exact values; they are never used as the computation itself.

Functions broadcast over a leading batch of points, so a whole
quadrature panel is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateGradient
from .expr import ScalarJet2
from .metric import MetricJet2


# ---------------------------------------------------------------------------
# cube combinatorics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceId:
    """Cube face x^axis = sign*L (axes are 0-based in code, 1-based in reports)."""

    axis: int
    sign: int

    def __post_init__(self):
        if self.axis not in (0, 1, 2) or self.sign not in (-1, 1):
            raise ValueError("FaceId needs axis in {0,1,2} and sign in {-1,+1}")

    @property
    def in_face_axes(self) -> tuple:
        return tuple(a for a in range(3) if a != self.axis)


@dataclass(frozen=True)
class EdgeId:
    """Cube edge F(axis_a, sign_a) ∩ F(axis_b, sign_b), stored with axis_a < axis_b.

    Canonicalisation encodes the symmetry that the edge of the ordered
    face pair (i, j) with signs (mu, lambda) is the edge of (j, i) with
    signs (lambda, mu).
    """

    axis_a: int
    axis_b: int
    sign_a: int
    sign_b: int

    def __post_init__(self):
        if self.axis_a >= self.axis_b:
            raise ValueError("EdgeId stores axis_a < axis_b; use EdgeId.make")

    @classmethod
    def make(cls, axis_i, axis_j, sign_i, sign_j) -> "EdgeId":
        if axis_i == axis_j:
            raise ValueError("edge needs two distinct axes")
        if axis_i < axis_j:
            return cls(axis_i, axis_j, sign_i, sign_j)
        return cls(axis_j, axis_i, sign_j, sign_i)

    @property
    def direction(self) -> int:
        return 3 - self.axis_a - self.axis_b


FACES = tuple(FaceId(axis, sign) for axis in range(3) for sign in (1, -1))
EDGES = tuple(EdgeId(a, b, sa, sb)
              for (a, b) in ((0, 1), (0, 2), (1, 2))
              for sa in (1, -1) for sb in (1, -1))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

@dataclass
class FaceFrame:
    point: np.ndarray
    nu: np.ndarray            # outward unit normal, contravariant components
    H: np.ndarray             # mean curvature w.r.t. nu (round sphere: +2/rho)
    area_density: np.ndarray  # d(sigma)/d(sigma_0)


@dataclass
class EdgeFrame:
    point: np.ndarray
    theta: np.ndarray          # angle between the adjacent outward normals
    alpha: np.ndarray          # interior dihedral angle, pi - theta
    length_density: np.ndarray


@dataclass
class CurveFrame:
    point: np.ndarray
    axis: int                  # slice axis k
    level: float               # slice level t
    T: np.ndarray              # unit tangent
    nu_bar: np.ndarray         # outward in-plane unit normal
    kappa: np.ndarray          # geodesic curvature (convex curves positive)
    length_density: np.ndarray


@dataclass
class TurningAngleSet:
    axis: int
    level: float
    betas: np.ndarray          # (4, ...) exterior angles in traversal order
    beta_total: np.ndarray


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def g_inner(g, u, v):
    return np.einsum("...a,...ab,...b->...", u, g, v)


def g_norm(g, u):
    return np.sqrt(g_inner(g, u, u))


def stable_angle(g, u, v):
    """Angle between unit vectors via 2*atan2(|u-v|, |u+v|); exact near 0 and pi."""
    return 2.0 * np.arctan2(g_norm(g, u - v), g_norm(g, u + v))


def inverse_and_christoffel(jet: MetricJet2):
    """Inverse metric and Christoffel symbols Gamma[..., k, i, j] = Gamma^k_ij."""
    return jet.ginv, jet.christoffel


def inverse_metric_derivative(ginv, dg):
    """d_m g^{ab} = -g^{ac} (d_m g_cd) g^{db}, indexed [..., m, a, b]."""
    return -np.einsum("...ac,...mcd,...db->...mab", ginv, dg, ginv)


def curvature(jet: MetricJet2):
    """Riemann (1,3) tensor, Ricci tensor and scalar curvature."""
    ginv, Gamma = inverse_and_christoffel(jet)
    dg, ddg = jet.dg, jet.ddg
    dginv = inverse_metric_derivative(ginv, dg)
    # S[..., m, i, j] = d_j g_mi + d_i g_mj - d_m g_ij and its derivative
    S = (np.einsum("...jmi->...mij", dg) + np.einsum("...imj->...mij", dg) - dg)
    dS = (np.einsum("...ljmi->...lmij", ddg)
          + np.einsum("...limj->...lmij", ddg) - ddg)
    dGamma = 0.5 * (np.einsum("...lkm,...mij->...lkij", dginv, S)
                    + np.einsum("...km,...lmij->...lkij", ginv, dS))
    riemann = (np.einsum("...cadb->...abcd", dGamma)
               - np.einsum("...dacb->...abcd", dGamma)
               + np.einsum("...ace,...edb->...abcd", Gamma, Gamma)
               - np.einsum("...ade,...ecb->...abcd", Gamma, Gamma))
    ricci = np.einsum("...abad->...bd", riemann)
    scalar = np.einsum("...bd,...bd->...", ginv, ricci)
    return riemann, ricci, scalar


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def area_density(jet: MetricJet2, axis: int):
    """sqrt(det) of the induced 2-metric on a face with the given normal axis."""
    a, b = (x for x in range(3) if x != axis)
    g = jet.g
    return np.sqrt(g[..., a, a] * g[..., b, b] - g[..., a, b] ** 2)


def face_normal(jet: MetricJet2, face: FaceId):
    """Outward unit normal (contravariant components) of a cube face."""
    row = jet.ginv[..., face.axis, :]
    return face.sign * row / np.sqrt(row[..., face.axis])[..., None]


def face_frame(jet: MetricJet2, face: FaceId, points) -> FaceFrame:
    """Normal, exact mean curvature and area density at face points.

    The mean curvature is the divergence of the unit-normal extension of
    the face's level-set normal, computable exactly from the 2-jet; the
    flat round sphere has H = +2/rho under this convention, so cube
    faces in a positive-mass metric come out slightly negative.
    """
    ginv, dg = jet.ginv, jet.dg
    i, s = face.axis, face.sign
    dginv = inverse_metric_derivative(ginv, dg)
    w = np.sqrt(ginv[..., i, i])
    nu = face_normal(jet, face)
    dw = dginv[..., :, i, i] / (2.0 * w[..., None])
    div_flat = s * (np.einsum("...aa->...", dginv[..., :, i, :]) / w
                    - np.einsum("...a,...a->...", ginv[..., i, :], dw) / (w * w))
    dlog_sqrtg = 0.5 * np.einsum("...ab,...mab->...m", ginv, dg)
    H = div_flat + np.einsum("...a,...a->...", nu, dlog_sqrtg)
    return FaceFrame(point=np.asarray(points, dtype=float), nu=nu, H=H,
                     area_density=area_density(jet, i))


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

def edge_frame(jet: MetricJet2, edge: EdgeId, points) -> EdgeFrame:
    n_a = face_normal(jet, FaceId(edge.axis_a, edge.sign_a))
    n_b = face_normal(jet, FaceId(edge.axis_b, edge.sign_b))
    theta = stable_angle(jet.g, n_a, n_b)
    k = edge.direction
    return EdgeFrame(point=np.asarray(points, dtype=float), theta=theta,
                     alpha=math.pi - theta,
                     length_density=np.sqrt(jet.g[..., k, k]))


# ---------------------------------------------------------------------------
# slice curves
# ---------------------------------------------------------------------------

def covariant_acceleration(Gamma, T, dT):
    """(nabla_T T)^m for a vector field T with coordinate Jacobian dT[..., a, m]."""
    lin = np.einsum("...a,...am->...m", T, dT)
    quad = np.einsum("...mab,...a,...b->...m", Gamma, T, T)
    return lin + quad


def curve_frame(jet: MetricJet2, axis: int, face: FaceId, points,
                level: float = 0.0) -> CurveFrame:
    """Frame of the slice curve {x^axis = level} ∩ face at curve points.

    The tangent runs along the remaining coordinate direction; nu_bar is
    the outward unit normal within the slice plane, and kappa is the
    geodesic curvature of the curve in that plane, positive for convex
    curves (a flat circle of radius rho has kappa = 1/rho).
    """
    if axis == face.axis:
        raise ValueError("slice axis must differ from the face axis")
    i = face.axis
    j = 3 - axis - i
    g = jet.g
    ginv, Gamma = inverse_and_christoffel(jet)
    batch = g.shape[:-2]
    gjj = g[..., j, j]

    T = np.zeros(batch + (3,))
    T[..., j] = 1.0 / np.sqrt(gjj)
    dT = np.zeros(batch + (3, 3))
    dT[..., :, j] = -jet.dg[..., :, j, j] / (2.0 * gjj[..., None] ** 1.5)
    acc = covariant_acceleration(Gamma, T, dT)

    v = np.zeros(batch + (3,))
    v[..., i] = 1.0
    v[..., j] = -(g[..., i, j] / gjj)
    nu_bar = face.sign * v / g_norm(g, v)[..., None]

    kappa = -np.einsum("...a,...ab,...b->...", acc, g, nu_bar)
    return CurveFrame(point=np.asarray(points, dtype=float), axis=axis,
                      level=level, T=T, nu_bar=nu_bar, kappa=kappa,
                      length_density=np.sqrt(gjj))


def _corner_tangent(g, axis, sign):
    batch = g.shape[:-2]
    t = np.zeros(batch + (3,))
    t[..., axis] = sign / np.sqrt(g[..., axis, axis])
    return t


def turning_angles(corner_jets: Sequence[MetricJet2], axis: int,
                   level: float) -> TurningAngleSet:
    """Exterior angles of the slice square at its four corners.

    ``corner_jets`` follow the counterclockwise traversal of the square
    in the (i, j) plane (i < j the in-plane axes): corners at
    (+L, +L), (-L, +L), (-L, -L), (+L, -L).
    """
    i, j = (a for a in range(3) if a != axis)
    # (incoming direction/sign, outgoing direction/sign) per corner
    legs = (((j, 1), (i, -1)), ((i, -1), (j, -1)),
            ((j, -1), (i, 1)), ((i, 1), (j, 1)))
    if len(corner_jets) != 4:
        raise ValueError("turning_angles needs jets at the four corners")
    betas = []
    for jet, ((d_in, s_in), (d_out, s_out)) in zip(corner_jets, legs):
        jet.ginv  # raises NotPositiveDefinite, like every other frame
        t_in = _corner_tangent(jet.g, d_in, s_in)
        t_out = _corner_tangent(jet.g, d_out, s_out)
        betas.append(stable_angle(jet.g, t_in, t_out))
    betas = np.stack(betas)
    return TurningAngleSet(axis=axis, level=level, betas=betas,
                           beta_total=betas[0] + betas[1] + betas[2] + betas[3])


# ---------------------------------------------------------------------------
# coordinate gradients and level sets
# ---------------------------------------------------------------------------

def coordinate_gradient_jet(jet: MetricJet2, axis: int):
    """|grad x^axis|, its coordinate gradient, and the Laplacian of x^axis.

    All exact: |grad x^k| = sqrt(g^kk), its derivatives come from the
    derivative of the inverse metric, and Delta x^k = -g^ij Gamma^k_ij.
    """
    ginv, Gamma = inverse_and_christoffel(jet)
    dginv = inverse_metric_derivative(ginv, jet.dg)
    norm = np.sqrt(ginv[..., axis, axis])
    dnorm = dginv[..., :, axis, axis] / (2.0 * norm[..., None])
    laplacian = -np.einsum("...ab,...ab->...", ginv, Gamma[..., axis, :, :])
    return norm, dnorm, laplacian


def level_set_gauss_curvature(jet: MetricJet2, u: ScalarJet2,
                              tolerance: float = 1e-8):
    """Intrinsic Gauss curvature of the level set of u through each point.

    Uses the traced Gauss equation
    2 K = R - 2 Ric(n, n) + H_Sigma^2 - |A|^2 with n = grad(u)/|grad(u)|.
    """
    ginv, Gamma = inverse_and_christoffel(jet)
    _, ricci, scalar = curvature(jet)
    du = u.gradient
    grad_sq = np.einsum("...a,...ab,...b->...", du, ginv, du)
    w = np.sqrt(grad_sq)
    if np.any(w <= tolerance):
        raise DegenerateGradient("level-set normal is degenerate (|grad u| ~ 0)")
    n_up = np.einsum("...ab,...b->...a", ginv, du) / w[..., None]
    n_dn = du / w[..., None]
    hess = u.hessian - np.einsum("...mab,...m->...ab", Gamma, du)
    A = hess / w[..., None, None]
    proj = np.eye(3) - n_up[..., :, None] * n_dn[..., None, :]
    At = np.einsum("...ia,...jb,...ij->...ab", proj, proj, A)
    H_sigma = np.einsum("...ab,...ab->...", ginv, At)
    A_sq = np.einsum("...ia,...jb,...ij,...ab->...", ginv, ginv, At, At)
    ric_nn = np.einsum("...ab,...a,...b->...", ricci, n_up, n_up)
    return 0.5 * (scalar - 2.0 * ric_nn + H_sigma ** 2 - A_sq)


def laplace_beltrami(jet: MetricJet2, u: ScalarJet2):
    """Delta_g u = g^ij (u_ij - Gamma^m_ij u_m) from exact jets."""
    ginv, Gamma = inverse_and_christoffel(jet)
    hess = u.hessian - np.einsum("...mab,...m->...ab", Gamma, u.gradient)
    return np.einsum("...ab,...ab->...", ginv, hess)

"""Reduced-scale property suite behind the ``check`` subcommand.

Each check is small enough to run in seconds and covers one module
invariant; together they exercise the parser/jet algebra, the metric
models, the geometry kernel, quadrature, the estimators and the
harmonic-identity checker.  A deliberate-fault hook flips the sign of
the geodesic curvature so callers can verify the suite actually fails
when the kernel is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import converge, expr, geom, mass, metric, quad, stern
from .quad import QuadratureSpec

_SMALL = QuadratureSpec(12)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# flat-only checks
# ---------------------------------------------------------------------------

def check_quadrature_exactness():
    nodes, weights = quad.gauss_nodes(3, -1.0, 1.0)
    quartic = float(np.sum(weights * nodes ** 4))
    nodes16, w16 = quad.gauss_nodes(16, 0.0, 1.0)
    expint = float(np.sum(w16 * np.exp(nodes16)))
    err = max(abs(quartic - 0.4), abs(expint - (math.e - 1.0)),
              abs(float(np.sum(weights)) - 2.0))
    return _result("quadrature-polynomial-exactness", err < 1e-13, f"max err {err:.2e}")


def check_expr_jets_vs_finite_differences():
    node = expr.parse("exp(-r)*sin(x) + (1 + 0.5/r)^4")
    p = np.array([1.3, -0.7, 0.9])
    h = 1e-5

    def f(q):
        return float(expr.eval_jet2(node, q).value)

    jet = expr.eval_jet2(node, p)
    worst = 0.0
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (f(p + e) - f(p - e)) / (2 * h)
        worst = max(worst, abs(fd - jet.gradient[a]))
    return _result("expr-jet-vs-finite-difference", worst < 1e-6, f"max err {worst:.2e}")


def check_parse_round_trip():
    sources = ["x + 2*y", "-x^2", "(1 + 0.5/r)^4", "sin(x*y)/(1 + z^2)", "2^-2 + r"]
    p = np.array([0.9, 1.7, -0.4])
    for src in sources:
        a = expr.eval_jet2(expr.parse(src), p)
        b = expr.eval_jet2(expr.parse(expr.to_source(expr.parse(src))), p)
        if float(a.value) != float(b.value):
            return _result("expr-parse-roundtrip", False, src)
    return _result("expr-parse-roundtrip", True, f"{len(sources)} sources")


def check_flat_zero_estimators():
    flat = metric.flat_model()
    worst = 0.0
    for method in mass.METHODS:
        est = mass.estimate(flat, method, 10.0, _SMALL, axis=0)
        worst = max(worst, abs(est.value))
    return _result("flat-zero-estimators", worst < 1e-12, f"max |value| {worst:.2e}")


def check_flat_slice_defect():
    flat = metric.flat_model()
    worst = max(abs(mass.slice_defect(flat, k, t, 10.0, _SMALL))
                for k in range(3) for t in (-7.0, 0.5, 6.0))
    return _result("flat-slice-defect-zero", worst < 1e-12, f"max defect {worst:.2e}")


def check_kappa_sign_convention(inject_fault=None):
    # circle of radius rho in the flat plane: convex, so kappa must be +1/rho
    flat = metric.flat_model()
    rho = 3.0
    p = np.array([rho, 0.0, 0.0])
    jet = metric.metric_jet(flat, p)
    _, Gamma = geom.inverse_and_christoffel(jet)
    T = np.array([0.0, 1.0, 0.0])
    dT = np.array([[0.0, 0.0, 0.0], [-1.0 / rho, 0.0, 0.0], [0.0, 0.0, 0.0]])
    acc = geom.covariant_acceleration(Gamma, T, dT)
    kappa = -float(np.einsum("a,ab,b->", acc, jet.g, np.array([1.0, 0.0, 0.0])))
    if inject_fault == "kappa-sign":
        kappa = -kappa
    ok = abs(kappa - 1.0 / rho) < 1e-12
    return _result("kappa-circle-sign", ok, f"kappa={kappa:.6f} expect {1/rho:.6f}")


FLAT_CHECKS = (check_quadrature_exactness, check_expr_jets_vs_finite_differences,
               check_parse_round_trip, check_flat_zero_estimators,
               check_flat_slice_defect, check_kappa_sign_convention)


# ---------------------------------------------------------------------------
# full-suite checks
# ---------------------------------------------------------------------------

def check_schwarzschild_christoffel():
    model = metric.schwarzschild_model(1.0)
    p = np.array([5.0, 1.0, -2.0])
    jet = metric.metric_jet(model, p)
    _, Gamma = geom.inverse_and_christoffel(jet)
    r = np.linalg.norm(p)
    U = 1.0 + 0.5 / r
    dlnU = (-0.5 * p / r ** 3) / U
    worst = 0.0
    for k in range(3):
        for i in range(3):
            for j in range(3):
                ref = 2.0 * ((k == i) * dlnU[j] + (k == j) * dlnU[i]
                             - (i == j) * dlnU[k])
                worst = max(worst, abs(Gamma[k, i, j] - ref))
    return _result("schwarzschild-christoffel-closed-form", worst < 1e-10,
                   f"max err {worst:.2e}")


def check_conformal_scalar_curvature():
    model = metric.conformal_model("1 + 0.2*exp(-r)", tau=1.0, inner_radius=0.5)
    p = np.array([1.0, 0.7, -0.4])
    _, _, R = metric.metric_jet(model, p).curvature
    r = np.linalg.norm(p)
    U = 1.0 + 0.2 * math.exp(-r)
    lap = 0.2 * math.exp(-r) * (1.0 - 2.0 / r)
    ref = -8.0 * U ** -5 * lap
    ok = abs(R - ref) < 1e-8 * max(1.0, abs(ref))
    return _result("conformal-scalar-curvature-oracle", ok, f"R={R:.6e} ref={ref:.6e}")


def check_pullback_riemann_vanishes():
    model = metric.pullback_model(tau=0.75)
    pts = np.array([[3.0, 1.0, -2.0], [10.0, 5.0, 2.0], [25.0, -3.0, 7.0]])
    riem, _, _ = metric.metric_jet(model, pts).curvature
    worst = float(np.max(np.abs(riem)))
    return _result("pullback-riemann-vanishing", worst < 1e-9, f"max {worst:.2e}")


def check_conformal_angle_invariance():
    model = metric.schwarzschild_model(1.0)
    L = 10.0
    worst = 0.0
    for edge in geom.EDGES[:4]:
        pts, _ = quad.edge_points(edge, L, _SMALL)
        jets = metric.metric_jet(model, pts)
        frame = geom.edge_frame(jets, edge, pts)
        worst = max(worst, float(np.max(np.abs(frame.theta - 0.5 * math.pi))))
    pts = np.array([[L, L, 0.0], [-L, L, 0.0], [-L, -L, 0.0], [L, -L, 0.0]])
    jets = metric.metric_jet(model, pts)
    angles = geom.turning_angles([jets[c] for c in range(4)], 2, 0.0)
    worst = max(worst, float(np.max(np.abs(angles.betas - 0.5 * math.pi))))
    return _result("conformal-angle-invariance", worst < 1e-10, f"max dev {worst:.2e}")


def check_schwarzschild_gradient_forms():
    model = metric.schwarzschild_model(1.0)
    p = np.array([6.0, -2.0, 1.5])
    jet = metric.metric_jet(model, p)
    r = np.linalg.norm(p)
    U = 1.0 + 0.5 / r
    dU = -0.5 * p / r ** 3
    worst = 0.0
    for k in range(3):
        norm, _, lap = geom.coordinate_gradient_jet(jet, k)
        worst = max(worst, abs(float(norm) - U ** -2),
                    abs(float(lap) - 2.0 * U ** -5 * dU[k]))
    return _result("schwarzschild-coordinate-gradient-closed-forms", worst < 1e-10,
                   f"max err {worst:.2e}")


def check_metric_jet_fd_consistency():
    model = metric.pullback_model(tau=0.75)
    p = np.array([7.0, 3.0, -4.0])
    h = 1e-4 * float(np.linalg.norm(p))
    jet = metric.metric_jet(model, p)
    worst = 0.0
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (metric.metric_jet(model, p + e).g - metric.metric_jet(model, p - e).g) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - jet.dg[k]))))
    return _result("metric-jet-fd-consistency", worst < 1e-6, f"max err {worst:.2e}")


def check_stern_monopole():
    survey = stern.stern_survey(metric.flat_model(), stern.flat_monopole(),
                                sample_count=100, seed=1, fd_step_factor=1e-5)
    return _result("stern-flat-monopole-residual", survey.max_residual < 1e-8,
                   f"max residual {survey.max_residual:.2e}")


def check_mass_breakdown_identities():
    model = metric.schwarzschild_model(1.0)
    L = 10.0
    est = mass.gromov_cube_mass(model, L, _SMALL)
    combo = (-est.breakdown["face_term"] + est.breakdown["edge_term"]) / (8 * math.pi)
    ok = est.value == combo
    ok = ok and est.breakdown["edge_term_alpha"] == est.breakdown["edge_term"]
    ordered, unordered = mass.edge_deficit_sums(metric.pullback_model(tau=1.0), L, _SMALL)
    ok = ok and abs(ordered - 2.0 * unordered) <= 1e-12 * max(1.0, abs(ordered))
    return _result("mass-breakdown-identities", ok,
                   f"ordered-2*unordered={ordered - 2 * unordered:.2e}")


def check_fit_rate_recovery():
    Ls = [10.0, 20.0, 40.0, 80.0]
    p, C, r2 = converge.fit_rate([(L, 3.0 / L) for L in Ls])
    ok = abs(p - 1.0) < 1e-10 and abs(C - 3.0) < 1e-9 and abs(r2 - 1.0) < 1e-12
    return _result("fit-rate-recovery", ok, f"p={p:.12f} C={C:.6f}")


FULL_CHECKS = FLAT_CHECKS + (
    check_schwarzschild_christoffel, check_conformal_scalar_curvature,
    check_pullback_riemann_vanishes, check_conformal_angle_invariance,
    check_schwarzschild_gradient_forms, check_metric_jet_fd_consistency,
    check_stern_monopole, check_mass_breakdown_identities, check_fit_rate_recovery)


def run_checks(flat_only: bool = False, inject_fault: str | None = None):
    """Run the suite; returns a list of CheckResult."""
    results = []
    for fn in (FLAT_CHECKS if flat_only else FULL_CHECKS):
        if fn is check_kappa_sign_convention:
            results.append(fn(inject_fault=inject_fault))
        else:
            results.append(fn())
    return results

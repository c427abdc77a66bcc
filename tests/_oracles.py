"""Independent numerical oracles shared by the test modules.

Everything here differentiates or integrates by brute force (central
differences, Richardson extrapolation, fine tensor grids) so it stays
independent of the jet/quadrature code paths it is used to check.
"""

import numpy as np


def fd_gradient(f, p, h):
    """Central-difference gradient of scalar f at p (shape (3,))."""
    p = np.asarray(p, dtype=float)
    out = np.zeros(3)
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        out[a] = (f(p + e) - f(p - e)) / (2.0 * h)
    return out


def fd_hessian(f, p, h):
    """Central-difference Hessian of scalar f at p (19-point stencil)."""
    p = np.asarray(p, dtype=float)
    out = np.zeros((3, 3))
    f0 = f(p)
    for a in range(3):
        ea = np.zeros(3)
        ea[a] = h
        out[a, a] = (f(p + ea) - 2.0 * f0 + f(p - ea)) / (h * h)
        for b in range(a + 1, 3):
            eb = np.zeros(3)
            eb[b] = h
            mixed = (f(p + ea + eb) - f(p + ea - eb)
                     - f(p - ea + eb) + f(p - ea - eb)) / (4.0 * h * h)
            out[a, b] = mixed
            out[b, a] = mixed
    return out


def richardson_gradient(f, p, h):
    """Gradient by Richardson extrapolation of central differences."""
    g1 = fd_gradient(f, p, h)
    g2 = fd_gradient(f, p, h / 2.0)
    return (4.0 * g2 - g1) / 3.0


def richardson_hessian(f, p, h):
    h1 = fd_hessian(f, p, h)
    h2 = fd_hessian(f, p, h / 2.0)
    return (4.0 * h2 - h1) / 3.0


class Polynomial3:
    """Dense trivariate polynomial with symbolic differentiation.

    Monomials are stored as {(i, j, k): coeff}; differentiation just
    manipulates exponents, which is an independent oracle for the jet
    arithmetic on polynomial expressions.
    """

    def __init__(self, coeffs):
        self.coeffs = dict(coeffs)

    def eval(self, p):
        x, y, z = p
        return sum(c * x ** i * y ** j * z ** k
                   for (i, j, k), c in self.coeffs.items())

    def diff(self, axis):
        out = {}
        for (i, j, k), c in self.coeffs.items():
            e = [i, j, k]
            if e[axis] == 0:
                continue
            c2 = c * e[axis]
            e[axis] -= 1
            key = tuple(e)
            out[key] = out.get(key, 0.0) + c2
        return Polynomial3(out)

    def to_source(self):
        parts = []
        for (i, j, k), c in sorted(self.coeffs.items()):
            factors = [repr(float(c))]
            for name, e in zip(("x", "y", "z"), (i, j, k)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"


def random_polynomial(rng, max_degree=4, max_terms=6):
    coeffs = {}
    n_terms = rng.integers(1, max_terms + 1)
    for _ in range(n_terms):
        while True:
            e = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=3))
            if sum(e) <= max_degree:
                break
        coeffs[e] = coeffs.get(e, 0.0) + float(rng.uniform(-3.0, 3.0))
    return Polynomial3(coeffs)


def strided_scatter_jet(jets):
    """g (..., 3, 3) and dg (..., 3, 3, 3) from the scalar jets of g11 ... g33
    (values (...), gradients (3, ...)), written component by component into
    zeroed batch-first arrays: the direct scatter, an oracle for the
    component-major assembly."""
    index = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    batch = np.shape(jets[0].value)
    g = np.zeros(batch + (3, 3))
    dg = np.zeros(batch + (3, 3, 3))
    dg_last = np.moveaxis(dg, (-3, -2, -1), (0, 1, 2))
    for (i, j), jet in zip(index, jets):
        g[..., i, j] = jet.value
        g[..., j, i] = jet.value
        dg_last[:, i, j] = jet.d1
        dg_last[:, j, i] = jet.d1
    return g, dg

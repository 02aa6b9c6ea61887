"""Independent curvature oracle on explicit coordinate charts.

Realizes a warped-product metric as a diagonal metric g = sum_i G_i(x) dx_i^2
in an explicit chart, differentiates the coefficient functions with 5-point
fourth-order stencils, assembles Christoffel symbols and their derivatives
from those, and produces Ricci, sectional and Hessian data in the adapted
orthonormal frame.  No exact-jet machinery is shared with the primary route:
only plain evaluation of profile values is reused, with ``jets.power`` and
``jets.fmap`` for float powers and ``math`` functions on arrays.  A chart
function takes the chart coordinates ``x`` with coordinate i in ``x[i]``:
either one point (a vector) or a stack of points (row i holds coordinate i
of each point), so a stencil is evaluated with one array call of each
profile.  An entry of a stack's result is bitwise the value at that point
alone.

Curvature sign convention: on the round unit sphere the sectional output is
+1 and the orthonormal Ricci is +(n-1) on the diagonal.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedError
from .geometry import (
    EinsteinFiber,
    NestedFiber,
    PointSpec,
    SpaceForm,
    WarpedMetric,
)
from .jets import fmap, power

DEFAULT_STEP = 1e-2

# staggered generic values for angle coordinates the metric may depend on
_ANGLE_DEFAULTS = (0.9, 1.3, 0.7)


def _space_form_psi(c: float):
    if c > 0.0:
        rc = math.sqrt(c)
        return lambda s: fmap(math.sin, rc * s) / rc
    if c < 0.0:
        rc = math.sqrt(-c)
        return lambda s: fmap(math.sinh, rc * s) / rc
    return lambda s: s


def _realize_fiber(fiber):
    """Chart data for a fiber: (names, coefficient functions, has probe axis).

    Coefficient functions take the fiber coordinates (a vector or a stack)
    and return the diagonal metric entries of the fiber metric itself.
    """
    if isinstance(fiber, EinsteinFiber):
        if fiber.dim not in (2, 3):
            raise UnsupportedError(
                "Einstein fibers are realizable as charts only in dimension 2 or 3")
        fiber = SpaceForm(fiber.dim, fiber.beta / (fiber.dim - 1))
    if isinstance(fiber, SpaceForm):
        d, c = fiber.dim, fiber.curvature
        if d == 1:
            return ("w0",), (lambda sv: 1.0,), False
        psi = _space_form_psi(c)
        if d == 2:
            return (("s", "w0"), (lambda sv: 1.0,
                                  lambda sv: power(psi(sv[0]), 2)), True)
        if d == 3:
            return (("s", "w0", "w1"),
                    (lambda sv: 1.0,
                     lambda sv: power(psi(sv[0]), 2),
                     lambda sv: power(psi(sv[0]) * fmap(math.sin, sv[1]), 2)), True)
        raise UnsupportedError(f"no chart realization for a {d}-dimensional space form")
    if isinstance(fiber, NestedFiber):
        inner_names, inner_fns, _ = _realize_fiber(fiber.metric.fiber)
        psi_prof = fiber.metric.phi

        def lift(fn):
            return lambda sv: power(psi_prof.value(sv[0]), 2) * fn(sv[1:])

        return (("s",) + tuple("n" + nm for nm in inner_names),
                (lambda sv: 1.0,) + tuple(lift(fn) for fn in inner_fns), True)
    raise UnsupportedError(f"no chart realization for fiber {fiber!r}")


class CoordinateChart:
    """Diagonal coordinate realization of a warped-product metric.

    coeffs[i](x) is the metric coefficient of dx_i^2; coeffs[0] is the
    constant 1 of the base coordinate.  axis_groups maps the block names of
    the adapted frame to chart axis tuples.
    """

    def __init__(self, metric: WarpedMetric):
        self.metric = metric
        fib_names, fib_fns, has_probe = _realize_fiber(metric.fiber)
        phi = metric.phi

        def warp(fn):
            return lambda x: power(phi.value(x[0]), 2) * fn(x[1:])

        self.names = ("t",) + fib_names
        self.coeffs = (lambda x: 1.0,) + tuple(warp(fn) for fn in fib_fns)
        self.n = len(self.names)
        self.has_probe = has_probe
        d = metric.fiber.dim
        if has_probe:
            self.axis_groups = {"t": (0,), "s": (1,),
                                "orth": tuple(range(2, self.n))}
        else:
            self.axis_groups = {"t": (0,), "fiber": tuple(range(1, 1 + d))}

    def metric_diag(self, x: np.ndarray) -> np.ndarray:
        g = np.array([fn(x) for fn in self.coeffs])
        if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
            raise DomainError(f"chart degenerates at x = {x.tolist()}")
        return g

    def embed(self, point: PointSpec) -> np.ndarray:
        x = np.zeros(self.n)
        x[0] = point.t
        k = 1
        if self.has_probe:
            if point.s is None:
                raise DomainError("chart has a probe axis but the point has no s")
            x[1] = point.s
            k = 2
        for i in range(k, self.n):
            x[i] = _ANGLE_DEFAULTS[(i - k) % len(_ANGLE_DEFAULTS)]
        return x


# ---------------------------------------------------------------------------
# stencils

_D1_STEPS = (-2, -1, 1, 2)


def _values(fn, x, shifts, h):
    """fn at the points x + k * h e_a, for each tuple of (a, k) pairs in
    shifts, as floats from one call of fn on the stack of the points."""
    pts = np.repeat(np.asarray(x, dtype=float)[:, None], len(shifts), axis=1)
    for j, shift in enumerate(shifts):
        for a, k in shift:
            pts[a, j] += k * h
    return np.broadcast_to(fn(pts), len(shifts)).tolist()


def _d1_sum(f, h):
    fm2, fm1, fp1, fp2 = f
    return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)


def _d1(fn, x, a, h):
    return _d1_sum(_values(fn, x, [((a, k),) for k in _D1_STEPS], h), h)


def _d2(fn, x, a, h):
    fp2, fp1, f0, fm1, fm2 = _values(
        fn, x, [((a, 2),), ((a, 1),), (), ((a, -1),), ((a, -2),)], h)
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)


def _d1d1(fn, x, a, b, h):
    """d_b d_a fn: the _d1 along b of the _d1 along a, a != b."""
    f = _values(fn, x, [((b, kb), (a, ka)) for kb in _D1_STEPS for ka in _D1_STEPS], h)
    return _d1_sum([_d1_sum(f[i:i + 4], h) for i in range(0, 16, 4)], h)


def _derivative_tables(chart: CoordinateChart, x: np.ndarray, h: float):
    """G_i, dG[i][a], ddG[i][a][b] for every diagonal coefficient."""
    n = chart.n
    g = chart.metric_diag(x)
    dg = np.zeros((n, n))
    ddg = np.zeros((n, n, n))
    for i, fn in enumerate(chart.coeffs):
        if i == 0:
            continue
        for a in range(n):
            dg[i, a] = _d1(fn, x, a, h)
            ddg[i, a, a] = _d2(fn, x, a, h)
        for a in range(n):
            for b in range(a + 1, n):
                m = _d1d1(fn, x, a, b, h)
                ddg[i, a, b] = m
                ddg[i, b, a] = m
    return g, dg, ddg


def _christoffel(g, dg):
    n = len(g)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                num = 0.0
                if k == j:
                    num += dg[j, i]
                if k == i:
                    num += dg[i, j]
                if i == j:
                    num -= dg[i, k]
                gamma[k, i, j] = num / (2.0 * g[k])
    return gamma


def _christoffel_deriv(g, dg, ddg, gamma):
    n = len(g)
    dgamma = np.zeros((n, n, n, n))  # [l, k, i, j] = d_l Gamma^k_ij
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    num = 0.0
                    if k == j:
                        num += ddg[j, i, l]
                    if k == i:
                        num += ddg[i, j, l]
                    if i == j:
                        num -= ddg[i, k, l]
                    dgamma[l, k, i, j] = (num / (2.0 * g[k])
                                          - gamma[k, i, j] * dg[k, l] / g[k])
    return dgamma


def riemann_fd(chart: CoordinateChart, x: np.ndarray,
               h: float = DEFAULT_STEP) -> np.ndarray:
    """Fully covariant curvature R[a,b,c,d] in the orthonormal frame.

    Normalized so that R[a,b,b,a] is the sectional curvature of the
    coordinate plane (a, b).
    """
    g, dg, ddg = _derivative_tables(chart, x, h)
    gamma = _christoffel(g, dg)
    dgamma = _christoffel_deriv(g, dg, ddg, gamma)
    n = chart.n
    up = np.zeros((n, n, n, n))  # R^a_{bcd}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = dgamma[c, a, d, b] - dgamma[d, a, c, b]
                    for e in range(n):
                        val += (gamma[a, c, e] * gamma[e, d, b]
                                - gamma[a, d, e] * gamma[e, c, b])
                    up[a, b, c, d] = val
    low = np.einsum("a,abcd->abcd", g, up)
    root = np.sqrt(g)
    norm = np.einsum("a,b,c,d->abcd", 1.0 / root, 1.0 / root, 1.0 / root, 1.0 / root)
    low = low * norm
    # reorder so that [a, b, b, a] is the sectional curvature
    return np.transpose(low, (0, 1, 3, 2))


def ricci_fd(chart: CoordinateChart, x: np.ndarray,
             h: float = DEFAULT_STEP) -> np.ndarray:
    """Orthonormal-frame Ricci tensor from the finite-difference chart."""
    r = riemann_fd(chart, x, h)
    # Ric(b, d) = sum_a R(a, b, b', a) trace: with our ordering, contract
    # first and last slots of the sectional-ordered tensor
    n = chart.n
    ric = np.zeros((n, n))
    for b in range(n):
        for d in range(n):
            ric[b, d] = sum(r[a, b, d, a] for a in range(n))
    return ric


def sectional_fd(chart: CoordinateChart, x: np.ndarray,
                 h: float = DEFAULT_STEP) -> np.ndarray:
    """Matrix of coordinate-plane sectional curvatures K[a, b]."""
    r = riemann_fd(chart, x, h)
    n = chart.n
    k = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b:
                k[a, b] = r[a, b, b, a]
    return k


def hessian_fd(chart: CoordinateChart, func, x: np.ndarray,
               h: float = DEFAULT_STEP):
    """(orthonormal Hessian, laplacian, |grad|^2, gradient) of a scalar.

    func takes the chart coordinate vector and returns a float; it is
    called once per stencil point.
    """
    n = chart.n
    func = _per_point(func)
    g, dg, _ = _derivative_tables(chart, x, h)
    gamma = _christoffel(g, dg)
    df = np.array([_d1(func, x, a, h) for a in range(n)])
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dd = _d2(func, x, i, h) if i == j else _d1d1(func, x, i, j, h)
            hess[i, j] = dd - sum(gamma[k, i, j] * df[k] for k in range(n))
    root = np.sqrt(g)
    hess_on = hess / np.outer(root, root)
    lap = float(np.trace(hess_on))
    grad_sq = float(np.sum((df / root) ** 2))
    return hess_on, lap, grad_sq, df / root


def _per_point(func):
    """A chart function of a stack of points from one of a single point."""
    return lambda pts: [func(x) for x in pts.T]


def weyl_norm_fd(chart: CoordinateChart, x: np.ndarray, p_axes: np.ndarray,
                 h: float = DEFAULT_STEP) -> float:
    """Full-contraction norm of R - P (x w) g with diagonal P = diag(p_axes).

    (A (x w) B)(X,Y,Y,X) = A(X,X)B(Y,Y) + A(Y,Y)B(X,X) - 2A(X,Y)B(X,Y); any
    off-diagonal part of P in the adapted frame is not representable here.
    """
    r = riemann_fd(chart, x, h)
    n = chart.n
    delta = np.eye(n)
    kn = (np.einsum("ac,bd->abcd", np.diag(p_axes), delta)
          + np.einsum("bd,ac->abcd", np.diag(p_axes), delta)
          - np.einsum("ad,bc->abcd", np.diag(p_axes), delta)
          - np.einsum("bc,ad->abcd", np.diag(p_axes), delta))
    # match the sectional-ordered storage of riemann_fd
    kn = np.transpose(kn, (0, 1, 3, 2))
    w = r - kn
    return float(np.sqrt(np.sum(w * w)))


def density_chart_function(chart: CoordinateChart, density, m: float):
    """Chart function (of a point or a stack) for f = -m log v of a
    supported density."""
    from .weighted import RadialDensity, SplitDensity

    if isinstance(density, RadialDensity):
        v = density.v

        def f_radial(x):
            return -m * fmap(math.log, v.value(x[0]))

        return f_radial
    if isinstance(density, SplitDensity):
        if not chart.has_probe:
            raise UnsupportedError("split density needs a chart with a probe axis")
        phi, v_n, al = chart.metric.phi, density.v_n, density.alpha

        def f_split(x):
            return -m * fmap(math.log, phi.value(x[0]) * v_n.value(x[1]) + al.value(x[0]))

        return f_split
    raise UnsupportedError(f"no chart realization for density {density!r}")

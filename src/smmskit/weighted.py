"""Weighted curvature tensors of a smooth metric measure space.

An instance is (M, g, f, m, mu) with density v = exp(-f/m) > 0.  The
modified Ricci tensor, weighted scalar curvature, weighted Schouten tensor
and the scale extracted from the trace identity are all evaluated pointwise
from exact jets.  One kernel, ``point_fields``, computes every field at a
point once; every caller reads from it.  The point is one point with float
coordinates, or a whole grid whose coordinates are 1-D arrays
(``geometry.grid_point``): ``einstein_residuals`` and ``solve_mu`` evaluate
their grid in one such call, with results bitwise equal to a loop over the
points.  Two independent computation routes
exist for the modified Ricci tensor: the v-form of ``point_fields``
(rho - m Hes_v / v, using the displayed Hessian decompositions) and the
f-form of ``bakry_emery`` (rho + Hes_f - df (x) df / m, using generic
covariant assembly of f = -m log v), which is kept as the cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormError, PositivityError, UnsupportedError
from .geometry import (
    PointSpec,
    Tensor2Blocks,
    WarpedMetric,
    _nan_max,
    field_components,
    grid_point,
    hessian_radial,
    hessian_split,
    ricci_blocks_for,
    sectional_blocks,
    sectional_residual,
)
from .jets import BiJet2, UNARY, _any


@dataclass(frozen=True)
class SmmsParams:
    """Dimension n, weight parameter m > 0 and characteristic constant mu.

    For m = 1 the constant mu never enters any formula; it is stored but
    inert, and outputs are bitwise independent of it.
    """

    n: int
    m: float
    mu: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise FormError("need dimension n >= 2")
        if not self.m > 0.0:
            raise FormError("weight parameter m must be positive")


def _require_positive(v, point: PointSpec):
    """Raises PositivityError naming the first point where v <= 0."""
    bad = v <= 0.0
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        i = int(bad.argmax())
        v, point = float(v[i]), point.at(i)
    elif not bad:
        return
    raise PositivityError(f"density v = {v} is not positive at {point}")


# ---------------------------------------------------------------------------
# density specifications and instances

class DensitySpec:
    """Base class for the supported closed density forms."""

    kind = "?"

    def s_active(self, metric: WarpedMetric) -> bool:
        raise NotImplementedError

    def structure(self, metric: WarpedMetric) -> tuple:
        return metric.structure(s_active=self.s_active(metric))

    def v_bijet(self, metric: WarpedMetric, point: PointSpec) -> BiJet2:
        raise NotImplementedError

    def v_value(self, metric: WarpedMetric, point: PointSpec) -> float:
        return self.v_bijet(metric, point).value

    def f_bijet(self, metric: WarpedMetric, point: PointSpec, m: float) -> BiJet2:
        """Coordinate jets of f = -m log v (independent chain-rule route)."""
        v = self.v_bijet(metric, point)
        _require_positive(v.value, point)
        return -m * UNARY["log"](v)

    def hessian_v(self, metric: WarpedMetric, point: PointSpec) -> Tensor2Blocks:
        """Hessian of v from the displayed closed-form decomposition."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


class RadialDensity(DensitySpec):
    """v depends on the base coordinate t alone."""

    kind = "radial"

    def __init__(self, v):
        self.v = v

    def __repr__(self):
        return f"RadialDensity({self.v!r})"

    def s_active(self, metric) -> bool:
        return False

    def v_bijet(self, metric, point) -> BiJet2:
        return BiJet2.lift_t(self.v.jet(point.t))

    def v_value(self, metric, point) -> float:
        return self.v.value(point.t)

    def hessian_v(self, metric, point) -> Tensor2Blocks:
        return hessian_radial(metric, self.v, point,
                              structure=self.structure(metric))

    def to_config(self) -> dict:
        return {"kind": "radial", "v": self.v.to_string()}


class SplitDensity(DensitySpec):
    """v = phi(t) * v_N(s) + alpha(t) along a fiber probe coordinate."""

    kind = "split"

    def __init__(self, v_n, alpha):
        self.v_n = v_n
        self.alpha = alpha

    def __repr__(self):
        return f"SplitDensity(v_n={self.v_n!r}, alpha={self.alpha!r})"

    def s_active(self, metric) -> bool:
        return True

    def v_bijet(self, metric, point) -> BiJet2:
        if point.s is None:
            raise FormError("split density needs a fiber coordinate s")
        phi = BiJet2.lift_t(metric.phi.jet(point.t))
        vn = BiJet2.lift_s(self.v_n.jet(point.s))
        al = BiJet2.lift_t(self.alpha.jet(point.t))
        return phi * vn + al

    def hessian_v(self, metric, point) -> Tensor2Blocks:
        return hessian_split(metric, self.v_n, self.alpha, point)

    def to_config(self) -> dict:
        return {"kind": "split", "v_n": self.v_n.to_string(),
                "alpha": self.alpha.to_string()}


@dataclass
class Instance:
    """A concrete smooth metric measure space: metric, density, parameters.

    complete marks the instance as metrically complete (required for any
    global classification); compact additionally marks it closed.
    """

    metric: WarpedMetric
    density: DensitySpec
    params: SmmsParams
    complete: bool = False
    compact: bool = False


# ---------------------------------------------------------------------------
# pointwise weighted tensors

def _grad_tensor(structure: tuple, bij: BiJet2, phi_value: float) -> Tensor2Blocks:
    """Components of dF (x) dF against g-unit vectors."""
    if len(structure) == 1:
        return Tensor2Blocks(structure, bij.dt ** 2, (0.0,), 0.0)
    gs = bij.ds / phi_value
    blocks = (gs ** 2,) + tuple(0.0 for _ in structure[1:])
    return Tensor2Blocks(structure, bij.dt ** 2, blocks, bij.dt * gs)


@dataclass(frozen=True)
class PointFields:
    """The weighted fields at one point, from the v-form route.

    rho is the Ricci tensor, be the modified Ricci tensor rho_f^m, tau_f the
    weighted scalar curvature tau_f^m, j and p the weighted Schouten scalar
    J_f^m and tensor P_f^m, and v the density value.  At a grid point each
    number is an array over the grid.
    """

    rho: Tensor2Blocks
    be: Tensor2Blocks
    tau_f: float
    j: float
    p: Tensor2Blocks
    v: float


def point_fields(metric: WarpedMetric, density: DensitySpec, params: SmmsParams,
                 point: PointSpec) -> PointFields:
    """Every weighted field at a point (or a grid point), each computed once.

    rho_f^m = rho - m Hes_v / v, tau_f^m = tau + 2 L(f) - (m+1)/m |df|^2
    (+ m (m-1) mu / v^2 when m != 1), J = tau_f^m / (2 (n+m-1)) and
    P = (rho_f^m - J g) / (n+m-2).
    """
    n, m = params.n, params.m
    structure = density.structure(metric)
    rho = ricci_blocks_for(metric, point, structure)
    v = density.v_value(metric, point)
    _require_positive(v, point)
    be = rho.combine(density.hessian_v(metric, point), 1.0, -m / v)
    fc = field_components(metric, density.f_bijet(metric, point, m), point,
                          structure)
    tau_f = rho.trace() + 2.0 * fc.laplacian - ((m + 1.0) / m) * fc.grad_sq
    if m != 1.0:  # a branch, not a zero term: at m = 1 mu never enters
        tau_f += m * (m - 1.0) * params.mu / (v * v)
    j = tau_f / (2.0 * (n + m - 1.0))
    p = be.scale_shift(1.0 / (n + m - 2.0), -j / (n + m - 2.0))
    return PointFields(rho, be, tau_f, j, p, v)


def bakry_emery(metric: WarpedMetric, density: DensitySpec, params: SmmsParams,
                point: PointSpec) -> Tensor2Blocks:
    """Modified Ricci tensor rho_f^m = rho + Hes_f - df (x) df / m at a point.

    This f-form is the independent cross-check of point_fields(...).be; the
    two agree to rounding.
    """
    structure = density.structure(metric)
    rho = ricci_blocks_for(metric, point, structure)
    m = params.m
    fb = density.f_bijet(metric, point, m)
    fc = field_components(metric, fb, point, structure)
    grad2 = _grad_tensor(structure, fb, metric.phi.value(point.t))
    return rho.combine(fc.hess, 1.0, 1.0).combine(grad2, 1.0, -1.0 / m)


def weyl_norm(metric: WarpedMetric, density: DensitySpec, params: SmmsParams,
              point: PointSpec) -> float:
    """Norm of the weighted Weyl tensor R - P_f^m (x w) g at a point.

    Convention: (g (x w) g)(X, Y, Y, X) = 2 (|X|^2 |Y|^2 - <X,Y>^2), so a
    space form of sectional curvature 2 lam has R = lam g (x w) g.
    Requires the fiber curvature to be fully determined.
    """
    structure = density.structure(metric)
    p = point_fields(metric, density, params, point).p
    if abs(p.mixed) > 1e-9:
        raise UnsupportedError("Weyl norm needs a block-diagonal Schouten tensor")
    sec = sectional_blocks(metric, point, s_active=len(structure) > 1)
    if sec.weyl_norm is None:
        raise UnsupportedError("fiber curvature remainder unknown")
    p_by_block = (p.tt,) + p.blocks
    total = 0.0
    for (i, j), k in sec.pairs():
        di = sec.blocks[i][1]
        dj = sec.blocks[j][1]
        if i == j:
            npairs = di * (di - 1) // 2
            if npairs == 0:
                continue
            if k is None:
                raise UnsupportedError("sectional curvature not determined by fiber data")
            total += npairs * (k - 2.0 * p_by_block[i]) ** 2
        else:
            if k is None:
                raise UnsupportedError("sectional curvature not determined by fiber data")
            total += di * dj * (k - p_by_block[i] - p_by_block[j]) ** 2
    return math.sqrt(4.0 * total + sec.weyl_norm ** 2)


def solve_mu(metric: WarpedMetric, density: DensitySpec, params: SmmsParams,
             lam: float, points: list) -> tuple:
    """Solve the trace identity for mu assuming P_f^m = lam g.

    Returns (mean, spread) of the pointwise solution over the grid, from one
    kernel pass at mu = 0; a small spread certifies that a single mu makes
    the instance weighted Einstein.
    """
    n, m = params.n, params.m
    if m == 1.0:
        raise UnsupportedError("mu does not enter the m = 1 equations")
    base = SmmsParams(n, m, 0.0)
    with np.errstate(all="ignore"):  # as on floats: inf and NaN, no warning
        pf = point_fields(metric, density, base, grid_point(points))
        j_target = pf.be.tt - (n + m - 2.0) * lam
        vals = _column((2.0 * (n + m - 1.0) * j_target - pf.tau_f) * pf.v * pf.v
                       / (m * (m - 1.0)), len(points))
    return sum(vals) / len(vals), _spread(vals)


# ---------------------------------------------------------------------------
# grid reports

def _sup(values: list) -> float:
    """max(values), NaN when any value is NaN."""
    top = max(values)  # the first largest, as a chain of _nan_max would give
    return math.nan if np.isnan(values).any() else top


def _spread(values) -> float:
    """max(values) - min(values), NaN when any value is NaN."""
    return _sup(values) - min(values)


def _sup_defined(values) -> float | None:
    """_sup over the entries that are not None; None when there are none."""
    vals = [x for x in values if x is not None]
    return _sup(vals) if vals else None


@dataclass
class WeightedReport:
    """Per-point weighted tensor records plus sup-norm aggregates.

    Every aggregate propagates NaN: one NaN record makes it NaN, so it can
    never pass a gate.
    """

    params: SmmsParams
    lam: float
    points: list = field(default_factory=list)
    be_tt: list = field(default_factory=list)
    be_blocks: list = field(default_factory=list)
    be_mixed: list = field(default_factory=list)
    rho_dev: list = field(default_factory=list)      # sup dev of rho from 2(n-1) lam g
    qe_dev: list = field(default_factory=list)       # sup dev of rho_f^m from 2(n+m-1) lam g
    p_dev: list = field(default_factory=list)        # sup dev of P_f^m from lam g
    tau_f: list = field(default_factory=list)
    j_f: list = field(default_factory=list)
    kappa: list = field(default_factory=list)
    v: list = field(default_factory=list)
    sec_dev: list = field(default_factory=list)
    fiber_flat_dev: list = field(default_factory=list)
    fiber_be_dev: list = field(default_factory=list)

    @property
    def residual_P(self) -> float:
        return _sup(self.p_dev)

    @property
    def residual_QE(self) -> float:
        return _sup(self.qe_dev)

    @property
    def residual_Einstein(self) -> float:
        return _sup(self.rho_dev)

    @property
    def kappa_mean(self) -> float:
        return sum(self.kappa) / len(self.kappa)

    @property
    def kappa_spread(self) -> float:
        return _spread(self.kappa)

    @property
    def v_spread(self) -> float:
        return _spread(self.v)

    @property
    def sec_residual(self) -> float | None:
        return _sup_defined(self.sec_dev)

    @property
    def fiber_flat_residual(self) -> float | None:
        return _sup_defined(self.fiber_flat_dev)

    @property
    def fiber_be_residual(self) -> float | None:
        return _sup_defined(self.fiber_be_dev)


def _column(x, k: int) -> list:
    """The k per-point entries of a grid quantity as Python floats.

    x is None (undefined everywhere), an array, a float that holds at every
    point, or already a list.
    """
    if x is None:
        return [None] * k
    if isinstance(x, list):
        return x
    return np.broadcast_to(x, (k,)).tolist()


def _defined(ok, value):
    """value where ok holds and None elsewhere, point by point on a grid."""
    if not isinstance(ok, np.ndarray):
        return value if ok else None
    if ok.all():
        return value
    if not ok.any():
        return None
    return [x if keep else None
            for x, keep in zip(_column(value, ok.size), ok.tolist())]


def _fiber_diagnostics(metric: WarpedMetric, density: DensitySpec,
                       params: SmmsParams, point: PointSpec, structure: tuple):
    """(fiber Ricci-flatness deviation, fiber modified-Ricci deviation).

    The second is only defined where the density restricts to the fiber as
    v_N (split form with vanishing alpha, or radial v proportional to phi);
    None elsewhere.  On a grid point either may also be a list holding None
    at the points where it is undefined.
    """
    split = len(structure) > 1
    try:
        coeffs = metric.fiber.ricci_coeffs(point.s if split else None, split)
    except Exception:
        return None, None
    flat_dev = functools.reduce(_nan_max, (abs(c) for c in coeffs))
    m = params.m
    if isinstance(density, SplitDensity):
        al = density.alpha
        if not (al.is_constant() and not _any(al.value(point.t) != 0.0)):
            return flat_dev, None
        s = point.s
        vn = density.v_n.jet(s)
        h_orth = metric.fiber.orth_hess_factor(s) * vn.d1
        dev = _nan_max(abs(coeffs[0] - m * vn.d2 / vn.value),
                       abs(coeffs[1] - m * h_orth / vn.value))
        return flat_dev, _defined(vn.value > 0.0, dev)
    if isinstance(density, RadialDensity):
        # v proportional to phi means v_N is constant: fiber term is rho_N
        vj = density.v.jet(point.t)
        pj = metric.phi.jet(point.t)
        ratio = vj.value / pj.value
        d_ratio = (vj.d1 - ratio * pj.d1) / pj.value
        scale = abs(vj.value) + abs(vj.d1)
        level = np.where(scale > 1.0, scale, 1.0)  # max(1.0, scale)
        return flat_dev, _defined(abs(d_ratio) <= 1e-10 * level, flat_dev)
    return flat_dev, None


def einstein_residuals(metric: WarpedMetric, density: DensitySpec,
                       params: SmmsParams, lam: float, points: list,
                       with_diagnostics: bool = True) -> WeightedReport:
    """Evaluate the weighted Einstein residuals over a grid of points.

    residual_P is the sup of |P_f^m - lam g|, residual_QE the sup of
    |rho_f^m - 2(n+m-1) lam g| and residual_Einstein the sup of
    |rho - 2(n-1) lam g|, all componentwise against g-unit vectors.  The
    scale comes from the trace identity J = (m+n) lam - m kappa / v, so
    kappa = ((m+n) lam - J) v / m; its constancy certifies the instance.
    The kernel runs once on the whole grid; the report keeps one float (or
    None) per point.
    """
    n, m = params.n, params.m
    structure = density.structure(metric)
    k = len(points)
    grid = grid_point(points)
    sec_dev = flat_dev = be_dev = None
    with np.errstate(all="ignore"):  # as on floats: inf and NaN, no warning
        pf = point_fields(metric, density, params, grid)
        be = pf.be
        rep = WeightedReport(
            params, lam, points=list(points),
            be_tt=_column(be.tt, k),
            be_blocks=list(zip(*(_column(b, k) for b in be.blocks))),
            be_mixed=_column(be.mixed, k),
            rho_dev=_column(pf.rho.sup_dev(2.0 * (n - 1.0) * lam), k),
            qe_dev=_column(be.sup_dev(2.0 * (n + m - 1.0) * lam), k),
            p_dev=_column(pf.p.sup_dev(lam), k),
            tau_f=_column(pf.tau_f, k),
            j_f=_column(pf.j, k),
            kappa=_column(((m + n) * lam - pf.j) * pf.v / m, k),
            v=_column(pf.v, k),
        )
        if with_diagnostics:
            try:
                sec_dev = sectional_residual(metric, grid, 2.0 * lam,
                                             s_active=len(structure) > 1)
            except UnsupportedError:
                pass
            flat_dev, be_dev = _fiber_diagnostics(metric, density, params, grid,
                                                  structure)
    rep.sec_dev = _column(sec_dev, k)
    rep.fiber_flat_dev = _column(flat_dev, k)
    rep.fiber_be_dev = _column(be_dev, k)
    return rep


def sample_points(metric: WarpedMetric, density: DensitySpec, k: int,
                  margin: float = 0.05, cap: float | None = None) -> list:
    """Verification grid matching the block structure the density needs."""
    s_active = len(density.structure(metric)) > 1
    kwargs = {} if cap is None else {"cap": cap}
    return metric.grid(k, margin=margin, s_active=s_active, **kwargs)


def tau_consistency_residual(report: WeightedReport) -> float:
    """sup deviation of the weighted scalar curvature from its trace form.

    For a weighted Einstein instance the trace identity forces
    tau_f^m = 2 (n+m-1) ((m+n) lam - m kappa / v) with a single constant
    kappa; a wrong characteristic constant mu shows up here directly.
    """
    n, m = report.params.n, report.params.m
    kbar = report.kappa_mean
    out = 0.0
    for tau, v in zip(report.tau_f, report.v):
        pred = 2.0 * (n + m - 1.0) * ((m + n) * report.lam - m * kbar / v)
        out = _nan_max(out, abs(tau - pred))
    return out

"""Weighted curvature tensors of a smooth metric measure space.

An instance is (M, g, f, m, mu) with density v = exp(-f/m) > 0.  The
modified Ricci tensor, weighted scalar curvature, weighted Schouten tensor
and the scale extracted from the trace identity are all evaluated pointwise
from exact jets.  One kernel, ``point_fields``, computes every field at a
point once; every caller reads from it.  The point is one point with float
coordinates, or a whole grid whose coordinates are 1-D arrays, as
``sample_points`` returns it: ``einstein_residuals`` and ``solve_mu``
evaluate their grid in one such call, with results bitwise equal to a loop
over the points, and the report keeps one array per field.  Its sups and
means run over the arrays in grid order, so they equal the builtin max and
a left-to-right sum over the same floats bit for bit.  Two independent
computation routes exist for the modified Ricci tensor: the v-form of
``point_fields`` (rho - m Hes_v / v, using the displayed Hessian
decompositions) and the f-form of ``bakry_emery`` (rho + Hes_f - df (x)
df / m, using generic covariant assembly of f = -m log v), which is kept
as the cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormError, PositivityError, SmmsError, UnsupportedError
from .geometry import (
    PointSpec,
    Tensor2Blocks,
    WarpedMetric,
    _nan_max,
    field_components,
    hessian_radial,
    hessian_split,
    ricci_blocks_for,
    sectional_blocks,
    sectional_residual,
)
from .jets import BiJet2, UNARY, _any
from .profiles import DEFAULT_CAP


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
             lam: float, points: PointSpec) -> tuple:
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
        pf = point_fields(metric, density, base, points)
        j_target = pf.be.tt - (n + m - 2.0) * lam
        vals = _per_point((2.0 * (n + m - 1.0) * j_target - pf.tau_f) * pf.v * pf.v
                          / (m * (m - 1.0)), len(points))
    return _mean(vals), _spread(vals)


# ---------------------------------------------------------------------------
# grid reports

def _per_point(x, k: int) -> np.ndarray:
    """A grid quantity as a read-only view of k floats: x is an array over
    the grid or a float that holds at every point."""
    return np.broadcast_to(np.asarray(x, dtype=float), (k,))


def _sup(values: np.ndarray) -> float:
    """The first largest entry, as the builtin max gives it; NaN when any
    entry is NaN (argmax stops at the first NaN)."""
    return float(values[values.argmax()])


def _spread(values: np.ndarray) -> float:
    """max(values) - min(values), NaN when any value is NaN."""
    return _sup(values) - float(values[values.argmin()])


def _sup_defined(values: np.ndarray | None) -> float | None:
    """_sup of a diagnostic; None when it is undefined on the grid."""
    return None if values is None else _sup(values)


def _mean(values: np.ndarray) -> float:
    """The sum of the entries from 0.0 in grid order, over their count: the
    order of the builtin sum through Python 3.11 (which compensates from
    3.12 on), on every version.  accumulate adds in order; np.sum and
    np.mean add pairwise and move the last bits."""
    with np.errstate(all="ignore"):  # as on floats: inf and NaN, no warning
        total = np.add.accumulate(np.concatenate(([0.0], values)))[-1]
    return float(total) / len(values)


@dataclass
class WeightedReport:
    """Per-point weighted tensor records plus sup-norm aggregates.

    points is the grid; every other per-point field is a float array in
    grid order (be_blocks one column per fiber block), most of them
    read-only views of the kernel's arrays.  A diagnostic that is undefined
    on the grid is None.  Every aggregate propagates NaN: one NaN
    record makes it NaN, so it can never pass a gate.
    """

    params: SmmsParams
    lam: float
    points: PointSpec
    be_tt: np.ndarray
    be_blocks: np.ndarray
    be_mixed: np.ndarray
    rho_dev: np.ndarray      # sup dev of rho from 2(n-1) lam g
    qe_dev: np.ndarray       # sup dev of rho_f^m from 2(n+m-1) lam g
    p_dev: np.ndarray        # sup dev of P_f^m from lam g
    tau_f: np.ndarray
    j_f: np.ndarray
    kappa: np.ndarray
    v: np.ndarray
    sec_dev: np.ndarray | None = None
    fiber_flat_dev: np.ndarray | None = None
    fiber_be_dev: np.ndarray | None = None

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
        return _mean(self.kappa)

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


def _fiber_diagnostics(metric: WarpedMetric, density: DensitySpec,
                       params: SmmsParams, point: PointSpec, structure: tuple):
    """(fiber Ricci-flatness deviation, fiber modified-Ricci deviation).

    The second is only defined where the density restricts to the fiber as
    v_N (split form with vanishing alpha, or radial v proportional to phi);
    None elsewhere.  On a grid point it is defined when that holds at every
    point of the grid.  Both are None when the fiber's Ricci coefficients
    are undefined there (an ``SmmsError``); any other error propagates.
    """
    split = len(structure) > 1
    try:
        coeffs = metric.fiber.ricci_coeffs(point.s if split else None, split)
    except SmmsError:  # the fiber does not pin its Ricci down here
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
        return flat_dev, dev if np.all(vn.value > 0.0) else None
    if isinstance(density, RadialDensity):
        # v proportional to phi means v_N is constant: fiber term is rho_N
        vj = density.v.jet(point.t)
        pj = metric.phi.jet(point.t)
        ratio = vj.value / pj.value
        d_ratio = (vj.d1 - ratio * pj.d1) / pj.value
        scale = abs(vj.value) + abs(vj.d1)
        level = np.where(scale > 1.0, scale, 1.0)  # max(1.0, scale)
        return flat_dev, flat_dev if np.all(abs(d_ratio) <= 1e-10 * level) else None
    return flat_dev, None


def einstein_residuals(metric: WarpedMetric, density: DensitySpec,
                       params: SmmsParams, lam: float, points: PointSpec,
                       with_diagnostics: bool = True) -> WeightedReport:
    """Evaluate the weighted Einstein residuals over a grid of points.

    residual_P is the sup of |P_f^m - lam g|, residual_QE the sup of
    |rho_f^m - 2(n+m-1) lam g| and residual_Einstein the sup of
    |rho - 2(n-1) lam g|, all componentwise against g-unit vectors.  The
    scale comes from the trace identity J = (m+n) lam - m kappa / v, so
    kappa = ((m+n) lam - J) v / m; its constancy certifies the instance.
    The kernel runs once on the whole grid; the report keeps one array per
    field.
    """
    n, m = params.n, params.m
    structure = density.structure(metric)
    k = len(points)
    sec_dev = flat_dev = be_dev = None
    with np.errstate(all="ignore"):  # as on floats: inf and NaN, no warning
        pf = point_fields(metric, density, params, points)
        be = pf.be
        if with_diagnostics:
            try:
                sec_dev = sectional_residual(metric, points, 2.0 * lam,
                                             s_active=len(structure) > 1)
            except UnsupportedError:
                pass
            flat_dev, be_dev = _fiber_diagnostics(metric, density, params,
                                                  points, structure)
        return WeightedReport(
            params, lam, points,
            be_tt=_per_point(be.tt, k),
            be_blocks=np.stack([_per_point(b, k) for b in be.blocks], axis=1),
            be_mixed=_per_point(be.mixed, k),
            rho_dev=_per_point(pf.rho.sup_dev(2.0 * (n - 1.0) * lam), k),
            qe_dev=_per_point(be.sup_dev(2.0 * (n + m - 1.0) * lam), k),
            p_dev=_per_point(pf.p.sup_dev(lam), k),
            tau_f=_per_point(pf.tau_f, k),
            j_f=_per_point(pf.j, k),
            kappa=_per_point(((m + n) * lam - pf.j) * pf.v / m, k),
            v=_per_point(pf.v, k),
            sec_dev=None if sec_dev is None else _per_point(sec_dev, k),
            fiber_flat_dev=None if flat_dev is None else _per_point(flat_dev, k),
            fiber_be_dev=None if be_dev is None else _per_point(be_dev, k),
        )


def sample_points(metric: WarpedMetric, density: DensitySpec, k: int,
                  margin: float = 0.05, cap: float = DEFAULT_CAP) -> PointSpec:
    """Verification grid matching the block structure the density needs."""
    s_active = len(density.structure(metric)) > 1
    return metric.grid(k, margin=margin, cap=cap, s_active=s_active)


def tau_consistency_residual(report: WeightedReport) -> float:
    """sup deviation of the weighted scalar curvature from its trace form.

    For a weighted Einstein instance the trace identity forces
    tau_f^m = 2 (n+m-1) ((m+n) lam - m kappa / v) with a single constant
    kappa; a wrong characteristic constant mu shows up here directly.
    """
    n, m = report.params.n, report.params.m
    with np.errstate(all="ignore"):  # as on floats: inf and NaN reach the sup
        pred = 2.0 * (n + m - 1.0) * ((m + n) * report.lam
                                      - m * report.kappa_mean / report.v)
        return _sup(abs(report.tau_f - pred))

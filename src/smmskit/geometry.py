"""Warped-product metrics over an interval base and their curvature.

The metric shape is g = dt^2 + phi(t)^2 g_N on I x N.  The fiber N is a
space form, an abstract Einstein manifold with declared constant, or (one
level deep) another warped product.  Curvature and Hessian components come
from the closed warped-product formulas evaluated with exact jets, so every
returned number is accurate to rounding.

Components of symmetric 2-tensors are reported against unit vectors of g:
the tt value, one value per fiber block, and the (t, s) mixed value when a
second coordinate is active.  A point carries s exactly when its block
layout is split (``WarpedMetric.split``), and is evaluated in the layout
it carries (``WarpedMetric.layout``).

A point may carry a whole grid at once (``WarpedMetric.grid``): its
coordinates are then equal-length 1-D arrays, and so is every number
computed from them.
The formulas are the same statements either way; powers and
transcendentals go through ``jets.power`` and ``jets.fmap``, so array
results are bitwise equal to scalar ones, and tests of a value hold when
they hold at any point (``jets._any``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import ndarray

from .errors import DomainError, FormError, NestingError, UnsupportedError
from .jets import BiJet2, _any, fmap, power
from .profiles import DEFAULT_CAP, Interval, sample_grid


@dataclass(frozen=True)
class PointSpec:
    """Evaluation point: base coordinate t, optional fiber probe coordinate s.

    Both are floats, or equal-length 1-D arrays for a grid of points; len()
    is the number of points.  s is present exactly when the layout is split:
    when the density needs it or the fiber is a warped product.
    """

    t: float
    s: float | None = None

    def __len__(self) -> int:
        return np.size(self.t)

    def at(self, i: int) -> "PointSpec":
        """Point i of a grid point, with float coordinates."""
        return PointSpec(float(self.t[i]), None if self.s is None else float(self.s[i]))


def _nan_max(a, b):
    """max(a, b) that propagates NaN; Python's max drops a NaN second argument.

    Entry by entry when either is an array.
    """
    if isinstance(a, ndarray) or isinstance(b, ndarray):
        return np.where((b > a) | (b != b), b, a)
    return b if b > a or b != b else a


@dataclass(frozen=True)
class Tensor2Blocks:
    """Symmetric 2-tensor components against g-unit vectors.

    ``structure`` names the fiber blocks with their dimensions; ``blocks``
    holds the per-block coefficient, ``mixed`` the (t, s) component (zero
    unless two coordinates are active).  Components are floats, or arrays
    over a grid point; a component that is the same everywhere may stay a
    float.
    """

    structure: tuple
    tt: float
    blocks: tuple
    mixed: float = 0.0

    def trace(self) -> float:
        return self.tt + sum(d * b for (_, d), b in zip(self.structure, self.blocks))

    def sup_dev(self, lam: float = 0.0) -> float:
        """Largest componentwise deviation from lam * g."""
        dev = abs(self.tt - lam)
        for b in self.blocks:
            dev = _nan_max(dev, abs(b - lam))
        return _nan_max(dev, abs(self.mixed))

    def combine(self, other: "Tensor2Blocks", ca: float, cb: float) -> "Tensor2Blocks":
        if self.structure != other.structure:
            raise FormError("tensor structures do not match")
        return Tensor2Blocks(
            self.structure,
            ca * self.tt + cb * other.tt,
            tuple(ca * a + cb * b for a, b in zip(self.blocks, other.blocks)),
            ca * self.mixed + cb * other.mixed,
        )

    def scale_shift(self, c: float, shift: float = 0.0) -> "Tensor2Blocks":
        """c * T + shift * g, componentwise."""
        return Tensor2Blocks(
            self.structure,
            c * self.tt + shift,
            tuple(c * b + shift for b in self.blocks),
            c * self.mixed,
        )


# ---------------------------------------------------------------------------
# fiber descriptions

class FiberDesc:
    """Base class for fiber descriptions."""

    dim: int

    def natural_split(self) -> bool:
        """Whether the fiber intrinsically has two blocks (nested case)."""
        return False

    def probe_domain(self) -> Interval | None:
        return None

    def blocks(self, split: bool) -> tuple:
        raise NotImplementedError

    def ricci_coeffs(self, s: float | None) -> tuple:
        """Fiber Ricci per block against g_N-unit vectors; the blocks are
        split exactly when the probe coordinate s is given."""
        raise NotImplementedError

    def orth_hess_factor(self, s: float) -> float:
        """Factor L with Hes^N_F(orth, orth) = L * dF/ds for fiber-radial F."""
        raise UnsupportedError(f"{type(self).__name__} has no probe coordinate")

    def sectional(self, s: float | None):
        """(K dict keyed by block index pairs (i<=j), opaque fiber Weyl norm),
        over the split blocks exactly when s is given.

        K lists the pairs that span planes (``_planes``); an entry is None
        when the declared data does not pin the curvature down.  The Weyl
        norm is the norm of the part of the fiber curvature not captured by
        the block values (None when unknown).
        """
        raise NotImplementedError


def _planes(dim: int, s, within, cross) -> dict:
    """Sectional table of a fiber of dimension dim, over its split blocks
    (1 and dim - 1 dimensional) when s is given: within on each block that
    spans a plane, cross between the two blocks."""
    if s is None:
        return {(0, 0): within} if dim >= 2 else {}
    return {(0, 1): cross, (1, 1): within} if dim - 1 >= 2 else {(0, 1): cross}


def _space_form_warping(c: float, s: float) -> tuple:
    """Canonical radial warping (psi, psi') of a space form of curvature c."""
    if c > 0.0:
        rc = math.sqrt(c)
        return fmap(math.sin, rc * s) / rc, fmap(math.cos, rc * s)
    if c < 0.0:
        rc = math.sqrt(-c)
        return fmap(math.sinh, rc * s) / rc, fmap(math.cosh, rc * s)
    return s, 1.0


class SpaceForm(FiberDesc):
    """Complete simply connected space of constant curvature."""

    def __init__(self, dim: int, curvature: float):
        if dim < 1:
            raise FormError("space form fiber needs dim >= 1")
        self.dim = int(dim)
        self.curvature = float(curvature)

    def __repr__(self):
        return f"SpaceForm(dim={self.dim}, curvature={self.curvature})"

    def probe_domain(self) -> Interval:
        c = self.curvature
        if c > 0.0:
            return Interval(0.0, math.pi / math.sqrt(c))
        return Interval(0.0, math.inf)

    def blocks(self, split: bool) -> tuple:
        if split:
            if self.dim < 2:
                raise FormError("cannot split a 1-dimensional fiber")
            return (("s", 1), ("orth", self.dim - 1))
        return (("fiber", self.dim),)

    def ricci_coeffs(self, s) -> tuple:
        r = (self.dim - 1) * self.curvature
        return (r,) if s is None else (r, r)

    def orth_hess_factor(self, s: float) -> float:
        psi, dpsi = _space_form_warping(self.curvature, s)
        if _any(psi == 0.0):
            raise DomainError("probe coordinate at a polar point of the fiber")
        return dpsi / psi

    def sectional(self, s):
        c = self.curvature
        return _planes(self.dim, s, c, c), 0.0


@dataclass(frozen=True)
class FiberObataData:
    """Declared radial density behavior on an abstract Einstein fiber.

    ``v_n`` is the density factor along an arc-length probe coordinate; on
    directions orthogonal to its gradient the Hessian is declared to be
    -(xi + c * v_n) per unit vector.
    """

    v_n: object
    xi: float
    c: float


class EinsteinFiber(FiberDesc):
    """Abstract Einstein fiber: rho_N = beta * g_N, nothing else declared."""

    def __init__(self, dim: int, beta: float, obata: FiberObataData | None = None,
                 weyl_norm: float | None = None):
        if dim < 2:
            raise FormError("Einstein placeholder fiber needs dim >= 2")
        self.dim = int(dim)
        self.beta = float(beta)
        self.obata = obata
        self.weyl_norm = weyl_norm

    def __repr__(self):
        return f"EinsteinFiber(dim={self.dim}, beta={self.beta})"

    def probe_domain(self) -> Interval | None:
        return self.obata.v_n.domain if self.obata is not None else None

    def blocks(self, split: bool) -> tuple:
        if split:
            if self.dim < 2:
                raise FormError("cannot split a 1-dimensional fiber")
            return (("s", 1), ("orth", self.dim - 1))
        return (("fiber", self.dim),)

    def ricci_coeffs(self, s) -> tuple:
        return (self.beta,) if s is None else (self.beta, self.beta)

    def orth_hess_factor(self, s: float) -> float:
        if self.obata is None:
            raise UnsupportedError("Einstein fiber carries no radial density data")
        j = self.obata.v_n.jet(s)
        if _any(j.d1 == 0.0):
            raise DomainError("fiber density has a critical point at the probe coordinate")
        return -(self.obata.xi + self.obata.c * j.value) / j.d1

    def sectional(self, s):
        # Einstein metrics in dims 2 and 3 are space forms; in higher
        # dimension the block curvature is the constant-curvature part and
        # the remainder must be declared through weyl_norm.
        if self.dim <= 3 or self.weyl_norm is not None:
            c = self.beta / (self.dim - 1)
            wn = float(self.weyl_norm) if self.weyl_norm is not None else 0.0
        else:
            c, wn = None, None
        return _planes(self.dim, s, c, c), wn


class NestedFiber(FiberDesc):
    """Fiber that is itself a warped product (one extra level only)."""

    def __init__(self, metric: "WarpedMetric"):
        if isinstance(metric.fiber, NestedFiber):
            raise NestingError("warped-product fibers nest at most two levels deep")
        self.metric = metric
        self.dim = metric.n

    def __repr__(self):
        return f"NestedFiber({self.metric!r})"

    def natural_split(self) -> bool:
        return True

    def probe_domain(self) -> Interval:
        return self.metric.interval

    def blocks(self, split: bool) -> tuple:
        return (("s", 1), ("theta", self.dim - 1))

    def ricci_coeffs(self, s) -> tuple:
        if s is None:
            raise DomainError("nested fiber needs the probe coordinate s")
        inner = ricci(self.metric, PointSpec(s))
        return (inner.tt, inner.blocks[0])

    def orth_hess_factor(self, s: float) -> float:
        j = self.metric.phi.jet(s)
        return j.d1 / j.value

    def sectional(self, s):
        if s is None:
            raise DomainError("nested fiber needs the probe coordinate s")
        psi = self.metric.phi.jet(s)
        inner_sec, inner_wn = self.metric.fiber.sectional(None)
        c_inner = inner_sec.get((0, 0))  # absent for a 1-dimensional inner fiber
        k_within = (None if c_inner is None
                    else (c_inner - power(psi.d1, 2)) / power(psi.value, 2))
        wn = None if inner_wn is None else inner_wn / power(psi.value, 2)
        return _planes(self.dim, s, k_within, -psi.d2 / psi.value), wn


class WarpedMetric:
    """g = dt^2 + phi(t)^2 g_N over the declared interval."""

    def __init__(self, interval: Interval, phi, fiber: FiberDesc):
        self.interval = interval
        self.phi = phi
        self.fiber = fiber
        self.n = 1 + fiber.dim

    def __repr__(self):
        return f"WarpedMetric(n={self.n}, phi={self.phi!r}, fiber={self.fiber!r})"

    def split(self, s_active: bool) -> bool:
        """Whether points carry the fiber coordinate s, that is, whether the
        layout is split: when a density needs s (s_active) or the fiber has
        two blocks of its own (a warped-product fiber)."""
        return s_active or self.fiber.natural_split()

    def layout(self, point: PointSpec) -> tuple:
        """The fiber blocks at a point: split exactly when it carries s."""
        return self.fiber.blocks(split=point.s is not None)

    def grid(self, k: int, margin: float = 0.05, cap: float = DEFAULT_CAP,
             s_active: bool = False) -> PointSpec:
        """Deterministic interior evaluation grid of about k points, as one
        grid point; with a fiber coordinate (``split``), t-major over a
        square grid."""
        if self.split(s_active):
            dom_s = self.fiber.probe_domain()
            if dom_s is None:
                raise UnsupportedError("fiber has no probe coordinate to sample")
            kt = max(2, int(round(math.sqrt(k))))
            ts = sample_grid(self.interval, kt, margin=margin, cap=cap)
            ss = sample_grid(dom_s, kt, margin=margin, cap=cap)
            return PointSpec(np.repeat(ts, kt), np.tile(ss, kt))
        return PointSpec(sample_grid(self.interval, k, margin=margin, cap=cap))


# ---------------------------------------------------------------------------
# curvature and Hessians

def ricci(metric: WarpedMetric, point: PointSpec) -> Tensor2Blocks:
    """Ricci components of the warped metric at a point, in its layout."""
    metric.interval.require(point.t)
    phi = metric.phi.jet(point.t)
    d = metric.n - 1
    rho_tt = -d * phi.d2 / phi.value
    shared = phi.d2 / phi.value + (d - 1) * power(phi.d1 / phi.value, 2)
    coeffs = metric.fiber.ricci_coeffs(point.s)
    blocks = tuple(r / power(phi.value, 2) - shared for r in coeffs)
    return Tensor2Blocks(metric.layout(point), rho_tt, blocks, 0.0)


@dataclass(frozen=True)
class FieldComponents:
    """Geometric Hessian, Laplacian and gradient data of a scalar field."""

    hess: Tensor2Blocks
    laplacian: float
    grad_sq: float
    value: float
    dt: float
    ds: float


def field_components(metric: WarpedMetric, bij: BiJet2,
                     point: PointSpec) -> FieldComponents:
    """Assemble covariant derivatives of a field from its coordinate jets,
    in the point's layout.

    ``bij`` holds the coordinate partials of the field at (t, s).  The
    Christoffel corrections of the warped metric are applied exactly.
    """
    structure = metric.layout(point)
    phi = metric.phi.jet(point.t)
    h_tt = bij.dtt
    s = point.s
    if s is None:
        if _any(bij.ds != 0.0) or _any(bij.dss != 0.0) or _any(bij.dts != 0.0):
            raise FormError("field depends on s but the point has no s")
        h_fib = (phi.d1 / phi.value) * bij.dt
        hess = Tensor2Blocks(structure, h_tt, (h_fib,), 0.0)
        grad_sq = power(bij.dt, 2)
    else:
        orth_l = metric.fiber.orth_hess_factor(s)
        p2 = power(phi.value, 2)
        h_ts = (bij.dts - (phi.d1 / phi.value) * bij.ds) / phi.value
        h_ss = (bij.dss + phi.value * phi.d1 * bij.dt) / p2
        h_orth = (phi.d1 / phi.value) * bij.dt + orth_l * bij.ds / p2
        hess = Tensor2Blocks(structure, h_tt, (h_ss, h_orth), h_ts)
        grad_sq = power(bij.dt, 2) + power(bij.ds, 2) / p2
    lap = hess.trace()
    return FieldComponents(hess, lap, grad_sq, bij.value, bij.dt, bij.ds)


def hessian_radial(metric: WarpedMetric, w, point: PointSpec) -> Tensor2Blocks:
    """Hessian of a function of t alone: w'' on dt, w' phi'/phi on the fiber."""
    metric.interval.require(point.t)
    structure = metric.layout(point)
    wj = w.jet(point.t)
    phi = metric.phi.jet(point.t)
    h_fib = wj.d1 * phi.d1 / phi.value
    return Tensor2Blocks(structure, wj.d2, tuple(h_fib for _ in structure), 0.0)


def hessian_split(metric: WarpedMetric, v_n, alpha, point: PointSpec) -> Tensor2Blocks:
    """Hessian of v = phi(t) v_N(s) + alpha(t) via the split decomposition.

    The mixed (t, s) component cancels identically for this form and is
    returned as exactly zero.
    """
    s = point.s
    if s is None:
        raise DomainError("point needs a fiber coordinate s for a split density")
    structure = metric.layout(point)
    phi = metric.phi.jet(point.t)
    vn = v_n.jet(s)
    al = alpha.jet(point.t)
    common = (vn.value * power(phi.d1, 2) + al.d1 * phi.d1) / phi.value
    h_tt = phi.d2 * vn.value + al.d2
    h_s = common + vn.d2 / phi.value
    h_orth = common + metric.fiber.orth_hess_factor(s) * vn.d1 / phi.value
    return Tensor2Blocks(structure, h_tt, (h_s, h_orth), 0.0)


# ---------------------------------------------------------------------------
# sectional curvature blocks (for constant-curvature checks and Weyl norms)

@dataclass(frozen=True)
class SectionalData:
    """Pairwise sectional curvatures over the block layout (t block first).

    ``k`` maps the block index pairs (i <= j) that span planes (i == j only
    on a block of dimension 2 or more) to the sectional value of those
    planes, None when the fiber data leaves it undetermined.  ``weyl_norm``
    is the opaque norm of the fiber curvature remainder lifted to g (None
    when unknown).
    """

    blocks: tuple
    k: dict
    weyl_norm: float | None

    def pairs(self):
        for (i, j), v in sorted(self.k.items()):
            yield (i, j), v


def sectional_blocks(metric: WarpedMetric, point: PointSpec) -> SectionalData:
    """Sectional data at a point, in its layout."""
    metric.interval.require(point.t)
    fiber_blocks = metric.layout(point)
    phi = metric.phi.jet(point.t)
    p2 = power(phi.value, 2)
    k_rad = -phi.d2 / phi.value
    fiber_k, fiber_wn = metric.fiber.sectional(point.s)
    blocks = (("t", 1),) + fiber_blocks
    k = {(0, idx + 1): k_rad for idx in range(len(fiber_blocks))}
    for (i, j), kn in fiber_k.items():
        k[(i + 1, j + 1)] = None if kn is None else (kn - power(phi.d1, 2)) / p2
    wn = None if fiber_wn is None else fiber_wn / p2
    return SectionalData(blocks, k, wn)


def sectional_residual(metric: WarpedMetric, point: PointSpec,
                       two_lam: float) -> float:
    """Sup deviation of the sectional curvature from the constant 2*lambda."""
    data = sectional_blocks(metric, point)
    dev = 0.0
    for _, v in data.pairs():
        if v is None:
            raise UnsupportedError("sectional curvature not determined by fiber data")
        dev = _nan_max(dev, abs(v - two_lam))
    if data.weyl_norm is None:
        raise UnsupportedError("fiber curvature remainder unknown")
    return _nan_max(dev, data.weyl_norm)

"""Conformal change of a radially weighted instance by a radial factor.

For a positive radial factor u the metric u^{-2} g of a warped product is
again a warped product: the base coordinate is rescaled through
Q(t) = integral of 1/u and the warping becomes phi/u at the mapped point.
The density transforms as v -> v/u (equivalently f -> f + m log u) and the
characteristic constant is unchanged.

Residual identities on the transformed instance are autonomous pointwise
checks, so quadrature error in the coordinate map only moves the sample
points and never degrades the residuals themselves.  Law checks compare the
directly computed transformed tensors against independent closed formulas
assembled entirely in the original frame.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, EvalError, UnsupportedError
from .geometry import PointSpec, Tensor2Blocks, WarpedMetric, _nan_max, \
    field_components, hessian_radial, ricci_blocks_for
from .jets import BiJet2, Jet2
from .profiles import Interval, sample_grid
from .weighted import (
    DensitySpec,
    Instance,
    RadialDensity,
    SplitDensity,
    point_fields,
)

_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-13, limit=200)


def _quad(fn, a, b):
    # reparameterized integrands carry rounding noise near the endpoints
    # that trips the convergence heuristics; the error estimate still governs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(fn, a, b, **_QUAD_KW)


def _nearer(xs: list, i: int, x: float) -> int:
    """Index of the entry of sorted xs nearest x, given i = bisect_left(xs, x).

    Ties go to the lower entry.
    """
    lo, hi = max(i - 1, 0), min(i, len(xs) - 1)
    return hi if abs(xs[hi] - x) < abs(xs[lo] - x) else lo


class ConformalMap:
    """Monotone coordinate change Q with Q'(t) = 1/u(t), Q(t_ref) = 0.

    Forward values accumulate as anchors, kept as two parallel lists sorted
    by t; Q is increasing, so the anchor images are sorted too and both the
    nearest anchor and the bracket of an image coordinate come from a bisect.
    The inverse runs safeguarded Newton iterations T -> T - (Q(T) - q) u(T)
    inside that bracket, so image points produced by forward() invert exactly
    through the anchors.  Each successful inversion is memoized per image
    coordinate (a DomainError is raised again on every call), and the jet of
    u is cached per base coordinate, so repeated pullbacks at one image point
    cost one inversion and one walk of u.
    """

    def __init__(self, u, interval: Interval, t_ref: float | None = None,
                 image: Interval | None = None):
        self.u = u
        self.interval = interval
        u.check_positive(samples=2048)
        if t_ref is None:
            window = sample_grid(interval, 3, margin=0.01)
            t_ref = float(window[1])
        self.t_ref = float(t_ref)
        self._ts = [self.t_ref]  # anchor coordinates, sorted
        self._qs = [0.0]         # their images Q(t), sorted alongside
        self._inverse_memo = {}  # q -> T
        self._u_jets = {}        # T -> u.jet(T)
        self._image = image

    def _integrand(self, x: float) -> float:
        try:
            return 1.0 / self.u.value(x)
        except EvalError:
            # overflow guard of the factor fired far out; 1/u is negligible
            return 0.0

    def forward(self, t: float) -> float:
        t = float(t)
        self.interval.require(t)
        ts, qs = self._ts, self._qs
        i = bisect.bisect_left(ts, t)
        if i < len(ts) and ts[i] == t:
            return qs[i]
        j = _nearer(ts, i, t)
        seg, _ = _quad(self._integrand, ts[j], t)
        q = qs[j] + seg
        ts.insert(i, t)
        qs.insert(i, q)
        return q

    def derivative(self, t: float) -> float:
        return self._integrand(t)

    def inverse(self, q: float) -> float:
        q = float(q)
        t = self._inverse_memo.get(q)
        if t is None:
            t = self._inverse_memo[q] = self._solve(q)
        return t

    def _solve(self, q: float) -> float:
        tol = 5e-16 * max(1.0, abs(q))
        j = _nearer(self._qs, bisect.bisect_left(self._qs, q), q)
        if abs(self._qs[j] - q) <= tol:
            return self._ts[j]
        lo, hi = self._bracket(q)
        t = 0.5 * (lo + hi)
        for _ in range(80):
            resid = self.forward(t) - q
            if abs(resid) <= 1e-15 * max(1.0, abs(q)) + 1e-15:
                return t
            if resid > 0.0:
                hi = t
            else:
                lo = t
            step = resid * self.u.value(t)
            t_new = t - step
            if not (lo < t_new < hi):
                t_new = 0.5 * (lo + hi)
            t = t_new
        return t

    def _bracket(self, q: float) -> tuple:
        ts, qs = self._ts, self._qs
        if qs[0] <= q <= qs[-1]:
            i = bisect.bisect_left(qs, q)
            lo = ts[max(i - 1, 0)]
            hi = ts[min(i, len(ts) - 1)]
            if lo == hi:
                lo, hi = lo - 1e-12, hi + 1e-12
            return lo, hi
        # expand outward with growing steps, clipped to the interval
        if q > qs[-1]:
            t, val = ts[-1], qs[-1]
            step = max(1e-3, abs(t) * 1e-3)
            while val < q:
                t_next = t + step
                if t_next >= self.interval.hi:
                    t_next = self.interval.hi - 1e-12 * max(1.0, abs(self.interval.hi)) \
                        if math.isfinite(self.interval.hi) else t + step
                val_next = self.forward(t_next)
                if val_next >= q:
                    return t, t_next
                if math.isfinite(self.interval.hi) and t_next >= self.interval.hi - 1e-9:
                    raise DomainError(f"image coordinate {q} beyond the mapped interval")
                t, val = t_next, val_next
                step *= 2.0
        t, val = ts[0], qs[0]
        step = max(1e-3, abs(t) * 1e-3)
        while val > q:
            t_next = t - step
            if t_next <= self.interval.lo:
                t_next = self.interval.lo + 1e-12 * max(1.0, abs(self.interval.lo)) \
                    if math.isfinite(self.interval.lo) else t - step
            val_next = self.forward(t_next)
            if val_next <= q:
                return t_next, t
            if math.isfinite(self.interval.lo) and t_next <= self.interval.lo + 1e-9:
                raise DomainError(f"image coordinate {q} beyond the mapped interval")
            t, val = t_next, val_next
            step *= 2.0
        raise DomainError(f"could not bracket image coordinate {q}")

    def image_interval(self) -> Interval:
        if self._image is None:
            lo = self._image_endpoint(self.interval.lo, -1)
            hi = self._image_endpoint(self.interval.hi, +1)
            self._image = Interval(
                lo, hi, closed_lo=self.interval.closed_lo and math.isfinite(lo),
                closed_hi=self.interval.closed_hi and math.isfinite(hi))
        return self._image

    def _image_endpoint(self, e: float, sign: int) -> float:
        try:
            val, err = _quad(self._integrand, self.t_ref, e)
        except Exception:
            return sign * math.inf
        if not math.isfinite(val) or err > 1e-6 * (1.0 + abs(val)):
            return sign * math.inf
        if math.isinf(e) and not self._truncations_reach(val, sign):
            return sign * math.inf
        return val

    def _truncations_reach(self, val: float, sign: int) -> bool:
        """Whether the integrals of 1/u over [t_ref, t_ref + sign R] reach val.

        On an infinite range quad can return a finite value with a tiny error
        estimate for a divergent integral (for 1/u = 1 it returns -1.0).  The
        integrand is positive, so the truncated integrals grow monotonically
        toward the true value as R doubles.  A truncation that overshoots
        val, or truncations that never come within tolerance of it, show
        that val is not the integral, and the endpoint is taken as infinite.
        """
        tol = 1e-6 * (1.0 + abs(val))
        a, r, partial = self.t_ref, 1.0, 0.0
        for _ in range(64):
            b = self.t_ref + sign * r
            partial += _quad(self._integrand, a, b)[0]
            if sign * (partial - val) > tol:
                return False
            if abs(partial - val) <= tol:
                return True
            a, r = b, 2.0 * r
        return False

    def pullback_jet(self, base, q: float) -> Jet2:
        """Jets of (base o T)(q) where T is the inverse coordinate change."""
        t = self.inverse(q)
        uv = self._u_jets.get(t)
        if uv is None:
            uv = self._u_jets[t] = self.u.jet(t)
        bj = uv if base is self.u else base.jet(t)
        dT = uv.value
        ddT = uv.d1 * uv.value
        return Jet2(bj.value, bj.d1 * dT, bj.d2 * dT * dT + bj.d1 * ddT)


class ReparamProfile:
    """Profile (num o T) / (den o T) on the image of a conformal map.

    Either part may be omitted (treated as the constant 1).
    """

    def __init__(self, cmap: ConformalMap, num=None, den=None, name: str = ""):
        if num is None and den is None:
            raise EvalError("reparameterized profile needs at least one part")
        self.cmap = cmap
        self.num = num
        self.den = den
        self.domain = cmap.image_interval()
        self.name = name or "reparam"

    def jet(self, q: float) -> Jet2:
        self.domain.require(q)
        if self.num is not None and self.den is not None:
            out = self.cmap.pullback_jet(self.num, q) / self.cmap.pullback_jet(self.den, q)
        elif self.num is not None:
            out = self.cmap.pullback_jet(self.num, q)
        else:
            out = Jet2.constant(1.0) / self.cmap.pullback_jet(self.den, q)
        if not (math.isfinite(out.value) and math.isfinite(out.d1)
                and math.isfinite(out.d2)):
            raise EvalError(f"profile jet not finite at t={q}")
        return out

    def value(self, q: float) -> float:
        return self.jet(q).value

    def is_constant(self) -> bool:
        return False

    def check_positive(self, samples: int = 10_000, margin: float = 1e-4):
        """Positivity of each part on the base interval.

        T maps the image onto the base interval, so the quotient is positive
        on the image exactly when num/den is positive on the base; requiring
        both parts to be positive there is at least as strict.
        """
        for part in (self.num, self.den):
            if part is not None:
                part.check_positive(samples=samples, margin=margin)

    def to_string(self) -> str:
        parts = []
        if self.num is not None:
            parts.append(self.num.to_string())
        if self.den is not None:
            parts.append("/ " + self.den.to_string())
        return f"reparam({' '.join(parts)})"


@dataclass
class TransformResult:
    instance: Instance
    cmap: ConformalMap
    u: object


def apply_conformal(instance: Instance, u, t_ref: float | None = None,
                    image: Interval | None = None) -> TransformResult:
    """Transformed instance for the metric u^{-2} g and density v/u.

    u must be a positive radial profile on the base interval.  The fiber is
    untouched; only the base coordinate, warping and density change.  When
    the image interval is known exactly (for example when undoing an earlier
    change), pass it to bypass the quadrature heuristics at the endpoints.
    """
    metric = instance.metric
    cmap = ConformalMap(u, metric.interval, t_ref=t_ref, image=image)
    image = cmap.image_interval()
    phi_hat = ReparamProfile(cmap, num=metric.phi, den=u, name="phi_hat")
    metric_hat = WarpedMetric(image, phi_hat, metric.fiber)
    dens = instance.density
    if isinstance(dens, SplitDensity):
        alpha_hat = ReparamProfile(cmap, num=dens.alpha, den=u, name="alpha_hat")
        dens_hat: DensitySpec = SplitDensity(dens.v_n, alpha_hat)
    elif isinstance(dens, RadialDensity):
        dens_hat = RadialDensity(ReparamProfile(cmap, num=dens.v, den=u, name="v_hat"))
    else:
        raise UnsupportedError(f"no conformal rule for density {dens!r}")
    inst = Instance(metric_hat, dens_hat, instance.params,
                    complete=instance.complete, compact=instance.compact)
    return TransformResult(inst, cmap, u)


def inverse_factor(result: TransformResult) -> ReparamProfile:
    """The factor that undoes the change: 1/u carried to the image frame."""
    return ReparamProfile(result.cmap, num=None, den=result.u, name="u_inverse")


# ---------------------------------------------------------------------------
# transformation-law checks in the original frame

def _symmetric_product(structure, a_t, a_s, b_t, b_s, phi):
    """Components of da (x) db + db (x) da against g-unit vectors."""
    if len(structure) == 1:
        return Tensor2Blocks(structure, 2.0 * a_t * b_t, (0.0,), 0.0)
    gs_a = a_s / phi
    gs_b = b_s / phi
    blocks = (2.0 * gs_a * gs_b,) + tuple(0.0 for _ in structure[1:])
    return Tensor2Blocks(structure, 2.0 * a_t * b_t, blocks,
                         a_t * gs_b + gs_a * b_t)


def conformal_law_residuals(instance: Instance, u, result: TransformResult,
                            ts) -> dict:
    """Sup residuals of the conformal transformation laws over base points.

    For each t the transformed tensors are computed directly on the image
    instance at Q(t) and compared, after the u^{-2} frame conversion, with
    closed formulas assembled in the original frame:

      ricci:     Ric^ = Ric + (n-2) Hes(u)/u + (L(u)/u - (n-1)|du|^2/u^2) g
      modified:  Ric^_f = Ric^ - m Hes^(v^)/v^ with
                 Hes^(h) = Hes(h) + (du (x) dh + dh (x) du)/u - <du, dh> g / u
      schouten:  P^ from the two above plus the scalar trace conversions
    """
    metric, dens, params = instance.metric, instance.density, instance.params
    n, m = params.n, params.m
    out = {"ricci": 0.0, "modified_ricci": 0.0, "schouten": 0.0, "scalar": 0.0}
    s_active = dens.s_active(metric)
    structure = dens.structure(metric)
    hat = result.instance
    for t in ts:
        t = float(t)
        s = None
        if s_active:
            dom = metric.fiber.probe_domain()
            s = float(sample_grid(dom, 5, margin=0.2)[2])
        pt = PointSpec(t, s)
        q = result.cmap.forward(t)
        pt_hat = PointSpec(q, s)
        uj = u.jet(t)
        uv, du, ddu = uj.value, uj.d1, uj.d2

        # original-frame ingredients
        rho = ricci_blocks_for(metric, pt, structure)
        hes_u = hessian_radial(metric, u, pt, structure=structure)
        lap_u = hes_u.trace()
        phi_val = metric.phi.value(t)

        # law: ordinary Ricci
        law_rho = rho.combine(hes_u, 1.0, (n - 2.0) / uv) \
                     .scale_shift(1.0, lap_u / uv - (n - 1.0) * (du / uv) ** 2)

        # transformed-frame direct values, converted to the original frame
        direct = point_fields(hat.metric, hat.density, params, pt_hat)
        dev = direct.rho.scale_shift(1.0 / uv ** 2).combine(law_rho, 1.0, -1.0)
        out["ricci"] = _nan_max(out["ricci"], dev.sup_dev(0.0))

        # law: modified Ricci via the transformed Hessian of v^ = v/u
        vb = dens.v_bijet(metric, pt)
        ub = BiJet2.lift_t(uj)
        vhat_b = vb / ub
        vhat = vhat_b.value
        fc = field_components(metric, vhat_b, pt, structure)
        sym = _symmetric_product(structure, du, 0.0, vhat_b.dt, vhat_b.ds, phi_val)
        inner = du * vhat_b.dt
        hes_hat_v = fc.hess.combine(sym, 1.0, 1.0 / uv) \
                           .scale_shift(1.0, -inner / uv)
        law_be = law_rho.combine(hes_hat_v, 1.0, -m / vhat)
        dev = direct.be.scale_shift(1.0 / uv ** 2).combine(law_be, 1.0, -1.0)
        out["modified_ricci"] = _nan_max(out["modified_ricci"], dev.sup_dev(0.0))

        # law: weighted scalar and Schouten
        fb = dens.f_bijet(metric, pt, m)
        fhat_t = fb.dt + m * du / uv
        fhat_s = fb.ds
        fch = field_components(metric, BiJet2(0.0, fhat_t, fhat_s,
                                              fb.dtt + m * (ddu * uv - du * du) / uv ** 2,
                                              fb.dts, fb.dss), pt, structure)
        tau_hat = uv ** 2 * law_rho.trace()
        grad_fhat = uv ** 2 * (fhat_t ** 2 + ((fhat_s / phi_val) ** 2 if s_active else 0.0))
        lap_hat_f = uv ** 2 * (fch.laplacian - (n - 2.0) / uv
                               * (du * fhat_t))
        tau_f_hat = tau_hat + 2.0 * lap_hat_f - ((m + 1.0) / m) * grad_fhat
        if m != 1.0:
            tau_f_hat += m * (m - 1.0) * params.mu * (uv / vb.value) ** 2
        out["scalar"] = _nan_max(out["scalar"], abs(direct.tau_f - tau_f_hat))

        j_hat = tau_f_hat / (2.0 * (n + m - 1.0))
        law_p = law_be.scale_shift(1.0 / (n + m - 2.0),
                                   -j_hat / (uv ** 2 * (n + m - 2.0)))
        dev = direct.p.scale_shift(1.0 / uv ** 2).combine(law_p, 1.0, -1.0)
        out["schouten"] = _nan_max(out["schouten"], dev.sup_dev(0.0))
    return out


def involution_residual(instance: Instance, u, ts) -> float:
    """Round-trip deviation after transforming by u and then by its inverse.

    The composite coordinate map is a pure translation of the base
    coordinate (each map anchors its own reference point), so coordinates
    are compared after removing the constant shift, and warping and density
    values are compared at corresponding points.
    """
    first = apply_conformal(instance, u)
    base = instance.metric.interval
    ref = first.cmap.t_ref
    # undoing the change recovers the base interval up to the translation
    # that re-anchors the reference point, so the image is known exactly
    back = Interval(base.lo - ref, base.hi - ref,
                    closed_lo=base.closed_lo, closed_hi=base.closed_hi)
    second = apply_conformal(first.instance, inverse_factor(first),
                             t_ref=0.0, image=back)
    ts = [float(t) for t in ts]
    qs2 = [second.cmap.forward(first.cmap.forward(t)) for t in ts]
    shift = qs2[0] - ts[0]
    out = 0.0
    for t, q2 in zip(ts, qs2):
        out = _nan_max(out, abs(q2 - t - shift))
        out = _nan_max(out, abs(second.instance.metric.phi.value(q2)
                               - instance.metric.phi.value(t)))
        vd0 = instance.density
        vd2 = second.instance.density
        if isinstance(vd0, RadialDensity):
            out = _nan_max(out, abs(vd2.v.value(q2) - vd0.v.value(t)))
        else:
            out = _nan_max(out, abs(vd2.alpha.value(q2) - vd0.alpha.value(t)))
    return out

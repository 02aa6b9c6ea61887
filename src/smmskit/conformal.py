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

The coordinate map and the reparameterized profiles take a float or a 1-D
array, like every profile.  An array is inverted in one Newton solve whose
statements are the float solve's under masks, so every entry follows the
float iterates and the results are bitwise equal; the profiles of one
transformed grid share that solve, and each ``ReparamProfile`` keeps its
last array value and jet, so it pulls a grid back once.  Table growth and
``quad`` stay scalar.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy import ndarray
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, EvalError, UnsupportedError
from .geometry import PointSpec, Tensor2Blocks, WarpedMetric, \
    field_components, grid_point, hessian_radial, ricci_blocks_for
from .jets import BiJet2, Jet2, _any, _check, power
from .profiles import Interval, _last_array, _scalar_failure, sample_grid
from .weighted import (
    DensitySpec,
    Instance,
    RadialDensity,
    SplitDensity,
    _sup,
    point_fields,
)

_NODES, _WEIGHTS = (x.tolist() for x in leggauss(10))
_NODE_ROW = np.array(_NODES)


def _rule(fn, a, b):
    """10-point Gauss-Legendre value of the integral of fn from a to b.

    On arrays a and b, one rule per entry, with fn called once on all their
    nodes.  The terms are summed left to right from 0.0 either way, which is
    what the builtin ``sum`` does with floats up to Python 3.11.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    acc = 0.0
    if type(a) is ndarray:
        vals = fn((mid[:, None] + half[:, None] * _NODE_ROW).ravel())
        for w, col in zip(_WEIGHTS, vals.reshape(-1, len(_NODES)).T):
            acc = acc + w * col
    else:
        for x, w in zip(_NODES, _WEIGHTS):
            acc = acc + w * fn(mid + half * x)
    return half * acc


def quad(fn, a: float, b: float):
    """Adaptive Gauss-Legendre integral of fn from a to b (b < a allowed).

    A panel is halved until the rules on its halves agree with the rule on
    the whole to 1e-13 (absolute below 1), at most 200 times in all, since
    noisy integrands never settle, and never below a width of 1e-13 times
    its largest end, so that no node rounds onto an end.  Returns the ends
    of the accepted halves from a to b, the signed integrals between
    consecutive ends and the summed disagreement, the error estimate.
    """
    ends, values, err, budget = [a], [], 0.0, 200
    todo = [(a, b, _rule(fn, a, b))]
    while todo:
        lo, hi, whole = todo.pop()
        mid = 0.5 * (lo + hi)
        left, right = _rule(fn, lo, mid), _rule(fn, mid, hi)
        diff = abs(left + right - whole)
        if (budget and not diff <= 1e-13 * max(1.0, abs(left + right))
                and abs(hi - lo) > 1e-13 * max(abs(lo), abs(hi))):
            budget -= 1
            todo += [(mid, hi, right), (lo, mid, left)]
        else:
            ends += [mid, hi]
            values += [left, right]
            err += diff
    return ends, values, err


class ConformalMap:
    """Monotone coordinate change Q with Q'(t) = 1/u(t), Q(t_ref) = 0.

    Q is tabulated at panel ends in two sorted lists, starting from
    (t_ref, 0) and laid outward on demand by one ``quad`` call per panel:
    toward a finite end each panel halves the distance left, toward an
    infinite end each doubles the reach.  forward(t) is the table entry
    below t plus one Gauss-Legendre rule up to t; inverse(q) bisects for
    the panel holding q and runs safeguarded Newton steps
    T -> T - (Q(T) - q) u(T) inside it.  The panels do not depend on the
    order of queries, so neither do the results.

    forward and inverse take a float or a 1-D array.  An array is covered
    once at its smallest and largest entry, and its Newton steps run over
    the entries still unconverged, one rule for all of them per step, so
    each entry takes the float iterates.  An entry the array path cannot
    take (NaN, beyond the image, a factor that fails to evaluate) sends the
    whole call through the float loop, which returns its values or raises
    its first error.  The last array inverted is kept with the jet of u
    there, which ``pullback_jet`` shares among the profiles of one grid.

    The growth decides the image endpoints with the tolerance 1e-6 (1 + |Q|).
    A finite end is closed by a last panel from within 1e-13 of it, and its
    image is infinite when that panel's error estimate exceeds the
    tolerance.  Toward an infinite end the image is finite once a doubling
    panel leaves Q unchanged, or the 64th one adds at most the tolerance.
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
        self._ts = [self.t_ref]  # panel ends, sorted
        self._qs = [0.0]         # Q at the panel ends, sorted alongside
        self._ends = {-1: None, 1: None}  # image endpoints once decided
        self._last = (None, None)  # (bytes, T) of the last array inverted
        self._last_u = None      # u.jet at that T, once a pullback needs it
        self._image = image

    def _integrand(self, x):
        if type(x) is ndarray:  # a failing u sends the caller to its float loop
            v = self.u.value(x)
            return np.where(v == 0.0, math.inf, 1.0 / v)
        try:
            return 1.0 / self.u.value(x)
        except EvalError:
            # overflow guard of the factor fired far out; 1/u is negligible
            return 0.0
        except ZeroDivisionError:
            # u underflowed next to an end where it vanishes
            return math.inf

    def _grow(self, side: int):
        """Lays the next panel outward on side (+1 up, -1 down)."""
        ts, qs = self._ts, self._qs
        t0, q0 = (ts[-1], qs[-1]) if side > 0 else (ts[0], qs[0])
        e = self.interval.hi if side > 0 else self.interval.lo
        reach = max(1.0, 2.0 * abs(t0 - self.t_ref))
        if math.isinf(e):
            b = self.t_ref + side * reach
        elif abs(e - t0) <= 1e-13 * max(1.0, abs(e)):
            b = e
        else:
            b = t0 + 0.5 * (e - t0)
        ends, values, err = quad(self._integrand, t0, b)
        new_q = list(accumulate(values, initial=q0))
        if side > 0:
            ts.extend(ends[1:])
            qs.extend(new_q[1:])
        else:
            ts[:0] = ends[:0:-1]
            qs[:0] = new_q[:0:-1]
        q = new_q[-1]
        if self._ends[side] is not None:
            return
        tol = 1e-6 * (1.0 + abs(q))
        if b == e:
            finite = math.isfinite(q) and err <= tol
        elif math.isinf(e) and (q == q0 or reach >= 2.0 ** 64):
            finite = abs(q - q0) <= tol
        else:
            return
        self._ends[side] = q if finite else side * math.inf

    def _cover(self, x: float, table: list):
        """Lays panels until x lies within table, which is _ts or _qs."""
        while not table[0] <= x <= table[-1]:  # NaN grows down to a decided end
            side = 1 if x > table[-1] else -1
            if table is self._qs and self._ends[side] is not None:
                raise DomainError(f"image coordinate {x} beyond the mapped interval")
            self._grow(side)

    def _at(self, i: int, t: float) -> float:
        """Q(t) for t in the panel that starts at table entry i."""
        return self._qs[i] + _rule(self._integrand, self._ts[i], t)

    def _on_array(self, solve, method, xs: ndarray, table: list) -> ndarray:
        """solve(xs, ts, qs) on the table as arrays once it covers xs (which
        table names, _ts or _qs); else the float loop of method."""
        if not xs.size:
            return xs.copy()
        try:
            if np.isnan(xs).any():
                raise DomainError("NaN image coordinate")
            self._cover(float(xs.min()), table)
            self._cover(float(xs.max()), table)
            with np.errstate(all="ignore"):  # as on floats: inf, no warning
                return solve(xs, np.array(self._ts), np.array(self._qs))
        except (DomainError, EvalError):
            return np.array([method(x) for x in xs.tolist()], dtype=float)

    def forward(self, t):
        if type(t) is ndarray:
            self.interval.require(t)
            return self._on_array(self._forward_many, self.forward, t, self._ts)
        t = float(t)
        self.interval.require(t)
        self._cover(t, self._ts)
        i = bisect.bisect_right(self._ts, t) - 1
        return self._qs[i] if self._ts[i] == t else self._at(i, t)

    def _forward_many(self, t: ndarray, ts: ndarray, qs: ndarray) -> ndarray:
        i = np.searchsorted(ts, t, side="right") - 1
        out = qs[i]
        off = np.flatnonzero(ts[i] != t)
        i = i[off]
        out[off] = qs[i] + _rule(self._integrand, ts[i], t[off])
        return out

    def derivative(self, t: float) -> float:
        return self._integrand(t)

    def inverse(self, q):
        if type(q) is ndarray:
            key = q.tobytes()
            if self._last[0] != key:
                t = self._on_array(self._invert_many, self.inverse, q, self._qs)
                t.flags.writeable = False
                self._last, self._last_u = (key, t), None
            return self._last[1]
        return self._invert(float(q))

    def _invert(self, q: float) -> float:
        self._cover(q, self._qs)
        ts, qs = self._ts, self._qs
        i = bisect.bisect_right(qs, q) - 1
        if qs[i] == q:
            return ts[i]
        lo, hi = ts[i], ts[i + 1]
        t = lo + (hi - lo) * ((q - qs[i]) / (qs[i + 1] - qs[i]))
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        tol = 1e-15 * max(1.0, abs(q)) + 1e-15
        for _ in range(80):
            resid = self._at(i, t) - q
            if abs(resid) <= tol:
                break
            if resid > 0.0:
                hi = t
            else:
                lo = t
            t_new = t - resid * self.u.value(t)
            if not lo < t_new < hi:
                t_new = 0.5 * (lo + hi)
            t = t_new
        return t

    def _invert_many(self, q_all: ndarray, ts: ndarray, qs: ndarray) -> ndarray:
        """_invert at every entry: its statements on the entries whose
        Newton loop still runs, each distinct q solved once."""
        q, back = np.unique(q_all, return_inverse=True)
        i = np.searchsorted(qs, q, side="right") - 1
        out = ts[i]
        run = np.flatnonzero(qs[i] != q)
        i, q = i[run], q[run]
        lo, hi = ts[i], ts[i + 1]
        t = lo + (hi - lo) * ((q - qs[i]) / (qs[i + 1] - qs[i]))
        t = np.where((lo < t) & (t < hi), t, 0.5 * (lo + hi))
        tol = 1e-15 * np.maximum(1.0, np.abs(q)) + 1e-15
        for _ in range(80):
            if not run.size:
                break
            resid = qs[i] + _rule(self._integrand, ts[i], t) - q
            done = np.abs(resid) <= tol
            out[run[done]] = t[done]
            go = ~done
            run, i, q, t, lo, hi, tol, resid = (
                x[go] for x in (run, i, q, t, lo, hi, tol, resid))
            up = resid > 0.0
            hi = np.where(up, t, hi)
            lo = np.where(up, lo, t)
            t_new = t - resid * self.u.value(t)
            t = np.where((lo < t_new) & (t_new < hi), t_new, 0.5 * (lo + hi))
        out[run] = t
        return out[back]

    def image_interval(self) -> Interval:
        if self._image is None:
            for side in (1, -1):
                while self._ends[side] is None:
                    self._grow(side)
            lo, hi = self._ends[-1], self._ends[1]
            self._image = Interval(
                lo, hi, closed_lo=self.interval.closed_lo and math.isfinite(lo),
                closed_hi=self.interval.closed_hi and math.isfinite(hi))
        return self._image

    def pullback_jet(self, base, q) -> Jet2:
        """Jets of (base o T)(q) where T is the inverse coordinate change."""
        t = self.inverse(q)
        if type(q) is ndarray:
            if self._last_u is None:
                self._last_u = self.u.jet(t)
            uv = self._last_u
        else:
            uv = self.u.jet(t)
        bj = uv if base is self.u else base.jet(t)
        dT = uv.value
        ddT = uv.d1 * uv.value
        return Jet2(bj.value, bj.d1 * dT, bj.d2 * dT * dT + bj.d1 * ddT)


class ReparamProfile:
    """Profile (num o T) / (den o T) on the image of a conformal map.

    Either part may be omitted (treated as the constant 1).  On a 1-D array
    of points the map inverts the array once, and the parts' array jets are
    composed with it by the scalar formulas; a failure raises the error a
    loop of scalar calls raises first.  ``value`` takes no jets.  The last
    array value and jet are remembered as read-only arrays
    (``profiles._last_array``).
    """

    def __init__(self, cmap: ConformalMap, num=None, den=None, name: str = ""):
        if num is None and den is None:
            raise EvalError("reparameterized profile needs at least one part")
        self.cmap = cmap
        self.num = num
        self.den = den
        self.domain = cmap.image_interval()
        self.name = name or "reparam"
        self._last = [None, None]  # last array value and jet, see _last_array

    def jet(self, q) -> Jet2:
        if type(q) is ndarray:
            return Jet2(*self._on_array(q, 1))
        self.domain.require(q)
        out = self._jet(q)
        if not (math.isfinite(out.value) and math.isfinite(out.d1)
                and math.isfinite(out.d2)):
            raise EvalError(f"profile jet not finite at t={q}")
        return out

    def _jet(self, q) -> Jet2:
        pull = self.cmap.pullback_jet
        if self.num is not None and self.den is not None:
            return pull(self.num, q) / pull(self.den, q)
        if self.num is not None:
            return pull(self.num, q)
        return Jet2.constant(1.0) / pull(self.den, q)

    def value(self, q):
        if type(q) is ndarray:
            return self._on_array(q, 0)[0]
        self.domain.require(q)
        out = self._value(q)
        if not math.isfinite(out):
            raise EvalError(f"profile value not finite at t={q}")
        return out

    def _value(self, q):
        """The value part of _jet: the same quotient, without derivatives."""
        t = self.cmap.inverse(q)
        num = 1.0 if self.num is None else self.num.value(t)
        if self.den is None:
            return num
        den = self.den.value(t)
        if _any(den == 0.0):
            raise EvalError("division by zero")
        return _check(num / den)

    def _on_array(self, q: ndarray, which: int) -> tuple:
        """The value (0) or jet (1) parts at every entry of q, remembered for
        the next call on the same array (``profiles._last_array``)."""
        return _last_array(self._last, which, q, lambda q: self._evaluate(q, which))

    def _evaluate(self, q: ndarray, which: int) -> tuple:
        """_value or _jet on q when it succeeds and is finite; else the loop
        of scalar calls, which raises its first error."""
        scalar = (self.value, self.jet)[which]
        try:
            self.domain.require(q)
            with np.errstate(all="ignore"):
                out = (self._value, self._jet)[which](q)
        except (DomainError, EvalError) as exc:
            _scalar_failure(scalar, q, exc)
        parts = (out.value, out.d1, out.d2) if which else (out,)
        if not all(np.isfinite(p).all() for p in parts):
            _scalar_failure(scalar, q, "not finite")
        return parts

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
    change), pass it, and the map lays panels only as far as it is queried.
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

    Both sides are evaluated on all points at once, as one grid point in
    each frame; the sups are taken point by point in the order of ts.
    """
    metric, dens, params = instance.metric, instance.density, instance.params
    n, m = params.n, params.m
    s_active = dens.s_active(metric)
    structure = dens.structure(metric)
    hat = result.instance
    ts = np.asarray(ts, dtype=float)
    s = None
    if s_active:
        s = float(sample_grid(metric.fiber.probe_domain(), 5, margin=0.2)[2])
    qs = result.cmap.forward(ts)
    pt = grid_point([PointSpec(t, s) for t in ts.tolist()])
    pt_hat = grid_point([PointSpec(q, s) for q in qs.tolist()])
    with np.errstate(all="ignore"):  # as on floats: inf and NaN fail the sups
        uj = u.jet(pt.t)
        uv, du, ddu = uj.value, uj.d1, uj.d2

        # original-frame ingredients
        rho = ricci_blocks_for(metric, pt, structure)
        hes_u = hessian_radial(metric, u, pt, structure=structure)
        lap_u = hes_u.trace()
        phi_val = metric.phi.value(pt.t)

        # law: ordinary Ricci
        law_rho = rho.combine(hes_u, 1.0, (n - 2.0) / uv) \
                     .scale_shift(1.0, lap_u / uv - (n - 1.0) * power(du / uv, 2))

        # transformed-frame direct values, converted to the original frame
        direct = point_fields(hat.metric, hat.density, params, pt_hat)
        ricci = direct.rho.scale_shift(1.0 / power(uv, 2)) \
                          .combine(law_rho, 1.0, -1.0).sup_dev(0.0)

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
        modified = direct.be.scale_shift(1.0 / power(uv, 2)) \
                            .combine(law_be, 1.0, -1.0).sup_dev(0.0)

        # law: weighted scalar and Schouten
        fb = dens.f_bijet(metric, pt, m)
        fhat_t = fb.dt + m * du / uv
        fhat_s = fb.ds
        fch = field_components(metric, BiJet2(0.0, fhat_t, fhat_s,
                                              fb.dtt + m * (ddu * uv - du * du)
                                              / power(uv, 2),
                                              fb.dts, fb.dss), pt, structure)
        tau_hat = power(uv, 2) * law_rho.trace()
        grad_fhat = power(uv, 2) * (power(fhat_t, 2)
                                    + (power(fhat_s / phi_val, 2) if s_active else 0.0))
        lap_hat_f = power(uv, 2) * (fch.laplacian - (n - 2.0) / uv
                                    * (du * fhat_t))
        tau_f_hat = tau_hat + 2.0 * lap_hat_f - ((m + 1.0) / m) * grad_fhat
        if m != 1.0:
            tau_f_hat = tau_f_hat + m * (m - 1.0) * params.mu * power(uv / vb.value, 2)
        scalar = abs(direct.tau_f - tau_f_hat)

        j_hat = tau_f_hat / (2.0 * (n + m - 1.0))
        law_p = law_be.scale_shift(1.0 / (n + m - 2.0),
                                   -j_hat / (power(uv, 2) * (n + m - 2.0)))
        schouten = direct.p.scale_shift(1.0 / power(uv, 2)) \
                           .combine(law_p, 1.0, -1.0).sup_dev(0.0)
    return {"ricci": _sup(ricci.tolist()), "modified_ricci": _sup(modified.tolist()),
            "schouten": _sup(schouten.tolist()), "scalar": _sup(scalar.tolist())}


def involution_residual(instance: Instance, u, ts) -> float:
    """Round-trip deviation after transforming by u and then by its inverse.

    The composite coordinate map is a pure translation of the base
    coordinate (each map anchors its own reference point), so coordinates
    are compared after removing the constant shift, and warping and density
    values are compared at corresponding points.  Every map and profile is
    evaluated on all points at once; the sup runs point by point.
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
    ts = np.asarray(ts, dtype=float)
    qs2 = second.cmap.forward(first.cmap.forward(ts))
    shift = qs2[0] - ts[0]
    part = "v" if isinstance(instance.density, RadialDensity) else "alpha"
    dens0 = getattr(instance.density, part)
    dens2 = getattr(second.instance.density, part)
    with np.errstate(all="ignore"):
        devs = np.column_stack((abs(qs2 - ts - shift),
                                abs(second.instance.metric.phi.value(qs2)
                                    - instance.metric.phi.value(ts)),
                                abs(dens2.value(qs2) - dens0.value(ts))))
    return _sup(devs.ravel().tolist())  # point by point: coordinate, warping, density

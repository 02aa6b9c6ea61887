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

The coordinate map and the reparameterized profiles evaluate 1-D arrays,
like every profile, and a float as the one-entry array
(``profiles._at_float``).  An array is inverted in one Newton solve that
runs each entry's own safeguarded iterates under masks, so an entry's
result does not depend on the other entries.  A ``ReparamProfile`` is a
quotient by the map's own factor u and evaluates by the protocol of
``profiles.Profile``; the profiles of one transformed grid share the map's
last inverse and u's last jet there, both remembered by
``profiles._last_array``, so a grid is solved and u differentiated once.
The table grows by rounds of panels, one array ``quad`` call per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy import ndarray

from .errors import DomainError, EvalError, UnsupportedError
from .geometry import PointSpec, Tensor2Blocks, WarpedMetric, \
    field_components, hessian_radial, ricci
from .jets import BiJet2, Jet2, _any, _check, power
from .profiles import Interval, Profile, _at_float, _last_array, _scalar_failure, sample_grid
from .weighted import (
    DensitySpec,
    Instance,
    RadialDensity,
    SplitDensity,
    _sup,
    f_bijet,
    point_fields,
)

# The 10-point Gauss-Legendre rule on [-1, 1]: the reprs of
# ``numpy.polynomial.legendre.leggauss(10)``, written out so that importing
# the package neither loads ``numpy.polynomial`` nor runs an eigensolver.
_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717,
])
_WEIGHTS = [
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814,
]


def _rule(fn, a: ndarray, b: ndarray) -> ndarray:
    """10-point Gauss-Legendre values of the integrals of fn from a to b,
    one rule per entry of the arrays a and b, with fn called once on all
    their nodes.  The terms are summed left to right from 0.0, which is
    what the builtin ``sum`` does with floats up to Python 3.11.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    vals = fn((mid[:, None] + half[:, None] * _NODES).ravel())
    acc = 0.0
    for w, col in zip(_WEIGHTS, vals.reshape(-1, _NODES.size).T):
        acc = acc + w * col
    return half * acc


def _pairs(x: ndarray, y: ndarray) -> ndarray:
    """x[0], y[0], x[1], y[1], ..."""
    return np.column_stack((x, y)).ravel()


def quad(fn, a, b):
    """Adaptive Gauss-Legendre integrals of fn over panels from a to b
    (b < a allowed), given as arrays of panel ends.

    A panel is halved until the rules on its halves agree with the rule on
    the whole to 1e-13 (absolute below 1), at most 200 times, since noisy
    integrands never settle, and never below a width of 1e-13 times its
    largest end, so that no node rounds onto an end.  All panels halve
    level by level, one fn call per level, and a panel's budget goes to the
    halvings of a level in order from a to b.  Returns the ends of the
    accepted halves without the panels' starts and the signed integrals up
    to them, panel after panel from a to b, the index one past each panel's
    last entry and each panel's summed disagreement, the error estimate.
    """
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    pid, budget, done = np.arange(lo.size), np.full(lo.size, 200), []
    with np.errstate(all="ignore"):  # as on floats: inf and NaN, no warning
        mid = 0.5 * (lo + hi)
        whole, left, right = _rule(fn, np.concatenate((lo, lo, mid)),
                                   np.concatenate((hi, mid, hi))).reshape(3, -1)
        while True:
            total = left + right
            diff = np.abs(total - whole)
            want = ~(diff <= 1e-13 * np.fmax(1.0, np.abs(total))) \
                & (np.abs(hi - lo) > 1e-13 * np.fmax(np.abs(lo), np.abs(hi)))
            rank = np.cumsum(want)  # this panel's halvings wanted so far:
            rank -= (rank - want)[np.searchsorted(pid, pid)]  # less earlier panels'
            split = want & (rank <= budget[pid])
            budget -= np.bincount(pid[split], minlength=budget.size)
            done.append([x[~split] for x in (pid, lo, mid, hi, left, right, diff)])
            if not split.any():
                break
            pid, lo, mid, hi, left, right = (x[split] for x in (pid, lo, mid, hi, left, right))
            pid, whole = np.repeat(pid, 2), _pairs(left, right)
            lo, hi = _pairs(lo, mid), _pairs(mid, hi)
            mid = 0.5 * (lo + hi)
            left, right = _rule(fn, np.concatenate((lo, mid)),
                                np.concatenate((mid, hi))).reshape(2, -1)
    pid, lo, mid, hi, left, right, diff = (np.concatenate(x) for x in zip(*done))
    order = np.lexsort((np.where(hi > lo, lo, -lo), pid))  # each panel from a to b
    pid, mid, hi, left, right, diff = (x[order] for x in (pid, mid, hi, left, right, diff))
    err = np.zeros(budget.size)
    np.add.at(err, pid, diff)  # in order, from 0.0
    ends, values = _pairs(mid, hi), _pairs(left, right)
    return ends, values, 2 * np.cumsum(np.bincount(pid, minlength=budget.size)), err


class ConformalMap:
    """Monotone coordinate change Q with Q'(t) = 1/u(t), Q(t_ref) = 0.

    Q is tabulated at panel ends in two sorted lists, starting from
    (t_ref, 0) and laid outward on demand by rounds of panels, one ``quad``
    call per round: toward a finite end each panel halves the distance
    left, toward an infinite end each doubles the reach.  forward(t) is the
    table entry below t plus one Gauss-Legendre rule up to t; inverse(q)
    finds the panel holding q and runs safeguarded Newton steps
    T -> T - (Q(T) - q) u(T) inside it.  The panels do not depend on the
    order of queries, so neither do the results.

    forward and inverse take a 1-D array, and a float as the one-entry
    array.  An array is covered once at its smallest and largest entry, and
    its Newton steps run over the entries still unconverged, one rule for
    all of them per step, so each entry takes its own iterates.  An array
    the array path cannot take (NaN, beyond the image, a factor that fails
    to evaluate) raises the error of its first failing entry
    (``profiles._scalar_failure``).  The last array inverted is remembered
    (``profiles._last_array``).

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
        self._laid = {-1: 0, 1: 0}         # panels laid on each side
        self._last = [None]  # the last array inverted, see profiles._last_array
        self._image = image

    def _integrand(self, x: ndarray) -> ndarray:
        """1/u at the nodes x, node by node where a guard of u fires: 0 at
        a node whose guard fires (an overflow guard far out, where 1/u is
        negligible), inf where u underflowed next to an end where it
        vanishes."""
        try:
            v = self.u.value(x)
        except EvalError:
            if x.size == 1:
                return np.zeros(1)
            return np.concatenate([self._integrand(x[i:i + 1]) for i in range(x.size)])
        return np.where(v == 0.0, math.inf, 1.0 / v)

    def _grow(self, side: int, target: float | None = None):
        """Lays a round of panels outward on side (+1 up, -1 down): up to
        target, or else as many as side has (at least 8) but none past the
        one that decides the image end.  If a round fails, its first panel
        is laid alone, to fail where one-panel growth does."""
        t = self._ts[-1] if side > 0 else self._ts[0]
        e = self.interval.hi if side > 0 else self.interval.lo
        growing = target is None
        size = max(8, self._laid[side]) if growing else math.inf
        panels = []  # (start, end, reach) of each panel, outward
        while True:
            reach = max(1.0, 2.0 * abs(t - self.t_ref))
            if math.isinf(e):
                b = self.t_ref + side * reach
            elif abs(e - t) <= 1e-13 * max(1.0, abs(e)):
                b = e
            else:
                b = t + 0.5 * (e - t)
            panels.append((t, b, reach))
            t = b
            if b == e or len(panels) == size or not (growing or side * (b - target) < 0):
                break  # a NaN target lays one panel
        starts, bs, _ = zip(*panels)
        try:
            ends, values, stops, err = quad(self._integrand, np.array(starts), np.array(bs))
        except (DomainError, EvalError):
            if len(panels) == 1:
                raise
            return self._grow(side, panels[0][1])
        new_q = list(accumulate(values.tolist(),
                                initial=self._qs[-1] if side > 0 else self._qs[0]))
        keep = len(panels)
        for j, (_, b, reach) in enumerate(panels if self._ends[side] is None else ()):
            q0, q = new_q[stops[j - 1] if j else 0], new_q[stops[j]]
            tol = 1e-6 * (1.0 + abs(q))
            if b == e:
                finite = math.isfinite(q) and err[j] <= tol
            elif math.isinf(e) and (q == q0 or reach >= 2.0 ** 64):
                finite = abs(q - q0) <= tol
            else:
                continue
            self._ends[side] = q if finite else side * math.inf
            keep = j + 1 if growing else keep
            break
        n = stops[keep - 1]
        if side > 0:
            self._ts.extend(ends[:n].tolist())
            self._qs.extend(new_q[1:n + 1])
        else:
            self._ts[:0] = ends[n - 1::-1].tolist()
            self._qs[:0] = new_q[n:0:-1]
        self._laid[side] += keep

    def _cover(self, x: float, table: list):
        """Lays panels until x lies within table, which is _ts or _qs."""
        while not table[0] <= x <= table[-1]:  # NaN grows down to a decided end
            side = 1 if x > table[-1] else -1
            if table is self._qs and self._ends[side] is not None:
                raise DomainError(f"image coordinate {x} beyond the mapped interval")
            self._grow(side, x if table is self._ts else None)

    def _on_array(self, solve, method, xs: ndarray, table: list) -> ndarray:
        """solve(xs, ts, qs) on the table as arrays once it covers xs (which
        table names, _ts or _qs).  A failure raises the error of the first
        failing entry, the float call of method (``_scalar_failure``)."""
        if not xs.size:
            return xs.copy()
        try:
            self._cover(float(xs.min()), table)  # NaN grows down to a decided end
            self._cover(float(xs.max()), table)
            with np.errstate(all="ignore"):  # as on floats: inf, no warning
                return solve(xs, np.array(self._ts), np.array(self._qs))
        except (DomainError, EvalError) as exc:
            _scalar_failure(method, xs, exc)

    def forward(self, t):
        if type(t) is not ndarray:
            return _at_float(self.forward, t)
        self.interval.require(t)
        return self._on_array(self._forward_many, self.forward, t, self._ts)

    def _forward_many(self, t: ndarray, ts: ndarray, qs: ndarray) -> ndarray:
        i = np.searchsorted(ts, t, side="right") - 1
        out = qs[i]
        off = np.flatnonzero(ts[i] != t)
        out[off] = self._q(i[off], t[off], ts, qs)
        return out

    def _q(self, i: ndarray, t: ndarray, ts: ndarray, qs: ndarray) -> ndarray:
        """Q(t) for t inside the panel from ts[i] to ts[i + 1]: Q at its
        start plus one rule up to t.  A panel that starts at the open lower
        end of the interval is taken from its far end instead, so that no
        node rounds onto the end, where u need not be defined."""
        back = i == 0 if ts[0] == self.interval.lo and not self.interval.closed_lo else None
        if back is None or not back.any():
            return qs[i] + _rule(self._integrand, ts[i], t)
        j = np.where(back, i + 1, i)
        rule = _rule(self._integrand, np.where(back, t, ts[j]), np.where(back, ts[j], t))
        return np.where(back, qs[j] - rule, qs[j] + rule)

    def inverse(self, q):
        if type(q) is not ndarray:
            return _at_float(self.inverse, q)
        return _last_array(self._last, 0, q, lambda q: (
            self._on_array(self._invert_many, self.inverse, q, self._qs),))[0]

    def _invert_many(self, q_all: ndarray, ts: ndarray, qs: ndarray) -> ndarray:
        """T at every entry of q_all, each distinct q solved once: the
        interpolated seed in its panel, then up to 80 Newton steps kept
        inside the bracket (bisecting when a step leaves it) until
        |Q(T) - q| <= 1e-15 (max(1, |q|) + 1), on the entries still running."""
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
            resid = self._q(i, t, ts, qs) - q
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


def _pulled(j: Jet2, dT, ddT) -> Jet2:
    """The jet of f o T from the jet j of f at T and T' = dT, T'' = ddT."""
    return Jet2(j.value, j.d1 * dT, j.d2 * dT * dT + j.d1 * ddT)


class ReparamProfile(Profile):
    """Profile (num o T) / (u o T) on the image of a conformal map, where u
    is the map's own factor and T its inverse coordinate change; num may be
    omitted (the constant 1).

    It evaluates by the protocol of ``profiles.Profile``: on a 1-D array of
    points the map inverts the array once, and the value or the array jets
    of num and u there are composed with it.  ``value`` takes no jets.
    """

    def __init__(self, cmap: ConformalMap, num=None):
        self.cmap = cmap
        self.num = num
        self.domain = cmap.image_interval()
        self._last = [None, None]  # last array value and jet, see _last_array

    def _compute(self, q: ndarray, which: int) -> tuple:
        t = self.cmap.inverse(q)
        if which:
            uj = self.cmap.u.jet(t)
            dT, ddT = uj.value, uj.d1 * uj.value  # T' = u(T), T'' = u'(T) u(T)
            top = Jet2.constant(1.0) if self.num is None else _pulled(self.num.jet(t), dT, ddT)
            out = top / _pulled(uj, dT, ddT)
            return out.value, out.d1, out.d2
        num = 1.0 if self.num is None else self.num.value(t)
        den = self.cmap.u.value(t)
        if _any(den == 0.0):
            raise EvalError("division by zero")
        return (_check(num / den),)

    def check_positive(self, samples: int = 10_000, margin: float = 1e-4):
        """Positivity of num and u on the base interval.

        T maps the image onto the base interval, so the quotient is positive
        on the image exactly when num/u is positive on the base; requiring
        both parts to be positive there is at least as strict.
        """
        for part in (self.num, self.cmap.u):
            if part is not None:
                part.check_positive(samples=samples, margin=margin)

    def to_string(self) -> str:
        top = "" if self.num is None else self.num.to_string() + " "
        return f"reparam({top}/ {self.cmap.u.to_string()})"


@dataclass
class TransformResult:
    """The transformed instance and the coordinate map; the factor u is the
    map's own (cmap.u)."""

    instance: Instance
    cmap: ConformalMap


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
    phi_hat = ReparamProfile(cmap, num=metric.phi)
    metric_hat = WarpedMetric(image, phi_hat, metric.fiber)
    dens = instance.density
    if isinstance(dens, SplitDensity):
        alpha_hat = ReparamProfile(cmap, num=dens.alpha)
        dens_hat: DensitySpec = SplitDensity(dens.v_n, alpha_hat)
    elif isinstance(dens, RadialDensity):
        dens_hat = RadialDensity(ReparamProfile(cmap, num=dens.v))
    else:
        raise UnsupportedError(f"no conformal rule for density {dens!r}")
    inst = Instance(metric_hat, dens_hat, instance.params,
                    complete=instance.complete, compact=instance.compact)
    return TransformResult(inst, cmap)


def inverse_factor(result: TransformResult) -> ReparamProfile:
    """The factor that undoes the change: 1/u carried to the image frame."""
    return ReparamProfile(result.cmap)


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


def conformal_law_residuals(instance: Instance, result: TransformResult,
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
    hat, u = result.instance, result.cmap.u
    ts = np.asarray(ts, dtype=float)
    ss = None
    if metric.split(dens.s_active(metric)):
        ss = np.full(ts.shape, sample_grid(metric.fiber.probe_domain(), 5, margin=0.2)[2])
    pt = PointSpec(ts, ss)
    pt_hat = PointSpec(result.cmap.forward(ts), ss)
    with np.errstate(all="ignore"):  # as on floats: inf and NaN fail the sups
        uj = u.jet(pt.t)
        uv, du, ddu = uj.value, uj.d1, uj.d2

        # original-frame ingredients
        rho = ricci(metric, pt)
        hes_u = hessian_radial(metric, u, pt)
        lap_u = hes_u.trace()
        phi_val = metric.phi.value(pt.t)

        # law: ordinary Ricci
        law_rho = rho.combine(hes_u, 1.0, (n - 2.0) / uv) \
                     .scale_shift(1.0, lap_u / uv - (n - 1.0) * power(du / uv, 2))

        # transformed-frame direct values, converted to the original frame
        direct = point_fields(hat.metric, hat.density, params, pt_hat)
        ricci_dev = direct.rho.scale_shift(1.0 / power(uv, 2)) \
                              .combine(law_rho, 1.0, -1.0).sup_dev(0.0)

        # law: modified Ricci via the transformed Hessian of v^ = v/u
        vb = dens.v_bijet(metric, pt)
        ub = BiJet2.lift_t(uj)
        vhat_b = vb / ub
        vhat = vhat_b.value
        fc = field_components(metric, vhat_b, pt)
        sym = _symmetric_product(rho.structure, du, 0.0, vhat_b.dt, vhat_b.ds, phi_val)
        inner = du * vhat_b.dt
        hes_hat_v = fc.hess.combine(sym, 1.0, 1.0 / uv) \
                           .scale_shift(1.0, -inner / uv)
        law_be = law_rho.combine(hes_hat_v, 1.0, -m / vhat)
        modified = direct.be.scale_shift(1.0 / power(uv, 2)) \
                            .combine(law_be, 1.0, -1.0).sup_dev(0.0)

        # law: weighted scalar and Schouten
        fb = f_bijet(vb, m, pt)
        fhat_t = fb.dt + m * du / uv
        fhat_s = fb.ds
        fch = field_components(metric, BiJet2(0.0, fhat_t, fhat_s,
                                              fb.dtt + m * (ddu * uv - du * du)
                                              / power(uv, 2),
                                              fb.dts, fb.dss), pt)
        tau_hat = power(uv, 2) * law_rho.trace()
        grad_fhat = power(uv, 2) * (power(fhat_t, 2)
                                    + (power(fhat_s / phi_val, 2) if ss is not None else 0.0))
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
    return {"ricci": _sup(ricci_dev), "modified_ricci": _sup(modified),
            "schouten": _sup(schouten), "scalar": _sup(scalar)}


def involution_residual(instance: Instance, result: TransformResult, ts) -> float:
    """Round-trip deviation after the change of result and then its inverse.

    The composite coordinate map is a pure translation of the base
    coordinate (each map anchors its own reference point), so coordinates
    are compared after removing the constant shift, and warping and density
    values are compared at corresponding points.  Every map and profile is
    evaluated on all points at once; the sup runs point by point.
    """
    base = instance.metric.interval
    ref = result.cmap.t_ref
    # undoing the change recovers the base interval up to the translation
    # that re-anchors the reference point, so the image is known exactly
    back = Interval(base.lo - ref, base.hi - ref,
                    closed_lo=base.closed_lo, closed_hi=base.closed_hi)
    second = apply_conformal(result.instance, inverse_factor(result),
                             t_ref=0.0, image=back)
    ts = np.asarray(ts, dtype=float)
    qs2 = second.cmap.forward(result.cmap.forward(ts))
    shift = qs2[0] - ts[0]
    part = "v" if isinstance(instance.density, RadialDensity) else "alpha"
    dens0 = getattr(instance.density, part)
    dens2 = getattr(second.instance.density, part)
    with np.errstate(all="ignore"):
        devs = np.column_stack((abs(qs2 - ts - shift),
                                abs(second.instance.metric.phi.value(qs2)
                                    - instance.metric.phi.value(ts)),
                                abs(dens2.value(qs2) - dens0.value(ts))))
    return _sup(devs.ravel())  # point by point: coordinate, warping, density

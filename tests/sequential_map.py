"""Float references for the coordinate map.

``reference_quad`` is the depth-first adaptive rule, one panel per call,
and ``SequentialMap`` lays its table one such panel at a time, deciding the
image ends after each panel.  ``reference_forward`` and
``reference_inverse`` evaluate the map at one float, by a bisection search
of its table and a float Newton loop, and ``reference_reparam`` composes a
``ReparamProfile`` at the base point that ``reference_inverse`` gives by
the chain rule on floats.  ``smmskit.conformal`` lays whole
rounds of panels in array calls and solves whole arrays under masks
instead; the parity tests compare the two bit for bit.  Each rule here is
the package's array ``_rule`` on a one-panel array, which gives the bits of
the 10-term float sum.  Nothing here is a code path of the package.
"""

import bisect
import math
from itertools import accumulate

import numpy as np

from smmskit.conformal import ConformalMap, ReparamProfile, _rule
from smmskit.jets import Jet2, _check


def _panel(fn, a: float, b: float) -> float:
    """The 10-point rule of fn from a to b, as a float."""
    return _rule(fn, np.array([a]), np.array([b])).item()


def reference_quad(fn, a: float, b: float):
    """Adaptive Gauss-Legendre integral of fn from a to b on floats: the
    halves of a panel are taken depth first from a, and the 200 halvings
    of the budget go in that order."""
    ends, values, err, budget = [a], [], 0.0, 200
    todo = [(a, b, _panel(fn, a, b))]
    while todo:
        lo, hi, whole = todo.pop()
        mid = 0.5 * (lo + hi)
        left, right = _panel(fn, lo, mid), _panel(fn, mid, hi)
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


class SequentialMap(ConformalMap):
    """ConformalMap whose table grows by one ``reference_quad`` panel per
    step, whatever the query."""

    def _grow(self, side: int, target=None):
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
        ends, values, err = reference_quad(self._integrand, t0, b)
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


def _q(cmap: ConformalMap, i: int, t: float) -> float:
    """Q(t) for t inside the panel from table entry i: from the panel's far
    end when it starts at the open lower end of the interval."""
    ts, qs, iv = cmap._ts, cmap._qs, cmap.interval
    if i == 0 and ts[0] == iv.lo and not iv.closed_lo:
        return qs[1] - _panel(cmap._integrand, t, ts[1])
    return qs[i] + _panel(cmap._integrand, ts[i], t)


def reference_forward(cmap: ConformalMap, t: float) -> float:
    """Q(t): the table entry at or below t, or Q of its panel at t."""
    cmap.interval.require(t)
    cmap._cover(t, cmap._ts)
    i = bisect.bisect_right(cmap._ts, t) - 1
    return cmap._qs[i] if cmap._ts[i] == t else _q(cmap, i, t)


def reference_inverse(cmap: ConformalMap, q: float) -> float:
    """T(q): the interpolated seed in the panel holding q, then up to 80
    Newton steps T -> T - (Q(T) - q) u(T), bisecting when a step leaves the
    bracket, until |Q(T) - q| <= 1e-15 (max(1, |q|) + 1)."""
    cmap._cover(q, cmap._qs)
    ts, qs = cmap._ts, cmap._qs
    i = bisect.bisect_right(qs, q) - 1
    if qs[i] == q:
        return ts[i]
    lo, hi = ts[i], ts[i + 1]
    t = lo + (hi - lo) * ((q - qs[i]) / (qs[i + 1] - qs[i]))
    if not lo < t < hi:
        t = 0.5 * (lo + hi)
    tol = 1e-15 * max(1.0, abs(q)) + 1e-15
    for _ in range(80):
        resid = _q(cmap, i, t) - q
        if abs(resid) <= tol:
            break
        if resid > 0.0:
            hi = t
        else:
            lo = t
        t_new = t - resid * cmap.u.value(t)
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        t = t_new
    return t


def reference_reparam(prof: ReparamProfile, t: float) -> tuple:
    """(value, jet) of prof at Q(t), for the base point t of a float
    reference_inverse: the part and the map's u at t as floats, composed
    on floats."""
    u = prof.cmap.u
    uv = u.jet(t)
    dT, ddT = uv.value, uv.d1 * uv.value

    def pulled(base):
        bj = base.jet(t)
        return Jet2(bj.value, bj.d1 * dT, bj.d2 * dT * dT + bj.d1 * ddT)

    num = 1.0 if prof.num is None else prof.num.value(t)
    top = Jet2.constant(1.0) if prof.num is None else pulled(prof.num)
    return _check(num / u.value(t)), top / pulled(u)

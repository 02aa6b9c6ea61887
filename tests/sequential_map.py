"""A float reference for the growth of the coordinate map's table.

``reference_quad`` is the depth-first adaptive rule on floats, one panel
per call, and ``SequentialMap`` lays its table one such panel at a time
through the float integrand, deciding the image ends after each panel.
``smmskit.conformal`` lays whole rounds of panels in array calls instead;
the parity tests compare the two bit for bit.  Nothing here is a code path
of the package.
"""

import math
from itertools import accumulate

from smmskit.conformal import ConformalMap, _rule


def reference_quad(fn, a: float, b: float):
    """Adaptive Gauss-Legendre integral of fn from a to b on floats: the
    halves of a panel are taken depth first from a, and the 200 halvings
    of the budget go in that order."""
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

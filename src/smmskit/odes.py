"""Comparison ODE machinery: closed-form solutions, first integrals, RK4.

The linear comparison equation u'' + 2 lam u = nu (constant right side)
drives both the conformal-pair functions and the density coefficient alpha.
Solutions carry the conserved quantity lam_hat of the first integral
(u')^2 = -2 lam u^2 + 2 nu u - 2 lam_hat, and the paired warping phi = u'
satisfies the constant identity 2 lam phi^2 + (phi')^2 = nu^2 - 4 lam lam_hat.

A fixed-step RK4 integrator for w'' = ddw(t, w, w') builds profiles for
warpings that have no closed form but satisfy known derivative relations; it
steps the pair (w, w') as Python floats.  The same step, on arrays, evaluates
an ``OdeProfile`` at a whole grid at once, and at a float as a one-entry
grid; ddw must take arrays (write its powers with ``jets.power``).  An
``OdeProfile`` keeps its trajectory once, as three read-only arrays that its
views share; the neck trajectory is integrated once per (m, window end,
step) in a process and shared, through views, by every ``neck_profile``
call and catalog make.

The diagnostics (``ode_residual`` and the other sups below) evaluate their
profile in one array jet call and take the sup NaN-propagating, so a NaN at
any sample is reported, never dropped.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvalError, PositivityError, StepError
from .jets import Jet2, power
from .profiles import Interval, Profile1D, _last_array
from .weighted import _mean, _spread, _sup

_REAL_LINE = Interval(-math.inf, math.inf)


def _fmt(x: float) -> str:
    return repr(float(x))


def _solution_expression(lam: float, nu: float, a: float, b: float) -> str:
    """Infix expression for the general solution of u'' + 2 lam u = nu.

    lam > 0: nu/(2 lam) + a cos(w t) + b sin(w t), w = sqrt(2 lam)
    lam = 0: nu t^2 / 2 + a t + b
    lam < 0: nu/(2 lam) + a cosh(w t) + b sinh(w t), w = sqrt(-2 lam)
    """
    if lam > 0.0:
        w = math.sqrt(2.0 * lam)
        return (f"{_fmt(nu / (2.0 * lam))} + {_fmt(a)}*cos({_fmt(w)}*t)"
                f" + {_fmt(b)}*sin({_fmt(w)}*t)")
    if lam < 0.0:
        w = math.sqrt(-2.0 * lam)
        return (f"{_fmt(nu / (2.0 * lam))} + {_fmt(a)}*cosh({_fmt(w)}*t)"
                f" + {_fmt(b)}*sinh({_fmt(w)}*t)")
    return f"{_fmt(nu / 2.0)}*t^2 + {_fmt(a)}*t + {_fmt(b)}"


@dataclass(frozen=True)
class ObataSolution:
    """Closed-form solution of the comparison equation u'' + 2 lam u = nu."""

    lam: float
    nu: float
    profile: Profile1D
    lam_hat: float

    @staticmethod
    def from_coefficients(lam: float, nu: float, a: float, b: float) -> "ObataSolution":
        prof = Profile1D.from_string(_solution_expression(lam, nu, a, b),
                                     _REAL_LINE, var="t")
        j = prof.jet(0.0)
        lam_hat = nu * j.value - lam * j.value ** 2 - 0.5 * j.d1 ** 2
        return ObataSolution(lam, nu, prof, lam_hat)

    @staticmethod
    def from_initial(lam: float, nu: float, u0: float, du0: float) -> "ObataSolution":
        """Solution with u(0) = u0, u'(0) = du0."""
        if lam > 0.0:
            w = math.sqrt(2.0 * lam)
            return ObataSolution.from_coefficients(lam, nu, u0 - nu / (2.0 * lam),
                                                   du0 / w)
        if lam < 0.0:
            w = math.sqrt(-2.0 * lam)
            return ObataSolution.from_coefficients(lam, nu, u0 - nu / (2.0 * lam),
                                                   du0 / w)
        return ObataSolution.from_coefficients(lam, nu, du0, u0)

    def derivative_profile(self) -> Profile1D:
        """u' as a closed-form profile (the paired warping)."""
        lam, nu = self.lam, self.nu
        j = self.profile.jet(0.0)
        if lam > 0.0:
            w = math.sqrt(2.0 * lam)
            a = (j.value - nu / (2.0 * lam))
            b = j.d1 / w
            expr = f"{_fmt(-a * w)}*sin({_fmt(w)}*t) + {_fmt(b * w)}*cos({_fmt(w)}*t)"
        elif lam < 0.0:
            w = math.sqrt(-2.0 * lam)
            a = (j.value - nu / (2.0 * lam))
            b = j.d1 / w
            expr = f"{_fmt(a * w)}*sinh({_fmt(w)}*t) + {_fmt(b * w)}*cosh({_fmt(w)}*t)"
        else:
            expr = f"{_fmt(nu)}*t + {_fmt(j.d1)}"
        return Profile1D.from_string(expr, _REAL_LINE, var="t")


def ode_residual(sol: ObataSolution, ts) -> float:
    """sup |u'' + 2 lam u - nu| over the sample points (exact jets)."""
    j = sol.profile.jet(np.asarray(ts, dtype=float))
    with np.errstate(all="ignore"):  # inf and NaN reach the sup
        return _sup(abs(j.d2 + 2.0 * sol.lam * j.value - sol.nu))


def first_integral_drift(sol: ObataSolution, ts) -> float:
    """sup |(u')^2 + 2 lam u^2 - 2 nu u + 2 lam_hat| over the sample points."""
    j = sol.profile.jet(np.asarray(ts, dtype=float))
    with np.errstate(all="ignore"):
        val = power(j.d1, 2) + 2.0 * sol.lam * power(j.value, 2) \
            - 2.0 * sol.nu * j.value + 2.0 * sol.lam_hat
        return _sup(abs(val))


def nu_identity_residual(sol: ObataSolution, ts) -> float:
    """sup |2 lam (u')^2 + (u'')^2 - (nu^2 - 4 lam lam_hat)| over the points.

    With phi = u' this is the constant identity tying the warping to the
    conserved quantities.
    """
    target = sol.nu ** 2 - 4.0 * sol.lam * sol.lam_hat
    j = sol.profile.jet(np.asarray(ts, dtype=float))
    with np.errstate(all="ignore"):
        ddu = sol.nu - 2.0 * sol.lam * j.value
        return _sup(abs(2.0 * sol.lam * power(j.d1, 2) + power(ddu, 2) - target))


def xi_constant(phi, alpha, kappa: float, lam: float, ts) -> tuple:
    """(mean, spread) of xi(t) = alpha' phi' - (kappa - 2 lam alpha) phi.

    Constant exactly when alpha solves the comparison equation with right
    side kappa against the warping phi of the same instance.  The spread is
    NaN when any xi is.
    """
    ts = np.asarray(ts, dtype=float)
    pj = phi.jet(ts)
    aj = alpha.jet(ts)
    with np.errstate(all="ignore"):
        xi = aj.d1 * pj.d1 - (kappa - 2.0 * lam * aj.value) * pj.value
    xi = np.broadcast_to(xi, ts.shape)
    return _mean(xi), _spread(xi)


def fiber_obata_residual(fiber, k: int = 64) -> float:
    """Deviation of declared fiber data from Hes v_N = -(xi + c v_N) g_N.

    Samples the fiber probe coordinate; for space-form realizations the
    orthogonal component uses the canonical polar warping.
    """
    from .geometry import EinsteinFiber
    from .profiles import sample_grid

    if not isinstance(fiber, EinsteinFiber) or fiber.obata is None:
        raise EvalError("fiber carries no declared comparison data")
    ob = fiber.obata
    ss = sample_grid(ob.v_n.domain, k, margin=0.02)
    j = ob.v_n.jet(ss)
    with np.errstate(all="ignore"):
        target = -(ob.xi + ob.c * j.value)
        if ob.v_n.is_constant():
            # the Hessian vanishes identically; the equation needs target = 0
            orth = abs(target)
        else:
            orth = abs(fiber.orth_hess_factor(ss) * j.d1 - target)
        return _sup(np.maximum(abs(j.d2 - target), orth))


# ---------------------------------------------------------------------------
# fixed-step RK4

def rk4_integrate(ddw, w0: float, dw0: float, t0: float, t1: float, step: float):
    """Classical RK4 with fixed step for w'' = ddw(t, w, w').

    Returns (ts, ys) including endpoints, with ys[:, 0] = w and ys[:, 1] = w'.
    The steps run on Python floats and each state is stored, exactly, into
    arrays allocated up front.  Raises StepError when the state stops being
    finite.
    """
    if step <= 0.0:
        raise StepError("step must be positive")
    t0, t1, step = float(t0), float(t1), float(step)
    n_steps = max(int(math.ceil((t1 - t0) / step - 1e-12)), 0)
    ts, ys = np.empty(n_steps + 1), np.empty((n_steps + 1, 2))
    tv, yv = memoryview(ts), memoryview(ys)  # cheaper stores than ndarray's
    w, dw = float(w0), float(dw0)
    t = t0
    tv[0], yv[0, 0], yv[0, 1] = t, w, dw
    for i in range(1, n_steps + 1):
        h = min(step, t1 - t)
        w, dw = _rk4_step(ddw, t, w, dw, h)
        t = t0 + i * step if i < n_steps else t1
        if not (math.isfinite(w) and math.isfinite(dw)):
            raise StepError(f"integration left the finite range at t = {t}")
        tv[i], yv[i, 0], yv[i, 1] = t, w, dw
    return ts, ys


def _rk4_step(ddw, t, w, dw, h):
    """One RK4 step of the first-order system (w, w')' = (w', ddw(t, w, w'))."""
    k1, l1 = dw, ddw(t, w, dw)
    w2, dw2 = w + 0.5 * h * k1, dw + 0.5 * h * l1
    k2, l2 = dw2, ddw(t + 0.5 * h, w2, dw2)
    w3, dw3 = w + 0.5 * h * k2, dw + 0.5 * h * l2
    k3, l3 = dw3, ddw(t + 0.5 * h, w3, dw3)
    w4, dw4 = w + h * k3, dw + h * l3
    k4, l4 = dw4, ddw(t + h, w4, dw4)
    return (w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
            dw + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4))


class OdeProfile:
    """Profile defined by a second-order ODE with closed derivative relations.

    Stores a fixed-step RK4 trajectory of (w, w'); evaluation at an arbitrary
    point takes a single RK4 substep from the nearest stored node (local
    error O(step^5)), and second derivatives come from the exact relation
    ddw(w, w', t) so jets satisfy the defining equation identically.  A
    derivative view (see ``derivative``) reads w' from the same trajectory.
    ``value`` and ``jet`` take a float or a 1-D array of points; on an array
    every point takes its substep at once, and a float is evaluated as the
    one-entry array, so both run the same node arithmetic.
    The last array state (w, w'), which ``value`` reads, and the last array
    jet are remembered as read-only arrays (``profiles._last_array``); views
    start with nothing remembered.  The trajectory itself is stored once, as
    the read-only arrays ``_nodes = (t, w, w')``; views (and, through
    ``neck_profile``, every make with the same key) share them.
    """

    def __init__(self, ddw, y0, domain: Interval, step: float = 1e-3,
                 name: str = "ode"):
        lo, hi = domain.lo, domain.hi
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("ODE profiles need a bounded domain")
        self.ddw = ddw
        self.d3 = None  # closed form of w''' on a derivative view
        # the trajectory includes both endpoints, so the domain is closed
        self.domain = Interval(lo, hi, closed_lo=True, closed_hi=True)
        self.name = name
        self.step = float(step)
        self._t0 = lo
        ts, ys = rk4_integrate(ddw, y0[0], y0[1], lo, hi, self.step)
        self._nodes = (ts, ys[:, 0], ys[:, 1])  # shared by every view
        for a in self._nodes:
            a.flags.writeable = False
        self._last = [None, None]  # last array state (w, w') and jet

    def _view(self) -> "OdeProfile":
        """Shallow copy on the same trajectory, with nothing remembered: a
        view's domain and derivative differ from its base's."""
        out = copy.copy(self)
        out._last = [None, None]
        return out

    def _state(self, t) -> tuple:
        if isinstance(t, np.ndarray):
            return _last_array(self._last, 0, t, self._states)
        # a float is the one-entry grid, unremembered: it never evicts a grid
        w, dw = self._states(np.array([float(t)]))
        return w.item(), dw.item()

    def _states(self, t: np.ndarray) -> tuple:
        """(w, w') at every entry of t: one RK4 substep from the stored
        node at or below each entry, or that node's state on a node."""
        self.domain.require(t)
        ts, ws, dws = self._nodes
        i = np.clip(((t - self._t0) / self.step).astype(int), 0, len(ts) - 1)
        i = np.where((i > 0) & (ts[i] > t), i - 1, i)
        h = t - ts[i]
        w, dw = _rk4_step(self.ddw, ts[i], ws[i], dws[i], h)
        at_node = h == 0.0  # exactly the stored state there
        return np.where(at_node, ws[i], w), np.where(at_node, dws[i], dw)

    def value(self, t):
        return self._state(t)[0 if self.d3 is None else 1]

    def jet(self, t) -> Jet2:
        if isinstance(t, np.ndarray):
            return Jet2(*_last_array(self._last, 1, t, self._jet_parts))
        return Jet2(*self._jet_parts(t))

    def _jet_parts(self, t) -> tuple:
        w, dw = self._state(t)
        ddw = self.ddw(t, w, dw)
        if self.d3 is None:
            return w, dw, ddw
        return dw, ddw, self.d3(t, w, dw)

    def is_constant(self) -> bool:
        return False

    def check_positive(self, samples: int = 10_000, margin: float = 1e-4):
        """Positivity at every stored node of the window and at its ends.

        The nodes are the sample; the closed domain leaves no margin inset.
        """
        lo, hi = self.domain.lo, self.domain.hi
        ts = self._nodes[0]
        vals = self._nodes[1 if self.d3 is None else 2]
        inside = vals.min(where=(ts >= lo) & (ts <= hi), initial=math.inf)
        vmin = min(float(inside), self.value(lo), self.value(hi))
        if vmin <= 0.0:
            raise PositivityError(f"profile {self.name} reaches {vmin}")

    def restricted(self, lo: float, hi: float) -> "OdeProfile":
        """Shallow view of the same trajectory on a subwindow."""
        if lo < self.domain.lo or hi > self.domain.hi:
            raise DomainError("restriction window exceeds the integrated range")
        out = self._view()
        out.domain = Interval(lo, hi, closed_lo=True, closed_hi=True)
        return out

    def derivative(self, d3, name: str) -> "OdeProfile":
        """Shallow view of w' on the same trajectory and window.

        Its jets are (w', w'', w''') with w'' from the defining relation and
        w''' from the closed form d3(t, w, w').
        """
        out = self._view()
        out.d3 = d3
        out.name = name
        return out

    def to_string(self) -> str:
        return f"<{self.name}>"


def neck_profile(m: float, domain: Interval, step: float = 1e-3) -> OdeProfile:
    """Even warping w with w(0) = 1, w'(0) = 0, w'' = (m-1)/2 w^{-m}.

    First integral: (w')^2 = 1 - w^{1-m}.  For m = 3 the closed form is
    sqrt(1 + t^2).  Returns a view (nothing remembered) of the one
    trajectory integrated per (m, domain.hi, step) in this process.
    """
    if m <= 1.0:
        raise DomainError("neck profile needs m > 1")
    if domain.lo < 0.0:
        raise DomainError("neck profile lives on t >= 0")
    out = _neck_trajectory(float(m), float(domain.hi), float(step))._view()
    out.name = f"neck(m={m})"
    return out


@functools.lru_cache(maxsize=16)
def _neck_trajectory(m: float, hi: float, step: float) -> OdeProfile:
    """The neck OdeProfile on [0, hi], integrated once per key.

    The bound is a few times the four weights that acceptance criterion 06
    sweeps.  Callers get ``_view``s, so the cached base is never evaluated
    and never changed.
    """
    def ddw(t, w, dw):
        return 0.5 * (m - 1.0) * power(w, -m)

    return OdeProfile(ddw, (1.0, 0.0), Interval(0.0, hi), step=step)


def neck_first_integral_drift(prof: OdeProfile, m: float, ts) -> float:
    """sup |(w')^2 - 1 + w^{1-m}| over the sample points."""
    j = prof.jet(np.asarray(ts, dtype=float))
    with np.errstate(all="ignore"):
        return _sup(abs(power(j.d1, 2) - 1.0 + power(j.value, 1.0 - m)))

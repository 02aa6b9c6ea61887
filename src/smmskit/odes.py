"""Comparison ODE machinery: closed-form solutions, first integrals, RK4.

The linear comparison equation u'' + 2 lam u = nu (constant right side)
drives both the conformal-pair functions and the density coefficient alpha.
Solutions carry the conserved quantity lam_hat of the first integral
(u')^2 = -2 lam u^2 + 2 nu u - 2 lam_hat, and the paired warping phi = u'
satisfies the constant identity 2 lam phi^2 + (phi')^2 = nu^2 - 4 lam lam_hat.

A fixed-step RK4 integrator builds profiles for warpings that have no
closed form but satisfy known derivative relations.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvalError, PositivityError, StepError
from .jets import Jet2
from .profiles import Interval, Profile1D, parse_expression

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
    out = 0.0
    for t in ts:
        j = sol.profile.jet(float(t))
        out = max(out, abs(j.d2 + 2.0 * sol.lam * j.value - sol.nu))
    return out


def first_integral_drift(sol: ObataSolution, ts) -> float:
    """sup |(u')^2 + 2 lam u^2 - 2 nu u + 2 lam_hat| over the sample points."""
    out = 0.0
    for t in ts:
        j = sol.profile.jet(float(t))
        val = j.d1 ** 2 + 2.0 * sol.lam * j.value ** 2 - 2.0 * sol.nu * j.value \
            + 2.0 * sol.lam_hat
        out = max(out, abs(val))
    return out


def nu_identity_residual(sol: ObataSolution, ts) -> float:
    """sup |2 lam (u')^2 + (u'')^2 - (nu^2 - 4 lam lam_hat)| over the points.

    With phi = u' this is the constant identity tying the warping to the
    conserved quantities.
    """
    target = sol.nu ** 2 - 4.0 * sol.lam * sol.lam_hat
    out = 0.0
    for t in ts:
        j = sol.profile.jet(float(t))
        ddu = sol.nu - 2.0 * sol.lam * j.value
        out = max(out, abs(2.0 * sol.lam * j.d1 ** 2 + ddu ** 2 - target))
    return out


def xi_constant(phi, alpha, kappa: float, lam: float, ts) -> tuple:
    """(mean, spread) of xi(t) = alpha' phi' - (kappa - 2 lam alpha) phi.

    Constant exactly when alpha solves the comparison equation with right
    side kappa against the warping phi of the same instance.
    """
    vals = []
    for t in ts:
        pj = phi.jet(float(t))
        aj = alpha.jet(float(t))
        vals.append(aj.d1 * pj.d1 - (kappa - 2.0 * lam * aj.value) * pj.value)
    mean = sum(vals) / len(vals)
    return mean, max(vals) - min(vals)


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
    dom = ob.v_n.domain
    constant = ob.v_n.is_constant()
    out = 0.0
    for s in sample_grid(dom, k, margin=0.02):
        j = ob.v_n.jet(float(s))
        target = -(ob.xi + ob.c * j.value)
        out = max(out, abs(j.d2 - target))
        if constant:
            # the Hessian vanishes identically; the equation needs target = 0
            out = max(out, abs(target))
        else:
            out = max(out, abs(fiber.orth_hess_factor(float(s)) * j.d1 - target))
    return out


# ---------------------------------------------------------------------------
# fixed-step RK4

def rk4_integrate(f, y0, t0: float, t1: float, step: float):
    """Classical RK4 with fixed step; returns (ts, ys) including endpoints.

    f(t, y) -> dy/dt with y a numpy vector.  Raises StepError when the state
    stops being finite.
    """
    if step <= 0.0:
        raise StepError("step must be positive")
    n_steps = int(math.ceil((t1 - t0) / step - 1e-12))
    ts = [t0]
    ys = [np.asarray(y0, dtype=float)]
    t, y = t0, np.asarray(y0, dtype=float)
    for i in range(n_steps):
        h = min(step, t1 - t)
        y = _rk4_step(f, t, y, h)
        t = t0 + (i + 1) * step if i + 1 < n_steps else t1
        if not np.all(np.isfinite(y)):
            raise StepError(f"integration left the finite range at t = {t}")
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys)


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class OdeProfile:
    """Profile defined by a second-order ODE with closed derivative relations.

    Stores a fixed-step RK4 trajectory of (w, w'); evaluation at an arbitrary
    point takes a single RK4 substep from the nearest stored node (local
    error O(step^5)), and second derivatives come from the exact relation
    ddw(w, w', t) so jets satisfy the defining equation identically.  A
    derivative view (see ``derivative``) reads w' from the same trajectory.
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

        def rhs(t, y):
            return np.array([y[1], ddw(t, y[0], y[1])])

        self._ts, self._ys = rk4_integrate(rhs, np.asarray(y0, float), lo, hi,
                                           self.step)
        self._rhs = rhs

    def _state(self, t: float) -> np.ndarray:
        self.domain.require(t)
        i = int((t - self._t0) / self.step)
        i = min(max(i, 0), len(self._ts) - 1)
        if i > 0 and self._ts[i] > t:
            i -= 1
        h = t - self._ts[i]
        y = self._ys[i]
        if h == 0.0:
            return y
        return _rk4_step(self._rhs, self._ts[i], y, h)

    def value(self, t: float) -> float:
        return float(self._state(t)[0 if self.d3 is None else 1])

    def jet(self, t: float) -> Jet2:
        w, dw = self._state(t)
        ddw = float(self.ddw(t, float(w), float(dw)))
        if self.d3 is None:
            return Jet2(float(w), float(dw), ddw)
        return Jet2(float(dw), ddw, float(self.d3(t, float(w), float(dw))))

    def is_constant(self) -> bool:
        return False

    def check_positive(self, samples: int = 10_000, margin: float = 1e-4):
        """Positivity at every stored node of the window and at its ends.

        The nodes are the sample; the closed domain leaves no margin inset.
        """
        lo, hi = self.domain.lo, self.domain.hi
        k = 0 if self.d3 is None else 1
        vals = [float(y[k]) for t, y in zip(self._ts, self._ys) if lo <= t <= hi]
        vals.extend((self.value(lo), self.value(hi)))
        vmin = min(vals)
        if vmin <= 0.0:
            raise PositivityError(f"profile {self.name} reaches {vmin}")

    def restricted(self, lo: float, hi: float) -> "OdeProfile":
        """Shallow view of the same trajectory on a subwindow."""
        if lo < self.domain.lo or hi > self.domain.hi:
            raise DomainError("restriction window exceeds the integrated range")
        out = copy.copy(self)
        out.domain = Interval(lo, hi, closed_lo=True, closed_hi=True)
        return out

    def derivative(self, d3, name: str) -> "OdeProfile":
        """Shallow view of w' on the same trajectory and window.

        Its jets are (w', w'', w''') with w'' from the defining relation and
        w''' from the closed form d3(t, w, w').
        """
        out = copy.copy(self)
        out.d3 = d3
        out.name = name
        return out

    def to_string(self) -> str:
        return f"<{self.name}>"


def neck_profile(m: float, domain: Interval, step: float = 1e-3) -> OdeProfile:
    """Even warping w with w(0) = 1, w'(0) = 0, w'' = (m-1)/2 w^{-m}.

    First integral: (w')^2 = 1 - w^{1-m}.  For m = 3 the closed form is
    sqrt(1 + t^2).
    """
    if m <= 1.0:
        raise DomainError("neck profile needs m > 1")

    def ddw(t, w, dw):
        return 0.5 * (m - 1.0) * w ** (-m)

    if domain.lo < 0.0:
        raise DomainError("neck profile lives on t >= 0")
    return OdeProfile(ddw, (1.0, 0.0), Interval(0.0, domain.hi), step=step,
                      name=f"neck(m={m})")


def neck_first_integral_drift(prof: OdeProfile, m: float, ts) -> float:
    """sup |(w')^2 - 1 + w^{1-m}| over the sample points."""
    out = 0.0
    for t in ts:
        j = prof.jet(float(t))
        out = max(out, abs(j.d1 ** 2 - 1.0 + j.value ** (1.0 - m)))
    return out

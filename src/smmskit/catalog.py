"""Catalog of verified closed-form instance families.

Each builder returns a FamilyBundle: a ready-to-verify Instance together
with the constants the pointwise evaluators are expected to reproduce
(weighted Einstein constant, scale kappa, characteristic constant mu), the
expected local and global structure branches and, where the family carries
one, a paired conformal factor with the predicted constant of the
transformed instance.  Every frozen constant was cross-checked against the
residual evaluators at machine precision before entry.

Sampling windows are finite even when the underlying family lives on an
unbounded manifold; the completeness flags describe the family, not the
window.  Exponential warpings use windows with |w t| <= 4 so that floating
point cancellation stays below the verification tolerances.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import dataclass

from .errors import AdmissibilityError, FormError, PositivityError
from .geometry import (
    EinsteinFiber,
    FiberObataData,
    NestedFiber,
    SpaceForm,
    WarpedMetric,
)
from .jets import power
from .odes import neck_profile
from .profiles import Interval, Profile1D
from .weighted import (
    Instance,
    RadialDensity,
    SmmsParams,
    SplitDensity,
)


@dataclass(frozen=True)
class PairData:
    """Conformal factor paired with an instance.

    u solves u'' + 2 lam u = nu with u' proportional to the warping, so the
    rescaled metric g / u^2 with density v / u is again weighted Einstein,
    with the predicted constant lam_hat.
    """

    u: object
    nu: float
    lam_hat: float


@dataclass
class FamilyBundle:
    """A catalog instance plus every constant it is expected to reproduce."""

    name: str
    instance: Instance
    lam: float
    kappa: float
    branch_local: str
    branch_global: str
    parameters: dict
    pair: PairData | None = None

    @property
    def params(self) -> SmmsParams:
        return self.instance.params

    def config(self, k: int = 1000, margin: float = 0.05) -> dict:
        """JSON-ready verification config with prefilled expectations."""
        out = {
            "schema": 1,
            "family": self.name,
            "parameters": dict(self.parameters),
            "grid": {"k": int(k), "margin": float(margin)},
            "flags": {
                "complete": self.instance.complete,
                "compact": self.instance.compact,
            },
            "expectations": {
                "lambda": self.lam,
                "kappa": self.kappa,
                "mu": self.instance.params.mu,
                "branch_local": self.branch_local,
                "branch_global": self.branch_global,
            },
        }
        if self.pair is not None:
            out["conformal"] = {
                "u": self.pair.u.to_string(),
                "nu": self.pair.nu,
            }
            out["expectations"]["lambda_hat"] = self.pair.lam_hat
        return out


def _require(cond: bool, message: str):
    if not cond:
        raise AdmissibilityError(message)


def _positive_density(profile, what: str):
    try:
        profile.check_positive(samples=2048)
    except PositivityError as exc:
        raise AdmissibilityError(f"{what} is not positive on the window: {exc}") from exc


# ---------------------------------------------------------------------------
# round sphere with an axial density

def weighted_sphere(n: int = 4, m: float = 2.0, lam: float = 0.5,
                    a: float = 1.2, b: float = 0.5) -> FamilyBundle:
    """Round sphere of sectional curvature 2 lam with density a + b cos(w t).

    The metric itself is Einstein; the density is a first eigenfunction of
    the Laplacian shifted to stay positive, which keeps the modified
    Schouten tensor equal to lam g with scale kappa = 2 lam a and
    characteristic constant mu = 2 lam (b^2 - a^2).
    """
    _require(n >= 2, "need dimension n >= 2")
    _require(m > 0.0, "weight must be positive")
    _require(lam > 0.0, "spherical family needs lam > 0")
    _require(a > abs(b), "density a + b cos needs a > |b| to stay positive")
    w = math.sqrt(2.0 * lam)
    iv = Interval(0.0, math.pi / w)
    phi = Profile1D.from_template("sin({0}*t)/{0}", (w,), iv, var="t")
    v = Profile1D.from_template("{0} + {1}*cos({2}*t)", (a, b, w), iv, var="t")
    metric = WarpedMetric(iv, phi, SpaceForm(n - 1, 1.0))
    params = SmmsParams(n, m, 2.0 * lam * (b * b - a * a))
    inst = Instance(metric, RadialDensity(v), params, complete=True, compact=True)
    pair = PairData(v, nu=2.0 * lam * a, lam_hat=lam * (a * a - b * b))
    local = "Trivial" if b == 0.0 else "Einstein"
    return FamilyBundle(
        "weighted_sphere", inst, lam=lam, kappa=2.0 * lam * a,
        branch_local=local, branch_global="SpaceForm",
        parameters={"n": n, "m": m, "lam": lam, "a": a, "b": b},
        pair=pair,
    )


# ---------------------------------------------------------------------------
# flat space with a quadratic density

def weighted_euclidean(n: int = 4, m: float = 2.0, a: float = 1.0,
                       b: float = 0.8) -> FamilyBundle:
    """Flat space in polar form with density a + b t^2 (lam = 0).

    kappa = 2 b is twice the quadratic coefficient; mu = -4 a b.
    """
    _require(n >= 2, "need dimension n >= 2")
    _require(m > 0.0, "weight must be positive")
    _require(a > 0.0, "density needs a > 0")
    _require(b >= 0.0, "density needs b >= 0 to stay positive at infinity")
    iv = Interval(0.0, math.inf)
    phi = Profile1D.from_string("t", iv, var="t")
    v = Profile1D.from_template("{0} + {1}*t^2", (a, b), iv, var="t")
    metric = WarpedMetric(iv, phi, SpaceForm(n - 1, 1.0))
    params = SmmsParams(n, m, -4.0 * a * b)
    inst = Instance(metric, RadialDensity(v), params, complete=True, compact=False)
    pair = PairData(v, nu=2.0 * b, lam_hat=2.0 * a * b)
    local = "Trivial" if b == 0.0 else "Einstein"
    return FamilyBundle(
        "weighted_euclidean", inst, lam=0.0, kappa=2.0 * b,
        branch_local=local, branch_global="SpaceForm",
        parameters={"n": n, "m": m, "a": a, "b": b},
        pair=pair,
    )


# ---------------------------------------------------------------------------
# hyperbolic space with a radial cosh density

def weighted_hyperbolic(n: int = 4, m: float = 2.0, lam: float = -0.5,
                        a: float = 1.2, b: float = 0.5) -> FamilyBundle:
    """Hyperbolic space of sectional curvature 2 lam with density a + b cosh(w t).

    kappa = 2 lam a; a = 0 additionally makes the instance quasi Einstein
    (kappa = 0) while the metric stays a space form.
    """
    _require(n >= 2, "need dimension n >= 2")
    _require(m > 0.0, "weight must be positive")
    _require(lam < 0.0, "hyperbolic family needs lam < 0")
    _require(a >= 0.0 and b >= 0.0 and a + b > 0.0,
             "density a + b cosh needs a, b >= 0 and a + b > 0")
    w = math.sqrt(-2.0 * lam)
    iv = Interval(0.0, 4.0 / w)
    phi = Profile1D.from_template("sinh({0}*t)/{0}", (w,), iv, var="t")
    v = Profile1D.from_template("{0} + {1}*cosh({2}*t)", (a, b, w), iv, var="t")
    metric = WarpedMetric(iv, phi, SpaceForm(n - 1, 1.0))
    params = SmmsParams(n, m, 2.0 * lam * (b * b - a * a))
    inst = Instance(metric, RadialDensity(v), params, complete=True, compact=False)
    pair = PairData(v, nu=2.0 * lam * a, lam_hat=lam * (a * a - b * b))
    local = "Trivial" if b == 0.0 else "Einstein"
    return FamilyBundle(
        "weighted_hyperbolic", inst, lam=lam, kappa=2.0 * lam * a,
        branch_local=local, branch_global="SpaceForm",
        parameters={"n": n, "m": m, "lam": lam, "a": a, "b": b},
        pair=pair,
    )


# ---------------------------------------------------------------------------
# density equal to the warping over an abstract Einstein fiber

def warping_density(n: int = 4, m: float = 3.0, lam: float = 0.5,
                    c: float = 1.0, pair_k: float | None = None) -> FamilyBundle:
    """Warped product whose density equals the warping function.

    The warping solves phi'' + 2 lam phi = 0 (scale c), the fiber is
    Einstein with constant beta = (n + m - 2) C where C = phi'^2 + 2 lam
    phi^2 is the conserved energy of the warping, and mu = beta / (m - 1).
    All three signs of lam are covered: sin, linear and sinh profiles.
    """
    _require(n >= 3, "abstract Einstein fiber needs n >= 3")
    _require(m > 0.0, "weight must be positive")
    _require(m != 1.0, "mu = beta/(m-1) is undefined at m = 1; this family needs m != 1")
    _require(c > 0.0, "warping scale must be positive")
    if lam > 0.0:
        w = math.sqrt(2.0 * lam)
        iv = Interval(0.0, math.pi / w)
        phi = Profile1D.from_template("{0}*sin({1}*t)", (c, w), iv, var="t")
        cc = 2.0 * lam * c * c
        k = (c / w + 1.0) if pair_k is None else float(pair_k)
        _require(k > c / w, "pair offset must exceed c/w for positivity")
        u = Profile1D.from_template("{0} - {1}*cos({2}*t)", (k, c / w, w), iv, var="t")
        nu = 2.0 * lam * k
        lam_hat = lam * k * k - c * c / 2.0
    elif lam == 0.0:
        iv = Interval(0.0, math.inf)
        phi = Profile1D.from_template("{0}*t", (c,), iv, var="t")
        cc = c * c
        k = 1.0 if pair_k is None else float(pair_k)
        _require(k > 0.0, "pair offset must be positive")
        u = Profile1D.from_template("{0}*t^2 + {1}", (0.5 * c, k), iv, var="t")
        nu = c
        lam_hat = c * k
    else:
        w = math.sqrt(-2.0 * lam)
        iv = Interval(0.0, 4.0 / w)
        phi = Profile1D.from_template("{0}*sinh({1}*t)", (c, w), iv, var="t")
        cc = -2.0 * lam * c * c
        k = 1.0 if pair_k is None else float(pair_k)
        _require(k > -c / w, "pair offset must exceed -c/w for positivity")
        u = Profile1D.from_template("{0}*cosh({1}*t) + {2}", (c / w, w, k), iv, var="t")
        nu = 2.0 * lam * k
        lam_hat = lam * k * k + c * c / 2.0
    beta = (n + m - 2.0) * cc
    metric = WarpedMetric(iv, phi, EinsteinFiber(n - 1, beta))
    params = SmmsParams(n, m, beta / (m - 1.0))
    inst = Instance(metric, RadialDensity(phi), params, complete=False, compact=False)
    pair = PairData(u, nu=nu, lam_hat=lam_hat)
    return FamilyBundle(
        "warping_density", inst, lam=lam, kappa=0.0,
        branch_local="QuasiEinstein", branch_global="NotApplicable",
        parameters={"n": n, "m": m, "lam": lam, "c": c, "pair_k": k},
        pair=pair,
    )


# ---------------------------------------------------------------------------
# exponential warping over a flat fiber

def exponential_warped(n: int = 4, m: float = 2.0, lam: float = -0.5,
                       a: float = 1.0, b: float = 0.5, kappa: float = -0.6,
                       pair_shift: float = 0.0) -> FamilyBundle:
    """Exponentially warped flat fiber: phi = a e^{w t}, v = kappa/(2 lam) + b e^{w t}.

    The metric is the hyperbolic space form in horospherical form; the
    density keeps kappa constant with mu = -kappa^2 / (2 lam).  kappa = 0
    reduces the density to a multiple of the warping (quasi Einstein).
    """
    _require(n >= 2, "need dimension n >= 2")
    _require(m > 0.0, "weight must be positive")
    _require(lam < 0.0, "exponential warping needs lam < 0")
    _require(a > 0.0, "warping scale must be positive")
    _require(b >= 0.0, "density slope must be nonnegative")
    _require(b > 0.0 or kappa < 0.0,
             "b = 0 needs kappa < 0 so the constant density stays positive")
    w = math.sqrt(-2.0 * lam)
    lo, hi = -4.0 / w, 4.0 / w
    if kappa > 0.0:
        # the density vanishes at t_min and the object lives above it
        t_min = math.log(-kappa / (2.0 * lam * b)) / w
        _require(t_min < hi, "no positive-density window for this kappa")
        lo = max(lo, t_min + 0.02 * (hi - t_min))
    iv = Interval(lo, hi)
    phi = Profile1D.from_template("{0}*exp({1}*t)", (a, w), iv, var="t")
    v = Profile1D.from_template("{0} + {1}*exp({2}*t)", (kappa / (2.0 * lam), b, w), iv, var="t")
    _positive_density(v, "density")
    metric = WarpedMetric(iv, phi, SpaceForm(n - 1, 0.0))
    params = SmmsParams(n, m, -kappa * kappa / (2.0 * lam))
    # the full-line object only stays positive when kappa/(2 lam) >= 0
    complete = kappa <= 0.0
    inst = Instance(metric, RadialDensity(v), params, complete=complete, compact=False)
    d = float(pair_shift)
    _require(d >= 0.0, "pair shift must be nonnegative")
    u = Profile1D.from_template("{0}*exp({1}*t) + {2}", (a / w, w, d), iv, var="t")
    pair = PairData(u, nu=2.0 * lam * d, lam_hat=lam * d * d)
    if not complete:
        branch_global = "NotApplicable"
    elif kappa == 0.0:
        branch_global = "ExpQuasiEinstein"
    else:
        branch_global = "ExpEinstein"
    branch_local = "Trivial" if b == 0.0 else "Einstein"
    return FamilyBundle(
        "exponential_warped", inst, lam=lam, kappa=kappa,
        branch_local=branch_local, branch_global=branch_global,
        parameters={"n": n, "m": m, "lam": lam, "a": a, "b": b,
                    "kappa": kappa, "pair_shift": d},
        pair=pair,
    )


# ---------------------------------------------------------------------------
# exponential warping over a two-dimensional neck fiber

_NECK_MAX_NODES = 100_000  # RK4 nodes of one neck trajectory, fiber_window[1] / step


def neck_warped(m: float = 3.0, lam: float = -0.5, a: float = 1.0,
                pair_shift: float = 0.0, fiber_window: tuple = (0.2, 6.0),
                step: float = 1e-3) -> FamilyBundle:
    """Exponential warping over the rotationally symmetric neck surface.

    The fiber is (dx^2 + omega'(x)^2 dtheta^2) with density omega, where
    omega solves omega'' = (m-1)/2 omega^{-m}, omega(0) = 1, omega'(0) = 0;
    its conserved energy omega'^2 + omega^{1-m} = 1 normalizes mu to 1.
    The fiber satisfies the fiber quasi Einstein equation exactly, and the
    exponential base warping phi = a e^{w t} closes the three-dimensional
    total space with kappa = 0.  For m = 3 the neck is sqrt(1 + x^2).
    """
    _require(m > 1.0, "neck profile needs weight m > 1")
    _require(lam < 0.0, "exponential warping needs lam < 0")
    _require(a > 0.0, "warping scale must be positive")
    lo, hi = float(fiber_window[0]), float(fiber_window[1])
    _require(0.0 < lo < hi, "fiber window must satisfy 0 < lo < hi")
    _require(step > 0.0, "RK4 step must be positive")
    _require(hi / step <= _NECK_MAX_NODES,
             f"fiber_window[1] / step = {hi / step:.6g} asks for more than"
             f" {_NECK_MAX_NODES} RK4 nodes")
    w = math.sqrt(-2.0 * lam)
    omega = neck_profile(m, Interval(0.0, hi), step=step)
    om_win = omega.restricted(lo, hi)
    omp_win = om_win.derivative(
        lambda t, wv, dw: -0.5 * m * (m - 1.0) * power(wv, -m - 1.0) * dw,
        name=f"neck'(m={m})",
    )
    inner = WarpedMetric(om_win.domain, omp_win, SpaceForm(1, 0.0))
    iv = Interval(-4.0 / w, 4.0 / w)
    phi = Profile1D.from_template("{0}*exp({1}*t)", (a, w), iv, var="t")
    metric = WarpedMetric(iv, phi, NestedFiber(inner))
    density = SplitDensity(om_win, Profile1D.constant(0.0, iv, var="t"))
    params = SmmsParams(3, m, 1.0)
    inst = Instance(metric, density, params, complete=True, compact=False)
    d = float(pair_shift)
    _require(d >= 0.0, "pair shift must be nonnegative")
    u = Profile1D.from_template("{0}*exp({1}*t) + {2}", (a / w, w, d), iv, var="t")
    pair = PairData(u, nu=2.0 * lam * d, lam_hat=lam * d * d)
    return FamilyBundle(
        "neck_warped", inst, lam=lam, kappa=0.0,
        branch_local="QuasiEinstein", branch_global="ExpQuasiEinstein",
        parameters={"m": m, "lam": lam, "a": a, "pair_shift": d,
                    "fiber_window": [lo, hi], "step": step},
        pair=pair,
    )


# ---------------------------------------------------------------------------
# product over a cone

def cone_product(n: int = 4, m: float = 2.0, scale: float = 1.0,
                 pair_slope: float = 0.25, pair_shift: float = 1.5) -> FamilyBundle:
    """Riemannian product of a line with a cone over an Einstein manifold.

    The cone dr^2 + r^2 g_E over an Einstein fiber with constant m + n - 3
    carries the linear density v = scale * r, which satisfies the fiber
    quasi Einstein equation exactly; the product is weighted Einstein at
    lam = 0 with kappa = 0 and mu = scale^2 (m + n - 3)/(m - 1).
    """
    _require(n >= 4, "cone fiber needs an Einstein factor of dimension >= 2, so n >= 4")
    _require(m > 0.0, "weight must be positive")
    _require(m != 1.0, "mu is undefined at m = 1; this family needs m != 1")
    _require(scale > 0.0, "density scale must be positive")
    beta_e = m + n - 3.0
    iv_r = Interval(0.0, 8.0)
    r = Profile1D.from_string("s", iv_r, var="s")
    cone = WarpedMetric(iv_r, r, EinsteinFiber(n - 2, beta_e))
    iv = Interval(-5.0, 5.0)
    metric = WarpedMetric(iv, Profile1D.constant(1.0, iv, var="t"), NestedFiber(cone))
    v_n = Profile1D.from_template("{0}*s", (scale,), iv_r, var="s")
    density = SplitDensity(v_n, Profile1D.constant(0.0, iv, var="t"))
    params = SmmsParams(n, m, scale * scale * beta_e / (m - 1.0))
    inst = Instance(metric, density, params, complete=False, compact=False)
    sa, sb = float(pair_slope), float(pair_shift)
    u = Profile1D.from_template("{0}*t + {1}", (sa, sb), iv, var="t")
    _positive_density(u, "pair factor")
    pair = PairData(u, nu=0.0, lam_hat=-sa * sa / 2.0)
    return FamilyBundle(
        "cone_product", inst, lam=0.0, kappa=0.0,
        branch_local="QuasiEinstein", branch_global="NotApplicable",
        parameters={"n": n, "m": m, "scale": scale,
                    "pair_slope": sa, "pair_shift": sb},
        pair=pair,
    )


# ---------------------------------------------------------------------------
# sphere density mixing base and fiber first harmonics

def skew_sphere_density(m: float = 2.0, lam: float = 0.5, fiber_amp: float = 0.2,
                        base_amp: float = 0.3, kappa: float = 2.2,
                        pair_nu: float = 1.8) -> FamilyBundle:
    """Round three-sphere with a density mixing misaligned first harmonics.

    v = fiber_amp * phi(t) cos(s) + base_amp * cos(w t) + kappa/(2 lam)
    combines first spherical harmonics along two different axes, so the
    density does not share the warping axis; kappa stays constant and
    mu = fiber_amp^2 + 2 lam base_amp^2 - kappa^2/(2 lam).
    """
    _require(m > 0.0, "weight must be positive")
    _require(lam > 0.0, "spherical family needs lam > 0")
    _require(fiber_amp != 0.0,
             "fiber amplitude must be nonzero (use weighted_sphere for axial densities)")
    w = math.sqrt(2.0 * lam)
    iv = Interval(0.0, math.pi / w)
    phi = Profile1D.from_template("sin({0}*t)/{0}", (w,), iv, var="t")
    iv_s = Interval(0.0, math.pi)
    v_n = Profile1D.from_template("{0}*cos(s)", (fiber_amp,), iv_s, var="s")
    fiber = EinsteinFiber(2, 1.0, obata=FiberObataData(v_n, xi=0.0, c=1.0))
    metric = WarpedMetric(iv, phi, fiber)
    alpha = Profile1D.from_template("{0}*cos({1}*t) + {2}",
                                    (base_amp, w, kappa / (2.0 * lam)), iv, var="t")
    density = SplitDensity(v_n, alpha)
    # sampled positivity of the combined density over the product window
    window = metric.grid(400, margin=0.01, s_active=True)
    if (density.v_bijet(metric, window).value <= 0.0).any():
        raise AdmissibilityError(
            "density is not positive on the sphere; increase kappa or shrink amplitudes")
    _require(kappa * kappa < math.inf,
             f"kappa = {kappa!r} is too large: kappa^2 overflows")
    mu = fiber_amp ** 2 + 2.0 * lam * base_amp ** 2 - kappa ** 2 / (2.0 * lam)
    params = SmmsParams(3, m, mu)
    inst = Instance(metric, density, params, complete=True, compact=True)
    _require(pair_nu > 1.0, "pair parameter nu must exceed 1 for positivity")
    _require(pair_nu * pair_nu < math.inf,
             f"pair_nu = {pair_nu!r} is too large: pair_nu^2 overflows")
    u = Profile1D.from_template("({0} - cos({1}*t))/{2}", (pair_nu, w, 2.0 * lam), iv, var="t")
    pair = PairData(u, nu=float(pair_nu),
                    lam_hat=(pair_nu ** 2 - 1.0) / (4.0 * lam))
    return FamilyBundle(
        "skew_sphere_density", inst, lam=lam, kappa=kappa,
        branch_local="Einstein", branch_global="SpaceForm",
        parameters={"m": m, "lam": lam, "fiber_amp": fiber_amp,
                    "base_amp": base_amp, "kappa": kappa, "pair_nu": pair_nu},
        pair=pair,
    )


# ---------------------------------------------------------------------------
# constant density over a space form

def constant_density(n: int = 4, m: float = 2.0, lam: float = 0.5,
                     a: float = 1.5, mu: float | None = None) -> FamilyBundle:
    """Space form of sectional curvature 2 lam with constant density a.

    With the canonical mu = -2 lam a^2 the verified constant equals lam and
    kappa = 2 lam a.  Any other mu still yields a weighted Einstein
    instance, but at the shifted constant

        lam_eff = [2 (n-1)(n+2m-2) lam - m (m-1) mu / a^2] / (2 D),
        D = (n+m-1)(n+m-2),

    whose sectional curvature no longer matches 2 lam_eff; on the compact
    sphere that mismatch makes the global classification raise.
    """
    _require(n >= 2, "need dimension n >= 2")
    _require(m > 0.0, "weight must be positive")
    _require(a > 0.0, "density level must be positive")
    _require(a * a > 0.0,
             f"density level a = {a!r} is too small: a^2 underflows to 0")
    if lam > 0.0:
        w = math.sqrt(2.0 * lam)
        iv = Interval(0.0, math.pi / w)
        phi = Profile1D.from_template("sin({0}*t)/{0}", (w,), iv, var="t")
    elif lam == 0.0:
        iv = Interval(0.0, math.inf)
        phi = Profile1D.from_string("t", iv, var="t")
    else:
        w = math.sqrt(-2.0 * lam)
        iv = Interval(0.0, 4.0 / w)
        phi = Profile1D.from_template("sinh({0}*t)/{0}", (w,), iv, var="t")
    metric = WarpedMetric(iv, phi, SpaceForm(n - 1, 1.0))
    density = RadialDensity(Profile1D.constant(a, iv, var="t"))
    canonical = mu is None or mu == -2.0 * lam * a * a
    mu_val = -2.0 * lam * a * a if mu is None else float(mu)
    params = SmmsParams(n, m, mu_val)
    inst = Instance(metric, density, params, complete=True, compact=lam > 0.0)
    dd = (n + m - 1.0) * (n + m - 2.0)
    lam_eff = ((n - 1.0) * (n + 2.0 * m - 2.0) * lam / dd
               - m * (m - 1.0) * mu_val / (2.0 * a * a * dd))
    tau_f = 2.0 * n * (n - 1.0) * lam + m * (m - 1.0) * mu_val / (a * a)
    j = tau_f / (2.0 * (n + m - 1.0))
    kappa_eff = ((m + n) * lam_eff - j) * a / m
    pair = None
    if canonical:
        pair = PairData(density.v, nu=2.0 * lam * a, lam_hat=lam * a * a)
    if canonical:
        branch_global = "SpaceForm"
    elif lam > 0.0:
        branch_global = "ContradictionError"
    else:
        branch_global = "Unclassified"
    return FamilyBundle(
        "constant_density", inst, lam=lam_eff, kappa=kappa_eff,
        branch_local="Trivial", branch_global=branch_global,
        parameters={"n": n, "m": m, "lam": lam, "a": a,
                    "mu": None if mu is None else float(mu)},
        pair=pair,
    )


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class FamilySpec:
    builder: object
    summary: str


FAMILIES = {
    "weighted_sphere": FamilySpec(
        weighted_sphere, "round sphere with axial density a + b cos"),
    "weighted_euclidean": FamilySpec(
        weighted_euclidean, "flat space with quadratic density a + b t^2"),
    "weighted_hyperbolic": FamilySpec(
        weighted_hyperbolic, "hyperbolic space with density a + b cosh"),
    "warping_density": FamilySpec(
        warping_density, "density equal to the warping over an Einstein fiber"),
    "exponential_warped": FamilySpec(
        exponential_warped, "exponential warping over a flat fiber"),
    "neck_warped": FamilySpec(
        neck_warped, "exponential warping over the rotational neck surface"),
    "cone_product": FamilySpec(
        cone_product, "product of a line with a linearly weighted cone"),
    "skew_sphere_density": FamilySpec(
        skew_sphere_density, "three-sphere density with misaligned harmonics"),
    "constant_density": FamilySpec(
        constant_density, "space form with constant density (mu may be shifted)"),
}


def available() -> list:
    return sorted(FAMILIES)


@functools.lru_cache(maxsize=16)  # one entry per family
def _signature_defaults(name: str) -> tuple:
    """(parameter, default) pairs of a family's builder, read once."""
    params = inspect.signature(FAMILIES[name].builder).parameters
    return tuple((pname, None if p.default is inspect.Parameter.empty else p.default)
                 for pname, p in params.items())


def defaults_of(name: str) -> dict:
    if name not in FAMILIES:
        raise AdmissibilityError(
            f"unknown family {name!r}; available: {', '.join(available())}")
    return dict(_signature_defaults(name))


def _finite(x, integer: bool = False) -> bool:
    kind = numbers.Integral if integer else numbers.Real
    return not isinstance(x, bool) and isinstance(x, kind) and math.isfinite(x)


def _check_override(name: str, key: str, value, default):
    """value has the shape of the parameter's default: an integer for an
    integer, a list of as many finite numbers for a tuple, a finite number
    (or None where the default is None) otherwise."""
    if isinstance(default, tuple):
        ok = (isinstance(value, (list, tuple)) and len(value) == len(default)
              and all(_finite(x) for x in value))
        want = f"a list of {len(default)} finite numbers"
    elif isinstance(default, int):
        ok, want = _finite(value, integer=True), "an integer"
    else:
        ok = _finite(value) or (default is None and value is None)
        want = "a finite number" + (" or null" if default is None else "")
    if not ok:
        raise AdmissibilityError(
            f"parameter {key} of {name} must be {want}, got {value!r}")


def make(name: str, **overrides) -> FamilyBundle:
    """Instantiate a catalog family by name with optional parameter overrides."""
    defaults = defaults_of(name)
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise AdmissibilityError(
            f"unknown parameters for {name}: {', '.join(sorted(unknown))}")
    for key, value in overrides.items():
        _check_override(name, key, value, defaults[key])
    return FAMILIES[name].builder(**overrides)


# ---------------------------------------------------------------------------
# custom instances from plain dict specs

def _interval_from(spec) -> Interval:
    if not (isinstance(spec, (list, tuple)) and len(spec) == 2):
        raise FormError("interval must be a [lo, hi] pair (null for infinite)")
    lo = -math.inf if spec[0] is None else float(spec[0])
    hi = math.inf if spec[1] is None else float(spec[1])
    return Interval(lo, hi)


def _fiber_from(spec: dict, nested: bool = False):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FormError("fiber spec must be a dict with a 'kind'")
    kind = spec["kind"]
    if kind == "space_form":
        return SpaceForm(int(spec["dim"]), float(spec["curvature"]))
    if kind == "einstein":
        return EinsteinFiber(int(spec["dim"]), float(spec["einstein_constant"]))
    if kind == "warped":
        iv = _interval_from(spec["interval"])
        phi = Profile1D.from_string(str(spec["warping"]), iv, var="s")
        return NestedFiber(WarpedMetric(iv, phi, _fiber_from(spec["fiber"], nested=True)))
    raise FormError(f"unknown fiber kind {kind!r}")


def custom_instance(spec: dict, complete: bool = False,
                    compact: bool = False) -> Instance:
    """Build an Instance from a plain dict structure description.

    Expected keys: interval, warping (expression in t), fiber (space_form /
    einstein / warped), density (radial with v, or split with v_n and
    alpha), m, and optional mu (default 0).
    """
    iv = _interval_from(spec["interval"])
    phi = Profile1D.from_string(str(spec["warping"]), iv, var="t")
    fiber = _fiber_from(spec["fiber"])
    metric = WarpedMetric(iv, phi, fiber)
    dens = spec["density"]
    if not isinstance(dens, dict) or "kind" not in dens:
        raise FormError("density spec must be a dict with a 'kind'")
    if dens["kind"] == "radial":
        density = RadialDensity(Profile1D.from_string(str(dens["v"]), iv, var="t"))
    elif dens["kind"] == "split":
        dom = fiber.probe_domain()
        if dom is None:
            raise FormError("split density needs a fiber with a probe coordinate")
        v_n = Profile1D.from_string(str(dens["v_n"]), dom, var="s")
        alpha = Profile1D.from_string(str(dens.get("alpha", "0")), iv, var="t")
        density = SplitDensity(v_n, alpha)
    else:
        raise FormError(f"unknown density kind {dens['kind']!r}")
    params = SmmsParams(int(spec.get("n", metric.n)), float(spec["m"]),
                        float(spec.get("mu", 0.0)))
    if params.n != metric.n:
        raise FormError(
            f"declared dimension n = {params.n} does not match the metric ({metric.n})")
    return Instance(metric, density, params, complete=bool(complete),
                    compact=bool(compact))

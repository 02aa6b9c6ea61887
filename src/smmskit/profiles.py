"""One-variable profiles as expression trees, plus sampling utilities.

Every profile has a ``domain`` interval, ``value(t)`` and the exact
second-order ``jet(t)`` (both raise DomainError outside the domain),
``is_constant()``, ``check_positive(samples=..., margin=...)`` with
``margin`` the relative inset of the sample from open endpoints, and
``to_string()``.  The three implementations are the expression tree
:class:`Profile1D`, whose jets evaluate exactly via :mod:`smmskit.jets`;
the RK4 trajectory ``odes.OdeProfile`` with its derivative view, which adds
``restricted``; and the pullback ``conformal.ReparamProfile`` through a
conformal coordinate change.  A separate central-difference routine
provides an independent derivative oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvalError, PositivityError
from .jets import Jet2, UNARY

DEFAULT_CAP = 10.0


@dataclass(frozen=True)
class Interval:
    """Interval (lo, hi); endpoints may be infinite and are open by default."""

    lo: float
    hi: float
    closed_lo: bool = False
    closed_hi: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise DomainError("interval endpoint is NaN")
        if self.lo > self.hi:
            raise DomainError(f"empty interval ({self.lo}, {self.hi})")

    def contains(self, t: float) -> bool:
        if not (self.lo <= t <= self.hi):  # also rejects NaN
            return False
        if t == self.lo and not self.closed_lo:
            return False
        if t == self.hi and not self.closed_hi:
            return False
        return True

    def require(self, t: float):
        if not self.contains(t):
            raise DomainError(f"point {t} outside interval ({self.lo}, {self.hi})")


def sample_grid(domain: Interval, k: int, margin: float = 0.05,
                cap: float = DEFAULT_CAP) -> np.ndarray:
    """Deterministic strictly increasing interior sample of an interval.

    Open endpoints are pulled inward by ``margin`` times the effective
    length; an unbounded side is truncated at ``cap`` and sampled up to the
    cap itself.
    """
    if k < 2:
        raise ValueError("need at least two sample points")
    if not 0.0 <= margin < 0.5:
        raise ValueError("margin must lie in [0, 0.5)")
    lo, hi = domain.lo, domain.hi
    lo_unbounded = math.isinf(lo)
    hi_unbounded = math.isinf(hi)
    lo_eff = -cap if lo_unbounded else lo
    hi_eff = cap if hi_unbounded else hi
    if lo_eff >= hi_eff:
        raise DomainError("interval empty after truncation")
    length = hi_eff - lo_eff
    shrink = margin if margin > 0.0 else 1e-9
    if not lo_unbounded and not domain.closed_lo:
        lo_eff += shrink * length
    if not hi_unbounded and not domain.closed_hi:
        hi_eff -= shrink * length
    if lo_eff >= hi_eff:
        raise DomainError("interval empty after margin shrink")
    return np.linspace(lo_eff, hi_eff, k)


# ---------------------------------------------------------------------------
# expression nodes

class Node:
    """Base expression node; the parser builds every tree."""

    __slots__ = ()


class Const(Node):
    __slots__ = ("c",)

    def __init__(self, c: float):
        self.c = float(c)

    def eval(self, x):
        return self.c if isinstance(x, float) else type(x).constant(self.c)

    def free_var(self):
        return None

    def to_str(self, prec=0):
        if self.c < 0:
            s = repr(self.c)
            return f"({s})" if prec > 1 else s
        return repr(self.c)


class Var(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def eval(self, x):
        return x

    def free_var(self):
        return self.name

    def to_str(self, prec=0):
        return self.name


def _merge_vars(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise EvalError(f"expression mixes variables {a!r} and {b!r}")


class _Binary(Node):
    __slots__ = ("l", "r")
    op = "?"
    prec = 0

    def __init__(self, l: Node, r: Node):
        self.l = l
        self.r = r

    def free_var(self):
        return _merge_vars(self.l.free_var(), self.r.free_var())

    def to_str(self, prec=0):
        left = self.l.to_str(self.prec)
        right = self.r.to_str(self.prec + 1)
        s = f"{left} {self.op} {right}"
        return f"({s})" if prec > self.prec else s


class Add(_Binary):
    __slots__ = ()
    op, prec = "+", 1

    def eval(self, x):
        return self.l.eval(x) + self.r.eval(x)


class Sub(_Binary):
    __slots__ = ()
    op, prec = "-", 1

    def eval(self, x):
        return self.l.eval(x) - self.r.eval(x)


class Mul(_Binary):
    __slots__ = ()
    op, prec = "*", 2

    def eval(self, x):
        return self.l.eval(x) * self.r.eval(x)


class Div(_Binary):
    __slots__ = ()
    op, prec = "/", 2

    def eval(self, x):
        num = self.l.eval(x)
        den = self.r.eval(x)
        if isinstance(den, float):
            if den == 0.0:
                raise EvalError("division by zero")
            return num / den
        return num / den

    def to_str(self, prec=0):
        left = self.l.to_str(self.prec)
        right = self.r.to_str(self.prec + 1)
        s = f"{left} / {right}"
        return f"({s})" if prec > self.prec else s


class Neg(Node):
    __slots__ = ("a",)

    def __init__(self, a: Node):
        self.a = a

    def eval(self, x):
        return -self.a.eval(x)

    def free_var(self):
        return self.a.free_var()

    def to_str(self, prec=0):
        s = f"-{self.a.to_str(3)}"
        return f"({s})" if prec > 1 else s


class Pow(Node):
    __slots__ = ("base", "expo")

    def __init__(self, base: Node, expo: Node):
        self.base = base
        self.expo = expo

    def eval(self, x):
        b = self.base.eval(x)
        if isinstance(self.expo, Const):
            p = self.expo.c
            if isinstance(b, float):
                if b == 0.0 and p < 0:
                    raise EvalError("zero base with negative exponent")
                if b < 0.0 and p != round(p):
                    raise EvalError("fractional power of a negative base")
            return b ** p
        e = self.expo.eval(x)
        if isinstance(b, float):
            if b <= 0.0:
                raise EvalError("general power needs a positive base")
            log_b = math.log(b)
        else:
            log_b = UNARY["log"](b)
        prod = e * log_b
        if isinstance(prod, float):
            if prod > 700.0:
                raise EvalError("exp overflow in general power")
            return math.exp(prod)
        return UNARY["exp"](prod)

    def free_var(self):
        return _merge_vars(self.base.free_var(), self.expo.free_var())

    def to_str(self, prec=0):
        s = f"{self.base.to_str(4)}^{self.expo.to_str(4)}"
        return f"({s})" if prec > 3 else s


_MATH_FN = {
    "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
    "sinh": math.sinh, "cosh": math.cosh, "sqrt": math.sqrt,
}


class Call(Node):
    __slots__ = ("fn", "a")

    def __init__(self, fn: str, a: Node):
        if fn not in UNARY:
            raise EvalError(f"unknown function {fn!r}")
        self.fn = fn
        self.a = a

    def eval(self, x):
        v = self.a.eval(x)
        if isinstance(v, float):
            if self.fn in ("log", "sqrt") and v <= 0.0:
                raise EvalError(f"{self.fn} of nonpositive value {v!r}")
            if self.fn in ("exp", "sinh", "cosh") and v > 700.0:
                raise EvalError(f"{self.fn} overflow")
            return _MATH_FN[self.fn](v)
        return UNARY[self.fn](v)

    def free_var(self):
        return self.a.free_var()

    def to_str(self, prec=0):
        return f"{self.fn}({self.a.to_str(0)})"


# ---------------------------------------------------------------------------
# infix parser

_CONSTANTS = {"pi": math.pi, "e": math.e}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.toks = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                seen_e = False
                while j < n and (text[j].isdigit() or text[j] == "."
                                 or text[j] in "eE"
                                 or (seen_e and text[j] in "+-" and text[j - 1] in "eE")):
                    if text[j] in "eE":
                        if seen_e or j + 1 >= n or not (text[j + 1].isdigit() or text[j + 1] in "+-"):
                            break
                        seen_e = True
                    j += 1
                try:
                    self.toks.append(("num", float(text[i:j])))
                except ValueError:
                    raise EvalError(f"bad number near {text[i:j]!r}")
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
                continue
            if text.startswith("**", i):
                self.toks.append(("op", "^"))
                i += 2
                continue
            if ch in "+-*/^()":
                self.toks.append(("op", ch))
                i += 1
                continue
            raise EvalError(f"unexpected character {ch!r} in expression")

    def peek(self):
        return self.toks[self.idx] if self.idx < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise EvalError(f"expected {op!r}, found {val!r}")


def parse_expression(text: str) -> Node:
    """Parse an infix expression over one variable into a node tree.

    Grammar: ``+ - * / ^`` (also ``**``), parentheses, the functions
    exp/log/sin/cos/sinh/cosh/sqrt, constants ``pi`` and ``e``, numeric
    literals, and a single free variable (t, x, theta, s or r).
    """
    toks = _Tokens(text)
    node = _parse_sum(toks)
    kind, val = toks.peek()
    if kind is not None:
        raise EvalError(f"trailing input at {val!r}")
    return node


def _parse_sum(toks):
    node = _parse_product(toks)
    while True:
        kind, val = toks.peek()
        if kind == "op" and val in "+-":
            toks.next()
            rhs = _parse_product(toks)
            node = Add(node, rhs) if val == "+" else Sub(node, rhs)
        else:
            return node


def _parse_product(toks):
    node = _parse_unary(toks)
    while True:
        kind, val = toks.peek()
        if kind == "op" and val in "*/":
            toks.next()
            rhs = _parse_unary(toks)
            node = Mul(node, rhs) if val == "*" else Div(node, rhs)
        else:
            return node


def _parse_unary(toks):
    kind, val = toks.peek()
    if kind == "op" and val == "-":
        toks.next()
        return Neg(_parse_unary(toks))
    if kind == "op" and val == "+":
        toks.next()
        return _parse_unary(toks)
    return _parse_power(toks)


def _parse_power(toks):
    base = _parse_atom(toks)
    kind, val = toks.peek()
    if kind == "op" and val == "^":
        toks.next()
        return Pow(base, _parse_unary(toks))
    return base


def _parse_atom(toks):
    kind, val = toks.next()
    if kind == "num":
        return Const(val)
    if kind == "name":
        nxt_kind, nxt_val = toks.peek()
        if nxt_kind == "op" and nxt_val == "(":
            if val not in UNARY:
                raise EvalError(f"unknown function {val!r}")
            toks.next()
            arg = _parse_sum(toks)
            toks.expect_op(")")
            return Call(val, arg)
        if val in _CONSTANTS:
            return Const(_CONSTANTS[val])
        return Var(val)
    if kind == "op" and val == "(":
        node = _parse_sum(toks)
        toks.expect_op(")")
        return node
    raise EvalError(f"unexpected token {val!r}")


# ---------------------------------------------------------------------------
# profiles

class Profile1D:
    """Expression-tree profile of one variable on a declared interval."""

    def __init__(self, node: Node, domain: Interval, var: str | None = None):
        self.node = node
        self.domain = domain
        inferred = node.free_var()
        if var is None:
            var = inferred if inferred is not None else "t"
        elif inferred is not None and inferred != var:
            raise EvalError(f"expression uses {inferred!r}, declared variable is {var!r}")
        self.var = var

    @classmethod
    def from_string(cls, text: str, domain: Interval,
                    var: str | None = None) -> "Profile1D":
        return cls(parse_expression(text), domain, var=var)

    @classmethod
    def constant(cls, c: float, domain: Interval, var: str = "t") -> "Profile1D":
        return cls(Const(float(c)), domain, var=var)

    def __repr__(self):
        return f"Profile1D({self.to_string()!r} on ({self.domain.lo}, {self.domain.hi}))"

    def to_string(self) -> str:
        return self.node.to_str()

    def value(self, t: float) -> float:
        self.domain.require(t)
        v = self.node.eval(float(t))
        if not math.isfinite(v):
            raise EvalError(f"profile evaluated to {v!r} at t={t}")
        return v

    def jet(self, t: float) -> Jet2:
        self.domain.require(t)
        out = self.node.eval(Jet2.variable(float(t)))
        if not isinstance(out, Jet2):
            out = Jet2.constant(out)
        if not (math.isfinite(out.value) and math.isfinite(out.d1)
                and math.isfinite(out.d2)):
            raise EvalError(f"profile jet not finite at t={t}")
        return out

    def is_constant(self) -> bool:
        return self.node.free_var() is None

    def check_positive(self, samples: int = 10_000, margin: float = 1e-4):
        """Sampled positivity check; raises PositivityError on failure."""
        for t in sample_grid(self.domain, samples, margin=margin):
            val = self.value(float(t))
            if val <= 0.0:
                raise PositivityError(f"profile {self.to_string()!r} is {val} at t={t}")


def finite_diff_jet(profile, t: float, h: float = 1e-4) -> Jet2:
    """Central-difference 2-jet of any profile-like object.

    Independent of the jet arithmetic: only calls ``profile.value``.  The
    stencil [t-h, t+h] must lie inside the profile's domain.
    """
    dom = profile.domain
    if not (dom.contains(t - h) and dom.contains(t + h)):
        raise DomainError(f"stencil [{t - h}, {t + h}] leaves the domain")
    fm = profile.value(t - h)
    f0 = profile.value(t)
    fp = profile.value(t + h)
    return Jet2(f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h))

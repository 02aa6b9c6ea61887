"""One-variable profiles as expression trees, plus sampling utilities.

Every profile has a ``domain`` interval, ``value(t)`` and the exact
second-order ``jet(t)`` (both raise DomainError outside the domain),
``is_constant()``, ``check_positive(samples=..., margin=...)`` with
``margin`` the relative inset of the sample from open endpoints, and
``to_string()``.  ``value`` and ``jet`` take a float, or a 1-D array of
points, for which they return arrays (a jet of arrays) bitwise equal to
the results point by point; a failure on an array is the error the first
failing point raises on its own.  Every implementation keeps its last array
value and jet (``_last_array``), keyed by the bytes of the query, so the
consumers of one grid share one evaluation; the arrays it hands out are
read-only.  The three implementations are the expression tree
:class:`Profile1D`, compiled at construction into straight-line Python
functions for the value and for the exact jet (the rules of
:mod:`smmskit.jets`, with the guards of the tree in tree order): one source
text per tree, whose code is compiled once per process (``_code``) and run
in two namespaces, one for floats and one for arrays; the RK4 trajectory
``odes.OdeProfile`` with its derivative view, which adds ``restricted``;
and the pullback ``conformal.ReparamProfile`` through a conformal
coordinate change.  A separate central-difference routine provides an
independent derivative oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy import ndarray

from .errors import DomainError, EvalError, PositivityError
from .jets import ARRAY_NAMESPACE, FLOAT_NAMESPACE, JET_SOURCE, UNARY, UNARY_SOURCE, Jet2

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

    def require(self, t):
        """Raises DomainError unless t (a float, or every entry of a 1-D
        array) lies in the interval; NaN never does, and the first point
        outside is named."""
        if type(t) is not ndarray:
            if self.contains(t):
                return
        else:
            inside = (self.lo <= t) & (t <= self.hi)
            if not self.closed_lo:
                inside &= t != self.lo
            if not self.closed_hi:
                inside &= t != self.hi
            if inside.all():
                return
            t = float(t[inside.argmin()])
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


class Sub(_Binary):
    __slots__ = ()
    op, prec = "-", 1


class Mul(_Binary):
    __slots__ = ()
    op, prec = "*", 2


class Div(_Binary):
    __slots__ = ()
    op, prec = "/", 2


class Neg(Node):
    __slots__ = ("a",)

    def __init__(self, a: Node):
        self.a = a

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

    def free_var(self):
        return _merge_vars(self.base.free_var(), self.expo.free_var())

    def to_str(self, prec=0):
        s = f"{self.base.to_str(4)}^{self.expo.to_str(4)}"
        return f"({s})" if prec > 3 else s


class Call(Node):
    __slots__ = ("fn", "a")

    def __init__(self, fn: str, a: Node):
        if fn not in UNARY:
            raise EvalError(f"unknown function {fn!r}")
        self.fn = fn
        self.a = a

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
# compiling a tree to straight-line code

_JET_OPS = {Add: "add", Sub: "sub", Mul: "mul", Div: "div"}

# The value of each node kind as statements on floats or arrays, in the form
# of ``jets.JET_SOURCE``: ``a`` and ``b`` name the operands, ``r`` the result,
# ``p`` a constant exponent and ``fn`` a function.
VALUE_SOURCE = {
    "add": ("{r} = {a} + {b}",),
    "sub": ("{r} = {a} - {b}",),
    "mul": ("{r} = {a} * {b}",),
    "div": ("if _any({b} == 0.0): raise EvalError('division by zero')", "{r} = {a} / {b}"),
    "neg": ("{r} = -{a}",),
    "positive": ("if _any({a} <= 0.0): "
                 "raise EvalError('{fn} of nonpositive value ' + repr({a}))",),
    "overflow": ("if _any({a} > 700.0): raise EvalError('{fn} overflow')",),
    "call": ("{r} = math.{fn}({a})",),
    "pow": (
        "if _any({a} == 0.0) and {p} < 0: "
        "raise EvalError('zero base with negative exponent')",
        "if _any({a} < 0.0) and {p} != round({p}): "
        "raise EvalError('fractional power of a negative base')",
        "{r} = _pow({a}, {p})",
    ),
    # a ** b for a general exponent b
    "general_pow": (
        "if _any({a} <= 0.0): raise EvalError('general power needs a positive base')",
        "{r} = {b} * math.log({a})",
        "if _any({r} > 700.0): raise EvalError('exp overflow in general power')",
        "{r} = math.exp({r})",
    ),
}


class _Emitter:
    """Straight-line statements for one tree, one temporary per result.

    Constants are read by index from the tuple ``_c`` and the free variable
    is the parameter ``x``, so no input text reaches the source; function
    names come from the parser's whitelist.  Children are emitted left to
    right before their parent, so the guards fire in tree-walk order.  The
    statements come from the one set of rule tables (``VALUE_SOURCE``,
    ``jets.JET_SOURCE``, ``jets.UNARY_SOURCE``), which runs on floats and on
    arrays alike.
    """

    def __init__(self):
        self.lines = []
        self.consts = []
        self.n = 0

    def const(self, c: float) -> str:
        self.consts.append(c)
        return f"_c[{len(self.consts) - 1}]"

    def temp(self) -> str:
        self.n += 1
        return f"v{self.n}"

    def emit(self, kind: str, **names):
        self.lines += [line.format(**names) for line in VALUE_SOURCE[kind]]

    def value(self, node: Node) -> str:
        """Name of the tree's value, with the guards of the tree walk."""
        if isinstance(node, Const):
            return self.const(node.c)
        if isinstance(node, Var):
            return "x"
        out = self.temp()
        if isinstance(node, Neg):
            self.emit("neg", r=out, a=self.value(node.a))
        elif isinstance(node, Call):
            a = self.value(node.a)
            if node.fn in ("log", "sqrt"):
                self.emit("positive", a=a, fn=node.fn)
            elif node.fn in ("exp", "sinh", "cosh"):
                self.emit("overflow", a=a, fn=node.fn)
            self.emit("call", r=out, a=a, fn=node.fn)
        elif isinstance(node, Pow) and isinstance(node.expo, Const):
            b = self.value(node.base)
            self.emit("pow", r=out, a=b, p=self.const(node.expo.c))
        elif isinstance(node, Pow):
            b, e = self.value(node.base), self.value(node.expo)
            self.emit("general_pow", r=out, a=b, b=e)
        else:
            a, b = self.value(node.l), self.value(node.r)
            self.emit(_JET_OPS[type(node)], r=out, a=a, b=b)
        return out

    def jet(self, node: Node) -> tuple:
        """Names of the tree's (value, d1, d2), by the rules of ``Jet2``."""
        if isinstance(node, Const):
            return (self.const(node.c), "0.0", "0.0")
        if isinstance(node, Var):
            return ("x", "1.0", "0.0")
        if isinstance(node, Neg):
            return self.rule("neg", self.jet(node.a))
        if isinstance(node, Call):
            return self.unary(node.fn, self.jet(node.a))
        if isinstance(node, Pow) and isinstance(node.expo, Const):
            return self.rule("pow", self.jet(node.base), p=self.const(node.expo.c))
        if isinstance(node, Pow):
            # Jet2.__pow__ with a jet exponent: exp(e * log b)
            b, e = self.jet(node.base), self.jet(node.expo)
            return self.unary("exp", self.rule("mul", e, self.unary("log", b)))
        a, b = self.jet(node.l), self.jet(node.r)
        return self.rule(_JET_OPS[type(node)], a, b)

    def unary(self, fn: str, a: tuple) -> tuple:
        guard, *outer = UNARY_SOURCE[fn]
        if guard is not None:
            self.lines.append(guard.format(x=a[0]))
        self.lines += [f"{name} = {expr.format(x=a[0])}"
                       for name, expr in zip(("u", "du", "ddu"), outer)]
        return self.rule("chain", a)

    def rule(self, op: str, a: tuple, b: tuple = ("", "", ""), **names) -> tuple:
        out = (self.temp(), self.temp(), self.temp())
        for part, jet in (("a", a), ("b", b), ("r", out)):
            names.update({f"{part}{k}": jet[k] for k in range(3)})
        self.lines += [line.format(**names) for line in JET_SOURCE[op]]
        return out


@functools.lru_cache(maxsize=512)
def _code(src: str):
    """compile(src) for the emitted source of _compile, once per text.

    The source names constants only as ``_c[i]``, so it depends on the
    tree's shape alone: every profile of one shape shares one code object.
    """
    return compile(src, "<profile>", "exec")


def _compile(node: Node) -> tuple:
    """``value(x)`` and ``jet(x) -> (v, d1, d2)`` of a tree as Python
    functions: ``((value, jet) on floats, (value, jet) on arrays)``.

    The tree's one source text is compiled once (``_code``) and its code
    object run twice, with this tree's constants, in ``jets.FLOAT_NAMESPACE``
    and in ``jets.ARRAY_NAMESPACE``.  The array pair takes a 1-D array x (a
    float too); a part that does not depend on x stays a float.
    """
    em = _Emitter()
    result = em.value(node)
    src = ["def value(x):", *(f"    {s}" for s in em.lines), f"    return {result}"]
    em.lines = []
    result = em.jet(node)
    src += ["def jet(x):", *(f"    {s}" for s in em.lines),
            f"    return ({', '.join(result)})"]
    code, consts = _code("\n".join(src)), tuple(em.consts)
    pairs = []
    for base in (FLOAT_NAMESPACE, ARRAY_NAMESPACE):
        namespace = {**base, "_c": consts}
        exec(code, namespace)
        pairs.append((namespace["value"], namespace["jet"]))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# profiles

def _scalar_failure(method, ts: np.ndarray, why):
    """Raises the error a loop of scalar method calls over ts raises first,
    by running that loop; why names the array failure if no call fails."""
    for t in ts.tolist():
        method(t)
    raise EvalError(f"profile failed on an array at no single point: {why}")


def _last_array(slots: list, which: int, ts: np.ndarray, compute) -> tuple:
    """compute(ts), a tuple of parts, remembered in slots[which].

    The slot holds the last array result of one kind (value or jet) keyed
    by the bytes of ts, so a second call on an equal array returns the same
    parts without computing them.  The parts are arrays the shape of ts
    (a float part is broadcast), share no memory with ts and are read-only.
    A call that raises leaves the slot as it was.
    """
    key = ts.tobytes()
    last = slots[which]
    if last is not None and last[0] == key:
        return last[1]
    parts = tuple(np.full(ts.shape, p) if not isinstance(p, ndarray)
                  else p.copy() if np.may_share_memory(p, ts) else p
                  for p in compute(ts))
    for p in parts:
        p.flags.writeable = False
    slots[which] = (key, parts)
    return parts


class Profile1D:
    """Expression-tree profile of one variable on a declared interval.

    The last array value and the last array jet are remembered, one slot
    each; a call on an array with the same bytes returns the same read-only
    arrays.
    """

    def __init__(self, node: Node, domain: Interval, var: str | None = None):
        self.node = node
        self.domain = domain
        inferred = node.free_var()
        if var is not None and inferred is not None and inferred != var:
            raise EvalError(f"expression uses {inferred!r}, declared variable is {var!r}")
        (self._value, self._jet), self._arrays = _compile(node)
        self._last = [None, None]  # last array value and jet, see _last_array

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

    def value(self, t):
        if type(t) is ndarray:
            return self._on_array(t, 0)[0]
        if not self.domain.contains(t):  # the scalar hot path calls contains only
            self.domain.require(t)
        try:
            v = self._value(float(t))
        except EvalError as exc:  # a guard of the tree
            raise EvalError(f"{exc} at t={t}") from None
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise EvalError(f"profile arithmetic failed at t={t}: {exc}") from exc
        if not math.isfinite(v):
            raise EvalError(f"profile evaluated to {v!r} at t={t}")
        return v

    def jet(self, t) -> Jet2:
        if type(t) is ndarray:
            return Jet2(*self._on_array(t, 1))
        if not self.domain.contains(t):
            self.domain.require(t)
        try:
            v, d1, d2 = self._jet(float(t))
        except EvalError as exc:
            raise EvalError(f"{exc} at t={t}") from None
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise EvalError(f"profile jet arithmetic failed at t={t}: {exc}") from exc
        if not (math.isfinite(v) and math.isfinite(d1) and math.isfinite(d2)):
            raise EvalError(f"profile jet not finite at t={t}")
        return Jet2(v, d1, d2)

    def _on_array(self, ts: np.ndarray, which: int) -> tuple:
        """The compiled array value (0) or jet (1) at every entry of ts,
        remembered for the next call on the same array (``_last_array``).

        A failure raises the error that a loop of scalar calls over ts
        raises first, by running that loop.
        """
        return _last_array(self._last, which, ts,
                           lambda ts: self._evaluate(ts, which))

    def _evaluate(self, ts: np.ndarray, which: int) -> tuple:
        self.domain.require(ts)
        try:
            with np.errstate(all="ignore"):  # floats overflow to inf silently too
                out = self._arrays[which](ts)
        except (EvalError, OverflowError, ZeroDivisionError, ValueError) as exc:
            _scalar_failure((self.value, self.jet)[which], ts, exc)
        parts = out if which else (out,)
        if not all(np.isfinite(p).all() for p in parts):
            _scalar_failure((self.value, self.jet)[which], ts, "not finite")
        return parts

    def is_constant(self) -> bool:
        return self.node.free_var() is None

    def check_positive(self, samples: int = 10_000, margin: float = 1e-4):
        """Sampled positivity check, in one array evaluation; raises
        PositivityError naming the first sample that is not positive."""
        ts = sample_grid(self.domain, samples, margin=margin)
        vals = self.value(ts)
        bad = vals <= 0.0
        if bad.any():
            i = int(bad.argmax())
            raise PositivityError(f"profile {self.to_string()!r} is {float(vals[i])} "
                                  f"at t={float(ts[i])}")


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

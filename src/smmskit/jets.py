"""Second-order forward-mode jets.

A ``Jet2`` carries the value and first two derivatives of a scalar function
of one variable; arithmetic propagates them exactly (product, quotient and
chain rules), so no symbolic differentiation or finite differencing is
involved.  ``BiJet2`` is the two-variable analogue used for densities that
depend on the base coordinate and one fiber coordinate: it carries the
gradient pair and the symmetric 2x2 block of second partials.

Every part of a jet is a float, or an equal-length 1-D array holding the
same part at many points at once; the arithmetic is the same statements
either way.  Array arithmetic is IEEE-exact like float arithmetic, but
numpy's own exp, log, sinh, cosh and ``**`` can differ from libm and CPython
in the last bits, so on arrays every transcendental and every power goes
through ``fmap`` and ``power``, which call the scalar functions entry by
entry.  Array results are therefore bitwise equal to scalar ones.

``JET_SOURCE`` and ``UNARY_SOURCE`` state the same rules once, as Python
source that runs on floats and on arrays alike: a power is written
``_pow(a, p)`` and a guard ``if _any(test): raise ...``.  What those names
mean comes from the namespace the compiled code runs in.
``FLOAT_NAMESPACE`` holds the real ``math``, ``operator.pow`` and ``bool``,
so floats run plain CPython arithmetic; ``ARRAY_NAMESPACE`` holds ``math``
functions wrapped by ``fmap``, ``power`` and ``_any``.  A compiled profile
runs one code object, shared by every tree of its shape, in both; ``UNARY``
is generated from the table in the array namespace, so it takes jets of
either kind.
"""

from __future__ import annotations

import functools
import math
import operator
from types import SimpleNamespace

import numpy as np
from numpy import ndarray

from .errors import EvalError

_FINITE_CAP = 1e300


# Scalar calls stay as cheap as before arrays: each helper tests for an
# array first with one isinstance, and the jet constructors skip it when
# every part is already a float.

def _check(x):
    """x itself when every entry is finite and at most 1e300 in size."""
    if not isinstance(x, ndarray):
        if math.isfinite(x) and abs(x) <= _FINITE_CAP:
            return x
    else:
        bad = ~(np.abs(x) <= _FINITE_CAP)  # NaN included
        if not bad.any():
            return x
        x = float(x[bad.argmax()])
    raise EvalError(f"non-finite intermediate value: {x!r}")


def _any(test) -> bool:
    """A test on floats, or whether it holds at any entry of a bool array."""
    return bool(test.any()) if isinstance(test, ndarray) else test


def fmap(fn, x):
    """fn(x) on a float; fn mapped over the entries of a 1-D array."""
    if isinstance(x, ndarray):
        return np.fromiter(map(fn, x.tolist()), float, x.size)
    return fn(x)


def power(x, p):
    """x ** p by CPython's float power, entry by entry on an array."""
    if isinstance(x, ndarray):
        return np.fromiter((a ** p for a in x.tolist()), float, x.size)
    return x ** p


def _part(x):
    return x if isinstance(x, ndarray) else float(x)


class Jet2:
    """Value and first two derivatives with respect to one variable."""

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value, d1=0.0, d2=0.0):
        if not (type(value) is float and type(d1) is float and type(d2) is float):
            value, d1, d2 = _part(value), _part(d1), _part(d2)
        self.value = value
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def variable(t: float) -> "Jet2":
        """Jet of the identity map at t."""
        return Jet2(t, 1.0, 0.0)

    @staticmethod
    def constant(c: float) -> "Jet2":
        return Jet2(c, 0.0, 0.0)

    @staticmethod
    def _coerce(other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        if isinstance(other, (int, float)):
            return Jet2(float(other))
        return NotImplemented

    def __repr__(self):
        return f"Jet2({self.value!r}, {self.d1!r}, {self.d2!r})"

    def __add__(self, other):
        o = Jet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2)

    def __sub__(self, other):
        o = Jet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(self.value - o.value, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        o = Jet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = Jet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2.0 * self.d1 * o.d1 + self.value * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Jet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if _any(o.value == 0.0):
            raise EvalError("division by zero")
        q = self.value / o.value
        qd = (self.d1 - q * o.d1) / o.value
        qs = (self.d2 - q * o.d2 - 2.0 * qd * o.d1) / o.value
        return Jet2(_check(q), qd, qs)

    def __rtruediv__(self, other):
        o = Jet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def chain(self, u: float, du: float, ddu: float) -> "Jet2":
        """Compose an outer function u with derivatives evaluated at self.value."""
        return Jet2(
            _check(u),
            du * self.d1,
            ddu * self.d1 * self.d1 + du * self.d2,
        )

    def __pow__(self, p):
        if isinstance(p, Jet2):
            if p.d1 == 0.0 and p.d2 == 0.0:
                p = p.value
            else:
                # general exponent: x**y = exp(y*log x), requires x > 0
                return exp(p * log(self))
        x = self.value
        if _any(x == 0.0) and p < 2:
            raise EvalError("power of zero with exponent < 2 has no 2-jet")
        if _any(x < 0.0) and p != round(p):
            raise EvalError("fractional power of a negative base")
        return self.chain(power(x, p), p * power(x, p - 1), p * (p - 1) * power(x, p - 2))


# Each Jet2 rule above as straight-line statements on floats or arrays, with
# the same operands in the same order, for the compiled profiles of
# ``profiles``.  A jet operand ``a`` is the three names ``a0, a1, a2`` (value,
# d1, d2) and ``r0, r1, r2`` name the result; ``chain`` reads the outer ``u,
# du, ddu``.  In an ``and`` guard only the array part is wrapped in ``_any``:
# ``{p}`` is a float constant, and ``round({p})`` runs only when the first
# part holds, as in ``Jet2.__pow__`` (``round(inf)`` raises).
_CHAIN = (
    "{r0} = _check(u)",
    "{r1} = du * {a1}",
    "{r2} = ddu * {a1} * {a1} + du * {a2}",
)
JET_SOURCE = {
    "add": ("{r0} = {a0} + {b0}", "{r1} = {a1} + {b1}", "{r2} = {a2} + {b2}"),
    "sub": ("{r0} = {a0} - {b0}", "{r1} = {a1} - {b1}", "{r2} = {a2} - {b2}"),
    "neg": ("{r0} = -{a0}", "{r1} = -{a1}", "{r2} = -{a2}"),
    "mul": (
        "{r0} = {a0} * {b0}",
        "{r1} = {a1} * {b0} + {a0} * {b1}",
        "{r2} = {a2} * {b0} + 2.0 * {a1} * {b1} + {a0} * {b2}",
    ),
    "div": (
        "if _any({b0} == 0.0): raise EvalError('division by zero')",
        "{r0} = {a0} / {b0}",
        "{r1} = ({a1} - {r0} * {b1}) / {b0}",
        "{r2} = ({a2} - {r0} * {b2} - 2.0 * {r1} * {b1}) / {b0}",
        "_check({r0})",
    ),
    "chain": _CHAIN,
    # __pow__ with a constant exponent p
    "pow": (
        "if _any({a0} == 0.0) and {p} < 2: "
        "raise EvalError('power of zero with exponent < 2 has no 2-jet')",
        "if _any({a0} < 0.0) and {p} != round({p}): "
        "raise EvalError('fractional power of a negative base')",
        "u = _pow({a0}, {p})",
        "du = {p} * _pow({a0}, {p} - 1)",
        "ddu = {p} * ({p} - 1) * _pow({a0}, {p} - 2)",
        *_CHAIN,
    ),
}


class BiJet2:
    """Second-order jet in two variables (t, s).

    Fields: value, first partials (dt, ds) and the symmetric block of
    second partials (dtt, dts, dss).
    """

    __slots__ = ("value", "dt", "ds", "dtt", "dts", "dss")

    def __init__(self, value, dt=0.0, ds=0.0, dtt=0.0, dts=0.0, dss=0.0):
        if not (type(value) is float and type(dt) is float and type(ds) is float
                and type(dtt) is float and type(dts) is float and type(dss) is float):
            value, dt, ds, dtt, dts, dss = map(_part, (value, dt, ds, dtt, dts, dss))
        self.value = value
        self.dt = dt
        self.ds = ds
        self.dtt = dtt
        self.dts = dts
        self.dss = dss

    @staticmethod
    def lift_t(j: Jet2) -> "BiJet2":
        """Embed a jet in t as a two-variable jet with no s dependence."""
        return BiJet2(j.value, j.d1, 0.0, j.d2, 0.0, 0.0)

    @staticmethod
    def lift_s(j: Jet2) -> "BiJet2":
        return BiJet2(j.value, 0.0, j.d1, 0.0, 0.0, j.d2)

    @staticmethod
    def constant(c: float) -> "BiJet2":
        return BiJet2(float(c))

    @staticmethod
    def _coerce(other) -> "BiJet2":
        if isinstance(other, BiJet2):
            return other
        if isinstance(other, (int, float)):
            return BiJet2(float(other))
        return NotImplemented

    def __repr__(self):
        return (f"BiJet2({self.value!r}, dt={self.dt!r}, ds={self.ds!r}, "
                f"dtt={self.dtt!r}, dts={self.dts!r}, dss={self.dss!r})")

    def __add__(self, other):
        o = BiJet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return BiJet2(self.value + o.value, self.dt + o.dt, self.ds + o.ds,
                      self.dtt + o.dtt, self.dts + o.dts, self.dss + o.dss)

    __radd__ = __add__

    def __neg__(self):
        return BiJet2(-self.value, -self.dt, -self.ds, -self.dtt, -self.dts, -self.dss)

    def __sub__(self, other):
        o = BiJet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = BiJet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = BiJet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self, o
        return BiJet2(
            a.value * b.value,
            a.dt * b.value + a.value * b.dt,
            a.ds * b.value + a.value * b.ds,
            a.dtt * b.value + 2.0 * a.dt * b.dt + a.value * b.dtt,
            a.dts * b.value + a.dt * b.ds + a.ds * b.dt + a.value * b.dts,
            a.dss * b.value + 2.0 * a.ds * b.ds + a.value * b.dss,
        )

    __rmul__ = __mul__

    def chain(self, u: float, du: float, ddu: float) -> "BiJet2":
        return BiJet2(
            _check(u),
            du * self.dt,
            du * self.ds,
            ddu * self.dt * self.dt + du * self.dtt,
            ddu * self.dt * self.ds + du * self.dts,
            ddu * self.ds * self.ds + du * self.dss,
        )

    def __truediv__(self, other):
        o = BiJet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if _any(o.value == 0.0):
            raise EvalError("division by zero")
        inv = o.chain(1.0 / o.value, -1.0 / power(o.value, 2), 2.0 / power(o.value, 3))
        return self * inv

    def __rtruediv__(self, other):
        o = BiJet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self


# Each unary rule as Python source in the argument value ``x``: a guard (or
# None), then the outer function u and its derivatives du and ddu.  UNARY below
# and the compiled jets of ``profiles`` are both generated from this table.
_POSITIVE = "if _any({x} <= 0.0): raise EvalError('argument must be positive, got ' + repr({x}))"
_EXP_OVERFLOW = "if _any({x} > 700.0): raise EvalError('exp overflow')"
UNARY_SOURCE = {
    "exp": (_EXP_OVERFLOW, "math.exp({x})", "math.exp({x})", "math.exp({x})"),
    "log": (_POSITIVE, "math.log({x})", "1.0 / {x}", "-1.0 / _pow({x}, 2)"),
    "sin": (None, "math.sin({x})", "math.cos({x})", "-math.sin({x})"),
    "cos": (None, "math.cos({x})", "-math.sin({x})", "-math.cos({x})"),
    "sinh": (_EXP_OVERFLOW, "math.sinh({x})", "math.cosh({x})", "math.sinh({x})"),
    "cosh": (_EXP_OVERFLOW, "math.cosh({x})", "math.sinh({x})", "math.cosh({x})"),
    "sqrt": (_POSITIVE, "math.sqrt({x})", "0.5 / math.sqrt({x})", "-0.25 / _pow({x}, 1.5)"),
}


# The two namespaces a rule runs in.  Floats get the real ``math``, CPython's
# float power and ``bool``, so a compiled float profile runs exactly what its
# text says; arrays get the same functions mapped entry by entry, and a guard
# fires when its test holds at any entry.
FLOAT_NAMESPACE = {"math": math, "EvalError": EvalError, "_check": _check,
                   "_pow": operator.pow, "_any": bool}
ARRAY_NAMESPACE = {
    "math": SimpleNamespace(**{name: functools.partial(fmap, getattr(math, name))
                               for name in UNARY_SOURCE}),
    "EvalError": EvalError, "_check": _check, "_pow": power, "_any": _any,
}


def _unary(name, guard, *outer):
    """Jet function of one rule; a plain number is taken as a constant jet."""
    src = [f"def {name}(j):",
           "    if isinstance(j, (int, float)):",
           "        j = Jet2.constant(j)",
           "    x = j.value"]
    if guard is not None:
        src.append("    " + guard.format(x="x"))
    src.append(f"    return j.chain({', '.join(e.format(x='x') for e in outer)})")
    namespace = {**ARRAY_NAMESPACE, "Jet2": Jet2, "__name__": __name__}
    exec("\n".join(src), namespace)
    return namespace[name]


UNARY = {name: _unary(name, *rule) for name, rule in UNARY_SOURCE.items()}
exp, log, sin, cos, sinh, cosh, sqrt = (UNARY[name] for name in UNARY_SOURCE)

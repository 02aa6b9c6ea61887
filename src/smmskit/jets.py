"""Second-order forward-mode jets.

A ``Jet2`` carries the value and first two derivatives of a scalar function
of one variable; arithmetic propagates them exactly (product, quotient and
chain rules), so no symbolic differentiation or finite differencing is
involved.  ``BiJet2`` is the two-variable analogue used for densities that
depend on the base coordinate and one fiber coordinate: it carries the
gradient pair and the symmetric 2x2 block of second partials.

``JET_SOURCE`` and ``UNARY_SOURCE`` state the same rules as Python source on
floats; compiled profiles are built from them, and so is ``UNARY``.
"""

from __future__ import annotations

import math

from .errors import EvalError

_FINITE_CAP = 1e300


def _check(x: float) -> float:
    if not math.isfinite(x) or abs(x) > _FINITE_CAP:
        raise EvalError(f"non-finite intermediate value: {x!r}")
    return x


class Jet2:
    """Value and first two derivatives with respect to one variable."""

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value: float, d1: float = 0.0, d2: float = 0.0):
        self.value = float(value)
        self.d1 = float(d1)
        self.d2 = float(d2)

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
        if o.value == 0.0:
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
        if x == 0.0 and p < 2:
            raise EvalError("power of zero with exponent < 2 has no 2-jet")
        if x < 0.0 and p != round(p):
            raise EvalError("fractional power of a negative base")
        return self.chain(x ** p, p * x ** (p - 1), p * (p - 1) * x ** (p - 2))


# Each Jet2 rule above as straight-line statements on floats, with the same
# operands in the same order, for the compiled profiles of ``profiles``.  A jet
# operand ``a`` is the three names ``a0, a1, a2`` (value, d1, d2) and ``r0, r1,
# r2`` name the result; ``chain`` reads the outer ``u, du, ddu``.
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
        "if {b0} == 0.0: raise EvalError('division by zero')",
        "{r0} = {a0} / {b0}",
        "{r1} = ({a1} - {r0} * {b1}) / {b0}",
        "{r2} = ({a2} - {r0} * {b2} - 2.0 * {r1} * {b1}) / {b0}",
        "_check({r0})",
    ),
    "chain": _CHAIN,
    # __pow__ with a constant exponent p
    "pow": (
        "if {a0} == 0.0 and {p} < 2: "
        "raise EvalError('power of zero with exponent < 2 has no 2-jet')",
        "if {a0} < 0.0 and {p} != round({p}): "
        "raise EvalError('fractional power of a negative base')",
        "u = {a0} ** {p}",
        "du = {p} * {a0} ** ({p} - 1)",
        "ddu = {p} * ({p} - 1) * {a0} ** ({p} - 2)",
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
        self.value = float(value)
        self.dt = float(dt)
        self.ds = float(ds)
        self.dtt = float(dtt)
        self.dts = float(dts)
        self.dss = float(dss)

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
        if o.value == 0.0:
            raise EvalError("division by zero")
        inv = o.chain(1.0 / o.value, -1.0 / o.value ** 2, 2.0 / o.value ** 3)
        return self * inv

    def __rtruediv__(self, other):
        o = BiJet2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self


# Each unary rule as Python source in the argument value ``x``: a guard (or
# None), then the outer function u and its derivatives du and ddu.  UNARY below
# and the compiled jets of ``profiles`` are both generated from this table.
_POSITIVE = "if {x} <= 0.0: raise EvalError('argument must be positive, got ' + repr({x}))"
_EXP_OVERFLOW = "if {x} > 700.0: raise EvalError('exp overflow')"
UNARY_SOURCE = {
    "exp": (_EXP_OVERFLOW, "math.exp({x})", "math.exp({x})", "math.exp({x})"),
    "log": (_POSITIVE, "math.log({x})", "1.0 / {x}", "-1.0 / {x} ** 2"),
    "sin": (None, "math.sin({x})", "math.cos({x})", "-math.sin({x})"),
    "cos": (None, "math.cos({x})", "-math.sin({x})", "-math.cos({x})"),
    "sinh": (_EXP_OVERFLOW, "math.sinh({x})", "math.cosh({x})", "math.sinh({x})"),
    "cosh": (_EXP_OVERFLOW, "math.cosh({x})", "math.sinh({x})", "math.cosh({x})"),
    "sqrt": (_POSITIVE, "math.sqrt({x})", "0.5 / math.sqrt({x})", "-0.25 / {x} ** 1.5"),
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
    namespace = {"math": math, "EvalError": EvalError, "Jet2": Jet2, "__name__": __name__}
    exec("\n".join(src), namespace)
    return namespace[name]


UNARY = {name: _unary(name, *rule) for name, rule in UNARY_SOURCE.items()}
exp, log, sin, cos, sinh, cosh, sqrt = (UNARY[name] for name in UNARY_SOURCE)

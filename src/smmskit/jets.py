"""Second-order forward-mode jets.

A ``Jet2`` carries the value and first two derivatives of a scalar function
of one variable; arithmetic propagates them exactly (product, quotient and
chain rules), so no symbolic differentiation or finite differencing is
involved.  ``BiJet2`` is the two-variable analogue used for densities that
depend on the base coordinate and one fiber coordinate: it carries the
gradient pair and the symmetric 2x2 block of second partials.

The profiles evaluate on 1-D arrays of points, so the parts of their jets
are equal-length arrays; a part that does not depend on the point (a
constant, or a derivative of one) may stay a float.  Array arithmetic is
IEEE-exact like float arithmetic, and every power and transcendental goes
through ``power`` or ``fmap``, so an entry of an array result is bitwise
what CPython computes on that entry's floats:

- a power runs as one C loop, ``np.float_power``, which calls the same
  C-library ``pow`` as CPython's float ``**`` (numpy has no SIMD version of
  it); ``np.power`` is not used, because ``np.power(x, 2.0)`` is ``x * x``;
- a square root runs as ``np.sqrt``, correctly rounded like ``math.sqrt``;
- sin and cos run as ``np.sin`` and ``np.cos``, which on numpy 2.4 give the
  C library's bits: no entry differed among 1.46 million (magnitudes up to
  1e300, subnormals, points near multiples of pi, strided and offset views)
  at the AVX-512 dispatch, nor with ``NPY_DISABLE_CPU_FEATURES`` turning
  off AVX-512 (``X86_V4``, ``AVX512_ICL``, ``AVX512_SPR``) or AVX2 as well
  (1.46 million again at each);
  ``tests/test_array_routes.py`` checks this at both dispatches;
- exp, log, sinh and cosh call the ``math`` function entry by entry:
  numpy's SIMD versions differ from libm in the last bit at about 4.6 %,
  0.01-0.2 %, 26 % and 22-24 % of entries on an AVX-512 host.

Where a C loop's result has an entry that is not finite, the scalar
function runs entry by entry instead, so the values, the first exception
and its message are those of the scalar loop (CPython raises where libm
returns inf or NaN: overflow, 0.0 to a negative power, a negative base to a
fractional power, the square root of a negative number).

``JET_SOURCE`` and ``UNARY_SOURCE`` state the rules once, as Python source:
a power is written ``_pow(a, p)``, a guard ``if _any(test): raise ...`` and
a guard's message shows its operand with ``_repr``.  What those names mean
comes from the namespace the compiled code runs in, ``ARRAY_NAMESPACE``:
``math`` functions wrapped by ``fmap``, ``power``, ``_any`` and ``_repr``.
A compiled profile runs one code object, shared by every tree of its shape,
in it; ``UNARY`` is generated from the same table.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np
from numpy import ndarray

from .errors import EvalError

_FINITE_CAP = 1e300


# Each helper takes an array or a float: a part of a jet that does not depend
# on the point stays a float.

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


def _repr(x) -> str:
    """repr of a float; a one-entry array, which is what a float is
    evaluated as, shows as its entry's float."""
    return repr(x.item() if isinstance(x, ndarray) and x.size == 1 else x)


def _per_entry(fn, x: ndarray) -> ndarray:
    """fn called on each entry of a 1-D array, as a fresh float array."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _c_loop(ufunc, fn, x: ndarray, *args) -> ndarray:
    """ufunc(x, *args), or fn entry by entry where that is not finite.

    ufunc computes fn bit for bit wherever fn's result is finite, and is
    inf or NaN wherever fn raises, so the result is the scalar loop's."""
    with np.errstate(all="ignore"):
        out = ufunc(x, *args)
    if np.isfinite(out).all():
        return out
    return _per_entry(fn, x)


# The math functions whose numpy ufunc gives their bits (see the module
# docstring); every other one runs entry by entry.
_UFUNCS = {math.sqrt: np.sqrt, math.sin: np.sin, math.cos: np.cos}


def fmap(fn, x):
    """fn(x) on a float; fn mapped over the entries of a 1-D array, as one
    C loop where ``_UFUNCS`` has a ufunc for fn."""
    if not isinstance(x, ndarray):
        return fn(x)
    ufunc = _UFUNCS.get(fn)
    if ufunc is not None:
        return _c_loop(ufunc, fn, x)
    return _per_entry(fn, x)


def power(x, p):
    """x ** p by CPython's float power; on an array, the same C-library
    ``pow`` in one loop over the entries."""
    if not isinstance(x, ndarray):
        return x ** p
    return _c_loop(np.float_power, lambda a: a ** p, x, p)


def _part(x):
    return x if isinstance(x, ndarray) else float(x)


class Jet2:
    """Value and first two derivatives with respect to one variable."""

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value, d1=0.0, d2=0.0):
        self.value, self.d1, self.d2 = _part(value), _part(d1), _part(d2)

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


# Each Jet2 rule above as straight-line statements on arrays, with
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
        self.value, self.dt, self.ds, self.dtt, self.dts, self.dss = \
            map(_part, (value, dt, ds, dtt, dts, dss))

    @staticmethod
    def lift_t(j: Jet2) -> "BiJet2":
        """Embed a jet in t as a two-variable jet with no s dependence."""
        return BiJet2(j.value, j.d1, 0.0, j.d2, 0.0, 0.0)

    @staticmethod
    def lift_s(j: Jet2) -> "BiJet2":
        return BiJet2(j.value, 0.0, j.d1, 0.0, 0.0, j.d2)

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


# Each unary rule as Python source in the argument value ``x``: a guard (or
# None), then the outer function u and its derivatives du and ddu, assigned
# in that order, so a later one reads an earlier one by name and each libm
# function runs once per rule (a negation is exact, so ``-u`` is the bits of
# ``-math.sin(x)``).  UNARY below and the compiled jets of ``profiles`` are
# both generated from this table.
_POSITIVE = "if _any({x} <= 0.0): raise EvalError('argument must be positive, got ' + _repr({x}))"
_EXP_OVERFLOW = "if _any({x} > 700.0): raise EvalError('exp overflow')"
UNARY_SOURCE = {
    "exp": (_EXP_OVERFLOW, "math.exp({x})", "u", "u"),
    "log": (_POSITIVE, "math.log({x})", "1.0 / {x}", "-1.0 / _pow({x}, 2)"),
    "sin": (None, "math.sin({x})", "math.cos({x})", "-u"),
    "cos": (None, "math.cos({x})", "-math.sin({x})", "-u"),
    "sinh": (_EXP_OVERFLOW, "math.sinh({x})", "math.cosh({x})", "u"),
    "cosh": (_EXP_OVERFLOW, "math.cosh({x})", "math.sinh({x})", "u"),
    "sqrt": (_POSITIVE, "math.sqrt({x})", "0.5 / u", "-0.25 / _pow({x}, 1.5)"),
}


# The namespace a rule runs in: the ``math`` functions and CPython's float
# power mapped over the entries (``fmap`` and ``power``), and a guard that
# fires when its test holds at any entry.
ARRAY_NAMESPACE = {
    "math": SimpleNamespace(**{name: functools.partial(fmap, getattr(math, name))
                               for name in UNARY_SOURCE}),
    "EvalError": EvalError, "_check": _check, "_pow": power, "_any": _any,
    "_repr": _repr,
}


def _unary(name, guard, *outer):
    """Jet function of one rule; a plain number is taken as a constant jet."""
    src = [f"def {name}(j):",
           "    if isinstance(j, (int, float)):",
           "        j = Jet2.constant(j)",
           "    x = j.value"]
    if guard is not None:
        src.append("    " + guard.format(x="x"))
    src += [f"    {name} = {expr.format(x='x')}" for name, expr in zip(("u", "du", "ddu"), outer)]
    src.append("    return j.chain(u, du, ddu)")
    namespace = {**ARRAY_NAMESPACE, "Jet2": Jet2, "__name__": __name__}
    exec("\n".join(src), namespace)
    return namespace[name]


UNARY = {name: _unary(name, *rule) for name, rule in UNARY_SOURCE.items()}
exp, log, sin, cos, sinh, cosh, sqrt = (UNARY[name] for name in UNARY_SOURCE)

"""A float reference for compiled profiles.

``FLOAT_NAMESPACE`` binds every name of the rule texts of ``smmskit.jets``
and ``smmskit.profiles`` to plain CPython: the real ``math``, the float
power ``operator.pow``, ``bool`` and ``repr``.  ``FloatProfile`` runs the
source text that ``profiles._source`` emits for a tree's shape in that
namespace, wrapped as a float evaluation of ``Profile1D`` is specified: a domain
check, the compiled call, and errors that name t.  The parity tests compare
``Profile1D`` on arrays with it bit for bit.  Nothing here is a code path
of the package.
"""

import math
import operator

from smmskit.errors import EvalError
from smmskit.jets import Jet2, _check
from smmskit.profiles import _code, _shape, _source

FLOAT_NAMESPACE = {"math": math, "EvalError": EvalError, "_check": _check,
                   "_pow": operator.pow, "_any": bool, "_repr": repr}


class FloatProfile:
    """value(t) and jet(t) of a Profile1D's tree on one float."""

    def __init__(self, prof):
        consts = []
        src = _source(_shape(prof.node, consts))
        namespace = {**FLOAT_NAMESPACE, "_c": tuple(consts)}
        exec(_code(src), namespace)
        self.domain = prof.domain
        self._value, self._jet = namespace["value"], namespace["jet"]

    def value(self, t: float) -> float:
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

    def jet(self, t: float) -> Jet2:
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

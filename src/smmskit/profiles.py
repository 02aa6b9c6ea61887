"""One-variable profiles as expression trees, plus sampling utilities.

Every profile has a ``domain`` interval, ``value(t)`` and the exact
second-order ``jet(t)`` (both raise DomainError outside the domain),
``is_constant()``, ``check_positive(samples=..., margin=...)`` with
``margin`` the relative inset of the sample from open endpoints, and
``to_string()``.  The evaluation protocol is written once, in
:class:`Profile`, and every implementation inherits it and supplies only
``_compute(ts, which)``.  ``value`` and ``jet`` evaluate a 1-D array of
points and return arrays (a jet of arrays) whose entries are bitwise the
results at each point on its own; a failure, or a part that is not finite,
raises the error the first failing point raises on its own
(``_scalar_failure``).  A float is evaluated as the one-entry array and its
results turned back into floats (``_at_float``), so every profile has one
evaluation route.  The last array value and jet are remembered
(``_last_array``), keyed by the bytes of the query, so the consumers of one
grid share one evaluation; the arrays handed out are read-only.  A
one-entry array is not remembered, so a float never evicts a grid.  The
three implementations are the expression tree :class:`Profile1D`, a tree
of ``ast`` nodes that :func:`parse_expression` gets from Python's
``ast.parse`` and checks against the grammar, compiled at construction into
straight-line Python functions for the value and for the exact jet (the
rules of :mod:`smmskit.jets`, with the guards of the tree in tree order):
one source text per tree shape (``_source``), whose code is compiled once
per process (``_code``) and run in ``jets.ARRAY_NAMESPACE`` with the tree's
constants; the RK4 trajectory ``odes.OdeProfile`` with its derivative view,
which adds ``restricted``; and the quotient ``conformal.ReparamProfile`` by
a conformal map's own factor, pulled back through the map.  A separate
central-difference routine provides an independent derivative oracle.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import reprlib
import warnings
from dataclasses import dataclass

import numpy as np
from numpy import ndarray

from .errors import DomainError, EvalError, PositivityError
from .jets import ARRAY_NAMESPACE, JET_SOURCE, UNARY, UNARY_SOURCE, Jet2

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
# parsing into ast nodes

_CONSTANTS = {"pi": math.pi, "e": math.e}
_MAX_DEPTH = 200  # Python's own limit on nested parentheses
_BAD_CHARACTER = re.compile(r"[^\w.+\-*/^()\s]", re.ASCII)
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_expression(text: str) -> ast.expr:
    """Parse an infix expression over one variable into a tree of ``ast`` nodes.

    Grammar: ``+ - * / ^`` (also ``**``), parentheses, the functions
    exp/log/sin/cos/sinh/cosh/sqrt of one argument, constants ``pi`` and
    ``e``, decimal literals, and a single free variable (an ASCII name such
    as t or s), nested at most 200 deep.  Python's ``ast`` parses the text
    once ``^`` is spelled ``**``; the tree keeps only ``Constant`` (a
    float), ``Name``, ``UnaryOp`` (``-``), ``BinOp`` and ``Call``.
    """
    src = " ".join(text.split())
    bad = _BAD_CHARACTER.search(src)
    if bad:
        raise EvalError(f"unexpected character {bad.group()!r} in expression")
    src = _LEADING_ZEROS.sub("", src.replace("^", "**"))
    try:
        with warnings.catch_warnings():  # "1if ...": an error, not a line on stderr
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(src, mode="eval")
    except (SyntaxError, RecursionError, MemoryError, ValueError) as exc:
        why = exc.msg if isinstance(exc, SyntaxError) else exc
        raise EvalError(f"cannot parse {reprlib.repr(text)}: {why}") from None
    return _checked(tree.body, src, 1)


def _checked(node: ast.expr, src: str, depth: int) -> ast.expr:
    """The node of ``ast.parse(src)``, its children checked in place, if it
    is a node of the grammar; any other kind raises EvalError."""
    if depth > _MAX_DEPTH:
        raise EvalError(f"expression nested deeper than {_MAX_DEPTH}")
    depth += 1
    kind = type(node)
    if kind is ast.Constant:
        literal = src[node.col_offset:node.end_col_offset]  # ASCII: bytes are characters
        if _DECIMAL.fullmatch(literal):
            node.value = float(literal)
            return node
    elif kind is ast.Name:
        return ast.Constant(_CONSTANTS[node.id]) if node.id in _CONSTANTS else node
    elif kind is ast.UnaryOp and type(node.op) in (ast.USub, ast.UAdd):
        node.operand = _checked(node.operand, src, depth)
        return node if type(node.op) is ast.USub else node.operand
    elif kind is ast.BinOp and type(node.op) in _BINOPS:
        node.left = _checked(node.left, src, depth)
        node.right = _checked(node.right, src, depth)
        return node
    elif kind is ast.Call and type(node.func) is ast.Name:
        if node.func.id not in UNARY:
            raise EvalError(f"unknown function {node.func.id!r}")
        if len(node.args) == 1 and not node.keywords and type(node.args[0]) is not ast.Starred:
            node.args[0] = _checked(node.args[0], src, depth)
            return node
    part = src[node.col_offset:node.end_col_offset]
    raise EvalError(f"unexpected {reprlib.repr(part)} in expression")


_PLACEHOLDER = re.compile(r"\{(\d+)\}")  # in a template's text
_PLACEHOLDER_NAME = re.compile(r"_\d+")   # in its tree


@functools.lru_cache(maxsize=64)
def _template(template: str) -> ast.expr:
    """The tree of a template, each placeholder ``{i}`` parsed as the name
    ``_i``.  A placeholder may not be the base of a power: there the minus
    of a negative value would bind looser than the power."""
    tree = parse_expression(_PLACEHOLDER.sub(r"_\1", template))
    for node in ast.walk(tree):
        if (type(node) is ast.BinOp and type(node.op) is ast.Pow
                and type(node.left) is ast.Name and _PLACEHOLDER_NAME.fullmatch(node.left.id)):
            raise ValueError(f"placeholder {node.left.id} is the base of a power in {template!r}")
    return tree


def _filled(node: ast.expr, values: tuple) -> ast.expr:
    """The template tree with each name ``_i`` replaced by values[i] as
    ``parse_expression`` reads ``repr(values[i])`` there: a value whose
    sign bit is set as the negation of its magnitude."""
    kind = type(node)
    if kind is ast.Name and _PLACEHOLDER_NAME.fullmatch(node.id):
        v = values[int(node.id[1:])]
        return ast.UnaryOp(ast.USub(), ast.Constant(-v)) if math.copysign(1.0, v) < 0.0 \
            else ast.Constant(v)
    if kind is ast.UnaryOp:
        return ast.UnaryOp(node.op, _filled(node.operand, values))
    if kind is ast.Call:
        return ast.Call(node.func, [_filled(node.args[0], values)], [])
    if kind is ast.BinOp:
        return ast.BinOp(_filled(node.left, values), node.op, _filled(node.right, values))
    return node  # a constant or the variable, never changed after parsing


def _free_var(node: ast.expr):
    """The one variable a tree names, or None; two raise EvalError."""
    kind = type(node)
    if kind is ast.Constant:
        return None
    if kind is ast.Name:
        return node.id
    if kind is ast.UnaryOp:
        return _free_var(node.operand)
    if kind is ast.Call:
        return _free_var(node.args[0])
    a, b = _free_var(node.left), _free_var(node.right)
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise EvalError(f"expression mixes variables {a!r} and {b!r}")


# operator -> (symbol, precedence) of a BinOp in to_string
_INFIX = {ast.Add: ("+", 1), ast.Sub: ("-", 1), ast.Mult: ("*", 2), ast.Div: ("/", 2)}


def _to_str(node: ast.expr, prec: int = 0) -> str:
    """The tree in the grammar's notation, parenthesized where the context
    binds tighter (``prec``) than the node."""
    kind = type(node)
    if kind is ast.Constant:
        s = repr(node.value)
        return f"({s})" if node.value < 0 and prec > 1 else s
    if kind is ast.Name:
        return node.id
    if kind is ast.UnaryOp:
        s = f"-{_to_str(node.operand, 3)}"
        return f"({s})" if prec > 1 else s
    if kind is ast.Call:
        return f"{node.func.id}({_to_str(node.args[0], 0)})"
    if type(node.op) is ast.Pow:
        s = f"{_to_str(node.left, 4)}^{_to_str(node.right, 4)}"
        return f"({s})" if prec > 3 else s
    op, own = _INFIX[type(node.op)]
    s = f"{_to_str(node.left, own)} {op} {_to_str(node.right, own + 1)}"
    return f"({s})" if prec > own else s


# ---------------------------------------------------------------------------
# compiling a tree to straight-line code

# The value of each node kind as statements on arrays, in the form
# of ``jets.JET_SOURCE``: ``a`` and ``b`` name the operands, ``r`` the result,
# ``p`` a constant exponent and ``fn`` a function.
VALUE_SOURCE = {
    "add": ("{r} = {a} + {b}",),
    "sub": ("{r} = {a} - {b}",),
    "mul": ("{r} = {a} * {b}",),
    "div": ("if _any({b} == 0.0): raise EvalError('division by zero')", "{r} = {a} / {b}"),
    "neg": ("{r} = -{a}",),
    "positive": ("if _any({a} <= 0.0): "
                 "raise EvalError('{fn} of nonpositive value ' + _repr({a}))",),
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


_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}


def _shape(node: ast.expr, consts: list):
    """The tree's shape, with its constants appended to consts in tree order.

    The shape is what the emitted source depends on, as nested tuples: a
    constant is ``"c"``, the variable ``"x"`` (whatever its name), and a
    node ``("neg", a)``, ``("call", fn, a)`` or ``(op, a, b)`` with op a
    name of ``_BINARY``.  Trees that differ only in their constants or the
    name of their variable have one shape.
    """
    kind = type(node)
    if kind is ast.Constant:
        consts.append(node.value)
        return "c"
    if kind is ast.Name:
        return "x"
    if kind is ast.UnaryOp:
        return ("neg", _shape(node.operand, consts))
    if kind is ast.Call:
        return ("call", node.func.id, _shape(node.args[0], consts))
    return (_BINARY[type(node.op)], _shape(node.left, consts), _shape(node.right, consts))


class _Emitter:
    """Straight-line statements for one shape (``_shape``), one temporary
    per result.

    A shape holds the node kinds that ``parse_expression`` keeps: constants,
    the variable, negation, ``+ - * / **`` and a call of a name of
    ``jets.UNARY`` on one argument.  The i-th constant in tree order is read
    as ``_c[i]`` and the free variable is the parameter ``x``, so no input
    text reaches the source; function names come from the parser's
    whitelist.  Children are emitted left to right before their parent, so
    the guards fire in tree-walk order.  The statements come from the one
    set of rule tables (``VALUE_SOURCE``, ``jets.JET_SOURCE``,
    ``jets.UNARY_SOURCE``).
    """

    def __init__(self):
        self.lines = []
        self.n_consts = 0
        self.n = 0

    def const(self) -> str:
        self.n_consts += 1
        return f"_c[{self.n_consts - 1}]"

    def temp(self) -> str:
        self.n += 1
        return f"v{self.n}"

    def emit(self, kind: str, **names):
        self.lines += [line.format(**names) for line in VALUE_SOURCE[kind]]

    def value_of(self, shape) -> str:
        """Name of the tree's value, with the guards of the tree walk."""
        if shape == "c":
            return self.const()
        if shape == "x":
            return "x"
        out = self.temp()
        op = shape[0]
        if op == "neg":
            self.emit("neg", r=out, a=self.value_of(shape[1]))
        elif op == "call":
            fn, a = shape[1], self.value_of(shape[2])
            if fn in ("log", "sqrt"):
                self.emit("positive", a=a, fn=fn)
            elif fn in ("exp", "sinh", "cosh"):
                self.emit("overflow", a=a, fn=fn)
            self.emit("call", r=out, a=a, fn=fn)
        elif op == "pow" and shape[2] == "c":
            b = self.value_of(shape[1])
            self.emit("pow", r=out, a=b, p=self.const())
        elif op == "pow":
            b, e = self.value_of(shape[1]), self.value_of(shape[2])
            self.emit("general_pow", r=out, a=b, b=e)
        else:
            a, b = self.value_of(shape[1]), self.value_of(shape[2])
            self.emit(op, r=out, a=a, b=b)
        return out

    def jet_of(self, shape) -> tuple:
        """Names of the tree's (value, d1, d2), by the rules of ``Jet2``."""
        if shape == "c":
            return (self.const(), "0.0", "0.0")
        if shape == "x":
            return ("x", "1.0", "0.0")
        op = shape[0]
        if op == "neg":
            return self.rule("neg", self.jet_of(shape[1]))
        if op == "call":
            return self.unary(shape[1], self.jet_of(shape[2]))
        if op == "pow" and shape[2] == "c":
            return self.rule("pow", self.jet_of(shape[1]), p=self.const())
        if op == "pow":
            # Jet2.__pow__ with a jet exponent: exp(e * log b)
            b, e = self.jet_of(shape[1]), self.jet_of(shape[2])
            return self.unary("exp", self.rule("mul", e, self.unary("log", b)))
        return self.rule(op, self.jet_of(shape[1]), self.jet_of(shape[2]))

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
def _source(shape) -> str:
    """The source text that defines ``value(x)`` and ``jet(x) -> (v, d1,
    d2)`` for every tree of one shape, emitted once per shape; both read
    the tree's constants as ``_c``."""
    em = _Emitter()
    result = em.value_of(shape)
    src = ["def value(x):", *(f"    {s}" for s in em.lines), f"    return {result}"]
    em.lines, em.n_consts = [], 0
    result = em.jet_of(shape)
    src += ["def jet(x):", *(f"    {s}" for s in em.lines),
            f"    return ({', '.join(result)})"]
    return "\n".join(src)


@functools.lru_cache(maxsize=512)
def _code(src: str):
    """compile(src) for a source text of _source, once per text: every
    profile of one shape shares one code object."""
    return compile(src, "<profile>", "exec")


def _compile(node: ast.expr) -> tuple:
    """``(value, jet)`` of a tree as Python functions of a 1-D array x: the
    one source text of its shape, compiled once (``_code``) and run with
    this tree's constants in ``jets.ARRAY_NAMESPACE``.  A part that does
    not depend on x stays a float."""
    consts = []
    src = _source(_shape(node, consts))
    namespace = {**ARRAY_NAMESPACE, "_c": tuple(consts)}
    exec(_code(src), namespace)
    return namespace["value"], namespace["jet"]


# ---------------------------------------------------------------------------
# profiles

def _at_float(method, t):
    """method(t) for a float t: method on the one-entry array [t], with each
    part of its result (an array, or a jet of arrays) turned back into a
    float."""
    out = method(np.array([float(t)]))
    if isinstance(out, Jet2):
        return Jet2(out.value.item(), out.d1.item(), out.d2.item())
    return out.item()


def _scalar_failure(method, ts: np.ndarray, error: Exception):
    """Raises error, the failure of a one-entry ts (a float's call); on a
    longer ts, the error that a loop of float calls of method over ts raises
    first, by running that loop."""
    if ts.size > 1:
        for t in ts.tolist():
            method(t)
        error = EvalError(f"profile failed on an array at no single point: {error}")
    raise error


def _last_array(slots: list, which: int, ts: np.ndarray, compute) -> tuple:
    """compute(ts), a tuple of parts, remembered in slots[which].

    The slot holds the last array result of one kind keyed by the bytes of
    ts, so a second call on an equal array returns the same parts without
    computing them.  A one-entry ts, which is what a float is evaluated as,
    or an empty one is never remembered.  The parts are arrays the shape of
    ts (a float part is broadcast), share no memory with ts and are
    read-only.  A call that raises leaves the slot as it was.
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
    if ts.size > 1:
        slots[which] = (key, parts)
    return parts


class Profile:
    """The evaluation protocol of every profile, written once.

    A subclass sets ``domain`` and ``_last``, a list of at least two memo
    slots (``_last_array``: slot 0 the last array value, slot 1 the last
    array jet), and supplies ``_compute(ts, which)``: the parts of the value
    (which 0, a one-tuple) or of the jet (1: value, d1, d2) at every entry
    of a 1-D array ts inside the domain, raising EvalError where it fails.
    A profile is not constant unless the subclass says so.
    """

    def value(self, t):
        if type(t) is not ndarray:
            return _at_float(self.value, t)
        return _last_array(self._last, 0, t, lambda ts: self._evaluate(ts, 0))[0]

    def jet(self, t) -> Jet2:
        if type(t) is not ndarray:
            return _at_float(self.jet, t)
        return Jet2(*_last_array(self._last, 1, t, lambda ts: self._evaluate(ts, 1)))

    def is_constant(self) -> bool:
        return False

    def _evaluate(self, ts: np.ndarray, which: int) -> tuple:
        """The parts of _compute(ts, which), computed as floats are (IEEE
        overflow to inf, no warning), after the domain check and once every
        part is finite.  A failure on one entry is its own; on more, the
        first failing entry's (``_scalar_failure``)."""
        method = (self.value, self.jet)[which]
        try:
            self.domain.require(ts)
            with np.errstate(all="ignore"):
                parts = self._compute(ts, which)
        except (DomainError, EvalError) as exc:
            _scalar_failure(method, ts, exc)
        if not all(np.isfinite(p).all() for p in parts):
            _scalar_failure(method, ts, EvalError(
                f"profile jet not finite at t={float(ts[0])}" if which
                else f"profile evaluated to {float(np.ravel(parts[0])[0])!r} at t={float(ts[0])}"))
        return parts


class Profile1D(Profile):
    """Expression-tree profile of one variable on a declared interval."""

    def __init__(self, node: ast.expr, domain: Interval, var: str | None = None):
        self.node = node
        self.domain = domain
        self._var = _free_var(node)
        if var is not None and self._var is not None and self._var != var:
            raise EvalError(f"expression uses {self._var!r}, declared variable is {var!r}")
        self._compiled = _compile(node)
        self._last = [None, None]  # last array value and jet, see _last_array

    @classmethod
    def from_string(cls, text: str, domain: Interval,
                    var: str | None = None) -> "Profile1D":
        return cls(parse_expression(text), domain, var=var)

    @classmethod
    def from_template(cls, template: str, values: tuple, domain: Interval,
                      var: str | None = None) -> "Profile1D":
        """``from_string(template.format(*map(repr, values)), ...)``: the same
        tree, text and errors.  When every value is a finite float the
        template is parsed once per process (``_template``) and the values
        put in its tree; otherwise the formatted text is parsed."""
        if all(type(v) is float and math.isfinite(v) for v in values):
            return cls(_filled(_template(template), values), domain, var=var)
        return cls.from_string(template.format(*map(repr, values)), domain, var=var)

    @classmethod
    def constant(cls, c: float, domain: Interval, var: str = "t") -> "Profile1D":
        return cls(ast.Constant(float(c)), domain, var=var)

    def __repr__(self):
        return f"Profile1D({self.to_string()!r} on ({self.domain.lo}, {self.domain.hi}))"

    def to_string(self) -> str:
        return _to_str(self.node)

    def _compute(self, ts: np.ndarray, which: int) -> tuple:
        """The compiled value (0) or jet (1); a guard or an arithmetic error
        of the tree names the first entry's t."""
        try:
            out = self._compiled[which](ts)
        except EvalError as exc:  # a guard of the tree
            raise EvalError(f"{exc} at t={float(ts[0])}") from None
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            kind = "profile jet" if which else "profile"
            raise EvalError(f"{kind} arithmetic failed at t={float(ts[0])}: {exc}") from None
        return out if which else (out,)

    def is_constant(self) -> bool:
        return self._var is None

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

    Independent of the jet arithmetic: only calls ``profile.value``, once,
    on the stencil [t-h, t, t+h].  The stencil must lie inside the
    profile's domain.
    """
    dom = profile.domain
    if not (dom.contains(t - h) and dom.contains(t + h)):
        raise DomainError(f"stencil [{t - h}, {t + h}] leaves the domain")
    fm, f0, fp = profile.value(np.array([t - h, t, t + h])).tolist()
    return Jet2(f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h))

"""Second-order jet arithmetic: exact derivative propagation."""

import math
import re

import pytest

import smmskit.jets as J
from smmskit.errors import EvalError
from smmskit.profiles import VALUE_SOURCE

APPROX = dict(rel=1e-12, abs=1e-12)


def jet_close(j, value, d1, d2):
    assert j.value == pytest.approx(value, **APPROX)
    assert j.d1 == pytest.approx(d1, **APPROX)
    assert j.d2 == pytest.approx(d2, **APPROX)


def test_variable_and_constant():
    jet_close(J.Jet2.variable(0.7), 0.7, 1.0, 0.0)
    jet_close(J.Jet2.constant(3.5), 3.5, 0.0, 0.0)


def test_arithmetic_against_hand_derivatives():
    t = 0.6
    a = J.Jet2.variable(t)
    s, c, e = J.sin(a), J.cos(a), J.exp(a)
    jet_close(s, math.sin(t), math.cos(t), -math.sin(t))
    jet_close(c, math.cos(t), -math.sin(t), -math.cos(t))
    jet_close(e, math.exp(t), math.exp(t), math.exp(t))

    # product rule: (sin * exp)'' = 2 cos e^t
    p = s * e
    jet_close(p, math.sin(t) * math.exp(t),
              (math.sin(t) + math.cos(t)) * math.exp(t),
              2.0 * math.cos(t) * math.exp(t))

    # quotient rule: tan
    q = s / c
    sec2 = 1.0 / math.cos(t) ** 2
    jet_close(q, math.tan(t), sec2, 2.0 * math.tan(t) * sec2)

    # linear combinations with plain floats
    jet_close(2.0 * a + 1.0, 2.0 * t + 1.0, 2.0, 0.0)
    jet_close(1.0 - a, 1.0 - t, -1.0, 0.0)
    jet_close((-a) * a, -t * t, -2.0 * t, -2.0)


def test_integer_and_fractional_powers():
    t = 0.7
    a = J.Jet2.variable(t)
    jet_close(a ** 3, t ** 3, 3.0 * t ** 2, 6.0 * t)
    p = a ** 2.5
    jet_close(p, t ** 2.5, 2.5 * t ** 1.5, 2.5 * 1.5 * t ** 0.5)


def test_hyperbolic_identity_cancels():
    a = J.Jet2.variable(1.3)
    one = J.cosh(a) * J.cosh(a) - J.sinh(a) * J.sinh(a)
    jet_close(one, 1.0, 0.0, 0.0)


def test_log_exp_sqrt_inverses():
    t = 0.9
    a = J.Jet2.variable(t)
    jet_close(J.log(J.exp(a)), t, 1.0, 0.0)
    jet_close(J.sqrt(a * a), t, 1.0, 0.0)


def test_chain_rule_reparametrization():
    # w(t(q)) with t = q^2: self is the inner jet, arguments are the outer
    # function's value and derivatives at the inner value
    q = 1.2
    t = q * q
    inner = J.Jet2(t, 2.0 * q, 2.0)
    j = inner.chain(math.sin(t), math.cos(t), -math.sin(t))
    jet_close(j, math.sin(q * q),
              math.cos(q * q) * 2.0 * q,
              -math.sin(q * q) * 4.0 * q * q + math.cos(q * q) * 2.0)


def test_domain_errors():
    with pytest.raises(EvalError):
        J.log(J.Jet2.constant(-1.0))
    with pytest.raises(EvalError):
        J.sqrt(J.Jet2.constant(-0.5))
    with pytest.raises(EvalError):
        J.sqrt(J.Jet2.constant(0.0))  # derivative singular at 0
    with pytest.raises(EvalError):
        J.Jet2.variable(1.0) / J.Jet2.constant(0.0)


def test_bijet_product_mixed_partials():
    # v(t, s) = phi(t) psi(s) with arbitrary jet data
    phi = J.Jet2(2.0, 3.0, 4.0)
    psi = J.Jet2(5.0, 6.0, 7.0)
    b = J.BiJet2.lift_t(phi) * J.BiJet2.lift_s(psi)
    assert b.value == 10.0
    assert b.dt == 15.0       # phi' psi
    assert b.ds == 12.0       # phi psi'
    assert b.dtt == 20.0      # phi'' psi
    assert b.dts == 18.0      # phi' psi'
    assert b.dss == 14.0      # phi psi''


def test_bijet_log_separates_variables():
    # log(phi(t) psi(s)) has vanishing mixed partial
    phi = J.Jet2(2.0, 3.0, 4.0)
    psi = J.Jet2(5.0, 6.0, 7.0)
    lg = J.log(J.BiJet2.lift_t(phi) * J.BiJet2.lift_s(psi))
    assert lg.dts == pytest.approx(0.0, abs=1e-14)
    assert lg.dt == pytest.approx(3.0 / 2.0, **APPROX)
    assert lg.ds == pytest.approx(6.0 / 5.0, **APPROX)
    assert lg.dtt == pytest.approx(4.0 / 2.0 - (3.0 / 2.0) ** 2, **APPROX)


def test_bijet_sum_and_chain():
    phi = J.Jet2(1.5, -0.4, 0.9)
    alpha = J.Jet2(0.7, 0.2, -0.3)
    psi = J.Jet2(2.0, 1.0, 0.5)
    # v(t, s) = phi(t) psi(s) + alpha(t)
    v = J.BiJet2.lift_t(phi) * J.BiJet2.lift_s(psi) + J.BiJet2.lift_t(alpha)
    assert v.value == pytest.approx(1.5 * 2.0 + 0.7, **APPROX)
    assert v.dts == pytest.approx(-0.4 * 1.0, **APPROX)
    assert v.dss == pytest.approx(1.5 * 0.5, **APPROX)
    # chain through x -> x^2 (value 3.7 kept positive)
    sq = v.chain(v.value ** 2, 2.0 * v.value, 2.0)
    assert sq.dt == pytest.approx(2.0 * v.value * v.dt, **APPROX)
    assert sq.dts == pytest.approx(2.0 * (v.dt * v.ds + v.value * v.dts), **APPROX)


def _rule_statements():
    """Every statement of the shared rule tables, with where it comes from."""
    for table, rules in (("JET_SOURCE", J.JET_SOURCE), ("VALUE_SOURCE", VALUE_SOURCE)):
        for op, rule in rules.items():
            for stmt in rule:
                yield f"{table}[{op!r}]", stmt
    for name, rule in J.UNARY_SOURCE.items():
        for stmt in rule:
            if stmt is not None:
                yield f"UNARY_SOURCE[{name!r}]", stmt


def test_rule_texts_run_on_floats_and_arrays_alike():
    # one text runs in both namespaces only if every power, guard and math
    # function goes through a name the namespace binds: a bare ** would put
    # numpy's power on arrays and move their last bits
    statements = list(_rule_statements())
    assert len(statements) > 40
    for where, stmt in statements:
        assert "**" not in stmt, where
        if stmt.startswith("if ") or "raise" in stmt:
            assert stmt.startswith("if _any("), where
        for fn in re.findall(r"math\.([^(]+)\(", stmt):
            assert fn in J.UNARY_SOURCE or fn == "{fn}", where
    # {fn} is a parsed function name, which the parser takes from UNARY alone
    assert set(J.ARRAY_NAMESPACE["math"].__dict__) == set(J.UNARY_SOURCE)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesolve import eval_expr, eval_on_arrays, parse
from conesolve.errors import (ArityError, EvalDomainError, ExprSyntaxError,
                              MissingBinding, UnknownFunction,
                              UnknownVariable)
from conesolve.expr import Binary, Call, Constant, Unary, Var, free_vars
from conesolve.verify import GUARD_CASES, PRECEDENCE_CASES

UV = {"u1", "u2"}


def test_max_power_tree_shape():
    tree = parse("max(u1,u2)^2", UV)
    assert isinstance(tree, Binary) and tree.op == "^"
    assert isinstance(tree.left, Call) and tree.left.func == "max"
    assert tree.left.args == (Var("u1"), Var("u2"))
    assert tree.right == Constant(2.0)


def test_reference_nonlinearity_parses():
    tree = parse("sqrt(max(u1,u2)) + tan(max(u1,u2))", UV)
    assert isinstance(tree, Binary) and tree.op == "+"
    assert {tree.left.func, tree.right.func} == {"sqrt", "tan"}
    assert free_vars(tree) == {"u1", "u2"}


def test_unknown_variable_with_position():
    with pytest.raises(UnknownVariable) as err:
        parse("u3", UV)
    assert err.value.position == 1


def test_unknown_function_and_arity():
    with pytest.raises(UnknownFunction):
        parse("sinh(u1)", UV)
    with pytest.raises(ArityError):
        parse("sqrt(u1, u2)", UV)
    with pytest.raises(ArityError):
        parse("min(u1)", UV)
    with pytest.raises(ArityError):
        parse("pow(u1)", UV)


def test_syntax_errors_carry_positions():
    for src, col in [("1 +", 4), ("(1", 3), ("1 2", 3), ("", 1)]:
        with pytest.raises(ExprSyntaxError) as err:
            parse(src, UV)
        assert err.value.position == col


@pytest.mark.parametrize("src,col", [("1e999", 1), ("2 * 1.8e308", 5),
                                     ("-1e400 + u1", 2),
                                     ("max(u1, 1e309)", 9)])
def test_overflowing_literals_rejected(src, col):
    with pytest.raises(ExprSyntaxError, match="overflows") as err:
        parse(src, UV)
    assert err.value.position == col


def test_largest_double_literal_parses():
    assert eval_expr(parse("1.7976931348623157e308", UV), {}) \
        == 1.7976931348623157e308


@pytest.mark.parametrize("src,expected", PRECEDENCE_CASES)
def test_precedence_vector(src, expected):
    assert eval_expr(parse(src, {"s"}), {"s": 0.0}) == expected


def test_sqrt_plus_tan_at_zero():
    assert eval_expr(parse("sqrt(s)+tan(s)", {"s"}), {"s": 0.0}) == 0.0


def test_max_power_at_box_corner():
    rho = 15 * math.pi / 64
    got = eval_expr(parse("max(u1,u2)^2", UV), {"u1": rho, "u2": rho})
    assert got == pytest.approx(rho * rho, rel=1e-15)
    assert got == pytest.approx(0.5421535620715588, rel=1e-12)


@pytest.mark.parametrize("src,bindings", GUARD_CASES)
def test_domain_guards_raise(src, bindings):
    with pytest.raises(EvalDomainError):
        eval_expr(parse(src, {"s"}), bindings)


@pytest.mark.parametrize("src,op,value", [
    ("1e308*10", "*", 1e308),
    ("-s-s", "-", -1e308),
    ("s+1 + s", "+", 1e308),
    ("sqrt(s) * s * s", "*", 1e154),
])
def test_overflow_names_the_operation(src, op, value):
    # the reported value is the left operand of the overflowing operation
    with pytest.raises(EvalDomainError) as err:
        eval_expr(parse(src, {"s"}), {"s": 1e308})
    assert (err.value.function, err.value.value) == (op, value)


def test_overflow_on_arrays_reports_the_operand():
    tree = parse("u1 * u2", UV)
    with pytest.raises(EvalDomainError) as err:
        eval_on_arrays(tree, {"u1": np.array([1.0, 1e200, 2.0]),
                              "u2": np.array([3.0, 1e200, 4.0])})
    assert (err.value.function, err.value.value) == ("*", 1e200)


def test_non_finite_binding_rejected():
    with pytest.raises(EvalDomainError) as err:
        eval_on_arrays(parse("sin(u1) + u2", UV),
                       {"u1": np.array([0.0, np.inf]), "u2": 1.0})
    assert err.value.function == "u1"


def test_tan_guard_window():
    tree = parse("tan(s)", {"s"})
    with pytest.raises(EvalDomainError) as err:
        eval_expr(tree, {"s": math.pi / 2 + 5e-9})
    assert err.value.function == "tan"
    # outside the exclusion window evaluation is allowed
    assert math.isfinite(eval_expr(tree, {"s": math.pi / 2 + 1e-6}))
    with pytest.raises(EvalDomainError):
        eval_expr(tree, {"s": math.pi / 2 + 3 * math.pi})


def test_missing_binding():
    with pytest.raises(MissingBinding):
        eval_expr(parse("u1 + u2", UV), {"u1": 1.0})


def test_array_evaluation_matches_scalar():
    tree = parse("sqrt(max(u1,u2)) + tan(max(u1,u2))", UV)
    u1 = np.linspace(0.0, 0.7, 11)
    u2 = np.linspace(0.7, 0.0, 11)
    vec = eval_on_arrays(tree, {"u1": u1, "u2": u2})
    for k in range(11):
        assert vec[k] == eval_expr(tree, {"u1": u1[k], "u2": u2[k]})


def test_array_domain_error_reports_offender():
    tree = parse("sqrt(u1)", UV)
    with pytest.raises(EvalDomainError) as err:
        eval_on_arrays(tree, {"u1": np.array([1.0, 4.0, -9.0])})
    assert err.value.value == -9.0


def test_determinism():
    tree = parse("sqrt(u1) * tan(u2) - u1/u2 + 2^u1", UV)
    vals = {"u1": 0.37, "u2": 0.91}
    assert eval_expr(tree, vals) == eval_expr(tree, vals)


# random well-formed trees: the printer round-trips and evaluation either
# returns a finite float or raises the structured domain error

_names = st.sampled_from(["u1", "u2", "x1"])
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(Constant),
    _names.map(Var))


def _build(children):
    unary_ops = children.map(lambda c: Unary("neg", c))
    binary_ops = st.tuples(st.sampled_from("+-*/^"), children, children).map(
        lambda t: Binary(t[0], t[1], t[2]))
    calls = st.one_of(
        st.tuples(st.sampled_from(["sqrt", "tan", "sin", "cos", "exp",
                                   "log", "abs"]), children).map(
            lambda t: Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["min", "max", "pow"]), children,
                  children).map(lambda t: Call(t[0], (t[1], t[2]))))
    return st.one_of(unary_ops, binary_ops, calls)


_trees = st.recursive(_leaf, _build, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(tree=_trees, u1=st.floats(0.0, 2.0), u2=st.floats(0.0, 2.0),
       x1=st.floats(-1.0, 1.0))
def test_fuzz_evaluation_is_total(tree, u1, u2, x1):
    try:
        value = eval_expr(tree, {"u1": u1, "u2": u2, "x1": x1})
    except EvalDomainError:
        return
    assert math.isfinite(value)


_huge_leaf = st.one_of(
    st.floats(min_value=-1.7976931348623157e308,
              max_value=1.7976931348623157e308).map(Constant),
    _names.map(Var))


def _arithmetic(children):
    return st.one_of(
        children.map(lambda c: Unary("neg", c)),
        st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: Binary(t[0], t[1], t[2])))


@settings(max_examples=200, deadline=None)
@given(tree=st.recursive(_huge_leaf, _arithmetic, max_leaves=8),
       u=st.lists(st.floats(-1e308, 1e308), min_size=3, max_size=3))
def test_fuzz_arithmetic_overflow_is_an_error(tree, u):
    # values near the largest double overflow +, - and *; evaluation must
    # then raise, on scalars and on arrays alike
    points = [dict(zip(["u1", "u2", "x1"], u)),
              {"u1": 0.0, "u2": 0.0, "x1": 0.0}]
    values = []
    for bindings in points:
        try:
            values.append(eval_expr(tree, bindings))
        except EvalDomainError:
            values.append(None)
    assert all(math.isfinite(v) for v in values if v is not None)
    arrays = {k: np.array([p[k] for p in points]) for k in points[0]}
    try:
        vec = eval_on_arrays(tree, arrays)
    except EvalDomainError:
        assert None in values
    else:
        assert np.broadcast_to(vec, (2,)).tolist() == values

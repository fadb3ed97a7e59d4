import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesolve import eval_expr, eval_on_arrays, parse
from conesolve.errors import (ArityError, EvalDomainError, ExprSyntaxError,
                              MissingBinding, UnknownFunction,
                              UnknownVariable)
from conesolve.expr import (FUNCTIONS, MAX_DEPTH, OPERATIONS, Call, Constant,
                            Var, free_vars)
from conesolve.verify import GUARD_CASES, PRECEDENCE_CASES

UV = {"u1", "u2"}


def test_max_power_tree_shape():
    tree = parse("max(u1,u2)^2", UV)
    assert tree.func == "^"
    base, expo = tree.args
    assert base == Call("max", (Var("u1"), Var("u2")))
    assert expo == Constant(2.0)


def test_reference_nonlinearity_parses():
    tree = parse("sqrt(max(u1,u2)) + tan(max(u1,u2))", UV)
    assert tree.func == "+"
    assert {arg.func for arg in tree.args} == {"sqrt", "tan"}
    assert free_vars(tree) == {"u1", "u2"}


def test_unknown_variable_with_position():
    with pytest.raises(UnknownVariable) as err:
        parse("u3", UV)
    assert err.value.position == 1


def test_unknown_function_and_arity():
    with pytest.raises(UnknownFunction):
        parse("sinh(u1)", UV)
    # unary minus is an operation, but not one a source calls by name
    with pytest.raises(UnknownFunction, match="unknown function 'neg'"):
        parse("neg(u1)", UV)
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


# Shapes that nest k levels deep, with the column of the token that opens
# level k: parentheses, calls, minus signs and a sum (its last '+').
NESTINGS = {
    "parentheses": (lambda k: "(" * k + "u1" + ")" * k, lambda k: k),
    "sqrt calls": (lambda k: "sqrt(" * k + "u1" + ")" * k,
                   lambda k: 5 * k - 4),
    "minus signs": (lambda k: "-" * k + "u1", lambda k: k),
    "sum": (lambda k: "+".join(["u1"] * (k + 1)), lambda k: 3 * k),
}


@pytest.mark.parametrize("shape,deep", [("parentheses", 200),
                                        ("sqrt calls", 170),
                                        ("minus signs", 1000),
                                        ("sum", 2000)])
def test_nesting_past_the_bound_is_a_syntax_error(shape, deep):
    # each of these used to end in a RecursionError
    source, column = NESTINGS[shape]
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than "
                       f"{MAX_DEPTH} levels") as err:
        parse(source(deep), UV)
    assert err.value.position == column(MAX_DEPTH + 1)


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_at_the_bound_parses_and_evaluates(shape):
    tree = parse(NESTINGS[shape][0](MAX_DEPTH), UV)
    assert free_vars(tree) == {"u1"}
    assert math.isfinite(eval_expr(tree, {"u1": 0.25}))


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


@pytest.mark.parametrize("src", [
    "max(1, -(1e308*10))", "min(1, 1e308*10)", "pow(1e308*10, 0)",
    "(s*s)^0", "1/(1e308*10)", "exp(-(1e308*10))",
    # the overflow comes before sqrt's domain error and is the one named
    "sqrt(-(s*10))",
])
def test_an_overflow_a_later_op_masks_still_raises(src):
    with pytest.raises(EvalDomainError) as err:
        eval_expr(parse(src, {"s"}), {"s": 1e308})
    assert (err.value.function, err.value.value) == ("*", 1e308)


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
    # far from every pole, where pi/2 + k*pi formed in doubles is off by
    # more than the window: cos(1e16) = -0.63
    for s in (1e16, 1e20, 1e300):
        assert eval_expr(tree, {"s": s}) == np.tan(s)


def test_readme_lists_the_table_functions():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"functions `([^`]*)`", readme).group(1)
    assert re.split(r",\s*", listed) == list(FUNCTIONS)


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


# each checked function on values where the range test fails: the error
# names the op and the first value the mask flags, also past a NaN, and
# before a value that would overflow
@pytest.mark.parametrize("src,u1,u2,op,bad", [
    ("sqrt(u1)", [4.0, -1.0, -2.0], 0.0, "sqrt", -1.0),
    ("sqrt(u1)", [np.nan, 1.0, -3.0], 0.0, "sqrt", -3.0),
    ("log(u1)", [2.0, 0.0, -1.0], 0.0, "log", 0.0),
    ("log(u1)", [np.nan, -1.0], 0.0, "log", -1.0),
    ("tan(u1)", [0.5, 3 * math.pi / 2, math.pi / 2], 0.0, "tan",
     3 * math.pi / 2),
    ("tan(u1)", [np.nan, -math.pi / 2], 0.0, "tan", -math.pi / 2),
    ("tan(u1)", [0.5, np.nan], 0.0, "tan", np.nan),
    ("u1^0.5", [1.0, -4.0, -9.0], 0.0, "^", -4.0),
    ("u1^-1", [np.nan, 2.0, 0.0], 0.0, "^", 0.0),
    ("u1^u2", [10.0, 0.0], [400.0, -1.0], "^", 0.0),
    ("pow(u1, u2)", [0.0, -8.0, 1.0], [-1.0, 0.5, 2.0], "pow", -8.0),
    ("pow(u1, u2)", [10.0, 0.0, 1.0], [400.0, -1.0, 2.0], "pow", 0.0),
    ("1/u1", [-1.0, 0.0, 2.0], 0.0, "/", 0.0),
    ("1/u1", [np.nan, 1.0, -0.0], 0.0, "/", -0.0),
    ("u2/u1", [1e-10, 0.0, 1.0], [1e308, 1.0, 1.0], "/", 0.0),
    # a constant base, flagged by the second exponent
    ("pow(-2, u1)", [2.0, -0.5], 0.0, "pow", -2.0),
    ("0^u1", [2.0, -0.5], 0.0, "^", 0.0),
])
def test_domain_error_names_the_first_bad_value(src, u1, u2, op, bad):
    with pytest.raises(EvalDomainError) as err:
        eval_on_arrays(parse(src, UV), {"u1": np.array(u1),
                                        "u2": np.array(u2)})
    assert err.value.function == op
    assert np.array_equal(err.value.value, bad, equal_nan=True)
    assert math.isnan(bad) or (math.copysign(1.0, err.value.value)
                               == math.copysign(1.0, bad))


def test_a_range_in_the_domain_builds_no_mask(monkeypatch):
    def no_mask(*args):
        raise AssertionError("mask built")
    monkeypatch.setattr("conesolve.expr._check_domain", no_mask)
    monkeypatch.setattr("conesolve.expr._tan_pole_mask", no_mask)
    tree = parse("sqrt(u1) + tan(-u1) + log(1 + u1) + 1/(u1 - 1) "
                 "+ u1^0.5 + pow(u2, -1) + (-u2)^2", UV)
    u1 = np.linspace(0.0, 0.7, 5)
    got = eval_on_arrays(tree, {"u1": u1, "u2": -1 - u1})
    assert np.array_equal(got, [eval_expr(tree, {"u1": a, "u2": -1 - a})
                                for a in u1])


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


def _calls(names, children):
    """Calls of the named operations, each with an argument count its
    OPERATIONS entry allows (one past the minimum where it is unbounded)."""
    def call(name):
        lo, hi, _ = OPERATIONS[name]
        return st.lists(children, min_size=lo, max_size=hi or lo + 1).map(
            lambda args: Call(name, tuple(args)))
    return st.sampled_from(names).flatmap(call)


def _build(children):
    return _calls(list(OPERATIONS), children)


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
    # the operations with no domain to leave, which only overflow can fail
    return _calls(["+", "-", "*", "neg"], children)


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

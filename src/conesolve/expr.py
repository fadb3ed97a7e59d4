"""A small arithmetic expression language for nonlinearities and coefficients.

Grammar (whitespace insensitive)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          right associative
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

'^' binds tighter than unary minus, so "-2^2" is -(2^2) = -4, while the
exponent itself may be signed ("2^-3").  Variable and function names form
closed sets: variables are supplied by the caller, functions are the ones in
FUNCTION_ARITY.  Evaluation is IEEE double precision and raises
EvalDomainError instead of producing NaN or infinity.

The parser and the evaluator recurse once per level of nesting, so an
expression may nest at most MAX_DEPTH levels: each operator, function call
and parenthesised group adds one level to the values inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ArityError, EvalDomainError, ExprSyntaxError,
                     MissingBinding, UnknownFunction, UnknownVariable)

# function name -> (min args, max args or None for unbounded)
FUNCTION_ARITY = {
    "sqrt": (1, 1), "tan": (1, 1), "sin": (1, 1), "cos": (1, 1),
    "exp": (1, 1), "log": (1, 1), "abs": (1, 1),
    "min": (2, None), "max": (2, None), "pow": (2, 2),
}

# Deepest nesting parse accepts.  A level of function calls costs the
# parser 7 stack frames, so parsing at this depth takes about 720 frames of
# Python's default recursion limit of 1000, and evaluating about 210.
MAX_DEPTH = 100

TAN_GUARD = 1e-8   # exclusion window around the poles of tan
# arguments inside (-TAN_CLEAR, TAN_CLEAR) are clear of every exclusion
# window, with a margin far above the rounding of _tan_pole_mask
TAN_CLEAR = math.pi / 2 - 2 * TAN_GUARD


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str                    # only 'neg'
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str                    # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Constant | Var | Unary | Binary | Call


# ---------------------------------------------------------------------------
# lexer

_OPS = set("+-*/^(),")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind      # 'num', 'ident', 'op', 'eof'
        self.text = text
        self.pos = pos        # 1-based column


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch in _OPS:
            tokens.append(_Token("op", ch, pos))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number '{text}'", pos)
            if not np.isfinite(value):
                raise ExprSyntaxError(
                    f"number '{text}' overflows a double", pos)
            tokens.append(_Token("num", text, pos))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], pos))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("eof", "", n + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    """Recursive descent; each rule returns (tree, nesting depth), where a
    number or variable has depth 0.  `level` counts the groups, calls,
    minus signs and exponents open around the token being read, so a
    nesting too deep is refused before the recursion goes deeper."""

    def __init__(self, tokens, allowed_vars):
        self.tokens = tokens
        self.k = 0
        self.level = 0
        self.allowed = frozenset(allowed_vars)

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, text):
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(
                f"expected '{text}', found '{tok.text or 'end of input'}'",
                tok.pos)
        return tok

    def nest(self, tok, depth):
        """depth + 1, the depth of a construct opened at tok around a
        value of the given depth, if it is at most MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", tok.pos)
        return depth + 1

    def inner(self, tok, rule):
        """(tree, depth) of rule(), read one level further in, inside a
        construct opened at tok, with that construct's level counted."""
        self.level = self.nest(tok, self.level)
        node, depth = rule()
        self.level -= 1
        return node, self.nest(tok, depth)

    def parse(self):
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(f"unexpected '{tok.text}'", tok.pos)
        return node

    def expr(self):
        node, depth = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            right, right_depth = self.term()
            node = Binary(tok.text, node, right)
            depth = self.nest(tok, max(depth, right_depth))
        return node, depth

    def term(self):
        node, depth = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            right, right_depth = self.unary()
            node = Binary(tok.text, node, right)
            depth = self.nest(tok, max(depth, right_depth))
        return node, depth

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand, depth = self.inner(tok, self.unary)
            return Unary("neg", operand), depth
        return self.power()

    def power(self):
        base, depth = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            expo, expo_depth = self.inner(tok, self.unary)
            return (Binary("^", base, expo),
                    max(self.nest(tok, depth), expo_depth))
        return base, depth

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Constant(float(tok.text)), 0
        if tok.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(tok)
            if tok.text not in self.allowed:
                raise UnknownVariable(f"unknown variable '{tok.text}'",
                                      tok.pos)
            return Var(tok.text), 0
        if tok.kind == "op" and tok.text == "(":
            node, depth = self.inner(tok, self.expr)
            self.expect_op(")")
            return node, depth
        raise ExprSyntaxError(
            f"expected a value, found '{tok.text or 'end of input'}'",
            tok.pos)

    def call(self, name_tok):
        name = name_tok.text
        if name not in FUNCTION_ARITY:
            raise UnknownFunction(f"unknown function '{name}'", name_tok.pos)
        self.expect_op("(")
        args = [self.inner(name_tok, self.expr)]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.inner(name_tok, self.expr))
        self.expect_op(")")
        lo, hi = FUNCTION_ARITY[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ArityError(
                f"'{name}' takes {lo}{'' if hi == lo else ' or more'} "
                f"argument(s), got {len(args)}", name_tok.pos)
        return (Call(name, tuple(node for node, _ in args)),
                max(depth for _, depth in args))


def parse(source: str, allowed_vars) -> Expr:
    """Parse `source` into an expression tree.

    Variable names outside `allowed_vars`, function names outside the
    closed builtin set and nesting deeper than MAX_DEPTH are rejected at
    parse time.
    """
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 1)
    return _Parser(_tokenize(source), allowed_vars).parse()


def free_vars(expr: Expr) -> set:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Unary):
        return free_vars(expr.operand)
    if isinstance(expr, Binary):
        return free_vars(expr.left) | free_vars(expr.right)
    if isinstance(expr, Call):
        out = set()
        for a in expr.args:
            out |= free_vars(a)
        return out
    return set()


# ---------------------------------------------------------------------------
# evaluator (scalar and elementwise-on-arrays through the same walker)

def _first_bad(name, arg, mask):
    value = float(np.asarray(arg, dtype=float).reshape(-1)[
        int(np.argmax(np.asarray(mask).reshape(-1)))])
    raise EvalDomainError(name, value)


def _check_domain(name, arg, mask):
    if np.any(mask):
        _first_bad(name, arg, mask)


# Each domain check first tests the argument's range, which proves most
# evaluations in the domain, and builds the per-value mask only when that
# fails.  A NaN makes the range NaN, which fails every test, so NaN still
# reaches the mask and the checked walk.

def _low(x):
    return np.min(x, initial=np.inf)


def _high(x):
    return np.max(x, initial=-np.inf)


def _check_finite(name, arg, result):
    bad = ~np.isfinite(result)
    if np.any(bad):
        arg_arr = np.broadcast_to(np.asarray(arg, dtype=float),
                                  np.shape(result))
        _first_bad(name, arg_arr, bad)
    return result


def _tan_pole_mask(x):
    x = np.asarray(x, dtype=float)
    k = np.round((x - np.pi / 2) / np.pi)
    return np.abs(x - (np.pi / 2 + k * np.pi)) <= TAN_GUARD


def _pow(name, base, expo):
    base = np.asarray(base, dtype=float)
    expo = np.asarray(expo, dtype=float)
    lo, e_lo, e_hi = _low(base), _low(expo), _high(expo)
    # a negative base needs an integer exponent, a zero base a
    # nonnegative one
    if not (lo >= 0 or e_lo == e_hi == np.floor(e_lo)):
        _check_domain(name, base, (base < 0) & (expo != np.floor(expo)))
    if not (lo > 0 or _high(base) < 0 or e_lo >= 0):
        _check_domain(name, base, (base == 0) & (expo < 0))
    return _check_finite(name, base, np.power(base, expo))


def _call(name, args):
    a = args[0]
    if name == "sqrt":
        if not (_low(a) >= 0):
            _check_domain(name, a, np.asarray(a) < 0)
        return np.sqrt(a)
    if name == "tan":
        if not (-TAN_CLEAR < _low(a) and _high(a) < TAN_CLEAR):
            _check_domain(name, a, _tan_pole_mask(a))
        return _check_finite(name, a, np.tan(a))
    if name == "sin":
        return np.sin(a)
    if name == "cos":
        return np.cos(a)
    if name == "exp":
        return _check_finite(name, a, np.exp(a))
    if name == "log":
        if not (_low(a) > 0):
            _check_domain(name, a, np.asarray(a) <= 0)
        return np.log(a)
    if name == "abs":
        return np.abs(a)
    if name == "min":
        out = args[0]
        for b in args[1:]:
            out = np.minimum(out, b)
        return out
    if name == "max":
        out = args[0]
        for b in args[1:]:
            out = np.maximum(out, b)
        return out
    if name == "pow":
        return _pow(name, args[0], args[1])
    raise UnknownFunction(f"unknown function '{name}'", 1)


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _walk(node, bindings, checked=False):
    """Evaluate the tree.  Bindings and the results of +, - and * are
    checked for finiteness only when `checked` is set: _evaluate lets numpy
    raise on the way and checks the root instead, and walks again with
    checks only to name the operation when either fails."""
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Var):
        try:
            value = bindings[node.name]
        except KeyError:
            raise MissingBinding(f"no value bound for '{node.name}'") from None
        return _check_finite(node.name, value, value) if checked else value
    if isinstance(node, Unary):
        return np.negative(_walk(node.operand, bindings, checked))
    if isinstance(node, Binary):
        left = _walk(node.left, bindings, checked)
        right = _walk(node.right, bindings, checked)
        if node.op in _ARITHMETIC:
            out = _ARITHMETIC[node.op](left, right)
            return _check_finite(node.op, left, out) if checked else out
        if node.op == "/":
            if not (_low(right) > 0 or _high(right) < 0):
                _check_domain("/", right, np.asarray(right) == 0)
            out = np.divide(left, right)
            return _check_finite("/", right, out)
        return _pow("^", left, right)
    return _call(node.func, [_walk(a, bindings, checked) for a in node.args])


def _evaluate(expr: Expr, bindings):
    """Evaluate, raising EvalDomainError where the value, or any value on
    the way to it, is not finite: an overflow that a later op masks (as
    max(1, -inf) or 1/inf do) still raises numpy's FloatingPointError."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise",
                         under="ignore"):
            out = _walk(expr, bindings)
        # numpy takes microseconds per scalar test, math.isfinite a tenth
        finite = (math.isfinite(out) if isinstance(out, float)
                  else np.isfinite(out).all())
    except FloatingPointError:
        finite = False
    if not finite:
        with np.errstate(all="ignore"):
            out = _walk(expr, bindings, checked=True)
    return out


def eval_expr(expr: Expr, bindings) -> float:
    """Evaluate at scalar bindings; returns a float.

    Raises MissingBinding for uncovered free variables and EvalDomainError
    wherever IEEE evaluation would produce NaN or infinity, overflow of
    +, - and * included.
    """
    return float(_evaluate(expr, bindings))


def eval_on_arrays(expr: Expr, bindings) -> np.ndarray:
    """Elementwise evaluation with numpy array bindings (broadcasting)."""
    return np.asarray(_evaluate(expr, bindings), dtype=float)

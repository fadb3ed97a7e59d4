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
FUNCTIONS.  A tree is made of Constant, Var and Call nodes, and OPERATIONS
gives each operation's arity and kernel, the operators' too.  Evaluation is
IEEE double precision and raises EvalDomainError instead of NaN or infinity.

The parser and the evaluator recurse once per level of nesting, so an
expression may nest at most MAX_DEPTH levels: each operator, function call
and parenthesised group adds one level to the values inside it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ArityError, EvalDomainError, ExprSyntaxError,
                     MissingBinding, UnknownFunction, UnknownVariable)

# Deepest nesting parse accepts.  A level of function calls costs the
# parser 7 stack frames and the evaluator 2 (1 from Python 3.12 on, which
# inlines comprehensions), so at this depth parsing takes about 710 frames
# of Python's default recursion limit of 1000 and evaluating about 210.
MAX_DEPTH = 100

TAN_GUARD = 1e-8   # exclusion window around the poles of tan
# arguments inside (-TAN_CLEAR, TAN_CLEAR) are clear of every exclusion
# window: |cos| is about 2 * TAN_GUARD or more there, far above both the
# TAN_GUARD that _tan_pole_mask tests and the rounding of cos
TAN_CLEAR = math.pi / 2 - 2 * TAN_GUARD


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    func: str                  # a key of OPERATIONS
    args: tuple


Expr = Constant | Var | Call


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
            node = Call(tok.text, (node, right))
            depth = self.nest(tok, max(depth, right_depth))
        return node, depth

    def term(self):
        node, depth = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            right, right_depth = self.unary()
            node = Call(tok.text, (node, right))
            depth = self.nest(tok, max(depth, right_depth))
        return node, depth

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand, depth = self.inner(tok, self.unary)
            return Call("neg", (operand,)), depth
        return self.power()

    def power(self):
        base, depth = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            expo, expo_depth = self.inner(tok, self.unary)
            return (Call("^", (base, expo)),
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
        if name not in FUNCTIONS:
            raise UnknownFunction(f"unknown function '{name}'", name_tok.pos)
        self.expect_op("(")
        args = [self.inner(name_tok, self.expr)]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.inner(name_tok, self.expr))
        self.expect_op(")")
        lo, hi, _ = OPERATIONS[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ArityError(
                f"'{name}' takes {lo}{'' if hi == lo else ' or more'} "
                f"argument(s), got {len(args)}", name_tok.pos)
        return (Call(name, tuple(node for node, _ in args)),
                max(depth for _, depth in args))


def parse(source: str, allowed_vars) -> Expr:
    """Parse `source` into an expression tree.

    Variable names outside `allowed_vars`, function names outside
    FUNCTIONS and nesting deeper than MAX_DEPTH are rejected at
    parse time.
    """
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 1)
    return _Parser(_tokenize(source), allowed_vars).parse()


def free_vars(expr: Expr) -> set:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Call):
        return set().union(*map(free_vars, expr.args))
    return set()


# ---------------------------------------------------------------------------
# evaluator (scalar and elementwise-on-arrays through the same walker)

def _first_bad(name, arg, mask):
    # arg is broadcast: a constant base may be flagged by an array exponent
    arg = np.broadcast_to(np.asarray(arg, dtype=float), np.shape(mask))
    raise EvalDomainError(name, float(arg.flat[np.argmax(mask)]))


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
        _first_bad(name, arg, bad)
    return result


def _tan_pole_mask(x):
    # |cos x| = |sin d| for the distance d from x to the nearest pole; cos
    # is accurate at any double, where pi/2 + k*pi rounds by about |k| ulps
    return np.abs(np.cos(x)) <= TAN_GUARD


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


def _divide(left, right):
    if not (_low(right) > 0 or _high(right) < 0):
        _check_domain("/", right, np.asarray(right) == 0)
    return _check_finite("/", right, np.divide(left, right))


def _sqrt(a):
    if not (_low(a) >= 0):
        _check_domain("sqrt", a, np.asarray(a) < 0)
    return np.sqrt(a)


def _tan(a):
    if not (-TAN_CLEAR < _low(a) and _high(a) < TAN_CLEAR):
        _check_domain("tan", a, _tan_pole_mask(a))
    return _check_finite("tan", a, np.tan(a))


def _log(a):
    if not (_low(a) > 0):
        _check_domain("log", a, np.asarray(a) <= 0)
    return np.log(a)


# name -> (min args, max args or None for unbounded, kernel).  A kernel
# takes the argument values and raises EvalDomainError outside its domain.
OPERATIONS = {
    "+": (2, 2, np.add),
    "-": (2, 2, np.subtract),
    "*": (2, 2, np.multiply),
    "/": (2, 2, _divide),
    "^": (2, 2, functools.partial(_pow, "^")),
    "neg": (1, 1, np.negative),
    "sqrt": (1, 1, _sqrt),
    "tan": (1, 1, _tan),
    "sin": (1, 1, np.sin),
    "cos": (1, 1, np.cos),
    "exp": (1, 1, lambda a: _check_finite("exp", a, np.exp(a))),
    "log": (1, 1, _log),
    "abs": (1, 1, np.abs),
    "min": (2, None, lambda *args: functools.reduce(np.minimum, args)),
    "max": (2, None, lambda *args: functools.reduce(np.maximum, args)),
    "pow": (2, 2, functools.partial(_pow, "pow")),
}

# the operations a source calls by name; the parser writes the others for
# its operators, unary minus ('neg') among them
FUNCTIONS = tuple(name for name in OPERATIONS
                  if name.isidentifier() and name != "neg")


def _walk(node, bindings, checked=False):
    """Evaluate the tree.  Bindings and results are checked for finiteness
    only when `checked` is set: _evaluate lets numpy raise on the way and
    checks the root instead, and walks again with checks only to name the
    operation when either fails; +, - and * are the only kernels that can
    overflow unchecked, and the check names their left operand."""
    if isinstance(node, Call):
        args = [_walk(a, bindings, checked) for a in node.args]
        out = OPERATIONS[node.func][2](*args)
        return _check_finite(node.func, args[0], out) if checked else out
    if isinstance(node, Var):
        try:
            value = bindings[node.name]
        except KeyError:
            raise MissingBinding(f"no value bound for '{node.name}'") from None
        return _check_finite(node.name, value, value) if checked else value
    return node.value


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

"""Flat key = value configuration files.

One assignment per line, `#` starts a comment, expression values are quoted,
lists use numbered keys (f1, f2, ..., rho1, rho2, ..., lambda1, ...).
Example::

    domain = unitdisk            # or: rectangle 0 1 0 1
    h = 0.015625
    bc = dirichlet               # neumann | robin "1"
    n = 2
    f1 = "sqrt(max(u1,u2)) + tan(max(u1,u2))"
    f2 = "max(u1,u2)^2"
    rho1 = 0.7363107781851078
    rho2 = 0.7363107781851078
    lambda1 = 1.6
    lambda2 = 5.0
    i0 = 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import expr as ex
from .errors import ConfigError
from .geometry import DomainSpec, Rectangle, UnitDisk
from .nonlinearity import Nonlinearity
from .operator import (BoundarySpec, Dirichlet, EllipticCoefficients,
                       Neumann, Robin)

_COEFF_KEYS = ("a11", "a12", "a22", "b1", "b2", "c")
_COEFF_DEFAULTS = {"a11": "1", "a12": "0", "a22": "1",
                   "b1": "0", "b2": "0", "c": "0"}

_SCALAR_KEYS = {
    "i0": int, "delta": float, "rho0": float, "tol": float,
    "max_iter": int, "seed": int, "samples": int,
}

_DEFAULTS = {
    "i0": 1, "delta": None, "rho0": None, "tol": 1e-9, "max_iter": 10_000,
    "seed": 1234, "samples": 10_000,
}


@dataclass
class Config:
    domain: DomainSpec
    h: float
    bc: BoundarySpec
    coefficients: EllipticCoefficients
    n: int
    nl: Nonlinearity             # f1..fn over the box prod [0, rho_j]
    rho: list
    lambdas: list | None
    i0: int                      # 0-based internally (1-based in the file)
    delta: float | None
    rho0: float | None
    tol: float
    max_iter: int
    seed: int
    samples: int


def _split_line(raw, lineno):
    line = raw
    # strip comments outside quotes
    in_quote = False
    for k, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            line = line[:k]
            break
    line = line.strip()
    if not line:
        return None
    if "=" not in line:
        raise ConfigError(f"line {lineno}: expected 'key = value': {raw!r}")
    key, _, value = line.partition("=")
    key = key.strip().lower()
    value = value.strip()
    if not key or not value:
        raise ConfigError(f"line {lineno}: empty key or value: {raw!r}")
    return key, value, lineno


def _unquote(value, key, lineno):
    if value.startswith('"'):
        if not (value.endswith('"') and len(value) >= 2):
            raise ConfigError(f"line {lineno}: unterminated string for "
                              f"'{key}'")
        return value[1:-1]
    return None


def _parse_scalar(value, key, lineno, caster):
    try:
        return caster(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: cannot parse '{key}' value {value!r}") from None


def parse_config(text: str) -> Config:
    """Parse config text into a validated Config."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        item = _split_line(raw, lineno)
        if item is None:
            continue
        key, value, ln = item
        if key in entries:
            raise ConfigError(f"line {ln}: duplicate key '{key}'")
        entries[key] = (value, ln)

    def take(key):
        return entries.pop(key, None)

    item = take("domain")
    if item is None:
        raise ConfigError("missing key 'domain'")
    domain = _parse_domain(*item)

    item = take("h")
    if item is None:
        raise ConfigError("missing key 'h'")
    h = _parse_scalar(item[0], "h", item[1], float)

    bc = _parse_bc(take("bc"))

    item = take("n")
    if item is None:
        raise ConfigError("missing key 'n'")
    n = _parse_scalar(item[0], "n", item[1], int)
    if n < 1:
        raise ConfigError("n must be at least 1")

    coeff_sources = {}
    for key in _COEFF_KEYS:
        item = take(key)
        if item is None:
            coeff_sources[key] = _COEFF_DEFAULTS[key]
        else:
            src = _unquote(item[0], key, item[1])
            if src is None:
                src = item[0]   # allow bare numeric coefficients
            coeff_sources[key] = src
    coefficients = _build_coefficients(coeff_sources)

    # numbered keys: f, rho, lambda
    f_sources = []
    for k in range(1, n + 1):
        item = take(f"f{k}")
        if item is None:
            raise ConfigError(f"missing key 'f{k}' (n = {n})")
        src = _unquote(item[0], f"f{k}", item[1])
        if src is None:
            raise ConfigError(
                f"line {item[1]}: expression 'f{k}' must be quoted")
        f_sources.append(src)
    rho = []
    for k in range(1, n + 1):
        item = take(f"rho{k}")
        if item is None:
            raise ConfigError(f"missing key 'rho{k}' (n = {n})")
        rho.append(_parse_scalar(item[0], f"rho{k}", item[1], float))
        if not (0 < rho[-1] < math.inf):
            raise ConfigError(f"rho{k} must be positive and finite")
    present = [k for k in range(1, n + 1) if f"lambda{k}" in entries]
    if not present:
        lambdas = None
    elif len(present) < n:
        missing = sorted(set(range(1, n + 1)) - set(present))[0]
        raise ConfigError(f"missing key 'lambda{missing}' (n = {n}; give "
                          "all lambdas or none)")
    else:
        lambdas = []
        for k in range(1, n + 1):
            item = take(f"lambda{k}")
            lambdas.append(
                _parse_scalar(item[0], f"lambda{k}", item[1], float))
        for k, lam in enumerate(lambdas, 1):
            if not (0 < lam < math.inf):
                raise ConfigError(f"lambda{k} must be positive and finite")

    scalars = dict(_DEFAULTS)
    for key, caster in _SCALAR_KEYS.items():
        item = take(key)
        if item is not None:
            scalars[key] = _parse_scalar(item[0], key, item[1], caster)

    if entries:
        stray = sorted(entries)[0]
        raise ConfigError(
            f"line {entries[stray][1]}: unknown key '{stray}'")

    if not (1 <= scalars["i0"] <= n):
        raise ConfigError(f"i0 must be between 1 and n = {n}")
    scalars["i0"] -= 1
    # the nonlinearity is parsed last, so a config with several faults
    # reports a scalar fault first
    _validate(dict(scalars, n=n, rho=rho))
    try:
        nl = Nonlinearity.from_strings(f_sources, rho)
    except (ex.ExprSyntaxError, ValueError) as err:
        raise ConfigError(f"bad nonlinearity: {err}") from None
    return Config(domain=domain, h=h, bc=bc, coefficients=coefficients, n=n,
                  nl=nl, rho=rho, lambdas=lambdas, **scalars)


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _parse_domain(value, lineno) -> DomainSpec:
    parts = value.split()
    kind = parts[0].lower()
    if kind == "unitdisk":
        if len(parts) != 1:
            raise ConfigError(f"line {lineno}: 'unitdisk' takes no bounds")
        return UnitDisk()
    if kind == "rectangle":
        if len(parts) != 5:
            raise ConfigError(
                f"line {lineno}: rectangle needs 4 bounds "
                "(x_min x_max y_min y_max)")
        vals = [_parse_scalar(p, "domain", lineno, float) for p in parts[1:]]
        return Rectangle(*vals)
    raise ConfigError(f"line {lineno}: unknown domain '{parts[0]}'")


def _parse_bc(item) -> BoundarySpec:
    if item is None:
        return Dirichlet()
    value, lineno = item
    parts = value.split(None, 1)
    kind = parts[0].lower()
    if kind == "dirichlet":
        return Dirichlet()
    if kind == "neumann":
        return Neumann()
    if kind == "robin":
        if len(parts) != 2:
            raise ConfigError(
                f"line {lineno}: robin needs a coefficient expression")
        src = _unquote(parts[1].strip(), "bc", lineno) or parts[1].strip()
        tree = _parse_coeff_expr(src, "bc", lineno)
        return Robin(_coeff_callable(tree))
    raise ConfigError(f"line {lineno}: unknown boundary condition '{kind}'")


def _parse_coeff_expr(src, key, lineno=None):
    try:
        return ex.parse(src, {"x1", "x2"})
    except ex.ExprSyntaxError as err:
        where = f"line {lineno}: " if lineno else ""
        raise ConfigError(f"{where}bad expression for '{key}': {err}") \
            from None


def _coeff_callable(tree):
    return lambda x1, x2: ex.eval_on_arrays(tree, {"x1": x1, "x2": x2})


def _build_coefficients(sources) -> EllipticCoefficients:
    trees = {key: _parse_coeff_expr(src, key)
             for key, src in sources.items()}
    return EllipticCoefficients(
        a11=_coeff_callable(trees["a11"]), a12=_coeff_callable(trees["a12"]),
        a22=_coeff_callable(trees["a22"]), b1=_coeff_callable(trees["b1"]),
        b2=_coeff_callable(trees["b2"]), c=_coeff_callable(trees["c"]))


def _validate(values):
    """Check the scalar settings, a mapping of Config field names to values
    (vars() of a Config will do)."""
    delta, rho0 = values["delta"], values["rho0"]
    if delta is not None and not (0 < delta < math.inf):
        raise ConfigError("delta must be positive and finite")
    if rho0 is not None and not (0 < rho0 < min(values["rho"])):
        raise ConfigError("rho0 must lie strictly between 0 and min rho")
    if not (0 < values["tol"] < math.inf):
        raise ConfigError("tol must be positive and finite")
    if values["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    if values["max_iter"] < 1 or values["samples"] < 1:
        raise ConfigError("max_iter and samples must be at least 1")

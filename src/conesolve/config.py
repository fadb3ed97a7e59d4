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

import functools
import math
from dataclasses import dataclass, fields

from . import expr as ex
from .errors import ConfigError
from .fixedpoint import DEFAULT_MAX_ITER, DEFAULT_TOL
from .geometry import DOMAINS, DomainSpec
from .nonlinearity import Nonlinearity
from .operator import (BoundarySpec, Dirichlet, EllipticCoefficients,
                       Neumann, Robin)

# The optional settings: key -> (type, default).
SETTINGS = {
    "i0": (int, 1), "delta": (float, None), "rho0": (float, None),
    "tol": (float, DEFAULT_TOL), "max_iter": (int, DEFAULT_MAX_ITER),
    "seed": (int, 1234), "samples": (int, 10_000),
}

# Largest `samples`: the hypothesis checks hold a few arrays of `samples`
# doubles per component, 8 MiB each at this bound.
MAX_SAMPLES = 2 ** 20

# The coefficients of L: key -> default expression in x1, x2.
COEFFICIENTS = {"a11": "1", "a12": "0", "a22": "1",
                "b1": "0", "b2": "0", "c": "0"}


@dataclass
class Config:
    domain: DomainSpec
    h: float
    bc: BoundarySpec
    coefficients: EllipticCoefficients
    nl: Nonlinearity             # f1..fn over the box prod [0, rho_j]
    lambdas: list | None
    i0: int                      # 0-based internally (1-based in the file)
    delta: float | None
    rho0: float | None
    tol: float
    max_iter: int
    seed: int
    samples: int

    @property
    def n(self) -> int:
        return self.nl.n

    @property
    def rho(self) -> tuple:
        return self.nl.box


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
    """The text of an expression value: inside its quotes, or the bare
    value itself."""
    if not value.startswith('"'):
        return value
    if not (value.endswith('"') and len(value) >= 2):
        raise ConfigError(f"line {lineno}: unterminated string for '{key}'")
    return value[1:-1]


def _quoted(value, key, lineno):
    if not value.startswith('"'):
        raise ConfigError(f"line {lineno}: expression '{key}' must be quoted")
    return _unquote(value, key, lineno)


def _parse_scalar(value, key, lineno, caster=float):
    try:
        return caster(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: cannot parse '{key}' value {value!r}") from None


def _parse_positive(value, key, lineno):
    x = _parse_scalar(value, key, lineno)
    if not (0 < x < math.inf):
        raise ConfigError(f"{key} must be positive and finite")
    return x


def _required(entries, key, parse, note=""):
    """parse(value, key, lineno) of a key every config gives."""
    item = entries.pop(key, None)
    if item is None:
        raise ConfigError(f"missing key '{key}'{note}")
    return parse(item[0], key, item[1])


def _numbered(entries, stem, n, parse):
    """The values of the keys stem1 .. stemn, each read by parse."""
    return [_required(entries, f"{stem}{k}", parse, f" (n = {n})")
            for k in range(1, n + 1)]


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

    domain = _required(entries, "domain", _parse_domain)
    h = _required(entries, "h", _parse_scalar)
    bc = _parse_bc(entries.pop("bc", None))
    n = _required(entries, "n", functools.partial(_parse_scalar, caster=int))
    if n < 1:
        raise ConfigError("n must be at least 1")

    # every coefficient is unquoted before any is parsed
    sources = {}
    for key, default in COEFFICIENTS.items():
        value, lineno = entries.pop(key, (default, None))
        sources[key] = (_unquote(value, key, lineno), lineno)
    coefficients = EllipticCoefficients(
        **{key: _coefficient(src, key, lineno)
           for key, (src, lineno) in sources.items()})

    f_sources = _numbered(entries, "f", n, _quoted)
    rho = _numbered(entries, "rho", n, _parse_positive)
    given = [k for k in range(1, n + 1) if f"lambda{k}" in entries]
    if not given:
        lambdas = None
    elif len(given) < n:
        missing = sorted(set(range(1, n + 1)) - set(given))[0]
        raise ConfigError(f"missing key 'lambda{missing}' (n = {n}; give "
                          "all lambdas or none)")
    else:
        lambdas = _numbered(entries, "lambda", n, _parse_scalar)
        for k, lam in enumerate(lambdas, 1):
            if not (0 < lam < math.inf):
                raise ConfigError(f"lambda{k} must be positive and finite")

    settings = {}
    for key, (kind, default) in SETTINGS.items():
        item = entries.pop(key, None)
        settings[key] = (default if item is None
                         else _parse_scalar(item[0], key, item[1], kind))

    if entries:
        stray = sorted(entries)[0]
        raise ConfigError(
            f"line {entries[stray][1]}: unknown key '{stray}'")

    if not (1 <= settings["i0"] <= n):
        raise ConfigError(f"i0 must be between 1 and n = {n}")
    settings["i0"] -= 1
    # the nonlinearity is parsed last, so a config with several faults
    # reports a scalar fault first
    _validate(settings, rho)
    try:
        nl = Nonlinearity.from_strings(f_sources, rho)
    except (ex.ExprSyntaxError, ValueError) as err:
        raise ConfigError(f"bad nonlinearity: {err}") from None
    return Config(domain=domain, h=h, bc=bc, coefficients=coefficients,
                  nl=nl, lambdas=lambdas, **settings)


def load_config(path) -> Config:
    """Read and parse a UTF-8 config file, skipping a leading byte order
    mark as the utf-8-sig codec does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config is not UTF-8: byte 0x{data[err.start]:02x} "
                          f"at offset {err.start}") from None
    return parse_config(text.removeprefix("\ufeff"))


def _parse_domain(value, key, lineno) -> DomainSpec:
    word, *bounds = value.split()
    cls = DOMAINS.get(word.lower())
    if cls is None:
        raise ConfigError(f"line {lineno}: unknown domain '{word}'")
    names = [f.name for f in fields(cls)]
    if len(bounds) != len(names):
        raise ConfigError(f"line {lineno}: " + (
            f"{word.lower()} needs {len(names)} bounds ({' '.join(names)})"
            if names else f"'{word.lower()}' takes no bounds"))
    return cls(*(_parse_scalar(b, key, lineno) for b in bounds))


def _parse_bc(item) -> BoundarySpec:
    if item is None:
        return Dirichlet()
    value, lineno = item
    parts = value.split(None, 1)
    kind = parts[0].lower()
    if kind in ("dirichlet", "neumann"):
        if len(parts) == 2:
            raise ConfigError(f"line {lineno}: '{kind}' takes no coefficient")
        return Dirichlet() if kind == "dirichlet" else Neumann()
    if kind == "robin":
        if len(parts) != 2:
            raise ConfigError(
                f"line {lineno}: robin needs a coefficient expression")
        return Robin(_coefficient(_unquote(parts[1].strip(), "bc", lineno),
                                  "bc", lineno))
    raise ConfigError(f"line {lineno}: unknown boundary condition '{kind}'")


def _coefficient(src, key, lineno):
    """The function of (x1, x2) that the unquoted expression src gives."""
    try:
        tree = ex.parse(src, {"x1", "x2"})
    except ex.ExprSyntaxError as err:
        raise ConfigError(
            f"line {lineno}: bad expression for '{key}': {err}") from None

    def coefficient(x1, x2):
        try:
            return ex.eval_on_arrays(tree, {"x1": x1, "x2": x2})
        except ex.EvalDomainError as err:
            err.args = (f"line {lineno}: cannot evaluate '{key}': {err}",)
            raise
    return coefficient


def _validate(settings, rho):
    """Check the settings, a mapping of Config field names to values (vars()
    of a Config will do), against the box bounds rho."""
    delta, rho0 = settings["delta"], settings["rho0"]
    if delta is not None and not (0 < delta < math.inf):
        raise ConfigError("delta must be positive and finite")
    if rho0 is not None and not (0 < rho0 < min(rho)):
        raise ConfigError("rho0 must lie strictly between 0 and min rho")
    if not (0 < settings["tol"] < math.inf):
        raise ConfigError("tol must be positive and finite")
    if settings["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    if settings["max_iter"] < 1 or settings["samples"] < 1:
        raise ConfigError("max_iter and samples must be at least 1")
    if settings["samples"] > MAX_SAMPLES:
        raise ConfigError(f"samples must be at most {MAX_SAMPLES}")

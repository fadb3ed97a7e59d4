"""Admissible parameter intervals for the existence of nonzero solutions.

For systems, component j != i0 admits any lambda_j in
(0, beta_j / (m_j(beta) |K1|)], while the pivot component i0 additionally
needs lambda_{i0} > mu1 / delta, where delta comes from the lower growth
bound of f_{i0} near zero.  For a single equation the upper bound sharpens
to sup over s in (0, rho] of s / (M(s) |K1|) with M(s) = max_x f(x, s),
computed by log-uniform sampling refined with a golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (BoxViolation, ConditionCViolation, ConesolveError,
                     NonpositiveM)
from .geometry import Grid
from .nonlinearity import BOX_SLACK, Nonlinearity, max_over_domain

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Largest (s, node) array ratio_curve evaluates at once: 2**16 doubles
# (512 kB) per temporary, whatever the mesh.
CURVE_BLOCK_ELEMENTS = 2 ** 16


@dataclass(frozen=True)
class RangeProvenance:
    m_value: float
    k1_norm: float
    mu1: float | None = None
    delta: float | None = None


@dataclass(frozen=True)
class LambdaRange:
    """Admissible interval for one component.

    lower = 0 means "any positive value".  The strictness flags record which
    inequality each bound carries; emptiness follows lower >= upper.
    """

    lower: float
    upper: float
    empty: bool
    component: int
    provenance: RangeProvenance
    lower_strict: bool = True
    upper_strict: bool = False

    def describe(self) -> str:
        lo = "(" if self.lower_strict else "["
        hi = ")" if self.upper_strict else "]"
        body = f"{lo}{self.lower:.6g}, {self.upper:.6g}{hi}"
        if self.empty:
            body += "  EMPTY"
        p = self.provenance
        extras = [f"m={p.m_value:.6g}", f"|K1|={p.k1_norm:.6g}"]
        if p.mu1 is not None:
            extras.append(f"mu1={p.mu1:.6g}")
        if p.delta is not None:
            extras.append(f"delta={p.delta:.6g}")
        return f"lambda{self.component + 1} in {body}  ({', '.join(extras)})"

    def contains(self, lam: float) -> bool:
        if self.empty:
            return False
        above = lam > self.lower if self.lower_strict else lam >= self.lower
        below = lam < self.upper if self.upper_strict else lam <= self.upper
        return above and below


def system_ranges(nl: Nonlinearity, beta, i0: int, delta: float,
                  k1_norm: float, mu1: float, grid: Grid,
                  m_safety: float = 1.0):
    """Per-component admissible intervals for an n-component system.

    m_j is evaluated on grid nodes; for x-dependent f_j it is inflated by
    m_safety to compensate the sampling under-approximation (inflating m
    only tightens the bound).  Raises ConditionCViolation when some m_j <= 0
    for j != i0.
    """
    if not (delta > 0):
        raise ValueError("delta must be positive")
    if not (0 <= i0 < nl.n):
        raise ValueError("i0 out of range")
    out = []
    for j in range(nl.n):
        m = max_over_domain(nl, j, beta, grid)
        if nl.uses_x(j):
            m *= m_safety
        if j != i0 and m <= 0:
            raise ConditionCViolation(
                f"m{j + 1}(beta) = {m:g} <= 0; a positive maximum is "
                "required for every component other than the pivot")
        upper = float(beta[j]) / (m * k1_norm) if m > 0 else math.inf
        lower = mu1 / delta if j == i0 else 0.0
        out.append(LambdaRange(
            lower=lower, upper=upper, empty=lower >= upper, component=j,
            provenance=RangeProvenance(m, k1_norm,
                                       mu1 if j == i0 else None,
                                       delta if j == i0 else None),
            lower_strict=True, upper_strict=False))
    return out


def ratio_curve(nl: Nonlinearity, rho: float, k1_norm: float,
                grid_points: int, grid: Grid | None = None):
    """Sampled curve s -> s / (M(s) k1_norm) on a log-uniform grid of
    (0, rho]; returns (s values, ratios).

    M is evaluated for a block of s values at a time, on an (s, node)
    array of at most CURVE_BLOCK_ELEMENTS entries.  The curve is bitwise
    that of evaluating each s on its own, and a failure names the first
    failing s as that would."""
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    s = np.geomspace(rho * 1e-8, rho, grid_points)
    m = np.empty_like(s)
    nodes = grid.interior_count if nl.uses_x(0) and grid is not None else 1
    rows = max(1, CURVE_BLOCK_ELEMENTS // nodes)
    for start in range(0, grid_points, rows):
        block = s[start:start + rows]
        try:
            m_block = _max_f(nl, block, grid)
        except ConesolveError:
            for v in block:     # raises at the first failing s
                _ratio(nl, float(v), k1_norm, grid)
            raise
        bad = m_block <= 0
        if bad.any():
            k = int(np.argmax(bad))
            raise _nonpositive(float(block[k]), float(m_block[k]))
        m[start:start + rows] = m_block
    return s, s / (m * k1_norm)


def _max_f(nl: Nonlinearity, s, grid: Grid | None) -> np.ndarray:
    """M at every entry of the 1-D array s: the max over the grid nodes of
    f on the (s, node) array, or f on s alone when f does not use x."""
    u = np.clip(s, 0.0, nl.box[0])
    if not nl.uses_x(0):
        out = ex.eval_on_arrays(nl.exprs[0], nl.bindings(0.0, 0.0, [u]))
        return np.broadcast_to(out, s.shape)
    if grid is None:
        raise ValueError("x-dependent nonlinearity needs a grid to "
                         "sample M(s)")
    outside = (s < -BOX_SLACK) | (s > nl.box[0] + BOX_SLACK)
    if outside.any():
        raise BoxViolation(f"beta entry {float(s[np.argmax(outside)])} "
                           f"outside the box [0, {nl.box[0]}]")
    out = ex.eval_on_arrays(nl.exprs[0],
                            nl.bindings(grid.xs, grid.ys, [u[:, None]]))
    return np.broadcast_to(out, (len(s), grid.interior_count)).max(axis=1)


def _nonpositive(s: float, m: float) -> NonpositiveM:
    return NonpositiveM(f"M({s:g}) = {m:g} <= 0")


def _ratio(nl, s, k1_norm, grid):
    m = float(_max_f(nl, np.array([s]), grid)[0])
    if m <= 0:
        raise _nonpositive(s, m)
    return s / (m * k1_norm)


def _golden_max(fn, lo, hi):
    """Golden-section maximization; returns the best evaluated (s, value)."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    best_s, best_v = (c, fc) if fc >= fd else (d, fd)
    while (b - a) > 1e-12 * max(1.0, abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        if fc > best_v:
            best_s, best_v = c, fc
        if fd > best_v:
            best_s, best_v = d, fd
    return best_s, best_v


def single_range(nl: Nonlinearity, rho: float, delta: float, rho0: float,
                 k1_norm: float, mu1: float, grid_points: int = 1000,
                 grid: Grid | None = None, curve=None) -> LambdaRange:
    """Admissible interval [mu1/delta, sup_s s/(M(s) |K1|)) for a single
    equation (n = 1).  `curve` is the (s, ratios) pair ratio_curve returns
    for these arguments, when the caller has already built it."""
    if nl.n != 1:
        raise ValueError("single_range needs a one-component nonlinearity")
    if not (0 < rho0 < rho):
        raise ValueError("need 0 < rho0 < rho")
    if not (delta > 0):
        raise ValueError("delta must be positive")
    if grid_points < 100:
        raise ValueError("need at least 100 sample points")
    if curve is None:
        curve = ratio_curve(nl, rho, k1_norm, grid_points, grid)
    s, ratios = curve
    k = int(np.argmax(ratios))
    lo = s[max(k - 1, 0)]
    hi = s[min(k + 1, len(s) - 1)]
    sup = float(ratios[k])
    if hi > lo:
        _, refined = _golden_max(
            lambda v: _ratio(nl, float(v), k1_norm, grid), float(lo), float(hi))
        sup = max(sup, refined)
    lower = mu1 / delta
    m_rho = float(_max_f(nl, np.array([rho]), grid)[0])
    return LambdaRange(
        lower=lower, upper=sup, empty=lower >= sup, component=0,
        provenance=RangeProvenance(m_rho, k1_norm, mu1, delta),
        lower_strict=False, upper_strict=True)

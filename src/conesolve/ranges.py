"""Admissible parameter intervals for the existence of nonzero solutions.

For systems, component j != i0 admits any lambda_j in
(0, beta_j / (m_j(beta) |K1|)], while the pivot component i0 additionally
needs lambda_{i0} > mu1 / delta, where delta comes from the lower growth
bound of f_{i0} near zero.  For a single equation the upper bound sharpens
to sup over s in (0, rho] of s / (M(s) |K1|) with M(s) = max_x f(x, s),
computed by log-uniform sampling refined with a bracket zoom: each round
evaluates a block of points inside the bracket around the best ratio so
far, and narrows the bracket to that point's two neighbours.
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

# Largest (s, node) array evaluated at once: 2**16 doubles (512 kB) per
# temporary, whatever the mesh.
CURVE_BLOCK_ELEMENTS = 2 ** 16
# Interior points per round of the zoom that refines the sampled sup.
ZOOM_POINTS = 16


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
    rows = _block_rows(nl, grid)
    m = np.concatenate([_checked_max_f(nl, s[start:start + rows], grid)
                        for start in range(0, grid_points, rows)])
    return s, s / (m * k1_norm)


def _block_rows(nl: Nonlinearity, grid: Grid | None) -> int:
    """How many s values fit in one (s, node) block."""
    nodes = grid.interior_count if nl.uses_x(0) and grid is not None else 1
    return max(1, CURVE_BLOCK_ELEMENTS // nodes)


def _checked_max_f(nl: Nonlinearity, s, grid: Grid | None) -> np.ndarray:
    """M on the ascending 1-D array s, failing as evaluating each s on its
    own in turn would: at the first s whose evaluation raises or whose
    M(s) <= 0, with that evaluation's error."""
    try:
        m = _max_f(nl, s, grid)
    except ConesolveError:
        if len(s) > 1:
            for k in range(len(s)):     # raises at the first failing s
                _checked_max_f(nl, s[k:k + 1], grid)
        raise
    bad = m <= 0
    if bad.any():
        k = int(np.argmax(bad))
        raise NonpositiveM(f"M({float(s[k]):g}) = {float(m[k]):g} <= 0")
    return m


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
    # node chunks keep each (s, node) block within CURVE_BLOCK_ELEMENTS
    width = max(1, CURVE_BLOCK_ELEMENTS // len(s))
    m = np.full(len(s), -np.inf)
    for start in range(0, grid.interior_count, width):
        xs, ys = grid.xs[start:start + width], grid.ys[start:start + width]
        out = ex.eval_on_arrays(nl.exprs[0],
                                nl.bindings(xs, ys, [u[:, None]]))
        np.maximum(m, np.broadcast_to(out, (len(s), len(xs))).max(axis=1),
                   out=m)
    return m


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
    sup = float(ratios[k])
    # zoom on the sampled best: each round evaluates ZOOM_POINTS interior
    # points of the bracket as one block (fewer if the block would pass
    # CURVE_BLOCK_ELEMENTS; when not even 2 rows fit, all ZOOM_POINTS in
    # node chunks) and narrows the bracket to the best point's
    # neighbours, until it is 1e-12 * max(1, |hi|) wide
    lo, hi = float(s[max(k - 1, 0)]), float(s[min(k + 1, len(s) - 1)])
    rows = _block_rows(nl, grid)
    points = min(ZOOM_POINTS, rows) if rows >= 2 else ZOOM_POINTS
    while hi > lo:
        t = np.linspace(lo, hi, points + 2)
        zoom = t[1:-1] / (_checked_max_f(nl, t[1:-1], grid) * k1_norm)
        j = int(np.argmax(zoom))
        sup = max(sup, float(zoom[j]))
        lo, hi = float(t[j]), float(t[j + 2])
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            break
    lower = mu1 / delta
    m_rho = float(_max_f(nl, np.array([rho]), grid)[0])
    return LambdaRange(
        lower=lower, upper=sup, empty=lower >= sup, component=0,
        provenance=RangeProvenance(m_rho, k1_norm, mu1, delta),
        lower_strict=False, upper_strict=True)

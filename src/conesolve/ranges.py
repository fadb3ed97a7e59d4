"""Admissible parameter intervals for the existence of nonzero solutions.

For systems, component j != i0 admits any lambda_j in
(0, beta_j / (m_j(beta) |K1|)], while the pivot component i0 additionally
needs lambda_{i0} > mu1 / delta, where delta comes from the lower growth
bound of f_{i0} near zero.  For a single equation the upper bound sharpens
to sup over s in (0, rho] of s / (M(s) |K1|) with M(s) = max_x f(x, s),
computed by log-uniform sampling refined with a bracket zoom: each round
evaluates ZOOM_POINTS points inside the bracket around the best ratio so
far, and narrows the bracket to that point's two neighbours.  m_j and M are
both sampled by nonlinearity.max_over_domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionCViolation, ConesolveError, NonpositiveM
from .geometry import Grid
from .nonlinearity import Nonlinearity, max_over_domain

# Log-uniform samples of [rho * CURVE_FLOOR, rho] in the ratio curve.
CURVE_POINTS = 1000
CURVE_FLOOR = 1e-8
# Interior points per round of the zoom that refines the sampled sup.
ZOOM_POINTS = 16
# Inflation of a grid-sampled m_j of an x-dependent f_j, which falls short
# of the maximum over the domain by O(h); inflating m only tightens the bound.
M_SAFETY = 1.01


@dataclass(frozen=True)
class LambdaRange:
    """Admissible interval for one component, with the values its bounds
    come from: m (m_j(beta), or M(rho) for one equation), |K1|, and for
    the pivot component mu1 and delta.

    lower = 0 means "any positive value".  The strictness flags record which
    inequality each bound carries.
    """

    lower: float
    upper: float
    component: int
    m_value: float
    k1_norm: float
    mu1: float | None = None
    delta: float | None = None
    lower_strict: bool = True
    upper_strict: bool = False

    @property
    def empty(self) -> bool:
        return self.lower >= self.upper

    def describe(self) -> str:
        lo = "(" if self.lower_strict else "["
        hi = ")" if self.upper_strict else "]"
        body = f"{lo}{self.lower:.6g}, {self.upper:.6g}{hi}"
        if self.empty:
            body += "  EMPTY"
        extras = [f"m={self.m_value:.6g}", f"|K1|={self.k1_norm:.6g}"]
        if self.mu1 is not None:
            extras.append(f"mu1={self.mu1:.6g}")
        if self.delta is not None:
            extras.append(f"delta={self.delta:.6g}")
        return f"lambda{self.component + 1} in {body}  ({', '.join(extras)})"

    def contains(self, lam: float) -> bool:
        if self.empty:
            return False
        above = lam > self.lower if self.lower_strict else lam >= self.lower
        below = lam < self.upper if self.upper_strict else lam <= self.upper
        return above and below


def system_ranges(nl: Nonlinearity, beta, i0: int, delta: float,
                  k1_norm: float, mu1: float, grid: Grid):
    """Per-component admissible intervals for an n-component system.

    m_j is evaluated on grid nodes and, for x-dependent f_j, inflated by
    M_SAFETY.  Raises ConditionCViolation when some m_j <= 0 for j != i0.
    """
    if not (delta > 0):
        raise ValueError("delta must be positive")
    if not (0 <= i0 < nl.n):
        raise ValueError("i0 out of range")
    out = []
    for j in range(nl.n):
        m = float(max_over_domain(nl, j, [beta], grid)[0])
        if nl.uses_x(j):
            m *= M_SAFETY
        if j != i0 and m <= 0:
            raise ConditionCViolation(
                f"m{j + 1}(beta) = {m:g} <= 0; a positive maximum is "
                "required for every component other than the pivot")
        upper = float(beta[j]) / (m * k1_norm) if m > 0 else math.inf
        lower = mu1 / delta if j == i0 else 0.0
        out.append(LambdaRange(
            lower=lower, upper=upper, component=j, m_value=m,
            k1_norm=k1_norm, mu1=mu1 if j == i0 else None,
            delta=delta if j == i0 else None))
    return out


def ratio_curve(nl: Nonlinearity, k1_norm: float, grid: Grid):
    """Sampled curve s -> s / (M(s) k1_norm) on CURVE_POINTS log-uniform
    points of [rho * CURVE_FLOOR, rho], rho = nl.box[0]; returns (s values,
    ratios).  M is one max_over_domain call over every s, bitwise that of
    evaluating each s on its own, and a failure names the first failing s
    as that would."""
    rho = nl.box[0]
    s = np.geomspace(rho * CURVE_FLOOR, rho, CURVE_POINTS)
    return s, s / (_checked_max_f(nl, s, grid) * k1_norm)


def _checked_max_f(nl: Nonlinearity, s, grid: Grid) -> np.ndarray:
    """M on the ascending 1-D array s, failing as evaluating each s on its
    own in turn would: at the first s whose evaluation raises or whose
    M(s) <= 0, with that evaluation's error."""
    try:
        m = max_over_domain(nl, 0, s[:, None], grid)
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


def single_range(nl: Nonlinearity, delta: float, k1_norm: float, mu1: float,
                 grid: Grid, curve) -> LambdaRange:
    """Admissible interval [mu1/delta, sup_s s/(M(s) |K1|)) for a single
    equation (n = 1), s in (0, nl.box[0]].  `curve` is the (s, ratios)
    pair ratio_curve(nl, k1_norm, grid) returns."""
    if nl.n != 1:
        raise ValueError("single_range needs a one-component nonlinearity")
    if not (delta > 0):
        raise ValueError("delta must be positive")
    s, ratios = curve
    k = int(np.argmax(ratios))
    sup = float(ratios[k])
    # zoom on the sampled best: each round evaluates ZOOM_POINTS interior
    # points of the bracket and narrows the bracket to the best point's
    # neighbours, until it is 1e-12 * max(1, |hi|) wide
    lo, hi = float(s[max(k - 1, 0)]), float(s[min(k + 1, len(s) - 1)])
    while hi > lo:
        t = np.linspace(lo, hi, ZOOM_POINTS + 2)
        zoom = t[1:-1] / (_checked_max_f(nl, t[1:-1], grid) * k1_norm)
        j = int(np.argmax(zoom))
        sup = max(sup, float(zoom[j]))
        lo, hi = float(t[j]), float(t[j + 2])
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            break
    lower = mu1 / delta
    m_rho = float(max_over_domain(nl, 0, [[nl.box[0]]], grid)[0])
    return LambdaRange(
        lower=lower, upper=sup, component=0, m_value=m_rho, k1_norm=k1_norm,
        mu1=mu1, delta=delta, lower_strict=False, upper_strict=True)

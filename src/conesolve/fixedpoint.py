"""Monotone fixed-point iteration for u = T u with
T(u) = (lambda_1 K F_1 u, ..., lambda_n K F_n u).

A state is an (n, N) array: one row of nodal values per component.  A
constant supersolution beta (T beta <= beta) starts a nodewise
non-increasing sequence converging to the greatest fixed point below beta;
a subsolution alpha (T alpha >= alpha) starts a non-decreasing one
converging to the smallest fixed point above alpha (Amann 1976, SIAM Rev.
18).  One engine advances both sequences as one stacked block, so every
step applies T once, and shortens them with safeguarded Anderson steps
(Walker & Ni 2011, SIAM J. Numer. Anal. 49) that are kept only when they
are again sub- or supersolutions.  The subsolution is constructed by
placing a small multiple of the principal eigenfunction of K in one
component and sweeping the amplitude downward.  The ordering alpha_k <=
alpha_{k+1} <= beta_{k+1} <= beta_k holds at every step, and a plain step
that breaks it (non-monotone f, loss of positivity of K) surfaces as
MonotonicityViolation instead of a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import MonotonicityViolation, NoConvergence
from .greens import SpectralEstimate, apply_K
from .nonlinearity import Nonlinearity, nemytskii_apply
from .operator import DiscreteOperator

ORDER_SLACK = 1e-12      # tolerated roundoff in nodewise comparisons
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10_000
ANDERSON_M = 5           # differences kept per half for a candidate


@dataclass(frozen=True)
class ProblemInstance:
    op: DiscreteOperator
    nl: Nonlinearity
    lambdas: tuple

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lambdas)
        if len(lam) != self.nl.n:
            raise ValueError("need one lambda per component")
        if any(not (v > 0) for v in lam):
            raise ValueError("lambdas must be strictly positive")
        object.__setattr__(self, "lambdas", lam)


@dataclass
class Limit:
    """Where one half of a monotone iteration ended: the last iterate v,
    the exact residual |v - T v|, and the product sup norm of every iterate
    from the start on."""

    direction: str               # "from_below" or "from_above"
    solution: np.ndarray
    residual: float
    history: list
    converged_to_zero: bool
    iterates: list | None = None
    proposed: int = 0            # Anderson candidates proposed
    accepted: int = 0            # ... and kept

    @property
    def norm(self) -> float:
        return self.history[-1]

    def to_text(self) -> str:
        lines = [
            f"direction:         {self.direction}",
            f"iterations:        {len(self.history) - 1}",
            f"residual |u - Tu|: {self.residual:.3e}",
            f"solution norm:     {self.norm:.12g}",
            f"converged to zero: {'yes' if self.converged_to_zero else 'no'}",
            f"anderson steps:    {self.accepted} accepted of "
            f"{self.proposed} proposed",
        ]
        return "\n".join(lines)


@dataclass
class IterationReport:
    """Result of monotone_iterate: the limit of each half that was iterated
    (None for an absent half); both halves took `iterations` steps."""

    iterations: int
    lower: Limit | None
    upper: Limit | None


@dataclass
class Certificate:
    residual: float
    min_value: float
    norm: float
    in_box: bool
    positive: bool
    nonzero: bool
    certified: bool
    tol: float

    def verdict(self) -> str:
        if self.certified:
            return "certified nonzero positive solution"
        if self.residual <= self.tol and not self.nonzero:
            return "trivial solution (fixed point with negligible norm)"
        return "not certified"

    def to_text(self) -> str:
        return "\n".join([
            f"residual |u - Tu|:  {self.residual:.3e} (tol {self.tol:.1e})",
            f"min nodewise value: {self.min_value:.3e}",
            f"norm |u|:           {self.norm:.12g}",
            f"inside box:         {'yes' if self.in_box else 'no'}",
            f"verdict:            {self.verdict()}",
        ])


def apply_T(p: ProblemInstance, u) -> np.ndarray:
    """One application of T to a state of shape (n, N), or to a stack of
    states of shape (..., n, N): lambda_i K(F_i u) for every component,
    with all right-hand sides solved in one call of apply_K."""
    f = nemytskii_apply(p.nl, u, p.op.grid)
    ku = apply_K(p.op, f.reshape(-1, f.shape[-1])).reshape(f.shape)
    return np.asarray(p.lambdas)[:, None] * ku


def check_supersolution(p: ProblemInstance, beta):
    """Return (ok, margin) for T beta <= beta; margin is the worst nodewise
    value of beta - T beta over all components."""
    margin = float((beta - apply_T(p, beta)).min())
    return margin >= -ORDER_SLACK, margin


def construct_subsolution(p: ProblemInstance, spectrum: SpectralEstimate,
                          i0: int, delta: float, rho0: float):
    """Search for alpha with T alpha >= alpha of the form eps * phi in
    component i0 (phi the principal eigenfunction) and zero elsewhere.

    eps sweeps rho0, rho0/2, ..., rho0 * 2^-20; the first admissible alpha
    is returned as an (n, N) array, or None if the sweep fails.  `delta` is
    the growth constant the construction relies on (f_{i0} >= delta u_{i0}
    near zero); the sweep itself decides admissibility.
    """
    if not (0 < rho0 < min(p.nl.box)):
        raise ValueError("need 0 < rho0 < min box bound")
    phi = spectrum.eigenfunction
    if phi.shape != (p.op.grid.interior_count,):
        raise ValueError("spectral estimate computed on a different grid")
    for k in range(21):
        alpha = np.zeros((p.nl.n, phi.size))
        alpha[i0] = np.clip(rho0 * 0.5 ** k * phi, 0.0, None)
        if np.all(alpha <= apply_T(p, alpha) + ORDER_SLACK):
            return alpha
    return None


def _is_bound(v, tv, k, lower) -> bool:
    """Whether half k of the block v is a subsolution (T v >= v, the lower
    half) or a supersolution (T v <= v), up to ORDER_SLACK."""
    small, large = (v[k], tv[k]) if k == lower else (tv[k], v[k])
    return bool(np.all(small <= large + ORDER_SLACK))


def _crossed(tv, lower, upper) -> bool:
    return (lower is not None and upper is not None
            and not np.all(tv[lower] <= tv[upper] + ORDER_SLACK))


def _order_broken(what: str, k, lower):
    direction = "from_below" if k == lower else "from_above"
    raise MonotonicityViolation(
        f"{what}: iterate ordering broken for direction {direction} "
        "(non-monotone nonlinearity or non-M-matrix operator?)")


def _check_order(v, tv, lower, upper, what: str):
    """Raise unless the state v, with images tv, is admissible: its lower
    half a subsolution, its upper half a supersolution, and T v_lower <=
    T v_upper.  lower and upper index the halves in the stacked block, or
    are None for an absent half.  For a plain step v = T u this is
    alpha_k <= alpha_{k+1} <= beta_{k+1} <= beta_k one step ahead."""
    for k in (lower, upper):
        if k is not None and not _is_bound(v, tv, k, lower):
            _order_broken(what, k, lower)
    if _crossed(tv, lower, upper):
        raise MonotonicityViolation(
            f"{what}: lower iterate exceeded upper iterate")


class _Anderson:
    """One half's Anderson(m) proposer (type II, undamped; Walker & Ni
    2011, SIAM J. Numer. Anal. 49): it keeps the last ANDERSON_M
    differences of the accepted states' residuals f = T x - x and images
    g = T x, flattened, in ring buffers, and proposes w = g - dG gamma with
    gamma the least-squares solution of dF gamma ~ f."""

    def __init__(self, f, g, work):
        self.df = np.empty((ANDERSON_M, f.size))
        self.dg = np.empty((ANDERSON_M, f.size))
        self.count = 0           # differences held
        self.oldest = 0          # ring slot of the oldest difference
        # (ANDERSON_M + 1, f.size) scratch, which the halves share: its
        # rows are the columns [dF | f] of the least-squares problem, so
        # its transpose is the Fortran-ordered matrix geqrf factors in place
        self.work = work
        self.f, self.g = f, g
        self.rest = 0            # plain steps left before the next proposal
        self.failures = 0        # candidates rejected in a row
        self.proposed = self.accepted = 0

    def push(self, f, g):
        """Record the next accepted state's flat residual f and image g."""
        slot = (self.oldest + self.count) % ANDERSON_M
        np.subtract(f, self.f, out=self.df[slot])
        np.subtract(g, self.g, out=self.dg[slot])
        if self.count < ANDERSON_M:
            self.count += 1
        else:
            self.oldest = (self.oldest + 1) % ANDERSON_M
        self.f, self.g = f, g

    def candidate(self):
        """The next candidate as a flat array, or None while the half has
        no history or rests after rejections."""
        if self.rest or not self.count:
            self.rest = max(self.rest - 1, 0)
            return None
        self.proposed += 1
        return self.g - self._gamma() @ self.dg[:self.count]

    def _gamma(self):
        """gamma by one Householder QR of [dF | f], oldest difference
        first, as coefficients of the ring slots.  dF = Q R, so the
        problem reduces to R gamma ~ (Q^T f)[:m], and R has the singular
        values of dF: its minimum-norm solution under lstsq's default
        cutoff for dF, eps * max(rows, cols) * sigma_max, is lstsq's."""
        m = self.count
        order = [(self.oldest + j) % ANDERSON_M for j in range(m)]
        for j, slot in enumerate(order):
            self.work[j] = self.df[slot]
        self.work[m] = self.f
        qr = lapack.dgeqrf(self.work[:m + 1].T, overwrite_a=1)[0]
        r, qtf = np.triu(qr[:m, :m]), qr[:m, m]   # R of dF, (Q^T f)[:m]
        cutoff = np.finfo(float).eps * max(self.f.size, m)
        gamma = np.linalg.lstsq(r, qtf, rcond=cutoff)[0]
        slots = np.empty(m)
        slots[order] = gamma
        return slots

    def judge(self, accepted: bool):
        """Count the verdict on the last candidate; after j rejections in a
        row the half takes j plain steps before it proposes again."""
        if accepted:
            self.accepted += 1
            self.failures = 0
        else:
            self.failures += 1
            self.rest = self.failures


def _advance(u, tu, slots, ts, moved):
    """The next state and its image: the halves that moved take their
    slot, the others keep their state."""
    if all(moved):
        return slots, ts
    moved = np.array(moved)[:, None, None]
    return np.where(moved, slots, u), np.where(moved, ts, tu)


def monotone_iterate(p: ProblemInstance, alpha=None, beta=None,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     record_iterates: bool = False) -> IterationReport:
    """Iterate from a subsolution alpha (upward) and a supersolution beta
    (downward); either may be None.

    Each half holds an admissible state x with its image T x: the lower
    half a subsolution, the upper a supersolution, and T x_lower <=
    T x_upper.  A step fills one slot per half with either the plain step
    T x or, once the half has a history, its Anderson candidate projected
    onto [T x_lower, T x_upper] (the box bounds stand in for an absent
    half), and applies T once to the stacked slots.  A candidate is kept
    only if it is again a sub- or supersolution and T w_lower <= T w_upper
    still holds; a rejected half keeps its state and takes plain steps for
    a while.  A plain slot must pass the same test or the step raises
    MonotonicityViolation, so every accepted state satisfies alpha_k <=
    alpha_{k+1} <= beta_{k+1} <= beta_k nodewise and brackets a fixed
    point.  The halves stop together at the first step where each state x
    satisfies |x - T x| <= tol in the product sup norm, the exact residual
    the certificate recomputes.  `iterations` counts the steps, that is
    the applications of T after the first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    halves = [(direction, start) for direction, start
              in (("from_below", alpha), ("from_above", beta))
              if start is not None]
    if not halves:
        raise ValueError("need a subsolution, a supersolution or both")
    lower = 0 if alpha is not None else None
    upper = len(halves) - 1 if beta is not None else None
    u = np.stack([np.asarray(start, dtype=float) for _, start in halves])
    tu = apply_T(p, u)
    _check_order(u, tu, lower, upper, "start is not admissible")
    box = np.asarray(p.nl.box, dtype=float)[:, None]
    work = np.empty((ANDERSON_M + 1, u[0].size))
    proposers = [_Anderson((tu[k] - u[k]).ravel(), tu[k].ravel(), work)
                 for k in range(len(halves))]
    history = [np.abs(u).max(axis=(1, 2))]
    iterates = [u] if record_iterates else None
    for it in range(1, max_iter + 1):
        what = f"iteration {it}"
        floor = tu[lower] if lower is not None else 0.0
        ceiling = tu[upper] if upper is not None else box
        slots = tu.copy()
        proposed = []
        for k, proposer in enumerate(proposers):
            w = proposer.candidate()
            if w is not None:
                np.clip(w.reshape(u.shape[1:]), floor, ceiling, out=slots[k])
                proposed.append(k)
        ts = apply_T(p, slots)
        # a candidate moves only if it is admissible; a plain slot must be
        moved = [_is_bound(slots, ts, k, lower) for k in range(len(halves))]
        for k in range(len(halves)):
            if not (moved[k] or k in proposed):
                _order_broken(what, k, lower)
        v, tv = _advance(u, tu, slots, ts, moved)
        if _crossed(tv, lower, upper):
            if any(moved[k] for k in proposed):
                moved = [k not in proposed for k in range(len(halves))]
                v, tv = _advance(u, tu, slots, ts, moved)
            if _crossed(tv, lower, upper):
                raise MonotonicityViolation(
                    f"{what}: lower iterate exceeded upper iterate")
        for k in proposed:
            proposers[k].judge(moved[k])
        history.append(np.abs(v).max(axis=(1, 2)))
        if record_iterates:
            iterates.append(v)
        step = tv - v
        residual = np.abs(step).max(axis=(1, 2))
        if np.all(residual <= tol):
            break
        for k, proposer in enumerate(proposers):
            if moved[k]:
                proposer.push(step[k].ravel(), tv[k].ravel())
        u, tu = v, tv
    else:
        raise NoConvergence(
            f"monotone iteration did not converge in {max_iter} iterations")
    norms = np.array(history)
    limits = [Limit(direction=direction, solution=v[k],
                    residual=float(residual[k]),
                    history=norms[:, k].tolist(),
                    converged_to_zero=bool(norms[-1, k] <= 10.0 * tol),
                    iterates=None if iterates is None
                    else [x[k] for x in iterates],
                    proposed=proposers[k].proposed,
                    accepted=proposers[k].accepted)
              for k, (direction, _) in enumerate(halves)]
    return IterationReport(it, limits[0] if alpha is not None else None,
                           limits[-1] if beta is not None else None)


def certify(p: ProblemInstance, u, tol: float = DEFAULT_TOL) -> Certificate:
    """Recompute T u for a state u of shape (n, N) and certify u as a
    nonzero positive fixed point."""
    residual = float(np.abs(u - apply_T(p, u)).max())
    min_value = float(u.min())
    norm = float(np.abs(u).max())
    positive = min_value >= -1e-10
    in_box = positive and all(float(c.max()) <= rho + 1e-10
                              for c, rho in zip(u, p.nl.box))
    nonzero = norm >= 10.0 * tol
    return Certificate(
        residual=residual, min_value=min_value, norm=norm, in_box=in_box,
        positive=positive, nonzero=nonzero,
        certified=bool(residual <= tol and positive and nonzero), tol=tol)

"""Nonlinearities f_i(x, u) on the grid and their structural checks.

A Nonlinearity bundles n parsed expressions with the box I = prod [0, rho_j]
they are defined on.  Applying one componentwise to a state, an (n, N) array
of nodal values, is the superposition (Nemytskii) evaluation.  The
structural hypotheses used by the existence theory, componentwise
monotonicity and the linear lower growth bound near zero, are verified by
seeded random sampling plus deterministic sweeps and reported as CheckReport
values rather than raised as errors: a failed check is an answer, not a
crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import BoxViolation, EvalDomainError, GridMismatch
from .geometry import DomainSpec, Grid

BOX_SLACK = 1e-10      # tolerated overshoot before clamping
# slack for the sampled inequalities, scaled down with the compared values
# (never looser than this): see _slack
CHECK_SLACK = 1e-12
# Largest (state, node) array max_over_domain evaluates at once: 2**16
# doubles (512 kB) per temporary, whatever the mesh.
BLOCK_ELEMENTS = 2 ** 16


def allowed_variables(n: int) -> set:
    names = {"x1", "x2"} | {f"u{i + 1}" for i in range(n)}
    if n == 1:
        names.add("s")     # scalar problems may call the unknown s
    return names


@dataclass(frozen=True)
class Nonlinearity:
    """n expressions f_i over variables x1, x2, u1..un (s aliases u1 when
    n = 1), with box upper bounds rho_j > 0."""

    exprs: tuple
    box: tuple
    n: int
    # whether each f_i reads x, decided once from its free variables
    _uses_x: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or len(self.exprs) != self.n or len(self.box) != self.n:
            raise ValueError("need one expression and one box bound per "
                             "component")
        if any(not (r > 0) for r in self.box):
            raise ValueError("box bounds must be strictly positive")
        allowed = allowed_variables(self.n)
        variables = [ex.free_vars(e) for e in self.exprs]
        for i, free in enumerate(variables):
            if extra := free - allowed:
                raise ValueError(
                    f"f{i + 1} uses unknown variable(s) {sorted(extra)}")
        object.__setattr__(self, "_uses_x", tuple(
            bool(free & {"x1", "x2"}) for free in variables))

    @classmethod
    def from_strings(cls, sources, box):
        n = len(sources)
        allowed = allowed_variables(n)
        exprs = tuple(ex.parse(src, allowed) for src in sources)
        return cls(exprs, tuple(float(r) for r in box), n)

    def uses_x(self, i: int) -> bool:
        return self._uses_x[i]

    def bindings(self, x1, x2, components):
        out = {"x1": x1, "x2": x2}
        for j, comp in enumerate(components):
            out[f"u{j + 1}"] = comp
        if self.n == 1:
            out["s"] = components[0]
        return out


@dataclass
class CheckReport:
    """Outcome of a sampled hypothesis check."""

    condition: str
    passed: bool
    samples: int
    seed: int
    witness: dict | None = None
    note: str = ""

    def to_text(self) -> str:
        status = "pass (sampled)" if self.passed else "FAIL"
        lines = [f"{self.condition}: {status} "
                 f"[{self.samples} samples, seed {self.seed}]"]
        if self.note:
            lines.append(f"  note: {self.note}")
        if self.witness is not None:
            lines.append(f"  witness: {json.dumps(self.witness)}")
        return "\n".join(lines)

    def csv_row(self) -> list:
        return [self.condition, "pass" if self.passed else "fail",
                json.dumps(self.witness) if self.witness is not None else ""]


def _slack(a, b):
    """The slack of a sampled inequality between values a and b:
    CHECK_SLACK * min(1, max(|a|, |b|)), so that values far below 1 are
    compared to the same relative precision as values near 1."""
    return CHECK_SLACK * np.minimum(1.0, np.maximum(np.abs(a), np.abs(b)))


def box_violation(nl: Nonlinearity, u: np.ndarray) -> BoxViolation | None:
    """The box rule: None if each row j of the (..., n, N) states u lies in
    [0, rho_j] up to BOX_SLACK (an empty stack does), else the BoxViolation
    naming the first component that leaves it; a NaN lies outside."""
    others = tuple(range(u.ndim - 2)) + (u.ndim - 1,)
    worst = np.maximum(-u.min(axis=others, initial=np.inf),
                       u.max(axis=others, initial=-np.inf) - nl.box)
    for j, rho in enumerate(nl.box):
        if not worst[j] <= BOX_SLACK:       # a NaN fails this
            return BoxViolation(f"component u{j + 1} leaves the box "
                                f"[0, {rho}] by {float(worst[j]):.3e}")
    return None


def nemytskii_apply(nl: Nonlinearity, u, grid: Grid) -> np.ndarray:
    """Nodewise evaluation of every f_i(x, u(x)) for a state u of shape
    (n, N), or a stack of states of shape (..., n, N), on the N interior
    nodes of grid; the result has the shape of u, f_i in row i.  u must
    pass box_violation, and is clamped onto the box before evaluation."""
    u = np.asarray(u, dtype=float)
    if u.shape[-2:] != (nl.n, grid.interior_count):
        raise GridMismatch(f"state of shape {u.shape} does not hold {nl.n} "
                           f"components on {grid.interior_count} nodes")
    if violation := box_violation(nl, u):
        raise violation
    clamped = np.clip(u, 0.0, np.asarray(nl.box)[:, None])
    bindings = nl.bindings(grid.xs, grid.ys,
                           [clamped[..., j, :] for j in range(nl.n)])
    out = np.empty_like(clamped)
    for i, e in enumerate(nl.exprs):
        out[..., i, :] = ex.eval_on_arrays(e, bindings)
    return out


def check_monotone(nl: Nonlinearity, i: int, samples: int, seed: int,
                   domain: DomainSpec) -> CheckReport:
    """Sampled componentwise monotonicity of f_i(x, .) on the box."""
    condition = f"(a) f{i + 1} non-decreasing"
    rng = np.random.default_rng(seed)
    x1, x2 = domain.sample(rng, samples)
    lo = np.empty((nl.n, samples))
    hi = np.empty((nl.n, samples))
    for j in range(nl.n):
        a = rng.uniform(0.0, nl.box[j], samples)
        b = rng.uniform(0.0, nl.box[j], samples)
        lo[j] = np.minimum(a, b)
        hi[j] = np.maximum(a, b)
    try:
        f_lo = ex.eval_on_arrays(nl.exprs[i], nl.bindings(x1, x2, lo))
        f_hi = ex.eval_on_arrays(nl.exprs[i], nl.bindings(x1, x2, hi))
    except EvalDomainError as err:
        return CheckReport(condition, False, samples, seed,
                           witness={"error": str(err)},
                           note="evaluation failed inside the box")
    f_lo, f_hi = np.broadcast_arrays(f_lo, f_hi)
    bad = f_lo > f_hi + _slack(f_lo, f_hi)
    if np.any(bad):
        k = int(np.argmax(bad))
        witness = {
            "x": [float(x1[k]), float(x2[k])],
            "u": [float(v) for v in lo[:, k]],
            "v": [float(v) for v in hi[:, k]],
            "f_u": float(f_lo[k]),
            "f_v": float(f_hi[k]),
        }
        return CheckReport(condition, False, samples, seed, witness=witness)
    return CheckReport(condition, True, samples, seed)


def growth_sample(nl: Nonlinearity, samples: int, seed: int,
                  domain: DomainSpec):
    """The random draw of check_growth, which does not depend on
    (delta, rho0): domain points x1, x2 and unit uniforms of shape
    (n, samples), which rho0 scales onto the sub-box.  Draw it once to
    check several (delta, rho0) pairs."""
    rng = np.random.default_rng(seed)
    x1, x2 = domain.sample(rng, samples)
    return x1, x2, rng.random((nl.n, samples))


def check_growth(nl: Nonlinearity, i0: int, delta: float, rho0: float,
                 samples: int, seed: int, domain: DomainSpec,
                 sample=None) -> CheckReport:
    """Sampled lower growth bound f_{i0}(x, u) >= delta * u_{i0} on the
    sub-box prod [0, rho0], plus a deterministic diagonal sweep.  `sample`
    is what growth_sample(nl, samples, seed, domain) returns, when the
    caller has drawn it already."""
    condition = f"(b) f{i0 + 1} >= {delta:g}*u{i0 + 1} on [0,{rho0:g}]^n"
    if not (0 < rho0 < min(nl.box)):
        raise ValueError("need 0 < rho0 < min box bound")
    if not (delta > 0):
        raise ValueError("delta must be positive")
    if sample is None:
        sample = growth_sample(nl, samples, seed, domain)
    x1, x2, unit = sample
    u = rho0 * unit     # bitwise rng.uniform(0.0, rho0, ...) on the same draw

    # deterministic diagonal sweep u = (s, ..., s) over fixed domain points
    s_lin = np.linspace(rho0 / 64, rho0, 64)
    s_geo = rho0 * 0.5 ** np.arange(1, 31)
    s_all = np.concatenate([s_lin, s_geo])
    px, py = domain.sweep_points()
    S = np.repeat(s_all, len(px))
    sweep_u = np.tile(S, (nl.n, 1)).reshape(nl.n, -1)
    sweep_x = np.tile(px, len(s_all))
    sweep_y = np.tile(py, len(s_all))

    xs = np.concatenate([x1, sweep_x])
    ys = np.concatenate([x2, sweep_y])
    uu = np.concatenate([u, sweep_u], axis=1)
    try:
        f = ex.eval_on_arrays(nl.exprs[i0], nl.bindings(xs, ys, uu))
    except EvalDomainError as err:
        return CheckReport(condition, False, samples, seed,
                           witness={"error": str(err)},
                           note="evaluation failed inside the sub-box")
    f = np.broadcast_to(f, uu.shape[1:])
    with np.errstate(over="ignore"):    # delta * u = inf fails the bound
        delta_u = delta * uu[i0]
    bad = f < delta_u - _slack(f, delta_u)
    if np.any(bad):
        k = int(np.argmax(bad))
        witness = {
            "x": [float(xs[k]), float(ys[k])],
            "u": [float(v) for v in uu[:, k]],
            "f": float(f[k]),
            "delta_u": float(delta_u[k]),
        }
        return CheckReport(condition, False, samples, seed, witness=witness,
                           note="sweep point" if k >= samples else "")
    return CheckReport(condition, True, samples, seed)


def screen_growth(nl: Nonlinearity, i0: int, deltas, rho0s,
                  sample) -> np.ndarray:
    """Pairs of a (delta, rho0) ladder that check_growth is certain to fail.

    One evaluation of f_{i0} covers the first samples // len(rho0s) points
    of `sample` (as growth_sample returns it) at every rho0: bitwise the
    (x, u) values check_growth evaluates for that rho0.  Entry [d, r] of
    the (len(deltas), len(rho0s)) result is True where one of them breaks
    the bound as check_growth compares it.  When that evaluation raises
    EvalDomainError, each rho0's slice is evaluated on its own; a slice
    that raises marks its rho0 at every delta, because check_growth
    evaluates those same points and fails on the error."""
    x1, x2, unit = sample
    count = len(rho0s)
    per_rho0 = unit.shape[1] // count
    failed = np.zeros((len(deltas), count), dtype=bool)
    u = (np.asarray(rho0s, dtype=float)[:, None]
         * unit[:, None, :per_rho0]).reshape(nl.n, -1)
    xs = np.tile(x1[:per_rho0], count)
    ys = np.tile(x2[:per_rho0], count)

    def evaluate(cols):
        f = ex.eval_on_arrays(nl.exprs[i0],
                              nl.bindings(xs[cols], ys[cols], u[:, cols]))
        return np.broadcast_to(f, u[0, cols].shape)

    try:
        f = evaluate(slice(None))
    except EvalDomainError:
        f = np.full(u.shape[1:], -np.inf)   # -inf fails every delta
        for r in range(count):
            cols = slice(r * per_rho0, (r + 1) * per_rho0)
            try:
                f[cols] = evaluate(cols)
            except EvalDomainError:
                pass
    for d, delta in enumerate(deltas):
        with np.errstate(over="ignore"):    # delta * u = inf fails too
            delta_u = delta * u[i0]
        bad = f < delta_u - _slack(f, delta_u)
        failed[d] = bad.reshape(count, per_rho0).any(axis=1)
    return failed


def max_over_domain(nl: Nonlinearity, i: int, states,
                    grid: Grid) -> np.ndarray:
    """max over the grid nodes of f_i(x, u) at each constant state u, a row
    of the (k, n) array states; returns the (k,) maxima.

    The states must pass box_violation and are clamped onto the box.
    An f_i without x is evaluated on the states alone.  Otherwise all k
    states are evaluated on each chunk of max(1, BLOCK_ELEMENTS // k)
    nodes.  Node maxima are exact, so each maximum is bitwise that of
    evaluating its state on its own.
    """
    u = np.asarray(states, dtype=float)
    if u.ndim != 2 or u.shape[1] != nl.n:
        raise ValueError("states must be a (k, n) array")
    if violation := box_violation(nl, u.T):
        raise violation
    u = np.clip(u, 0.0, np.asarray(nl.box))
    m = np.full(len(u), -np.inf)
    if not nl.uses_x(i):
        m[:] = ex.eval_on_arrays(nl.exprs[i], nl.bindings(0.0, 0.0, u.T))
        return m
    width = max(1, BLOCK_ELEMENTS // max(len(u), 1))
    for start in range(0, grid.interior_count, width):
        xs = grid.xs[start:start + width]
        out = ex.eval_on_arrays(nl.exprs[i], nl.bindings(
            xs, grid.ys[start:start + width], u.T[:, :, None]))
        # rebinding out frees the block before the next one is made
        out = np.broadcast_to(out, (len(u), len(xs))).max(axis=1)
        np.maximum(m, out, out=m)
    return m

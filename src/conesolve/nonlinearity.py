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
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import BoxViolation, EvalDomainError, GridMismatch
from .geometry import DomainSpec, Grid, Rectangle, UnitDisk

BOX_SLACK = 1e-10      # tolerated overshoot before clamping
CHECK_SLACK = 1e-12    # slack for the sampled inequalities


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

    def __post_init__(self):
        if self.n < 1 or len(self.exprs) != self.n or len(self.box) != self.n:
            raise ValueError("need one expression and one box bound per "
                             "component")
        if any(not (r > 0) for r in self.box):
            raise ValueError("box bounds must be strictly positive")
        allowed = allowed_variables(self.n)
        for i, e in enumerate(self.exprs):
            extra = ex.free_vars(e) - allowed
            if extra:
                raise ValueError(
                    f"f{i + 1} uses unknown variable(s) {sorted(extra)}")

    @classmethod
    def from_strings(cls, sources, box):
        n = len(sources)
        allowed = allowed_variables(n)
        exprs = tuple(ex.parse(src, allowed) for src in sources)
        return cls(exprs, tuple(float(r) for r in box), n)

    def uses_x(self, i: int) -> bool:
        return bool(ex.free_vars(self.exprs[i]) & {"x1", "x2"})

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


def sample_domain(domain: DomainSpec, rng, count: int):
    """Uniform sample of points from the closed domain."""
    if isinstance(domain, Rectangle):
        x = rng.uniform(domain.x_min, domain.x_max, count)
        y = rng.uniform(domain.y_min, domain.y_max, count)
        return x, y
    if isinstance(domain, UnitDisk):
        r = np.sqrt(rng.uniform(0.0, 1.0, count))
        t = rng.uniform(0.0, 2.0 * math.pi, count)
        return r * np.cos(t), r * np.sin(t)
    raise ValueError(f"unknown domain {domain!r}")


def _deterministic_points(domain: DomainSpec):
    if isinstance(domain, Rectangle):
        gx = np.linspace(domain.x_min, domain.x_max, 5)
        gy = np.linspace(domain.y_min, domain.y_max, 5)
        X, Y = np.meshgrid(gx, gy)
        return X.ravel(), Y.ravel()
    t = np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
    x = np.concatenate([[0.0], 0.5 * np.cos(t), 0.999 * np.cos(t)])
    y = np.concatenate([[0.0], 0.5 * np.sin(t), 0.999 * np.sin(t)])
    return x, y


def nemytskii_apply(nl: Nonlinearity, u, grid: Grid) -> np.ndarray:
    """Nodewise evaluation of every f_i(x, u(x)) for a state u of shape
    (n, N), or a stack of states of shape (..., n, N), on the N interior
    nodes of grid; the result has the shape of u, f_i in row i.

    u must stay inside the box up to BOX_SLACK; values inside the tolerance
    band are clamped onto the box before evaluation.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-2:] != (nl.n, grid.interior_count):
        raise GridMismatch(f"state of shape {u.shape} does not hold {nl.n} "
                           f"components on {grid.interior_count} nodes")
    box = np.asarray(nl.box)
    others = tuple(range(u.ndim - 2)) + (u.ndim - 1,)
    worst = np.maximum(-u.min(axis=others), u.max(axis=others) - box)
    for j, rho in enumerate(nl.box):
        if worst[j] > BOX_SLACK:
            raise BoxViolation(f"component u{j + 1} leaves the box "
                               f"[0, {rho}] by {float(worst[j]):.3e}")
    clamped = np.clip(u, 0.0, box[:, None])
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
    x1, x2 = sample_domain(domain, rng, samples)
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
    bad = f_lo > f_hi + CHECK_SLACK
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
    x1, x2 = sample_domain(domain, rng, samples)
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
    px, py = _deterministic_points(domain)
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
    bad = f < delta * uu[i0] - CHECK_SLACK
    if np.any(bad):
        k = int(np.argmax(bad))
        witness = {
            "x": [float(xs[k]), float(ys[k])],
            "u": [float(v) for v in uu[:, k]],
            "f": float(f[k]),
            "delta_u": float(delta * uu[i0, k]),
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
        bad = f < delta * u[i0] - CHECK_SLACK
        failed[d] = bad.reshape(count, per_rho0).any(axis=1)
    return failed


def max_over_domain(nl: Nonlinearity, i: int, beta, grid: Grid) -> float:
    """max of f_i(x, beta) over the grid nodes (exact for x-independent f)."""
    beta = [float(b) for b in beta]
    if len(beta) != nl.n:
        raise ValueError("beta must have one entry per component")
    for b, rho in zip(beta, nl.box):
        if not (-BOX_SLACK <= b <= rho + BOX_SLACK):
            raise BoxViolation(f"beta entry {b} outside the box [0, {rho}]")
    comps = [np.clip(b, 0.0, rho) for b, rho in zip(beta, nl.box)]
    out = ex.eval_on_arrays(nl.exprs[i],
                            nl.bindings(grid.xs, grid.ys, comps))
    return float(np.max(out))

"""Built-in verification suite.

Ten numbered criteria cover the numerical fidelity of the solution operator,
the spectral data, the admissible parameter intervals, the end-to-end solve,
and the property suites for the iteration, the operator, the hypothesis
checkers and the expression engine.  The CLI `verify` command and the
acceptance tests both run these; each criterion reports one PASS / FAIL
line.  Every criterion is judged at any step (--h override): the targets
hold on coarse grids, and criterion 3's widens with the O(h^2) error of
the eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from . import expr as ex
from .config import parse_config
from .errors import EvalDomainError
from .fixedpoint import (ProblemInstance, check_supersolution,
                         construct_subsolution, monotone_iterate)
from .geometry import Rectangle, UnitDisk, build_grid
from .greens import apply_K, k_one_norm, spectral_radius
from .nonlinearity import Nonlinearity, check_growth, check_monotone
from .operator import EllipticCoefficients, Dirichlet, assemble

REFERENCE_H = 1.0 / 64.0

# reference values; the disk eigenvalue is re-derived at runtime from the
# power-series bisection oracle below
SQUARE_MU1 = 2.0 * math.pi ** 2
SYSTEM_UPPER_1 = 1.669
SYSTEM_UPPER_2 = 5.432
SCALAR_SUP = 1.66924
ANALYTIC_K1_NORM = 0.25


# ---------------------------------------------------------------------------
# independent oracle: first zero of the Bessel function J0 from its power
# series, located by bisection

def bessel_j0_series(x: float) -> float:
    total = 1.0
    term = 1.0
    q = 0.25 * x * x
    for k in range(1, 60):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def first_j0_zero() -> float:
    lo, hi = 2.0, 3.0
    flo = bessel_j0_series(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fmid = bessel_j0_series(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def disk_mu1_reference() -> float:
    return first_j0_zero() ** 2


# ---------------------------------------------------------------------------
# shared context with caches

class VerifyContext:
    def __init__(self, h: float = REFERENCE_H):
        self.h = h
        self._ops = {}
        self._k1 = {}
        self._spectra = {}

    def op(self, domain_key, h=None):
        h = self.h if h is None else h
        key = (domain_key, h)
        if key not in self._ops:
            spec = UnitDisk() if domain_key == "disk" \
                else Rectangle(0.0, 1.0, 0.0, 1.0)
            grid = build_grid(spec, h)
            self._ops[key] = assemble(grid, EllipticCoefficients.laplacian(),
                                      Dirichlet())
        return self._ops[key]

    def k1(self, domain_key, h=None):
        h = self.h if h is None else h
        key = (domain_key, h)
        if key not in self._k1:
            self._k1[key] = k_one_norm(self.op(domain_key, h))
        return self._k1[key]

    def spectrum(self, domain_key, h=None):
        h = self.h if h is None else h
        key = (domain_key, h)
        if key not in self._spectra:
            self._spectra[key] = spectral_radius(self.op(domain_key, h))
        return self._spectra[key]

    def builtin_config(self, name):
        return parse_config(
            (files("conesolve") / "configs" / name).read_text())


# ---------------------------------------------------------------------------
# criteria

def _crit_green_fidelity(ctx: VerifyContext):
    """Exactness on quadratics plus second-order refinement on the disk.

    The exactness clause compares K(1) with the closed form
    (1 - x1^2 - x2^2)/4 at the context step.  The shortened-leg stencil
    reproduces that degree-2 profile exactly, so its error is solver
    roundoff and must stay below 5e-3.

    The refinement clause uses the quartic manufactured solution
    u = (1 - r^2)^2, -Lap u = 8 - 16 r^2, which carries a genuine truncation
    error through the shortened boundary legs.  Its max error at 2h over
    its max error at h must lie in [2.5, 4.5], the band around the factor 4
    of a second-order scheme; a first-order operator lands near 2.
    """
    grid = ctx.op("disk").grid
    k1, _ = ctx.k1("disk")
    k1_err = float(np.abs(
        k1 - 0.25 * (1.0 - grid.xs ** 2 - grid.ys ** 2)).max())

    def quartic_error(h):
        op_h = ctx.op("disk", h)
        r2 = op_h.grid.xs ** 2 + op_h.grid.ys ** 2
        return float(np.abs(apply_K(op_h, 8.0 - 16.0 * r2)
                            - (1.0 - r2) ** 2).max())

    err_fine = quartic_error(ctx.h)
    err_coarse = quartic_error(2.0 * ctx.h)
    ratio = err_coarse / err_fine if err_fine > 0 else math.inf
    ok = k1_err <= 5e-3 and 2.5 <= ratio <= 4.5
    return ok, (f"K(1) max error {k1_err:.3e} at h={ctx.h:g} "
                f"(target <= 5e-3); quartic max error {err_coarse:.3e} at "
                f"h={2.0 * ctx.h:g}, {err_fine:.3e} at h={ctx.h:g}, "
                f"refinement ratio {ratio:.2f} (target [2.5, 4.5])")


def _crit_k1_norm(ctx: VerifyContext):
    _, norm = ctx.k1("disk")
    rel = abs(norm - ANALYTIC_K1_NORM) / ANALYTIC_K1_NORM
    return rel <= 0.02, (f"|K(1)| = {norm:.6f}, "
                         f"relative error {rel:.2e} (target <= 2e-2)")


def _crit_mu1(ctx: VerifyContext):
    """Relative error of mu1 on the disk and the square.  It behaves like
    0.34 h^2 on the disk and 0.82 h^2 on the square, so the target is
    max(1e-2, 2 h^2): 1e-2 for h <= 1/16, and wider only on coarser grids.
    """
    target = max(1e-2, 2.0 * ctx.h ** 2)
    mu_disk = ctx.spectrum("disk").mu1
    mu_square = ctx.spectrum("square").mu1
    ref_disk = disk_mu1_reference()
    rel_disk = abs(mu_disk - ref_disk) / ref_disk
    rel_square = abs(mu_square - SQUARE_MU1) / SQUARE_MU1
    ok = rel_disk <= target and rel_square <= target
    return ok, (f"disk mu1 = {mu_disk:.5f} vs {ref_disk:.5f} "
                f"({rel_disk:.2e}); square mu1 = {mu_square:.5f} vs "
                f"{SQUARE_MU1:.5f} ({rel_square:.2e}); targets <= "
                f"{target:.2e}")


def _crit_system_uppers(ctx: VerifyContext):
    from .ranges import system_ranges
    cfg = ctx.builtin_config("system_disk.cfg")
    nl = cfg.nonlinearity()
    grid = ctx.op("disk").grid
    _, k1_numeric = ctx.k1("disk")
    mu1 = ctx.spectrum("disk").mu1

    analytic = system_ranges(nl, cfg.rho, cfg.i0, 10.0, ANALYTIC_K1_NORM,
                             mu1, grid)
    numeric = system_ranges(nl, cfg.rho, cfg.i0, 10.0, k1_numeric, mu1, grid)
    targets = (SYSTEM_UPPER_1, SYSTEM_UPPER_2)
    abs_ok = all(abs(rng.upper - t) <= 5e-3
                 for rng, t in zip(analytic, targets))
    rel_ok = all(abs(rng.upper - t) / t <= 0.025
                 for rng, t in zip(numeric, targets))
    return abs_ok and rel_ok, (
        f"analytic uppers ({analytic[0].upper:.4f}, {analytic[1].upper:.4f})"
        f" vs ({targets[0]}, {targets[1]}) within 5e-3: {abs_ok}; "
        f"numeric uppers ({numeric[0].upper:.4f}, {numeric[1].upper:.4f}) "
        f"within 2.5%: {rel_ok}")


def _crit_scalar_sup(ctx: VerifyContext):
    from .ranges import single_range
    cfg = ctx.builtin_config("scalar_disk.cfg")
    nl = cfg.nonlinearity()
    rng = single_range(nl, cfg.rho[0], delta=1.0, rho0=cfg.rho[0] / 2,
                       k1_norm=ANALYTIC_K1_NORM, mu1=disk_mu1_reference(),
                       grid_points=cfg.grid_points)
    err = abs(rng.upper - SCALAR_SUP)
    return err <= 1e-3, (f"sup = {rng.upper:.6f} vs {SCALAR_SUP} "
                         f"(|diff| = {err:.2e}, target <= 1e-3)")


def _crit_end_to_end(ctx: VerifyContext):
    cfg = ctx.builtin_config("system_disk.cfg")
    cfg.h = ctx.h
    cfg.tol = 1e-9
    op = ctx.op("disk")
    nl = cfg.nonlinearity()
    problem = ProblemInstance(op, nl, tuple(cfg.lambdas))
    beta = np.outer(cfg.rho, np.ones(op.grid.interior_count))
    ok_super, _ = check_supersolution(problem, beta)
    if not ok_super:
        return False, "supersolution check failed at beta = rho"
    report = monotone_iterate(problem, beta=beta, tol=cfg.tol,
                              max_iter=cfg.max_iter, record_iterates=True)
    upper = report.upper
    # independent nodewise re-check of the recorded sequence
    decreasing = all(
        np.all(upper.iterates[k + 1] <= upper.iterates[k] + 1e-12)
        for k in range(len(upper.iterates) - 1))
    u = upper.solution
    min_val = float(u.min())
    in_box = all(float(c.max()) <= rho + 1e-10 for c, rho in zip(u, cfg.rho))
    norm = float(np.abs(u).max())
    ok = (upper.residual <= 1e-9 and min_val > -1e-10 and in_box
          and norm > 1e-8 and decreasing)
    return ok, (f"residual {upper.residual:.2e} (<= 1e-9), min value "
                f"{min_val:.2e} (> -1e-10), in box {in_box}, norm "
                f"{norm:.4f} (> 1e-8), monotone sequence {decreasing}, "
                f"{report.iterations} iterations")


def _random_monotone_instance(rng, op, spectrum):
    """One instance of the seeded template family: componentwise
    non-decreasing, nonnegative, with a square-root term in the pivot
    component so the growth constant can be made large near zero."""
    i0 = int(rng.integers(0, 2))
    other = 1 - i0
    b = float(rng.uniform(0.5, 2.0))
    c = float(rng.uniform(0.0, 0.5))
    d = float(rng.uniform(0.0, 0.5))
    c0 = float(rng.uniform(0.05, 0.5))
    c1 = float(rng.uniform(0.0, 1.0))
    c2 = float(rng.uniform(0.0, 1.0))
    sources = [None, None]
    sources[i0] = (f"{b!r}*sqrt(u{i0 + 1}) + {c!r}*u{other + 1} + "
                   f"{d!r}*max(u1,u2)^2")
    sources[other] = f"{c0!r} + {c1!r}*u{other + 1}^2 + {c2!r}*u1*u2"
    nl = Nonlinearity.from_strings(sources, (1.0, 1.0))

    rho0 = 0.01
    delta = 0.99 * b / math.sqrt(rho0)
    _, k1_norm = k_one_norm(op)
    m_i0 = b + c + d
    m_other = c0 + c1 + c2
    lower = spectrum.mu1 / delta
    upper_i0 = 1.0 / (m_i0 * k1_norm)
    lam = [0.0, 0.0]
    lam[i0] = min(0.9 * upper_i0,
                  max(1.05 * lower, math.sqrt(lower * upper_i0)))
    lam[other] = 0.8 / (m_other * k1_norm)
    return ProblemInstance(op, nl, tuple(lam)), i0, delta, rho0


def _crit_bracketing(ctx: VerifyContext):
    op = ctx.op("disk", 1.0 / 16.0)
    spectrum = spectral_radius(op)
    rng = np.random.default_rng(20240817)
    attempted = succeeded = 0
    for _ in range(20):
        attempted += 1
        problem, i0, delta, rho0 = _random_monotone_instance(
            rng, op, spectrum)
        beta = np.outer(problem.nl.box, np.ones(op.grid.interior_count))
        ok_super, _ = check_supersolution(problem, beta)
        if not ok_super:
            return False, "template instance lost its supersolution"
        alpha = construct_subsolution(problem, spectrum, i0, delta, rho0)
        if alpha is None:
            continue
        succeeded += 1
        bracket = monotone_iterate(problem, alpha, beta, tol=1e-10,
                                   max_iter=5000, record_iterates=True)
        pairs = zip(bracket.lower.iterates, bracket.upper.iterates)
        if not all(np.all(a <= b + 1e-9) for a, b in pairs):
            return False, "alpha_k <= beta_k violated along the iteration"
        if not np.all(bracket.lower.solution
                      <= bracket.upper.solution + 1e-9):
            return False, "smallest fixed point exceeds greatest"
    if succeeded < attempted // 2:
        return False, (f"only {succeeded}/{attempted} instances produced a "
                       "subsolution; suite too vacuous")
    return True, (f"{succeeded}/{attempted} instances bracketed; ordering "
                  "held at every step, smallest <= greatest throughout")


def _crit_operator_properties(ctx: VerifyContext):
    failures = []
    for domain_key in ("disk", "square"):
        op = ctx.op(domain_key)
        n = op.grid.interior_count
        rng = np.random.default_rng(911 if domain_key == "disk" else 912)
        for trial in range(100):
            g = rng.standard_normal(n)
            hvec = rng.standard_normal(n)
            a, b = rng.uniform(-2, 2, 2)
            kg = apply_K(op, g)
            kh = apply_K(op, hvec)
            combo = apply_K(op, a * g + b * hvec)
            lin_err = float(np.abs(combo - a * kg - b * kh).max())
            lin_tol = 1e-9 * (abs(a) * float(np.abs(g).max())
                              + abs(b) * float(np.abs(hvec).max()))
            if lin_err > lin_tol:
                failures.append(f"{domain_key} linearity trial {trial}: "
                                f"{lin_err:.2e} > {lin_tol:.2e}")
            gpos = np.abs(g)
            kpos = apply_K(op, gpos)
            if float(kpos.min()) < -1e-10 * float(gpos.max()):
                failures.append(f"{domain_key} positivity trial {trial}")
            delta = np.abs(hvec)
            k_lo = apply_K(op, gpos)
            k_hi = apply_K(op, gpos + delta)
            slack = 1e-10 * float(delta.max())
            if not np.all(k_lo <= k_hi + slack):
                failures.append(f"{domain_key} monotonicity trial {trial}")
    if failures:
        return False, "; ".join(failures[:3])
    return True, ("linearity, positivity, monotonicity held on 100 seeded "
                  "inputs for both built-in domains")


def _crit_hypothesis_checkers(ctx: VerifyContext):
    cfg = ctx.builtin_config("system_disk.cfg")
    nl = cfg.nonlinearity()
    domain = UnitDisk()
    rep1 = check_monotone(nl, 0, 10_000, 7001, domain)
    rep2 = check_monotone(nl, 1, 10_000, 7002, domain)
    grow = check_growth(nl, 0, delta=1.0, rho0=0.7, samples=10_000,
                        seed=7003, domain=domain)
    bad_mono = check_monotone(
        Nonlinearity.from_strings(["u1 - u2", "u1"], (1.0, 1.0)),
        0, 10_000, 7004, domain)
    bad_grow = check_growth(
        Nonlinearity.from_strings(["u1^2"], (1.0,)), 0, delta=1.0,
        rho0=0.5, samples=10_000, seed=7005, domain=domain)
    ok = (rep1.passed and rep2.passed and grow.passed
          and not bad_mono.passed and bad_mono.witness is not None
          and not bad_grow.passed and bad_grow.witness is not None)
    return ok, (f"reference f1/f2 accepted: {rep1.passed}/{rep2.passed}, "
                f"growth accepted: {grow.passed}; planted counterexamples "
                f"rejected with witnesses: "
                f"{not bad_mono.passed and bad_mono.witness is not None}/"
                f"{not bad_grow.passed and bad_grow.witness is not None}")


PRECEDENCE_CASES = [
    ("2+3*4", 14.0),
    ("2*3+4", 10.0),
    ("2^3^2", 512.0),
    ("-2^2", -4.0),
    ("(-2)^2", 4.0),
    ("2^-3", 0.125),
    ("-2*3", -6.0),
    ("2-3-4", -5.0),
    ("2-(3-4)", 3.0),
    ("12/3/2", 2.0),
    ("12/(3/2)", 8.0),
    ("2+3*4^2", 50.0),
    ("(2+3)*4^2", 80.0),
    ("2*3^2", 18.0),
    ("(2*3)^2", 36.0),
    ("--2", 2.0),
    ("-(2+3)", -5.0),
    ("2^2^-1", math.sqrt(2.0)),
    ("min(3, 2)^2", 4.0),
    ("max(1, 2, 3) + 1", 4.0),
    ("pow(2, 10)", 1024.0),
    ("abs(-3) * 2", 6.0),
    ("1e2 + 1", 101.0),
    ("2.5e-1 * 4", 1.0),
]

GUARD_CASES = [
    ("tan(s)", {"s": math.pi / 2}),
    ("sqrt(s)", {"s": -1.0}),
    ("log(s)", {"s": 0.0}),
    ("pow(s, -1)", {"s": 0.0}),
    ("1/s", {"s": 0.0}),
    ("exp(s)", {"s": 1e9}),
    ("s^0.5", {"s": -2.0}),
    ("1e308*10", {"s": 0.0}),
    ("-s-s", {"s": 1e308}),
    ("s+s", {"s": 1e308}),
    ("s*s*0", {"s": 1e200}),
]


def _crit_expression_engine(ctx: VerifyContext):
    for src, expected in PRECEDENCE_CASES:
        got = ex.eval_expr(ex.parse(src, {"s"}), {"s": 0.0})
        if got != expected:
            return False, f"{src!r} evaluated to {got!r}, expected {expected!r}"
    for src, bindings in GUARD_CASES:
        try:
            value = ex.eval_expr(ex.parse(src, {"s"}), bindings)
        except EvalDomainError:
            continue
        return False, (f"{src!r} at {bindings} returned {value!r} instead "
                       "of raising EvalDomainError")
    return True, (f"{len(PRECEDENCE_CASES)} precedence cases exact; "
                  f"{len(GUARD_CASES)} domain guards raised structured "
                  "errors")


@dataclass(frozen=True)
class Criterion:
    cid: int
    title: str
    runner: object


CRITERIA = [
    Criterion(1, "green operator fidelity on the disk", _crit_green_fidelity),
    Criterion(2, "sup norm of K(1) on the disk", _crit_k1_norm),
    Criterion(3, "principal characteristic value (disk and square)",
              _crit_mu1),
    Criterion(4, "system lambda upper bounds", _crit_system_uppers),
    Criterion(5, "single-equation sup bound", _crit_scalar_sup),
    Criterion(6, "end-to-end certified solve of the reference system",
              _crit_end_to_end),
    Criterion(7, "bracketing property suite (20 seeded instances)",
              _crit_bracketing),
    Criterion(8, "solution operator property suite",
              _crit_operator_properties),
    Criterion(9, "hypothesis checkers accept/reject",
              _crit_hypothesis_checkers),
    Criterion(10, "expression engine precedence and guards",
              _crit_expression_engine),
]


@dataclass
class CriterionResult:
    cid: int
    title: str
    status: str          # PASS / FAIL
    detail: str

    def line(self) -> str:
        return f"[{self.status}] {self.cid:>2}  {self.title}: {self.detail}"


def run_criterion(crit: Criterion, ctx: VerifyContext) -> CriterionResult:
    passed, detail = crit.runner(ctx)
    return CriterionResult(crit.cid, crit.title,
                           "PASS" if passed else "FAIL", detail)


def run_all(h_override: float | None = None) -> list:
    ctx = VerifyContext(h_override if h_override is not None else REFERENCE_H)
    return [run_criterion(crit, ctx) for crit in CRITERIA]

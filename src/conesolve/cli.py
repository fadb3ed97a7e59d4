"""Command-line front end.

Subcommands: solve, lambda-range, spectrum, verify.  The pipeline is
grid -> operator (folded by its lattice symmetry when every f_i is free
of x) -> K / spectrum -> hypothesis checks -> lambda ranges ->
monotone solve -> certificate.  Exit codes are a stable contract:

    0   success (certified nonzero positive solution / nonempty ranges)
    1   a hypothesis check failed (condition (a), (b), (c), supersolution,
        or a monotonicity violation during iteration)
    2   the iteration converged to the trivial solution
    3   some lambda range is empty
    64  usage / malformed config
    65  semantically invalid data (bad coefficients, degenerate grid, ...)
    66  missing input file
    70  internal numerical failure (no convergence, solver failure)
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import Config, _validate, load_config
from .errors import (ConesolveError, ConfigError, ExprError,
                     MonotonicityViolation, NoConvergence, SolverFailure)
from .fixedpoint import (ProblemInstance, certify, check_supersolution,
                         construct_subsolution, monotone_iterate)
from .geometry import build_grid
from .greens import k_one_norm, spectral_radius
from .nonlinearity import (check_growth, check_monotone, growth_sample,
                           screen_growth)
from .operator import assemble, fold
from .ranges import ratio_curve, single_range, system_ranges

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_TRIVIAL = 2
EXIT_EMPTY_RANGE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_SOFTWARE = 70

DELTA_SWEEP = tuple(10.0 ** k for k in range(4, -3, -1))
CSV_CHUNK_ROWS = 2048


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header, columns):
    """Write a table given by columns: float columns as their _text
    (%.17g, which round-trips every double), columns of str as they are,
    other columns as str().  Rows are joined and written CSV_CHUNK_ROWS at
    a time, so the text of a whole table is never held at once."""
    cells = []
    for col in map(np.asarray, columns):
        if col.dtype.kind == "f":
            col = _text(col)
        cells.append(col.tolist() if col.dtype.kind in "OU"
                     else [str(v) for v in col.tolist()])
    rows = map(",".join, itertools.chain([header], zip(*cells)))
    with open(path, "w", encoding="utf-8") as fh:
        while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
            fh.write("\n".join(chunk) + "\n")


def _text(values) -> np.ndarray:
    """The %.17g text of each entry of a float array, as an object array
    of str of the same shape, formatted with one `%` over all entries."""
    values = np.asarray(values, dtype=float)
    text = ("%.17g\n" * values.size) % tuple(values.ravel().tolist())
    return np.array(text.split("\n")[:-1], dtype=object).reshape(
        values.shape)


def _text_column(values) -> np.ndarray:
    """_text of a float array, formatting each distinct value (by its
    bits, so -0.0 keeps its sign) once.  Grid coordinates take one of a
    few hundred lattice values, so this is how a coordinate column is
    written."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return _text(bits.view(float))[inverse.reshape(values.shape)]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conesolve",
                     description="positive solutions of semilinear elliptic "
                                 "systems by monotone fixed-point iteration")
    parser.add_argument("--version", action="version",
                        version=f"conesolve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, iterates=False, samples=False):
        """The flags of a config command: --config, --h, --out and --csv,
        plus --tol and --max-iter where it iterates and --seed where it
        samples the nonlinearity."""
        p.add_argument("--config", required=True,
                       help="path to the config file")
        p.add_argument("--h", type=float, default=None,
                       help="override the mesh step")
        if iterates:
            p.add_argument("--tol", type=float, default=None,
                           help="override the iteration tolerance")
            p.add_argument("--max-iter", type=int, default=None,
                           help="override the monotone iteration budget")
        if samples:
            p.add_argument("--seed", type=int, default=None,
                           help="override the sampling seed")
        p.add_argument("--out", default=".",
                       help="directory for output artifacts")
        p.add_argument("--csv", action="store_true",
                       help="write CSV artifacts")

    common(sub.add_parser("solve", help="run the full pipeline and certify "
                                        "a fixed point"),
           iterates=True, samples=True)
    common(sub.add_parser("lambda-range",
                          help="compute admissible lambda intervals"),
           samples=True)
    common(sub.add_parser("spectrum",
                          help="principal spectral data of the solution "
                               "operator"))
    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--h", type=float, default=None,
                   help="override the mesh step; every criterion is "
                        "judged at it, and a miss reports FAIL")
    p.add_argument("--list", action="store_true",
                   help="list the criteria without running them")
    return parser


def _apply_overrides(cfg: Config, args) -> Config:
    if args.h is not None:
        cfg.h = args.h
    if getattr(args, "tol", None) is not None:
        cfg.tol = args.tol
    if getattr(args, "max_iter", None) is not None:
        cfg.max_iter = args.max_iter
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    _validate(vars(cfg))
    return cfg


@dataclass
class Pipeline:
    """The stages every command shares.  `grid` is the full grid; `op`,
    K(1) and the spectrum live on `op.grid`, which holds one node per
    orbit when the operator is folded."""

    cfg: Config
    grid: object
    op: object
    k1_norm: float
    spectrum: object

    def unfold(self, u) -> np.ndarray:
        """Values on op.grid, an (..., M) array, at every node of grid."""
        if self.op.grid is self.grid:
            return u
        i, j = self.grid.nodes.T
        return u[..., self.op.grid.interior_ids[j, i]]

    def unfold_text(self, u) -> np.ndarray:
        """unfold of the %.17g text of u: each orbit's value is formatted
        once, and every node of the orbit shares its string."""
        return self.unfold(_text(u))

    def symmetry_text(self) -> str:
        """One line naming the lattice symmetry solved under."""
        nodes = self.grid.interior_count
        if not self.op.symmetry:
            return f"no lattice symmetry: solving on all {nodes} nodes"
        maps = len(self.op.symmetry) + 1
        group = {8: "D4", 4: "C4" if "quarter turn" in self.op.symmetry
                 else "D2", 2: "C2" if "half turn" in self.op.symmetry
                 else "D1"}[maps]
        which = ("all 8 maps" if maps == 8
                 else ", ".join(self.op.symmetry))
        return (f"lattice symmetry: {group} ({which}): solving on "
                f"{self.op.grid.interior_count} orbits of {nodes} nodes")


def build_pipeline(cfg: Config) -> Pipeline:
    grid = build_grid(cfg.domain, cfg.h)
    op = assemble(grid, cfg.coefficients, cfg.bc)
    # T commutes with every lattice map that keeps A when no f_i reads x;
    # sampling cannot prove an f_i that reads x invariant
    if not any(cfg.nl.uses_x(i) for i in range(cfg.n)):
        op = fold(op)
    _, k1_norm = k_one_norm(op)
    spectrum = spectral_radius(op)
    return Pipeline(cfg, grid, op, k1_norm, spectrum)


POWER_ITERATION_RISK = ("the power iteration may not converge to a positive "
                        "eigenpair")


def _warn_unless_m_matrix(pipe: Pipeline, consequence: str):
    """Print the one warning line of a command whose operator is not an
    M-matrix."""
    if not pipe.op.diagnostics.is_m_matrix:
        print(f"warning: operator matrix is not an M-matrix; {consequence}")


def _growth_parameters(pipe: Pipeline):
    """Resolve (delta, rho0, report): use the configured values when given,
    otherwise sweep delta over decades (largest validated first) and rho0
    geometrically downward.  Every candidate is judged on one random draw:
    one blocked screen of the whole ladder, then a full check of each pair
    it leaves, in sweep order.  When none passes, the report is the full
    check of the last pair, so the result is that of checking every pair
    in turn."""
    cfg = pipe.cfg
    nl = cfg.nl
    sample = growth_sample(nl, cfg.samples, cfg.seed, cfg.domain)
    deltas = [cfg.delta] if cfg.delta is not None else list(DELTA_SWEEP)
    rho0s = ([cfg.rho0] if cfg.rho0 is not None
             else [min(nl.box) * 0.5 ** k for k in range(1, 21)])
    failed = screen_growth(nl, cfg.i0, deltas, rho0s, sample)
    last = (len(deltas) - 1, len(rho0s) - 1)
    for d, delta in enumerate(deltas):
        for r, rho0 in enumerate(rho0s):
            if failed[d, r] and (d, r) != last:
                continue
            report = check_growth(nl, cfg.i0, delta, rho0, cfg.samples,
                                  cfg.seed, cfg.domain, sample)
            if report.passed:
                return delta, rho0, report
    return None, None, report


def _single_curve(pipe: Pipeline):
    """The sampled curve s -> s / (M(s) |K1|) of a single equation, built
    once per op and shared by the range, the supersolution level and
    ratio_curve.csv; None for systems."""
    cfg = pipe.cfg
    if cfg.n > 1:
        return None
    return ratio_curve(cfg.nl, pipe.k1_norm, pipe.grid)


def _compute_ranges(pipe: Pipeline, curve, delta: float):
    cfg = pipe.cfg
    if cfg.n == 1:
        return [single_range(cfg.nl, delta, pipe.k1_norm, pipe.spectrum.mu1,
                             pipe.grid, curve)]
    return system_ranges(cfg.nl, cfg.rho, cfg.i0, delta, pipe.k1_norm,
                         pipe.spectrum.mu1, pipe.grid)


def _choose_beta(pipe: Pipeline, curve) -> list:
    """Supersolution level: the box top for systems; for a single equation
    the sampled maximizer of s / (M(s) |K1|) on `curve`, which leaves the
    largest margin lambda M(beta) |K1| < beta when lambda is admissible."""
    cfg = pipe.cfg
    if curve is None:
        return list(cfg.rho)
    lam = cfg.lambdas[0]
    s, ratios = curve
    with np.errstate(over="ignore"):    # lam / ratios = inf: no margin
        margins = s * (1.0 - lam / ratios)
    k = int(np.argmax(margins))
    if margins[k] <= 0:
        return list(cfg.rho)     # no admissible level; checked downstream
    return [float(s[k])]


def _coordinate_text(grid):
    """The x1 and x2 columns of a table over the interior nodes, as text."""
    return _text_column(grid.xs), _text_column(grid.ys)


def _write_solution_csv(path, coordinates, text):
    """Write the text of u, as unfold_text gives it, next to the
    coordinates _coordinate_text returned."""
    header = ["x1", "x2"] + [f"u{i + 1}" for i in range(len(text))]
    _write_csv(path, header, [*coordinates, *text])


def _iterate(problem, alpha, beta, cfg):
    """Iterate from both alpha (if any) and beta in one engine run.  When
    that fails but beta alone succeeds, the failure was confined to the
    lower half and only warrants a warning."""
    if alpha is not None:
        try:
            return monotone_iterate(problem, alpha, beta, tol=cfg.tol,
                                    max_iter=cfg.max_iter)
        except (MonotonicityViolation, NoConvergence) as err:
            lower_err = err
    report = monotone_iterate(problem, beta=beta, tol=cfg.tol,
                              max_iter=cfg.max_iter)
    if alpha is not None:
        print(f"warning: lower iteration did not complete: {lower_err}")
    return report


def cmd_solve(cfg: Config, out_dir: str, want_csv: bool) -> int:
    if cfg.lambdas is None:
        print("error: 'solve' needs lambda1..lambdan in the config",
              file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(out_dir, exist_ok=True)
    pipe = build_pipeline(cfg)
    print(f"grid: {cfg.domain} h={cfg.h} "
          f"({pipe.grid.interior_count} interior nodes)")
    print(pipe.symmetry_text())
    print(f"|K(1)| = {pipe.k1_norm:.6g}, mu1 = {pipe.spectrum.mu1:.6g}")
    _warn_unless_m_matrix(pipe, "positivity of the iteration is not "
                                "guaranteed")

    checks = []
    for i in range(cfg.n):
        rep = check_monotone(cfg.nl, i, cfg.samples, cfg.seed + i,
                             cfg.domain)
        checks.append(rep)
        print(rep.to_text())
        if not rep.passed:
            return _abort(out_dir, checks,
                          f"hypothesis (a) fails for f{i + 1}; aborting")

    delta, rho0, growth_rep = _growth_parameters(pipe)
    checks.append(growth_rep)
    print(growth_rep.to_text())
    if delta is None:
        return _abort(out_dir, checks, "hypothesis (b) fails: no validated "
                                       "(delta, rho0); aborting")
    print(f"growth parameters: delta = {delta:g}, rho0 = {rho0:g}")

    try:
        curve = _single_curve(pipe)
        ranges = _compute_ranges(pipe, curve, delta)
    except ConesolveError as err:
        return _abort(out_dir, checks, f"hypothesis (c) fails: {err}")
    for rng in ranges:
        print(rng.describe())
        lam = cfg.lambdas[rng.component]
        if not rng.contains(lam):
            print(f"warning: lambda{rng.component + 1} = {lam:g} outside "
                  "the admissible interval; existence is not guaranteed "
                  "(the bound is sufficient, not necessary)")

    problem = ProblemInstance(pipe.op, cfg.nl, tuple(cfg.lambdas))
    beta_levels = _choose_beta(pipe, curve)
    beta = np.outer(beta_levels, np.ones(pipe.op.grid.interior_count))
    ok, margin = check_supersolution(problem, beta)
    print(f"supersolution check at beta = "
          f"({', '.join(f'{b:.6g}' for b in beta_levels)}): "
          f"margin = {margin:.6g}")
    if not ok:
        return _abort(out_dir, checks, "supersolution condition T beta <= "
                                       "beta fails; aborting")

    # keep the subsolution below the supersolution level so the two
    # iterations bracket the same interval
    alpha = construct_subsolution(problem, pipe.spectrum, cfg.i0,
                                  min(rho0, 0.5 * min(beta_levels)))
    if alpha is None:
        print("note: no subsolution found by the eigenfunction sweep; the "
              "iteration may reach the trivial fixed point")
    else:
        print(f"subsolution found with amplitude "
              f"{float(np.abs(alpha).max()):.3e}")

    try:
        report = _iterate(problem, alpha, beta, cfg)
    except MonotonicityViolation as err:
        return _abort(out_dir, checks, f"iteration aborted: {err}")
    upper, low = report.upper, report.lower
    print(upper.to_text())
    coordinates = _coordinate_text(pipe.grid)
    if low is not None:
        print(f"bracket: smallest fixed point norm {low.norm:.6g} <= "
              f"greatest {upper.norm:.6g}")
        if want_csv:
            _write_solution_csv(os.path.join(out_dir, "solution_lower.csv"),
                                coordinates, pipe.unfold_text(low.solution))

    cert = certify(problem, upper.solution, tol=cfg.tol)
    print(cert.to_text())

    _write_checks(out_dir, checks)
    _write_solution_csv(os.path.join(out_dir, "solution.csv"), coordinates,
                        pipe.unfold_text(upper.solution))
    for name, record in (("certificate.txt", cert),
                         ("iteration_report.txt", upper)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(record.to_text() + "\n")
    _write_csv(os.path.join(out_dir, "iterations.csv"),
               ["iteration", "norm"],
               [np.arange(len(upper.history)),
                np.asarray(upper.history, dtype=float)])

    if not cert.nonzero:
        print("no nonzero solution found in bracket (the iteration from "
              "above converged to zero)")
        return EXIT_TRIVIAL
    if not cert.certified:
        print("run completed without a certified nonzero solution")
        return EXIT_SOFTWARE
    return EXIT_OK


def _csv_field(text: str) -> str:
    """A text cell as csv.QUOTE_MINIMAL writes it: quoted, with inner
    quotes doubled, when it holds a comma, a quote or a line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_checks(out_dir, checks):
    # conditions such as "on [0,rho0]^n" and JSON witnesses hold commas
    rows = [[_csv_field(cell) for cell in rep.csv_row()] for rep in checks]
    _write_csv(os.path.join(out_dir, "checks.csv"),
               ["condition", "result", "witness"], list(zip(*rows)))


def _abort(out_dir, checks, message) -> int:
    """End a solve whose hypothesis check failed: write the checks made so
    far, print why, and return its exit code."""
    _write_checks(out_dir, checks)
    print(message)
    return EXIT_HYPOTHESIS


def cmd_lambda_range(cfg: Config, out_dir: str, want_csv: bool) -> int:
    os.makedirs(out_dir, exist_ok=True)
    pipe = build_pipeline(cfg)
    print(pipe.symmetry_text())
    print(f"|K(1)| = {pipe.k1_norm:.6g}, mu1 = {pipe.spectrum.mu1:.6g}")
    _warn_unless_m_matrix(pipe, POWER_ITERATION_RISK)
    delta, rho0, growth_rep = _growth_parameters(pipe)
    if delta is None:
        print(growth_rep.to_text())
        print("warning: no validated growth constant; using delta = 1 "
              "without certification")
        delta = 1.0
    else:
        print(f"growth parameters: delta = {delta:g}, rho0 = {rho0:g} "
              "(validated by sampling)")
    curve = _single_curve(pipe)
    ranges = _compute_ranges(pipe, curve, delta)
    for rng in ranges:
        print(rng.describe())
    if want_csv:
        rows = [[rng.component + 1, float(rng.lower), float(rng.upper),
                 int(rng.empty), float(rng.provenance.m_value),
                 float(rng.provenance.k1_norm),
                 "" if rng.provenance.mu1 is None
                 else _fmt(float(rng.provenance.mu1)),
                 "" if rng.provenance.delta is None
                 else _fmt(float(rng.provenance.delta))]
                for rng in ranges]
        _write_csv(os.path.join(out_dir, "ranges.csv"),
                   ["component", "lower", "upper", "empty", "m_value",
                    "k1_norm", "mu1", "delta"], list(zip(*rows)))
        if curve is not None:
            _write_csv(os.path.join(out_dir, "ratio_curve.csv"),
                       ["s", "ratio"], list(curve))
    if any(rng.empty for rng in ranges):
        print("at least one admissible interval is empty")
        return EXIT_EMPTY_RANGE
    return EXIT_OK


def cmd_spectrum(cfg: Config, out_dir: str, want_csv: bool) -> int:
    os.makedirs(out_dir, exist_ok=True)
    pipe = build_pipeline(cfg)
    est = pipe.spectrum
    print(pipe.symmetry_text())
    _warn_unless_m_matrix(pipe, POWER_ITERATION_RISK)
    print(f"r(K)       = {_fmt(est.r)}")
    print(f"mu1        = {_fmt(est.mu1)}")
    print(f"iterations = {est.iterations}")
    print(f"residual   = {est.residual:.3e}")
    if want_csv:
        _write_csv(os.path.join(out_dir, "eigenfunction.csv"),
                   ["x1", "x2", "phi"],
                   [*_coordinate_text(pipe.grid),
                    pipe.unfold_text(est.eigenfunction)])
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify as verification
    if args.list:
        for crit in verification.CRITERIA:
            print(f"{crit.cid:>2}  {crit.title}")
        return EXIT_OK
    results = verification.run_all(h_override=args.h)
    failed = False
    for res in results:
        print(res.line())
        failed = failed or res.status == "FAIL"
    return EXIT_HYPOTHESIS if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK

    try:
        if args.command == "verify":
            return cmd_verify(args)
        try:
            cfg = load_config(args.config)
        except FileNotFoundError:
            print(f"error: config file not found: {args.config}",
                  file=sys.stderr)
            return EXIT_NOINPUT
        except OSError as err:
            print(f"error: cannot read config: {err}", file=sys.stderr)
            return EXIT_NOINPUT
        cfg = _apply_overrides(cfg, args)
        if args.command == "solve":
            return cmd_solve(cfg, args.out, args.csv)
        if args.command == "lambda-range":
            return cmd_lambda_range(cfg, args.out, args.csv)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.out, args.csv)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (NoConvergence, SolverFailure) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOFTWARE
    except ConesolveError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: solve, lambda-range, spectrum, verify.  `prepare` runs grid
-> operator (folded by its lattice symmetry) -> K(1) / spectrum ->
hypotheses -> lambda ranges; `solve_at` runs supersolution -> subsolution
-> monotone iteration -> certificate at one lambda.  Each returns a frozen
result of what its stages found, the stage that stopped the run and its
exit code; a command prints its to_text() and writes the artifacts.  Exit
codes are a stable contract:

    0   success (certified nonzero positive solution / nonempty ranges)
    1   a hypothesis check failed (condition (a), (b), (c), supersolution,
        or a monotonicity violation during iteration)
    2   the iteration converged to the trivial solution
    3   some lambda range is empty
    64  usage / malformed config
    65  semantically invalid data (bad coefficients, degenerate grid, ...)
    66  missing input file
    70  internal numerical failure (no convergence, solver failure)
    73  --out or an artifact in it cannot be created
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import SETTINGS, Config, _validate, load_config
from .errors import ConesolveError, MonotonicityViolation, NoConvergence
from .fixedpoint import (ProblemInstance, certify, check_supersolution,
                         construct_subsolution, monotone_iterate)
from .geometry import build_grid, format_domain
from .greens import k_one_norm, spectral_radius
from .nonlinearity import (check_growth, check_monotone, growth_sample,
                           screen_growth)
from .operator import assemble, fold
from .ranges import CURVE_FLOOR, ratio_curve, single_range, system_ranges

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_TRIVIAL = 2
EXIT_EMPTY_RANGE = 3
EXIT_USAGE = 64
EXIT_NOINPUT = 66
EXIT_SOFTWARE = 70
EXIT_CANTCREAT = 73

DELTA_SWEEP = tuple(10.0 ** k for k in range(4, -3, -1))
CSV_CHUNK_ROWS = 2048

# The config keys each command's flags override, in flag order: --tol and
# --max-iter where it iterates, --seed where it samples the nonlinearity.
OVERRIDES = {"solve": ("h", "tol", "max_iter", "seed"),
             "lambda-range": ("h", "seed"), "spectrum": ("h",)}
OVERRIDE_HELP = {"h": "override the mesh step",
                 "tol": "override the iteration tolerance",
                 "max_iter": "override the monotone iteration budget",
                 "seed": "override the sampling seed"}


def _write_csv(path, header, columns):
    """Write a table given by columns.  A column is a sequence of cells, or
    a pair (values, index) of a float array and an index array whose row k
    is values[index[k]], each value formatted once.  Float cells are written
    as their _text (%.17g, which round-trips every double), others as str();
    rows go out CSV_CHUNK_ROWS at a time: no text is held at table length."""
    table = [(_text(col[0]), col[1]) if isinstance(col, tuple)
             and len(col) == 2 and isinstance(col[1], np.ndarray)
             else (np.asarray(col), None) for col in columns]
    rows = min((len(v if i is None else i) for v, i in table), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_CHUNK_ROWS):
            part = slice(start, start + CSV_CHUNK_ROWS)
            cells = [_cells(v[part]) if i is None else v[i[part]].tolist()
                     for v, i in table]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(col: np.ndarray) -> list:
    """The cells of a plain column as text, as _write_csv writes them."""
    return (_text(col) if col.dtype.kind == "f" else col.astype(str)).tolist()


def _text(values) -> np.ndarray:
    """The %.17g text of each entry of a float array, as an object array
    of str of the same shape, formatted with one `%` over all entries."""
    values = np.asarray(values, dtype=float)
    text = ("%.17g\n" * values.size) % tuple(values.ravel().tolist())
    return np.array(text.split("\n")[:-1], dtype=object).reshape(
        values.shape)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conesolve",
                     description="positive solutions of semilinear elliptic "
                                 "systems by monotone fixed-point iteration")
    parser.add_argument("--version", action="version",
                        version=f"conesolve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_, csv_help in (
            ("solve", "run the full pipeline and certify a fixed point",
             "also write solution_lower.csv, the limit from below"),
            ("lambda-range", "compute admissible lambda intervals",
             "write ranges.csv, and ratio_curve.csv for a single equation"),
            ("spectrum", "principal spectral data of the solution operator",
             "write the eigenfunction as eigenfunction.csv")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True,
                       help="path to the config file")
        for key in OVERRIDES[name]:
            # h is the one required key a flag overrides
            kind = SETTINGS[key][0] if key in SETTINGS else float
            p.add_argument("--" + key.replace("_", "-"), type=kind,
                           default=None, help=OVERRIDE_HELP[key])
        p.add_argument("--out", default=".",
                       help="directory for output artifacts")
        p.add_argument("--csv", action="store_true", help=csv_help)
    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--h", type=float, default=None,
                   help="override the mesh step; every criterion is "
                        "judged at it, and a miss reports FAIL")
    p.add_argument("--list", action="store_true",
                   help="list the criteria without running them")
    return parser


def _apply_overrides(cfg: Config, args) -> Config:
    for key in OVERRIDES[args.command]:
        if (value := getattr(args, key)) is not None:
            setattr(cfg, key, value)
    _validate(vars(cfg), cfg.rho)
    return cfg


@dataclass(frozen=True, eq=False)
class Prepared:
    """What a command's lambda-free stages found.  `grid` is the full grid;
    `op`, K(1) and the spectrum live on `op.grid`, one node per orbit."""

    cfg: Config
    grid: object
    op: object
    k1_norm: float
    spectrum: object
    command: str = "solve"
    checks: tuple = ()          # reports of (a), per component, and (b)
    delta: float | None = None  # the validated growth pair, or None
    rho0: float | None = None
    ranges: tuple = ()
    curve: tuple | None = None  # for one equation, its range's ratio curve
    stopped_at: str | None = None   # the hypothesis that failed
    error: ConesolveError | None = None     # why (c) failed

    @property
    def exit_code(self) -> int:
        if self.stopped_at is not None:
            return EXIT_HYPOTHESIS
        empty = self.command != "solve" and any(r.empty for r in self.ranges)
        return EXIT_EMPTY_RANGE if empty else EXIT_OK

    def to_text(self) -> str:
        """The stdout of these stages; for solve, a range whose lambda lies
        outside it is followed by a warning."""
        cfg, solve, est = self.cfg, self.command == "solve", self.spectrum
        lines = ([f"grid: {format_domain(cfg.domain)} h={cfg.h} "
                  f"({self.grid.interior_count} interior nodes)"]
                 if solve else [])
        lines.append(self.symmetry_text())
        if self.command != "spectrum":
            lines.append(f"|K(1)| = {self.k1_norm:.6g}, mu1 = {est.mu1:.6g}")
        if not self.op.is_m_matrix:
            lines.append("warning: operator matrix is not an M-matrix; " + (
                "positivity of the iteration is not guaranteed" if solve
                else "the power iteration may not converge to a positive "
                "eigenpair"))
        if self.command == "spectrum":
            return "\n".join(lines + [
                f"r(K)       = {est.r:.17g}", f"mu1        = {est.mu1:.17g}",
                f"iterations = {est.iterations}",
                f"residual   = {est.residual:.3e}"])
        lines += [rep.to_text() for rep in self.checks] if solve else []
        if self.stopped_at == "hypothesis (a)":
            lines.append(f"hypothesis (a) fails for f{len(self.checks)}; "
                         "aborting")
        elif self.stopped_at == "hypothesis (b)":
            lines.append("hypothesis (b) fails: no validated (delta, rho0); "
                         "aborting")
        elif self.delta is None:
            lines += [self.checks[-1].to_text(), "warning: no validated "
                      "growth constant; using delta = 1 without certification"]
        else:
            lines.append(f"growth parameters: delta = {self.delta:g}, rho0 = "
                         f"{self.rho0:g}" + ("" if solve
                                             else " (validated by sampling)"))
        if self.stopped_at == "hypothesis (c)":
            lines.append(f"hypothesis (c) fails: {self.error}")
        # solve warns about each lambda its config gives outside its range
        lambdas = cfg.lambdas if solve else None
        for rng in self.ranges:
            lines.append(rng.describe())
            if lambdas and not rng.contains(lam := lambdas[rng.component]):
                lines.append(f"warning: lambda{rng.component + 1} = {lam:g} "
                             "outside the admissible interval; existence is "
                             "not guaranteed (the bound is sufficient, not "
                             "necessary)")
        if self.exit_code == EXIT_EMPTY_RANGE:
            lines.append("at least one admissible interval is empty")
        return "\n".join(lines)

    def unfold(self, u) -> np.ndarray:
        """Values on op.grid, an (..., M) array, at every node of grid."""
        if self.op.grid is self.grid:
            return u
        i, j = self.grid.nodes.T
        return u[..., self.op.grid.interior_ids[j, i]]

    def nodal_columns(self, u) -> list:
        """The _write_csv columns x1, x2 and one per row of u, values on
        op.grid, at every node of grid: each lattice coordinate x0 + i h
        (the double grid.xs holds) and each orbit's value is gathered."""
        grid = self.grid
        i, j = grid.nodes.T
        orbit = self.unfold(np.arange(self.op.grid.interior_count))
        return [(grid.x0 + np.arange(grid.nx) * grid.h, i),
                (grid.y0 + np.arange(grid.ny) * grid.h, j),
                *((row, orbit) for row in np.atleast_2d(u))]

    def symmetry_text(self) -> str:
        """One line naming the lattice symmetry solved under."""
        nodes = self.grid.interior_count
        if not self.op.symmetry:
            return f"no lattice symmetry: solving on all {nodes} nodes"
        maps = len(self.op.symmetry) + 1
        group = {8: "D4", 4: "C4" if "quarter turn" in self.op.symmetry
                 else "D2", 2: "C2" if "half turn" in self.op.symmetry
                 else "D1"}[maps]
        which = "all 8 maps" if maps == 8 else ", ".join(self.op.symmetry)
        return (f"lattice symmetry: {group} ({which}): solving on "
                f"{self.op.grid.interior_count} orbits of {nodes} nodes")


def prepare(cfg: Config, command: str = "solve") -> Prepared:
    """Run the lambda-free stages of `command`: grid to spectrum, then,
    except for spectrum, hypotheses (a) and (b) and the ranges.  solve
    stops at the first failed hypothesis; lambda-range checks no (a), and
    takes delta = 1 when no growth pair validates."""
    grid = build_grid(cfg.domain, cfg.h)
    op = assemble(grid, cfg.coefficients, cfg.bc)
    # T commutes with every lattice map that keeps A when no f_i reads x;
    # sampling cannot prove an f_i that reads x invariant
    if not any(cfg.nl.uses_x(i) for i in range(cfg.n)):
        op = fold(op)
    _, k1 = k_one_norm(op)
    prep = Prepared(cfg, grid, op, k1, spectral_radius(op), command)
    if command == "spectrum":
        return prep
    # the checks and ranges sample the box down to min(rho) * 2^-20 and
    # rho1 * CURVE_FLOOR: refuse a bound whose samples would be subnormal
    for j, rho in enumerate(cfg.rho):
        if rho * CURVE_FLOOR < np.finfo(float).tiny:
            raise ConesolveError(
                f"rho{j + 1} = {rho!r} is too small: the checks and ranges "
                f"need rho{j + 1} * {CURVE_FLOOR:g} to be a normal double")
    checks = []
    for i in range(cfg.n if command == "solve" else 0):
        checks.append(check_monotone(cfg.nl, i, cfg.samples, cfg.seed + i,
                                     cfg.domain))
        if not checks[-1].passed:
            return replace(prep, checks=tuple(checks),
                           stopped_at="hypothesis (a)")
    delta, rho0, growth = _growth_parameters(cfg)
    prep = replace(prep, checks=(*checks, growth), delta=delta, rho0=rho0)
    if delta is None and command == "solve":
        return replace(prep, stopped_at="hypothesis (b)")
    delta, mu1 = 1.0 if delta is None else delta, prep.spectrum.mu1
    try:
        if cfg.n > 1:
            return replace(prep, ranges=tuple(system_ranges(
                cfg.nl, cfg.rho, cfg.i0, delta, k1, mu1, grid)))
        # built once per op, for the range, beta and ratio_curve.csv
        curve = ratio_curve(cfg.nl, k1, grid)
        return replace(prep, curve=curve, ranges=(single_range(
            cfg.nl, delta, k1, mu1, grid, curve),))
    except ConesolveError as err:
        return replace(prep, stopped_at="hypothesis (c)", error=err)


def _growth_parameters(cfg: Config):
    """Resolve (delta, rho0, report): use the configured values when given,
    otherwise sweep delta over decades (largest validated first) and rho0
    geometrically downward.  Every candidate is judged on one random draw:
    one blocked screen of the whole ladder, then a full check of each pair
    it leaves, in sweep order.  When none passes, the report is the last
    pair's full check, as if every pair were checked in turn."""
    nl = cfg.nl
    sample = growth_sample(nl, cfg.samples, cfg.seed, cfg.domain)
    deltas = [cfg.delta] if cfg.delta is not None else list(DELTA_SWEEP)
    rho0s = ([cfg.rho0] if cfg.rho0 is not None
             else [min(nl.box) * 0.5 ** k for k in range(1, 21)])
    failed = screen_growth(nl, cfg.i0, deltas, rho0s, sample)
    pairs = [tuple(pair) for pair in np.argwhere(~failed)]  # in sweep order
    last = (len(deltas) - 1, len(rho0s) - 1)
    for d, r in pairs if last in pairs else pairs + [last]:
        report = check_growth(nl, cfg.i0, deltas[d], rho0s[r], cfg.samples,
                              cfg.seed, cfg.domain, sample)
        if report.passed:
            return deltas[d], rho0s[r], report
    return None, None, report


@dataclass(frozen=True, eq=False)
class SolveResult:
    """What the stages of `solve` at one lambda found."""

    beta_levels: tuple          # the supersolution, constant per component
    margin: float
    subsolution: np.ndarray | None = None   # None when the sweep finds none
    report: object = None       # the iteration's limits
    lower_error: ConesolveError | None = None   # why the lower half failed
    certificate: object = None  # of the upper limit
    stopped_at: str | None = None
    error: ConesolveError | None = None     # what the stopping stage raised

    @property
    def exit_code(self) -> int:
        if self.stopped_at is not None:     # by a failed check or an error
            return self.error.exit_code if self.error else EXIT_HYPOTHESIS
        if not self.certificate.nonzero:
            return EXIT_TRIVIAL
        return EXIT_OK if self.certificate.certified else EXIT_SOFTWARE

    def to_text(self) -> str:
        """The stdout of these stages."""
        levels = ", ".join(f"{b:.6g}" for b in self.beta_levels)
        lines = [f"supersolution check at beta = ({levels}): "
                 f"margin = {self.margin:.6g}"]
        alpha, report, cert = self.subsolution, self.report, self.certificate
        if self.stopped_at == "supersolution":
            lines.append("supersolution condition T beta <= beta fails; "
                         "aborting")
        elif self.stopped_at != "subsolution":
            lines.append(
                "note: no subsolution found by the eigenfunction sweep; the "
                "iteration may reach the trivial fixed point" if alpha is None
                else f"subsolution found with amplitude "
                     f"{float(np.abs(alpha).max()):.3e}")
        if isinstance(self.error, MonotonicityViolation):
            lines.append(f"iteration aborted: {self.error}")
        if self.lower_error is not None:
            lines.append(f"warning: lower iteration did not complete: "
                         f"{self.lower_error}")
        lines += [report.upper.to_text()] if report is not None else []
        if report is not None and report.lower is not None:
            lines.append(f"bracket: lower limit norm {report.lower.norm:.6g} "
                         f"<= upper limit norm {report.upper.norm:.6g}")
        lines += [cert.to_text()] if cert is not None else []
        if self.exit_code == EXIT_TRIVIAL:
            lines.append("no nonzero solution found in bracket (the "
                         "iteration from above converged to zero)")
        elif cert is not None and not cert.certified:
            lines.append("run completed without a certified nonzero solution")
        return "\n".join(lines)


def solve_at(prep: Prepared, lambdas) -> SolveResult:
    """Run the stages of `solve` at `lambdas` on a problem that passed
    `prepare`.  An error raised after the supersolution check is recorded,
    not raised, so that the result still shows the stages before it."""
    cfg = prep.cfg
    problem = ProblemInstance(prep.op, cfg.nl, tuple(lambdas))
    levels = list(cfg.rho)      # the box top, for systems
    if prep.curve is not None:
        # the sampled maximizer of s / (M(s) |K1|) leaves the largest
        # margin lambda M(beta) |K1| < beta; the box top fails when none is
        s, ratios = prep.curve
        with np.errstate(over="ignore"):    # lam / ratios = inf: no margin
            margins = s * (1.0 - lambdas[0] / ratios)
        if margins[k := int(np.argmax(margins))] > 0:
            levels = [float(s[k])]
    beta = np.outer(levels, np.ones(prep.op.grid.interior_count))
    ok, margin = check_supersolution(problem, beta)
    result = SolveResult(tuple(levels), margin)
    if not ok:
        return replace(result, stopped_at="supersolution")
    stage = "subsolution"
    try:
        # below the supersolution level, so both halves bracket one interval
        alpha = construct_subsolution(problem, prep.spectrum, cfg.i0,
                                      min(prep.rho0, 0.5 * min(levels)))
        result, stage = replace(result, subsolution=alpha), "iteration"
        report = lower_error = None
        if alpha is not None:
            try:
                report = monotone_iterate(problem, beta, alpha=alpha,
                                          tol=cfg.tol, max_iter=cfg.max_iter)
            except (MonotonicityViolation, NoConvergence) as err:
                lower_error = err   # only the lower half's, if beta succeeds
        if report is None:
            report = monotone_iterate(problem, beta, tol=cfg.tol,
                                      max_iter=cfg.max_iter)
        result = replace(result, report=report, lower_error=lower_error)
        stage = "certificate"
        return replace(result, certificate=certify(
            problem, report.upper.solution, tol=cfg.tol))
    except ConesolveError as err:
        return replace(result, stopped_at=stage, error=err)


def _save(out_dir: str, artifacts):
    """Create out_dir and write each (name, text or _write_csv args) in it."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in artifacts:
        path = os.path.join(out_dir, name)
        if isinstance(content, str):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        else:
            _write_csv(path, *content)


def cmd_solve(cfg: Config, out_dir: str, want_csv: bool) -> int:
    if cfg.lambdas is None:
        print("error: 'solve' needs lambda1..lambdan in the config",
              file=sys.stderr)
        return EXIT_USAGE
    prep = prepare(cfg)
    print(prep.to_text())
    # conditions such as "on [0,rho0]^n" and JSON witnesses hold commas:
    # quote a cell as csv.QUOTE_MINIMAL does
    rows = [['"' + cell.replace('"', '""') + '"'
             if any(ch in cell for ch in ',"\r\n') else cell
             for cell in rep.csv_row()] for rep in prep.checks]
    checks = ("checks.csv", (["condition", "result", "witness"],
                             list(zip(*rows))))
    if prep.stopped_at is None:
        result = solve_at(prep, cfg.lambdas)
        print(result.to_text())
    if prep.stopped_at is not None or result.exit_code == EXIT_HYPOTHESIS:
        _save(out_dir, [checks])
        return EXIT_HYPOTHESIS
    if result.error is not None:
        raise result.error
    upper, low = result.report.upper, result.report.lower
    header = ["x1", "x2"] + [f"u{i + 1}" for i in range(cfg.n)]
    lower = [] if low is None or not want_csv else [
        ("solution_lower.csv", (header, prep.nodal_columns(low.solution)))]
    _save(out_dir, lower + [
        checks, ("solution.csv", (header, prep.nodal_columns(upper.solution))),
        ("certificate.txt", result.certificate.to_text() + "\n"),
        ("iteration_report.txt", upper.to_text() + "\n"),
        ("iterations.csv", (["iteration", "norm"], [
            np.arange(len(upper.history)),
            np.asarray(upper.history, dtype=float)]))])
    return result.exit_code


def cmd_lambda_range(cfg: Config, out_dir: str, want_csv: bool) -> int:
    prep = prepare(cfg, "lambda-range")
    print(prep.to_text())
    if want_csv and prep.stopped_at is None:
        rows = [[r.component + 1, float(r.lower), float(r.upper),
                 int(r.empty), float(r.m_value), float(r.k1_norm),
                 *("" if v is None else f"{float(v):.17g}"
                   for v in (r.mu1, r.delta))]
                for r in prep.ranges]
        curve = [] if prep.curve is None else [
            ("ratio_curve.csv", (["s", "ratio"], list(prep.curve)))]
        _save(out_dir, [("ranges.csv", (
            ["component", "lower", "upper", "empty", "m_value", "k1_norm",
             "mu1", "delta"], list(zip(*rows))))] + curve)
    return prep.exit_code


def cmd_spectrum(cfg: Config, out_dir: str, want_csv: bool) -> int:
    prep = prepare(cfg, "spectrum")
    print(prep.to_text())
    if want_csv:
        _save(out_dir, [("eigenfunction.csv", (["x1", "x2", "phi"],
              prep.nodal_columns(prep.spectrum.eigenfunction)))])
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify as verification
    if args.list:
        print("\n".join(f"{crit.cid:>2}  {crit.title}"
                        for crit in verification.CRITERIA))
        return EXIT_OK
    results = verification.run_all(h_override=args.h)
    print("\n".join(res.line() for res in results))
    failed = any(res.status == "FAIL" for res in results)
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
        command = {"solve": cmd_solve, "lambda-range": cmd_lambda_range,
                   "spectrum": cmd_spectrum}[args.command]
        return command(_apply_overrides(cfg, args), args.out, args.csv)
    except ConesolveError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_CANTCREAT

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
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import SETTINGS, Config, _validate, load_config
from .errors import (ConesolveError, ConfigError, EvalDomainError, ExprError,
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

# The config keys each command's flags override, in flag order: a command
# takes --tol and --max-iter where it iterates and --seed where it samples
# the nonlinearity.
OVERRIDES = {"solve": ("h", "tol", "max_iter", "seed"),
             "lambda-range": ("h", "seed"), "spectrum": ("h",)}
OVERRIDE_HELP = {"h": "override the mesh step",
                 "tol": "override the iteration tolerance",
                 "max_iter": "override the monotone iteration budget",
                 "seed": "override the sampling seed"}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header, columns):
    """Write a table given by columns.  A column is a sequence of cells, or
    a pair (values, index) of a float array and an index array whose row k
    is values[index[k]], each value formatted once.  Float cells are written
    as their _text (%.17g, which round-trips every double), others as str().
    Rows are made and written CSV_CHUNK_ROWS at a time, so no column's text
    is held at table length."""
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
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


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


def _ranges(pipe: Pipeline, delta: float):
    """(ranges, curve): the admissible lambda intervals and, for a single
    equation, the sampled curve s -> s / (M(s) |K1|) its range is read
    from, built once per op and shared by the supersolution level and
    ratio_curve.csv; the curve is None for systems."""
    cfg = pipe.cfg
    if cfg.n > 1:
        return system_ranges(cfg.nl, cfg.rho, cfg.i0, delta, pipe.k1_norm,
                             pipe.spectrum.mu1, pipe.grid), None
    curve = ratio_curve(cfg.nl, pipe.k1_norm, pipe.grid)
    return [single_range(cfg.nl, delta, pipe.k1_norm, pipe.spectrum.mu1,
                         pipe.grid, curve)], curve


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
        ranges, curve = _ranges(pipe, delta)
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
    header = ["x1", "x2"] + [f"u{i + 1}" for i in range(cfg.n)]
    if low is not None:
        print(f"bracket: lower limit norm {low.norm:.6g} <= "
              f"upper limit norm {upper.norm:.6g}")
        if want_csv:
            _write_csv(os.path.join(out_dir, "solution_lower.csv"), header,
                       pipe.nodal_columns(low.solution))

    cert = certify(problem, upper.solution, tol=cfg.tol)
    print(cert.to_text())

    _write_checks(out_dir, checks)
    _write_csv(os.path.join(out_dir, "solution.csv"), header,
               pipe.nodal_columns(upper.solution))
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
    try:
        ranges, curve = _ranges(pipe, delta)
    except ConesolveError as err:
        print(f"hypothesis (c) fails: {err}")
        return EXIT_HYPOTHESIS
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
                   ["x1", "x2", "phi"], pipe.nodal_columns(est.eigenfunction))
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
    except ConesolveError as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, (NoConvergence, SolverFailure)):
            return EXIT_SOFTWARE
        # an expression that parses but cannot be evaluated is bad data
        if (isinstance(err, (ConfigError, ExprError))
                and not isinstance(err, EvalDomainError)):
            return EXIT_USAGE
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

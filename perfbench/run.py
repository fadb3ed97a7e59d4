"""Benchmark of `conesolve solve`: time to a certified solution.

Run from the root of a conesolve checkout:

    python3 perfbench/run.py --workload disk-system --seed 7 --seconds 30 \
        --trace 0

One process per run drives `conesolve.cli.main(["solve", ...])` in-process
as a closed loop with one client for `--seconds` seconds, checks every op's
output against the workload's reference, and prints a report followed by
one JSON line.  `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates traced and untraced ops and reports the per-layer metrics of the
traced ones (see tracing.py) plus the tracing overhead.  Workloads are
defined in workloads.json.  The benchmark starts no threads and caps BLAS
to one thread; the only subprocesses are the fresh interpreters that
measure `setup_s`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUTPUT_DIR = ".perfbench"        # under the checkout root; git-ignored
SETUP_SAMPLES = 9
TAIL_BEYOND = 10                 # certified ops required above the tail
EXIT_NOT_A_CHECKOUT = 2

# The metrics of the JSON line, as listed in BENCHMARK.json.
END_TO_END_UNITS = {
    "solve_s": "s",
    "certified_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed in the report only.  On a shared 2-vCPU machine the tail of
# disk-system spread by 27% of its median over ten runs, more than any
# bound a change could be held to.
END_TO_END_REPORTED = {"solve_s_tail": "s"}

PER_LAYER_UNITS = {
    "greens.lu_solves": "count",
    "greens.apply_K_calls": "count",
    "greens.solves_per_apply": "ratio",
    "greens.apply_K_s": "s",
    "greens.lu_solve_s": "s",
    "greens.spectrum_s": "s",
    "greens.spectrum_iters": "count",
    "greens.factor_s": "s",
    "greens.lu_fill": "count",
    "operator.assemble_s": "s",
    "operator.nnz": "count",
    "geometry.build_grid_s": "s",
    "geometry.nodes": "count",
    "ranges.ratio_curve_calls": "count",
    "ranges.range_s": "s",
    "expr.eval_calls": "count",
    "expr.eval_s": "s",
    "nonlinearity.check_growth_calls": "count",
    "nonlinearity.growth_pass_ratio": "ratio",
    "nonlinearity.check_growth_s": "s",
    "nonlinearity.check_monotone_s": "s",
    "nonlinearity.nemytskii_calls": "count",
    "nonlinearity.nemytskii_s": "s",
    "fixedpoint.apply_T_calls": "count",
    "fixedpoint.iterations": "count",
    "fixedpoint.iterate_self_s": "s",
    "fixedpoint.subsolution_s": "s",
    "fixedpoint.certify_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "config.load_s": "s",
    "trace.overhead_s": "s",
}
# Printed in the report only: always 0 on disk-system, whose system path
# never builds the ratio curve (ranges.range_s covers the whole layer).
PER_LAYER_REPORTED = {"ranges.ratio_curve_s": "s"}

# Run in a fresh interpreter: time importing the CLI and loading the
# workload's config, the set-up every CLI invocation pays.
SETUP_CODE = ("import sys, time; start = time.perf_counter(); "
              "sys.path.insert(0, sys.argv[1]); import conesolve.cli as cli; "
              "cli.load_config(sys.argv[2]); "
              "print(time.perf_counter() - start)")


def load_workloads():
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


@dataclass
class Op:
    secs: float
    traced: bool
    exit_code: object            # int, or None when main() raised
    message: str
    failure: str | None          # None when the output check passed
    bytes_written: int
    op_id: int


def check_output(exit_code, out_dir, wl):
    """Return None if the op produced the workload's certified reference
    solution, otherwise the reason it did not."""
    if exit_code != 0:
        return f"exit {exit_code}"
    import numpy as np              # only after main() has capped BLAS
    try:
        fields = {}
        with open(os.path.join(out_dir, "certificate.txt"),
                  encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                fields[key.strip()] = value.strip()
        verdict = fields.get("verdict")
        residual = float(fields["residual |u - Tu|"].split()[0])
        table = np.loadtxt(os.path.join(out_dir, "solution.csv"),
                           delimiter=",", skiprows=1, ndmin=2)
    except (OSError, KeyError, IndexError, ValueError) as err:
        return f"unreadable artifacts: {err!r}"
    if verdict != "certified nonzero positive solution":
        return f"verdict {verdict!r}"
    if not residual <= wl["tol"]:
        return f"residual {residual:.3e} exceeds tol {wl['tol']:.1e}"
    if table.shape[0] != wl["N"]:
        return f"solution.csv has {table.shape[0]} rows, expected {wl['N']}"
    norm = float(np.abs(table[:, 2:]).max())
    if not abs(norm - wl["reference_norm"]) <= 10.0 * wl["tol"]:
        return (f"solution norm {norm!r} differs from reference "
                f"{wl['reference_norm']!r} by more than 10*tol")
    return None


def _dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def run_op(cli, argv, tracer=None, op_id=0):
    """One op: `cli.main(argv)` with stdout and stderr captured.  Returns
    (seconds, exit code or None, last line printed)."""
    captured = io.StringIO()
    exit_code = None
    with contextlib.redirect_stdout(captured), \
            contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            if tracer is None:
                exit_code = cli.main(argv)
            else:
                exit_code = tracer.run_op(op_id, cli.main, argv)
        except Exception as exc:    # an escaped exception is a failed op
            print(f"{type(exc).__name__}: {exc}")
        secs = time.perf_counter() - start
    lines = captured.getvalue().strip().splitlines()
    return secs, exit_code, lines[-1] if lines else ""


def op_argv(cfg_path, wl, seed):
    """Arguments of one op, without the trailing output directory."""
    return ["solve", "--config", cfg_path, "--h", repr(wl["h"]),
            "--seed", str(seed), "--csv", "--out"]


def load_loop(cli, wl, cfg_path, seed, seconds, work, tracer=None):
    """Closed loop with one client: ops start until `seconds` have passed,
    at least one.  With a tracer, ops alternate traced (the first) and
    untraced."""
    argv = op_argv(cfg_path, wl, seed)
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        op_id = len(ops)
        traced = tracer is not None and op_id % 2 == 0
        # A fresh output directory per op: on ext4, rewriting an existing
        # artifact costs 58-76 ms per file (the filesystem flushes on
        # truncate) against under 0.1 ms for a new file, so reusing --out
        # would make cli.self_s and solve_s measure the filesystem instead
        # of conesolve (a disk-system op went from 0.44 s to 0.9 s).
        out_dir = tempfile.mkdtemp(prefix="op-", dir=work)
        if traced:
            tracer.install()
        try:
            secs, code, message = run_op(cli, argv + [out_dir],
                                         tracer if traced else None, op_id)
        finally:
            if traced:
                tracer.restore()
        ops.append(Op(secs, traced, code, message,
                      check_output(code, out_dir, wl), _dir_bytes(out_dir),
                      op_id))
        shutil.rmtree(out_dir)
        # a CLI process never pays for collecting the previous op's garbage
        gc.collect()
    return ops


def measure_setup(src, cfg_path, env):
    """Set-up times of SETUP_SAMPLES fresh interpreters, after one warm-up
    that fills the bytecode cache."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, src, cfg_path]
    times = [float(subprocess.run(cmd, env=env, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(SETUP_SAMPLES + 1)]
    return times[1:]


def tail(times):
    """(percentile, value): the highest whole percentile whose nearest-rank
    value has at least TAIL_BEYOND samples above it; None if none has."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def end_to_end(ops, setup_times):
    """End-to-end metrics; solve_s and solve_s_tail are absent when no op
    certified, so a failure is never reported as a time."""
    certified = [op.secs for op in ops if op.failure is None]
    busy = sum(op.secs for op in ops)
    metrics = {
        # ops per second of time spent inside cli.main; failed ops add
        # time but no count
        "certified_per_s": len(certified) / busy,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    notes = {"setup_s": f"median of {len(setup_times)} fresh interpreters",
             "certified_per_s": f"{len(certified)} certified ops in "
                                f"{busy:.2f} s inside cli.main"}
    if certified:
        metrics["solve_s"] = statistics.median(certified)
        notes["solve_s"] = f"median of {len(certified)} certified ops"
        found = tail(certified)
        if found is not None:
            metrics["solve_s_tail"] = found[1]
            notes["solve_s_tail"] = (f"p{found[0]} of {len(certified)} "
                                     "certified ops")
    return metrics, notes


def per_layer(ops, tracer):
    """Median per-layer metrics over the traced ops, the tracing overhead,
    and whether the repeatable counters agree between all traced ops."""
    groups = tracing.spans_by_op(tracer.spans)
    notes = dict(tracer.ops)
    traced = [op for op in ops if op.traced]
    per_op = []
    for op in traced:
        m = tracing.op_metrics(tracer.spans, groups[op.op_id],
                               notes[op.op_id])
        m["cli.bytes_written"] = op.bytes_written
        per_op.append(m)
    metrics = tracing.median_metrics(per_op)
    plain = [op.secs for op in ops if not op.traced]
    if plain:
        metrics["trace.overhead_s"] = (
            statistics.median(op.secs for op in traced)
            - statistics.median(plain))
    signatures = {tuple(m[k] for k in tracing.REPEATABLE_COUNTERS)
                  for m in per_op}
    return metrics, len(signatures) == 1


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(metrics, units, notes):
    """Print each metric of `units`, with its unit and how it was taken."""
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:34s} {_fmt(metrics[name]):>12s} {unit:6s} "
                  f"{notes.get(name, '')}")
        else:
            print(f"  {name:34s} {'absent':>12s}")


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "conesolve", "cli.py")):
        print(f"error: {root} is not the root of a conesolve checkout "
              "(no src/conesolve/cli.py)", file=sys.stderr)
        return EXIT_NOT_A_CHECKOUT
    for var in BLAS_VARS:           # before numpy loads BLAS
        os.environ[var] = "1"
    sys.path.insert(0, src)
    modules = tracing.conesolve_modules()
    if not modules["cli"].__file__.startswith(src + os.sep):
        print(f"error: imported conesolve from {modules['cli'].__file__}, "
              f"not from {src}", file=sys.stderr)
        return EXIT_NOT_A_CHECKOUT
    cli = modules["cli"]

    wl = workloads[args.workload]
    seed = args.seed % 2 ** 32      # the sampling seed must be nonnegative
    os.makedirs(os.path.join(root, OUTPUT_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUTPUT_DIR))
    try:
        cfg_path = os.path.join(work, f"{args.workload}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(wl["config_text"])
        setup_times = (None if args.trace else
                       measure_setup(src, cfg_path, dict(os.environ)))
        # warm-up: lazy imports and first-call caches, not timed
        run_op(cli, op_argv(cfg_path, wl, seed)
               + [tempfile.mkdtemp(prefix="warmup-", dir=work)])
        tracer = tracing.Tracer(modules) if args.trace else None
        ops = load_loop(cli, wl, cfg_path, seed, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op.failure is not None]
    print(f"workload {args.workload}  seed {seed}  h {wl['h']}  N {wl['N']}  "
          "closed loop, 1 client")
    print(f"ops attempted {len(ops)}  certified {len(ops) - len(failed)}  "
          f"fail_frac {len(failed) / len(ops):.6g}")
    reasons = Counter((op.failure, op.message) for op in failed)
    for (failure, message), count in reasons.items():
        print(f"  failed x{count}: {failure}: {message}")

    correct = not failed
    if args.trace:
        metrics, repeat = per_layer(ops, tracer)
        if not repeat:
            correct = False
            print("error: counters differ between traced ops with one seed")
        for name, value in wl["counters_at_definition"].items():
            if metrics[name] != value:
                print(f"note: {name} = {metrics[name]}, was {value} when "
                      "the benchmark was defined")
        units, reported = PER_LAYER_UNITS, PER_LAYER_REPORTED
        notes = {"trace.overhead_s": "traced minus untraced median op time"}
        tracer.write(os.path.join(root, OUTPUT_DIR,
                                  f"spans-{args.workload}.jsonl"))
    else:
        metrics, notes = end_to_end(ops, setup_times)
        units, reported = END_TO_END_UNITS, END_TO_END_REPORTED
    report(metrics, {**units, **reported}, notes)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

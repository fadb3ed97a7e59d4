"""Per-layer tracing of `conesolve solve`, done from outside the program.

The tracer replaces the public functions of each layer at the names their
callers bind (for example both `greens.apply_K` and `fixedpoint.apply_K`)
with wrappers that record a span: name, start, end, parent span and op id.
Spans stay in memory until the run ends.  `restore()` puts every original
function back; an untraced run never calls `install()`.

LU triangular solves are counted through the object that
`DiscreteOperator.factorization()` returns: the traced factorization hands
out a proxy whose `solve` records a span and delegates to the real SuperLU.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter

# Counters that must repeat exactly between ops run with one seed.
REPEATABLE_COUNTERS = (
    "greens.lu_solves", "greens.apply_K_calls", "fixedpoint.apply_T_calls",
    "fixedpoint.iterations", "expr.eval_calls", "operator.nnz",
    "greens.lu_fill",
)

OP_SPAN = "op"


def conesolve_modules():
    """The conesolve modules whose functions the tracer wraps, by name."""
    from conesolve import cli, expr, fixedpoint, greens, operator, ranges
    return {"cli": cli, "expr": expr, "fixedpoint": fixedpoint,
            "greens": greens, "operator": operator, "ranges": ranges}


def targets(modules):
    """Return [(owner, attribute, span name, on_return)] for every function
    the tracer wraps; `modules` is what `conesolve_modules()` returns."""
    cli, greens, fixedpoint, ranges, expr = (
        modules[k] for k in ("cli", "greens", "fixedpoint", "ranges", "expr"))
    return [
        (cli, "cmd_solve", "cli.solve", None),
        (cli, "load_config", "config.load", None),
        (cli, "build_grid", "geometry.build_grid",
         lambda t, grid: t.note("geometry.nodes",
                                int(grid.interior_count))),
        (cli, "assemble", "operator.assemble",
         lambda t, op: t.note("operator.nnz", int(op.matrix.nnz))),
        (cli, "k_one_norm", "greens.k_one_norm", None),
        (cli, "spectral_radius", "greens.spectrum",
         lambda t, est: t.note("greens.spectrum_iters",
                               int(est.iterations))),
        (greens, "apply_K", "greens.apply_K", None),
        (fixedpoint, "apply_K", "greens.apply_K", None),
        (cli, "check_monotone", "nonlinearity.check_monotone", None),
        (cli, "check_growth", "nonlinearity.check_growth",
         lambda t, rep: t.add("nonlinearity.growth_passes",
                              int(rep.passed))),
        (fixedpoint, "nemytskii_apply", "nonlinearity.nemytskii", None),
        (cli, "system_ranges", "ranges.range", None),
        (cli, "single_range", "ranges.range", None),
        (cli, "ratio_curve", "ranges.ratio_curve", None),
        (ranges, "ratio_curve", "ranges.ratio_curve", None),
        (expr, "eval_on_arrays", "expr.eval", None),
        (expr, "eval_expr", "expr.eval", None),
        (fixedpoint, "apply_T", "fixedpoint.apply_T", None),
        (cli, "check_supersolution", "fixedpoint.supersolution", None),
        (cli, "construct_subsolution", "fixedpoint.subsolution", None),
        (cli, "monotone_iterate", "fixedpoint.iterate",
         lambda t, rep: t.add("fixedpoint.iterations",
                              int(rep.iterations))),
        (cli, "certify", "fixedpoint.certify", None),
    ]


class _CountingLU:
    """Stands in for a SuperLU object: `solve` is traced, the rest is
    delegated unchanged."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("greens.lu_solve", self._lu.solve,
                                 args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counters of the traced ops of one run (single-threaded)."""

    def __init__(self, modules):
        self.modules = modules   # what conesolve_modules() returns
        self.spans = []          # [name, start, end, parent index, op id]
        self.ops = []            # per-op notes, in op order
        self._notes = Counter()
        self._stack = []
        self._op_id = None
        self._lus = []
        self._saved = []

    # -- installing and removing the wrappers -----------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, on_return in targets(self.modules):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, on_return))
        op_cls = self.modules["operator"].DiscreteOperator
        original = op_cls.__dict__["factorization"]
        self._saved.append((op_cls, "factorization", original))
        setattr(op_cls, "factorization", self._wrap_factorization(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, on_return):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if on_return is not None:
                on_return(self, result)
            return result
        return traced

    def _wrap_factorization(self, fn):
        @functools.wraps(fn)
        def factorization(op):
            lu = self.call("greens.factorization", fn, (op,), {})
            if not any(lu is seen for seen in self._lus):
                self._lus.append(lu)
                self.add("greens.lu_fill", int(lu.L.nnz + lu.U.nnz))
            return _CountingLU(self, lu)
        return factorization

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self._op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._notes[name + ".calls"] += 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def note(self, key, value):
        self._notes[key] = value

    def add(self, key, value):
        self._notes[key] += value

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span; its notes are kept in `ops`."""
        self._op_id = op_id
        self._notes = Counter()
        try:
            return self.call(OP_SPAN, fn, args, {})
        finally:
            self.ops.append((op_id, self._notes))
            self._op_id = None
            self._lus = []          # do not keep the op's LU alive

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def spans_by_op(spans):
    """Map op id -> indices of its spans in `spans`."""
    groups = {}
    for k, span in enumerate(spans):
        groups.setdefault(span[4], []).append(k)
    return groups


def op_metrics(spans, indices, notes):
    """Per-layer metrics of one traced op, derived from its spans (given by
    their `indices` in `spans`) and the op's notes."""
    child_time = Counter()
    for k in indices:
        parent = spans[k][3]
        if parent >= 0:
            child_time[parent] += spans[k][2] - spans[k][1]

    def inclusive(prefix):
        # only spans whose caller lies outside the layer, so that nested
        # calls are not counted twice
        total = 0.0
        for k in indices:
            name, start, end, parent, _ = spans[k]
            if name.startswith(prefix) and not (
                    parent >= 0 and spans[parent][0].startswith(prefix)):
                total += end - start
        return total

    def self_time(name):
        return sum(spans[k][2] - spans[k][1] - child_time[k]
                   for k in indices if spans[k][0] == name)

    def calls(name):
        return notes[name + ".calls"]

    lu_solves = calls("greens.lu_solve")
    apply_k = calls("greens.apply_K")
    growth = calls("nonlinearity.check_growth")
    return {
        "greens.lu_solves": lu_solves,
        "greens.apply_K_calls": apply_k,
        "greens.solves_per_apply": lu_solves / apply_k if apply_k else 0.0,
        "greens.apply_K_s": inclusive("greens.apply_K"),
        "greens.lu_solve_s": inclusive("greens.lu_solve"),
        "greens.spectrum_s": inclusive("greens.spectrum"),
        "greens.spectrum_iters": notes["greens.spectrum_iters"],
        "greens.factor_s": inclusive("greens.factorization"),
        "greens.lu_fill": notes["greens.lu_fill"],
        "operator.assemble_s": inclusive("operator.assemble"),
        "operator.nnz": notes["operator.nnz"],
        "geometry.build_grid_s": inclusive("geometry.build_grid"),
        "geometry.nodes": notes["geometry.nodes"],
        "ranges.ratio_curve_calls": calls("ranges.ratio_curve"),
        "ranges.ratio_curve_s": inclusive("ranges.ratio_curve"),
        "ranges.range_s": inclusive("ranges."),
        "expr.eval_calls": calls("expr.eval"),
        "expr.eval_s": inclusive("expr.eval"),
        "nonlinearity.check_growth_calls": growth,
        "nonlinearity.growth_pass_ratio":
            notes["nonlinearity.growth_passes"] / growth if growth else 0.0,
        "nonlinearity.check_growth_s": inclusive("nonlinearity.check_growth"),
        "nonlinearity.check_monotone_s":
            inclusive("nonlinearity.check_monotone"),
        "nonlinearity.nemytskii_calls": calls("nonlinearity.nemytskii"),
        "nonlinearity.nemytskii_s": inclusive("nonlinearity.nemytskii"),
        "fixedpoint.apply_T_calls": calls("fixedpoint.apply_T"),
        "fixedpoint.iterations": notes["fixedpoint.iterations"],
        "fixedpoint.iterate_self_s": self_time("fixedpoint.iterate"),
        "fixedpoint.subsolution_s": inclusive("fixedpoint.subsolution"),
        "fixedpoint.certify_s": inclusive("fixedpoint.certify"),
        "cli.self_s": self_time("cli.solve"),
        "config.load_s": inclusive("config.load"),
    }


def median_metrics(per_op):
    """Median over ops of each per-layer metric; counts stay integers."""
    out = {}
    for key in per_op[0]:
        values = [m[key] for m in per_op]
        if all(isinstance(v, int) for v in values):
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out

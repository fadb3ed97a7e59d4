"""The lattice-symmetry fold: `solve` on the orbits of the symmetry group
of the assembled operator agrees with `solve` on every node, the fold is
skipped or narrowed when the problem breaks a symmetry, and the shipped
disk configs keep folding."""

import contextlib
import io
from importlib.resources import files

import numpy as np
import pytest
import scipy.sparse as sp

from conesolve import cli, k_one_norm
from conesolve.config import parse_config
from conesolve.operator import LATTICE_MAPS
from test_config_cli import ROBIN_CFG

CONFIGS = files("conesolve") / "configs"
SYSTEM_DISK = (CONFIGS / "system_disk.cfg").read_text()
SCALAR_DISK = (CONFIGS / "scalar_disk.cfg").read_text()
ALL_MAPS = tuple(name for name, *_ in LATTICE_MAPS)
SYSTEM_F1 = 'f1 = "sqrt(max(u1,u2)) + tan(max(u1,u2))"'

CENTRED_SQUARE = SCALAR_DISK.replace("domain = unitdisk",
                                     "domain = rectangle -1 1 -1 1")


def _solve(tmp_path, name, text, h, fold=True):
    """Run `solve --csv` on a config text at mesh step h, with the fold as
    shipped or switched off; return the exit code, the pipeline, the
    assembled (unfolded) operator, the iteration report and stdout."""
    seen = {}

    def keep(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] = fn(*args, **kwargs)
            return seen[key]
        return wrapper

    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        for key in ("build_pipeline", "assemble", "monotone_iterate"):
            patch.setattr(cli, key, keep(key, getattr(cli, key)))
        if not fold:
            patch.setattr(cli, "fold", lambda op: op)
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", "--config", str(path), "--h", str(h),
                             "--out", str(tmp_path / f"{name}-out"),
                             "--csv"])
    return (code, seen["build_pipeline"], seen["assemble"],
            seen["monotone_iterate"], out.getvalue())


def _assert_limits_match_unfolded(tmp_path, name, text, h):
    """Solve with and without the fold; both limits must agree within tol
    once unfolded.  Returns the folded run."""
    run = _solve(tmp_path, name, text, h)
    full = _solve(tmp_path, name + "-full", text, h, fold=False)
    assert run[0] == full[0] == 0
    pipe, report = run[1], run[3]
    tol = pipe.cfg.tol
    for half in ("upper", "lower"):
        folded = pipe.unfold(getattr(report, half).solution)
        assert np.abs(folded - getattr(full[3], half).solution).max() <= tol
    return run


def _orbit_map(pipe):
    """E, the 0/1 map from the nodes of the full grid to their orbits, and
    the node index of each orbit's representative."""
    grid, orbit_ids = pipe.grid, pipe.op.grid.interior_ids
    i, j = grid.nodes.T
    orbit = orbit_ids[j, i]
    e = sp.csr_matrix((np.ones(orbit.size), (np.arange(orbit.size), orbit)),
                      shape=(orbit.size, pipe.op.grid.interior_count))
    ri, rj = pipe.op.grid.nodes.T
    return e, grid.interior_ids[rj, ri]


def test_folded_system_disk_matches_the_full_operator(tmp_path):
    _, pipe, full_op, _, printed = _assert_limits_match_unfolded(
        tmp_path, "system_disk", SYSTEM_DISK, 1 / 32)
    assert pipe.op.symmetry == ALL_MAPS
    assert ("lattice symmetry: D4 (all 8 maps): solving on 428 orbits of "
            "3205 nodes") in printed.splitlines()

    k1 = k_one_norm(full_op)[0]
    assert np.abs(pipe.unfold(k_one_norm(pipe.op)[0]) - k1).max() <= 1e-13
    mu1 = cli.spectral_radius(full_op).mu1
    assert pipe.spectrum.mu1 == pytest.approx(mu1, rel=1e-12)

    a, a_f = full_op.matrix, pipe.op.matrix
    e, reps = _orbit_map(pipe)
    assert (a @ e != e @ a_f).nnz == 0
    off = a_f - sp.diags(a_f.diagonal())
    assert np.all(a_f.diagonal() > 0) and off.max() <= 0
    assert np.array_equal(a_f.diagonal(), a.diagonal()[reps])
    row_sums = np.asarray(a.sum(axis=1)).ravel()[reps]
    assert np.asarray(a_f.sum(axis=1)).ravel() == pytest.approx(
        row_sums, rel=1e-14, abs=1e-14 * full_op.norm_inf)

    # the tables keep every node, in order, with the same coordinate text
    for table in ("solution.csv", "solution_lower.csv"):
        rows = [[line.split(",") for line in
                 (tmp_path / f"{name}-out" / table).read_text().splitlines()]
                for name in ("system_disk", "system_disk-full")]
        assert len(rows[0]) == len(rows[1]) == 1 + 3205
        assert [r[:2] for r in rows[0]] == [r[:2] for r in rows[1]]
        values = [np.array([r[2:] for r in t[1:]], dtype=float) for t in rows]
        assert np.abs(values[0] - values[1]).max() <= pipe.cfg.tol


# config text and the lattice maps folded out, per case
BREAKING = {
    "f1 reads x1": (SYSTEM_DISK.replace(
        SYSTEM_F1, 'f1 = "sqrt(max(u1,u2)) + tan(max(u1,u2)) '
                   '+ 0.01*(1 + x1)*u1"'), ()),
    "rect-robin": (ROBIN_CFG, ()),
    "disk b1 = 0.5": (SYSTEM_DISK + 'b1 = "0.5"\n', ("j -> ny-1-j",)),
    "centred square": (CENTRED_SQUARE, ALL_MAPS),
}


@pytest.mark.parametrize("case", list(BREAKING))
def test_symmetry_breaking_narrows_the_fold(tmp_path, case):
    text, maps = BREAKING[case]
    name = case.replace(" ", "_")
    _, pipe, full_op, _, printed = _assert_limits_match_unfolded(
        tmp_path, name, text, 1 / 16)
    assert pipe.op.symmetry == maps
    if not maps:
        assert pipe.op is full_op
        assert f"no lattice symmetry: solving on all " \
               f"{pipe.grid.interior_count} nodes" in printed.splitlines()
    else:
        e, _ = _orbit_map(pipe)
        assert (full_op.matrix @ e != e @ pipe.op.matrix).nnz == 0


def test_x_dependent_f_is_not_folded_even_on_a_symmetric_operator():
    text = SYSTEM_DISK.replace(SYSTEM_F1, 'f1 = "x1^2 + u1"')
    pipe = cli.build_pipeline(parse_config(text.replace(
        "h = 0.015625", "h = 0.0625")))
    assert pipe.op.symmetry == () and pipe.op.grid is pipe.grid


@pytest.mark.parametrize("text", [SYSTEM_DISK, SCALAR_DISK],
                         ids=["system_disk", "scalar_disk"])
def test_shipped_disk_configs_fold_to_1661_orbits(text):
    # a change to the assembly that breaks bitwise invariance under the
    # lattice maps (or A E == E A_f) fails here instead of silently
    # solving on all nodes again
    pipe = cli.build_pipeline(parse_config(text))
    assert pipe.cfg.h == 1 / 64
    assert pipe.grid.interior_count == 12_849
    assert pipe.op.grid.interior_count == 1_661
    assert pipe.op.symmetry == ALL_MAPS


@pytest.mark.parametrize("command, line", [
    ("lambda-range", 0), ("spectrum", 0), ("solve", 1)])
def test_every_command_names_its_symmetry(tmp_path, capsys, command, line):
    path = tmp_path / "system.cfg"
    path.write_text(SYSTEM_DISK)
    assert cli.main([command, "--config", str(path), "--h", "0.0625",
                     "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[line] == ("lattice symmetry: D4 (all 8 maps): solving on "
                             "113 orbits of 793 nodes")

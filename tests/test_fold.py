"""The lattice-symmetry fold: `solve` on the orbits of the symmetry group
of the assembled operator agrees with `solve` on every node, the fold is
skipped or narrowed when the problem breaks a symmetry, and the shipped
disk configs keep folding."""

import contextlib
import io
from importlib.resources import files
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conesolve import (Dirichlet, EllipticCoefficients, Neumann, Rectangle,
                       Robin, UnitDisk, build_grid, cli, k_one_norm,
                       operator)
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
    shipped or switched off; return the exit code, the Prepared, the
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
        for key in ("prepare", "assemble", "monotone_iterate"):
            patch.setattr(cli, key, keep(key, getattr(cli, key)))
        if not fold:
            patch.setattr(cli, "fold", lambda op: op)
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", "--config", str(path), "--h", str(h),
                             "--out", str(tmp_path / f"{name}-out"),
                             "--csv"])
    return (code, seen["prepare"], seen["assemble"],
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


def _reference_fold(op):
    """The symmetry, the lattice-to-orbit map and the folded matrix found
    on the CSR matrix A: every lattice map is tested with
    A[g][:, g] == A, the orbits are ranked by np.unique, and A_f is
    (A @ E)[reps], or None when A E == E A_f fails or nothing folds."""
    grid, a = op.grid, op.matrix
    names, images = [], [np.arange(grid.interior_count)]
    for name, swap, flip_i, flip_j in LATTICE_MAPS:
        if swap and grid.nx != grid.ny:
            continue
        image = operator._node_map(grid, swap, flip_i, flip_j)
        if image is not None and (a[image][:, image] != a).nnz == 0:
            names.append(name)
            images.append(image)
    reps, orbit = np.unique(np.min(images, axis=0), return_inverse=True)
    ids = grid.interior_ids
    e = sp.csr_matrix((np.ones(orbit.size), (np.arange(orbit.size), orbit)),
                      shape=(orbit.size, reps.size))
    ae = a @ e
    folded = ae[reps]
    if not names or (ae != folded[orbit]).nnz:
        folded = None
    return tuple(names), np.where(ids >= 0, orbit[ids], -1), folded


# config text, the lattice maps folded out and the invariance tests fold
# makes, per case; the antitranspose is generated by the half turn and
# the transpose when a12 != 0
CLOSURE = {
    "shipped disk": (SYSTEM_DISK, ALL_MAPS, 3),
    "disk b1 = 0.5": (SYSTEM_DISK + 'b1 = "0.5"\n', ("j -> ny-1-j",), 7),
    "disk a12 = 0.3": (SYSTEM_DISK + 'a12 = "0.3"\n',
                       ("half turn", "transpose", "antitranspose"), 6),
    "centred square": (CENTRED_SQUARE, ALL_MAPS, 3),
    # boundary rows reach eliminated Neumann / Robin values
    "centred square, robin": (CENTRED_SQUARE.replace(
        "bc = dirichlet", 'bc = robin "1"'), ALL_MAPS, 3),
    "centred square, neumann": (CENTRED_SQUARE.replace(
        "bc = dirichlet", "bc = neumann") + 'c = "1"\n', ALL_MAPS, 3),
}


@pytest.mark.parametrize("case", list(CLOSURE))
def test_fold_tests_only_the_maps_not_yet_generated(case):
    text, maps, tests = CLOSURE[case]
    cfg = parse_config(text)
    grid = cli.build_grid(cfg.domain, cfg.h)
    op = cli.assemble(grid, cfg.coefficients, cfg.bc)
    tested = []
    keeps = operator._keeps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operator, "_keeps",
                      lambda *args: tested.append(args) or keeps(*args))
        folded = operator.fold(op)
    names, orbit_ids, a_f = _reference_fold(op)
    assert folded.symmetry == names == maps
    assert np.array_equal(folded.grid.interior_ids, orbit_ids)
    assert_same_csr(folded.matrix, a_f)
    assert len(tested) == tests
    # the folded table keeps the assembled layout: slot s of row k holds
    # the orbit of the node at SLOT_OFFSETS[s] from k's representative
    values, columns = folded.stencil
    i, j = folded.grid.nodes.T
    for s, (di, dj) in enumerate(operator.SLOT_OFFSETS):
        stored = values[:, s] != 0
        assert np.array_equal(columns[stored, s],
                              orbit_ids[j + dj, i + di][stored])


def assert_same_csr(a, b):
    """a and b hold the same entries, bits included, and the same CSC
    arrays, which are what the LU factors."""
    assert a.shape == b.shape
    for x, y in ((a.sorted_indices(), b.sorted_indices()),
                 (a.tocsc(), b.tocsc())):
        assert np.array_equal(x.indptr, y.indptr)
        assert np.array_equal(x.indices, y.indices)
        assert np.array_equal(x.data.view(np.int64), y.data.view(np.int64))


def _coefficient(kind):
    """A coefficient function of (x1, x2) by name: constants, and terms
    that keep or break some lattice symmetries of a centred domain."""
    return {
        "0": lambda x, y: 0.0 * x,
        "0.3": lambda x, y: 0.3 + 0.0 * x,
        "0.123": lambda x, y: 0.123 + 0.0 * x,
        "1.3": lambda x, y: 1.3 + 0.0 * x,
        "-0.5": lambda x, y: -0.5 + 0.0 * x,
        "1": lambda x, y: 1.0 + 0.0 * x,
        "2 + x1^2 + x2^2": lambda x, y: 2.0 + x * x + y * y,
        "1 + x1^2": lambda x, y: 1.0 + x * x,
        "1 + 0.5*x1": lambda x, y: 1.0 + 0.5 * x,
        "0.3*x1*x2": lambda x, y: 0.3 * x * y,
        "x1": lambda x, y: x + 0.0 * y,
        "x2^2": lambda x, y: y * y + 0.0 * x,
    }[kind]


@st.composite
def fold_cases(draw):
    """A domain, a mesh step, coefficients and a boundary condition."""
    domain = draw(st.sampled_from([
        UnitDisk(), UnitDisk(), Rectangle(-1, 1, -1, 1),
        Rectangle(-1, 1, -1, 1), Rectangle(0, 1, 0, 1),
        Rectangle(-1.5, 1.5, -1, 1), Rectangle(-1, 1, -0.5, 0.5)]))
    h = draw(st.sampled_from([1 / 4, 0.2, 1 / 8, 0.1]))
    even = ["1", "1", "2 + x1^2 + x2^2", "1 + x1^2"]
    a11 = draw(st.sampled_from(even + ["1 + 0.5*x1"]))
    a22 = draw(st.sampled_from(even))
    a12 = draw(st.sampled_from(["0", "0", "0.3", "0.123", "0.3*x1*x2"]))
    b1 = draw(st.sampled_from(["0", "0", "0", "0.3", "-0.5", "x1"]))
    b2 = draw(st.sampled_from(["0", "0", "0", "0.3", "-0.5"]))
    c = draw(st.sampled_from(["0", "1", "1", "x2^2"]))
    bc = Dirichlet()
    if isinstance(domain, Rectangle):
        bc = draw(st.sampled_from([
            Dirichlet(), Neumann(), Robin(_coefficient("1")),
            Robin(_coefficient("1.3")), Robin(_coefficient("1 + x1^2"))]))
        if isinstance(bc, Neumann):
            c = "1"
    coeffs = EllipticCoefficients(*(_coefficient(k) for k in
                                    (a11, a12, a22, b1, b2, c)))
    return domain, h, coeffs, bc


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fold_cases())
# invariant under the half turn and both transposes, yet A E != E A_f
# bitwise, so the fold falls back to the full operator
@example((Rectangle(-1, 1, -1, 1), 1 / 4, EllipticCoefficients(
    *(_coefficient(k) for k in ("1", "0.123", "1", "0", "0", "0"))),
    Robin(_coefficient("1.3"))))
def test_slot_table_fold_matches_the_sparse_reference(case):
    domain, h, coeffs, bc = case
    op = operator.assemble(build_grid(domain, h), coeffs, bc)
    folded = operator.fold(op)
    names, orbit_ids, a_f = _reference_fold(op)
    if a_f is None:
        assert folded is op
        return
    assert folded.symmetry == names
    assert np.array_equal(folded.grid.interior_ids, orbit_ids)
    assert_same_csr(folded.matrix, a_f)


def test_x_dependent_f_is_not_folded_even_on_a_symmetric_operator():
    text = SYSTEM_DISK.replace(SYSTEM_F1, 'f1 = "x1^2 + u1"')
    pipe = cli.prepare(parse_config(text.replace(
        "h = 0.015625", "h = 0.0625")), "spectrum")
    assert pipe.op.symmetry == () and pipe.op.grid is pipe.grid


@pytest.mark.parametrize("text", [SYSTEM_DISK, SCALAR_DISK],
                         ids=["system_disk", "scalar_disk"])
def test_shipped_disk_configs_fold_to_1661_orbits(text):
    # a change to the assembly that breaks bitwise invariance under the
    # lattice maps (or A E == E A_f) fails here instead of silently
    # solving on all nodes again
    pipe = cli.prepare(parse_config(text), "spectrum")
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


# the lattice maps other than the identity that a group holds, in the
# order of LATTICE_MAPS, and the name of the group
GROUPS = [
    (ALL_MAPS, "D4"),
    (("half turn", "quarter turn", "three-quarter turn"), "C4"),
    (("i -> nx-1-i", "j -> ny-1-j", "half turn"), "D2"),
    (("half turn", "transpose", "antitranspose"), "D2"),
    (("half turn",), "C2"),
    (("i -> nx-1-i",), "D1"),
    (("j -> ny-1-j",), "D1"),
    (("transpose",), "D1"),
    (("antitranspose",), "D1"),
]


@pytest.mark.parametrize("maps, group", GROUPS)
def test_the_symmetry_line_names_the_group(maps, group):
    op = SimpleNamespace(symmetry=maps,
                         grid=SimpleNamespace(interior_count=7))
    pipe = cli.Prepared(None, SimpleNamespace(interior_count=50), op, 0.0,
                        None)
    which = "all 8 maps" if group == "D4" else ", ".join(maps)
    assert pipe.symmetry_text() == (f"lattice symmetry: {group} ({which}): "
                                    "solving on 7 orbits of 50 nodes")


def test_a_single_mirror_is_named_d1(tmp_path, capsys):
    path = tmp_path / "system.cfg"
    path.write_text(SYSTEM_DISK + 'b1 = "0.5"\n')
    assert cli.main(["lambda-range", "--config", str(path), "--h",
                     "0.0625"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "lattice symmetry: D1 (j -> ny-1-j): solving on 412 orbits of 793 "
        "nodes")


@pytest.mark.parametrize("name, h, full_builds", [
    ("system_disk", 1 / 64, 0),       # folded on D4
    ("rect-robin", 1 / 32, 1),        # f1 reads x: unfolded
])
def test_the_full_csr_is_built_only_when_read(tmp_path, name, h,
                                              full_builds):
    """A folded solve reads only the folded operator's CSR and never
    builds the full one; an unfolded solve builds its CSR once, however
    often the LU and the refinement read it."""
    real, shapes = sp.csr_matrix, []

    def spy(*args, **kwargs):
        matrix = real(*args, **kwargs)
        shapes.append(matrix.shape)
        return matrix

    text = {"system_disk": SYSTEM_DISK, "rect-robin": ROBIN_CFG}[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operator.sp, "csr_matrix", spy)
        code, pipe, full_op, _, _ = _solve(tmp_path, name, text, h)
    assert code == 0
    n, n_f = full_op.grid.interior_count, pipe.op.grid.interior_count
    assert (n_f < n) == (full_builds == 0)
    assert shapes.count((n, n)) == full_builds
    assert shapes.count((n_f, n_f)) == 1

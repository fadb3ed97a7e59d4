"""End-to-end `solve --csv` runs of the two shipped configs and the
rect-robin problem: the monotone engine's step and Anderson counts, its
least-squares candidates against an np.linalg.lstsq reference, and the
solution tables against a per-row %.17g writer.  The eigenfunction
table, the text helpers and the chunked writer are held to the same
writer."""

from importlib.resources import files

import numpy as np
import pytest

from conesolve import UnitDisk, build_grid, cli
from conesolve.config import parse_config
from conesolve.fixedpoint import ANDERSON_M, _Anderson
from test_config_cli import ROBIN_CFG

CONFIGS = {
    "system_disk": (files("conesolve") / "configs"
                    / "system_disk.cfg").read_text(),
    "scalar_disk": (files("conesolve") / "configs"
                    / "scalar_disk.cfg").read_text(),
    "rect_robin": ROBIN_CFG,
}

# (steps, (accepted, proposed) from above, (accepted, proposed) from below)
COUNTS = {
    "system_disk": (23, (2, 7), (8, 12)),
    "scalar_disk": (12, (11, 11), (6, 8)),
    "rect_robin": (16, (8, 11), (6, 9)),
}


def lstsq_gap(proposer, w):
    """How far the candidate w lies from the one np.linalg.lstsq builds
    from the ring buffers (oldest difference first), relative to the size
    of its terms, max(|g|, |dG| |gamma|).  Early on the lower half
    g - dG gamma cancels to 1e-3 of that size, and there two LAPACK
    least-squares drivers (gelsd and gelsy) differ by 1e-12 of |w|."""
    order = [(proposer.oldest + j) % ANDERSON_M
             for j in range(proposer.count)]
    dg = proposer.dg[order].T
    gamma = np.linalg.lstsq(proposer.df[order].T, proposer.f,
                            rcond=None)[0]
    scale = max(np.abs(proposer.g).max(), (np.abs(dg) @ np.abs(gamma)).max())
    return float(np.abs(w - (proposer.g - dg @ gamma)).max() / scale)


def per_row_csv(header, columns):
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per config: the iteration report, the (relative gap to lstsq, ring
    wrapped) pair of every candidate, the output directory, the limits
    unfolded onto every node as {table: u}, and the grid."""
    out = {}
    patch = pytest.MonkeyPatch()
    propose = _Anderson.candidate
    iterate = cli.monotone_iterate
    for name, text in CONFIGS.items():
        gaps, reports = [], []

        def checked(self):
            w = propose(self)
            if w is not None:
                gaps.append((lstsq_gap(self, w),
                             self.oldest != 0))
            return w

        def recorded(*args, **kwargs):
            reports.append(iterate(*args, **kwargs))
            return reports[-1]

        patch.setattr(_Anderson, "candidate", checked)
        patch.setattr(cli, "monotone_iterate", recorded)
        tmp = tmp_path_factory.mktemp(name)
        (tmp / "problem.cfg").write_text(text)
        code = cli.main(["solve", "--config", str(tmp / "problem.cfg"),
                         "--seed", "7", "--out", str(tmp / "out"), "--csv"])
        assert code == 0
        pipe = cli.build_pipeline(parse_config(text))
        report = reports[-1]
        limits = {"solution_lower.csv": pipe.unfold(report.lower.solution),
                  "solution.csv": pipe.unfold(report.upper.solution)}
        out[name] = (report, gaps, tmp / "out", limits, pipe.grid)
    patch.undo()
    return out


@pytest.mark.parametrize("name", list(CONFIGS))
def test_step_and_anderson_counts_are_pinned(runs, name):
    report = runs[name][0]
    steps, upper, lower = COUNTS[name]
    assert report.iterations == steps
    assert (report.upper.accepted, report.upper.proposed) == upper
    assert (report.lower.accepted, report.lower.proposed) == lower


@pytest.mark.parametrize("name", list(CONFIGS))
def test_qr_candidates_match_lstsq(runs, name):
    gaps = runs[name][1]
    assert len(gaps) == COUNTS[name][1][1] + COUNTS[name][2][1]
    assert max(gap for gap, _ in gaps) <= 1e-12
    if name == "system_disk":
        assert any(wrapped for _, wrapped in gaps)


def test_qr_candidate_on_a_rank_deficient_history():
    rng = np.random.default_rng(3)
    size = 2 * 500
    f, g = rng.standard_normal(size), rng.standard_normal(size)
    proposer = _Anderson(f, g, np.empty((ANDERSON_M + 1, size)))
    d, e = rng.standard_normal((2, size))
    p, q = rng.standard_normal((2, size))
    # differences d, e, d and 0 in dF, with p, q, p and 0 in dG
    for df, dg in ((d, p), (e, q), (d, p), (0.0, 0.0)):
        f, g = f + df, g + dg
        proposer.push(f, g)
    proposer.f = f + rng.standard_normal(size)
    w = proposer.candidate()
    assert lstsq_gap(proposer, w) <= 1e-12
    # two more differences wrap the ring past the first d
    for _ in range(2):
        f, g = f + rng.standard_normal(size), g + rng.standard_normal(size)
        proposer.push(f, g)
    assert proposer.oldest != 0
    w = proposer.candidate()
    assert lstsq_gap(proposer, w) <= 1e-12


@pytest.mark.parametrize("name", list(CONFIGS))
def test_solution_tables_match_a_per_row_writer(runs, name):
    _, _, out_dir, limits, grid = runs[name]
    for table, u in limits.items():
        header = ["x1", "x2"] + [f"u{i + 1}" for i in range(len(u))]
        written = (out_dir / table).read_bytes()
        assert written == per_row_csv(header,
                                      [grid.xs, grid.ys, *u]).encode()


def test_text_columns_match_a_per_row_writer(tmp_path):
    values = np.array([0.0, -0.0, 5e-324, 1e22, -1e-300, 0.1, -0.0, 1e22,
                       -5e-324, 0.0])
    path = tmp_path / "table.csv"
    cli._write_csv(path, ["x", "v"], [cli._text_column(values), values])
    assert path.read_text() == per_row_csv(["x", "v"], [values, values])
    grid = build_grid(UnitDisk(), 1 / 8)
    x1, x2 = cli._coordinate_text(grid)
    cli._write_csv(path, ["x1", "x2"], [x1, x2])
    assert path.read_text() == per_row_csv(["x1", "x2"], [grid.xs, grid.ys])


@pytest.mark.parametrize("name, h", [("system_disk", "0.03125"),
                                     ("rect_robin", None)])
def test_eigenfunction_table_matches_a_per_row_writer(tmp_path, name, h):
    pipes = []
    build = cli.build_pipeline
    path = tmp_path / "problem.cfg"
    path.write_text(CONFIGS[name])
    argv = ["spectrum", "--config", str(path), "--out", str(tmp_path),
            "--csv"] + (["--h", h] if h else [])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_pipeline",
                      lambda cfg: pipes.append(build(cfg)) or pipes[-1])
        assert cli.main(argv) == 0
    pipe = pipes[-1]
    assert (pipe.op.grid is pipe.grid) == (name == "rect_robin")
    phi = pipe.unfold(pipe.spectrum.eigenfunction)
    written = (tmp_path / "eigenfunction.csv").read_bytes()
    assert written == per_row_csv(["x1", "x2", "phi"],
                                  [pipe.grid.xs, pipe.grid.ys, phi]).encode()


def test_text_matches_per_entry_formatting():
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e22, -1e-300, 0.1])
    for u in (values, np.stack([values, values[::-1]]), np.empty(0),
              np.empty((2, 0))):
        text = cli._text(u)
        assert text.dtype == object and text.shape == u.shape
        assert list(text.ravel()) == ["%.17g" % v for v in u.ravel()]


@pytest.mark.parametrize("name", ["system_disk", "rect_robin"])
def test_unfold_text_formats_each_orbit_once(name):
    cfg = parse_config(CONFIGS[name])
    cfg.h = 1 / 16
    pipe = cli.build_pipeline(cfg)
    orbits = pipe.op.grid.interior_count
    assert (orbits < pipe.grid.interior_count) == (name == "system_disk")
    u = np.random.default_rng(5).standard_normal((cfg.n, orbits))
    text = pipe.unfold_text(u)
    assert text.shape == (cfg.n, pipe.grid.interior_count)
    assert list(text.ravel()) == [
        "%.17g" % v for v in pipe.unfold(u).ravel()]
    assert all(len({id(t) for t in row}) <= orbits for row in text)


@pytest.mark.parametrize("rows", range(6))
def test_csv_chunks_match_a_per_row_writer(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 2)
    values = np.arange(rows) / 3.0
    path = tmp_path / "table.csv"
    cli._write_csv(path, ["k", "v"], [np.arange(rows), values])
    assert path.read_text() == per_row_csv(["k", "v"],
                                           [np.arange(rows), values])

import math

import numpy as np
import pytest

from conesolve import Rectangle, UnitDisk, build_grid
from conesolve.errors import DegenerateGrid, InvalidSpec
from conesolve.geometry import (BOUNDARY, DOMAINS, EAST, INTERIOR, NORTH,
                                SOUTH, WEST)


def enumerate_disk_lattice(h):
    """Oracle: brute-force enumeration of lattice points strictly inside the
    unit circle, row-major by (j, i)."""
    m = int(math.floor(1.0 / h)) + 1
    pts = []
    for j in range(-m, m + 1):
        for i in range(-m, m + 1):
            x, y = i * h, j * h
            if math.hypot(x, y) < 1.0 - 1e-12 * h:
                pts.append((x, y))
    return pts


def test_unit_square_single_interior_node():
    grid = build_grid(Rectangle(0, 1, 0, 1), 0.5)
    assert grid.interior_count == 1
    assert grid.xs[0] == 0.5 and grid.ys[0] == 0.5


def test_disk_nodes_match_enumeration_oracle():
    for h in (0.5, 0.25, 1 / 8):
        grid = build_grid(UnitDisk(), h)
        expected = enumerate_disk_lattice(h)
        got = list(zip(grid.xs, grid.ys))
        assert len(got) == len(expected)
        for (gx, gy), (ex_, ey) in zip(got, expected):
            assert gx == pytest.approx(ex_, abs=1e-15)
            assert gy == pytest.approx(ey, abs=1e-15)


def test_disk_h_half_node_set():
    # the strictly-inside lattice at h = 0.5 has 9 points: the axis points
    # and the four diagonal points (0.5, 0.5) etc. with norm^2 = 0.5 < 1
    grid = build_grid(UnitDisk(), 0.5)
    assert grid.interior_count == 9
    got = {(round(x, 6), round(y, 6)) for x, y in zip(grid.xs, grid.ys)}
    assert (0.0, 0.0) in got
    assert (0.5, 0.5) in got and (-0.5, -0.5) in got
    assert (1.0, 0.0) not in got


def test_disk_axis_node_east_arm_is_one():
    # east neighbor of (0.5, 0) is (1, 0), exactly on the circle: the
    # boundary hit is a full step away so the arm fraction is exactly 1
    grid = build_grid(UnitDisk(), 0.5)
    k = next(k for k in range(grid.interior_count)
             if grid.xs[k] == 0.5 and grid.ys[k] == 0.0)
    assert grid.arms[k, EAST] == 1.0
    i, j = grid.nodes[k]
    assert grid.classification[j, i + 1] == BOUNDARY


def test_disk_diagonal_node_arms():
    grid = build_grid(UnitDisk(), 0.5)
    k = next(k for k in range(grid.interior_count)
             if grid.xs[k] == 0.5 and grid.ys[k] == 0.5)
    expected = (math.sqrt(1 - 0.25) - 0.5) / 0.5
    assert grid.arms[k, EAST] == pytest.approx(expected, rel=1e-14)
    assert grid.arms[k, NORTH] == pytest.approx(expected, rel=1e-14)
    assert grid.arms[k, WEST] == 1.0
    assert grid.arms[k, SOUTH] == 1.0


def test_rectangle_arms_all_one():
    grid = build_grid(Rectangle(-1, 2, 0, 1), 0.25)
    assert np.all(grid.arms == 1.0)


def test_arm_is_one_exactly_when_neighbor_interior():
    grid = build_grid(UnitDisk(), 1 / 8)
    offsets = {EAST: (1, 0), WEST: (-1, 0), NORTH: (0, 1), SOUTH: (0, -1)}
    for k in range(grid.interior_count):
        i, j = grid.nodes[k]
        for d, (di, dj) in offsets.items():
            if grid.classification[j + dj, i + di] == INTERIOR:
                assert grid.arms[k, d] == 1.0
            else:
                assert 0.0 < grid.arms[k, d] <= 1.0


def test_deterministic_construction():
    a = build_grid(UnitDisk(), 1 / 8)
    b = build_grid(UnitDisk(), 1 / 8)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.classification, b.classification)
    assert np.array_equal(a.arms, b.arms)


def test_refinement_at_least_triples_disk_interior():
    h = 0.25
    while h > 1 / 64:
        coarse = build_grid(UnitDisk(), h).interior_count
        fine = build_grid(UnitDisk(), h / 2).interior_count
        assert fine >= 3 * coarse
        h /= 2


def test_inverted_rectangle_rejected():
    with pytest.raises(InvalidSpec):
        build_grid(Rectangle(1, 0, 0, 1), 0.1)


@pytest.mark.parametrize("spec", ["square", None, (0, 1, 0, 1)])
def test_an_unknown_domain_spec_is_invalid(spec):
    with pytest.raises(InvalidSpec, match="unknown domain spec") as err:
        build_grid(spec, 0.1)
    assert err.value.exit_code == 65


def test_non_dividing_h_rejected():
    with pytest.raises(InvalidSpec):
        build_grid(Rectangle(0, 1, 0, 1), 0.3)


@pytest.mark.parametrize("bounds", [(0, math.inf, 0, 1),
                                    (0, math.nan, 0, 1),
                                    (-math.inf, 0, 0, 1)])
def test_non_finite_rectangle_bounds_rejected(bounds):
    with pytest.raises(InvalidSpec, match="finite"):
        build_grid(Rectangle(*bounds), 0.25)


@pytest.mark.parametrize("spec,h", [
    (Rectangle(0, 1e308, 0, 1e308), 0.25),    # counts overflow to inf
    (Rectangle(-1e308, 1e308, 0, 1), 0.25),   # the extent itself is inf
    (UnitDisk(), 1e-300),
    (UnitDisk(), 5e-324),
])
def test_lattice_too_large_for_int32_ids_rejected(spec, h):
    with pytest.raises(InvalidSpec, match="can index"):
        build_grid(spec, h)


def test_lattice_node_limit_is_checked_before_allocation(monkeypatch):
    from conesolve import geometry
    monkeypatch.setattr(geometry, "MAX_LATTICE_NODES", 100)
    assert build_grid(Rectangle(0, 1, 0, 1), 1 / 8).nx == 9     # 81 nodes
    built = []
    for cls in geometry.DOMAINS.values():
        monkeypatch.setattr(cls, "build", lambda *a: built.append(a))
    for spec, h in ((Rectangle(0, 1, 0, 1), 1 / 16), (UnitDisk(), 1 / 4)):
        with pytest.raises(InvalidSpec):
            build_grid(spec, h)     # 289 and 121 lattice nodes
    assert built == []


# a domain of each config word, with its closed set as a predicate
SAMPLED = {
    "rectangle": (Rectangle(-0.5, 2.0, 1.0, 1.25),
                  lambda x, y: (-0.5 <= x) & (x <= 2.0)
                  & (1.0 <= y) & (y <= 1.25)),
    "unitdisk": (UnitDisk(), lambda x, y: x * x + y * y <= 1.0),
}


@pytest.mark.parametrize("word", sorted(DOMAINS))
def test_each_domain_samples_inside_itself(word):
    spec, inside = SAMPLED[word]
    assert type(spec) is DOMAINS[word]
    x, y = spec.sample(np.random.default_rng(0), 10_000)
    assert x.shape == y.shape == (10_000,)
    assert np.all(inside(x, y))
    px, py = spec.sweep_points()
    assert px.shape == py.shape and px.size > 0
    assert np.all(inside(px, py))


def test_degenerate_grid_rejected():
    with pytest.raises(DegenerateGrid):
        build_grid(Rectangle(0, 1, 0, 5), 1.0)   # one lattice column only
    with pytest.raises(DegenerateGrid):
        build_grid(UnitDisk(), 1.0)              # h >= half the diameter


def test_grid_is_immutable():
    grid = build_grid(UnitDisk(), 0.5)
    with pytest.raises(ValueError):
        grid.arms[0, 0] = 2.0

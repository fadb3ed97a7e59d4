"""Computational domains and uniform Cartesian grids.

Two domains are supported: axis-aligned rectangles and the open unit disk.
A grid uses one mesh step h for both axes.  Lattice nodes are classified
interior / boundary / exterior; interior nodes whose neighbor in some axis
direction falls outside the domain carry the fractional arm length to the
boundary crossing (Shortley-Weller), so downstream stencils can shorten the
corresponding leg.  Rectangles are lattice-aligned and all arms equal 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGrid, InvalidSpec

EXTERIOR = 0
INTERIOR = 1
BOUNDARY = 2

# directions, in the order arms are stored
EAST, WEST, NORTH, SOUTH = 0, 1, 2, 3

# nodes closer than this (times h) to the boundary are snapped onto it
BOUNDARY_SNAP = 1e-12


@dataclass(frozen=True)
class Rectangle:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def diameter(self):
        return math.hypot(self.x_max - self.x_min, self.y_max - self.y_min)


@dataclass(frozen=True)
class UnitDisk:
    """The open disk x1^2 + x2^2 < 1."""

    def diameter(self):
        return 2.0


DomainSpec = Rectangle | UnitDisk


@dataclass(eq=False)
class Grid:
    """Immutable uniform grid over a domain.

    Lattice node (i, j) sits at (x0 + i*h, y0 + j*h).  Interior nodes are
    enumerated row-major by (j, i); `interior_ids[j, i]` maps a lattice node
    to its unknown index (-1 outside).  `arms[k]` holds the arm-length
    fractions (east, west, north, south) of interior node k, each in (0, 1],
    equal to 1 whenever the neighbor in that direction lies in the closed
    domain.
    """

    spec: DomainSpec
    h: float
    x0: float
    y0: float
    nx: int
    ny: int
    classification: np.ndarray   # (ny, nx) int8
    interior_ids: np.ndarray     # (ny, nx) int32, -1 for non-interior
    nodes: np.ndarray            # (N, 2) int, columns (i, j)
    xs: np.ndarray               # (N,) interior node x1 coordinates
    ys: np.ndarray               # (N,) interior node x2 coordinates
    arms: np.ndarray             # (N, 4) float, order E W N S

    @property
    def interior_count(self) -> int:
        return len(self.nodes)

    def classify(self, i, j) -> int:
        if 0 <= i < self.nx and 0 <= j < self.ny:
            return int(self.classification[j, i])
        return EXTERIOR


def _freeze(grid: Grid) -> Grid:
    for arr in (grid.classification, grid.interior_ids, grid.nodes,
                grid.xs, grid.ys, grid.arms):
        arr.setflags(write=False)
    return grid


def _lattice_counts(length, h, what):
    k = round(length / h)
    if k < 1 or abs(k * h - length) > 1e-9 * max(1.0, length):
        raise InvalidSpec(
            f"mesh step h={h} does not divide the {what} extent {length}")
    return k


def build_grid(spec: DomainSpec, h: float) -> Grid:
    """Build the uniform grid for `spec` with mesh step `h`.

    Node enumeration is deterministic (row-major by (j, i)).  Raises
    InvalidSpec for inconsistent rectangle bounds or a non-dividing h, and
    DegenerateGrid when no interior node results.
    """
    if not (h > 0):
        raise InvalidSpec(f"mesh step must be positive, got {h}")
    if isinstance(spec, Rectangle):
        if not (spec.x_min < spec.x_max and spec.y_min < spec.y_max):
            raise InvalidSpec(f"rectangle bounds are inverted: {spec}")
    if not (h < 0.5 * spec.diameter()):
        raise DegenerateGrid(
            f"h={h} is not smaller than half the domain diameter")

    if isinstance(spec, Rectangle):
        grid = _build_rectangle(spec, h)
    elif isinstance(spec, UnitDisk):
        grid = _build_disk(spec, h)
    else:
        raise InvalidSpec(f"unknown domain spec: {spec!r}")

    if grid.interior_count == 0:
        raise DegenerateGrid(f"no interior nodes for {spec} at h={h}")
    return _freeze(grid)


def _interior_arrays(spec, h, x0, y0, classification):
    ny, nx = classification.shape
    jj, ii = np.nonzero(classification == INTERIOR)   # row-major by (j, i)
    ids = np.full((ny, nx), -1, dtype=np.int32)
    ids[jj, ii] = np.arange(len(ii), dtype=np.int32)
    nodes = np.column_stack([ii, jj]).astype(np.int64)
    xs = x0 + ii * h
    ys = y0 + jj * h
    return ids, nodes, xs, ys


def _build_rectangle(spec: Rectangle, h: float) -> Grid:
    kx = _lattice_counts(spec.x_max - spec.x_min, h, "x")
    ky = _lattice_counts(spec.y_max - spec.y_min, h, "y")
    nx, ny = kx + 1, ky + 1
    classification = np.full((ny, nx), INTERIOR, dtype=np.int8)
    classification[0, :] = BOUNDARY
    classification[-1, :] = BOUNDARY
    classification[:, 0] = BOUNDARY
    classification[:, -1] = BOUNDARY
    ids, nodes, xs, ys = _interior_arrays(
        spec, h, spec.x_min, spec.y_min, classification)
    arms = np.ones((len(nodes), 4))
    return Grid(spec, h, spec.x_min, spec.y_min, nx, ny,
                classification, ids, nodes, xs, ys, arms)


def _build_disk(spec: UnitDisk, h: float) -> Grid:
    m = int(math.floor(1.0 / h + BOUNDARY_SNAP)) + 1   # one exterior ring
    n = 2 * m + 1
    x0 = y0 = -m * h
    idx = np.arange(n)
    X = x0 + idx[None, :] * h
    Y = y0 + idx[:, None] * h
    r = np.hypot(X, Y)
    snap = BOUNDARY_SNAP * h
    classification = np.where(
        np.abs(r - 1.0) <= snap, BOUNDARY,
        np.where(r < 1.0, INTERIOR, EXTERIOR)).astype(np.int8)

    ids, nodes, xs, ys = _interior_arrays(spec, h, x0, y0, classification)
    arms = np.ones((len(nodes), 4))

    # crossing distance along +-x is sqrt(1-y^2) -+ x, along +-y symmetric
    cross_x = np.sqrt(np.maximum(1.0 - ys * ys, 0.0))
    cross_y = np.sqrt(np.maximum(1.0 - xs * xs, 0.0))
    ii, jj = nodes[:, 0], nodes[:, 1]
    neighbor = {
        EAST: (classification[jj, ii + 1], (cross_x - xs) / h),
        WEST: (classification[jj, ii - 1], (cross_x + xs) / h),
        NORTH: (classification[jj + 1, ii], (cross_y - ys) / h),
        SOUTH: (classification[jj - 1, ii], (cross_y + ys) / h),
    }
    for d, (ncls, frac) in neighbor.items():
        outside = ncls == EXTERIOR
        arms[:, d] = np.where(outside, np.clip(frac, BOUNDARY_SNAP, 1.0), 1.0)
    return Grid(spec, h, x0, y0, n, n,
                classification, ids, nodes, xs, ys, arms)

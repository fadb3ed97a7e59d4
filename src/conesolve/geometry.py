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

# interior_ids is int32, so a lattice holds at most this many nodes
MAX_LATTICE_NODES = np.iinfo(np.int32).max


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
    InvalidSpec for a spec that is not a DomainSpec, non-finite or
    inconsistent rectangle bounds, a non-dividing h, or a lattice with more
    than MAX_LATTICE_NODES nodes (refused before anything is allocated),
    and DegenerateGrid when no interior node results.
    """
    if not isinstance(spec, DomainSpec):
        raise InvalidSpec(f"unknown domain spec: {spec!r}")
    if not (h > 0):
        raise InvalidSpec(f"mesh step must be positive, got {h}")
    if isinstance(spec, Rectangle):
        bounds = (spec.x_min, spec.x_max, spec.y_min, spec.y_max)
        if not all(map(math.isfinite, bounds)):
            raise InvalidSpec(f"rectangle bounds must be finite: {spec}")
        if not (spec.x_min < spec.x_max and spec.y_min < spec.y_max):
            raise InvalidSpec(f"rectangle bounds are inverted: {spec}")
        shape = ((spec.x_max - spec.x_min) / h + 1.0,
                 (spec.y_max - spec.y_min) / h + 1.0)
    else:
        shape = (2.0 / h + 3.0,) * 2    # 2 floor(1/h) + 3 nodes per axis
    if not (h < 0.5 * spec.diameter()):
        raise DegenerateGrid(
            f"h={h} is not smaller than half the domain diameter")
    # counted in floating point, so an overflow to inf is refused too
    if not (shape[0] * shape[1] <= MAX_LATTICE_NODES):
        raise InvalidSpec(
            f"h={h} gives a lattice of about {shape[0]:.3g} x "
            f"{shape[1]:.3g} nodes on {spec}, more than the "
            f"{MAX_LATTICE_NODES} a grid can index")

    if isinstance(spec, Rectangle):
        grid = _build_rectangle(spec, h)
    else:
        grid = _build_disk(spec, h)

    if grid.interior_count == 0:
        raise DegenerateGrid(f"no interior nodes for {spec} at h={h}")
    return _freeze(grid)


def _interior_arrays(h, x0, y0, classification):
    ny, nx = classification.shape
    jj, ii = np.nonzero(classification == INTERIOR)   # row-major by (j, i)
    ids = np.full((ny, nx), -1, dtype=np.int32)
    ids[jj, ii] = np.arange(len(ii), dtype=np.int32)
    nodes = np.column_stack([ii, jj]).astype(np.int64, copy=False)
    ii, jj = nodes.T    # frees np.nonzero's (N, 2) buffer
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
        h, spec.x_min, spec.y_min, classification)
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
    classification = np.full((n, n), EXTERIOR, dtype=np.int8)
    classification[r < 1.0] = INTERIOR
    classification[np.abs(r - 1.0) <= snap] = BOUNDARY
    del r               # no lattice-sized float outlives the classification

    ids, nodes, xs, ys = _interior_arrays(h, x0, y0, classification)
    arms = np.ones((len(nodes), 4))

    # an arm toward an exterior neighbor (read off a shifted view of the
    # lattice) ends at the circle: sqrt(1 - y^2) -+ x away along +-x, etc.
    inner = ids[1:-1, 1:-1]
    for d, di, dj in ((EAST, 1, 0), (WEST, -1, 0), (NORTH, 0, 1),
                      (SOUTH, 0, -1)):
        beyond = classification[1 + dj:n - 1 + dj, 1 + di:n - 1 + di]
        out = inner[(inner >= 0) & (beyond == EXTERIOR)]
        along, across = (xs[out], ys[out]) if di else (ys[out], xs[out])
        cross = np.sqrt(np.maximum(1.0 - across * across, 0.0))
        arms[out, d] = np.clip((cross - (di + dj) * along) / h,
                               BOUNDARY_SNAP, 1.0)
    return Grid(spec, h, x0, y0, n, n,
                classification, ids, nodes, xs, ys, arms)

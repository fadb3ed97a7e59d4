"""Computational domains and uniform Cartesian grids.

Two domains are supported: axis-aligned rectangles and the open unit disk.
A grid uses one mesh step h for both axes.  Lattice nodes are classified
interior / boundary / exterior; interior nodes whose neighbor in some axis
direction falls outside the domain carry the fractional arm length to the
boundary crossing (Shortley-Weller), so downstream stencils can shorten the
corresponding leg.  Rectangles are lattice-aligned and all arms equal 1.

Each domain class owns what depends on its shape, so a new domain touches
this module alone: `lattice_shape(h)`, about how many nodes per axis step h
gives, after the checks that need no allocation; `build(h)`, its grid;
`sample(rng, count)` and `sweep_points()`, uniform and fixed points of the
closed domain for the hypothesis checks; `lattice_aligned`, whether the
boundary lies on lattice lines, as Neumann / Robin elimination needs; and,
through DOMAINS, its config text.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

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
    """The closed box [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    lattice_aligned = True     # h must divide both extents

    def diameter(self):
        return math.hypot(self.x_max - self.x_min, self.y_max - self.y_min)

    def lattice_shape(self, h):
        if not all(map(math.isfinite, astuple(self))):
            raise InvalidSpec(
                f"rectangle bounds must be finite: {format_domain(self)}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidSpec(
                f"rectangle bounds are inverted: {format_domain(self)}")
        return ((self.x_max - self.x_min) / h + 1.0,
                (self.y_max - self.y_min) / h + 1.0)

    def build(self, h) -> Grid:
        nx = _lattice_counts(self.x_max - self.x_min, h, "x") + 1
        ny = _lattice_counts(self.y_max - self.y_min, h, "y") + 1
        classification = np.full((ny, nx), BOUNDARY, dtype=np.int8)
        classification[1:-1, 1:-1] = INTERIOR
        ids, nodes, xs, ys = _interior_arrays(
            h, self.x_min, self.y_min, classification)
        return Grid(self, h, self.x_min, self.y_min, nx, ny, classification,
                    ids, nodes, xs, ys, np.ones((len(nodes), 4)))

    def sample(self, rng, count):
        return (rng.uniform(self.x_min, self.x_max, count),
                rng.uniform(self.y_min, self.y_max, count))

    def sweep_points(self):
        X, Y = np.meshgrid(np.linspace(self.x_min, self.x_max, 5),
                           np.linspace(self.y_min, self.y_max, 5))
        return X.ravel(), Y.ravel()


@dataclass(frozen=True)
class UnitDisk:
    """The open disk x1^2 + x2^2 < 1."""

    lattice_aligned = False

    def diameter(self):
        return 2.0

    def lattice_shape(self, h):
        return (2.0 / h + 3.0,) * 2     # 2 floor(1/h) + 3 nodes per axis

    def build(self, h) -> Grid:
        m = int(math.floor(1.0 / h + BOUNDARY_SNAP)) + 1   # one exterior ring
        n = 2 * m + 1
        x0 = y0 = -m * h
        idx = np.arange(n)
        r = np.hypot(x0 + idx[None, :] * h, y0 + idx[:, None] * h)
        classification = np.full((n, n), EXTERIOR, dtype=np.int8)
        classification[r < 1.0] = INTERIOR
        classification[np.abs(r - 1.0) <= BOUNDARY_SNAP * h] = BOUNDARY
        del r           # no lattice-sized float outlives the classification

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
        return Grid(self, h, x0, y0, n, n,
                    classification, ids, nodes, xs, ys, arms)

    def sample(self, rng, count):
        r = np.sqrt(rng.uniform(0.0, 1.0, count))
        t = rng.uniform(0.0, 2.0 * math.pi, count)
        return r * np.cos(t), r * np.sin(t)

    def sweep_points(self):
        t = np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
        return (np.concatenate([[0.0], 0.5 * np.cos(t), 0.999 * np.cos(t)]),
                np.concatenate([[0.0], 0.5 * np.sin(t), 0.999 * np.sin(t)]))


DomainSpec = Rectangle | UnitDisk

# config word -> domain class; config text gives the fields after the word
DOMAINS = {"rectangle": Rectangle, "unitdisk": UnitDisk}


def format_domain(spec: DomainSpec) -> str:
    """The config text of spec, each field as repr(float), which config
    parses back to an equal spec."""
    word = next(w for w, cls in DOMAINS.items() if type(spec) is cls)
    return " ".join([word, *(repr(float(b)) for b in astuple(spec))])


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
    shape = spec.lattice_shape(h)
    if not (h < 0.5 * spec.diameter()):
        raise DegenerateGrid(
            f"h={h} is not smaller than half the domain diameter")
    # counted in floating point, so an overflow to inf is refused too
    if not (shape[0] * shape[1] <= MAX_LATTICE_NODES):
        raise InvalidSpec(
            f"h={h} gives a lattice of about {shape[0]:.3g} x "
            f"{shape[1]:.3g} nodes on {format_domain(spec)}, more than the "
            f"{MAX_LATTICE_NODES} a grid can index")
    grid = spec.build(h)
    if grid.interior_count == 0:
        raise DegenerateGrid(
            f"no interior nodes for {format_domain(spec)} at h={h}")
    return _freeze(grid)


def _interior_arrays(h, x0, y0, classification):
    ny, nx = classification.shape
    jj, ii = np.nonzero(classification == INTERIOR)   # row-major by (j, i)
    ids = np.full((ny, nx), -1, dtype=np.int32)
    ids[jj, ii] = np.arange(len(ii), dtype=np.int32)
    nodes = np.column_stack([ii, jj]).astype(np.int64, copy=False)
    ii, jj = nodes.T    # frees np.nonzero's (N, 2) buffer
    return ids, nodes, x0 + ii * h, y0 + jj * h

"""Assembly of the discrete elliptic operator.

The operator

    L z = -(a11 z_xx + 2 a12 z_xy + a22 z_yy) + b1 z_x + b2 z_y + c z

is discretized on interior nodes with central 5-point differences for the
diagonal second-order part (Shortley-Weller shortened legs next to a curved
boundary), a 4-point cross stencil for the mixed term, upwind first-order
differences for b1, b2 (direction chosen per node by the sign of the
coefficient, which preserves the M-matrix sign pattern), and c added to the
diagonal.

Boundary handling keeps one unknown per interior node.  Homogeneous Dirichlet
values are dropped from the stencil.  Neumann / Robin conditions (rectangles
only) eliminate boundary values with a one-sided second-order difference for
the outward normal derivative:

    b z_B + dz/dv = 0  with  dz/dv = (3 z_B - 4 z_1 + z_2) / (2h)

so z_B = (4 z_1 - z_2) / (3 + 2 h b), where z_1, z_2 are the next two nodes
along the inward lattice line.  Corner values (needed only by the cross
stencil) average the two edge eliminations.  These rules form a sparse map
P from lattice values to unknowns, so that A = A_II + A_IB P.

When A is invariant under some of the eight symmetries of the lattice
(the dihedral group D4), `fold` restricts it to the functions those maps
leave invariant: one unknown per orbit of interior nodes (Bossavit 1986,
Comput. Methods Appl. Mech. Engrg. 56).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (CoefficientViolation, EllipticityViolation,
                     NeumannRequiresZerothOrder, SolverFailure, UnsupportedBC)
from .geometry import BOUNDARY, Grid, Rectangle, UnitDisk, _freeze

Coefficient = Callable[[np.ndarray, np.ndarray], np.ndarray]


def constant(value: float) -> Coefficient:
    val = float(value)
    return lambda x1, x2: np.full(np.broadcast(x1, x2).shape, val)


@dataclass(frozen=True)
class EllipticCoefficients:
    """Coefficient functions of (x1, x2); a12 stands for both off-diagonal
    entries of the symmetric second-order matrix, c must be >= 0."""

    a11: Coefficient
    a12: Coefficient
    a22: Coefficient
    b1: Coefficient
    b2: Coefficient
    c: Coefficient

    @staticmethod
    def laplacian() -> "EllipticCoefficients":
        return EllipticCoefficients(constant(1.0), constant(0.0),
                                    constant(1.0), constant(0.0),
                                    constant(0.0), constant(0.0))

    @staticmethod
    def diagonal(a=1.0, c=0.0) -> "EllipticCoefficients":
        return EllipticCoefficients(constant(a), constant(0.0), constant(a),
                                    constant(0.0), constant(0.0), constant(c))


@dataclass(frozen=True)
class Dirichlet:
    pass


@dataclass(frozen=True)
class Neumann:
    pass


@dataclass(frozen=True)
class Robin:
    b: Coefficient


BoundarySpec = Dirichlet | Neumann | Robin


@dataclass(frozen=True)
class OperatorDiagnostics:
    is_m_matrix: bool
    ellipticity_mu0: float


@dataclass(eq=False)
class DiscreteOperator:
    """Sparse realization of (L, B) on the interior nodes of a grid.

    A folded operator (see `fold`) acts on one unknown per orbit: its grid
    holds the orbit representatives, and `symmetry` names the lattice maps
    other than the identity that were folded out (empty when unfolded)."""

    matrix: sp.csr_matrix
    grid: Grid
    diagnostics: OperatorDiagnostics
    symmetry: tuple = ()

    def __post_init__(self):
        self._lu = None
        self._k1 = None     # K(1), solved once by greens on first use

    def factorization(self):
        """Cached sparse LU factorization; computed once, then read-only.

        The matrix is structurally symmetric, so a minimum-degree ordering
        of A^T + A keeps the fill about half that of SuperLU's default
        COLAMD ordering on the disk.  SuperLU's symmetric mode, made for
        such a pattern, prefers diagonal pivots; on the disk it factors
        faster at the same fill.  A singular factor raises SolverFailure."""
        if self._lu is None:
            try:
                self._lu = spla.splu(self.matrix.tocsc(),
                                     permc_spec="MMD_AT_PLUS_A",
                                     options={"SymmetricMode": True})
            except RuntimeError as err:     # "Factor is exactly singular"
                raise SolverFailure(f"sparse LU failed: {err}") from None
        return self._lu

    @cached_property
    def norm_inf(self) -> float:
        """|A|_inf, the largest absolute row sum of the matrix."""
        return float(abs(self.matrix).sum(axis=1).max())


def _sample(fn: Coefficient, xs, ys) -> np.ndarray:
    out = np.asarray(fn(xs, ys), dtype=float)
    return np.broadcast_to(out, np.shape(xs)).copy() if out.shape != np.shape(xs) else out


def _check_ellipticity(a11, a12, a22):
    """Return mu0, the smallest eigenvalue of the 2x2 symmetric coefficient
    matrix over the nodes, or raise EllipticityViolation unless it is
    positive.  Each node's matrix is scaled by its largest magnitude s, so
    no square overflows; lam_min = s det' / lam_max' where lam_max' > 0
    also avoids the cancellation of half_trace' - radius'."""
    s = np.maximum(np.maximum(np.abs(a11), np.abs(a22)), np.abs(a12))
    s[s == 0] = 1.0         # a zero matrix keeps lam_min = 0
    p, q, r = a11 / s, a12 / s, a22 / s
    half_trace = 0.5 * (p + r)
    radius = np.hypot(0.5 * (p - r), q)
    lam_max = half_trace + radius
    lam_min = half_trace - radius
    pos = lam_max > 0
    lam_min[pos] = (p * r - q * q)[pos] / lam_max[pos]
    lam_min *= s
    mu0 = float(lam_min.min()) if lam_min.size else 0.0
    if mu0 <= 0.0:
        k = int(np.argmin(lam_min))
        raise EllipticityViolation(
            f"coefficient matrix not uniformly elliptic: smallest eigenvalue "
            f"{mu0:.3e} at interior node {k}")
    return mu0


def _expand(lattice_map, rows, targets, weights):
    """COO entries of the terms weights * z(targets) in rows `rows`, with
    each lattice value replaced by its row of `lattice_map`; a term's
    entries follow in column order and keep the order of the terms."""
    start = lattice_map.indptr[targets]
    count = lattice_map.indptr[targets + 1] - start
    pos = (np.repeat(start - np.cumsum(count) + count, count)
           + np.arange(count.sum()))
    return (np.repeat(rows, count), lattice_map.indices[pos],
            np.repeat(weights, count) * lattice_map.data[pos])


def _coo_to_csr(entries, shape):
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _lattice_map(grid: Grid, bc: BoundarySpec, robin_b) -> sp.csr_matrix:
    """The sparse map P from lattice node values to interior unknowns.

    Row j*nx + i of P holds the value at lattice node (i, j): the unit vector
    of its unknown at an interior node, nothing at exterior nodes and
    Dirichlet boundary nodes (value 0).  A Neumann / Robin boundary node
    applies z_B = (4 z_1 - z_2) / (3 + 2 h b) along each inward lattice line
    and, at a corner, averages the two lines.  Corner lines end on edge
    nodes, so corner rows are resolved through the edge rows.
    """
    ids = grid.interior_ids.ravel()
    shape = (ids.size, grid.interior_count)
    q = np.flatnonzero(ids >= 0)
    entries = [(q, ids[q], np.ones(q.size))]
    lattice_map = _coo_to_csr(entries, shape)
    if isinstance(bc, Dirichlet):
        return lattice_map
    nx, ny = grid.nx, grid.ny
    jb, ib = np.nonzero(grid.classification == BOUNDARY)
    qb = jb * nx + ib
    denom = 3.0 + 2.0 * grid.h * robin_b
    lines = [(ib == 0, 1), (ib == nx - 1, -1), (jb == 0, nx),
             (jb == ny - 1, -nx)]
    n_lines = np.sum([on for on, _ in lines], axis=0)
    share = 1.0 / n_lines
    for count in (1, 2):        # edge lines end inside, corner lines on edges
        for on, inward in lines:
            sel = on & (n_lines == count)
            for step, w in ((1, 4.0), (2, -1.0)):
                entries.append(_expand(lattice_map, qb[sel],
                                       qb[sel] + step * inward,
                                       (share * (w / denom))[sel]))
        lattice_map = _coo_to_csr(entries, shape)
    return lattice_map


def _validate_bc(grid, bc, c_vals):
    """Check `bc` against the grid; return the Robin coefficient sampled at
    the boundary nodes in row-major order (zero for Neumann)."""
    if isinstance(bc, (Neumann, Robin)) and isinstance(grid.spec, UnitDisk):
        raise UnsupportedBC("the disk supports Dirichlet conditions only")
    if isinstance(bc, Neumann) and not np.any(c_vals > 0):
        raise NeumannRequiresZerothOrder(
            "Neumann conditions require a nonvanishing zero-order term")
    jj, ii = np.nonzero(grid.classification == BOUNDARY)
    bvals = np.zeros(ii.size)
    if isinstance(bc, Robin):
        bx = grid.x0 + ii * grid.h
        by = grid.y0 + jj * grid.h
        bvals = _sample(bc.b, bx, by)
        if np.any(bvals < 0):
            raise CoefficientViolation(
                "Robin coefficient must be nonnegative on the boundary")
        if not np.any(bvals > 0):
            raise CoefficientViolation(
                "Robin coefficient must not vanish identically")
    if isinstance(bc, (Neumann, Robin)) and isinstance(grid.spec, Rectangle):
        if grid.nx < 4 or grid.ny < 4:
            raise UnsupportedBC(
                "Neumann/Robin elimination needs at least 3 subdivisions "
                "per axis")
    return bvals


@np.errstate(over="ignore", invalid="ignore")
def assemble(grid: Grid, coeffs: EllipticCoefficients,
             bc: BoundarySpec) -> DiscreteOperator:
    """Assemble the sparse system for (L, B) on `grid`.

    Each interior node contributes its stencil terms w * z(lattice node) in
    a fixed order (legs E W N S, the cross stencil NE SW SE NW, upwind x,
    upwind y, then the diagonal).  Mapping every lattice value through
    `_lattice_map` gives A = A_II + A_IB P, and one COO -> CSR conversion
    sums the duplicates in that order.

    Returns a DiscreteOperator whose diagnostics report the sampled
    ellipticity constant and whether the matrix is an M-matrix (positive
    diagonal, nonpositive off-diagonal entries).  Coefficients so large
    that a matrix entry overflows raise CoefficientViolation, without
    floating-point warnings.
    """
    xs, ys = grid.xs, grid.ys
    a11 = _sample(coeffs.a11, xs, ys)
    a12 = _sample(coeffs.a12, xs, ys)
    a22 = _sample(coeffs.a22, xs, ys)
    b1 = _sample(coeffs.b1, xs, ys)
    b2 = _sample(coeffs.b2, xs, ys)
    c = _sample(coeffs.c, xs, ys)

    mu0 = _check_ellipticity(a11, a12, a22)
    if np.any(c < 0):
        k = int(np.argmin(c))
        raise CoefficientViolation(
            f"zero-order coefficient negative ({c[k]:.3e}) at node {k}")
    lattice_map = _lattice_map(grid, bc, _validate_bc(grid, bc, c))

    h = grid.h
    n = grid.interior_count
    te, tw, tn, ts = grid.arms.T
    # interior nodes never sit on the outermost lattice ring, so these
    # shifted flat indices stay on the node's row and column lines
    node = grid.nodes[:, 1] * grid.nx + grid.nodes[:, 0]
    east, west, north, south = 1, -1, grid.nx, -grid.nx

    # -a11 z_xx, -a22 z_yy with shortened legs; a leg with arm < 1 ends
    # at the boundary crossing where the Dirichlet value is 0
    terms = [
        (east, -2.0 * a11 / (h * h * te * (te + tw)), te == 1.0),
        (west, -2.0 * a11 / (h * h * tw * (te + tw)), tw == 1.0),
        (north, -2.0 * a22 / (h * h * tn * (tn + ts)), tn == 1.0),
        (south, -2.0 * a22 / (h * h * ts * (tn + ts)), ts == 1.0),
    ]
    # -2 a12 z_xy by the 4-point cross stencil
    w = a12 / (2.0 * h * h)
    cross = a12 != 0.0
    terms += [(north + east, -w, cross), (south + west, -w, cross),
              (south + east, w, cross), (north + west, w, cross)]
    # upwind first-order terms
    up1, up2 = b1 >= 0.0, b2 >= 0.0
    terms += [
        (np.where(up1, west, east), np.where(up1, -b1 / (tw * h),
                                             b1 / (te * h)),
         np.where(up1, tw, te) == 1.0),
        (np.where(up2, south, north), np.where(up2, -b2 / (ts * h),
                                               b2 / (tn * h)),
         np.where(up2, ts, tn) == 1.0),
    ]
    diag = 2.0 * a11 / (h * h * te * tw)
    diag += 2.0 * a22 / (h * h * tn * ts)
    diag += np.where(up1, b1 / (tw * h), -b1 / (te * h))
    diag += np.where(up2, b2 / (ts * h), -b2 / (tn * h))
    diag += c

    entries = []
    for step, weight, on in terms:
        on = on & (weight != 0.0)
        entries.append(_expand(lattice_map, np.flatnonzero(on),
                               (node + step)[on], weight[on]))
    rows = np.arange(n)
    entries.append((rows, rows, diag))
    matrix = _coo_to_csr(entries, (n, n))
    if not np.all(np.isfinite(matrix.data)):
        raise CoefficientViolation(
            f"a stencil weight overflows at h={h}: the coefficients are too "
            "large for this mesh")

    coo = matrix.tocoo()
    off = coo.row != coo.col
    scale = float(np.abs(coo.data).max()) if coo.data.size else 1.0
    tol = 1e-12 * scale
    m_diag = matrix.diagonal()
    is_m = bool(np.all(m_diag > 0) and
                (not np.any(off) or np.all(coo.data[off] <= tol)))
    return DiscreteOperator(matrix, grid, OperatorDiagnostics(is_m, mu0))


# The symmetries of a lattice other than the identity, as (name, swap,
# flip_i, flip_j): node (i, j) goes to (a, b) = (j, i) if swap else (i, j),
# then a -> nx-1-a if flip_i and b -> ny-1-b if flip_j.  The maps that swap
# need nx == ny.
LATTICE_MAPS = (
    ("i -> nx-1-i", False, True, False),
    ("j -> ny-1-j", False, False, True),
    ("half turn", False, True, True),
    ("transpose", True, False, False),
    ("antitranspose", True, True, True),
    ("quarter turn", True, True, False),
    ("three-quarter turn", True, False, True),
)


def _node_map(grid: Grid, swap, flip_i, flip_j):
    """The interior node each node goes to under one lattice map, or None
    when the map leaves the interior."""
    i, j = grid.nodes.T
    if swap:
        i, j = j, i
    if flip_i:
        i = grid.nx - 1 - i
    if flip_j:
        j = grid.ny - 1 - j
    image = grid.interior_ids[j, i]
    return None if np.any(image < 0) else image


def _keeps(a, image) -> bool:
    """Whether the node permutation `image` leaves the matrix a unchanged,
    bit for bit."""
    return (a[image][:, image] != a).nnz == 0


def _close(group, generators) -> None:
    """Add to group, a dict from the bytes of node permutations (all of
    one dtype) to the permutations, every product of its elements with
    the generators.  group must be closed under all but the last one."""
    frontier, factors = list(group.values()), generators[-1:]
    while frontier:
        new = []
        for perm in frontier:
            for gen in factors:
                image = gen[perm]
                key = image.tobytes()
                if key not in group:
                    group[key] = image
                    new.append(image)
        frontier, factors = new, generators


def fold(op: DiscreteOperator) -> DiscreteOperator:
    """Fold out of op the largest group of lattice maps that leaves its
    matrix A invariant, bit for bit.

    A map g keeps A when A[g][:, g] == A; the maps that do form a group G,
    since invariance is exact.  So only the maps the accepted ones do not
    generate already are tested (3 of the 7 when G is all of D4).  The
    orbits of G partition the interior nodes, each represented by its
    smallest node index.  With E the 0/1 map from nodes to orbits, the
    folded matrix is A_f = A[reps] E, whose entries are orbit sums of A's
    rows.  When A E == E A_f holds bitwise, K maps G-invariant data
    u = E v to E K_f v exactly, so every iterate, K(1) and the principal
    eigenfunction can be computed on the orbits.

    Returns op itself when no map other than the identity keeps A or when
    A E == E A_f fails; otherwise an operator over a grid of the orbit
    representatives whose `interior_ids` maps every lattice node to its
    orbit, carrying op's diagnostics.
    """
    grid, a = op.grid, op.matrix
    identity = np.arange(grid.interior_count,
                         dtype=grid.interior_ids.dtype)
    names, images, generators = [], [identity], []
    group = {identity.tobytes(): identity}  # generated by the accepted maps
    for name, swap, flip_i, flip_j in LATTICE_MAPS:
        if swap and grid.nx != grid.ny:
            continue
        image = _node_map(grid, swap, flip_i, flip_j)
        if image is None:
            continue
        if image.tobytes() not in group:
            if not _keeps(a, image):
                continue
            generators.append(image)
            _close(group, generators)
        names.append(name)
        images.append(image)
    if not names:
        return op
    reps, orbit = np.unique(np.min(images, axis=0), return_inverse=True)
    e = sp.csr_matrix((np.ones(orbit.size), (np.arange(orbit.size), orbit)),
                      shape=(orbit.size, reps.size))
    ae = a @ e
    folded = ae[reps]
    if (ae != folded[orbit]).nnz:       # E A_f is A_f's rows by orbit
        return op
    ids = grid.interior_ids
    reps_grid = _freeze(replace(
        grid, interior_ids=np.where(ids >= 0, orbit[ids], -1).astype(np.int32),
        nodes=grid.nodes[reps], xs=grid.xs[reps], ys=grid.ys[reps],
        arms=grid.arms[reps]))
    return DiscreteOperator(folded, reps_grid, op.diagnostics, tuple(names))

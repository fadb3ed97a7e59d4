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

Every entry of A lies in the 3x3 lattice window around its row's node (an
eliminated boundary value reaches one node past the row's own), so A is
held as a table of 9 stencil slots per row (ELLPACK storage; Saad,
Iterative Methods for Sparse Linear Systems, 2003, sec. 3.4) and emitted
as CSR from it.

When A is invariant under some of the eight symmetries of the lattice
(the dihedral group D4), `fold` restricts it to the functions those maps
leave invariant: one unknown per orbit of interior nodes (Bossavit 1986,
Comput. Methods Appl. Mech. Engrg. 56).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

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


# The slots of the 3x3 lattice window around a node, as (di, dj) offsets in
# the order SW S SE W C E NW N NE.  Interior ids are row-major, so within a
# row of A slot order is column order.
SLOT_OFFSETS = np.array([(di, dj) for dj in (-1, 0, 1) for di in (-1, 0, 1)])
CENTRE = 4


def _slot(di, dj):
    return 3 * (dj + 1) + di + 1


class Stencil(NamedTuple):
    """The rows of A as an (N, 9) table of stencil slots.  Slot s of row k
    is the node at SLOT_OFFSETS[s] from node k: `columns[k, s]` is its
    unknown (-1 if none), `values[k, s]` the entry of A there (0 where A
    stores none) and `present[k, s]` whether A stores it.  The tables are
    Fortran-ordered, so each slot is one contiguous array."""

    values: np.ndarray
    present: np.ndarray
    columns: np.ndarray


@dataclass(eq=False)
class DiscreteOperator:
    """Sparse realization of (L, B) on the interior nodes of a grid.

    A folded operator (see `fold`) acts on one unknown per orbit: its grid
    holds the orbit representatives, and `symmetry` names the lattice maps
    other than the identity that were folded out (empty when unfolded).
    `stencil` holds the matrix as slots; `assemble` sets it, and `fold`
    reads it."""

    matrix: sp.csr_matrix
    grid: Grid
    diagnostics: OperatorDiagnostics
    symmetry: tuple = ()
    stencil: Stencil | None = None

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
    upwind y, then the diagonal).  Each term is added into the slot of its
    lattice node in the (N, 9) slot table, so every entry sums its terms in
    that order; the CSR matrix is read off the table row by row.  Rows that
    reach a Neumann / Robin boundary value map it through `_lattice_map`
    (A = A_II + A_IB P) and are summed by a COO -> CSR conversion instead.

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
    east, west, north, south = (_slot(1, 0), _slot(-1, 0), _slot(0, 1),
                                _slot(0, -1))

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
    terms += [(_slot(1, 1), -w, cross), (_slot(-1, -1), -w, cross),
              (_slot(1, -1), w, cross), (_slot(-1, 1), w, cross)]
    # upwind first-order terms, one slot per sign of the coefficient
    up1, up2 = b1 >= 0.0, b2 >= 0.0
    bw, be = b1 / (tw * h), b1 / (te * h)
    bs, bn = b2 / (ts * h), b2 / (tn * h)
    terms += [(west, -bw, up1 & (tw == 1.0)), (east, be, ~up1 & (te == 1.0)),
              (south, -bs, up2 & (ts == 1.0)),
              (north, bn, ~up2 & (tn == 1.0))]
    diag = 2.0 * a11 / (h * h * te * tw)
    diag += 2.0 * a22 / (h * h * tn * ts)
    diag += np.where(up1, bw, -be)
    diag += np.where(up2, bs, -bn)
    diag += c

    # interior nodes never sit on the outermost lattice ring, so the
    # window's flat lattice indices stay on the node's rows and columns
    node = grid.nodes[:, 1] * grid.nx + grid.nodes[:, 0]
    steps = SLOT_OFFSETS[:, 1] * grid.nx + SLOT_OFFSETS[:, 0]
    ids = grid.interior_ids.ravel()
    eliminated = (ids < 0) & (np.diff(lattice_map.indptr) > 0)
    columns = np.empty((n, 9), dtype=ids.dtype, order="F")
    near = np.zeros(n, dtype=bool)     # rows that reach an eliminated value
    for s, step in enumerate(steps):
        at = node + step
        columns[:, s] = ids[at]
        near |= eliminated[at]

    # a term adds to a slot of a row at most once, so adding the terms in
    # turn sums each entry in their order.  So does a COO -> CSR
    # conversion for a row of at most 16 entries, where the std::sort
    # scipy sorts a row with keeps equal columns in order; a row that
    # reaches no eliminated value has at most 11
    values = np.zeros((n, 9), order="F")
    present = np.zeros((n, 9), dtype=bool, order="F")
    rows = np.flatnonzero(near)
    entries = []
    for slot, weight, on in terms:
        on = on & (weight != 0.0)
        if not on.any():
            continue
        r = rows[on[rows]]
        entries.append(_expand(lattice_map, r, node[r] + steps[slot],
                               weight[r]))
        on &= ~near & (columns[:, slot] >= 0)
        values[:, slot] += np.where(on, weight, 0.0)
        present[:, slot] |= on
    values[:, CENTRE] += diag
    present[:, CENTRE] = True
    if rows.size:
        # rows that reach an eliminated value can have more entries, in an
        # order only the conversion itself reproduces; their entries stay
        # in the window, since P's rows reach one node past the row's own
        entries.append((rows, rows, diag[rows]))
        coo = _coo_to_csr(entries, (n, n)).tocoo()
        slot_of_step = np.empty(2 * grid.nx + 3, dtype=np.intp)
        slot_of_step[steps + grid.nx + 1] = np.arange(9)
        slots = slot_of_step[node[coo.col] - node[coo.row] + grid.nx + 1]
        values[coo.row, slots] = coo.data
        present[coo.row, slots] = True
    high, low = values.max(axis=0), values.min(axis=0)
    if not (np.all(np.isfinite(high)) and np.all(np.isfinite(low))):
        raise CoefficientViolation(
            f"a stencil weight overflows at h={h}: the coefficients are too "
            "large for this mesh")

    stored = np.flatnonzero(present)        # row by row, in column order
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    matrix = sp.csr_matrix((values.ravel()[stored],
                            columns.ravel()[stored], indptr), shape=(n, n))
    matrix.has_canonical_format = True

    # absent entries are 0, so the off-diagonal maximum covers them
    tol = 1e-12 * max(high.max(), -low.min())
    is_m = bool(low[CENTRE] > 0 and np.delete(high, CENTRE).max() <= tol)
    return DiscreteOperator(matrix, grid, OperatorDiagnostics(is_m, mu0),
                            stencil=Stencil(values, present, columns))


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
    image = grid.interior_ids.ravel()[j * grid.nx + i]
    return None if np.any(image < 0) else image


def _slot_map(swap, flip_i, flip_j):
    """The slot each slot of a node's window goes to under a lattice map."""
    di, dj = SLOT_OFFSETS.T
    if swap:
        di, dj = dj, di
    return _slot(-di if flip_i else di, -dj if flip_j else dj)


def _keeps(values, image, slots) -> bool:
    """Whether the lattice map that takes node k to image[k] and slot s to
    slots[s] leaves the slot table `values` unchanged, so that
    A[g k, g c] == A[k, c] for all nodes k, c."""
    return all(np.array_equal(values[:, slots[s]].take(image, axis=0),
                              values[:, s]) for s in range(9))


def _orbit_sums(values, orbits, present):
    """Each row's entries summed by orbit, in slot order, which is the
    column order in which csr_matmat sums A E.  Returns sums[k, s], the sum
    over the slots t of row k with orbits[k, t] == orbits[k, s], and
    first[k, s], whether s is the first stored slot of its orbit in row
    k."""
    sums = np.zeros(values.shape)
    first = present.copy()
    for t in range(9):
        same = orbits == orbits[:, t:t + 1]
        sums += np.where(same, values[:, t:t + 1], 0.0)
        first[:, t + 1:] &= ~(same[:, t + 1:] & present[:, t:t + 1])
    return sums, first


def _compose(g, h):
    """The (swap, flip_i, flip_j) code of lattice map g after map h."""
    swap, flip_i, flip_j = h
    if g[0]:                  # g's swap carries h's flips to the other axis
        flip_i, flip_j = flip_j, flip_i
    return swap != g[0], flip_i != g[1], flip_j != g[2]


def _closure(codes) -> frozenset:
    """The group of lattice maps that the codes generate."""
    group = frozenset(codes)
    while (grown := group | {_compose(g, h) for g in group
                             for h in group}) != group:
        group = grown
    return group


def fold(op: DiscreteOperator) -> DiscreteOperator:
    """Fold out of op the largest group of lattice maps that leaves its
    matrix A invariant, bit for bit.

    op is an operator as `assemble` returns it, with its slot table.  A map
    g keeps A when A[g k, g c] == A[k, c] for all nodes k, c: on the table,
    row g k holds row k's entries with each slot moved by g's action on the
    window.  The maps that keep A form a group G, since invariance is
    exact, so only the maps the accepted ones do not generate already are
    tested (3 of the 7 when G is all of D4).  The orbits of G partition the
    interior nodes; a node represents its orbit when it is the least of
    its images.  With E the 0/1 map from nodes to orbits, the folded matrix
    is A_f = (A E)[reps], whose entries are orbit sums of the
    representatives' rows, summed in column order as A @ E sums them.
    When A E == E A_f holds bitwise, K maps G-invariant data u = E v to
    E K_f v exactly, so every iterate, K(1) and the principal
    eigenfunction can be computed on the orbits.

    Returns op itself when no map other than the identity keeps A or when
    A E == E A_f fails; otherwise an operator over a grid of the orbit
    representatives whose `interior_ids` maps every lattice node to its
    orbit, carrying op's diagnostics.
    """
    grid, (values, present, columns) = op.grid, op.stencil
    identity = np.arange(grid.interior_count,
                         dtype=grid.interior_ids.dtype)
    names, maps = [], []
    group = {(False, False, False)}     # generated by the accepted maps
    for name, *code in LATTICE_MAPS:
        code = tuple(code)
        if code[0] and grid.nx != grid.ny:
            continue
        image = _node_map(grid, *code)
        if image is None:
            continue
        slots = _slot_map(*code)
        if code not in group:
            if not _keeps(values, image, slots):
                continue
            group = _closure(group | {code})
        names.append(name)
        maps.append((image, slots))
    if not names:
        return op
    least = np.min([identity] + [image for image, _ in maps], axis=0)
    is_rep = least == identity
    reps = np.flatnonzero(is_rep)
    orbit = (np.cumsum(is_rep, dtype=columns.dtype) - 1)[least]
    # the orbit of each slot's node; a slot off the interior has its own
    orbits = np.where(columns >= 0, orbit[columns],
                      -1 - np.arange(9, dtype=columns.dtype))

    # A E == E A_f when the orbit sums of every row agree along every map
    # in G.  A row whose window meets no orbit twice holds its orbit sums
    # as its entries, which agree since A is invariant.  The rows that do
    # meet an orbit twice, and only they, map onto one another.
    twice = np.zeros(orbit.size, dtype=bool)
    for t in range(1, 9):
        twice |= (orbits[:, :t] == orbits[:, t:t + 1]).any(axis=1)
    rows = np.flatnonzero(twice)
    sums, first = _orbit_sums(values[rows], orbits[rows], present[rows])
    row_of = np.empty(orbit.size, dtype=np.intp)
    row_of[rows] = np.arange(rows.size)
    for image, slots in maps:
        if not np.array_equal(sums[row_of[image[rows]]][:, slots], sums):
            return op

    # A_f = (A E)[reps] as csr_matmat lays it out: each row lists its
    # orbits in the reverse order of their first stored slot, and drops
    # the sums that are 0
    rep_sums, rep_first = values[reps], present[reps]
    meets = twice[reps]
    rep_sums[meets] = sums[row_of[reps[meets]]]
    rep_first[meets] = first[row_of[reps[meets]]]
    keep = (rep_first & (rep_sums != 0))[:, ::-1]
    stored = np.flatnonzero(keep)
    indptr = np.zeros(reps.size + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    folded = sp.csr_matrix((rep_sums[:, ::-1].ravel()[stored],
                            orbits[reps][:, ::-1].ravel()[stored], indptr),
                           shape=(reps.size, reps.size))
    ids = grid.interior_ids
    reps_grid = _freeze(replace(
        grid, interior_ids=np.where(ids >= 0, orbit[ids], -1).astype(np.int32),
        nodes=grid.nodes[reps], xs=grid.xs[reps], ys=grid.ys[reps],
        arms=grid.arms[reps]))
    return DiscreteOperator(folded, reps_grid, op.diagnostics, tuple(names))

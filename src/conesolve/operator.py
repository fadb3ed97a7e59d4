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
stencil) average the two edge eliminations.  These rules give each
eliminated value as at most four (node, weight) pairs, and a term that
reaches it adds into the slots of those nodes.

Every entry of A lies in the 3x3 lattice window around its row's node (an
eliminated boundary value reaches one node past the row's own), so A is
held as a table of 9 stencil slots per row (ELLPACK storage; Saad,
Iterative Methods for Sparse Linear Systems, 2003, sec. 3.4).  The table
is A's only stored form: its CSR form is built from it when first read,
so a folded run never builds the full operator's.

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
from .geometry import BOUNDARY, Grid, _freeze

Coefficient = Callable[[np.ndarray, np.ndarray], np.ndarray]


def constant(value: float) -> Coefficient:
    """The coefficient that takes one value everywhere, given as that
    single value."""
    val = float(value)
    return lambda _x1, _x2: val


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


# The slots of the 3x3 lattice window around a node, as (di, dj) offsets in
# the order SW S SE W C E NW N NE.  Interior ids are row-major, so within a
# row of A slot order is column order.
SLOT_OFFSETS = np.array([(di, dj) for dj in (-1, 0, 1) for di in (-1, 0, 1)])
CENTRE = 4


def _slot(di, dj):
    return 3 * (dj + 1) + di + 1


class Stencil(NamedTuple):
    """The rows of A as an (N, 9) table of stencil slots: `columns[k, s]`
    is the unknown of slot s of row k (negative if none) and `values[k, s]`
    the entry of A there.  A stores an entry exactly where its value is
    not 0 (the diagonal is always positive), and a row's stored slots, in
    table order, are its CSR entries.

    As `assemble` builds it, slot s of row k is the node at
    SLOT_OFFSETS[s] from node k, and the tables are Fortran-ordered, so
    each slot is one contiguous array.  As `fold` builds it, row k is the
    window of orbit k's representative with each node replaced by its
    orbit, and the first slot of each orbit holds the sum of the row's
    entries in that orbit."""

    values: np.ndarray
    columns: np.ndarray


@dataclass(eq=False)
class DiscreteOperator:
    """Sparse realization of (L, B) on the interior nodes of a grid.

    `stencil` holds the matrix A as a slot table, its only stored form;
    `matrix` is A in CSR form, built from the table when first read.  A
    folded operator (see `fold`) acts on one unknown per orbit: its grid
    holds the orbit representatives, and `symmetry` names the lattice maps
    other than the identity that were folded out (empty when unfolded)."""

    stencil: Stencil
    grid: Grid
    is_m_matrix: bool       # positive diagonal, nonpositive off-diagonal
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
    def matrix(self) -> sp.csr_matrix:
        """A in CSR form: each row lists its stored slots in table order."""
        values, columns = self.stencil
        stored = values != 0
        n = values.shape[0]
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(stored.sum(axis=1), out=indptr[1:])
        return sp.csr_matrix((values[stored], columns[stored], indptr),
                             shape=(n, n))

    @cached_property
    def norm_inf(self) -> float:
        """|A|_inf, the largest absolute row sum of the matrix."""
        return float(abs(self.matrix).sum(axis=1).max())


def _sample(fn: Coefficient, xs, ys) -> np.ndarray:
    """fn at the points (xs, ys): one value per point, or a 0-d array when
    fn gives a single value for all of them."""
    out = np.asarray(fn(xs, ys), dtype=float)
    if out.ndim == 0 or out.shape == np.shape(xs):
        return out
    return np.broadcast_to(out, np.shape(xs)).copy()


def _check_ellipticity(a11, a12, a22):
    """Return mu0, the smallest eigenvalue of the 2x2 symmetric coefficient
    matrix over the nodes, or raise EllipticityViolation unless it is
    positive.  Each node's matrix is scaled by its largest magnitude s, so
    no square overflows; lam_min = s det' / lam_max' where lam_max' > 0
    also avoids the cancellation of half_trace' - radius'.  A coefficient
    given as a single value is judged once, not at every node."""
    a11, a12, a22 = np.broadcast_arrays(*np.atleast_1d(a11, a12, a22))
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


def _validate_bc(grid, bc, c_vals):
    """Check `bc` against the grid; return the Robin coefficient sampled at
    the boundary nodes in row-major order (zero for Neumann)."""
    if isinstance(bc, (Neumann, Robin)) and not grid.spec.lattice_aligned:
        raise UnsupportedBC("the disk supports Dirichlet conditions only")
    if isinstance(bc, Neumann) and not np.any(c_vals > 0):
        raise NeumannRequiresZerothOrder(
            "Neumann conditions require a nonvanishing zero-order term")
    jj, ii = np.nonzero(grid.classification == BOUNDARY)
    bvals = np.zeros(ii.size)
    if isinstance(bc, Robin):
        bx = grid.x0 + ii * grid.h
        by = grid.y0 + jj * grid.h
        bvals = np.broadcast_to(_sample(bc.b, bx, by), ii.shape)
        if np.any(bvals < 0):
            raise CoefficientViolation(
                "Robin coefficient must be nonnegative on the boundary")
        if not np.any(bvals > 0):
            raise CoefficientViolation(
                "Robin coefficient must not vanish identically")
    if isinstance(bc, (Neumann, Robin)) and (grid.nx < 4 or grid.ny < 4):
        raise UnsupportedBC("Neumann/Robin elimination needs at least 3 "
                            "subdivisions per axis")
    return bvals


def _elimination(grid: Grid, robin_b):
    """The elimination table of the Neumann / Robin boundary values.

    Returns (entry, nodes, weights): the lattice node at flat index q is
    eliminated when e = entry[q] >= 0, and then its value is the sum of
    weights[e, p] * z(nodes[e, p]) over the pairs p with nodes[e, p] >= 0,
    nodes holding flat lattice indices of interior nodes.  An edge node
    holds the two nodes of its inward lattice line.  A corner averages its
    two lines, each ending on an edge node that is resolved by the edge
    rule, so it holds the 2x2 block of nodes next to it.  `robin_b` is the
    Robin coefficient at the boundary nodes in row-major order.
    """
    nx, ny = grid.nx, grid.ny
    jb, ib = np.nonzero(grid.classification == BOUNDARY)
    at = jb * nx + ib
    entry = np.full(nx * ny, -1)
    entry[at] = np.arange(at.size)
    denom = 3.0 + 2.0 * grid.h * robin_b
    rule = (4.0, -1.0)      # (3 + 2 h b) z_B = 4 z_1 - z_2
    # the inward steps along i and along j, 0 on the edges they follow
    di = np.select([ib == 0, ib == nx - 1], [1, -1])
    dj = np.select([jb == 0, jb == ny - 1], [nx, -nx])
    nodes = np.full((at.size, 4), -1)
    weights = np.zeros((at.size, 4))
    edge = (di == 0) | (dj == 0)
    inward = (di + dj)[edge]
    for p, w in enumerate(rule):
        nodes[edge, p] = at[edge] + (p + 1) * inward
        weights[edge, p] = w / denom[edge]
    # the corner's line along i steps a to an edge node whose rule steps b
    # along j; its line along j steps b to one whose rule steps a along i
    corner = np.flatnonzero(~edge)
    q, si, sj, d = at[corner], di[corner], dj[corner], denom[corner]
    for p, (a, b) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        nodes[corner, p] = q + (a + 1) * si + (b + 1) * sj
        weights[corner, p] = (
            (0.5 * (rule[a] / d)) * weights[entry[q + (a + 1) * si], b]
            + (0.5 * (rule[b] / d)) * weights[entry[q + (b + 1) * sj], a])
    return entry, nodes, weights


@np.errstate(over="ignore", invalid="ignore")
def assemble(grid: Grid, coeffs: EllipticCoefficients,
             bc: BoundarySpec) -> DiscreteOperator:
    """Assemble the sparse system for (L, B) on `grid`.

    Each interior node contributes its stencil terms w * z(lattice node) in
    a fixed order (legs E W N S, the cross stencil NE SW SE NW, upwind x,
    upwind y, then the diagonal).  Each term is added into the slot of its
    lattice node in the (N, 9) slot table as soon as it is formed; a term
    that reaches an eliminated Neumann / Robin boundary value adds
    w * weight into the slot of each node of its `_elimination` pairs
    instead.  So every entry sums its terms in that order.  A coefficient
    given as a single value stays one value until a term spreads it over
    the nodes.

    Raises EllipticityViolation unless the sampled coefficient matrix is
    positive definite at every node.  Returns a DiscreteOperator whose
    is_m_matrix tells whether the matrix is an M-matrix (positive
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

    _check_ellipticity(a11, a12, a22)
    if np.any(c < 0):
        k = int(np.argmin(c))
        raise CoefficientViolation(
            f"zero-order coefficient negative ({np.min(c):.3e}) at node {k}")
    robin_b = _validate_bc(grid, bc, c)

    h = grid.h
    n = grid.interior_count
    te, tw, tn, ts = grid.arms.T
    east, west, north, south = (_slot(1, 0), _slot(-1, 0), _slot(0, 1),
                                _slot(0, -1))

    # interior nodes never sit on the outermost lattice ring, so the
    # window's flat lattice indices stay on the node's rows and columns
    node = grid.nodes[:, 1] * grid.nx + grid.nodes[:, 0]
    steps = SLOT_OFFSETS[:, 1] * grid.nx + SLOT_OFFSETS[:, 0]
    ids = grid.interior_ids.ravel()
    columns = np.empty((n, 9), dtype=ids.dtype, order="F")
    for s, step in enumerate(steps):
        columns[:, s] = ids[node + step]
    if not isinstance(bc, Dirichlet):
        entry, pair_nodes, pair_weights = _elimination(grid, robin_b)
        slot_of_step = np.empty(2 * grid.nx + 3, dtype=np.intp)
        slot_of_step[steps + grid.nx + 1] = np.arange(9)

    # a term adds to a slot of a row at most once, since the pairs of an
    # eliminated value name distinct nodes, so adding the terms in turn
    # sums each entry in their order
    values = np.zeros((n, 9), order="F")

    def add(slot, weight, on):
        """Add the term weight * z(node at slot) in the rows where `on`."""
        on = on & (weight != 0.0)
        if not on.any():
            return
        direct = on & (columns[:, slot] >= 0)
        values[:, slot] += np.where(direct, weight, 0.0)
        if isinstance(bc, Dirichlet):
            return
        # a term that reaches an eliminated value adds into the slots of
        # the nodes its pairs name
        e = entry[node + steps[slot]]
        rows = np.flatnonzero(on & (e >= 0))
        targets, pair_w = pair_nodes[e[rows]], pair_weights[e[rows]]
        named = targets >= 0
        rows = np.broadcast_to(rows[:, None], named.shape)[named]
        slots = slot_of_step[targets[named] - node[rows] + grid.nx + 1]
        values[rows, slots] += (np.broadcast_to(weight, (n,))[rows]
                                * pair_w[named])

    # -a11 z_xx, -a22 z_yy with shortened legs; a leg with arm < 1 ends
    # at the boundary crossing where the Dirichlet value is 0
    add(east, -2.0 * a11 / (h * h * te * (te + tw)), te == 1.0)
    add(west, -2.0 * a11 / (h * h * tw * (te + tw)), tw == 1.0)
    add(north, -2.0 * a22 / (h * h * tn * (tn + ts)), tn == 1.0)
    add(south, -2.0 * a22 / (h * h * ts * (tn + ts)), ts == 1.0)
    diag = 2.0 * a11 / (h * h * te * tw)
    diag += 2.0 * a22 / (h * h * tn * ts)
    # -2 a12 z_xy by the 4-point cross stencil
    w = a12 / (2.0 * h * h)
    cross = a12 != 0.0
    add(_slot(1, 1), -w, cross)
    add(_slot(-1, -1), -w, cross)
    add(_slot(1, -1), w, cross)
    add(_slot(-1, 1), w, cross)
    # upwind first-order terms, one slot per sign of the coefficient
    up, bw, be = b1 >= 0.0, b1 / (tw * h), b1 / (te * h)
    add(west, -bw, up & (tw == 1.0))
    add(east, be, ~up & (te == 1.0))
    diag += np.where(up, bw, -be)
    up, bs, bn = b2 >= 0.0, b2 / (ts * h), b2 / (tn * h)
    add(south, -bs, up & (ts == 1.0))
    add(north, bn, ~up & (tn == 1.0))
    diag += np.where(up, bs, -bn)
    diag += c
    values[:, CENTRE] += diag
    high, low = values.max(axis=0), values.min(axis=0)
    if not (np.all(np.isfinite(high)) and np.all(np.isfinite(low))):
        raise CoefficientViolation(
            f"a stencil weight overflows at h={h}: the coefficients are too "
            "large for this mesh")

    # absent entries are 0, so the off-diagonal maximum covers them
    tol = 1e-12 * max(high.max(), -low.min())
    is_m = bool(low[CENTRE] > 0 and np.delete(high, CENTRE).max() <= tol)
    return DiscreteOperator(Stencil(values, columns), grid, is_m)


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


def _orbit_sums(values, orbits):
    """Each row's entries summed by orbit, in slot order, which is the
    column order in which A @ E sums them: sums[k, s] is the sum over the
    slots t of row k with orbits[k, t] == orbits[k, s]."""
    sums = np.zeros(values.shape)
    for t in range(9):
        sums += np.where(orbits == orbits[:, t:t + 1], values[:, t:t + 1],
                         0.0)
    return sums


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


def _folded_table(op: DiscreteOperator, orbit, reps, maps):
    """The slot table of A_f = (A E)[reps], or None when A E != E A_f.

    `orbit` holds each node's orbit and `maps` the (node image, slot map)
    of each folded lattice map."""
    values, columns = op.stencil
    # the orbit of each slot's node; a slot off the interior has its own
    orbits = np.empty_like(columns)
    repeat = np.zeros_like(columns, dtype=bool)     # met at an earlier slot
    for t in range(9):
        at = columns[:, t]
        orbits[:, t] = np.where(at >= 0, orbit[at], -1 - t)
        repeat[:, t] = (orbits[:, :t] == orbits[:, t:t + 1]).any(axis=1)

    # A E == E A_f when the orbit sums of every row agree along every map
    # in G.  A row whose window meets no orbit twice holds its orbit sums
    # as its entries, which agree since A is invariant.  The rows that do
    # meet an orbit twice, and only they, map onto one another.
    twice = repeat.any(axis=1)
    rows = np.flatnonzero(twice)
    sums = _orbit_sums(values[rows], orbits[rows])
    row_of = np.empty(orbit.size, dtype=orbit.dtype)
    row_of[rows] = np.arange(rows.size)
    for image, slots in maps:
        if not np.array_equal(sums[row_of[image[rows]]][:, slots], sums):
            return None

    # each orbit's sum stays at its first slot of the representative's row
    rep_values = values[reps]
    meets = twice[reps]
    rep_values[meets] = sums[row_of[reps[meets]]]
    rep_values[repeat[reps]] = 0.0
    return Stencil(rep_values, orbits[reps])


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
    orbit, carrying op's is_m_matrix.
    """
    grid = op.grid
    identity = np.arange(grid.interior_count,
                         dtype=grid.interior_ids.dtype)
    least = identity.copy()         # the least image of each node
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
            if not _keeps(op.stencil.values, image, slots):
                continue
            group = _closure(group | {code})
        names.append(name)
        maps.append((image, slots))
        np.minimum(least, image, out=least)
    if not names:
        return op
    is_rep = least == identity
    reps = np.flatnonzero(is_rep)
    orbit = (np.cumsum(is_rep, dtype=identity.dtype) - 1)[least]
    folded = _folded_table(op, orbit, reps, maps)
    if folded is None:
        return op
    ids = grid.interior_ids
    reps_grid = _freeze(replace(
        grid, interior_ids=np.where(ids >= 0, orbit[ids], -1).astype(np.int32),
        nodes=grid.nodes[reps], xs=grid.xs[reps], ys=grid.ys[reps],
        arms=grid.arms[reps]))
    return DiscreteOperator(folded, reps_grid, op.is_m_matrix, tuple(names))

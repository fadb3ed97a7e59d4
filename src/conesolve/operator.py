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
stencil) average the two edge eliminations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (CoefficientViolation, EllipticityViolation,
                     NeumannRequiresZerothOrder, UnsupportedBC)
from .geometry import BOUNDARY, INTERIOR, Grid, Rectangle, UnitDisk

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
    """Sparse realization of (L, B) on the interior nodes of a grid."""

    matrix: sp.csr_matrix
    grid: Grid
    diagnostics: OperatorDiagnostics

    def __post_init__(self):
        self._lu = None

    def factorization(self):
        """Cached sparse LU factorization; computed once, then read-only."""
        if self._lu is None:
            self._lu = spla.splu(self.matrix.tocsc())
        return self._lu

    @cached_property
    def norm_inf(self) -> float:
        """|A|_inf, the largest absolute row sum of the matrix."""
        return float(abs(self.matrix).sum(axis=1).max())


def _sample(fn: Coefficient, xs, ys) -> np.ndarray:
    out = np.asarray(fn(xs, ys), dtype=float)
    return np.broadcast_to(out, np.shape(xs)).copy() if out.shape != np.shape(xs) else out


def _check_ellipticity(a11, a12, a22):
    # smallest eigenvalue of the 2x2 symmetric coefficient matrix, nodewise
    half_trace = 0.5 * (a11 + a22)
    radius = np.sqrt(0.25 * (a11 - a22) ** 2 + a12 ** 2)
    lam_min = half_trace - radius
    mu0 = float(lam_min.min()) if lam_min.size else 0.0
    if mu0 <= 0.0:
        k = int(np.argmin(lam_min))
        raise EllipticityViolation(
            f"coefficient matrix not uniformly elliptic: smallest eigenvalue "
            f"{mu0:.3e} at interior node {k}")
    return mu0


class _Eliminator:
    """Expresses boundary node values as combinations of interior unknowns."""

    def __init__(self, grid: Grid, bc: BoundarySpec):
        self.grid = grid
        self.bc = bc
        self.cache = {}

    def combo(self, i, j):
        """Return [(unknown index, weight), ...] for boundary node (i, j)."""
        if isinstance(self.bc, Dirichlet):
            return []
        key = (i, j)
        if key not in self.cache:
            self.cache[key] = self._eliminate(i, j)
        return self.cache[key]

    def _robin_b(self, i, j):
        if isinstance(self.bc, Neumann):
            return 0.0
        x, y = self.grid.node_xy(i, j)
        return float(np.asarray(self.bc.b(np.asarray(x), np.asarray(y))))

    def _inward_directions(self, i, j):
        dirs = []
        if i == 0:
            dirs.append((1, 0))
        if i == self.grid.nx - 1:
            dirs.append((-1, 0))
        if j == 0:
            dirs.append((0, 1))
        if j == self.grid.ny - 1:
            dirs.append((0, -1))
        return dirs

    def _eliminate(self, i, j):
        dirs = self._inward_directions(i, j)
        if not dirs:
            raise UnsupportedBC(
                f"node ({i}, {j}) is not on a rectangle edge")
        b = self._robin_b(i, j)
        if b < 0:
            raise CoefficientViolation(
                f"Robin coefficient negative at boundary node ({i}, {j})")
        denom = 3.0 + 2.0 * self.grid.h * b
        share = 1.0 / len(dirs)      # corners average the two edge rules
        combo = {}
        for di, dj in dirs:
            for step, w in ((1, 4.0 / denom), (2, -1.0 / denom)):
                ii, jj = i + step * di, j + step * dj
                cls = self.grid.classify(ii, jj)
                if cls == INTERIOR:
                    k = int(self.grid.interior_ids[jj, ii])
                    combo[k] = combo.get(k, 0.0) + share * w
                elif cls == BOUNDARY:
                    for k, w2 in self._eliminate(ii, jj):
                        combo[k] = combo.get(k, 0.0) + share * w * w2
                else:
                    raise UnsupportedBC(
                        "grid too coarse for one-sided boundary elimination "
                        "(need at least 3 subdivisions per axis)")
        return sorted(combo.items())


def _validate_bc(grid, bc, c_vals):
    if isinstance(bc, (Neumann, Robin)) and isinstance(grid.spec, UnitDisk):
        raise UnsupportedBC("the disk supports Dirichlet conditions only")
    if isinstance(bc, Neumann) and not np.any(c_vals > 0):
        raise NeumannRequiresZerothOrder(
            "Neumann conditions require a nonvanishing zero-order term")
    if isinstance(bc, Robin):
        jj, ii = np.nonzero(grid.classification == BOUNDARY)
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


def assemble(grid: Grid, coeffs: EllipticCoefficients,
             bc: BoundarySpec) -> DiscreteOperator:
    """Assemble the sparse system for (L, B) on `grid`.

    Returns a DiscreteOperator whose diagnostics report the sampled
    ellipticity constant and whether the matrix is an M-matrix (positive
    diagonal, nonpositive off-diagonal entries).
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
    _validate_bc(grid, bc, c)

    elim = _Eliminator(grid, bc)
    h = grid.h
    n = grid.interior_count
    rows, cols, vals = [], [], []
    diag = np.zeros(n)

    def add(row, i, j, w):
        """Add w * z(i, j) to the row, eliminating non-interior values."""
        if w == 0.0:
            return
        cls = grid.classify(i, j)
        if cls == INTERIOR:
            rows.append(row)
            cols.append(int(grid.interior_ids[j, i]))
            vals.append(w)
        elif cls == BOUNDARY:
            for k, w2 in elim.combo(i, j):
                rows.append(row)
                cols.append(k)
                vals.append(w * w2)
        # exterior lattice values never appear: shortened legs end on the
        # boundary, and curved domains are Dirichlet (value 0)

    for k in range(n):
        i, j = int(grid.nodes[k, 0]), int(grid.nodes[k, 1])
        te, tw, tn, ts = grid.arms[k]

        # -a11 z_xx, -a22 z_yy with shortened legs; a leg with arm < 1 ends
        # at the boundary crossing where the Dirichlet value is 0
        aa = a11[k]
        diag[k] += 2.0 * aa / (h * h * te * tw)
        if te == 1.0:
            add(k, i + 1, j, -2.0 * aa / (h * h * te * (te + tw)))
        if tw == 1.0:
            add(k, i - 1, j, -2.0 * aa / (h * h * tw * (te + tw)))
        aa = a22[k]
        diag[k] += 2.0 * aa / (h * h * tn * ts)
        if tn == 1.0:
            add(k, i, j + 1, -2.0 * aa / (h * h * tn * (tn + ts)))
        if ts == 1.0:
            add(k, i, j - 1, -2.0 * aa / (h * h * ts * (tn + ts)))

        # -2 a12 z_xy by the 4-point cross stencil
        if a12[k] != 0.0:
            w = a12[k] / (2.0 * h * h)
            add(k, i + 1, j + 1, -w)
            add(k, i - 1, j - 1, -w)
            add(k, i + 1, j - 1, w)
            add(k, i - 1, j + 1, w)

        # upwind first-order terms
        bb = b1[k]
        if bb >= 0.0:
            diag[k] += bb / (tw * h)
            if tw == 1.0:
                add(k, i - 1, j, -bb / (tw * h))
        else:
            diag[k] += -bb / (te * h)
            if te == 1.0:
                add(k, i + 1, j, bb / (te * h))
        bb = b2[k]
        if bb >= 0.0:
            diag[k] += bb / (ts * h)
            if ts == 1.0:
                add(k, i, j - 1, -bb / (ts * h))
        else:
            diag[k] += -bb / (tn * h)
            if tn == 1.0:
                add(k, i, j + 1, bb / (tn * h))

        diag[k] += c[k]

    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()

    coo = matrix.tocoo()
    off = coo.row != coo.col
    scale = float(np.abs(coo.data).max()) if coo.data.size else 1.0
    tol = 1e-12 * scale
    m_diag = matrix.diagonal()
    is_m = bool(np.all(m_diag > 0) and
                (not np.any(off) or np.all(coo.data[off] <= tol)))
    return DiscreteOperator(matrix, grid, OperatorDiagnostics(is_m, mu0))

"""The discrete solution operator K and its principal spectral data.

K g solves the assembled linear system (the discrete analogue of Lz = g with
homogeneous boundary values), so K inherits positivity from the M-matrix
structure of the assembly.  K acts on plain arrays of nodal values, one row
per right-hand side, through the operator's cached LU factorization.  The
module also computes K(1) with its sup norm, and the spectral radius r(K)
with the principal eigenfunction by power iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NoConvergence, SolverFailure
from .operator import DiscreteOperator

UNIT_ROUNDOFF = np.finfo(float).eps / 2
# A solve z of A z = b is accepted when its normwise backward error
# (Rigal & Gaches 1967; Higham, Accuracy and Stability of Numerical
# Algorithms, Thm 7.1) is at most BACKWARD_ERROR_C unit roundoffs:
#     |b - A z|_inf <= c u (|A|_inf |z|_inf + |b|_inf).
# Merely evaluating the residual of a stencil row with k nonzeros can cost
# (k + 1) u, about 10 u for the widest stencil, while the cached LU of
# these M-matrices measures about 0.3 u on the disk Laplacian at h = 1/64
# and h = 1/128.  c = 100 clears both by an order of magnitude, at any h.
BACKWARD_ERROR_C = 100.0
# power iteration: relative change of r, and the residual relative to
# max(1, r), as K's values scale with r
SPECTRUM_TOL = 1e-10
SPECTRUM_MAX_ITER = 10_000


@dataclass(eq=False)
class SpectralEstimate:
    """Principal spectral data of K: r = r(K), mu1 = 1/r, and the
    nonnegative eigenfunction (an (N,) array) normalized to sup norm 1."""

    r: float
    mu1: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float


def _backward_errors(op: DiscreteOperator, rhs, z) -> np.ndarray:
    """Normwise backward error of each column of z, in unit roundoffs.

    rhs and z are (N,) or (N, m) as the LU solves them; the maxima are
    taken over their (m, N) transposes, whose rows are contiguous when rhs
    is the transpose of a C-ordered block."""
    g = rhs.T
    residual = np.abs(g - (op.matrix @ z).T).max(axis=-1)
    scale = op.norm_inf * np.abs(z.T).max(axis=-1) + np.abs(g).max(axis=-1)
    scale = np.where(scale > 0, scale, 1.0)
    # UNIT_ROUNDOFF * a subnormal scale underflows to 0: divide by it first
    unit = UNIT_ROUNDOFF * scale
    return np.where(unit > 0, residual / np.where(unit > 0, unit, 1.0),
                    residual / scale / UNIT_ROUNDOFF)


def apply_K(op: DiscreteOperator, g) -> np.ndarray:
    """Solve the assembled system for each right-hand side in g, an (N,)
    array or an (m, N) block, with one call to the cached LU.

    A solve is accepted when its backward error is at most
    BACKWARD_ERROR_C unit roundoffs; otherwise (a NaN or infinite solve
    included) one refinement step is made, and SolverFailure is raised if
    that does not reach it either.
    """
    g = np.asarray(g, dtype=float)
    nodes = op.grid.interior_count
    if g.ndim not in (1, 2) or g.shape[-1] != nodes:
        raise GridMismatch(f"right-hand side of shape {g.shape} does not "
                           f"fit the {nodes} interior nodes of the grid")
    if not np.all(np.isfinite(g)):
        raise SolverFailure("right-hand side has non-finite values")
    rhs = g.T
    lu = op.factorization()
    z = lu.solve(rhs)
    # written so that a NaN backward error (a solve that overflowed) fails
    if not np.all(_backward_errors(op, rhs, z) <= BACKWARD_ERROR_C):
        z = z + lu.solve(rhs - op.matrix @ z)
        worst = float(_backward_errors(op, rhs, z).max())
        if not worst <= BACKWARD_ERROR_C:
            raise SolverFailure(
                f"backward error {worst:.3g} u exceeds {BACKWARD_ERROR_C:g} u "
                "after one refinement step")
    return z.T


def _k_one(op: DiscreteOperator) -> np.ndarray:
    """K(1), solved once per operator and kept next to its cached LU."""
    if op._k1 is None:
        op._k1 = apply_K(op, np.ones(op.grid.interior_count))
        op._k1.flags.writeable = False
    return op._k1


def k_one_norm(op: DiscreteOperator):
    """Return (K(1), ||K(1)||_inf)."""
    k1 = _k_one(op)
    return k1, float(np.abs(k1).max())


def spectral_radius(op: DiscreteOperator) -> SpectralEstimate:
    """Estimate r(K) and mu1 = 1/r(K) by power iteration on K.

    Starts from the constant-1 function (which has a component along the
    positive principal eigenfunction).  Terminates when successive estimates
    agree to a relative SPECTRUM_TOL and the sup-norm eigen-residual is at
    most SPECTRUM_TOL * max(1, r), or raises NoConvergence after
    SPECTRUM_MAX_ITER applications of K.  On an operator that is not an
    M-matrix (op.is_m_matrix) the iteration may not converge to a
    positive eigenpair.
    """
    phi = np.ones(op.grid.interior_count)
    r_prev = None
    for it in range(1, SPECTRUM_MAX_ITER + 1):
        w = _k_one(op) if it == 1 else apply_K(op, phi)
        r = float(np.abs(w).max())
        if r <= 0.0:
            raise NoConvergence("power iteration collapsed to zero")
        residual = float(np.abs(w - r * phi).max())
        if (r_prev is not None and abs(r - r_prev) <= SPECTRUM_TOL * r
                and residual <= SPECTRUM_TOL * max(1.0, r)):
            return SpectralEstimate(r=r, mu1=1.0 / r, eigenfunction=phi,
                                    iterations=it, residual=residual)
        phi = w / r
        r_prev = r
    raise NoConvergence(
        f"power iteration did not converge in {SPECTRUM_MAX_ITER} "
        "iterations (possibly defective or near-degenerate spectrum)")


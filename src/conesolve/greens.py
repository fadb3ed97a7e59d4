"""The discrete solution operator K and its principal spectral data.

K g solves the assembled linear system (the discrete analogue of Lz = g with
homogeneous boundary values), so K inherits positivity from the M-matrix
structure of the assembly.  K acts on plain arrays of nodal values, one row
per right-hand side, through the operator's cached LU factorization.  The
module also computes K(1) with its sup norm, the spectral radius r(K) with
the principal eigenfunction by power iteration, and the sharpest constants
sandwiching K g between multiples of e = K(1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateE, GridMismatch, NoConvergence, NotPositive,
                     SolverFailure)
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
    return residual / (UNIT_ROUNDOFF * np.where(scale > 0, scale, 1.0))


def apply_K(op: DiscreteOperator, g) -> np.ndarray:
    """Solve the assembled system for each right-hand side in g, an (N,)
    array or an (m, N) block, with one call to the cached LU.

    A solve is accepted when its backward error is at most
    BACKWARD_ERROR_C unit roundoffs; otherwise one refinement step is made,
    and SolverFailure is raised if that does not reach it either.
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
    if np.any(_backward_errors(op, rhs, z) > BACKWARD_ERROR_C):
        z = z + lu.solve(rhs - op.matrix @ z)
        worst = float(_backward_errors(op, rhs, z).max())
        if worst > BACKWARD_ERROR_C:
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


def spectral_radius(op: DiscreteOperator, tol: float = 1e-10,
                    max_iter: int = 10_000) -> SpectralEstimate:
    """Estimate r(K) and mu1 = 1/r(K) by power iteration on K.

    Starts from the constant-1 function (which has a component along the
    positive principal eigenfunction).  Terminates when successive estimates
    agree to a relative tol and the sup-norm eigen-residual is below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not op.diagnostics.is_m_matrix:
        warnings.warn("operator matrix is not an M-matrix; the power "
                      "iteration may not converge to a positive eigenpair",
                      stacklevel=2)
    phi = np.ones(op.grid.interior_count)
    r_prev = None
    for it in range(1, max_iter + 1):
        w = _k_one(op) if it == 1 else apply_K(op, phi)
        r = float(np.abs(w).max())
        if r <= 0.0:
            raise NoConvergence("power iteration collapsed to zero")
        residual = float(np.abs(w - r * phi).max())
        if (r_prev is not None and abs(r - r_prev) <= tol * r
                and residual <= tol):
            return SpectralEstimate(r=r, mu1=1.0 / r, eigenfunction=phi,
                                    iterations=it, residual=residual)
        phi = w / r
        r_prev = r
    raise NoConvergence(
        f"power iteration did not converge in {max_iter} iterations "
        "(possibly defective or near-degenerate spectrum)")


def e_positivity_probe(op: DiscreteOperator, g):
    """Sharpest alpha_g, beta_g with alpha_g * e <= K g <= beta_g * e
    nodewise, where e = K(1) and g is an (N,) array."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise NotPositive("g must be nonnegative")
    if not np.any(g > 0):
        raise NotPositive("g must not be identically zero")
    e, kg = apply_K(op, np.stack([np.ones_like(g), g]))
    if float(e.min()) <= 0.0:
        raise DegenerateE("K(1) vanishes at an interior node")
    ratios = kg / e
    return float(ratios.min()), float(ratios.max())

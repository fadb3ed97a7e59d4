import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conesolve import (Dirichlet, EllipticCoefficients, Neumann, Rectangle,
                       Robin, UnitDisk, apply_K, assemble, build_grid)
from conesolve.config import parse_config
from conesolve.errors import (CoefficientViolation, EllipticityViolation,
                              NeumannRequiresZerothOrder, SolverFailure,
                              UnsupportedBC)
from conesolve.operator import (SLOT_OFFSETS, DiscreteOperator,
                                OperatorDiagnostics, _check_ellipticity,
                                constant)


def test_laplacian_single_node_matrix():
    grid = build_grid(Rectangle(0, 1, 0, 1), 0.5)
    op = assemble(grid, EllipticCoefficients.laplacian(), Dirichlet())
    assert op.matrix.toarray() == pytest.approx(np.array([[16.0]]))
    assert op.diagnostics.is_m_matrix


def test_zero_order_shifts_diagonal():
    grid = build_grid(Rectangle(0, 1, 0, 1), 0.5)
    op = assemble(grid, EllipticCoefficients.diagonal(1.0, 3.0), Dirichlet())
    assert op.matrix.toarray() == pytest.approx(np.array([[19.0]]))


def sw_reference_disk_matrix(grid):
    """Oracle: assemble the Shortley-Weller Laplacian for the disk by hand,
    directly from the 3-point nonuniform second-difference formula.  A leg
    to a non-interior neighbor is shortened to the circle crossing (a full
    step when the neighbor sits exactly on the circle); the Dirichlet value
    there is zero so the column is dropped."""
    h = grid.h
    n = grid.interior_count
    index = {(int(i), int(j)): k for k, (i, j) in enumerate(grid.nodes)}
    A = np.zeros((n, n))
    for k in range(n):
        i, j = int(grid.nodes[k, 0]), int(grid.nodes[k, 1])
        x, y = grid.xs[k], grid.ys[k]
        for di, dj in [(1, 0), (0, 1)]:
            cross = math.sqrt(max(1.0 - (y if dj == 0 else x) ** 2, 0.0))
            coord = x if dj == 0 else y
            legs = []
            for sgn in (+1, -1):
                key = (i + sgn * di, j + sgn * dj)
                if key in index:
                    legs.append((h, index[key]))
                else:
                    legs.append((min(cross - sgn * coord
                                     if sgn > 0 else coord + cross, h),
                                 None))
            (hp, kp), (hm, km) = legs
            A[k, k] += 2.0 / (hp * hm)
            if kp is not None:
                A[k, kp] -= 2.0 / (hp * (hp + hm))
            if km is not None:
                A[k, km] -= 2.0 / (hm * (hp + hm))
    return A


def test_disk_shortley_weller_matrix_matches_hand_assembly():
    grid = build_grid(UnitDisk(), 0.5)
    op = assemble(grid, EllipticCoefficients.laplacian(), Dirichlet())
    dense = op.matrix.toarray()
    assert dense.shape == (9, 9)
    assert op.diagnostics.is_m_matrix
    ref = sw_reference_disk_matrix(grid)
    assert dense == pytest.approx(ref, rel=1e-13)
    # spot check the corner node (0.5, 0.5): both shortened legs have
    # length sqrt(3)/2 - 1/2 and the full legs length 1/2
    k = next(k for k in range(9)
             if grid.xs[k] == 0.5 and grid.ys[k] == 0.5)
    short = math.sqrt(0.75) - 0.5
    expected_diag = 2 * (2.0 / (short * 0.5))
    assert dense[k, k] == pytest.approx(expected_diag, rel=1e-13)


def test_m_matrix_for_diagonal_operators():
    grid = build_grid(UnitDisk(), 1 / 8)
    coeffs = EllipticCoefficients(
        a11=lambda x, y: 1.0 + 0.5 * x * x, a12=constant(0.0),
        a22=lambda x, y: 2.0 + y * y, b1=constant(0.0), b2=constant(0.0),
        c=lambda x, y: 0.5 + 0.0 * x)
    op = assemble(grid, coeffs, Dirichlet())
    assert op.diagnostics.is_m_matrix
    dense = op.matrix.toarray()
    off = dense - np.diag(np.diag(dense))
    # weak diagonal dominance row by row
    assert np.all(np.diag(dense) + off.sum(axis=1) >= -1e-10)


def test_upwinding_keeps_m_matrix():
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 8)
    coeffs = EllipticCoefficients(
        a11=constant(1.0), a12=constant(0.0), a22=constant(1.0),
        b1=lambda x, y: 10.0 * (x - 0.5), b2=lambda x, y: -8.0 + 0.0 * x,
        c=constant(0.0))
    op = assemble(grid, coeffs, Dirichlet())
    assert op.diagnostics.is_m_matrix


def test_mixed_term_clears_m_matrix_flag():
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 8)
    coeffs = EllipticCoefficients(
        a11=constant(1.0), a12=constant(0.4), a22=constant(1.0),
        b1=constant(0.0), b2=constant(0.0), c=constant(0.0))
    op = assemble(grid, coeffs, Dirichlet())
    assert not op.diagnostics.is_m_matrix


def test_constant_coefficient_symmetry():
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 8)
    op = assemble(grid, EllipticCoefficients.diagonal(2.0, 1.0), Dirichlet())
    dense = op.matrix.toarray()
    assert dense == pytest.approx(dense.T)


def test_ellipticity_violation_detected():
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 4)
    bad = EllipticCoefficients(
        a11=constant(1.0), a12=constant(2.0), a22=constant(1.0),
        b1=constant(0.0), b2=constant(0.0), c=constant(0.0))
    with pytest.raises(EllipticityViolation):
        assemble(grid, bad, Dirichlet())


def test_ellipticity_mu0_recorded():
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 4)
    op = assemble(grid, EllipticCoefficients.diagonal(3.0), Dirichlet())
    assert op.diagnostics.ellipticity_mu0 == pytest.approx(3.0)


def test_ellipticity_of_huge_coefficients_does_not_overflow():
    # (a11 - a22)^2 overflows at a11 = 1e308; the scaled form does not
    huge = np.array([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu0 = _check_ellipticity(huge, np.array([0.0, 1e307]),
                                 np.array([1.0, 1e308]))
        assert mu0 == pytest.approx(1.0)
        with pytest.raises(EllipticityViolation, match="-1.414e[+]308"):
            _check_ellipticity(huge, huge, -huge)


def test_negative_zero_order_rejected():
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 4)
    coeffs = EllipticCoefficients.diagonal(1.0, 0.0)
    bad = EllipticCoefficients(coeffs.a11, coeffs.a12, coeffs.a22,
                               coeffs.b1, coeffs.b2, constant(-1.0))
    with pytest.raises(CoefficientViolation):
        assemble(grid, bad, Dirichlet())


@pytest.mark.parametrize("key", ["b1", "b2"])
def test_overflowing_stencil_weight_rejected_without_warnings(key):
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 32)
    coeffs = dict(vars(EllipticCoefficients.laplacian()))
    coeffs[key] = constant(-1e308)      # 1e308 / h overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoefficientViolation, match="overflows"):
            assemble(grid, EllipticCoefficients(**coeffs), Dirichlet())


def test_singular_factor_raises_solver_failure():
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 3)     # 4 unknowns
    matrix = sp.csr_matrix(np.diag([1.0, 2.0, 0.0, 3.0]))
    op = DiscreteOperator(matrix, grid, OperatorDiagnostics(False, 1.0))
    with pytest.raises(SolverFailure, match="singular"):
        op.factorization()


def test_disk_rejects_non_dirichlet():
    grid = build_grid(UnitDisk(), 1 / 4)
    with pytest.raises(UnsupportedBC):
        assemble(grid, EllipticCoefficients.diagonal(1.0, 1.0), Neumann())


def test_neumann_requires_zeroth_order():
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 8)
    with pytest.raises(NeumannRequiresZerothOrder):
        assemble(grid, EllipticCoefficients.laplacian(), Neumann())


def test_robin_coefficient_sign_checked():
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 8)
    with pytest.raises(CoefficientViolation):
        assemble(grid, EllipticCoefficients.laplacian(),
                 Robin(constant(-1.0)))
    with pytest.raises(CoefficientViolation):
        assemble(grid, EllipticCoefficients.laplacian(),
                 Robin(constant(0.0)))


def test_neumann_reproduces_constants():
    # with c = 1 and g = 1 the exact solution is identically 1, and the
    # one-sided boundary elimination is exact on constants
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 8)
    op = assemble(grid, EllipticCoefficients.diagonal(1.0, 1.0), Neumann())
    z = apply_K(op, np.ones(grid.interior_count))
    assert z == pytest.approx(np.ones(grid.interior_count), abs=1e-11)


def test_robin_reproduces_quadratics_exactly():
    # u = phi(x) phi(y), phi(t) = 1 + t(1 - t), satisfies u + du/dv = 0 on
    # every edge; both the stencil and the elimination are exact on
    # quadratics so the discrete solution matches to roundoff
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 8)
    op = assemble(grid, EllipticCoefficients.laplacian(),
                  Robin(constant(1.0)))
    assert op.diagnostics.is_m_matrix

    def phi(t):
        return 1.0 + t * (1.0 - t)

    z = apply_K(op, 2.0 * (phi(grid.xs) + phi(grid.ys)))
    exact = phi(grid.xs) * phi(grid.ys)
    assert np.abs(z - exact).max() < 1e-11


def test_mixed_term_robin_corner_elimination_exact():
    # the cross stencil at nodes next to a corner references the corner
    # boundary value, which is eliminated by nesting the two one-sided edge
    # rules; all pieces are exact on quadratics, so u = phi(x) phi(y) with
    # phi(t) = 1 + t(1 - t) is reproduced to roundoff
    def phi(t):
        return 1.0 + t * (1.0 - t)

    def dphi(t):
        return 1.0 - 2.0 * t

    a12 = 0.2
    grid = build_grid(Rectangle(0, 1, 0, 1), 1 / 8)
    coeffs = EllipticCoefficients(
        constant(1.0), constant(a12), constant(1.0),
        constant(0.0), constant(0.0), constant(0.0))
    op = assemble(grid, coeffs, Robin(constant(1.0)))
    assert not op.diagnostics.is_m_matrix
    exact = phi(grid.xs) * phi(grid.ys)
    rhs = (2.0 * (phi(grid.xs) + phi(grid.ys))
           - 2.0 * a12 * dphi(grid.xs) * dphi(grid.ys))
    z = apply_K(op, rhs)
    assert np.abs(z - exact).max() < 1e-11


def test_neumann_second_order_convergence():
    # u = phi(x) phi(y), phi(t) = 1 + t^2 (1 - t)^2 has zero normal
    # derivative on all edges and nonvanishing third derivative there
    def phi(t):
        return 1.0 + t * t * (1.0 - t) ** 2

    def phi2(t):
        return 2.0 - 12.0 * t + 12.0 * t * t

    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        grid = build_grid(Rectangle(0, 1, 0, 1), h)
        op = assemble(grid, EllipticCoefficients.diagonal(1.0, 1.0),
                      Neumann())
        exact = phi(grid.xs) * phi(grid.ys)
        rhs = -(phi2(grid.xs) * phi(grid.ys)
                + phi(grid.xs) * phi2(grid.ys)) + exact
        z = apply_K(op, rhs)
        errs.append(np.abs(z - exact).max())
    assert errs[0] / errs[1] > 2.5
    assert errs[1] / errs[2] > 2.5


def _coeffs(a11=1.0, a12=0.0, a22=1.0, b1=0.0, b2=0.0, c=0.0):
    return EllipticCoefficients(*(f if callable(f) else constant(f)
                                  for f in (a11, a12, a22, b1, b2, c)))


RECT_ROBIN_CFG = """
domain = rectangle 0 1 0 1
h = 0.03125
bc = robin "1 + x1"
n = 1
a11 = "1 + 0.5*x1"
a22 = "1 + 0.5*x2"
b1 = "2"
b2 = "-1 + x1"
c = "1"
f1 = "(1 + 0.5*x1*x2) * (sqrt(s) + exp(s) - 1)"
rho1 = 1.0
"""


def _golden_case(name):
    # coefficients and steps that are not dyadic, so that reordering the
    # terms of a sum changes its rounding
    square = Rectangle(0, 1, 0, 1)
    if name == "disk-laplacian":
        return (build_grid(UnitDisk(), 1 / 16),
                EllipticCoefficients.laplacian(), Dirichlet())
    if name == "square-dirichlet":
        return (build_grid(square, 0.1),
                _coeffs(a11=lambda x, y: 1.0 + 0.3 * x * x,
                        a22=lambda x, y: 2.0 + 0.7 * y, c=0.3), Dirichlet())
    if name == "square-neumann":
        return (build_grid(square, 0.1),
                _coeffs(a11=lambda x, y: 1.0 + 0.3 * x, b1=0.7, b2=-0.3,
                        c=lambda x, y: 0.1 + y), Neumann())
    if name == "rect-robin":
        cfg = parse_config(RECT_ROBIN_CFG)
        return build_grid(cfg.domain, cfg.h), cfg.coefficients, cfg.bc
    if name == "mixed-robin-corners":
        return (build_grid(Rectangle(0, 1.5, 0, 1), 0.1),
                _coeffs(a12=lambda x, y: 0.2 + 0.1 * x * y, b1=0.7,
                        c=0.3), Robin(lambda x, y: 0.3 + x * y))
    if name == "upwind-both-signs":
        # b1 and b2 vanish exactly on the lines x = 1/2 and y = 1/2
        return (build_grid(square, 1 / 8),
                _coeffs(a11=1.3, b1=lambda x, y: 10.0 * (x - 0.5),
                        b2=lambda x, y: 8.0 - 16.0 * y, c=0.1), Dirichlet())
    if name == "disk-mixed-upwind":
        return (build_grid(UnitDisk(), 1 / 8),
                _coeffs(a11=lambda x, y: 2.0 + 0.3 * x,
                        a12=lambda x, y: 0.3 * x * y,
                        a22=lambda x, y: 2.0 + 0.7 * y,
                        b1=lambda x, y: 3.1 * x, b2=lambda x, y: -2.3 * y,
                        c=0.1), Dirichlet())
    raise KeyError(name)


def _csr_digest(matrix):
    digest = hashlib.sha256()
    for arr, dtype in ((matrix.indptr, "<i8"), (matrix.indices, "<i8"),
                       (matrix.data, "<f8")):
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return digest.hexdigest()


# SHA-256 of the CSR arrays (indptr, indices, data) as assembled by the
# per-node reference assembly; the array assembly must reproduce every
# index and every bit of every entry
GOLDEN_CSR = {
    "disk-laplacian":
        "6a3ab5eff44c9f33383af17d1e446930fe6c036b43ca12a30d281540514f0545",
    "square-dirichlet":
        "cbacaff72072a338af2611136257138fbe76c0370a19c6a1e45b13e3a762f242",
    "square-neumann":
        "3501af7591e4bcfd49ed4a447c904d029d379a0edcea5b8ba6cf323568302528",
    "rect-robin":
        "a19d23c4c3dedd8b05573d4c8cea3062fed7545cad7256c88f7461a63c164a53",
    "mixed-robin-corners":
        "a4338ca93e0efb5c1c965392de1b76727510e658ed6a4d259b24b98e15205e42",
    "upwind-both-signs":
        "d036ed364e5af576fb7bcf737b25176ce07af934cc0978d0357a9e847fc59dcc",
    "disk-mixed-upwind":
        "f7f97984bc7766c79ef54c738c0784b1b1352ef6148084a73f0d2dae06e06207",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSR))
def test_assembly_matches_golden_csr(name):
    op = assemble(*_golden_case(name))
    assert op.matrix.has_canonical_format
    assert _csr_digest(op.matrix) == GOLDEN_CSR[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CSR))
def test_slot_table_holds_the_matrix(name):
    op = assemble(*_golden_case(name))
    values, present, columns = op.stencil
    grid = op.grid
    i, j = grid.nodes.T
    for s, (di, dj) in enumerate(SLOT_OFFSETS):
        assert np.array_equal(columns[:, s], grid.interior_ids[j + dj, i + di])
    rows = np.broadcast_to(np.arange(grid.interior_count)[:, None],
                           present.shape)
    stored = sp.csr_matrix((values[present], (rows[present],
                                              columns[present])),
                           shape=op.matrix.shape)
    assert stored.nnz == op.matrix.nnz == present.sum()
    assert (stored != op.matrix).nnz == 0
    assert not values[~present].any()


def test_disk_lu_fill_uses_a_fill_reducing_ordering():
    # nnz(L) + nnz(U) on the disk Laplacian at h = 1/64: 971,946 with
    # SuperLU's default COLAMD ordering, 519,146 with minimum degree on
    # A^T + A
    grid = build_grid(UnitDisk(), 1.0 / 64.0)
    lu = assemble(grid, EllipticCoefficients.laplacian(),
                  Dirichlet()).factorization()
    assert lu.L.nnz + lu.U.nnz < 600_000

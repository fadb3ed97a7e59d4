import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conesolve import (Dirichlet, EllipticCoefficients, Neumann, Rectangle,
                       Robin, UnitDisk, apply_K, assemble, build_grid)
from conesolve.config import parse_config
from conesolve.errors import (CoefficientViolation, EllipticityViolation,
                              NeumannRequiresZerothOrder, SolverFailure,
                              UnsupportedBC)
from conesolve.geometry import BOUNDARY
from conesolve.operator import (SLOT_OFFSETS, DiscreteOperator,
                                OperatorDiagnostics, _check_ellipticity,
                                _sample, constant)


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


# SHA-256 of the CSR arrays (indptr, indices, data) as `assemble` sums
# them, every entry in the order of its stencil terms, a Neumann / Robin
# elimination included; they pin every index and every bit of every entry
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
        "1eed2adb8ad57a2cf66c8f8838e8df00dad399fdad6ff40e6f63ecae25812ac3",
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


# the digests of `_reference_assemble`, which sums rows of more than 16
# COO entries in std::sort's order: three entries of mixed-robin-corners,
# in rows next to a corner, differ from the term order by one ulp
REFERENCE_CSR = {
    **GOLDEN_CSR,
    "mixed-robin-corners":
        "a4338ca93e0efb5c1c965392de1b76727510e658ed6a4d259b24b98e15205e42",
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CSR))
def test_reference_assembly_matches_its_digest(name):
    matrix, _ = _reference_assemble(*_golden_case(name))
    assert _csr_digest(matrix) == REFERENCE_CSR[name]


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


def _lattice_map(grid, bc, robin_b):
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


def _reference_assemble(grid, coeffs, bc):
    """A as a sparse map P from lattice values to unknowns assembles it:
    A = A_II + A_IB P, every row's terms expanded through P into COO
    entries, which one COO -> CSR conversion sums.  Returns A and the COO
    entries (rows, columns, values) in term order.  scipy sums a row of at
    most 16 entries in their order, which is the term order of `assemble`,
    and a longer one in libstdc++ std::sort's order."""
    xs, ys = grid.xs, grid.ys
    a11, a12, a22, b1, b2, c = (_sample(f, xs, ys) for f in (
        coeffs.a11, coeffs.a12, coeffs.a22, coeffs.b1, coeffs.b2, coeffs.c))
    jb, ib = np.nonzero(grid.classification == BOUNDARY)
    robin_b = (_sample(bc.b, grid.x0 + ib * grid.h, grid.y0 + jb * grid.h)
               if isinstance(bc, Robin) else np.zeros(ib.size))
    h = grid.h
    te, tw, tn, ts = grid.arms.T
    w = a12 / (2.0 * h * h)
    cross = a12 != 0.0
    up1, up2 = b1 >= 0.0, b2 >= 0.0
    bw, be = b1 / (tw * h), b1 / (te * h)
    bs, bn = b2 / (ts * h), b2 / (tn * h)
    terms = [
        ((1, 0), -2.0 * a11 / (h * h * te * (te + tw)), te == 1.0),
        ((-1, 0), -2.0 * a11 / (h * h * tw * (te + tw)), tw == 1.0),
        ((0, 1), -2.0 * a22 / (h * h * tn * (tn + ts)), tn == 1.0),
        ((0, -1), -2.0 * a22 / (h * h * ts * (tn + ts)), ts == 1.0),
        ((1, 1), -w, cross), ((-1, -1), -w, cross),
        ((1, -1), w, cross), ((-1, 1), w, cross),
        ((-1, 0), -bw, up1 & (tw == 1.0)), ((1, 0), be, ~up1 & (te == 1.0)),
        ((0, -1), -bs, up2 & (ts == 1.0)), ((0, 1), bn, ~up2 & (tn == 1.0)),
    ]
    diag = 2.0 * a11 / (h * h * te * tw)
    diag += 2.0 * a22 / (h * h * tn * ts)
    diag += np.where(up1, bw, -be)
    diag += np.where(up2, bs, -bn)
    diag += c

    lattice_map = _lattice_map(grid, bc, robin_b)
    n = grid.interior_count
    node = grid.nodes[:, 1] * grid.nx + grid.nodes[:, 0]
    entries = []
    for (di, dj), weight, on in terms:
        r = np.flatnonzero(on & (weight != 0.0))
        entries.append(_expand(lattice_map, r, node[r] + dj * grid.nx + di,
                               weight[r]))
    entries.append((np.arange(n), np.arange(n), diag))
    return (_coo_to_csr(entries, (n, n)),
            tuple(np.concatenate(part) for part in zip(*entries)))


def _coefficient(text):
    """A coefficient function of (x1, x2) from a Python expression."""
    return eval(f"lambda x1, x2: {text} + 0.0 * x1")


@st.composite
def elimination_cases(draw):
    """A grid, coefficients and a boundary condition, mostly Neumann and
    Robin on square and non-square rectangles; coefficients are not
    dyadic, so that summing an entry in another order changes its bits."""
    domain, h = draw(st.sampled_from([
        (Rectangle(0, 1, 0, 1), 0.1), (Rectangle(0, 1, 0, 1), 1 / 8),
        (Rectangle(0, 1, 0, 1), 0.25), (Rectangle(0, 0.3, 0, 0.3), 0.1),
        (Rectangle(0, 1.5, 0, 1), 0.1), (Rectangle(0, 1.5, 0, 1), 0.25),
        (Rectangle(-1, 1, -0.5, 0.5), 0.1), (Rectangle(0, 0.3, 0, 0.7), 0.1),
        (UnitDisk(), 1 / 8)]))
    a11 = draw(st.sampled_from(["1", "1.3", "1 + 0.3*x1", "1 + 0.3*x1*x1"]))
    a22 = draw(st.sampled_from(["1", "0.7", "2 + 0.7*x2", "1.1 + 0.2*x1"]))
    a12 = draw(st.sampled_from(["0", "0", "0.2 + 0.1*x1*x2", "-0.15",
                                "0.3*x1"]))
    b1 = draw(st.sampled_from(["0", "0.7", "-1.3", "10*(x1 - 0.5)"]))
    b2 = draw(st.sampled_from(["0", "-0.3", "2.1", "8 - 16*x2"]))
    c = draw(st.sampled_from(["0", "0.3", "1.1 + x2", "1 + 0.2*x1"]))
    bc = Dirichlet()
    if isinstance(domain, Rectangle):
        bc = draw(st.sampled_from([
            Neumann(), Neumann(), Robin(_coefficient("0.8 + x1*x2")),
            Robin(_coefficient("1.2 + x1")), Robin(_coefficient("1.3")),
            Dirichlet()]))
        if isinstance(bc, Neumann) and c == "0":
            c = "0.3"
    coeffs = EllipticCoefficients(*(_coefficient(t) for t in
                                    (a11, a12, a22, b1, b2, c)))
    return build_grid(domain, h), coeffs, bc


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(elimination_cases())
@example(_golden_case("mixed-robin-corners"))
@example(_golden_case("rect-robin"))
def test_elimination_table_matches_the_sparse_lattice_map(case):
    op = assemble(*case)
    ref, (rows, cols, vals) = _reference_assemble(*case)
    assert np.array_equal(op.matrix.indptr, ref.indptr)
    assert np.array_equal(op.matrix.indices, ref.indices)
    # np.add.at sums each entry in the order of the COO entries, which is
    # the term order, bit for bit
    n = op.matrix.shape[0]
    at = np.repeat(np.arange(n), np.diff(ref.indptr)) * n + ref.indices
    term_order, magnitude = np.zeros(n * n), np.zeros(n * n)
    np.add.at(term_order, rows * n + cols, vals)
    np.add.at(magnitude, rows * n + cols, np.abs(vals))
    new, old = op.matrix.data, ref.data
    assert np.array_equal(new.view(np.int64), term_order[at].view(np.int64))
    # so is scipy's on the rows of at most 16 entries; elsewhere two orders
    # of summing k terms x_i differ by less than k eps sum |x_i| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, sec. 4.2)
    short = np.repeat(np.bincount(rows, minlength=n) <= 16,
                      np.diff(ref.indptr))
    assert np.array_equal(new[short].view(np.int64),
                          old[short].view(np.int64))
    terms = np.bincount(rows * n + cols, minlength=n * n)[at]
    assert np.all(np.abs(new - old)
                  <= terms * np.finfo(float).eps * magnitude[at])

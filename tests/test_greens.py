import math
import re

import numpy as np
import pytest
from scipy.special import j0

from conesolve import (Dirichlet, EllipticCoefficients, Rectangle, UnitDisk,
                       apply_K, assemble, build_grid, k_one_norm,
                       spectral_radius)
from conesolve import greens
from conesolve.errors import GridMismatch, NoConvergence, SolverFailure
from conesolve.verify import (CRITERIA, VerifyContext, disk_mu1_reference,
                              run_criterion)


def test_zero_rhs_gives_zero(disk_op):
    z = apply_K(disk_op, np.zeros(disk_op.grid.interior_count))
    assert np.all(z == 0.0)


def test_disk_k1_matches_closed_form(disk_op):
    grid = disk_op.grid
    k1, _ = k_one_norm(disk_op)
    exact = 0.25 * (1.0 - grid.xs ** 2 - grid.ys ** 2)
    # the quadratic profile is reproduced exactly by the stencil, so the
    # only error is solver roundoff
    assert np.abs(k1 - exact).max() < 1e-12


def test_square_manufactured_solution_second_order():
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        grid = build_grid(Rectangle(0, 1, 0, 1), h)
        op = assemble(grid, EllipticCoefficients.laplacian(), Dirichlet())
        exact = np.sin(np.pi * grid.xs) * np.sin(np.pi * grid.ys)
        z = apply_K(op, 2.0 * np.pi ** 2 * exact)
        errs.append(np.abs(z - exact).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.6)


def test_disk_quartic_manufactured_solution_order():
    # u = (1 - r^2)^2 with -Lap u = 8 - 16 r^2 exercises genuine truncation
    # error through the shortened boundary legs
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        grid = build_grid(UnitDisk(), h)
        op = assemble(grid, EllipticCoefficients.laplacian(), Dirichlet())
        r2 = grid.xs ** 2 + grid.ys ** 2
        z = apply_K(op, 8.0 - 16.0 * r2)
        errs.append(np.abs(z - (1.0 - r2) ** 2).max())
    assert 2.5 <= errs[0] / errs[1] <= 4.5
    assert 2.5 <= errs[1] / errs[2] <= 4.5


class _ZeroOrderDiskContext(VerifyContext):
    """Verification context whose disk operators carry the zero-order term
    c = h, an O(h) inconsistency with the Laplacian."""

    def op(self, domain_key, h=None):
        h = self.h if h is None else h
        if domain_key == "disk" and (domain_key, h) not in self._ops:
            self._ops[(domain_key, h)] = assemble(
                build_grid(UnitDisk(), h),
                EllipticCoefficients.diagonal(1.0, c=h), Dirichlet())
        return super().op(domain_key, h)


def _refinement_ratio(detail):
    return float(re.search(r"refinement ratio (\S+)", detail).group(1))


def test_green_fidelity_rejects_a_first_order_operator():
    result = run_criterion(CRITERIA[0], _ZeroOrderDiskContext())
    assert result.status == "FAIL", result.line()
    assert _refinement_ratio(result.detail) < 2.5


def test_green_fidelity_passes_on_the_coarse_grid():
    result = run_criterion(CRITERIA[0], VerifyContext(1.0 / 32.0))
    assert result.status == "PASS", result.line()
    assert _refinement_ratio(result.detail) == pytest.approx(3.88, abs=0.05)


def test_green_fidelity_failure_is_not_downgraded_on_a_coarse_grid():
    result = run_criterion(CRITERIA[0], _ZeroOrderDiskContext(1.0 / 32.0))
    assert result.status == "FAIL", result.line()
    assert _refinement_ratio(result.detail) < 2.5


class _ShiftedDiskContext(VerifyContext):
    """Verification context whose disk operators carry the zero-order term
    c = 1, which shifts the disk's mu1 by exactly 1 (about 17%)."""

    def op(self, domain_key, h=None):
        h = self.h if h is None else h
        if domain_key == "disk" and (domain_key, h) not in self._ops:
            self._ops[(domain_key, h)] = assemble(
                build_grid(UnitDisk(), h),
                EllipticCoefficients.diagonal(1.0, c=1.0), Dirichlet())
        return super().op(domain_key, h)


def test_mu1_miss_on_a_coarse_grid_reports_fail():
    result = run_criterion(CRITERIA[2], _ShiftedDiskContext(1.0 / 8.0))
    assert result.status == "FAIL", result.line()


@pytest.mark.parametrize("h", [1.0 / 4.0, 1.0 / 8.0])
def test_mu1_passes_within_its_coarse_target(h):
    result = run_criterion(CRITERIA[2], VerifyContext(h))
    assert result.status == "PASS", result.line()
    assert f"targets <= {2.0 * h * h:.2e}" in result.detail


def test_k1_norm_disk(disk_op):
    _, norm = k_one_norm(disk_op)
    assert norm == pytest.approx(0.25, rel=1e-10)


def test_k1_norm_shrinks_with_zero_order_term(disk_op):
    grid = disk_op.grid
    op_c = assemble(grid, EllipticCoefficients.diagonal(1.0, 1.0),
                    Dirichlet())
    _, norm_c = k_one_norm(op_c)
    _, norm_0 = k_one_norm(disk_op)
    assert norm_c < norm_0


def test_k1_deterministic(disk_op):
    a, na = k_one_norm(disk_op)
    b, nb = k_one_norm(disk_op)
    assert na == nb
    assert np.array_equal(a, b)


def test_grid_mismatch_detected(disk_op, square_op):
    g = np.ones(square_op.grid.interior_count)
    with pytest.raises(GridMismatch):
        apply_K(disk_op, g)
    with pytest.raises(GridMismatch):
        apply_K(disk_op, np.ones((2, square_op.grid.interior_count)))
    with pytest.raises(GridMismatch):
        apply_K(disk_op, np.ones((1, 1, disk_op.grid.interior_count)))


def test_block_solve_matches_single_solves(disk_op):
    rng = np.random.default_rng(7)
    block = rng.standard_normal((3, disk_op.grid.interior_count))
    z = apply_K(disk_op, block)
    assert z.shape == block.shape
    for row, zrow in zip(block, z):
        assert zrow == pytest.approx(apply_K(disk_op, row), rel=1e-12,
                                     abs=1e-15)


class _CountingLU:
    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, rhs):
        self.calls += 1
        return self.lu.solve(rhs)


def test_block_is_one_lu_solve_within_the_backward_error(disk_op,
                                                         monkeypatch):
    counting = _CountingLU(disk_op.factorization())
    monkeypatch.setattr(disk_op, "factorization", lambda: counting)
    block = np.ones((4, disk_op.grid.interior_count))
    z = apply_K(disk_op, block)
    assert counting.calls == 1
    assert greens._backward_errors(disk_op, block.T, z.T).max() <= 1.0


def test_failed_refinement_raises_solver_failure(disk_op, monkeypatch):
    # no solve with a nonzero residual meets a zero backward-error bound:
    # the one refinement step is taken, then the solve is rejected
    counting = _CountingLU(disk_op.factorization())
    monkeypatch.setattr(disk_op, "factorization", lambda: counting)
    monkeypatch.setattr(greens, "BACKWARD_ERROR_C", 0.0)
    rhs = np.random.default_rng(3).standard_normal(
        disk_op.grid.interior_count)
    with pytest.raises(SolverFailure, match="refinement"):
        apply_K(disk_op, rhs)
    assert counting.calls == 2


def test_bessel_oracle_value():
    # the tabulated j_{0,1} is a zero of scipy's J0, and its square is the
    # value the power-series bisection oracle used to compute
    assert abs(j0(math.sqrt(disk_mu1_reference()))) < 1e-15
    assert disk_mu1_reference() == 5.783185962946785


def test_spectral_disk_matches_bessel_oracle(disk_op):
    est = spectral_radius(disk_op)
    ref = disk_mu1_reference()
    assert abs(est.mu1 - ref) / ref < 0.01
    assert est.mu1 * est.r == pytest.approx(1.0, rel=1e-15)
    assert est.residual <= 1e-10
    assert np.abs(est.eigenfunction).max() == pytest.approx(1.0)
    assert est.eigenfunction.min() >= -1e-12


def test_spectral_square_matches_analytic(square_op):
    est = spectral_radius(square_op)
    assert abs(est.mu1 - 2.0 * np.pi ** 2) / (2.0 * np.pi ** 2) < 0.01


def test_spectral_scaling(disk_grid, disk_op):
    op2 = assemble(disk_grid, EllipticCoefficients.diagonal(2.0),
                   Dirichlet())
    est1 = spectral_radius(disk_op)
    est2 = spectral_radius(op2)
    assert est2.mu1 == pytest.approx(2.0 * est1.mu1, rel=1e-8)


@pytest.mark.parametrize("a", [1e-7, 1e-30, 1e-100])
def test_spectral_converges_at_small_diffusion(disk_grid, disk_op, a):
    # K's values, and so the eigen-residual, scale with r = 1/mu1 = 1/a
    op = assemble(disk_grid, EllipticCoefficients.diagonal(a), Dirichlet())
    est = spectral_radius(op)
    assert est.mu1 == pytest.approx(a * spectral_radius(disk_op).mu1,
                                    rel=1e-8)
    assert est.iterations < 100


def test_eigen_residual_and_lower_bound(disk_op):
    tol = greens.SPECTRUM_TOL
    est = spectral_radius(disk_op)
    phi = est.eigenfunction
    kphi = apply_K(disk_op, phi)
    assert np.abs(kphi - est.r * phi).max() <= tol
    # discrete form of the comparison K phi >= (r - tol) phi
    assert np.all(kphi >= (est.r - tol) * phi)


def test_linearity_positivity_monotonicity(disk_op):
    n = disk_op.grid.interior_count
    rng = np.random.default_rng(1701)
    for _ in range(30):
        g = rng.standard_normal(n)
        h = rng.standard_normal(n)
        a, b = rng.uniform(-2, 2, 2)
        kg = apply_K(disk_op, g)
        kh = apply_K(disk_op, h)
        combo = apply_K(disk_op, a * g + b * h)
        bound = 1e-9 * (abs(a) * np.abs(g).max() + abs(b) * np.abs(h).max())
        assert np.abs(combo - a * kg - b * kh).max() <= bound

        gpos = np.abs(g)
        kpos = apply_K(disk_op, gpos)
        assert kpos.min() >= -1e-10 * gpos.max()

        step = np.abs(h)
        hi = apply_K(disk_op, gpos + step)
        assert np.all(kpos <= hi + 1e-10 * step.max())


def test_spectral_budget_exhaustion(disk_op, monkeypatch):
    monkeypatch.setattr(greens, "SPECTRUM_TOL", 1e-14)
    monkeypatch.setattr(greens, "SPECTRUM_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        spectral_radius(disk_op)


@pytest.mark.parametrize("level", [1e306, 1e308])
def test_apply_K_rejects_an_overflowing_solve(disk_op, level):
    # the LU solve overflows to NaN, whose backward error is NaN
    with pytest.raises(SolverFailure, match="backward error nan"):
        apply_K(disk_op, np.full(disk_op.grid.interior_count, level))


def test_grid_function_rejects_nan(disk_op):
    vals = np.zeros(disk_op.grid.interior_count)
    vals[0] = np.nan
    with pytest.raises(SolverFailure):
        apply_K(disk_op, vals)


def _column_backward_errors(op, rhs, z):
    """The backward error as reduced over the (N, m) columns, before the
    row-layout reduction: the reference it must match bit for bit."""
    residual = np.abs(rhs - op.matrix @ z).max(axis=0)
    scale = op.norm_inf * np.abs(z).max(axis=0) + np.abs(rhs).max(axis=0)
    return residual / (greens.UNIT_ROUNDOFF * np.where(scale > 0, scale, 1.0))


@pytest.mark.parametrize("shape", ["(N,)", "(m, N)"])
def test_backward_error_is_bitwise_the_column_formula(disk_op, shape):
    nodes = disk_op.grid.interior_count
    g = np.random.default_rng(11).standard_normal(
        (nodes,) if shape == "(N,)" else (4, nodes))
    g[..., :5] = 0.0
    rhs = g.T
    z = disk_op.factorization().solve(rhs)
    new = greens._backward_errors(disk_op, rhs, z)
    old = _column_backward_errors(disk_op, rhs, z)
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def test_backward_error_of_subnormal_data_is_finite(disk_op):
    # UNIT_ROUNDOFF * scale underflows to 0 for a subnormal scale
    g = np.full((2, disk_op.grid.interior_count), 1e-320)
    g[1] = 1.0
    z = disk_op.factorization().solve(g.T)
    with np.errstate(divide="raise"):
        errors = greens._backward_errors(disk_op, g.T, z)
        with pytest.raises(SolverFailure, match=r"backward error \d"):
            apply_K(disk_op, g[0])
    assert np.isfinite(errors[0]) and errors[0] > greens.BACKWARD_ERROR_C
    normal = _column_backward_errors(disk_op, g[1:].T, z[:, 1:])
    assert errors[1:].tobytes() == normal.tobytes()


def test_k1_is_solved_once_per_operator(monkeypatch):
    def fresh():
        return assemble(build_grid(UnitDisk(), 1.0 / 16.0),
                        EllipticCoefficients.laplacian(), Dirichlet())

    alone = spectral_radius(fresh())
    op = fresh()
    counting = _CountingLU(op.factorization())
    monkeypatch.setattr(op, "factorization", lambda: counting)
    k1, _ = k_one_norm(op)
    est = spectral_radius(op)
    # the power iteration's first step is K(1): no solve of its own
    assert counting.calls == est.iterations
    assert k_one_norm(op)[0] is k1 and counting.calls == est.iterations
    assert (est.r, est.mu1, est.iterations, est.residual) == (
        alone.r, alone.mu1, alone.iterations, alone.residual)
    assert est.eigenfunction.tobytes() == alone.eigenfunction.tobytes()
    assert k1.tobytes() == apply_K(op, np.ones(len(k1))).tobytes()

import math

import numpy as np
import pytest

from conesolve import (Dirichlet, EllipticCoefficients, Nonlinearity,
                       ProblemInstance, UnitDisk, apply_T, assemble,
                       build_grid, certify, check_supersolution,
                       construct_subsolution, k_one_norm, monotone_iterate,
                       spectral_radius)
from conesolve import fixedpoint
from conesolve.errors import BoxViolation, MonotonicityViolation, NoConvergence
from conesolve.nonlinearity import (BOX_SLACK, box_violation, max_over_domain,
                                    nemytskii_apply)
from conesolve.verify import CRITERIA, VerifyContext, run_criterion

RHO = 15 * math.pi / 64


def constant_state(grid, levels):
    return np.outer(levels, np.ones(grid.interior_count))


def reference_problem(disk_op, lambdas=(1.6, 5.0)):
    nl = Nonlinearity.from_strings(
        ["sqrt(max(u1,u2)) + tan(max(u1,u2))", "max(u1,u2)^2"], (RHO, RHO))
    return ProblemInstance(disk_op, nl, lambdas)


def constant_problem(disk_op):
    nl = Nonlinearity.from_strings(["1"], (1.0,))
    return ProblemInstance(disk_op, nl, (1.0,))


def test_constant_nonlinearity_gives_k1(disk_op):
    p = constant_problem(disk_op)
    k1, _ = k_one_norm(disk_op)
    for val in (0.0, 0.3, 1.0):
        tu = apply_T(p, constant_state(disk_op.grid, (val,)))
        assert np.array_equal(tu[0], k1)


def test_zero_is_fixed_point(disk_op):
    p = reference_problem(disk_op)
    tz = apply_T(p, np.zeros((2, disk_op.grid.interior_count)))
    assert np.abs(tz).max() == 0.0


def test_apply_T_constant_field_is_lambda_m_K1(disk_op):
    p = reference_problem(disk_op)
    k1, _ = k_one_norm(disk_op)
    tu = apply_T(p, constant_state(disk_op.grid, (RHO, RHO)))
    m1 = math.sqrt(RHO) + math.tan(RHO)
    m2 = RHO * RHO
    for i, m in enumerate((m1, m2)):
        expected = p.lambdas[i] * m * k1
        assert tu[i] == pytest.approx(expected, rel=1e-12)


def test_apply_T_on_a_stack_matches_each_state(disk_op):
    p = reference_problem(disk_op)
    grid = disk_op.grid
    a = constant_state(grid, (RHO / 2, RHO / 3))
    b = constant_state(grid, (RHO, RHO / 5))
    stacked = apply_T(p, np.stack([a, b]))
    assert stacked.shape == (2, 2, grid.interior_count)
    for state, t in ((a, stacked[0]), (b, stacked[1])):
        assert t == pytest.approx(apply_T(p, state), rel=1e-12, abs=1e-15)


def test_lambda_scaling(disk_op):
    p1 = reference_problem(disk_op, (0.8, 2.5))
    p2 = reference_problem(disk_op, (1.6, 5.0))
    u = constant_state(disk_op.grid, (RHO / 2, RHO / 3))
    assert apply_T(p2, u) == pytest.approx(2.0 * apply_T(p1, u), rel=1e-12)


def test_supersolution_constant_one(disk_op):
    nl = Nonlinearity.from_strings(["1"], (1.0,))
    p = ProblemInstance(disk_op, nl, (1.0,))
    ok, margin = check_supersolution(p, constant_state(disk_op.grid, (1.0,)))
    assert ok
    assert margin == pytest.approx(0.75, abs=1e-9)


def test_supersolution_reference_lambdas(disk_op):
    p = reference_problem(disk_op)
    beta = constant_state(disk_op.grid, (RHO, RHO))
    ok, margin = check_supersolution(p, beta)
    assert ok and margin > 0


def test_supersolution_fails_for_large_lambda(disk_op):
    p = reference_problem(disk_op, (16.0, 50.0))
    beta = constant_state(disk_op.grid, (RHO, RHO))
    ok, margin = check_supersolution(p, beta)
    assert not ok and margin < 0


def test_subsolution_linear_above_and_below_threshold(disk_op):
    # for f(z) = z the eigenfunction is an exact test case: lambda K phi is
    # (lambda / mu1) phi, so a subsolution exists iff lambda > mu1
    nl = Nonlinearity.from_strings(["u1"], (1.0,))
    est = spectral_radius(disk_op)
    above = ProblemInstance(disk_op, nl, (1.1 * est.mu1,))
    below = ProblemInstance(disk_op, nl, (0.9 * est.mu1,))
    assert construct_subsolution(above, est, 0, 0.5) is not None
    assert construct_subsolution(below, est, 0, 0.5) is None


def test_subsolution_reference_system(disk_op):
    est = spectral_radius(disk_op)
    p = reference_problem(disk_op)
    # delta = 10 validated for rho0 = 0.01: mu1 / 10 < 1.6
    alpha = construct_subsolution(p, est, 0, 0.01)
    assert alpha is not None
    assert np.all(alpha <= apply_T(p, alpha) + 1e-12)
    assert np.all(alpha[1] == 0.0)


def test_monotone_iterate_constant_two_steps(disk_op):
    p = constant_problem(disk_op)
    k1, _ = k_one_norm(disk_op)
    beta = constant_state(disk_op.grid, (1.0,))
    rep = monotone_iterate(p, beta, tol=1e-12)
    assert rep.iterations <= 2
    assert rep.lower is None
    assert rep.upper.residual == 0.0
    assert np.array_equal(rep.upper.solution[0], k1)


def test_monotone_iterate_zero_start(disk_op):
    # 0 is a supersolution and the trivial fixed point: one step reaches it
    p = reference_problem(disk_op)
    zero = np.zeros((2, disk_op.grid.interior_count))
    rep = monotone_iterate(p, zero, tol=1e-10)
    assert rep.iterations == 1
    assert rep.lower is None
    assert rep.upper.converged_to_zero
    assert rep.upper.norm == 0.0


def test_monotone_iterate_reference_system(disk_op):
    p = reference_problem(disk_op)
    beta = constant_state(disk_op.grid, (RHO, RHO))
    rep = monotone_iterate(p, beta, tol=1e-9, record_iterates=True).upper
    assert rep.residual <= 1e-9
    assert not rep.converged_to_zero
    assert 0 < rep.norm <= RHO
    # history of norms is non-increasing and the iterates are nodewise
    # non-increasing
    assert all(a >= b - 1e-12 for a, b in zip(rep.history, rep.history[1:]))
    for a, b in zip(rep.iterates, rep.iterates[1:]):
        assert np.all(b <= a + 1e-12)


def test_monotone_iterate_rejects_bad_start(disk_op):
    p = reference_problem(disk_op)
    tiny = constant_state(disk_op.grid, (1e-3, 1e-3))
    with pytest.raises(MonotonicityViolation):
        # T(tiny) is far above tiny, so tiny is not a supersolution
        monotone_iterate(p, tiny)


def test_monotone_iterate_detects_nonmonotone_f(disk_op):
    # f = 1 - u1 is decreasing: the second step breaks the ordering
    nl = Nonlinearity.from_strings(["1 - u1"], (1.0,))
    p = ProblemInstance(disk_op, nl, (1.0,))
    beta = constant_state(disk_op.grid, (1.0,))
    with pytest.raises(MonotonicityViolation):
        monotone_iterate(p, beta, tol=1e-10)


def test_monotone_iterate_needs_a_start(disk_op, monkeypatch):
    # the supersolution is required, and a subsolution alone is refused
    # before T is applied
    applied = []
    monkeypatch.setattr(fixedpoint, "apply_T", lambda *args: applied.append(1))
    p = reference_problem(disk_op)
    zero = np.zeros((2, disk_op.grid.interior_count))
    with pytest.raises(TypeError, match="beta"):
        monotone_iterate(p)
    with pytest.raises(TypeError, match="beta"):
        monotone_iterate(p, alpha=zero)
    assert applied == []


def test_T_monotone_on_ordered_pairs(disk_op):
    p = reference_problem(disk_op)
    rng = np.random.default_rng(42)
    grid = disk_op.grid
    for _ in range(10):
        u = rng.uniform(0, RHO, (2, grid.interior_count))
        v = np.minimum(u + rng.uniform(0, RHO / 2, u.shape), RHO)
        assert np.all(apply_T(p, u) <= apply_T(p, v) + 1e-10)


def test_two_sided_iterate_sandwich(disk_op):
    est = spectral_radius(disk_op)
    p = reference_problem(disk_op)
    alpha = construct_subsolution(p, est, 0, 0.01)
    beta = constant_state(disk_op.grid, (RHO, RHO))
    report = monotone_iterate(p, beta, alpha=alpha, tol=1e-10,
                              record_iterates=True)
    for a, b in zip(report.lower.iterates, report.upper.iterates):
        assert np.all(a <= b + 1e-9)
    assert len(report.lower.iterates) == report.iterations + 1
    assert report.lower.residual <= 1e-10 and report.upper.residual <= 1e-10
    # upper limit is the greatest fixed point, lower the smallest
    assert report.lower.norm <= report.upper.norm + 1e-9


def test_two_sided_iterate_checks_the_sandwich(disk_op):
    # f = 1 - u1 is decreasing: 0 is a subsolution and 1 a supersolution,
    # yet T 0 = K(1) lies above T 1 = 0, so the first step crosses
    nl = Nonlinearity.from_strings(["1 - u1"], (1.0,))
    p = ProblemInstance(disk_op, nl, (1.0,))
    zero = constant_state(disk_op.grid, (0.0,))
    one = constant_state(disk_op.grid, (1.0,))
    with pytest.raises(MonotonicityViolation, match="exceeded"):
        monotone_iterate(p, one, alpha=zero)


def test_certify_constant_solution(disk_op):
    p = constant_problem(disk_op)
    k1, _ = k_one_norm(disk_op)
    cert = certify(p, k1[None, :], tol=1e-9)
    assert cert.certified
    assert cert.residual <= 1e-12


def test_certify_zero_not_nonzero(disk_op):
    p = reference_problem(disk_op)
    cert = certify(p, np.zeros((2, disk_op.grid.interior_count)), tol=1e-9)
    assert not cert.certified
    assert cert.residual == 0.0
    assert "trivial" in cert.verdict()


def test_certify_rejects_perturbed_solution(disk_op):
    p = constant_problem(disk_op)
    k1, _ = k_one_norm(disk_op)
    shifted = np.minimum(k1 + 0.1, 1.0)[None, :]
    cert = certify(p, shifted, tol=1e-9)
    assert not cert.certified
    assert cert.residual > 1e-9


def test_a_nan_that_no_f_reads_leaves_the_box(disk_op):
    nl = Nonlinearity.from_strings(["1 + u2", "u2^2"], (1.0, 1.0))
    p = ProblemInstance(disk_op, nl, (1.0, 1.0))
    u = constant_state(disk_op.grid, (0.5, 0.5))
    u[0, 7] = np.nan
    with pytest.raises(BoxViolation,
                       match=r"component u1 leaves the box \[0, 1.0\] by nan"):
        apply_T(p, u)


def _inside(judge):
    """judge(), or False where it raises BoxViolation."""
    try:
        return judge()
    except BoxViolation:
        return False


# rho + BOX_SLACK rounds to a double more than BOX_SLACK above each rho
@pytest.mark.parametrize("rho", [0.7363107781851077, 0.3, 1.0, 2.5, 1e4])
@pytest.mark.parametrize("offset, inside", [
    (BOX_SLACK, False), (BOX_SLACK / 2, True), (2 * BOX_SLACK, False),
    (np.nan, False)])
def test_one_box_rule_judges_every_caller(disk_op, rho, offset, inside):
    """nemytskii_apply, max_over_domain and certify agree on a state whose
    second component sits at rho + offset; the first stays at -BOX_SLACK,
    which is inside."""
    nl = Nonlinearity.from_strings(["u1 + u2", "u1 * u2"], (rho, rho))
    p = ProblemInstance(disk_op, nl, (1.0, 1.0))
    levels = (-BOX_SLACK, rho + offset)
    state = constant_state(disk_op.grid, levels)
    verdicts = [
        _inside(lambda: nemytskii_apply(nl, state, disk_op.grid) is not None),
        _inside(lambda: max_over_domain(nl, 0, [levels], disk_op.grid)
                is not None),
        certify(p, state).in_box,
        box_violation(nl, state) is None]
    assert verdicts == [inside] * 4


def test_certify_judges_a_state_outside_the_box(disk_op):
    # certify returns a "not certified" verdict where apply_T would raise
    nl = Nonlinearity.from_strings(["u1 + u2", "u1 * u2"], (1.0, 1.0))
    p = ProblemInstance(disk_op, nl, (1.0, 1.0))
    state = constant_state(disk_op.grid, (0.5, 1.0 + 2 * BOX_SLACK))
    cert = certify(p, state)
    assert not cert.in_box and not cert.certified
    assert math.isnan(cert.residual)
    assert "inside box:         no" in cert.to_text().splitlines()
    assert cert.verdict() == "not certified"


def test_from_below_limit_below_from_above_limit(disk_op):
    est = spectral_radius(disk_op)
    p = reference_problem(disk_op)
    alpha = construct_subsolution(p, est, 0, 0.01)
    beta = constant_state(disk_op.grid, (RHO, RHO))
    low = monotone_iterate(p, beta, alpha=alpha, tol=1e-10).lower
    high = monotone_iterate(p, beta, tol=1e-10).upper
    assert np.all(low.solution <= high.solution + 1e-9)


def test_problem_instance_validation(disk_op):
    nl = Nonlinearity.from_strings(["u1"], (1.0,))
    with pytest.raises(ValueError):
        ProblemInstance(disk_op, nl, (0.0,))
    with pytest.raises(ValueError):
        ProblemInstance(disk_op, nl, (1.0, 2.0))


def test_monotone_iterate_budget_exhaustion(disk_op):
    p = reference_problem(disk_op)
    beta = constant_state(disk_op.grid, (RHO, RHO))
    with pytest.raises(NoConvergence):
        monotone_iterate(p, beta, tol=1e-12, max_iter=2)


def _bracket(op):
    p = reference_problem(op)
    alpha = construct_subsolution(p, spectral_radius(op), 0, 0.01)
    return p, alpha, constant_state(op.grid, (RHO, RHO))


def _plain_limit(p, start, tol):
    """u <- T u until |u - T u| <= tol; returns (steps, last iterate)."""
    u = start
    for steps in range(1000):
        tu = apply_T(p, u)
        if np.abs(u - tu).max() <= tol:
            return steps, u
        u = tu
    raise AssertionError("plain iteration did not converge")


def test_rejected_candidates_keep_the_order_and_the_limit(disk_op,
                                                          monkeypatch):
    # halve every candidate, which puts it below the fixed point where
    # T w <= w fails
    p = reference_problem(disk_op)
    beta = constant_state(disk_op.grid, (RHO, RHO))
    honest = monotone_iterate(p, beta, tol=1e-10).upper
    propose = fixedpoint._Anderson.candidate

    def spoiled(self):
        w = propose(self)
        return None if w is None else 0.5 * w

    monkeypatch.setattr(fixedpoint._Anderson, "candidate", spoiled)
    report = monotone_iterate(p, beta, tol=1e-10, record_iterates=True)
    upper = report.upper
    assert upper.proposed > 0 and upper.accepted == 0
    assert len(upper.iterates) == report.iterations + 1
    for k, b in enumerate(upper.iterates):
        assert np.all(apply_T(p, b) <= b + 1e-12)
        assert k == 0 or np.all(b <= upper.iterates[k - 1] + 1e-12)
    assert upper.residual <= 1e-10
    assert np.abs(upper.solution - honest.solution).max() <= 1e-9


def _crossing_bracket(disk_op, monkeypatch):
    """A two-half bracket whose pairs of candidates cross: with a monotone
    map with stable fixed points near 0.107 and 0.893, 0.85 is a
    subsolution and 0.15 a supersolution, but T 0.85 > T 0.15."""
    def staircase(p, u):
        return 0.5 + 0.4 * np.tanh(6.0 * (np.asarray(u) - 0.5))

    def crossing(self):
        w = propose(self)
        if w is None:
            return None
        return np.full_like(w, 0.85 if self.f.sum() > 0 else 0.15)

    propose = fixedpoint._Anderson.candidate
    monkeypatch.setattr(fixedpoint, "apply_T", staircase)
    monkeypatch.setattr(fixedpoint._Anderson, "candidate", crossing)
    return (reference_problem(disk_op),
            constant_state(disk_op.grid, (0.0, 0.0)),
            constant_state(disk_op.grid, (1.0, 1.0)))


def test_crossing_candidates_are_rejected_together(disk_op, monkeypatch):
    # the pair of candidates would cross, so both must be rejected
    p, zero, one = _crossing_bracket(disk_op, monkeypatch)
    report = monotone_iterate(p, one, alpha=zero, tol=1e-12)
    for half in (report.lower, report.upper):
        assert half.proposed > 0 and half.accepted == 0
    assert report.lower.norm == pytest.approx(0.1070, abs=1e-3)
    assert report.upper.norm == pytest.approx(0.8930, abs=1e-3)


@pytest.mark.parametrize("crossing", [False, True],
                         ids=["shipped system", "crossing candidates"])
def test_the_crossing_is_judged_once_per_step(disk_op, monkeypatch,
                                              crossing):
    # one verdict on T v_lower <= T v_upper for the start, one per step,
    # and one more for each step whose candidates crossed and were reverted
    # (in a run that completes, those are the verdicts that found a crossing)
    if crossing:
        p, alpha, beta = _crossing_bracket(disk_op, monkeypatch)
    else:
        p, alpha, beta = _bracket(disk_op)
    verdicts = []
    judge = fixedpoint._crossed

    def counting(*args):
        verdicts.append(judge(*args))
        return verdicts[-1]

    monkeypatch.setattr(fixedpoint, "_crossed", counting)
    report = monotone_iterate(p, beta, alpha=alpha, tol=1e-12 if crossing
                              else 1e-9)
    reverted = sum(verdicts)
    assert report.iterations > 1 and (reverted > 0) == crossing
    assert len(verdicts) == 1 + report.iterations + reverted


def test_anderson_steps_cut_the_plain_iteration():
    grid = build_grid(UnitDisk(), 1.0 / 32.0)
    op = assemble(grid, EllipticCoefficients.laplacian(), Dirichlet())
    p, alpha, beta = _bracket(op)
    tol = 1e-9
    report = monotone_iterate(p, beta, alpha=alpha, tol=tol)
    plain_steps = max(_plain_limit(p, alpha, tol)[0],
                      _plain_limit(p, beta, tol)[0])
    assert report.iterations <= 0.7 * plain_steps
    assert report.upper.accepted > 0 and report.lower.accepted > 0
    # the plain iterates, run to a tighter residual, meet the same limits
    for start, half in ((alpha, report.lower), (beta, report.upper)):
        _, limit = _plain_limit(p, start, 1e-13)
        assert np.abs(half.solution - limit).max() <= tol


def test_recorded_iterates_are_the_accepted_states(disk_op):
    p, alpha, beta = _bracket(disk_op)
    report = monotone_iterate(p, beta, alpha=alpha, tol=1e-10,
                              record_iterates=True)
    assert report.upper.accepted > 0
    # every recorded state is a sub- (lower) or supersolution (upper), the
    # halves are ordered, and each sequence is monotone
    lows, highs = report.lower.iterates, report.upper.iterates
    assert len(lows) == len(highs) == report.iterations + 1
    for k, (a, b) in enumerate(zip(lows, highs)):
        assert np.all(a <= apply_T(p, a) + 1e-12)
        assert np.all(apply_T(p, b) <= b + 1e-12)
        assert np.all(a <= b + 1e-12)
        if k:
            assert np.all(lows[k - 1] <= a + 1e-12)
            assert np.all(b <= highs[k - 1] + 1e-12)
    ctx = VerifyContext(1.0 / 32.0)
    for cid in (6, 7):
        assert run_criterion(CRITERIA[cid - 1], ctx).status == "PASS"


def test_end_to_end_criterion_fails_when_certify_rejects(monkeypatch):
    from conesolve import verify

    def reject(p, u, tol):
        return fixedpoint.Certificate(
            residual=1.0, min_value=0.0, norm=1.0, in_box=True,
            nonzero=True, certified=False, tol=tol)

    monkeypatch.setattr(verify, "certify", reject)
    result = run_criterion(CRITERIA[5], VerifyContext(1.0 / 16.0))
    assert result.status == "FAIL"
    assert "residual 1.00e+00 (<= 1e-9)" in result.detail


def test_negligible_norm_is_one_rule(disk_op):
    # a limit of norm exactly NONZERO_FACTOR * tol is trivial for the
    # engine and for the certificate alike
    p = constant_problem(disk_op)
    k1, _ = k_one_norm(disk_op)
    tol = float(np.abs(k1).max()) / fixedpoint.NONZERO_FACTOR
    beta = constant_state(disk_op.grid, (1.0,))
    limit = monotone_iterate(p, beta, tol=tol).upper
    cert = certify(p, limit.solution, tol=tol)
    assert limit.norm == fixedpoint.NONZERO_FACTOR * tol
    assert limit.converged_to_zero and not cert.nonzero
    assert not cert.certified
    assert "trivial" in cert.verdict()

import math

import numpy as np
import pytest

from conesolve import (Nonlinearity, Rectangle, UnitDisk, build_grid,
                       check_growth, check_monotone, max_over_domain,
                       nemytskii_apply)
from conesolve.errors import BoxViolation, EvalDomainError, GridMismatch
from conesolve.nonlinearity import growth_sample, sample_domain

RHO = 15 * math.pi / 64
M1 = math.sqrt(RHO) + math.tan(RHO)          # 1.7644326998289304
M2 = RHO * RHO                               # 0.5421535620715588


def constant_state(grid, levels):
    return np.outer(levels, np.ones(grid.interior_count))


def reference_system():
    return Nonlinearity.from_strings(
        ["sqrt(max(u1,u2)) + tan(max(u1,u2))", "max(u1,u2)^2"], (RHO, RHO))


def test_nemytskii_square_component_at_box_corner(disk_grid):
    nl = reference_system()
    u = constant_state(disk_grid, (RHO, RHO))
    out = nemytskii_apply(nl, u, disk_grid)[..., 1, :]
    assert out == pytest.approx(np.full(disk_grid.interior_count, M2),
                                       rel=1e-14)
    assert M2 == pytest.approx(0.5421535620715588, rel=1e-12)


def test_nemytskii_zero_stays_zero(disk_grid):
    nl = reference_system()
    u = np.zeros((2, disk_grid.interior_count))
    for i in range(2):
        out = nemytskii_apply(nl, u, disk_grid)[..., i, :]
        assert np.all(out == 0.0)


def test_nemytskii_sqrt_tan_component(disk_grid):
    nl = reference_system()
    u = constant_state(disk_grid, (RHO, RHO))
    out = nemytskii_apply(nl, u, disk_grid)[..., 0, :]
    assert out == pytest.approx(np.full(disk_grid.interior_count, M1),
                                       rel=1e-14)
    assert M1 == pytest.approx(1.7644326998289304, rel=1e-12)


def test_box_violation_raised(disk_grid):
    nl = reference_system()
    u = constant_state(disk_grid, (RHO + 1e-6, 0.0))
    with pytest.raises(BoxViolation):
        nemytskii_apply(nl, u, disk_grid)


def test_nemytskii_on_a_stack_of_states(disk_grid):
    nl = reference_system()
    a = constant_state(disk_grid, (RHO, RHO))
    b = np.zeros_like(a)
    out = nemytskii_apply(nl, np.stack([a, b]), disk_grid)[..., 0, :]
    assert out.shape == (2, disk_grid.interior_count)
    assert np.array_equal(out[0], nemytskii_apply(nl, a, disk_grid)[..., 0, :])
    assert np.all(out[1] == 0.0)


def test_nemytskii_rejects_a_state_of_the_wrong_shape(disk_grid):
    nl = reference_system()
    with pytest.raises(GridMismatch):
        nemytskii_apply(nl, constant_state(disk_grid, (RHO,)), disk_grid)


def test_eval_domain_error_propagates(disk_grid):
    nl = Nonlinearity.from_strings(["tan(u1)"], (3.0,))
    u = constant_state(disk_grid, (math.pi / 2,))
    with pytest.raises(EvalDomainError):
        nemytskii_apply(nl, u, disk_grid)


def test_clamping_is_idempotent(disk_grid):
    nl = reference_system()
    raw = constant_state(disk_grid, (RHO + 5e-11, -5e-11))
    clamped = constant_state(disk_grid, (RHO, 0.0))
    for i in range(2):
        a = nemytskii_apply(nl, raw, disk_grid)[..., i, :]
        b = nemytskii_apply(nl, clamped, disk_grid)[..., i, :]
        assert np.array_equal(a, b)


def test_check_monotone_accepts_reference_system():
    nl = reference_system()
    for i in range(2):
        rep = check_monotone(nl, i, 10_000, 2024 + i, UnitDisk())
        assert rep.passed
        assert rep.witness is None


def test_check_monotone_rejects_difference_with_witness():
    nl = Nonlinearity.from_strings(["u1 - u2", "u1"], (1.0, 1.0))
    rep = check_monotone(nl, 0, 1000, 7, UnitDisk())
    assert not rep.passed
    w = rep.witness
    assert w is not None
    assert w["f_u"] > w["f_v"] + 1e-12
    assert all(a <= b for a, b in zip(w["u"], w["v"]))


def test_check_growth_accepts_sqrt_tan():
    # tan s >= s on [0, pi/2) makes delta = 1 valid on the whole sub-box
    nl = reference_system()
    rep = check_growth(nl, 0, delta=1.0, rho0=0.7, samples=10_000,
                       seed=11, domain=UnitDisk())
    assert rep.passed


def test_check_growth_rejects_square_with_witness():
    nl = Nonlinearity.from_strings(["u1^2"], (1.0,))
    rep = check_growth(nl, 0, delta=1.0, rho0=0.5, samples=2000,
                       seed=5, domain=UnitDisk())
    assert not rep.passed
    w = rep.witness
    assert w is not None
    assert w["f"] < w["delta_u"] - 1e-12


@pytest.mark.parametrize("domain", [UnitDisk(), Rectangle(0.0, 1.0, 0.0, 2.0)])
def test_growth_sample_scaled_by_rho0_is_a_fresh_draw(domain):
    # check_growth on its own draws the domain points and then
    # rng.uniform(0, rho0, (n, samples)) from a fresh generator; one shared
    # sample scaled by each swept rho0 must give the same bits
    nl = reference_system()
    x1, x2, unit = growth_sample(nl, 1000, 7, domain)
    for k in range(1, 21):
        rho0 = RHO * 0.5 ** k
        rng = np.random.default_rng(7)
        px, py = sample_domain(domain, rng, 1000)
        u = rng.uniform(0.0, rho0, (nl.n, 1000))
        assert (x1.tobytes(), x2.tobytes()) == (px.tobytes(), py.tobytes())
        assert (rho0 * unit).tobytes() == u.tobytes()


def test_check_growth_vacuous_when_pivot_vanishes():
    # with rho0 tiny, delta * u1 sits inside the comparison slack, so even
    # f = 0 passes: the bound is vacuous where u_{i0} = 0
    nl = Nonlinearity.from_strings(["0", "u1"], (1.0, 1.0))
    rep = check_growth(nl, 0, delta=1.0, rho0=1e-13, samples=500,
                       seed=3, domain=UnitDisk())
    assert rep.passed


def test_check_growth_monotone_in_delta():
    nl = reference_system()
    for delta in (0.25, 0.5, 1.0):
        rep = check_growth(nl, 0, delta=delta, rho0=0.7, samples=2000,
                           seed=17, domain=UnitDisk())
        assert rep.passed


def test_check_reports_are_deterministic():
    nl = reference_system()
    a = check_monotone(nl, 0, 500, 99, UnitDisk())
    b = check_monotone(nl, 0, 500, 99, UnitDisk())
    assert a == b


def test_check_report_rendering():
    nl = Nonlinearity.from_strings(["u1 - u2", "u1"], (1.0, 1.0))
    rep = check_monotone(nl, 0, 200, 7, UnitDisk())
    text = rep.to_text()
    assert "FAIL" in text and "witness" in text
    row = rep.csv_row()
    assert row[1] == "fail" and row[2]


def test_max_over_domain_reference_values(disk_grid):
    nl = reference_system()
    assert max_over_domain(nl, 1, (RHO, RHO), disk_grid) == \
        pytest.approx(M2, rel=1e-14)
    assert max_over_domain(nl, 0, (RHO, RHO), disk_grid) == \
        pytest.approx(M1, rel=1e-14)


def test_max_over_domain_x_dependent():
    grid = build_grid(Rectangle(0, 1, 0, 1), 0.25)
    nl = Nonlinearity.from_strings(["x1*u1"], (1.0,))
    m = max_over_domain(nl, 0, (1.0,), grid)
    # attained at the interior node nearest x1 = 1
    assert m == pytest.approx(0.75)


def test_max_over_domain_grid_independent_for_x_free(disk_grid, square_grid):
    nl = reference_system()
    a = max_over_domain(nl, 0, (RHO / 2, RHO / 3), disk_grid)
    b = max_over_domain(nl, 0, (RHO / 2, RHO / 3), square_grid)
    assert a == b


def test_max_over_domain_validates_beta(disk_grid):
    nl = reference_system()
    with pytest.raises(BoxViolation):
        max_over_domain(nl, 0, (2 * RHO, RHO), disk_grid)

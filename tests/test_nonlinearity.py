import math

import numpy as np
import pytest

from conesolve import (Nonlinearity, Rectangle, UnitDisk, build_grid,
                       check_growth, check_monotone, max_over_domain,
                       nemytskii_apply)
from conesolve.errors import BoxViolation, EvalDomainError, GridMismatch
from conesolve.nonlinearity import growth_sample

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
        px, py = domain.sample(rng, 1000)
        u = rng.uniform(0.0, rho0, (nl.n, 1000))
        assert (x1.tobytes(), x2.tobytes()) == (px.tobytes(), py.tobytes())
        assert (rho0 * unit).tobytes() == u.tobytes()


def test_check_growth_vacuous_when_pivot_vanishes():
    # with rho0 tiny, delta * u1 is far below an absolute slack of 1e-12;
    # the slack shrinks with the compared values, so f = 0 still fails
    nl = Nonlinearity.from_strings(["0", "u1"], (1.0, 1.0))
    rep = check_growth(nl, 0, delta=1.0, rho0=1e-13, samples=500,
                       seed=3, domain=UnitDisk())
    assert not rep.passed and rep.witness["f"] == 0.0


def test_check_monotone_rejects_a_decrease_below_the_slack():
    # f moves by at most rho = 1e-13 across the box, which is less than
    # CHECK_SLACK, but at values near 1e-3
    nl = Nonlinearity.from_strings(["1e-3 - s"], (1e-13,))
    rep = check_monotone(nl, 0, 10_000, 1234, UnitDisk())
    assert not rep.passed
    assert rep.witness["f_u"] > rep.witness["f_v"]


def test_check_growth_rejects_a_tiny_box():
    # f = s^2 and 1e4 * s both lie far below CHECK_SLACK on [0, 5e-18]
    nl = Nonlinearity.from_strings(["s^2"], (1e-17,))
    rep = check_growth(nl, 0, delta=1e4, rho0=5e-18, samples=10_000,
                       seed=1234, domain=UnitDisk())
    assert not rep.passed
    assert rep.witness["f"] < rep.witness["delta_u"]


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
    assert max_over_domain(nl, 1, [(RHO, RHO)], disk_grid) == \
        pytest.approx([M2], rel=1e-14)
    assert max_over_domain(nl, 0, [(RHO, RHO)], disk_grid) == \
        pytest.approx([M1], rel=1e-14)


def test_max_over_domain_x_dependent():
    grid = build_grid(Rectangle(0, 1, 0, 1), 0.25)
    nl = Nonlinearity.from_strings(["x1*u1"], (1.0,))
    m = max_over_domain(nl, 0, [(1.0,), (0.5,)], grid)
    # attained at the interior node nearest x1 = 1
    assert m == pytest.approx([0.75, 0.375])


def test_max_over_domain_grid_independent_for_x_free(disk_grid, square_grid):
    nl = reference_system()
    a = max_over_domain(nl, 0, [(RHO / 2, RHO / 3)], disk_grid)
    b = max_over_domain(nl, 0, [(RHO / 2, RHO / 3)], square_grid)
    assert a == b


def test_max_over_domain_validates_beta(disk_grid):
    nl = reference_system()
    # the first component outside the box is named, with its excess
    with pytest.raises(BoxViolation, match=rf"component u1 leaves the box "
                       rf"\[0, {RHO!r}\] by {RHO:.3e}"):
        max_over_domain(nl, 0, [(RHO, RHO), (2 * RHO, RHO),
                                (RHO, -1.0)], disk_grid)
    with pytest.raises(BoxViolation):
        max_over_domain(nl, 0, [(RHO, np.nan)], disk_grid)
    assert max_over_domain(nl, 0, np.empty((0, 2)), disk_grid).shape == (0,)
    with pytest.raises(ValueError):
        max_over_domain(nl, 0, [RHO, RHO], disk_grid)


@pytest.mark.parametrize("budget", ["default", "3 states", "node chunks"])
def test_max_over_domain_stack_is_bitwise_one_state_at_a_time(
        monkeypatch, budget):
    from conesolve import expr as expr_module
    from conesolve import nonlinearity
    evaluate = expr_module.eval_on_arrays
    grid = build_grid(UnitDisk(), 1 / 32)
    nodes = grid.interior_count
    nl = Nonlinearity.from_strings(
        ["(1 + x1*x2) * sqrt(u1) + exp(-x2) * u2^2", "max(u1,u2)^2"],
        (1.0, 2.0))
    rng = np.random.default_rng(11)
    states = rng.uniform(0.0, 1.0, (7, 2)) * nl.box
    states[3] = (0.0, 2.0 + 1e-11)      # clamped onto the box
    reference = np.array([[max_over_domain(nl, i, state[None], grid)[0]
                           for state in states] for i in range(2)])
    limit = {"default": nonlinearity.BLOCK_ELEMENTS, "3 states": 3 * nodes,
             "node chunks": nodes + 1}[budget]
    monkeypatch.setattr(nonlinearity, "BLOCK_ELEMENTS", limit)
    shapes = []

    def recording(expr, bindings):
        out = evaluate(expr, bindings)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(expr_module, "eval_on_arrays", recording)
    for i in range(2):
        m = max_over_domain(nl, i, states, grid)
        assert m.tobytes() == reference[i].tobytes()
    # the x-free f2 is one evaluation on the states; f1 stays within the
    # budget and covers every state's nodes once
    *blocks, f2 = shapes
    assert f2 == (7,)
    assert max(rows * cols for rows, cols in blocks) <= limit
    assert sum(rows * cols for rows, cols in blocks) == 7 * nodes
    if budget == "default":
        assert all(cols == nodes for _, cols in blocks)
    else:
        assert all(rows == 7 and cols < nodes for rows, cols in blocks)

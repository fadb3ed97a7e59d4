import math

import numpy as np
import pytest

from conesolve import (Nonlinearity, Rectangle, UnitDisk, build_grid,
                       max_over_domain, ratio_curve, single_range,
                       system_ranges)
from conesolve import expr as expr_module
from conesolve.errors import (ConditionCViolation, EvalDomainError,
                              NonpositiveM)
from conesolve.expr import eval_on_arrays
from conesolve.ranges import CURVE_BLOCK_ELEMENTS

RHO = 15 * math.pi / 64
MU1_DISK = 5.783185962946785        # square of the first zero of J0
UPPER_1 = 4 * RHO / (math.sqrt(RHO) + math.tan(RHO))
UPPER_2 = 4 / RHO


def reference_system():
    return Nonlinearity.from_strings(
        ["sqrt(max(u1,u2)) + tan(max(u1,u2))", "max(u1,u2)^2"], (RHO, RHO))


def scalar_sqrt_tan():
    return Nonlinearity.from_strings(["sqrt(s) + tan(s)"],
                                     (math.pi / 2 - 1e-6,))


def test_system_ranges_reference_uppers(disk_grid):
    ranges = system_ranges(reference_system(), (RHO, RHO), 0, 10.0,
                           0.25, MU1_DISK, disk_grid)
    assert ranges[0].upper == pytest.approx(UPPER_1, rel=1e-12)
    assert ranges[1].upper == pytest.approx(UPPER_2, rel=1e-12)
    assert ranges[0].upper == pytest.approx(1.669, abs=5e-3)
    assert ranges[1].upper == pytest.approx(5.432, abs=5e-3)
    assert ranges[0].lower == pytest.approx(MU1_DISK / 10.0)
    assert ranges[1].lower == 0.0
    assert not ranges[0].empty and not ranges[1].empty


def test_system_ranges_empty_for_small_delta(disk_grid):
    # delta = 1 is valid (tan s >= s) but gives mu1 / 1 > upper_1
    ranges = system_ranges(reference_system(), (RHO, RHO), 0, 1.0,
                           0.25, MU1_DISK, disk_grid)
    assert ranges[0].lower == pytest.approx(MU1_DISK)
    assert ranges[0].empty
    assert not ranges[1].empty
    # a larger validated delta reopens the interval
    again = system_ranges(reference_system(), (RHO, RHO), 0, 10.0,
                          0.25, MU1_DISK, disk_grid)
    assert not again[0].empty
    assert again[0].lower == pytest.approx(0.5783185962946785, rel=1e-12)


def test_linear_scalar_system_range_empty(disk_grid):
    nl = Nonlinearity.from_strings(["u1"], (1.0,))
    ranges = system_ranges(nl, (1.0,), 0, 1.0, 0.25, MU1_DISK, disk_grid)
    assert ranges[0].upper == pytest.approx(4.0)
    assert ranges[0].lower == pytest.approx(MU1_DISK)
    assert ranges[0].empty


def test_condition_c_violation(disk_grid):
    nl = Nonlinearity.from_strings(["u1", "0"], (1.0, 1.0))
    with pytest.raises(ConditionCViolation):
        system_ranges(nl, (1.0, 1.0), 0, 1.0, 0.25, MU1_DISK, disk_grid)


def test_x_dependent_m_gets_safety_factor():
    grid = build_grid(UnitDisk(), 1 / 8)
    nl = Nonlinearity.from_strings(["u1", "(x1^2 + x2^2)*u2 + 1"],
                                   (1.0, 1.0))
    plain = system_ranges(nl, (1.0, 1.0), 0, 10.0, 0.25, MU1_DISK, grid,
                          m_safety=1.0)
    inflated = system_ranges(nl, (1.0, 1.0), 0, 10.0, 0.25, MU1_DISK, grid,
                             m_safety=1.01)
    # only the x-dependent component shrinks
    assert inflated[0].upper == plain[0].upper
    assert inflated[1].upper == pytest.approx(plain[1].upper / 1.01)


def test_m_homogeneity_keeps_upper_invariant(disk_grid):
    # for f(u) = u the maximum is homogeneous of degree 1 in beta, so the
    # upper bound beta / (m(beta) |K1|) does not depend on beta at all
    nl = Nonlinearity.from_strings(["u1"], (4.0,))
    r1 = system_ranges(nl, (1.0,), 0, 1.0, 0.25, MU1_DISK, disk_grid)
    r2 = system_ranges(nl, (2.0,), 0, 1.0, 0.25, MU1_DISK, disk_grid)
    assert r1[0].upper == pytest.approx(r2[0].upper, rel=1e-12)
    # for constant f the maximum is degree 0 and the upper bound doubles
    nl_const = Nonlinearity.from_strings(["1"], (4.0,))
    c1 = system_ranges(nl_const, (1.0,), 0, 1.0, 0.25, MU1_DISK, disk_grid)
    c2 = system_ranges(nl_const, (2.0,), 0, 1.0, 0.25, MU1_DISK, disk_grid)
    assert c2[0].upper == pytest.approx(2.0 * c1[0].upper, rel=1e-12)


def test_single_range_reference_sup():
    rng = single_range(scalar_sqrt_tan(), math.pi / 2 - 1e-6, 1.0, 0.7,
                       0.25, MU1_DISK, grid_points=1000)
    assert rng.upper == pytest.approx(1.66924, abs=1e-3)
    assert rng.upper == pytest.approx(1.6692395899937982, abs=1e-6)
    assert rng.lower == pytest.approx(MU1_DISK)
    assert not rng.lower_strict and rng.upper_strict


def test_single_range_linear_ratio_constant():
    nl = Nonlinearity.from_strings(["s"], (1.0,))
    rng = single_range(nl, 1.0, 1.0, 0.5, 0.25, MU1_DISK)
    assert rng.upper == pytest.approx(4.0, rel=1e-9)
    assert rng.empty     # mu1 > 4


def test_single_range_constant_f_sup_at_rho():
    nl = Nonlinearity.from_strings(["1"], (0.8,))
    rng = single_range(nl, 0.8, 8.0, 0.4, 0.25, MU1_DISK)
    assert rng.upper == pytest.approx(4 * 0.8, rel=1e-9)


def test_single_range_refinement_stable():
    base = single_range(scalar_sqrt_tan(), math.pi / 2 - 1e-6, 1.0, 0.7,
                        0.25, MU1_DISK, grid_points=1000)
    fine = single_range(scalar_sqrt_tan(), math.pi / 2 - 1e-6, 1.0, 0.7,
                        0.25, MU1_DISK, grid_points=2000)
    assert abs(base.upper - fine.upper) < 1e-6


def test_nonpositive_m_detected():
    nl = Nonlinearity.from_strings(["0"], (1.0,))
    with pytest.raises(NonpositiveM):
        single_range(nl, 1.0, 1.0, 0.5, 0.25, MU1_DISK)


def test_ratio_curve_shape():
    s, ratios = ratio_curve(scalar_sqrt_tan(), math.pi / 2 - 1e-6, 0.25,
                            500)
    assert len(s) == len(ratios) == 500
    assert s[0] == pytest.approx((math.pi / 2 - 1e-6) * 1e-8)
    assert ratios.max() <= 1.6692395899937982 + 1e-9


def test_range_describe_mentions_emptiness(disk_grid):
    nl = Nonlinearity.from_strings(["u1"], (1.0,))
    rng = system_ranges(nl, (1.0,), 0, 1.0, 0.25, MU1_DISK, disk_grid)[0]
    text = rng.describe()
    assert "EMPTY" in text and "mu1" in text


def test_contains_respects_strictness(disk_grid):
    ranges = system_ranges(reference_system(), (RHO, RHO), 0, 10.0,
                           0.25, MU1_DISK, disk_grid)
    r0 = ranges[0]
    assert not r0.contains(r0.lower)        # lower bound is open
    assert r0.contains(r0.upper)            # upper bound is closed
    assert r0.contains(1.6)
    assert not r0.contains(5.0)


# The rect-robin benchmark problem: x-dependent f on a 31 x 31 interior grid.
ROBIN_F = "(1 + 0.5*x1*x2) * (sqrt(s) + exp(s) - 1)"


def per_point_ratio(nl, s, k1_norm, grid):
    """s / (M(s) k1_norm) for one s, M evaluated on its own: the reference
    the blocked curve must reproduce bit for bit."""
    if nl.uses_x(0):
        m = max_over_domain(nl, 0, [s], grid)
    else:
        m = float(np.max(eval_on_arrays(
            nl.exprs[0], nl.bindings(0.0, 0.0, [np.clip(s, 0.0, nl.box[0])]))))
    if m <= 0:
        raise NonpositiveM(f"M({s:g}) = {m:g} <= 0")
    return s / (m * k1_norm)


def per_point_curve(nl, rho, k1_norm, grid_points, grid):
    s = np.geomspace(rho * 1e-8, rho, grid_points)
    return s, np.array([per_point_ratio(nl, float(v), k1_norm, grid)
                        for v in s])


@pytest.mark.parametrize("case", ["rect-robin", "sqrt+tan"])
def test_ratio_curve_is_bitwise_the_per_point_walk(case):
    if case == "rect-robin":
        nl = Nonlinearity.from_strings([ROBIN_F], (1.0,))
        grid = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 1 / 32)
    else:
        nl = scalar_sqrt_tan()
        grid = build_grid(UnitDisk(), 1 / 64)
    rho = nl.box[0]
    s, ratios = ratio_curve(nl, rho, 0.1234, 1000, grid)
    s_ref, ratios_ref = per_point_curve(nl, rho, 0.1234, 1000, grid)
    assert s.tobytes() == s_ref.tobytes()
    assert ratios.tobytes() == ratios_ref.tobytes()


@pytest.mark.parametrize("source,error", [
    # M(s) = 0.3 - s once s > 0.3
    ("(1 + x1) * (0.3 - s)", NonpositiveM),
    ("0.3 - s", NonpositiveM),
    # M(s) <= 0 on [0.3, 0.35) comes before the log's domain error, in the
    # same block of s values
    ("(1 + x1) * (0.3 - s) + 0*log(0.35 - s)", NonpositiveM),
    ("(1 + x1) * sqrt(0.35 - s)", EvalDomainError),
])
def test_ratio_curve_failure_names_the_first_failing_s(source, error):
    nl = Nonlinearity.from_strings([source], (1.0,))
    grid = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 1 / 32)
    with pytest.raises(error) as reference:
        per_point_curve(nl, 1.0, 0.1, 1000, grid)
    with pytest.raises(error) as blocked:
        ratio_curve(nl, 1.0, 0.1, 1000, grid)
    assert str(blocked.value) == str(reference.value)


def test_ratio_curve_blocks_stay_within_the_element_budget(monkeypatch):
    sizes = []

    def recording(expr, bindings):
        out = eval_on_arrays(expr, bindings)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(expr_module, "eval_on_arrays", recording)
    grid = build_grid(UnitDisk(), 1 / 64)
    nl = Nonlinearity.from_strings(["(1 + x1^2) * (sqrt(s) + tan(s))"],
                                   (math.pi / 2 - 1e-6,))
    ratio_curve(nl, nl.box[0], 0.25, 1000, grid)
    rows = CURVE_BLOCK_ELEMENTS // grid.interior_count
    assert max(sizes) <= CURVE_BLOCK_ELEMENTS
    assert sizes == [rows * grid.interior_count] * (1000 // rows)
    # a nonlinearity without x is one evaluation on the s values
    sizes.clear()
    ratio_curve(scalar_sqrt_tan(), math.pi / 2 - 1e-6, 0.25, 1000, grid)
    assert sizes == [1000]


def test_single_range_uses_a_given_curve():
    nl = scalar_sqrt_tan()
    rho = math.pi / 2 - 1e-6
    curve = ratio_curve(nl, rho, 0.25, 1000)
    given = single_range(nl, rho, 1.0, 0.7, 0.25, MU1_DISK, curve=curve)
    built = single_range(nl, rho, 1.0, 0.7, 0.25, MU1_DISK)
    assert given == built


def golden_section_sup(nl, lo, hi, k1_norm, grid):
    """Golden-section maximization of the per-point ratio on [lo, hi], the
    refinement single_range used before the zoom; returns the best value
    evaluated."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def fn(v):
        return per_point_ratio(nl, v, k1_norm, grid)

    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    best = max(fc, fd)
    while (b - a) > 1e-12 * max(1.0, abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        best = max(best, fc, fd)
    return best


ZOOM_CASES = ["rect-robin", "scalar_disk", "sqrt+tan"]


def zoom_case(case):
    """(nonlinearity, rho, grid_points, grid) of a single-equation case."""
    if case == "rect-robin":
        return (Nonlinearity.from_strings([ROBIN_F], (1.0,)), 1.0, 1000,
                build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 1 / 32))
    if case == "scalar_disk":
        from importlib.resources import files

        from conesolve.config import parse_config
        cfg = parse_config(
            (files("conesolve") / "configs" / "scalar_disk.cfg").read_text())
        return (cfg.nonlinearity(), cfg.rho[0], cfg.grid_points,
                build_grid(cfg.domain, cfg.h))
    return scalar_sqrt_tan(), math.pi / 2 - 1e-6, 2000, None


@pytest.mark.parametrize("case", ZOOM_CASES)
def test_zoom_sup_matches_a_golden_section_reference(case):
    nl, rho, grid_points, grid = zoom_case(case)
    s, ratios = ratio_curve(nl, rho, 0.25, grid_points, grid)
    rng = single_range(nl, rho, 1.0, rho / 2, 0.25, MU1_DISK,
                       grid_points=grid_points, grid=grid)
    k = int(np.argmax(ratios))
    reference = max(float(ratios[k]), golden_section_sup(
        nl, float(s[k - 1]), float(s[min(k + 1, len(s) - 1)]), 0.25, grid))
    assert rng.upper >= ratios.max()
    assert rng.upper == pytest.approx(reference, rel=1e-12, abs=0)


# rect-robin (961 nodes) under a smaller element budget: 5 s values fit,
# or fewer than 2, when each round's 16 points go in node chunks
BUDGET_CASES = {"budget of 5 rows": (5 * 961, 5),
                "block floor of 2": (1000, 16)}


@pytest.mark.parametrize("case", ZOOM_CASES + list(BUDGET_CASES))
def test_zoom_rounds_are_blocks_within_the_element_budget(monkeypatch,
                                                          case):
    from conesolve import ranges
    nl, rho, grid_points, grid = zoom_case(
        "rect-robin" if case in BUDGET_CASES else case)
    curve = ratio_curve(nl, rho, 0.25, grid_points, grid)
    budget, per_round = BUDGET_CASES.get(
        case, (CURVE_BLOCK_ELEMENTS, ranges.ZOOM_POINTS))
    monkeypatch.setattr(ranges, "CURVE_BLOCK_ELEMENTS", budget)
    blocks = []

    def recording(expr, bindings):
        out = eval_on_arrays(expr, bindings)
        blocks.append(out.shape if out.ndim == 2 else (out.size, 1))
        return out

    monkeypatch.setattr(expr_module, "eval_on_arrays", recording)
    single_range(nl, rho, 1.0, rho / 2, 0.25, MU1_DISK,
                 grid_points=grid_points, grid=grid, curve=curve)
    nodes = grid.interior_count if nl.uses_x(0) else 1
    *rounds, m_rho = blocks
    assert m_rho == (1, nodes) and rounds
    # every block holds one round's points on a chunk of the nodes, within
    # the budget, and each round's chunks cover the nodes once
    assert [rows for rows, _ in rounds] == [per_round] * len(rounds)
    assert max(rows * cols for rows, cols in rounds) <= budget
    covered = sum(cols for _, cols in rounds)
    assert covered % nodes == 0
    if per_round == ranges.ZOOM_POINTS:
        # a round of 16 points shrinks the bracket 8.5-fold
        assert covered // nodes <= 20


@pytest.mark.parametrize("source,error", [
    # M(s) <= 0 where |s - 0.99| <= 0.0015, between the last two samples
    ("(1 + x1) * (1 - 2*max(0, 0.003 - abs(s - 0.99))/0.003)",
     NonpositiveM),
    # the log's domain error comes first in a block, the sqrt's at a
    # smaller s: the error must name the sqrt
    ("(1 + x1) * (1 + 0*log(abs(s - 0.9935) - 0.001)"
     " + 0*sqrt(abs(s - 0.9893) - 0.0005))", EvalDomainError),
    ("1 + 0*log(abs(s - 0.9935) - 0.001) + 0*sqrt(abs(s - 0.9893) - 0.0005)",
     EvalDomainError),
])
def test_zoom_failure_names_the_smallest_failing_s(monkeypatch, source,
                                                   error):
    nl = Nonlinearity.from_strings([source], (1.0,))
    grid = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 1 / 32)
    s, _ = curve = ratio_curve(nl, 1.0, 0.25, 1000, grid)
    blocks = []

    def recording(expr, bindings):
        blocks.append(np.ravel(bindings["s"]))
        return eval_on_arrays(expr, bindings)

    monkeypatch.setattr(expr_module, "eval_on_arrays", recording)
    with pytest.raises(error) as zoomed:
        single_range(nl, 1.0, 1.0, 0.5, 0.25, MU1_DISK, grid=grid,
                     curve=curve)
    monkeypatch.undo()
    block = [b for b in blocks if b.size > 1][-1]
    assert np.all((block > s[-2]) & (block < s[-1]))
    with pytest.raises(error) as reference:
        for v in block:
            per_point_ratio(nl, float(v), 0.25, grid)
    assert str(zoomed.value) == str(reference.value)
    if error is EvalDomainError:
        assert zoomed.value.function == "sqrt"

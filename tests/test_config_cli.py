import csv
import io
import json
import math

import numpy as np
import pytest

from conesolve.cli import _write_csv, main
from conesolve.config import parse_config
from conesolve.errors import ConfigError
from conesolve.geometry import Rectangle, UnitDisk
from conesolve.operator import Dirichlet, Neumann, Robin

SYSTEM_CFG = """
domain = unitdisk
h = 0.0625
bc = dirichlet
n = 2
f1 = "sqrt(max(u1,u2)) + tan(max(u1,u2))"
f2 = "max(u1,u2)^2"
rho1 = 0.7363107781851077
rho2 = 0.7363107781851077
lambda1 = 1.6
lambda2 = 5.0
i0 = 1
delta = 10
rho0 = 0.01
tol = 1e-9
seed = 7
samples = 2000
"""

SCALAR_LINEAR_CFG = """
domain = unitdisk
h = 0.0625
n = 1
f1 = "s"
rho1 = 1.0
i0 = 1
delta = 1
rho0 = 0.5
samples = 500
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_reference_config():
    cfg = parse_config(SYSTEM_CFG)
    assert isinstance(cfg.domain, UnitDisk)
    assert isinstance(cfg.bc, Dirichlet)
    assert cfg.n == 2
    assert cfg.h == 0.0625
    assert cfg.lambdas == [1.6, 5.0]
    assert cfg.i0 == 0               # 1-based in the file
    assert cfg.rho[0] == pytest.approx(15 * math.pi / 64)
    nl = cfg.nonlinearity()
    assert nl.n == 2


def test_parse_rectangle_and_bc_variants():
    cfg = parse_config("""
domain = rectangle 0 2 -1 1
h = 0.25
n = 1
f1 = "u1"
rho1 = 1
bc = robin "1 + x1^2"
c = "1"
""")
    assert cfg.domain == Rectangle(0.0, 2.0, -1.0, 1.0)
    assert isinstance(cfg.bc, Robin)
    b = cfg.bc.b(np.array([2.0]), np.array([0.0]))
    assert float(b[0]) == 5.0
    cfg2 = parse_config("domain = rectangle 0 1 0 1\nh = 0.25\nn = 1\n"
                        'f1 = "u1"\nrho1 = 1\nbc = neumann\nc = "1"\n')
    assert isinstance(cfg2.bc, Neumann)


@pytest.mark.parametrize("mutation,fragment", [
    ("missing_domain", "domain"),
    ("bad_key", "unknown key"),
    ("bad_i0", "i0"),
    ("unquoted_f", "must be quoted"),
    ("negative_rho", "rho1"),
    ("bad_lambda_count", "lambda"),
])
def test_config_errors(mutation, fragment):
    base = SYSTEM_CFG
    if mutation == "missing_domain":
        text = base.replace("domain = unitdisk", "")
    elif mutation == "bad_key":
        text = base + "\nfrobnicate = 3\n"
    elif mutation == "bad_i0":
        text = base.replace("i0 = 1", "i0 = 5")
    elif mutation == "unquoted_f":
        text = base.replace('f2 = "max(u1,u2)^2"', "f2 = max(u1,u2)^2")
    elif mutation == "negative_rho":
        text = base.replace("rho1 = 0.7363107781851077", "rho1 = -1")
    else:
        text = base.replace("lambda2 = 5.0", "")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment.split()[0] in str(err.value)


def test_comments_and_duplicates():
    assert parse_config(SYSTEM_CFG + "\n# trailing comment\n").n == 2
    with pytest.raises(ConfigError):
        parse_config(SYSTEM_CFG + "\nh = 0.5\n")


def test_solve_end_to_end(tmp_path):
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    out = str(tmp_path / "out")
    code = main(["solve", "--config", cfg, "--out", out])
    assert code == 0
    solution = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert solution[0] == "x1,x2,u1,u2"
    # full precision columns round-trip
    first = solution[1].split(",")
    assert len(first) == 4
    assert float(first[2]) > 0
    for name in ("certificate.txt", "checks.csv", "iterations.csv",
                 "iteration_report.txt"):
        assert (tmp_path / "out" / name).exists()
    assert "certified" in (tmp_path / "out" / "certificate.txt").read_text()


def test_builtin_scalar_config_solves(tmp_path):
    from importlib.resources import files
    text = (files("conesolve") / "configs" / "scalar_disk.cfg").read_text()
    cfg = write(tmp_path, "scalar.cfg", text)
    out = tmp_path / "scalar_out"
    code = main(["solve", "--config", cfg, "--h", "0.125",
                 "--out", str(out)])
    assert code == 0
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "x1,x2,u1"


def test_solve_exit_1_on_monotonicity_failure(tmp_path):
    text = SYSTEM_CFG.replace('f1 = "sqrt(max(u1,u2)) + tan(max(u1,u2))"',
                              'f1 = "u1 - u2"')
    cfg = write(tmp_path, "bad.cfg", text)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1


def test_checks_csv_round_trips_through_csv_reader(tmp_path):
    # the failing check's witness is JSON with commas and quotes
    text = SYSTEM_CFG.replace('f1 = "sqrt(max(u1,u2)) + tan(max(u1,u2))"',
                              'f1 = "u1 - u2"')
    cfg = write(tmp_path, "bad.cfg", text)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    raw = (out / "checks.csv").read_text()
    rows = list(csv.reader(io.StringIO(raw)))
    assert rows[0] == ["condition", "result", "witness"]
    assert [len(row) for row in rows] == [3] * len(rows)
    (condition, result, witness), = rows[1:]
    assert (condition, result) == ("(a) f1 non-decreasing", "fail")
    assert set(json.loads(witness)) == {"x", "u", "v", "f_u", "f_v"}
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(rows)
    assert again.getvalue() == raw


def test_solve_exit_2_for_tiny_lambda(tmp_path):
    text = SYSTEM_CFG.replace("lambda1 = 1.6", "lambda1 = 1e-6")
    text = text.replace("lambda2 = 5.0", "lambda2 = 1e-6")
    cfg = write(tmp_path, "tiny.cfg", text)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2


def test_lower_half_failure_is_a_warning(tmp_path, capsys):
    # on the shipped scalar problem at h = 1/32 the swept subsolution is
    # tiny: the upper half converges in 10 steps, the lower one needs 14, so
    # a budget of 12 fails only the lower half
    from importlib.resources import files
    text = (files("conesolve") / "configs" / "scalar_disk.cfg").read_text()
    cfg = write(tmp_path, "scalar.cfg", text)
    out = tmp_path / "o"
    code = main(["solve", "--config", cfg, "--h", "0.03125", "--max-iter",
                 "12", "--out", str(out), "--csv"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "warning: lower iteration did not complete" in printed
    assert "iterations:        10" in printed
    assert not (out / "solution_lower.csv").exists()


def test_lambda_range_exits(tmp_path):
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    assert main(["lambda-range", "--config", cfg,
                 "--out", str(tmp_path / "a")]) == 0
    linear = write(tmp_path, "linear.cfg", SCALAR_LINEAR_CFG)
    assert main(["lambda-range", "--config", linear,
                 "--out", str(tmp_path / "b")]) == 3


def test_lambda_range_csv_artifacts(tmp_path):
    linear = write(tmp_path, "linear.cfg", SCALAR_LINEAR_CFG)
    out = tmp_path / "csv"
    main(["lambda-range", "--config", linear, "--out", str(out), "--csv"])
    ranges = (out / "ranges.csv").read_text().splitlines()
    assert ranges[0].startswith("component,lower,upper,empty")
    assert (out / "ratio_curve.csv").exists()


def test_spectrum_command(tmp_path, capsys):
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    out = tmp_path / "spec"
    code = main(["spectrum", "--config", cfg, "--out", str(out), "--csv"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "mu1" in printed and "iterations" in printed
    rows = (out / "eigenfunction.csv").read_text().splitlines()
    assert rows[0] == "x1,x2,phi"
    assert len(rows) == 794                    # header + interior nodes


def _cell_by_cell_csv(header, rows):
    """Reference writer: one cell at a time, floats as f"{x:.17g}"."""
    def cell(v):
        return f"{v:.17g}" if isinstance(v, float) else str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def test_csv_writer_matches_cell_by_cell_formatting(tmp_path):
    witness = json.dumps({"s": 0.1, "x": [-0.0, 5e-324], "f": "a,b"})
    rows = [[0, -0.0, 5e-324, "pass", witness],
            [1, 1e-300, 0.1, "", ""],
            [22, -1.7976931348623157e308, math.inf, "fail", "{}"],
            [-3, 2.0 / 3.0, 1e16, "pass (sampled)", witness]]
    header = ["k", "a", "b", "result", "witness"]
    path = tmp_path / "table.csv"
    _write_csv(path, header, list(zip(*rows)))
    assert path.read_bytes() == _cell_by_cell_csv(header, rows).encode()
    _write_csv(path, ["iteration", "norm"],
               [np.arange(3), np.array([-0.0, 0.1, 1e-300])])
    assert path.read_text() == _cell_by_cell_csv(
        ["iteration", "norm"], [[0, -0.0], [1, 0.1], [2, 1e-300]])
    _write_csv(path, ["x"], [np.array([])])
    assert path.read_text() == "x\n"


def test_missing_config_exit_66(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 66


def test_malformed_config_exit_64(tmp_path):
    cfg = write(tmp_path, "broken.cfg", "h = 0.5\n")
    assert main(["solve", "--config", cfg]) == 64


def test_overflowing_literal_in_config_exit_64(tmp_path, capsys):
    text = SYSTEM_CFG.replace('f2 = "max(u1,u2)^2"', 'f2 = "1e999 * u1"')
    cfg = write(tmp_path, "overflow.cfg", text)
    assert main(["solve", "--config", cfg]) == 64
    assert "overflows" in capsys.readouterr().err


def test_usage_error_exit_64():
    assert main(["no-such-command"]) == 64


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "green operator" in out
    assert len(out.strip().splitlines()) == 10


def test_verify_on_a_coarse_grid_skips_nothing(capsys):
    assert main(["verify", "--h", "0.125"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("[PASS]") for line in lines), lines


@pytest.mark.parametrize("command", ["lambda-range", "solve"])
def test_reports_are_bit_identical(tmp_path, capsys, command):
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        main([command, "--config", cfg, "--out", str(out), "--csv"])
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((capsys.readouterr().out, artifacts))
    assert runs[0][1], "the run wrote no artifacts"
    assert runs[0] == runs[1]


@pytest.mark.parametrize("flag,value", [("--tol", "-1"), ("--tol", "0"),
                                        ("--max-iter", "0"),
                                        ("--tol", "inf"), ("--seed", "-1")])
def test_invalid_overrides_exit_64(tmp_path, capsys, flag, value):
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    code = main(["solve", "--config", cfg, flag, value,
                 "--out", str(tmp_path / "o")])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("old,new", [("seed = 7", "seed = -1"),
                                     ("tol = 1e-9", "tol = inf")])
def test_negative_seed_or_infinite_tol_in_config_exit_64(tmp_path, capsys,
                                                         old, new):
    cfg = write(tmp_path, "bad.cfg", SYSTEM_CFG.replace(old, new))
    assert main(["solve", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    with pytest.raises(ConfigError):
        parse_config(SYSTEM_CFG.replace(old, new))


def test_shipped_system_certifies_at_h_1_128(tmp_path, capsys):
    from importlib.resources import files
    text = (files("conesolve") / "configs" / "system_disk.cfg").read_text()
    cfg = write(tmp_path, "system_disk.cfg", text)
    fine = ["--config", cfg, "--h", "0.0078125"]
    assert main(["spectrum", *fine, "--out", str(tmp_path / "s")]) == 0
    assert main(["solve", *fine, "--out", str(tmp_path / "o")]) == 0
    certificate = (tmp_path / "o" / "certificate.txt").read_text()
    assert "verdict:            certified nonzero positive solution" \
        in certificate


# The rect-robin benchmark problem: Robin rectangle, single equation with an
# x-dependent nonlinearity.
ROBIN_CFG = """
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
lambda1 = 1.0
i0 = 1
"""


@pytest.mark.parametrize("command", ["solve", "lambda-range"])
def test_ratio_curve_is_built_once_per_op(tmp_path, monkeypatch, command):
    from conesolve import cli, ranges
    calls = {"cli": 0, "ranges": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "ratio_curve",
                        counting("cli", cli.ratio_curve))
    monkeypatch.setattr(ranges, "ratio_curve",
                        counting("ranges", ranges.ratio_curve))
    cfg = write(tmp_path, "robin.cfg", ROBIN_CFG)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--csv"]) == 0
    assert calls == {"cli": 1, "ranges": 0}
    if command == "lambda-range":
        curve = (out / "ratio_curve.csv").read_text().splitlines()
        assert len(curve) == 1 + 1000


def _nested_growth_sweep(cfg):
    """The growth sweep as a loop that draws a fresh sample per candidate
    and checks every pair in full: the reference for the screened sweep."""
    from conesolve.cli import DELTA_SWEEP
    from conesolve.nonlinearity import check_growth
    nl = cfg.nonlinearity()
    deltas = [cfg.delta] if cfg.delta is not None else DELTA_SWEEP
    report = None
    for delta in deltas:
        for k in range(1, 21):
            rho0 = min(nl.box) * 0.5 ** k
            report = check_growth(nl, cfg.i0, delta, rho0, cfg.samples,
                                  cfg.seed, cfg.domain)
            if report.passed:
                return delta, rho0, report
    return None, None, report


SYSTEM_F1 = 'f1 = "sqrt(max(u1,u2)) + tan(max(u1,u2))"'
GROWTH_CASES = ["system_disk", "no pair passes", "scalar_disk", "rect-robin",
                "system_disk delta = 10", "domain error"]


def _growth_case_config(case):
    from importlib.resources import files
    configs = files("conesolve") / "configs"
    if case == "scalar_disk":
        return parse_config((configs / "scalar_disk.cfg").read_text())
    if case == "rect-robin":
        return parse_config(ROBIN_CFG)
    text = (configs / "system_disk.cfg").read_text()
    if case == "no pair passes":
        # f1 = u1^2 grows slower than any delta*u1 near 0
        text = text.replace(SYSTEM_F1, 'f1 = "u1^2"')
    elif case == "system_disk delta = 10":
        text += "delta = 10\n"
    elif case == "domain error":
        # every rho0 above 1e-5 leaves the domain of sqrt
        text = text.replace(SYSTEM_F1, 'f1 = "sqrt(1e-5 - u1) + 1e3*u1"')
    return parse_config(text)


def _growth_ladder(cfg):
    from conesolve.cli import DELTA_SWEEP
    from conesolve.nonlinearity import growth_sample
    nl = cfg.nonlinearity()
    deltas = [cfg.delta] if cfg.delta is not None else list(DELTA_SWEEP)
    rho0s = [min(nl.box) * 0.5 ** k for k in range(1, 21)]
    return nl, deltas, rho0s, growth_sample(nl, cfg.samples, cfg.seed,
                                            cfg.domain)


@pytest.mark.parametrize("case", GROWTH_CASES)
def test_growth_sweep_draws_once_and_matches_the_nested_loop(monkeypatch,
                                                              case):
    from conesolve import cli, nonlinearity
    cfg = _growth_case_config(case)
    delta_ref, rho0_ref, rep_ref = _nested_growth_sweep(cfg)

    draws, checks = [], []
    sample_domain = nonlinearity.sample_domain
    check_growth = cli.check_growth
    monkeypatch.setattr(nonlinearity, "sample_domain",
                        lambda *a: draws.append(1) or sample_domain(*a))
    monkeypatch.setattr(cli, "check_growth",
                        lambda *a: checks.append(1) or check_growth(*a))
    pipe = cli.Pipeline(cfg, None, None, cfg.nonlinearity(), None, 0.0,
                        None)
    delta, rho0, rep = cli._growth_parameters(pipe)
    assert (delta, rho0) == (delta_ref, rho0_ref)
    assert rep.to_text() == rep_ref.to_text()
    assert rep.csv_row() == rep_ref.csv_row()
    assert len(draws) == 1
    if case == "system_disk":
        assert delta == 1000.0
        assert rho0 == cfg.rho[0] * 2.0 ** -20
        assert len(checks) == 1         # the screen fails the other 39
    elif case == "no pair passes":
        assert delta is None and not rep.passed
        assert rep.witness is not None
        assert len(checks) == 1
    elif case == "domain error":
        # the 16 rho0 outside the domain of sqrt fail at every delta in the
        # screen, so only the passing pair is checked in full (the nested
        # loop makes 37 full checks)
        assert delta == 1000.0 and rho0 == min(cfg.rho) * 2.0 ** -17
        assert len(checks) == 1
    else:
        assert rep.passed and len(checks) == 1


@pytest.mark.parametrize("case", GROWTH_CASES)
def test_growth_screen_marks_only_pairs_the_full_check_fails(case):
    from conesolve.nonlinearity import check_growth, screen_growth
    cfg = _growth_case_config(case)
    nl, deltas, rho0s, sample = _growth_ladder(cfg)
    failed = screen_growth(nl, cfg.i0, deltas, rho0s, sample)
    assert failed.shape == (len(deltas), len(rho0s))
    for d, r in zip(*np.nonzero(failed)):
        rep = check_growth(nl, cfg.i0, deltas[d], rho0s[r], cfg.samples,
                           cfg.seed, cfg.domain, sample)
        assert not rep.passed, (deltas[d], rho0s[r])
    if case == "domain error":
        # rho0 = rho 2^-k leaves the domain of sqrt for k <= 16
        assert failed[:, :16].all()
        assert not failed[1:, 16:].any()
    else:
        assert failed.any()


@pytest.mark.parametrize("case", GROWTH_CASES)
def test_growth_screen_holds_at_most_one_check_of_entries(monkeypatch,
                                                          case):
    from conesolve import expr
    from conesolve.nonlinearity import screen_growth
    cfg = _growth_case_config(case)
    nl, deltas, rho0s, sample = _growth_ladder(cfg)
    sizes = []
    eval_on_arrays = expr.eval_on_arrays

    def recording(e, bindings):
        sizes.extend(np.size(v) for v in bindings.values())
        return eval_on_arrays(e, bindings)

    monkeypatch.setattr(expr, "eval_on_arrays", recording)
    screen_growth(nl, cfg.i0, deltas, rho0s, sample)
    assert sizes and max(sizes) <= cfg.samples


def test_single_equation_grid_points_below_100_exit_64(tmp_path, capsys):
    cfg = write(tmp_path, "robin.cfg", ROBIN_CFG + "grid_points = 50\n")
    code = main(["lambda-range", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "grid_points" in err

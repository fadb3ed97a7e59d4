import argparse
import contextlib
import csv
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conesolve import cli
from conesolve.cli import _write_csv, build_parser, main
from conesolve.config import (COEFFICIENTS, MAX_SAMPLES, SETTINGS,
                              load_config, parse_config)
from conesolve.errors import (ConfigError, MonotonicityViolation,
                              NoConvergence)
from conesolve.geometry import Rectangle, UnitDisk, format_domain
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
    assert cfg.nl.n == 2


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


@pytest.mark.parametrize("spec,text", [
    (UnitDisk(), "unitdisk"),
    (Rectangle(0, 1, 0, 1), "rectangle 0.0 1.0 0.0 1.0"),
    (Rectangle(0.1, 0.7, -0.3, 1 / 3),
     "rectangle 0.1 0.7 -0.3 0.3333333333333333"),
])
def test_a_domain_is_formatted_in_config_syntax(spec, text):
    assert format_domain(spec) == text


@pytest.mark.parametrize("domain", [
    "unitdisk", "rectangle 0 1 0 1", "Rectangle 0.1 0.7 -0.3 0.3",
    "rectangle -0.7 0.2999999999999999 1e-1 1.3"])
def test_the_grid_line_parses_back_to_the_domain(tmp_path, capsys, domain):
    text = (f"domain = {domain}\nh = 0.1\nn = 1\nf1 = \"1 + s\"\n"
            "rho1 = 1\nlambda1 = 1\n")
    spec = parse_config(text).domain
    main(["solve", "--config", write(tmp_path, "p.cfg", text),
          "--out", str(tmp_path / "out")])
    first = capsys.readouterr().out.splitlines()[0]
    printed = re.fullmatch(r"grid: (.+) h=0\.1 \(\d+ interior nodes\)",
                           first)[1]
    assert printed == format_domain(spec)
    assert parse_config(text.replace(domain, printed)).domain == spec


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


GELFAND_CFG = """
domain = unitdisk
h = 0.03125
n = 1
f1 = "exp(s/(1+0.1*s))"
rho1 = 20000
lambda1 = 2
i0 = 1
"""


def test_order_slack_scales_with_the_box(tmp_path, capsys):
    # |u| is about 1e4 here, so an order test can fail by a few ulps of it;
    # an absolute slack of 1e-12 broke the stacked run at iteration 11 and
    # dropped the lower half, although f is monotone and A an M-matrix
    out = tmp_path / "o"
    assert main(["solve", "--config", write(tmp_path, "gelfand.cfg",
                                            GELFAND_CFG),
                 "--out", str(out), "--csv"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert not [line for line in printed if line.startswith("warning:")]
    assert "iterations:        14" in printed
    assert ("bracket: lower limit norm 0.981397 <= upper limit norm "
            "10850.1") in printed
    assert (out / "solution_lower.csv").exists()


def test_both_halves_violating_order_aborts_with_exit_1(tmp_path,
                                                        monkeypatch):
    def violating(*args, **kwargs):
        raise MonotonicityViolation("planted")

    monkeypatch.setattr(cli, "monotone_iterate", violating)
    out = tmp_path / "o"
    code, printed, err, _ = _run_quietly(
        ["solve", "--config", write(tmp_path, "system.cfg", SYSTEM_CFG),
         "--out", str(out), "--csv"])
    assert code == 1 and err == ""
    assert "iteration aborted: planted" in printed.splitlines()
    assert sorted(p.name for p in out.iterdir()) == ["checks.csv"]


@pytest.mark.parametrize("text,k,lam,code", [
    # above lambda2's bound the supersolution check fails; below lambda1's
    # the run still certifies, since the bounds are only sufficient
    (SYSTEM_CFG.replace("lambda2 = 5.0", "lambda2 = 5.5"), 2, "5.5", 1),
    (SYSTEM_CFG.replace("lambda1 = 1.6", "lambda1 = 0.5"), 1, "0.5", 0),
    (ROBIN_CFG.replace("lambda1 = 1.0", "lambda1 = 100"), 1, "100", 1),
])
def test_lambda_outside_its_interval_is_a_warning(tmp_path, capsys, text, k,
                                                  lam, code):
    cfg = write(tmp_path, "outside.cfg", text)
    assert main(["solve", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == code
    assert (f"warning: lambda{k} = {lam} outside the admissible interval; "
            "existence is not guaranteed (the bound is sufficient, not "
            "necessary)") in capsys.readouterr().out.splitlines()


def test_no_subsolution_is_a_note_before_exit_2(tmp_path, capsys):
    text = SYSTEM_CFG.replace("lambda1 = 1.6", "lambda1 = 1e-6")
    text = text.replace("lambda2 = 5.0", "lambda2 = 1e-6")
    cfg = write(tmp_path, "tiny.cfg", text)
    assert main(["solve", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert ("note: no subsolution found by the eigenfunction sweep; the "
            "iteration may reach the trivial fixed point"
            in capsys.readouterr().out.splitlines())


def test_a_two_half_violation_falls_back_to_beta(tmp_path, monkeypatch,
                                                 capsys):
    iterate = cli.monotone_iterate
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    monkeypatch.setattr(cli, "construct_subsolution", lambda *args: None)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "none"),
                 "--csv"]) == 0
    monkeypatch.undo()
    for error in (MonotonicityViolation, NoConvergence):
        def failing_lower_half(problem, beta, alpha=None, **kwargs):
            if alpha is not None:
                raise error("planted")
            return iterate(problem, beta, **kwargs)

        out = tmp_path / error.__name__
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "monotone_iterate", failing_lower_half)
            assert main(["solve", "--config", cfg, "--out", str(out),
                         "--csv"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "warning: lower iteration did not complete: planted" in printed
        assert not any(line.startswith("bracket:") for line in printed)
        assert not (out / "solution_lower.csv").exists()
        # the fallback solves as a run that found no subsolution does
        assert ((out / "solution.csv").read_bytes()
                == (tmp_path / "none" / "solution.csv").read_bytes())


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


@pytest.mark.parametrize("command", ["solve", "lambda-range", "spectrum"])
def test_csv_help_names_the_files_the_flag_adds(tmp_path, command):
    text = SCALAR_LINEAR_CFG if command == "lambda-range" else SYSTEM_CFG
    cfg = write(tmp_path, "p.cfg", text)
    written = []
    for flags in ([], ["--csv"]):
        out = tmp_path / f"out{len(flags)}"
        with contextlib.redirect_stdout(io.StringIO()):
            main([command, "--config", cfg, "--out", str(out), *flags])
        # a run that writes nothing does not create --out
        written.append({path.name for path in out.iterdir()}
                       if out.exists() else set())
    added = written[1] - written[0]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    help_text, = [a.help for a in sub.choices[command]._actions
                  if "--csv" in a.option_strings]
    assert added and written[0] <= written[1]
    named = {word.strip(",") for word in help_text.split()
             if word.strip(",").endswith(".csv")}
    assert named == added


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


def test_unreadable_config_exit_66(tmp_path, capsys):
    # a directory exists but cannot be read as a file
    assert main(["solve", "--config", str(tmp_path)]) == 66
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


def test_iteration_budget_exhausted_exit_70(tmp_path, capsys):
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    assert main(["solve", "--config", cfg, "--max-iter", "1",
                 "--out", str(tmp_path / "o")]) == 70
    assert capsys.readouterr().err == (
        "error: monotone iteration did not converge in 1 iterations\n")


def test_subnormal_subsolution_fails_without_a_numpy_warning(tmp_path,
                                                            capsys):
    # UNIT_ROUNDOFF times a subnormal scale underflows to 0; the backward
    # error is still finite, and far above the bound
    cfg = write(tmp_path, "tiny.cfg",
                SYSTEM_CFG.replace("rho0 = 0.01", "rho0 = 1e-320"))
    with np.errstate(divide="raise"):
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 70
    assert re.fullmatch(r"error: backward error \d\.\d\de\+\d\d u exceeds "
                        r"100 u after one refinement step\n",
                        capsys.readouterr().err)


def test_nonpositive_m_j_fails_hypothesis_c_exit_1(tmp_path, capsys):
    for f2, reason in [
            ("0*u2", "m2(beta) = 0 <= 0; "),
            # m2 is sampled up to beta = rho2, where f2 has its pole
            ("1/(0.7363107781851077 - u2)",
             "domain error in '/' at argument 0.0")]:
        text = SYSTEM_CFG.replace('f2 = "max(u1,u2)^2"', f'f2 = "{f2}"')
        cfg = write(tmp_path, "zero.cfg", text)
        for command in ("solve", "lambda-range"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 1
            last = capsys.readouterr().out.splitlines()[-1]
            assert last.startswith(f"hypothesis (c) fails: {reason}")
            assert (out / "checks.csv").exists() == (command == "solve")


def test_unvalidated_growth_is_a_warning_in_lambda_range(tmp_path, capsys):
    # s^2 < delta s near 0 for every delta, so no (delta, rho0) passes
    text = SCALAR_LINEAR_CFG.replace('f1 = "s"', 'f1 = "s^2"')
    cfg = write(tmp_path, "square.cfg", text)
    assert main(["lambda-range", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert ("warning: no validated growth constant; using delta = 1 "
            "without certification") in capsys.readouterr().out.splitlines()


def test_malformed_config_exit_64(tmp_path):
    cfg = write(tmp_path, "broken.cfg", "h = 0.5\n")
    assert main(["solve", "--config", cfg]) == 64


@pytest.mark.parametrize("text,message", [
    (SYSTEM_CFG + "garbage\n", "line 18: expected 'key = value': 'garbage'"),
    (SYSTEM_CFG.replace("tol = 1e-9", "tol ="),
     "line 15: empty key or value: 'tol ='"),
    (SYSTEM_CFG.replace('"sqrt(max(u1,u2)) + tan(max(u1,u2))"', '"sqrt(u1'),
     "line 6: unterminated string for 'f1'"),
    (SYSTEM_CFG.replace("bc = dirichlet", "bc = periodic"),
     "line 4: unknown boundary condition 'periodic'"),
    (SYSTEM_CFG.replace("rho0 = 0.01", "rho0 = 0.9"),
     "rho0 must lie strictly between 0 and min rho"),
    (SYSTEM_CFG.replace('"max(u1,u2)^2"', '"1.2.3 * u2"'),
     "bad nonlinearity: malformed number '1.2.3' (column 1)"),
    (SYSTEM_CFG.replace('"max(u1,u2)^2"', '"u2 $ 1"'),
     "bad nonlinearity: unexpected character '$' (column 4)"),
    (SYSTEM_CFG.replace("bc = dirichlet", 'bc = dirichlet "1"'),
     "line 4: 'dirichlet' takes no coefficient"),
    (SYSTEM_CFG.replace("bc = dirichlet", 'bc = neumann "1"'),
     "line 4: 'neumann' takes no coefficient"),
], ids=["no equals sign", "empty value", "unterminated string",
        "unknown bc", "rho0 above rho", "malformed number",
        "unexpected character", "dirichlet with text", "neumann with text"])
def test_config_errors_exit_64(tmp_path, text, message):
    out = tmp_path / "o"
    code, printed, err, _ = _run_quietly(
        ["solve", "--config", write(tmp_path, "bad.cfg", text),
         "--out", str(out)])
    assert (code, printed, err) == (64, "", f"error: {message}\n")
    assert not out.exists()


def test_robin_elimination_on_too_coarse_a_grid_exits_65(tmp_path):
    text = (ROBIN_CFG.replace('bc = robin "1 + x1"', 'bc = robin "1"')
            .replace("h = 0.03125", "h = 0.5"))
    code, _, err, _ = _run_quietly(
        ["solve", "--config", write(tmp_path, "coarse.cfg", text),
         "--out", str(tmp_path / "o")])
    assert (code, err) == (65, "error: Neumann/Robin elimination needs at "
                               "least 3 subdivisions per axis\n")


def test_overflowing_literal_in_config_exit_64(tmp_path, capsys):
    text = SYSTEM_CFG.replace('f2 = "max(u1,u2)^2"', 'f2 = "1e999 * u1"')
    cfg = write(tmp_path, "overflow.cfg", text)
    assert main(["solve", "--config", cfg]) == 64
    assert "overflows" in capsys.readouterr().err


def test_a_config_that_is_not_utf8_exits_64(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xe9 \xff\n" + SYSTEM_CFG.encode())
    code, out, err, _ = _run_quietly(["solve", "--config", str(path),
                                      "--out", str(tmp_path / "o")])
    assert code == 64 and out == ""
    assert err == "error: config is not UTF-8: byte 0xe9 at offset 5\n"


def test_a_config_with_a_byte_order_mark_parses(tmp_path):
    # the mark is skipped, so the first line is still `domain = ...`
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + SYSTEM_CFG.lstrip().encode())
    cfg, ref = load_config(path), parse_config(SYSTEM_CFG)
    assert (cfg.domain, cfg.h, cfg.nl, cfg.lambdas, cfg.samples) == (
        ref.domain, ref.h, ref.nl, ref.lambdas, ref.samples)
    assert main(["spectrum", "--config", str(path)]) == 0


@pytest.mark.parametrize("command", ["solve", "lambda-range", "spectrum"])
def test_an_absurd_samples_value_exits_64(tmp_path, command):
    # refused while the config is read, before any array is made
    text = SYSTEM_CFG.replace("samples = 2000", f"samples = {10 ** 15}")
    assert parse_config(SYSTEM_CFG.replace(
        "samples = 2000", f"samples = {MAX_SAMPLES}")).samples == MAX_SAMPLES
    cfg = write(tmp_path, "samples.cfg", text)
    code, out, err, _ = _run_quietly([command, "--config", cfg,
                                      "--out", str(tmp_path / "o")])
    assert code == 64 and out == ""
    assert err == f"error: samples must be at most {MAX_SAMPLES}\n"


def test_a_solve_prepared_without_lambdas_prints_no_lambda_warning():
    # a library caller may prepare a solve before it picks the lambdas
    text = cli.prepare(parse_config(SCALAR_LINEAR_CFG)).to_text()
    assert "lambda1 in [" in text and "warning: lambda" not in text


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


def test_verify_reports_every_criterion_at_a_step_the_square_refuses(
        capsys):
    # h = 0.3 does not divide the unit square: the two criteria that build
    # it report the grid's error as their FAIL line, and the rest still run
    assert main(["verify", "--h", "0.3"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    refused = [line for line in lines if "error:" in line]
    assert [line.split()[1] for line in refused] == ["3", "8"]
    assert all(line.startswith("[FAIL]") and line.endswith(
        ": error: mesh step h=0.3 does not divide the x extent 1.0")
        for line in refused), refused


@pytest.mark.parametrize("h", ["0", "-0.25", "nan"])
def test_verify_refuses_a_step_that_is_not_positive(capsys, h):
    assert main(["verify", "--h", h]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: mesh step must be positive, got {float(h)}\n"


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
    assert main(["solve", *fine, "--out", str(tmp_path / "o"),
                 "--csv"]) == 0
    certificate = (tmp_path / "o" / "certificate.txt").read_text()
    assert "verdict:            certified nonzero positive solution" \
        in certificate
    # the certified norm at this mesh, within 10 tol, read from the table
    # of all 51,429 interior nodes
    solution = np.loadtxt(tmp_path / "o" / "solution.csv", delimiter=",",
                          skiprows=1)
    assert solution.shape == (51_429, 4)
    assert np.abs(solution[:, 2:]).max() == pytest.approx(
        0.216987517111, abs=10 * 1e-9)


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
    nl = cfg.nl
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
    nl = cfg.nl
    deltas = [cfg.delta] if cfg.delta is not None else list(DELTA_SWEEP)
    rho0s = [min(nl.box) * 0.5 ** k for k in range(1, 21)]
    return nl, deltas, rho0s, growth_sample(nl, cfg.samples, cfg.seed,
                                            cfg.domain)


@pytest.mark.parametrize("case", GROWTH_CASES)
def test_growth_sweep_draws_once_and_matches_the_nested_loop(monkeypatch,
                                                              case):
    from conesolve import cli
    cfg = _growth_case_config(case)
    delta_ref, rho0_ref, rep_ref = _nested_growth_sweep(cfg)

    draws, checks = [], []
    sample = type(cfg.domain).sample
    check_growth = cli.check_growth
    monkeypatch.setattr(type(cfg.domain), "sample",
                        lambda *a: draws.append(1) or sample(*a))
    monkeypatch.setattr(cli, "check_growth",
                        lambda *a: checks.append(1) or check_growth(*a))
    delta, rho0, rep = cli._growth_parameters(cfg)
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


def test_grid_points_is_an_unknown_key(tmp_path, capsys):
    cfg = write(tmp_path, "robin.cfg", ROBIN_CFG + "grid_points = 1000\n")
    code = main(["lambda-range", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 64
    line = ROBIN_CFG.count("\n") + 1
    assert capsys.readouterr().err.strip() == \
        f"error: line {line}: unknown key 'grid_points'"


@pytest.mark.parametrize("command,flag,value", [
    ("lambda-range", "--tol", "1e-9"), ("lambda-range", "--max-iter", "50"),
    ("spectrum", "--tol", "1e-9"), ("spectrum", "--max-iter", "50"),
    ("spectrum", "--seed", "7")])
def test_flags_a_command_does_not_read_exit_64(tmp_path, capsys, command,
                                               flag, value):
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    code = main([command, "--config", cfg, flag, value,
                 "--out", str(tmp_path / "o")])
    assert code == 64
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: unrecognized arguments: {flag} {value}"]
    assert not (tmp_path / "o").exists()


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    import runpy
    import sys

    from conesolve import __version__
    monkeypatch.setattr(sys, "argv", ["conesolve", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("conesolve", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"conesolve {__version__}\n"


# A linear single equation whose box bound the test chooses.
BOX_CFG = """
domain = unitdisk
h = 0.125
n = 1
f1 = "s"
rho1 = {rho}
lambda1 = 3
i0 = 1
"""


def _run_quietly(argv):
    """main(argv) with its stdout, stderr and warnings captured."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("command,consequence", [
    ("solve", "positivity of the iteration is not guaranteed"),
    ("lambda-range", "the power iteration may not converge to a positive "
                     "eigenpair"),
    ("spectrum", "the power iteration may not converge to a positive "
                 "eigenpair"),
])
def test_a_non_m_matrix_is_one_stdout_warning(tmp_path, command,
                                               consequence):
    from importlib.resources import files
    text = (files("conesolve") / "configs" / "system_disk.cfg").read_text()
    path = tmp_path / "a12.cfg"
    path.write_text(text + 'a12 = "0.3"\n')
    code, out, err, caught = _run_quietly(
        [command, "--config", str(path), "--h", "0.0625",
         "--out", str(tmp_path / "out")])
    assert code == 0
    assert [line for line in out.splitlines()
            if line.startswith("warning:")] == [
        f"warning: operator matrix is not an M-matrix; {consequence}"]
    assert err == "" and not caught


@pytest.mark.parametrize("text,extra,code,fragment", [
    (SYSTEM_CFG.replace("rho1 = 0.7363107781851077", "rho1 = inf"), [],
     64, "rho1 must be positive and finite"),
    (SYSTEM_CFG.replace("lambda1 = 1.6", "lambda1 = inf"), [],
     64, "lambda1 must be positive and finite"),
    (SYSTEM_CFG.replace("delta = 10", "delta = inf"), [],
     64, "delta must be positive and finite"),
    # grid errors name the domain as the grid: line writes it
    (ROBIN_CFG.replace("rectangle 0 1 0 1", "rectangle 0 inf 0 1"), [],
     65, "rectangle bounds must be finite: rectangle 0.0 inf 0.0 1.0"),
    (ROBIN_CFG.replace("rectangle 0 1 0 1", "rectangle 0 1e308 0 1e308"),
     [], 65, "nodes on rectangle 0.0 1e+308 0.0 1e+308, more than the "
     "2147483647 a grid can index"),
    (SYSTEM_CFG, ["--h", "1e-300"], 65, "h=1e-300 gives a lattice of about "
     "2e+300 x 2e+300 nodes on unitdisk, more than the 2147483647 a grid "
     "can index"),
    (ROBIN_CFG.replace('b1 = "2"', 'b1 = "1e308"'), [], 65, "overflows"),
    # elliptic: the stencil weight, not the eigenvalue, overflows
    (ROBIN_CFG.replace('a11 = "1 + 0.5*x1"', 'a11 = "1e308"'),
     ["--h", "0.0625"], 65, "a stencil weight overflows"),
    # expressions that parse but cannot be evaluated: coefficients, named
    # by their line and key, and an f_i that the subsolution sweep
    # evaluates at u2 = 0
    (SYSTEM_CFG + 'a11 = "sqrt(x1)"\n', [], 65, "domain error in 'sqrt'"),
    (ROBIN_CFG.replace('a11 = "1 + 0.5*x1"', 'a11 = "sqrt(x1 - 2)"'), [], 65,
     "error: line 6: cannot evaluate 'a11': domain error in 'sqrt' at "
     "argument -1.96875"),
    (ROBIN_CFG.replace('bc = robin "1 + x1"', 'bc = robin "sqrt(x1 - 2)"'),
     [], 65, "error: line 4: cannot evaluate 'bc': domain error in 'sqrt' "
     "at argument -2.0"),
    (SYSTEM_CFG.replace('f2 = "max(u1,u2)^2"',
                        'f2 = "sqrt(u2 - 1e-9) + max(u1,u2)^2"')
     .replace("lambda2 = 5.0", "lambda2 = 1.0"), [], 65,
     "domain error in 'sqrt' at argument -1e-09"),
    # K(1e308) overflows inside the LU solve: a NaN solve is not accepted
    (BOX_CFG.format(rho="1e308"), [], 70,
     "backward error nan u exceeds 100 u"),
    # nesting that used to end in a RecursionError
    *((SYSTEM_CFG.replace('f2 = "max(u1,u2)^2"', f'f2 = "{deep}"'), [], 64,
       "bad nonlinearity: expression nested deeper than 100 levels")
      for deep in ("(" * 200 + "u2" + ")" * 200,
                   "sqrt(" * 170 + "u2" + ")" * 170, "-" * 1000 + "u2",
                   "+".join(["u2"] * 2001))),
    (ROBIN_CFG.replace("rectangle 0 1 0 1", "rectangle 1 0 0 1"), [], 65,
     "error: rectangle bounds are inverted: rectangle 1.0 0.0 0.0 1.0"),
    (ROBIN_CFG.replace("rectangle 0 1 0 1", "rectangle 0 1 0 5"),
     ["--h", "1"], 65,
     "error: no interior nodes for rectangle 0.0 1.0 0.0 5.0 at h=1.0"),
], ids=["rho1 inf", "lambda1 inf", "delta inf", "rectangle to inf",
        "rectangle of 1e308", "h 1e-300", "b1 1e308", "a11 1e308",
        "a11 sqrt(x1)", "a11 sqrt(x1 - 2)", "bc sqrt(x1 - 2)",
        "f2 sqrt at u2 = 0", "rho1 1e308",
        "200 parentheses", "170 sqrt", "1000 minus signs", "2001 terms",
        "inverted rectangle", "rectangle with no interior node"])
def test_bad_input_exits_with_one_error_line(tmp_path, text, extra, code,
                                             fragment):
    cfg = write(tmp_path, "bad.cfg", text)
    got, out, err, caught = _run_quietly(
        ["solve", "--config", cfg, *extra, "--out", str(tmp_path / "o")])
    assert got == code
    errors = [line for line in (out + err).splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and fragment in errors[0], errors
    assert "Traceback" not in out + err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["solve", "lambda-range"])
def test_a_subnormal_box_bound_exits_65(tmp_path, command):
    # rho1 * 1e-8, the foot of the ratio curve, underflows to 0
    cfg = write(tmp_path, "tiny.cfg", BOX_CFG.format(rho="1e-320"))
    code, out, err, _ = _run_quietly(
        [command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 65
    assert err == ("error: rho1 = 1e-320 is too small: the checks and "
                   "ranges need rho1 * 1e-08 to be a normal double\n")
    assert "Traceback" not in out + err


HUGE_GROWTH_CFG = (SYSTEM_CFG.replace("rho0 = 0.01\n", "")
                   .replace('"sqrt(max(u1,u2)) + tan(max(u1,u2))"', '"u1"')
                   .replace('"max(u1,u2)^2"', '"u2"')
                   .replace("0.7363107781851077", "1e308")
                   .replace("delta = 10", "delta = 1e308"))


@pytest.mark.parametrize("text,message", [
    (HUGE_GROWTH_CFG, "hypothesis (b) fails"),
    (ROBIN_CFG.replace("lambda1 = 1.0", "lambda1 = 1e308"),
     "supersolution condition T beta <= beta fails"),
], ids=["delta u overflows", "lambda over ratio overflows"])
def test_saturated_overflow_fails_a_hypothesis_without_warnings(
        tmp_path, text, message):
    # delta * u and lam / ratios saturate at inf, which already fails
    cfg = write(tmp_path, "huge.cfg", text)
    code, out, _, caught = _run_quietly(
        ["solve", "--config", cfg, "--h", "0.0625",
         "--out", str(tmp_path / "o")])
    assert code == 1
    assert message in out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_m_safety_is_an_unknown_key(tmp_path):
    cfg = write(tmp_path, "old.cfg", SYSTEM_CFG + "m_safety = 1.01\n")
    code, _, err, _ = _run_quietly(["lambda-range", "--config", cfg,
                                    "--out", str(tmp_path / "o")])
    assert code == 64
    assert err.strip() == "error: line 18: unknown key 'm_safety'"


@pytest.mark.parametrize("command", ["solve", "lambda-range", "spectrum"])
def test_nonlinearity_is_parsed_once_per_command(tmp_path, monkeypatch,
                                                 command):
    from conesolve import cli
    from conesolve.nonlinearity import Nonlinearity
    calls = []
    parse = Nonlinearity.from_strings
    monkeypatch.setattr(Nonlinearity, "from_strings", classmethod(
        lambda cls, *args: calls.append(args) or parse(*args)))
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    assert main([command, "--config", cfg, "--h", "0.125",
                 "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1
    parsed = parse_config(SYSTEM_CFG)
    assert not hasattr(parsed, "f_sources")
    assert not hasattr(parsed, "nonlinearity")
    assert "nl" not in cli.Prepared.__dataclass_fields__


def test_x_dependent_system_ranges_match_the_library(tmp_path):
    from conesolve.geometry import build_grid
    from conesolve.greens import k_one_norm, spectral_radius
    from conesolve.operator import assemble
    from conesolve.ranges import system_ranges
    text = SYSTEM_CFG.replace('f2 = "max(u1,u2)^2"',
                              'f2 = "(1 + x1^2) * max(u1,u2)^2"')
    out = tmp_path / "o"
    assert main(["lambda-range", "--config", write(tmp_path, "x.cfg", text),
                 "--out", str(out), "--csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(
        (out / "ranges.csv").read_text())))
    cfg = parse_config(text)
    grid = build_grid(cfg.domain, cfg.h)
    op = assemble(grid, cfg.coefficients, cfg.bc)
    ranges = system_ranges(cfg.nl, cfg.rho, cfg.i0, cfg.delta,
                           k_one_norm(op)[1], spectral_radius(op).mu1, grid)
    assert [(row["upper"], row["m_value"]) for row in rows] == [
        (f"{rng.upper:.17g}", f"{rng.m_value:.17g}")
        for rng in ranges]


@pytest.mark.parametrize("key,value,message", [
    ("a11", '""', "bad expression for 'a11': empty expression (column 1)"),
    ("c", "q", "bad expression for 'c': unknown variable 'q' (column 1)"),
    ("bc", 'robin ""', "bad expression for 'bc': empty expression "
                       "(column 1)"),
    ("bc", "robin q", "bad expression for 'bc': unknown variable 'q' "
                      "(column 1)")])
def test_expression_errors_name_their_line(tmp_path, capsys, key, value,
                                           message):
    lines = ROBIN_CFG.splitlines()
    line = next(k for k, raw in enumerate(lines, 1)
                if raw.startswith(f"{key} ="))
    lines[line - 1] = f"{key} = {value}"
    cfg = write(tmp_path, "bad.cfg", "\n".join(lines) + "\n")
    assert main(["spectrum", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 64
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


FLAG_CASES = {"h": ("0.125", 0.125), "tol": ("1e-7", 1e-7),
              "max_iter": ("77", 77), "seed": ("9", 9)}


@pytest.mark.parametrize("command,key", [
    (command, key) for command, keys in cli.OVERRIDES.items()
    for key in keys])
def test_each_override_flag_sets_exactly_its_field(tmp_path, command, key):
    text, expected = FLAG_CASES[key]
    flag = "--" + key.replace("_", "-")
    args = build_parser().parse_args(
        [command, "--config", write(tmp_path, "s.cfg", SYSTEM_CFG),
         flag, text])
    cfg = parse_config(SYSTEM_CFG)
    before = dict(vars(cfg))
    after = vars(cli._apply_overrides(cfg, args))
    assert [k for k in after if after[k] != before[k]] == [key]
    assert after[key] == expected


def test_omitted_settings_take_their_declared_defaults():
    from conesolve.fixedpoint import DEFAULT_MAX_ITER, DEFAULT_TOL
    omitted = ("tol", "max_iter", "seed", "samples")
    cfg = parse_config("".join(
        line + "\n" for line in SYSTEM_CFG.splitlines()
        if line.partition(" =")[0] not in omitted))
    assert {key: getattr(cfg, key) for key in omitted} == {
        key: SETTINGS[key][1] for key in omitted}
    assert (cfg.tol, cfg.max_iter) == (DEFAULT_TOL, DEFAULT_MAX_ITER)


def test_readme_library_example_certifies(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert ("verdict:            certified nonzero positive solution"
            in capsys.readouterr().out.splitlines())


def test_readme_config_block_parses_and_names_every_optional_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config("".join(line + "\n" for line in block.splitlines()
                               if not line.startswith("#")))
    assert cfg.n == 2 and cfg.lambdas is not None
    for key in [*SETTINGS, *COEFFICIENTS]:
        assert re.search(rf"\b{key} = ", block), key


@pytest.mark.parametrize("command,extra,layout", [
    ("solve", [], "file"),
    ("solve", [], "checks.csv is a directory"),
    ("lambda-range", ["--csv"], "file"),
    ("spectrum", ["--csv"], "file"),
])
def test_an_out_that_cannot_be_written_exits_73(tmp_path, command, extra,
                                                layout):
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    out = tmp_path / "out"
    if layout == "file":
        out.write_text("kept\n")
    else:
        (out / "checks.csv").mkdir(parents=True)
    code, stdout, err, _ = _run_quietly(
        [command, "--config", cfg, "--h", "0.125", "--out", str(out),
         *extra])
    assert code == 73
    assert err.startswith("error: cannot write output: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in stdout + err
    # the run itself completed: its report is on stdout
    assert stdout.startswith(("grid: ", "lattice symmetry: "))
    assert out.is_dir() or out.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["lambda-range", "spectrum"])
def test_a_run_that_writes_nothing_ignores_out(tmp_path, command):
    # without --csv these commands write no artifact, so --out is neither
    # created nor checked
    cfg = write(tmp_path, "system.cfg", SYSTEM_CFG)
    out = tmp_path / "out"
    out.write_text("kept\n")
    code, _, err, _ = _run_quietly(
        [command, "--config", cfg, "--h", "0.125", "--out", str(out)])
    assert (code, err) == (0, "")
    assert out.read_text() == "kept\n"
    missing = tmp_path / "missing"
    assert _run_quietly([command, "--config", cfg, "--h", "0.125",
                         "--out", str(missing)])[0] == 0
    assert not missing.exists()

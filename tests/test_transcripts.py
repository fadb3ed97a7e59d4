"""Transcripts of every command on each of its exit paths: stdout with
every number masked, the exit code and the sorted names of the artifacts
in `--out`.  Masking keeps a transcript valid across BLAS builds while it
pins the line order and the wording of each line.  The expected
transcripts are the files in tests/transcripts, one per case."""

import contextlib
import io
import re
from importlib.resources import files
from pathlib import Path

import pytest

from conesolve.cli import main
from test_config_cli import (HUGE_GROWTH_CFG, ROBIN_CFG, SCALAR_LINEAR_CFG,
                             SYSTEM_CFG)

EXPECTED = Path(__file__).parent / "transcripts"
SHIPPED = {name: (files("conesolve") / "configs" / f"{name}.cfg").read_text()
           for name in ("system_disk", "scalar_disk")}
A_FAILS = SYSTEM_CFG.replace('f1 = "sqrt(max(u1,u2)) + tan(max(u1,u2))"',
                             'f1 = "u1 - u2"')
C_FAILS = SYSTEM_CFG.replace('f2 = "max(u1,u2)^2"', 'f2 = "0*u2"')
TINY_LAMBDAS = (SYSTEM_CFG.replace("lambda1 = 1.6", "lambda1 = 1e-6")
                .replace("lambda2 = 5.0", "lambda2 = 1e-6"))
NOT_M_MATRIX = SHIPPED["system_disk"] + 'a12 = "0.3"\n'

# case -> (command, config text, extra flags); every run adds --csv
CASES = {
    "solve-system-disk": ("solve", SHIPPED["system_disk"], []),
    "solve-scalar-disk": ("solve", SHIPPED["scalar_disk"], []),
    "solve-rect-robin": ("solve", ROBIN_CFG, []),
    "solve-a-fails": ("solve", A_FAILS, []),
    "solve-b-fails": ("solve", HUGE_GROWTH_CFG, ["--h", "0.0625"]),
    "solve-c-fails": ("solve", C_FAILS, []),
    "solve-supersolution-fails": (
        "solve", SYSTEM_CFG.replace("lambda2 = 5.0", "lambda2 = 5.5"), []),
    "solve-no-subsolution-trivial": ("solve", TINY_LAMBDAS, []),
    "solve-lower-half-fallback": (
        "solve", SHIPPED["scalar_disk"],
        ["--h", "0.03125", "--max-iter", "12"]),
    "solve-lambda-outside": (
        "solve", SYSTEM_CFG.replace("lambda1 = 1.6", "lambda1 = 0.5"), []),
    "lambda-range-ok": ("lambda-range", SYSTEM_CFG, []),
    "lambda-range-c-fails": ("lambda-range", C_FAILS, []),
    "lambda-range-empty": ("lambda-range", SCALAR_LINEAR_CFG, []),
    "lambda-range-unvalidated-growth": (
        "lambda-range", SCALAR_LINEAR_CFG.replace('f1 = "s"', 'f1 = "s^2"'),
        []),
    "spectrum-ok": ("spectrum", SYSTEM_CFG, []),
    **{f"{command}-not-m-matrix": (command, NOT_M_MATRIX, ["--h", "0.0625"])
       for command in ("solve", "lambda-range", "spectrum")},
}

# a number not glued to a name: the 1 of f1, u1 or D4 is kept
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def transcript(code, stdout, artifacts):
    names = " ".join(artifacts) or "(none)"
    return f"exit {code}\nartifacts: {names}\n\n" + NUMBER.sub("#", stdout)


@pytest.mark.parametrize("case", list(CASES))
def test_transcript(tmp_path, case):
    command, text, extra = CASES[case]
    path = tmp_path / "problem.cfg"
    path.write_text(text)
    out_dir = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", str(path), *extra,
                     "--out", str(out_dir), "--csv"])
    artifacts = sorted(p.name for p in out_dir.iterdir()) \
        if out_dir.exists() else []
    expected = (EXPECTED / f"{case}.txt").read_text()
    assert transcript(code, stdout.getvalue(), artifacts) == expected


def test_every_transcript_file_has_a_case():
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == sorted(CASES)

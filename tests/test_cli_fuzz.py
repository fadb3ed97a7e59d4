"""Fuzzer for the CLI contract: whatever the config and the overrides, `main`
returns a contract exit code, lets no exception escape, raises no numpy
RuntimeWarning (such as an overflow), and an exit of 64, 65 or 66 prints
exactly one `error:` line.

Each case mutates one or two keys of a shipped config or of the rect-robin
config, and may add CLI overrides.  The run is derandomized, so it is the
same on every machine.  For memory and time, every finite mesh step is at
least 1/16, every iteration budget at most 50, and the domains stay small.
"""

import contextlib
import io
import tempfile
import warnings
from importlib.resources import files

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conesolve.cli import main

CONTRACT_CODES = {0, 1, 2, 3, 64, 65, 66, 70}

ROBIN_CFG = """
domain = rectangle 0 1 0 1
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


def _base(text):
    """The key = value lines of a config, in order, as a dict, at h = 1/16
    and with an iteration budget of 50."""
    lines = [line.partition("=") for line in text.splitlines()
             if "=" in line and not line.lstrip().startswith("#")]
    entries = {key.strip(): value.strip() for key, _, value in lines}
    entries.update(h="0.0625", max_iter="50")
    return entries


BASES = {
    "system_disk": _base(
        (files("conesolve") / "configs" / "system_disk.cfg").read_text()),
    "scalar_disk": _base(
        (files("conesolve") / "configs" / "scalar_disk.cfg").read_text()),
    "rect-robin": _base(ROBIN_CFG),
}

STEPS = ["0.0625", "0.125", "0.25", "0.3", "1", "1e308", "inf", "-inf",
         "nan", "abc"]
POSITIVES = ["0", "-1", "1e-300", "1e308", "inf", "nan", "0.5", "x"]
EXPRESSIONS = ['"1/u1"', '"sqrt(u1 - 1)"', '"log(u1)"', '"tan(100*u1)"',
               '"u9"', '"x3"', '"1e999"', '"exp(1000*u1)"', '"-u1"', '"0"',
               '"u1^-1"', '"("', '""', "u1", '"u1 - u2"', '"1e308*u1*u1"',
               '"max(u1,u2)^2"']
COEFFICIENTS = ['"0"', '"-1"', '"1e308"', '"-1e308"', '"1e-300"', '"1/x1"',
                '"sqrt(x1)"', '"x1"', '"q"', "2"]

# None deletes the key
KEY_VALUES = {
    "h": STEPS,
    "domain": ["unitdisk", "rectangle 0 1 0 1", "rectangle 0 2 -1 1",
               "rectangle 1 0 0 1", "rectangle 0 inf 0 1",
               "rectangle 0 1e308 0 1e308", "rectangle 0 nan 0 1",
               "rectangle 0 1", "unitdisk 2", "triangle"],
    "bc": ["dirichlet", "neumann", 'robin "1"', 'robin "-1"', 'robin "0"',
           'robin "1e308"', "robin", 'robin "1/x1"', "periodic"],
    "n": ["0", "1", "2", "3", "-1", "x"],
    "f1": EXPRESSIONS,
    "f2": EXPRESSIONS,
    "rho1": POSITIVES,
    "rho2": POSITIVES,
    "lambda1": POSITIVES,
    "lambda2": POSITIVES,
    "delta": POSITIVES,
    "rho0": POSITIVES,
    "tol": POSITIVES,
    "i0": ["0", "1", "2", "3", "-1", "1.5"],
    "max_iter": ["0", "1", "50", "-1", "1.5"],
    "seed": ["0", "-1", "7", "1e3", "99999999999999999999"],
    "samples": ["0", "1", "10", "-1"],
    **{key: COEFFICIENTS for key in ("a11", "a12", "a22", "b1", "b2", "c")},
    "m_safety": ["1.01"],
    "grid_points": ["1000"],
    "frobnicate": ["1"],
}

FLAG_VALUES = {
    "--h": STEPS,
    "--tol": ["0", "-1", "inf", "nan", "1e-300", "1", "x"],
    "--max-iter": ["0", "1", "50", "-5", "x"],
    "--seed": ["-1", "0", "7", "x"],
}


@st.composite
def cli_cases(draw):
    entries = dict(BASES[draw(st.sampled_from(sorted(BASES)))])
    for key in draw(st.lists(st.sampled_from(sorted(KEY_VALUES)),
                             min_size=1, max_size=2, unique=True)):
        value = draw(st.sampled_from([None, *KEY_VALUES[key]]))
        entries.pop(key, None)
        if value is not None:
            entries[key] = value
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    argv = [draw(st.sampled_from(["solve", "lambda-range", "spectrum"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)),
                              max_size=2, unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(FLAG_VALUES[flag]))}")
    if draw(st.booleans()):
        argv.append("--csv")
    return text, argv


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_cases())
def test_cli_keeps_its_exit_code_contract(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--config", path, "--out", f"{tmp}/out"])
    assert code in CONTRACT_CODES, (code, err.getvalue())
    runtime = [str(w.message) for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (text, argv, runtime)
    if code in (64, 65, 66):
        errors = [line for line in (out.getvalue() + err.getvalue())
                  .splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (out.getvalue(), err.getvalue())

"""Acceptance suite: one test per verification criterion at the reference
mesh step h = 1/64.  Each test prints its PASS/FAIL line (run with -s to see
them) and asserts the criterion outcome.  Run time for the whole module is
dominated by the h = 1/64 factorizations and stays well under a minute.
"""

import numpy as np
import pytest

from conesolve.verify import CRITERIA, VerifyContext, run_criterion


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext()


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[f"criterion_{c.cid:02d}" for c in CRITERIA])
def test_acceptance_criterion(criterion, ctx):
    result = run_criterion(criterion, ctx)
    print(result.line())
    assert result.status == "PASS", result.line()


def test_operator_properties_make_one_block_solve_per_trial(monkeypatch):
    from conesolve import verify
    shapes = []
    apply_K = verify.apply_K
    monkeypatch.setattr(verify, "apply_K", lambda op, g: shapes.append(
        np.shape(g)) or apply_K(op, g))
    ctx = VerifyContext(1.0 / 16.0)
    passed, _ = verify._crit_operator_properties(ctx)
    assert passed
    sizes = [ctx.op(key).grid.interior_count for key in ("disk", "square")]
    assert shapes == [(5, sizes[0])] * 100 + [(5, sizes[1])] * 100
    assert not hasattr(ctx, "k1") and not hasattr(ctx, "_k1")

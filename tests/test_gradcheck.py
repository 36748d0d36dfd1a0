"""The gradient check must flag a wrong backward closure.

A copy of ``autodiff.tanh`` with its backward closure scaled by a factor is
planted in place of the real op. The forward values stay exact, so finite
differences see the true gradient while the tape reports a wrong one.
"""

import numpy as np
import pytest

from sasvbackend import autodiff as ad
from sasvbackend import gradcheck as gc

UPSTREAM_OF_TANH = {"Wq", "Wk", "Wv", "Wf", "bf"}


def tanh_with_backward_scaled(factor):
    def tanh(a):
        y = np.tanh(a.value)
        out = ad._make(y, a.tape)
        if a.tape is not None:
            a.tape._record(out, lambda g: ad._accumulate(a, factor * g * (1.0 - y * y)))
        return out
    return tanh


@pytest.mark.parametrize("factor", [1.0, -1.0, 1.01])
def test_planted_backward_bug_is_caught(monkeypatch, factor):
    monkeypatch.setattr(ad, "tanh", tanh_with_backward_scaled(factor))
    for seed in (0, 1):
        result = gc.gradient_check(seed=seed)
        flagged = {name for name, err in result.errors.items() if err >= result.tolerance}
        if factor == 1.0:
            assert result.passed, result.worst
        else:
            assert not result.passed
            assert UPSTREAM_OF_TANH <= flagged, result.errors


def test_round_off_on_tiny_entries_is_not_a_failure():
    # an entry 1e6 times smaller than its group's largest, off by round-off
    ag = np.array([3e-5, 1e-11, -2e-6])
    fd = np.array([3e-5 * (1 + 1e-7), 2e-11, -2e-6 * (1 - 1e-7)])
    assert gc.group_error(ag, fd) < gc.TOLERANCE
    # the same absolute error on an entry near the group's scale fails
    assert gc.group_error(ag, ag + np.array([0.0, 0.0, 1e-9])) >= gc.TOLERANCE

"""The gradient check must flag a wrong backward closure.

A copy of ``autodiff.tanh`` with its backward closure scaled by a factor is
planted in place of the real op. The forward values stay exact, so finite
differences see the true gradient while the tape reports a wrong one.

The directional check compares each parameter group's gradient along one
random unit direction u with a central difference of the loss along u, so
it needs two loss evaluations per group and can sweep many shapes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sasvbackend import autodiff as ad
from sasvbackend import gradcheck as gc
from sasvbackend.backend import POOLING_MODES, BackendParams
from sasvbackend.sampling import draw_batch, expand_pairs
from sasvbackend.training import HARD_SELECTION_MODES, TrainConfig, batch_loss

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


# one ulp of a loss near 1 moves a central difference at step 1e-4 by about
# 5e-13, so below this floor a hundred ulps of round-off could exceed the
# tolerance; at gradcheck's step of 1e-5 round-off alone reached 9e-5
ROUND_OFF_FLOOR = 1e-6


def directional_errors(seed, d_a, d_c, h_f, m, k, pooling, mode, top_n, step=1e-4):
    """Per parameter group, the scale-aware error of <grad L, u> against
    (L(theta + step u) - L(theta - step u)) / (2 step), for one random unit
    direction u of the group, on one batch of a random pool. None when a
    step changes the selected pairs, where the loss is not differentiable."""
    rng = np.random.default_rng(seed)
    pairs = expand_pairs(draw_batch(gc._random_pool(rng, m, k // 2 + 1, d_a, d_c), m, k, rng))
    config = TrainConfig(speakers_per_batch=m, utterances_per_speaker=k, hidden_dim=h_f,
                         hard_negative_top_n=top_n, hard_selection=mode, pooling=pooling)
    tape = ad.Tape()
    params = BackendParams.init(d_a, d_c, h_f, rng, tape=tape)
    loss, selected = batch_loss(params, pairs, config)
    tape.backward(loss)
    detached = params.detach()  # shares the value arrays
    errors = {}
    for name, tensor in params.parameters():
        u = rng.standard_normal(tensor.shape)
        u /= np.linalg.norm(u)
        original = tensor.value.copy()
        ends = []
        for sign in (1.0, -1.0):
            tensor.value[...] = original + sign * step * u
            value, kept = batch_loss(detached, pairs, config)
            if kept != selected:
                return None
            ends.append(value.item())
        tensor.value[...] = original
        ag = float(np.sum(tensor.grad * u))
        fd = (ends[0] - ends[1]) / (2.0 * step)
        scale = max(abs(ag), abs(fd), gc.SCALE_FLOOR * np.linalg.norm(tensor.grad),
                    ROUND_OFF_FLOOR)
        errors[name] = abs(ag - fd) / scale
    return errors


@given(seed=st.integers(0, 2**32 - 1), d_a=st.integers(2, 12), d_c=st.integers(1, 8),
       h_f=st.integers(1, 8), m=st.integers(2, 4), k=st.sampled_from([4, 6]),
       pooling=st.sampled_from(POOLING_MODES), mode=st.sampled_from(HARD_SELECTION_MODES),
       top_n=st.integers(1, 120))
@settings(max_examples=250, deadline=None)
def test_directional_derivatives_match_across_shapes(seed, d_a, d_c, h_f, m, k, pooling,
                                                     mode, top_n):
    errors = directional_errors(seed, d_a, d_c, h_f, m, k, pooling, mode, top_n)
    assume(errors is not None)
    assert max(errors.values()) < gc.TOLERANCE, errors


@pytest.mark.parametrize("factor", [-1.0, 1.01])
@pytest.mark.parametrize("shape", [(0, 8, 6, 4, 2, 4), (1, 5, 3, 7, 3, 6)])
def test_directional_check_catches_planted_bug(monkeypatch, factor, shape):
    monkeypatch.setattr(ad, "tanh", tanh_with_backward_scaled(factor))
    errors = directional_errors(*shape, "attention", "negatives_only", 10)
    flagged = {name for name, err in errors.items() if err >= gc.TOLERANCE}
    assert {"Wf", "bf"} <= flagged <= UPSTREAM_OF_TANH, errors

"""The gradient check must flag a wrong backward.

A tanh derivative scaled by a factor is planted in place of
``backend.tanh_grad``, which the pooling block's backward calls. The
forward values stay exact, so finite differences see the true gradient
while the backward reports a wrong one.

The directional check compares each parameter group's gradient along one
random unit direction u with gradcheck's extrapolated central difference
of the loss along u, so it needs four loss evaluations per group and can
sweep many shapes.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sasvbackend import autodiff as ad
from sasvbackend import backend as bk
from sasvbackend import gradcheck as gc
from sasvbackend.backend import POOLING_MODES, BackendParams
from sasvbackend.sampling import draw_batch, expand_pairs
from sasvbackend.training import TrainConfig, batch_loss

UPSTREAM_OF_TANH = {"Wq", "Wk", "Wv", "Wf", "bf"}


def tanh_grad_scaled(factor):
    def tanh_grad(g, y):
        return factor * g * (1.0 - y * y)
    return tanh_grad


@pytest.mark.parametrize("factor", [1.0, -1.0, 1.01])
def test_planted_backward_bug_is_caught(monkeypatch, factor):
    monkeypatch.setattr(bk, "tanh_grad", tanh_grad_scaled(factor))
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


# one ulp of a loss near 1 moves gradcheck's extrapolated central
# difference (steps 1e-3 and 5e-4) by about 2e-13, so below this floor a
# hundred ulps of round-off could exceed the tolerance
ROUND_OFF_FLOOR = 1e-6


class SelectionChanged(Exception):
    """A perturbed loss kept other pairs than the unperturbed one."""


def directional_errors(seed, d_a, d_c, h_f, m, k, pooling, top_n):
    """Per parameter group, the scale-aware error of <grad L, u> against
    gc.central_difference of L along one random unit direction u of the
    group, on one batch of a random pool. None when a step changes the
    selected pairs, where the loss is not differentiable."""
    rng = np.random.default_rng(seed)
    pairs = expand_pairs(draw_batch(gc._random_pool(rng, m, k // 2 + 1, d_a, d_c), m, k, rng))
    config = TrainConfig(speakers_per_batch=m, utterances_per_speaker=k, hidden_dim=h_f,
                         hard_negative_top_n=top_n, pooling=pooling)
    tape = ad.Tape()
    params = BackendParams.init(d_a, d_c, h_f, rng, tape=tape)
    loss, selected = batch_loss(params, pairs, config)
    tape.backward(loss)
    detached = params.detach()  # shares the value arrays

    def loss_value():
        value, kept = batch_loss(detached, pairs, config)
        if kept != selected:
            raise SelectionChanged
        return value.item()

    errors = {}
    for name, tensor in params.parameters():
        u = rng.standard_normal(tensor.shape)
        u /= np.linalg.norm(u)
        try:
            fd = gc.central_difference(loss_value, tensor.value, u)
        except SelectionChanged:
            return None
        ag = float(np.sum(tensor.grad * u))
        scale = max(abs(ag), abs(fd), gc.SCALE_FLOOR * np.linalg.norm(tensor.grad),
                    ROUND_OFF_FLOOR)
        errors[name] = abs(ag - fd) / scale
    return errors


@given(seed=st.integers(0, 2**32 - 1), d_a=st.integers(2, 12), d_c=st.integers(1, 8),
       h_f=st.integers(1, 8), m=st.integers(2, 4), k=st.sampled_from([4, 6, 10]),
       pooling=st.sampled_from(POOLING_MODES), top_n=st.integers(1, 120))
# a plain central difference at step 1e-4 erred by 2.85e-4 on vf here
@example(seed=8, d_a=2, d_c=1, h_f=8, m=2, k=6, pooling="attention", top_n=2)
@settings(max_examples=250, deadline=None)
def test_directional_derivatives_match_across_shapes(seed, d_a, d_c, h_f, m, k, pooling,
                                                     top_n):
    errors = directional_errors(seed, d_a, d_c, h_f, m, k, pooling, top_n)
    assume(errors is not None)
    assert max(errors.values()) < gc.TOLERANCE, errors


@pytest.mark.parametrize("factor", [-1.0, 1.01])
@pytest.mark.parametrize("shape", [(0, 8, 6, 4, 2, 4), (1, 5, 3, 7, 3, 6)])
def test_directional_check_catches_planted_bug(monkeypatch, factor, shape):
    monkeypatch.setattr(bk, "tanh_grad", tanh_grad_scaled(factor))
    errors = directional_errors(*shape, "attention", 10)
    flagged = {name for name, err in errors.items() if err >= gc.TOLERANCE}
    assert {"Wf", "bf"} <= flagged <= UPSTREAM_OF_TANH, errors

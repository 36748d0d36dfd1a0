"""Finite-difference validation of the analytic gradients.

Builds a random tiny batch, computes the full-batch BCE loss (no hard
selection, so the loss surface is smooth), and compares every parameter
element's analytic gradient against extrapolated central differences of
the same loss, evaluated through an untracked view of the parameters.

The error of an element is |ag - fd| / max(|ag|, |fd|, SCALE_FLOOR * G),
where G is the largest analytic gradient magnitude in its parameter group.
Elements near the group's scale are held to a relative tolerance; elements
many orders of magnitude smaller are held to an absolute one, because
central differences cannot resolve them below round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .backend import BackendParams
from .sampling import TrainingPool, check_layout, draw_batch, expand_pairs
from .training import TrainConfig, batch_loss

FD_STEP = 1e-3
TOLERANCE = 1e-4
SCALE_FLOOR = 1e-2


@dataclass(frozen=True)
class GradCheckResult:
    """Max scale-aware finite-difference error per parameter group."""

    errors: dict[str, float]
    tolerance = TOLERANCE  # a class attribute, not a field

    @property
    def passed(self) -> bool:
        return all(e < self.tolerance for e in self.errors.values())

    @property
    def worst(self) -> tuple[str, float]:
        name = max(self.errors, key=self.errors.get)
        return name, self.errors[name]


def _random_pool(rng, n_speakers, n_utts_half, d_a, d_c):
    """Each utterance draws its ASV vector, normalised, then its CM vector."""
    rows = [(f"g{s}", f"g{s}-{j}", j < n_utts_half)
            for s in range(n_speakers) for j in range(2 * n_utts_half)]
    draws = rng.standard_normal((len(rows), d_a + d_c))
    asv = draws[:, :d_a] / np.sqrt(np.sum(draws[:, :d_a] * draws[:, :d_a], axis=1, keepdims=True))
    return TrainingPool(*zip(*rows), asv, draws[:, d_a:])


def gradient_check(seed: int = 0, d_a: int = 8, d_c: int = 6, h_f: int = 4,
                   speakers: int = 2, utterances: int = 4,
                   pooling: str = "attention") -> GradCheckResult:
    """Compare analytic and finite-difference gradients of one batch loss.

    The loss is the mean BCE over every pair of the batch; hard selection
    is disabled by setting the negative budget above the batch size.
    Raises ValueError naming a bad dimension or seed, or check_layout's errors.
    """
    for name, dim in (("d_a", d_a), ("d_c", d_c)):
        if dim < 1:
            raise ValueError(f"{name} must be at least 1, got {dim}")
    check_layout(speakers, utterances)
    config = TrainConfig(
        speakers_per_batch=speakers, utterances_per_speaker=utterances,
        hard_negative_top_n=10 * speakers * speakers * utterances,
        pooling=pooling, hidden_dim=h_f, seed=seed,
    )
    rng = np.random.default_rng(seed)
    pool = _random_pool(rng, speakers, utterances // 2 + 1, d_a, d_c)
    batch = draw_batch(pool, speakers, utterances, rng)
    pairs = expand_pairs(batch)

    tape = ad.Tape()
    params = BackendParams.init(d_a, d_c, h_f, rng, tape=tape)
    loss, _ = batch_loss(params, pairs, config)
    tape.backward(loss)
    analytic = {name: t.grad.copy() for name, t in params.parameters()}

    detached = params.detach()

    def loss_value() -> float:
        value, _ = batch_loss(detached, pairs, config)
        return value.item()

    errors: dict[str, float] = {}
    for name, tensor in params.parameters():
        flat = tensor.value.reshape(-1)
        fd = np.array([central_difference(loss_value, flat[i:i + 1], 1.0) for i in range(flat.size)])
        errors[name] = group_error(analytic[name].reshape(-1), fd)
    return GradCheckResult(errors=errors)


def central_difference(loss, value: np.ndarray, direction) -> float:
    """d loss() / d value along direction: (4 D(h/2) - D(h)) / 3 of central
    differences D at h = FD_STEP. Its O(h^4) error lets h keep round-off far
    below TOLERANCE, where a plain central difference failed on round-off
    at step 1e-5 and on truncation at 1e-4. Moves value, then restores it."""
    original = value.copy()
    ends = []
    for step in (FD_STEP, -FD_STEP, FD_STEP / 2, -FD_STEP / 2):
        value[...] = original + step * direction
        ends.append(loss())
    value[...] = original
    coarse = (ends[0] - ends[1]) / (2.0 * FD_STEP)
    fine = (ends[2] - ends[3]) / FD_STEP
    return (4.0 * fine - coarse) / 3.0


def group_error(ag: np.ndarray, fd: np.ndarray) -> float:
    """Worst element error of one parameter group (see the module docstring)."""
    floor = SCALE_FLOOR * np.max(np.abs(ag))
    scale = np.maximum(np.maximum(np.abs(ag), np.abs(fd)), max(floor, np.finfo(float).tiny))
    return float(np.max(np.abs(ag - fd) / scale))

"""Binary cross-entropy training with hard-negative selection.

Each step draws a mini-batch, expands it into all M*K*M pairs, computes the
fused probability and BCE loss of every pair in one batched forward pass,
keeps every positive pair plus the top-N hardest negatives, and
backpropagates the mean loss over the kept pairs through SGD with momentum
and coupled L2 weight decay. The learning rate decays by a fixed factor at
every epoch end.

The whole loop is deterministic for a given seed: parameter init, batch
draws and gradient accumulation all run in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .backend import BackendParams, POOLING_MODES, forward_batch
from .metrics import evaluate
from .sampling import PairBatch, TrainingPool, draw_batch, eligible_speakers, expand_pairs
from .scoring import score_trials

BCE_CLAMP = 1e-12

HARD_SELECTION_MODES = ("negatives_only", "all_trials")


class TrainingDivergedError(RuntimeError):
    """A loss or gradient went non-finite; carries epoch/batch context."""

    def __init__(self, message, epoch=None, batch=None, parameter=None):
        context = (("epoch", epoch), ("batch", batch), ("parameter", parameter))
        super().__init__(" ".join([message] + [f"{key}={value}" for key, value in context
                                               if value is not None]))
        self.epoch = epoch
        self.batch = batch
        self.parameter = parameter


@dataclass
class TrainConfig:
    """Optimization recipe. Defaults follow the training methodology the
    back-end was designed around: SGD at 1e-4 with 0.9 momentum, 1e-5
    weight decay, 40 epochs with 0.95 learning-rate decay per epoch,
    batches of 16 speakers x (5 bona fide + 5 spoofed), and the 100
    hardest negatives kept per batch."""

    learning_rate: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 1e-5
    epochs: int = 40
    lr_decay_per_epoch: float = 0.95
    hard_negative_top_n: int = 100
    speakers_per_batch: int = 16
    utterances_per_speaker: int = 10
    seed: int = 0
    pooling: str = "attention"
    hidden_dim: int = 64
    hard_selection: str = "negatives_only"

    def __post_init__(self):
        for name in ("learning_rate", "momentum", "weight_decay", "lr_decay_per_epoch"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("learning_rate", "lr_decay_per_epoch"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name, low in (("hard_negative_top_n", 1), ("epochs", 1), ("hidden_dim", 1),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"unknown pooling mode {self.pooling!r}")
        if self.hard_selection not in HARD_SELECTION_MODES:
            raise ValueError(f"unknown hard_selection mode {self.hard_selection!r}")


@dataclass
class OptimizerState:
    velocities: dict[str, np.ndarray]
    learning_rate: float


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    learning_rate: float
    mean_selected_loss: float
    dev_sv_eer: float | None = None
    dev_spf_eer: float | None = None
    dev_sasv_eer: float | None = None

    def line(self) -> str:
        fields = [str(self.epoch), repr(self.learning_rate), repr(self.mean_selected_loss)]
        if self.dev_sv_eer is not None:
            fields += [repr(self.dev_sv_eer), repr(self.dev_spf_eer), repr(self.dev_sasv_eer)]
        return "\t".join(fields)


@dataclass
class TrainResult:
    params: BackendParams
    epoch_logs: list[EpochLog] = field(default_factory=list)


def bce_loss(p: Tensor, positive) -> Tensor:
    """Per-entry BCE: -log p where positive, -log(1-p) elsewhere, clamped
    away from 0. positive is one flag or one flag per entry of p."""
    positive = np.asarray(positive, dtype=bool)
    prob = ad.affine(p, np.where(positive, 1.0, -1.0), np.where(positive, 0.0, 1.0))
    return ad.affine(ad.log(ad.clamp(prob, BCE_CLAMP, 1.0 - BCE_CLAMP)), -1.0)


def select_hard(losses, positive_mask, top_n: int,
                mode: str = "negatives_only") -> list[int]:
    """Indices of the pairs kept for backward, in original pair order.

    negatives_only keeps every positive plus the top_n largest-loss
    negatives; all_trials ranks everything together. Ties keep their
    original order (the ranking sort is stable).
    """
    losses = np.asarray(losses, dtype=np.float64)
    positive = np.asarray(positive_mask, dtype=bool)
    if losses.shape != positive.shape:
        raise ValueError("losses and positive_mask lengths differ")
    if mode == "all_trials":
        return np.sort(np.argsort(-losses, kind="stable")[:top_n]).tolist()
    negatives = np.flatnonzero(~positive)
    hardest = negatives[np.argsort(-losses[negatives], kind="stable")[:top_n]]
    return np.sort(np.concatenate([np.flatnonzero(positive), hardest])).tolist()


def sgd_step(params: BackendParams, state: OptimizerState, config: TrainConfig,
             epoch=None, batch=None) -> None:
    """v <- mu*v + (g + lambda*theta); theta <- theta - lr*v, in place."""
    for name, tensor in params.parameters():
        g = tensor.grad
        if g is None:
            raise TrainingDivergedError("missing gradient", epoch, batch, name)
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError("non-finite gradient", epoch, batch, name)
        v = state.velocities[name]
        v *= config.momentum
        v += g + config.weight_decay * tensor.value
        tensor.value -= state.learning_rate * v


def batch_loss(params: BackendParams, pairs: PairBatch,
               config: TrainConfig) -> tuple[Tensor, list[int]]:
    """Per-pair BCE, hard selection, mean over the selected subset.

    Returns the mean loss tensor (tracked whenever params are) and the
    selected pair indices. Selection is a 0/1 weight on each pair's loss,
    so only the selected pairs contribute gradients.
    """
    scores = forward_batch(params, pairs, config.pooling)
    losses = bce_loss(scores.p, pairs.positive)
    selected = select_hard(losses.value, pairs.positive,
                           config.hard_negative_top_n, config.hard_selection)
    weights = np.zeros((1, len(pairs.positive)))
    weights[0, selected] = 1.0
    return ad.affine(ad.row_dot(losses, Tensor(weights)), 1.0 / len(selected)), selected


def train(pool: TrainingPool, config: TrainConfig, out_dir, dev_bundle=None) -> TrainResult:
    """Run the full optimization loop over a training pool; the
    embedding dimensions are those of its matrices.

    Writes the run directory out_dir: train.log (one EpochLog line per
    epoch), epoch_NNN.ckpt after each epoch and final.ckpt. dev_bundle,
    when given, is (trials, asv_map, cm_map); the dev SV-, SPF- and
    SASV-EER of the fused scorer are then logged per epoch. A batch layout
    the pool cannot supply raises before anything is written.
    """
    d_a, d_c = pool.asv.shape[1], pool.cm.shape[1]
    m = config.speakers_per_batch
    k = config.utterances_per_speaker
    eligible_speakers(pool, m, k)

    rng = np.random.default_rng(config.seed)
    tape = Tape()
    params = BackendParams.init(d_a, d_c, config.hidden_dim, rng, tape=tape,
                                pooling=config.pooling)
    state = OptimizerState(
        velocities={name: np.zeros_like(t.value) for name, t in params.parameters()},
        learning_rate=config.learning_rate,
    )
    batches_per_epoch = max(1, math.ceil(len(pool) / (m * k)))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = TrainResult(params=params)
    with open(out_dir / "train.log", "w", encoding="utf-8") as log_file:
        for epoch in range(config.epochs):
            state.learning_rate = config.learning_rate * config.lr_decay_per_epoch ** epoch
            epoch_losses = []
            for batch_idx in range(batches_per_epoch):
                batch = draw_batch(pool, m, k, rng)
                pairs = expand_pairs(batch)
                loss, _ = batch_loss(params, pairs, config)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDivergedError("non-finite loss", epoch + 1, batch_idx + 1)
                tape.backward(loss)
                sgd_step(params, state, config, epoch=epoch + 1, batch=batch_idx + 1)
                tape.clear()
                epoch_losses.append(value)

            mean_loss = sum(epoch_losses) / len(epoch_losses)
            dev_eers = (None, None, None)
            if dev_bundle is not None:
                trials, asv_map, cm_map = dev_bundle
                report = evaluate(score_trials(params, trials, asv_map, cm_map,
                                               pooling=config.pooling, scorer="fused"))
                dev_eers = (report.sv_eer, report.spf_eer, report.sasv_eer)
            log = EpochLog(epoch + 1, state.learning_rate, mean_loss, *dev_eers)
            result.epoch_logs.append(log)
            log_file.write(log.line() + "\n")
            log_file.flush()
            params.save(out_dir / f"epoch_{epoch + 1:03d}.ckpt")
    params.save(out_dir / "final.ckpt")
    return result

"""Binary cross-entropy training with hard-negative selection.

Each step draws a mini-batch, expands it into all M*K*M pairs, computes the
fused probability and BCE loss of every pair in one batched forward pass,
keeps every positive pair plus the top-N hardest negatives, and
backpropagates the mean loss over the kept pairs through SGD with momentum
and coupled L2 weight decay. The learning rate decays by a fixed factor at
every epoch end. train() is the epoch loop over start()'s run and step().

The whole loop is deterministic for a given seed: parameter init, batch
draws and gradient accumulation all run in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .backend import BackendParams, POOLING_MODES, forward_batch
from .metrics import EerReport, evaluate
from .sampling import PairBatch, TrainingPool, draw_batch, eligible_speakers, expand_pairs
from .scoring import score_trials

BCE_CLAMP = 1e-12


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


@dataclass
class OptimizerState:
    velocities: dict[str, np.ndarray]
    learning_rate: float


@dataclass(frozen=True)
class EpochLog:
    """One train.log line: epoch, learning rate, mean selected loss and,
    with a dev report, its SV-, SPF- and SASV-EER ("absent" if missing)."""

    epoch: int
    learning_rate: float
    mean_selected_loss: float
    dev: EerReport | None = None

    def line(self) -> str:
        fields = [self.epoch, self.learning_rate, self.mean_selected_loss]
        if self.dev is not None:
            fields += [self.dev.sv_eer, self.dev.spf_eer, self.dev.sasv_eer]
        return "\t".join("absent" if value is None else repr(value) for value in fields)


@dataclass
class Run:
    """A run between steps: the rng that drew the parameters draws every
    batch, and the parameters are tracked on the tape."""

    pool: TrainingPool
    config: TrainConfig
    rng: np.random.Generator
    tape: Tape
    params: BackendParams
    optimizer: OptimizerState


class StepRecord(NamedTuple):
    """What one step did: its mean selected loss, the batch's (M, K) pool
    rows, and its counts of pairs, positive pairs and selected pairs."""

    loss: float
    rows: np.ndarray
    pairs: int
    positives: int
    selected: int


def bce_loss(p: Tensor, positive) -> Tensor:
    """Per-entry BCE: -log p where positive, -log(1-p) elsewhere, clamped
    away from 0. positive is one flag or one flag per entry of p."""
    positive = np.asarray(positive, dtype=bool)
    prob = ad.affine(p, np.where(positive, 1.0, -1.0), np.where(positive, 0.0, 1.0))
    return ad.affine(ad.log(ad.clamp(prob, BCE_CLAMP, 1.0 - BCE_CLAMP)), -1.0)


def select_hard(losses, positive_mask, top_n: int) -> list[int]:
    """Indices of the pairs kept for backward, in original pair order:
    every positive plus the top_n largest-loss negatives. Ties keep their
    original order (the ranking sort is stable)."""
    losses = np.asarray(losses, dtype=np.float64)
    positive = np.asarray(positive_mask, dtype=bool)
    if losses.shape != positive.shape:
        raise ValueError("losses and positive_mask lengths differ")
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
    selected = select_hard(losses.value, pairs.positive, config.hard_negative_top_n)
    weights = np.zeros((1, len(pairs.positive)))
    weights[0, selected] = 1.0
    return ad.affine(ad.row_dot(losses, Tensor(weights)), 1.0 / len(selected)), selected


def start(pool: TrainingPool, config: TrainConfig) -> Run:
    """A fresh run on the pool, whose matrices fix the embedding dimensions.
    A batch layout the pool cannot supply raises first."""
    eligible_speakers(pool, config.speakers_per_batch, config.utterances_per_speaker)
    rng = np.random.default_rng(config.seed)
    tape = Tape()
    params = BackendParams.init(pool.asv.shape[1], pool.cm.shape[1], config.hidden_dim, rng,
                                tape=tape, pooling=config.pooling)
    velocities = {name: np.zeros_like(t.value) for name, t in params.parameters()}
    return Run(pool, config, rng, tape, params, OptimizerState(velocities, config.learning_rate))


def step(run: Run, epoch: int, batch: int) -> StepRecord:
    """Step batch of epoch (both 1-based; the learning rate is lr *
    decay^(epoch - 1)): draw, expand, loss, backward, SGD. A non-finite
    loss or gradient raises TrainingDivergedError naming epoch and batch."""
    config = run.config
    run.optimizer.learning_rate = config.learning_rate * config.lr_decay_per_epoch ** (epoch - 1)
    drawn = draw_batch(run.pool, config.speakers_per_batch, config.utterances_per_speaker, run.rng)
    pairs = expand_pairs(drawn)
    loss, selected = batch_loss(run.params, pairs, config)
    value = loss.item()
    if not math.isfinite(value):
        raise TrainingDivergedError("non-finite loss", epoch, batch)
    run.tape.backward(loss)
    sgd_step(run.params, run.optimizer, config, epoch=epoch, batch=batch)
    run.tape.clear()
    return StepRecord(value, drawn.rows, len(pairs.positive),
                      int(np.count_nonzero(pairs.positive)), len(selected))


def train(pool: TrainingPool, config: TrainConfig, out_dir, dev_bundle=None) -> list[EpochLog]:
    """Run config.epochs epochs of ceil(len(pool) / (M * K)) steps each and
    return their EpochLogs. Writes the run directory out_dir: train.log (an
    EpochLog line per epoch), epoch_NNN.ckpt after each epoch and
    final.ckpt, the trained parameters. dev_bundle, when given, is (trials,
    asv_map, cm_map), whose fused dev EERs are then logged per epoch. A
    batch layout the pool cannot supply raises before anything is written."""
    run = start(pool, config)
    steps = math.ceil(len(pool) / (config.speakers_per_batch * config.utterances_per_speaker))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    logs = []
    with open(out_dir / "train.log", "w", encoding="utf-8") as log_file:
        for epoch in range(1, config.epochs + 1):
            losses = [step(run, epoch, batch).loss for batch in range(1, steps + 1)]
            dev = None if dev_bundle is None else evaluate(
                score_trials(run.params, *dev_bundle, pooling=config.pooling, scorer="fused"))
            logs.append(EpochLog(epoch, run.optimizer.learning_rate,
                                 sum(losses) / len(losses), dev))
            log_file.write(logs[-1].line() + "\n")
            log_file.flush()
            run.params.save(out_dir / f"epoch_{epoch:03d}.ckpt")
    run.params.save(out_dir / "final.ckpt")
    return logs

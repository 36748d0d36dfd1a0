"""Binary cross-entropy training with hard-negative selection.

Each step draws a mini-batch, expands it into all M*K*M pairs, computes the
fused probability and BCE loss of every pair in one batched forward pass,
keeps every positive pair plus the top-N hardest negatives, and
backpropagates the mean loss over the kept pairs through SGD with momentum
and coupled L2 weight decay. The learning rate decays by a fixed factor at
every epoch end. train() is the epoch loop over start()'s run and step().

A step's tape holds one record per back-end block plus one for the loss
(six at attention pooling). Parameters, gradients and velocities each
live in one flat vector (BackendParams.values and .grad, the optimizer's
velocity), which backward and sgd_step update in place.

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
from .backend import PARAM_NAMES, BackendParams, POOLING_MODES, forward_batch
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
    """SGD momentum state. velocities, one array per parameter group by
    name, become views of velocity, one vector in BackendParams' layout;
    scratch is the step's one work vector."""

    velocities: dict[str, np.ndarray]
    learning_rate: float

    def __post_init__(self):
        arrays = [np.asarray(self.velocities[name], dtype=np.float64) for name in PARAM_NAMES]
        self.velocity = np.concatenate([v.reshape(-1) for v in arrays])
        self.scratch = np.empty_like(self.velocity)
        self.velocities = dict(zip(PARAM_NAMES, ad.split(self.velocity,
                                                         [v.shape for v in arrays])))


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


def _bce(p: np.ndarray, positive) -> tuple[np.ndarray, callable]:
    """bce_loss's values, and the function that takes their gradient back
    to p's."""
    positive = np.asarray(positive, dtype=bool)
    sign = np.where(positive, 1.0, -1.0)
    prob = sign * p + np.where(positive, 0.0, 1.0)
    inside = (prob >= BCE_CLAMP) & (prob <= 1.0 - BCE_CLAMP)
    clamped = np.clip(prob, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return -1.0 * np.log(clamped) + 0.0, lambda g: sign * (-1.0 * g / clamped * inside)


def bce_loss(p: Tensor, positive) -> Tensor:
    """Per-entry BCE: -log p where positive, -log(1-p) elsewhere, clamped
    away from 0. positive is one flag or one flag per entry of p. One tape
    entry."""
    losses, backward = _bce(p.value, positive)
    return ad.record(losses, [p], lambda g: ad.accumulate(p, backward(g)))


def select_hard(losses, positive_mask, top_n: int) -> list[int]:
    """Indices of the pairs kept for backward, in original pair order:
    every positive plus the top_n (>= 0) largest-loss negatives, NaN losses
    ranked last. Of the negatives tied at the cut, the first in pair order
    are kept, as a stable sort keeps them; np.partition finds the cut
    without sorting."""
    losses = np.asarray(losses, dtype=np.float64)
    positive = np.asarray(positive_mask, dtype=bool)
    if losses.shape != positive.shape:
        raise ValueError("losses and positive_mask lengths differ")
    negatives = np.flatnonzero(~positive)
    if top_n < negatives.size:
        keys = -losses[negatives]  # np.partition, like np.sort, puts NaN last
        cut = np.partition(keys, top_n - 1)[top_n - 1] if top_n else -np.inf
        above, tied = ((keys < cut, keys == cut) if not np.isnan(cut)
                       else (~np.isnan(keys), np.isnan(keys)))
        above[np.flatnonzero(tied)[:top_n - np.count_nonzero(above)]] = True
        negatives = negatives[above]
    return np.sort(np.concatenate([np.flatnonzero(positive), negatives])).tolist()


def sgd_step(params: BackendParams, state: OptimizerState, config: TrainConfig,
             epoch=None, batch=None) -> None:
    """v <- mu*v + (g + lambda*theta); theta <- theta - lr*v, in place on
    the flat vectors: params.grad, params.values and the state's velocity,
    with its scratch vector as the only temporary. A non-finite gradient
    raises TrainingDivergedError naming its first parameter group, before
    anything is updated."""
    g, theta, v, scratch = params.grad, params.values, state.velocity, state.scratch
    if not np.isfinite(g).all():
        name = next(name for name, t in params.parameters() if not np.isfinite(t.grad).all())
        raise TrainingDivergedError("non-finite gradient", epoch, batch, name)
    np.multiply(theta, config.weight_decay, out=scratch)
    scratch += g
    v *= config.momentum
    v += scratch
    np.multiply(v, state.learning_rate, out=scratch)
    theta -= scratch


def batch_loss(params: BackendParams, pairs: PairBatch,
               config: TrainConfig) -> tuple[Tensor, list[int]]:
    """Per-pair BCE, hard selection, mean over the selected subset.

    Returns the mean loss tensor (tracked whenever params are) and the
    selected pair indices. Selection is a 0/1 weight on each pair's loss,
    so only the selected pairs contribute gradients. The BCE, selection
    and mean are one tape entry after forward_batch's, whose backward
    replays the autodiff ops' expressions, as the back-end blocks do.
    """
    scores = forward_batch(params, pairs, config.pooling)
    losses, bce_backward = _bce(scores.p.value, pairs.positive)
    selected = select_hard(losses, pairs.positive, config.hard_negative_top_n)
    weights = np.zeros((1, len(pairs.positive)))
    weights[0, selected] = 1.0
    scale = 1.0 / len(selected)

    def backward(g):
        d_losses = ad.sum_to((scale * g)[..., None] * weights, losses.shape)
        ad.accumulate(scores.p, bce_backward(d_losses))
    return ad.record(scale * ad.row_dots(losses, weights) + 0.0, [scores.p], backward), selected


def start(pool: TrainingPool, config: TrainConfig) -> Run:
    """A fresh run on the pool, whose matrices fix the embedding dimensions.
    A batch layout the pool cannot supply raises first."""
    eligible_speakers(pool, config.speakers_per_batch, config.utterances_per_speaker)
    rng = np.random.default_rng(config.seed)
    tape = Tape()
    params = BackendParams.init(pool.asv.shape[1], pool.cm.shape[1], config.hidden_dim, rng,
                                tape=tape, pooling=config.pooling)
    velocities = {name: np.zeros(t.shape) for name, t in params.parameters()}
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

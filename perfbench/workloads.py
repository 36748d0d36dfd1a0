"""The benchmark's workloads: seeded set-up, the timed operation and its checks.

A training workload times steps of the training loop: draw, expand, loss,
backward, SGD step and tape clear, exactly as ``training.train`` runs them.
One episode is one epoch of the recipe from freshly seeded parameters, so
every episode must repeat the first one's loss sequence bit for bit. Each
loss is also checked against the numpy reference the first time its step
index runs.

A scoring workload times score jobs: the calls ``sasv-backend score`` and
``evaluate`` make, from loading the checkpoint to the EER report. Jobs cycle
through the scorers, and every job's scores are checked against the numpy
reference.

Set-up generates the seeded corpus, writes it, reads it back through the
data layer and builds the records, the parameters and their checkpoint.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sasvbackend import backend, metrics, sampling, scoring, training
from sasvbackend.autodiff import Tape
from sasvbackend import data as dio

from . import reference as ref

REF_TOLERANCE = 1e-10
CHECKPOINT = "bench.ckpt"


class CheckFailed(RuntimeError):
    """An operation's output disagrees with what the benchmark expects."""


@dataclass(frozen=True)
class Outcome:
    seconds: float
    items: int          # training pairs forwarded, or trials scored
    selected: int = 0   # pairs kept for backward


@dataclass(frozen=True)
class TrainWorkload:
    """Training steps of one recipe (TrainConfig fields, seed aside)."""

    synth: dict
    recipe: dict
    op_name = "bench.step"

    @property
    def hidden_dim(self) -> int:
        return self.recipe["hidden_dim"]

    def session(self, prep: "Prepared", seed: int) -> "TrainSession":
        return TrainSession(prep, training.TrainConfig(seed=seed, **self.recipe))


@dataclass(frozen=True)
class ScoreWorkload:
    """Score jobs over the eval trials, cycling through the scorers."""

    synth: dict
    hidden_dim: int
    pooling: str = "attention"
    op_name = "bench.job"

    def session(self, prep: "Prepared", seed: int) -> "ScoreSession":
        return ScoreSession(prep, self.pooling)


WORKLOADS = {
    # the pinned trend recipe on the default 96/24-d corpus
    "train-trend": TrainWorkload(
        synth={},
        recipe=dict(learning_rate=0.15, lr_decay_per_epoch=0.97, speakers_per_batch=8,
                    utterances_per_speaker=10, hidden_dim=32, hard_negative_top_n=100,
                    pooling="attention"),
    ),
    # corpus-scale shape: 192-d ASV and 160-d CM embeddings, M=16, h_f=64
    "train-corpus": TrainWorkload(
        synth=dict(d_a=192, d_c=160),
        recipe=dict(speakers_per_batch=16, utterances_per_speaker=10, hidden_dim=64,
                    hard_negative_top_n=100, pooling="attention"),
    ),
    # 200 eval speakers: 7,800 trials, 8,240 embeddings per file
    "score-eval": ScoreWorkload(
        synth=dict(train_speakers=4, dev_speakers=2, eval_speakers=200, d_a=192, d_c=160),
        hidden_dim=64,
    ),
}


@dataclass
class Prepared:
    dir: Path
    dataset: dio.SyntheticDataset
    records: list
    params: backend.BackendParams
    asv_map: dict
    cm_map: dict


def seeded_params(d_a: int, d_c: int, h_f: int, seed: int) -> backend.BackendParams:
    """Initial weights with the calibration and fusion scalars also drawn,
    so that every parameter shapes the scores the checks compare."""
    rng = np.random.default_rng(seed)
    params = backend.BackendParams.init(d_a, d_c, h_f, rng)
    for name, lo, hi in (("a", 2.0, 6.0), ("b", -1.0, 1.0), ("b_cm", -0.5, 0.5),
                         ("w1", 0.5, 2.0), ("w2", 0.5, 2.0), ("v", -2.0, 0.0)):
        getattr(params, name).value[0, 0] = rng.uniform(lo, hi)
    return params


def set_up(workload, seed: int, out_dir: Path) -> Prepared:
    """Generate, write and read back the corpus; build records, parameters
    and the checkpoint. This is what setup_s times."""
    dataset = dio.generate_synthetic(dio.SynthConfig(seed=seed, **workload.synth))
    dio.write_synthetic(dataset, out_dir)
    manifest = dio.load_manifest(out_dir / "manifest.tsv")
    asv_map = dio.load_embeddings(out_dir / "asv_embeddings.txt")
    cm_map = dio.load_embeddings(out_dir / "cm_embeddings.txt")
    records = dio.build_records(manifest, asv_map, cm_map)
    d_a, d_c = records[0].asv_embedding.dim, records[0].cm_embedding.dim
    seeded_params(d_a, d_c, workload.hidden_dim, seed).save(out_dir / CHECKPOINT)
    params = backend.BackendParams.load(out_dir / CHECKPOINT)
    return Prepared(out_dir, dataset, records, params, asv_map, cm_map)


def check_setup(prep: Prepared, seed: int) -> None:
    """The files read back must hold exactly what was generated and saved."""
    for name, parsed, generated in (("ASV", prep.asv_map, prep.dataset.asv_embeddings),
                                    ("CM", prep.cm_map, prep.dataset.cm_embeddings)):
        if parsed.keys() != generated.keys() or any(
                not np.array_equal(parsed[k], v) for k, v in generated.items()):
            raise CheckFailed(f"{name} embeddings changed in the write/read round trip")
    if len(prep.records) != len(prep.dataset.manifest.utterances):
        raise CheckFailed("record count differs from the manifest")
    saved = seeded_params(prep.params.d_a, prep.params.d_c, prep.params.h_f, seed)
    for (name, got), (_, want) in zip(prep.params.parameters(), saved.parameters()):
        if not np.array_equal(got.value, want.value):
            raise CheckFailed(f"checkpoint round trip changed parameter {name}")


def _values(params: backend.BackendParams) -> dict:
    return {name: t.value.copy() for name, t in params.parameters()}


def _batch_arrays(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    utts = [b.utterances for b in batch.speakers]
    return (np.array([[u.asv_embedding.values for u in row] for row in utts]),
            np.array([[u.cm_embedding.values for u in row] for row in utts]),
            np.array([[u.bonafide for u in row] for row in utts]))


class TrainSession:
    """Runs training steps episode after episode and checks each one."""

    def __init__(self, prep: Prepared, config: training.TrainConfig):
        self.config = config
        self.records = prep.records
        self.d_a = prep.records[0].asv_embedding.dim
        self.d_c = prep.records[0].cm_embedding.dim
        m, k = config.speakers_per_batch, config.utterances_per_speaker
        self.pairs_per_step = m * k * m
        self.steps_per_episode = max(1, math.ceil(len(prep.records) / (m * k)))
        self.reference_losses: list[float] = []
        self._state = None
        self._step = 0

    def reset(self) -> None:
        """Start the next operation from a fresh episode."""
        self._state = None

    def _new_episode(self) -> None:
        rng = np.random.default_rng(self.config.seed)
        tape = Tape()
        params = backend.BackendParams.init(self.d_a, self.d_c, self.config.hidden_dim,
                                            rng, tape=tape)
        state = training.OptimizerState(
            velocities={name: np.zeros_like(t.value) for name, t in params.parameters()},
            learning_rate=self.config.learning_rate,
        )
        self._state = (rng, tape, params, state)
        self._step = 0

    def run(self, timed) -> Outcome:
        if self._state is None or self._step == self.steps_per_episode:
            self._new_episode()
        episode, self._state = self._state, None  # kept only if the step checks out
        rng, tape, params, state = episode
        step, self._step = self._step, self._step + 1
        first_time = step == len(self.reference_losses)
        before = _values(params) if first_time else None
        config = self.config
        with timed:
            t0 = time.perf_counter()
            batch = sampling.draw_batch(self.records, config.speakers_per_batch,
                                        config.utterances_per_speaker, rng)
            pairs = sampling.expand_pairs(batch)
            loss, selected = training.batch_loss(params, pairs, config)
            value = loss.item()
            if not math.isfinite(value):
                raise training.TrainingDivergedError("non-finite loss", batch=step + 1)
            tape.backward(loss)
            training.sgd_step(params, state, config)
            tape.clear()
            seconds = time.perf_counter() - t0

        if len(pairs) != self.pairs_per_step:
            raise CheckFailed(f"step {step}: {len(pairs)} pairs, "
                              f"expected {self.pairs_per_step}")
        positives = sum(p.positive for p in pairs)
        want = positives + min(config.hard_negative_top_n, len(pairs) - positives)
        if len(selected) != want:
            raise CheckFailed(f"step {step}: {len(selected)} pairs selected, expected {want}")
        if first_time:
            asv, cm, bona = _batch_arrays(batch)
            expected, _ = ref.batch_loss(before, asv, cm, bona,
                                         config.hard_negative_top_n, config.pooling)
            if not abs(value - expected) <= REF_TOLERANCE:
                raise CheckFailed(f"step {step}: loss {value!r} differs from the "
                                  f"reference {expected!r}")
            self.reference_losses.append(value)
        elif value != self.reference_losses[step]:
            raise CheckFailed(f"step {step}: loss {value!r} is not bitwise equal to "
                              f"{self.reference_losses[step]!r} from the same seed")
        self._state = episode
        return Outcome(seconds, len(pairs), len(selected))


class ScoreSession:
    """Runs score jobs, cycling through the scorers, and checks each one."""

    def __init__(self, prep: Prepared, pooling: str):
        self.dir = prep.dir
        self.pooling = pooling
        trials = prep.dataset.trials_eval
        self.keys = [(t.claimed_speaker, t.test_id, t.label) for t in trials]
        self.label_counts = tuple(sum(t.label == label for t in trials)
                                  for label in metrics.TRIAL_LABELS)
        # from the generated corpus, not from the files the jobs parse
        cols = ref.score_trial_list(_values(prep.params), trials, prep.dataset.asv_embeddings,
                                    prep.dataset.cm_embeddings, pooling)
        self.expected = {s: ref.scorer_values(cols, s) for s in scoring.SCORERS}
        self.reports: dict[str, metrics.EerReport] = {}
        self.jobs = 0

    def reset(self) -> None:
        self.jobs = 0

    def run(self, timed) -> Outcome:
        scorer = scoring.SCORERS[self.jobs % len(scoring.SCORERS)]
        self.jobs += 1
        d = self.dir
        out = d / f"scores_{scorer}.tsv"
        with timed:
            t0 = time.perf_counter()
            params = backend.BackendParams.load(d / CHECKPOINT)
            asv_map = dio.load_embeddings(d / "asv_embeddings.txt")
            cm_map = dio.load_embeddings(d / "cm_embeddings.txt")
            trials = dio.load_trials(d / "trials_eval.tsv")
            records = scoring.score_trials(params, trials, asv_map, cm_map,
                                           pooling=self.pooling, scorer=scorer)
            dio.save_scores(records, out)
            loaded = dio.load_scores(out)
            report = metrics.evaluate(loaded)
            seconds = time.perf_counter() - t0

        if len(loaded) != len(self.keys):
            raise CheckFailed(f"{scorer}: {len(loaded)} scores for {len(self.keys)} trials")
        if [(r.claimed_speaker, r.test_utterance, r.label) for r in loaded] != self.keys:
            raise CheckFailed(f"{scorer}: scores are not in trial order")
        scores = np.array([r.score for r in loaded])
        if not np.array_equal(scores, [r.score for r in records]):
            raise CheckFailed(f"{scorer}: scores changed in the save/load round trip")
        worst = float(np.max(np.abs(scores - self.expected[scorer])))
        if not worst <= REF_TOLERANCE:
            raise CheckFailed(f"{scorer}: scores differ from the reference by {worst:.3e}")
        if (report.n_target, report.n_nontarget, report.n_spoof) != self.label_counts:
            raise CheckFailed(f"{scorer}: report trial counts differ from the trial list")
        if self.reports.setdefault(scorer, report) != report:
            raise CheckFailed(f"{scorer}: EER report differs from the first job's")
        return Outcome(seconds, len(trials))

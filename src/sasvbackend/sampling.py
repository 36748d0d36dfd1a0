"""Mini-batch construction and expansion into labeled training pairs.

A mini-batch holds M speakers with K utterances each, split evenly into
bona-fide and spoofed halves. Expansion turns every utterance into a test
trial paired once with its own speaker's remaining utterances and once with
every other speaker's utterances at the same excluded index, giving exactly
M * K * M pairs per batch. A pair is positive only when the speakers match
AND the test utterance is bona fide; spoofed tests of the correct speaker
are negatives.

The training pool is built once from arrays (ids, bona-fide flags, ASV and
CM matrices) and checked in one pass; a record is built only when the pool
is indexed. A mini-batch is an (M, K) array of pool rows, and its pairs are
arrays too: a test row, an enrollment set and a label each, gathered from
the pool. An enrollment group holds only its speaker's K/2 >= 2 bona-fide
rows (spoofed entries carry no weight), so every enrollment keeps one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .backend import Embedding, EnrollmentStack, TrialBatch, ZeroNormError


class PoolExhaustedError(ValueError):
    """The utterance pool cannot supply the requested batch layout."""


@dataclass(frozen=True)
class UtteranceRecord:
    """One training utterance with both of its embeddings."""

    speaker_id: str
    utterance_id: str
    bonafide: bool
    asv_embedding: Embedding
    cm_embedding: Embedding


@dataclass(frozen=True)
class SpeakerBlock:
    speaker_id: str
    utterances: tuple[UtteranceRecord, ...]


class TrainingPool:
    """The training utterances as arrays: row i of asv (N x d_a), cm (N x d_c)
    and bonafide is utterance_ids[i] of speaker_ids[i]. The speakers are in
    sorted id order: speaker s has the bona-fide rows bona_rows[s] and the
    spoofed rows spoof_rows[s], each in pool order. An empty pool or a
    non-finite row raises ValueError and a zero ASV row ZeroNormError,
    naming the first such utterance."""

    def __init__(self, speaker_ids, utterance_ids, bonafide, asv, cm):
        if not len(utterance_ids):
            raise ValueError("empty training pool")
        self.speaker_ids, self.utterance_ids = tuple(speaker_ids), tuple(utterance_ids)
        self.bonafide = np.asarray(bonafide, dtype=bool)
        self.asv = np.asarray(asv, dtype=np.float64)
        self.cm = np.asarray(cm, dtype=np.float64)
        zero = ~self.asv.any(axis=1)  # NaN counts as nonzero, so a zero row is finite
        bad = zero | ~np.isfinite(self.asv).all(axis=1) | ~np.isfinite(self.cm).all(axis=1)
        if bad.any():  # Embedding's checks, for the first bad row
            i = int(bad.argmax())
            if zero[i]:
                raise ZeroNormError(f"ASV embedding {self.utterance_ids[i]!r} is a zero vector")
            raise ValueError(f"embedding {self.utterance_ids[i]!r} has non-finite values")
        by_speaker: dict[str, tuple[list, list]] = {}
        for row, (speaker, bona) in enumerate(zip(self.speaker_ids, self.bonafide.tolist())):
            by_speaker.setdefault(speaker, ([], []))[not bona].append(row)
        speakers = sorted(by_speaker)
        self.bona_rows = [np.array(by_speaker[s][0], dtype=np.intp) for s in speakers]
        self.spoof_rows = [np.array(by_speaker[s][1], dtype=np.intp) for s in speakers]
        self.n_bona = np.array([len(rows) for rows in self.bona_rows], dtype=np.intp)
        self.n_spoof = np.array([len(rows) for rows in self.spoof_rows], dtype=np.intp)

    def __len__(self) -> int:
        return len(self.bonafide)

    # the record view, built on demand: no step reads it; the benchmark
    # reads records[0] and MiniBatch.speakers builds its blocks from it
    def __getitem__(self, i) -> UtteranceRecord:
        utt = self.utterance_ids[i]  # raises IndexError out of range
        return UtteranceRecord(self.speaker_ids[i], utt, bool(self.bonafide[i]),
                               Embedding(utt, "asv", self.asv[i]), Embedding(utt, "cm", self.cm[i]))


@dataclass(frozen=True, eq=False)
class MiniBatch:
    """M speakers' blocks of K pool rows each: rows[l, j] is the pool row of
    utterance j of speaker l, and (M, K) = rows.shape. Each block holds K/2
    bona-fide and K/2 spoofed rows; expand_pairs rejects a hand-built batch
    that does not."""

    pool: TrainingPool
    rows: np.ndarray

    # no package code reads the blocks; the benchmark's untimed reference
    # check and the tests do
    @cached_property
    def speakers(self) -> tuple[SpeakerBlock, ...]:
        blocks = [tuple(self.pool[int(i)] for i in row) for row in self.rows]
        return tuple(SpeakerBlock(utts[0].speaker_id, utts) for utts in blocks)


class TrainingPair(NamedTuple):
    """One pair of a PairBatch: its test row, enrollment set and label."""

    test_row: int
    enroll_set: int
    positive: bool


@dataclass(frozen=True, eq=False)
class PairBatch(TrialBatch):
    """The M * K * M training pairs of a mini-batch, as arrays.

    Row l*K + j of test_asv (M*K x d_a) and test_cm (M*K x d_c) holds
    utterance j of speaker l, MiniBatch.rows[l, j]. The enrollment stack has
    one group per speaker holding its B = K/2 bona-fide rows, in slot order,
    under B + 1 sets: set n*(B+1) + j leaves out speaker n's bona-fide entry
    j for j < B, and set n*(B+1) + B keeps them all. Pair i = (l*K + m)*M + n
    tests row test_row[i] = l*K + m against enrollment set enroll_set[i],
    speaker n's set without slot m; positive[i] is its label.
    """

    positive: np.ndarray

    # no package code indexes pairs; the benchmark sums p.positive over them
    def __len__(self) -> int:
        return len(self.positive)

    def __getitem__(self, i: int) -> TrainingPair:
        return TrainingPair(int(self.test_row[i]), int(self.enroll_set[i]),
                            bool(self.positive[i]))


def check_layout(m: int, k: int) -> None:
    """Reject a batch layout no pool can supply: an odd or non-positive k or
    m < 2 raises ValueError; k = 2 (holding out a block's one bona-fide slot
    empties it) raises PoolExhaustedError."""
    if k <= 0 or k % 2 != 0:
        raise ValueError(f"k must be positive and even, got {k}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if k == 2:
        raise PoolExhaustedError("k=2 leaves one bona-fide entry per speaker, and excluding "
                                 "it empties the enrollment; k must be at least 4")


def eligible_speakers(pool: TrainingPool, m: int, k: int) -> np.ndarray:
    """The speakers (indices in sorted id order) with k/2 bona-fide and k/2
    spoofed utterances; draws no random numbers. Raises check_layout's errors;
    fewer than m such speakers raise PoolExhaustedError counting the speakers
    short of each kind."""
    check_layout(m, k)
    half = k // 2
    eligible = np.flatnonzero((pool.n_bona >= half) & (pool.n_spoof >= half))
    if len(eligible) < m:
        raise PoolExhaustedError(
            f"need {m} speakers with >= {half} bona-fide and >= {half} spoofed "
            f"utterances, only {len(eligible)} qualify "
            f"({np.count_nonzero(pool.n_bona < half)} speakers lack bona-fide and "
            f"{np.count_nonzero(pool.n_spoof < half)} lack spoofed utterances)"
        )
    return eligible


def draw_batch(pool: TrainingPool, m: int, k: int, rng: np.random.Generator) -> MiniBatch:
    """Sample m eligible speakers with k/2 bona-fide + k/2 spoofed utterances
    each, without replacement inside the batch, as an (m, k) array of pool
    rows. Deterministic for a given rng state."""
    eligible = eligible_speakers(pool, m, k)
    half = k // 2
    rows = np.empty((m, k), dtype=np.intp)
    for l, speaker in enumerate(eligible[rng.choice(len(eligible), size=m, replace=False)]):
        bona, spoof = pool.bona_rows[speaker], pool.spoof_rows[speaker]
        rows[l, :half] = bona[rng.choice(len(bona), size=half, replace=False)]
        rows[l, half:] = spoof[rng.choice(len(spoof), size=half, replace=False)]
        rows[l] = rows[l, rng.permutation(k)]
    return MiniBatch(pool, rows)


def expand_pairs(batch: MiniBatch) -> PairBatch:
    """Expand a batch into its M * K * M training pairs.

    For test utterance m of speaker l, the enrollment against speaker n is
    speaker n's utterances with index m excluded, mirroring the row pattern
    where a test at slot 2 pairs with slots 1, 3, 4 of every speaker.
    Spoofed entries get zero weight, so each speaker's group holds only its
    K/2 bona-fide rows, in slot order, under the sets PairBatch describes;
    a pair whose slot m is spoofed takes speaker n's full set. Pairs are
    ordered by (l, m, n). test_asv and test_cm are one gather each from the
    pool's arrays by the batch's row indices. A block that does not hold
    exactly K/2 bona-fide rows, which draw_batch never builds, raises
    ValueError.
    """
    m, k = batch.rows.shape
    half = k // 2
    rows = batch.rows.reshape(-1)
    asv = np.take(batch.pool.asv, rows, axis=0)
    bonafide = np.take(batch.pool.bonafide, rows)
    block = bonafide.reshape(m, k)
    if (block.sum(axis=1) != half).any():
        raise ValueError(f"every block must hold k/2 = {half} bona-fide rows, got "
                         f"{block.sum(axis=1).tolist()}")
    # the set each (speaker, slot) pair takes: its bona-fide rank, or the full set
    held_out = np.where(block, np.cumsum(block, axis=1) - 1, half)
    set_of = held_out + (half + 1) * np.arange(m)[:, None]
    masked = np.broadcast_to(np.eye(half + 1, half, dtype=bool), (m, half + 1, half))
    test_row, enroll_speaker = np.divmod(np.arange(m * k * m), m)
    return PairBatch(
        test_asv=asv,
        test_cm=np.take(batch.pool.cm, rows, axis=0),
        enroll=EnrollmentStack(asv[bonafide].reshape(m, half, -1), masked),
        test_row=test_row,
        enroll_set=set_of[enroll_speaker, test_row % k],
        positive=(enroll_speaker == test_row // k) & bonafide[test_row],
    )

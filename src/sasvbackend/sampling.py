"""Mini-batch construction and expansion into labeled training pairs.

A mini-batch holds M speakers with K utterances each, split evenly into
bona-fide and spoofed halves. Expansion turns every utterance into a test
trial paired once with its own speaker's remaining utterances and once with
every other speaker's utterances at the same excluded index, giving exactly
M * K * M pairs per batch. A pair is positive only when the speakers match
AND the test utterance is bona fide; spoofed tests of the correct speaker
are negatives.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .backend import Embedding, EnrollmentSet, EnrollmentStack, TrialBatch

MAX_REDRAWS = 100


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

    def __post_init__(self):
        if self.asv_embedding.kind != "asv" or self.cm_embedding.kind != "cm":
            raise ValueError(f"utterance {self.utterance_id!r}: embedding kinds are swapped")


@dataclass(frozen=True)
class SpeakerBlock:
    speaker_id: str
    utterances: tuple[UtteranceRecord, ...]


@dataclass(frozen=True)
class MiniBatch:
    """M speaker blocks of K utterances each (K/2 bona fide, K/2 spoofed)."""

    speakers: tuple[SpeakerBlock, ...]

    @property
    def m(self) -> int:
        return len(self.speakers)

    @property
    def k(self) -> int:
        return len(self.speakers[0].utterances)


@dataclass(frozen=True)
class TrainingPair:
    """One pair of a PairBatch, as records."""

    test: UtteranceRecord
    enroll: EnrollmentSet
    positive: bool


@dataclass(frozen=True, eq=False)
class PairBatch(TrialBatch, Sequence):
    """The M * K * M training pairs of a mini-batch, as arrays.

    Row l*K + j of test_asv (M*K x d_a), test_cm (M*K x d_c) and bonafide
    holds utterance j of speaker l. The enrollment stack has one group per
    speaker, and its set n*K + j is speaker n without slot j. Pair i tests
    row test_row[i] against enrollment set enroll_set[i]; positive[i] is its
    label. Indexing or iterating yields TrainingPair views.
    """

    batch: MiniBatch
    bonafide: np.ndarray
    positive: np.ndarray

    def __len__(self) -> int:
        return len(self.positive)

    def __getitem__(self, i: int) -> TrainingPair:
        i = range(len(self))[i]
        k = self.batch.k
        test_row = int(self.test_row[i])
        speaker, slot = divmod(int(self.enroll_set[i]), k)
        test = self.batch.speakers[test_row // k].utterances[test_row % k]
        block = self.batch.speakers[speaker]
        kept = [u for j, u in enumerate(block.utterances) if j != slot]
        enroll = EnrollmentSet(block.speaker_id, tuple(u.asv_embedding for u in kept),
                               tuple(u.bonafide for u in kept))
        return TrainingPair(test, enroll, bool(self.positive[i]))


def _group_pool(pool) -> dict[str, tuple[list, list]]:
    by_speaker: dict[str, tuple[list, list]] = {}
    for rec in pool:
        bona, spoof = by_speaker.setdefault(rec.speaker_id, ([], []))
        (bona if rec.bonafide else spoof).append(rec)
    return by_speaker


def _enrollment_survives_exclusion(block: SpeakerBlock) -> bool:
    # dropping any single index must leave at least one bona-fide entry
    return sum(1 for u in block.utterances if u.bonafide) >= 2


def draw_batch(pool, m: int, k: int, rng: np.random.Generator) -> MiniBatch:
    """Sample a mini-batch of m speakers with k/2 bona-fide + k/2 spoofed
    utterances each, without replacement inside the batch.

    Batches where excluding any single index would leave some enrollment
    with no bona-fide entry are redrawn (at most MAX_REDRAWS times).
    Deterministic for a given rng state.
    """
    if k % 2 != 0:
        raise ValueError(f"k must be even, got {k}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    by_speaker = _group_pool(pool)
    half = k // 2
    eligible = sorted(
        spk for spk, (bona, spoof) in by_speaker.items()
        if len(bona) >= half and len(spoof) >= half
    )
    if len(eligible) < m:
        short_bona = sum(1 for _, (b, _s) in by_speaker.items() if len(b) < half)
        raise PoolExhaustedError(
            f"need {m} speakers with >= {half} bona-fide and >= {half} spoofed "
            f"utterances, only {len(eligible)} qualify "
            f"({short_bona} speakers lack bona-fide utterances)"
        )

    for _ in range(MAX_REDRAWS):
        chosen = rng.choice(len(eligible), size=m, replace=False)
        blocks = []
        for idx in chosen:
            speaker = eligible[int(idx)]
            bona, spoof = by_speaker[speaker]
            picked_bona = [bona[int(i)] for i in rng.choice(len(bona), size=half, replace=False)]
            picked_spoof = [spoof[int(i)] for i in rng.choice(len(spoof), size=half, replace=False)]
            utterances = picked_bona + picked_spoof
            order = rng.permutation(k)
            blocks.append(SpeakerBlock(speaker, tuple(utterances[int(i)] for i in order)))
        if all(_enrollment_survives_exclusion(b) for b in blocks):
            return MiniBatch(tuple(blocks))
    raise PoolExhaustedError(
        f"could not draw a batch with usable enrollments in {MAX_REDRAWS} attempts "
        f"(k={k} leaves {half} bona-fide entries, excluding one can empty them)"
    )


def expand_pairs(batch: MiniBatch) -> PairBatch:
    """Expand a batch into its M * K * M training pairs.

    For test utterance m of speaker l, the enrollment against speaker n is
    speaker n's utterances with index m excluded, mirroring the row pattern
    where a test at slot 2 pairs with slots 1, 3, 4 of every speaker.
    Each speaker's K utterances form one enrollment group; the excluded
    slot and the spoofed entries stay in it but are masked.
    Pairs are ordered by (l, m, n).
    """
    m, k = batch.m, batch.k
    utterances = [u for block in batch.speakers for u in block.utterances]
    asv = np.array([u.asv_embedding.values for u in utterances])
    bonafide = np.array([u.bonafide for u in utterances])
    members = np.arange(m * k).reshape(m, k)
    # set j of speaker n's group masks the spoofed slots and slot j
    masked = ~bonafide[members][:, None, :] | np.eye(k, dtype=bool)
    test_row, enroll_speaker = np.divmod(np.arange(m * k * m), m)
    return PairBatch(
        test_asv=asv,
        test_cm=np.array([u.cm_embedding.values for u in utterances]),
        enroll=EnrollmentStack(asv, members, masked),
        test_row=test_row,
        enroll_set=enroll_speaker * k + test_row % k,
        batch=batch,
        bonafide=bonafide,
        positive=(enroll_speaker == test_row // k) & bonafide[test_row],
    )

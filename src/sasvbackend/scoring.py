"""Score trial lists with a trained back-end.

Three scorers share one set of parameters:

  fused      the back-end's final probability (CM-aware)
  asv_only   the calibrated cosine probability, ignoring the CM head
  score_sum  untrained combination: raw cosine plus raw CM score

Enrollment utterances in trial lists follow the usual convention of being
bona fide, so no masking applies at scoring time. Trials are scored in
batched forward passes, each over enrollment sets of one size, so no pass
pads a set: within a pass each distinct (claimed speaker, enrollment ids)
set is pooled once and each distinct test utterance goes through the CM
head once, and the ASV head's dot products are one matrix product of the
pass's test rows with its pooled sets.
"""

from __future__ import annotations

import numpy as np

from .backend import (
    BackendParams,
    EnrollmentStack,
    TrialBatch,
    ZeroNormError,
    forward_batch,
    fuse,
)
from .data import TrialList, resolve_trials
from .metrics import ScoreRecord, score_sum_baseline

SCORERS = ("fused", "asv_only", "score_sum")

# limits of one forward pass, which bound peak memory: trials, which bound
# the distinct test rows a pass gathers (unbounded, score-eval's peak RSS
# rose from about 145 to 157 MB), and enrollment rows (distinct sets x set
# size), which dominate when sets are long and rarely shared. SCORE_CELLS
# bounds the ASV head's product of distinct test rows and distinct sets,
# which the other two let reach 1,024 x 1,024 (8 MB, and 9.2 ms for 1,024
# trials against unshared one-entry sets); a score-eval pass, about 990
# rows x 28 sets, holds about 27,700 cells and is not split by it
SCORE_CHUNK = 1024
SCORE_POOL_ROWS = 1024
SCORE_CELLS = 1 << 16


def _index(keys) -> tuple[dict, np.ndarray]:
    """Distinct keys in first-seen order, and each key's position among them."""
    position: dict = {}
    return position, np.array([position.setdefault(key, len(position)) for key in keys])


def _trial_batch(trials: TrialList, asv_map, cm_map) -> TrialBatch:
    """The trials, whose enrollment sets have one size, as one forward-pass
    batch: each distinct (claimed speaker, enrollment ids) set is an
    enrollment group of its own (R = 1), its rows in enrollment order, in a
    (sets, size, d_a) array; each distinct test utterance appears once."""
    claims, enroll_set = _index((t.claimed_speaker, t.enroll_ids) for t in trials)
    tests, test_row = _index(t.test_id for t in trials)
    enroll = np.array([[asv_map[e] for e in ids] for _, ids in claims])
    return TrialBatch(np.array([asv_map[t] for t in tests]), np.array([cm_map[t] for t in tests]),
                      EnrollmentStack(enroll, np.zeros((len(claims), 1, enroll.shape[1]), bool)),
                      test_row, enroll_set)


def _chunks(trials: TrialList):
    """Trial positions for each forward pass, taken in order of enrollment
    set size; a pass holds sets of one size."""
    chunk: list[int] = []
    sets: set = set()
    tests: set = set()
    for i in sorted(range(len(trials)), key=lambda i: len(trials[i].enroll_ids)):
        t = trials[i]
        key = (t.claimed_speaker, t.enroll_ids)
        n_sets = len(sets) + (key not in sets)
        cells = (len(tests) + (t.test_id not in tests)) * n_sets
        if chunk and (len(chunk) == SCORE_CHUNK or n_sets * len(t.enroll_ids) > SCORE_POOL_ROWS
                      or cells > SCORE_CELLS
                      or len(t.enroll_ids) != len(trials[chunk[-1]].enroll_ids)):
            yield chunk
            chunk, sets, tests = [], set(), set()
        chunk.append(i)
        sets.add(key)
        tests.add(t.test_id)
    if chunk:
        yield chunk


def score_trials(params: BackendParams, trials: TrialList, asv_map, cm_map,
                 pooling: str = "attention", scorer: str = "fused") -> list[ScoreRecord]:
    """Produce one ScoreRecord per trial, in trial order.

    Trials are scored in forward passes of one enrollment set size, at
    most SCORE_CHUNK trials, SCORE_POOL_ROWS enrollment rows and
    SCORE_CELLS distinct test rows x distinct sets. A trial's score
    matches scoring it on its own to round-off (about 1e-16 relative), not
    to the last bit.
    """
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    resolve_trials(trials, asv_map, cm_map)
    params = params.detach()  # never record scoring on a training tape
    scores = np.empty(len(trials))
    for chunk in _chunks(trials):
        batch = [trials[i] for i in chunk]
        try:
            cols = forward_batch(params, _trial_batch(batch, asv_map, cm_map), pooling)
        except ZeroNormError as exc:  # resolve_trials left only pooled rows to be zero
            speaker, ids = list(_index((t.claimed_speaker, t.enroll_ids) for t in batch)[0])[exc.row]
            raise ZeroNormError(f"{pooling} pooling of the enrollment of speaker {speaker!r} "
                                f"({', '.join(ids)}) gives a zero vector") from None
        if scorer == "fused":
            # fused through this module's fuse, so a substitute for it
            # reaches the scores
            _, p = fuse(params, cols.p_cm, cols.p_asv)
            scores[chunk] = p.value
        elif scorer == "asv_only":
            scores[chunk] = cols.p_asv.value
        else:
            scores[chunk] = score_sum_baseline(cols.cos.value, cols.s_cm.value)
    return [ScoreRecord(t.claimed_speaker, t.test_id, score, t.label)
            for t, score in zip(trials, scores.tolist())]

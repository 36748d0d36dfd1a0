"""Score trial lists with a trained back-end.

Three scorers share one set of parameters:

  fused      the back-end's final probability (CM-aware)
  asv_only   the calibrated cosine probability, ignoring the CM head
  score_sum  untrained combination: raw cosine plus raw CM score

Enrollment utterances in trial lists follow the usual convention of being
bona fide, so no masking applies at scoring time. Trials are scored in
batched forward passes: within a pass each distinct (claimed speaker,
enrollment ids) set is pooled once and each distinct test utterance goes
through the CM head once.
"""

from __future__ import annotations

import numpy as np

from .backend import (
    BackendParams,
    EnrollmentStack,
    TrialBatch,
    forward_batch,
    fuse,
)
from .data import TrialList, resolve_trials
from .metrics import ScoreRecord, score_sum_baseline

SCORERS = ("fused", "asv_only", "score_sum")

# limits of one forward pass, which bound peak memory: trials, whose
# gathered per-trial rows would otherwise dominate on a long trial list,
# and padded enrollment rows (distinct sets x widest set), which dominate
# when sets are long and rarely shared
SCORE_CHUNK = 1024
SCORE_POOL_ROWS = 1024


def _index(keys) -> tuple[dict, np.ndarray]:
    """Distinct keys in first-seen order, and each key's position among them."""
    position: dict = {}
    return position, np.array([position.setdefault(key, len(position)) for key in keys])


def _trial_batch(trials: TrialList, asv_map, cm_map) -> TrialBatch:
    """The trials as one forward-pass batch. Each distinct (claimed speaker,
    enrollment ids) set is an enrollment group of its own (R = 1) and each
    distinct test utterance appears once; shorter enrollment sets are
    padded with masked entries."""
    claims, enroll_set = _index((t.claimed_speaker, t.enroll_ids) for t in trials)
    tests, test_row = _index(t.test_id for t in trials)
    width = max(len(ids) for _, ids in claims)
    members = np.zeros((len(claims), width), dtype=np.intp)
    masked = np.ones((len(claims), 1, width), dtype=bool)
    enroll_ids: list[str] = []
    for s, (_, ids) in enumerate(claims):
        members[s, :len(ids)] = np.arange(len(ids)) + len(enroll_ids)
        masked[s, 0, :len(ids)] = False
        enroll_ids += ids
    return TrialBatch(np.array([asv_map[t] for t in tests]), np.array([cm_map[t] for t in tests]),
                      EnrollmentStack(np.array([asv_map[e] for e in enroll_ids]), members, masked),
                      test_row, enroll_set)


def _chunks(trials: TrialList):
    """Trial positions for each forward pass, taken in order of enrollment
    set size so that shorter sets need little padding."""
    chunk: list[int] = []
    sets: set = set()
    for i in sorted(range(len(trials)), key=lambda i: len(trials[i].enroll_ids)):
        t = trials[i]
        key = (t.claimed_speaker, t.enroll_ids)
        rows = (len(sets) + (key not in sets)) * len(t.enroll_ids)
        if chunk and (len(chunk) == SCORE_CHUNK or rows > SCORE_POOL_ROWS):
            yield chunk
            chunk, sets = [], set()
        chunk.append(i)
        sets.add(key)
    if chunk:
        yield chunk


def score_trials(params: BackendParams, trials: TrialList, asv_map, cm_map,
                 pooling: str = "attention", scorer: str = "fused") -> list[ScoreRecord]:
    """Produce one ScoreRecord per trial, in trial order.

    Trials are scored in forward passes of at most SCORE_CHUNK trials and
    SCORE_POOL_ROWS padded enrollment rows. A trial's score matches scoring
    it on its own to round-off (about 1e-16 relative), not to the last bit.
    """
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    resolve_trials(trials, asv_map, cm_map)
    params = params.detach()  # never record scoring on a training tape
    scores = np.empty(len(trials))
    for chunk in _chunks(trials):
        cols = forward_batch(params, _trial_batch([trials[i] for i in chunk], asv_map, cm_map),
                             pooling)
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

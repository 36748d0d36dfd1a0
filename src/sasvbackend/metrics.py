"""Equal-error-rate evaluation for spoofing-aware verification trials.

Three metrics over one set of scored trials:

  SV-EER    target vs. nontarget (zero-effort impostors)
  SPF-EER   target vs. spoof
  SASV-EER  target vs. the union of both impostor classes

Numerical convention, pinned here and by the oracle tests: thresholds sweep
the sorted unique scores, FRR(t) is the fraction of positives strictly below
t, FAR(t) is the fraction of negatives at or above t (ties count as
acceptance), and the EER is linearly interpolated between the two adjacent
operating points that bracket the FAR = FRR crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRIAL_LABELS = ("target", "nontarget", "spoof")


class EmptyClassError(ValueError):
    """A trial class required for the requested metric has no scores."""


@dataclass(frozen=True)
class ScoreRecord:
    """One scored trial of a claimed speaker against a test utterance."""

    claimed_speaker: str
    test_utterance: str
    score: float
    label: str

    def __post_init__(self):
        if self.label not in TRIAL_LABELS:
            raise ValueError(f"unknown trial label {self.label!r}")
        if not np.isfinite(self.score):
            raise ValueError(
                f"non-finite score for ({self.claimed_speaker}, {self.test_utterance})"
            )


@dataclass(frozen=True)
class EerReport:
    """EERs (fractions in [0, 1]; None when the class is absent) with
    their thresholds and the per-class trial counts."""

    sv_eer: float | None
    spf_eer: float | None
    sasv_eer: float | None
    sv_threshold: float | None
    spf_threshold: float | None
    sasv_threshold: float | None
    n_target: int
    n_nontarget: int
    n_spoof: int


def eer(positives, negatives) -> tuple[float, float]:
    """Equal error rate and its threshold for one positive/negative split.

    Args:
      positives: scores of trials that should be accepted.
      negatives: scores of trials that should be rejected.

    Returns:
      (eer, threshold) with eer in [0, 1].
    """
    pos = np.sort(np.asarray(list(positives), dtype=np.float64))
    neg = np.sort(np.asarray(list(negatives), dtype=np.float64))
    if pos.size == 0:
        raise EmptyClassError("no positive trials")
    if neg.size == 0:
        raise EmptyClassError("no negative trials")

    thresholds = np.unique(np.concatenate([pos, neg]))
    # one extra point past the maximum so the sweep always ends at
    # FRR = 1, FAR = 0 and a crossing is guaranteed; where + 1.0 no longer
    # moves the maximum (|maximum| from 2**53 on), take the next float
    top = thresholds[-1]
    past = top + 1.0 if top + 1.0 != top else math.nextafter(top, math.inf)
    thresholds = np.append(thresholds, past)

    frr = np.searchsorted(pos, thresholds, side="left") / pos.size
    far = 1.0 - np.searchsorted(neg, thresholds, side="left") / neg.size
    diff = far - frr  # monotone nonincreasing, starts at +1

    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        return float(frr[k]), float(thresholds[k])
    d1, d2 = diff[k - 1], diff[k]
    s = d1 / (d1 - d2)
    value = frr[k - 1] + s * (frr[k] - frr[k - 1])
    threshold = thresholds[k - 1] + s * (thresholds[k] - thresholds[k - 1])
    return float(value), float(threshold)


def check_classes(labels, where: str | None = None) -> None:
    """Raise EmptyClassError, its message prefixed with where when given,
    unless the trial labels include a target and an impostor."""
    present = set(labels)
    problem = ("no target trials" if "target" not in present else
               "no impostor trials of any class" if present <= {"target"} else None)
    if problem:
        raise EmptyClassError(problem if where is None else f"{where}: {problem}")


def evaluate(records) -> EerReport:
    """Compute SV-, SPF- and SASV-EER from scored trials.

    A missing impostor class leaves that metric as None instead of raising;
    the SASV-EER is always computed over whatever impostors exist. Raises
    EmptyClassError when there are no target trials at all.
    """
    by_label = {label: [] for label in TRIAL_LABELS}
    for r in records:
        by_label[r.label].append(r.score)
    check_classes(label for label, scores in by_label.items() if scores)
    target = by_label["target"]
    nontarget = by_label["nontarget"]
    spoof = by_label["spoof"]

    sv = eer(target, nontarget) if nontarget else (None, None)
    spf = eer(target, spoof) if spoof else (None, None)
    sasv = eer(target, nontarget + spoof)
    return EerReport(
        sv_eer=sv[0], spf_eer=spf[0], sasv_eer=sasv[0],
        sv_threshold=sv[1], spf_threshold=spf[1], sasv_threshold=sasv[1],
        n_target=len(target), n_nontarget=len(nontarget), n_spoof=len(spoof),
    )


def score_sum_baseline(asv_cos: float, cm_s: float) -> float:
    """Untrained comparison scorer: plain sum of the two raw scores."""
    return asv_cos + cm_s

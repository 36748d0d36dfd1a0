#!/usr/bin/env python3
"""Report how far two trend work directories drift apart.

Compares two work directories written by scripts/reproduce_trends.py,
typically one seed run before and after a change that moves round-off,
and prints for both training runs (attention and average pooling):

  - the largest |difference| per parameter group of final.ckpt;
  - the largest |difference| per score file;
  - whether the two EER tables, as reproduce_trends.py prints them, are equal;
  - each epoch's difference (B - A) in mean selected loss, from train.log.

A difference is printed as 0 only when it is exactly zero.

Usage:
    python scripts/trend_drift.py A B

Like diff, it exits 0 when every difference is exactly 0 and the tables
are equal, and 1 otherwise. A missing file, or a pair of files that do
not describe the same parameters, trials or epochs, exits 2.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from reproduce_trends import SYSTEMS, score_file, table
from sasvbackend import data as dio
from sasvbackend.backend import PARAM_NAMES, BackendParams

RUNS = ("attention", "average")


class Mismatch(Exception):
    """The two directories do not hold comparable files."""


def fmt(x: float) -> str:
    return "0" if x == 0.0 else f"{x:.1e}"


def checkpoint_drift(a: Path, b: Path) -> list[float]:
    """Largest |difference| per parameter group, in parameter order."""
    pa, pb = BackendParams.load(a), BackendParams.load(b)
    if (pa.d_a, pa.d_c, pa.h_f, pa.pooling) != (pb.d_a, pb.d_c, pb.h_f, pb.pooling):
        raise Mismatch(f"{a} and {b} hold different dimensions or pooling modes")
    return [float(np.max(np.abs(ta.value - tb.value)))
            for (_, ta), (_, tb) in zip(pa.parameters(), pb.parameters())]


def trials(records) -> list[tuple[str, str, str]]:
    return [(r.claimed_speaker, r.test_utterance, r.label) for r in records]


def score_drift(a: Path, b: Path) -> float:
    ra, rb = dio.load_scores(a), dio.load_scores(b)
    if trials(ra) != trials(rb):
        raise Mismatch(f"{a} and {b} score different trials")
    return float(np.max(np.abs(np.array([r.score for r in ra]) -
                               np.array([r.score for r in rb]))))


def epoch_losses(path: Path) -> np.ndarray:
    return np.array([float(line.split("\t")[2])
                     for line in path.read_text().splitlines()])


def loss_drift(a: Path, b: Path) -> np.ndarray:
    la, lb = epoch_losses(a), epoch_losses(b)
    if la.shape != lb.shape:
        raise Mismatch(f"{a} has {len(la)} epochs, {b} {len(lb)}")
    return lb - la


def report(a: Path, b: Path) -> tuple[list[str], bool]:
    """The report's lines, and whether every difference is exactly 0."""
    lines = [f"A: {a}", f"B: {b}",
             "max |dtheta| in final.ckpt  " + " ".join(f"{n:>7s}" for n in PARAM_NAMES)]
    worst = 0.0
    for run in RUNS:
        drift = checkpoint_drift(a / run / "final.ckpt", b / run / "final.ckpt")
        worst = max(worst, *drift)
        lines.append(f"  {run:25s} " + " ".join(f"{fmt(x):>7s}" for x in drift))
    lines.append("max |dscore|")
    for _, run, scorer in SYSTEMS:
        drift = score_drift(score_file(a, run, scorer), score_file(b, run, scorer))
        worst = max(worst, drift)
        lines.append(f"  {score_file(a, run, scorer).name:25s} {fmt(drift)}")
    table_a, table_b = table(a), table(b)
    same_table = table_a == table_b
    lines.append(f"printed tables: {'equal' if same_table else 'differ'}")
    if not same_table:
        lines += ["A:", table_a, "B:", table_b]
    lines.append("mean selected loss, B - A, per epoch")
    for run in RUNS:
        drift = loss_drift(a / run / "train.log", b / run / "train.log")
        worst = max(worst, float(np.max(np.abs(drift))))
        lines.append(f"  {run:25s} " + " ".join(fmt(x) for x in drift))
    exact = worst == 0.0 and same_table
    lines.append("every difference exactly 0: " + ("yes" if exact else f"no (largest {worst:.1e})"))
    return lines, exact


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args()
    try:
        lines, exact = report(args.a, args.b)
    except (Mismatch, OSError, ValueError) as exc:
        print(f"trend_drift: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Reproduce the spoofing-robustness trends on the synthetic corpus.

Generates the default synthetic embedding corpus, trains the fused
attention back-end and the averaging-pooling ablation with the same
desk-scale recipe, scores the eval trials with all three scorers, and
prints the resulting EER table. Takes a few seconds (about 3 s on a
2-vCPU Xeon host).

Usage:
    python scripts/reproduce_trends.py [--workdir DIR] [--seed N]
"""

import argparse
import sys
from pathlib import Path

from sasvbackend import cli
from sasvbackend import data as dio
from sasvbackend.metrics import evaluate

TRAIN_RECIPE = [
    "--epochs", "16", "--learning-rate", "0.15", "--lr-decay", "0.97",
    "--speakers-per-batch", "8", "--utterances-per-speaker", "10",
    "--hidden-dim", "32", "--top-n", "100",
]


def run(argv):
    code = cli.main(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="trend_run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    work = Path(args.workdir)
    corpus = work / "corpus"
    seed = str(args.seed)

    print(f"[1/4] generating synthetic corpus in {corpus}")
    run(["synth", "--out", str(corpus), "--seed", seed])
    data_args = [
        "--manifest", str(corpus / "manifest.tsv"),
        "--asv-embeddings", str(corpus / "asv_embeddings.txt"),
        "--cm-embeddings", str(corpus / "cm_embeddings.txt"),
    ]

    print("[2/4] training the attention back-end")
    run(["train", *data_args, "--out", str(work / "attention"),
         "--seed", seed, *TRAIN_RECIPE,
         "--dev-trials", str(corpus / "trials_dev.tsv")])
    print("[3/4] training the averaging ablation")
    run(["train", *data_args, "--out", str(work / "average"),
         "--pooling", "average", "--seed", seed, *TRAIN_RECIPE])

    print("[4/4] scoring eval trials")
    systems = [
        ("asv_only (attention)", "attention", "attention", "asv_only"),
        ("score_sum", "attention", "attention", "score_sum"),
        ("fused, avg pooling", "average", "average", "fused"),
        ("fused, attention", "attention", "attention", "fused"),
    ]
    rows = []
    for label, run_dir, pooling, scorer in systems:
        score_file = work / f"{run_dir}_{scorer}.tsv"
        run(["score", "--checkpoint", str(work / run_dir / "final.ckpt"),
             "--trials", str(corpus / "trials_eval.tsv"),
             "--asv-embeddings", str(corpus / "asv_embeddings.txt"),
             "--cm-embeddings", str(corpus / "cm_embeddings.txt"),
             "--scorer", scorer, "--pooling", pooling,
             "--out", str(score_file)])
        report = evaluate(dio.load_scores(score_file))
        rows.append((label, report))

    print()
    print(f"{'system':24s} {'SV-EER[%]':>10s} {'SPF-EER[%]':>11s} {'SASV-EER[%]':>12s}")
    for label, report in rows:
        print(f"{label:24s} {100 * report.sv_eer:10.2f} "
              f"{100 * report.spf_eer:11.2f} {100 * report.sasv_eer:12.2f}")


if __name__ == "__main__":
    main()

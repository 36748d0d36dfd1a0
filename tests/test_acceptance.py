"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line with the measured values (visible with
pytest -s or on failure). The synthetic-trend criteria run the real CLI
pipeline end to end on the pinned default corpus (seed 0) with a pinned
desk-scale training recipe; everything is deterministic, so the asserted
margins are stable.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_eer, enrolled_vectors

from sasvbackend import autodiff as ad
from sasvbackend import backend as bk
from sasvbackend import cli
from sasvbackend import metrics as mt
from sasvbackend import training as tr
from sasvbackend.gradcheck import gradient_check
from sasvbackend.sampling import draw_batch, expand_pairs

# seed 141 failed on round-off under a plain central difference at step 1e-5
GRADCHECK_SEEDS = tuple(range(20)) + (141,)

# pinned desk-scale recipe for the synthetic-trend criteria; the
# corpus-scale defaults (lr 1e-4, 40 epochs, 16x10 batches) stay the
# command-line defaults
TRAIN_RECIPE = [
    "--seed", "0", "--epochs", "16", "--learning-rate", "0.15",
    "--lr-decay", "0.97", "--speakers-per-batch", "8",
    "--utterances-per-speaker", "10", "--hidden-dim", "32", "--top-n", "100",
]


def read_report(path) -> dict[str, float | None]:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = None if value == "absent" else float(value)
    return out


@pytest.fixture(scope="session")
def trend_pipeline(tmp_path_factory):
    """Criterion 5 pipeline, timed end to end: synth, train the fused
    attention back-end, score all three scorers, evaluate each."""
    root = tmp_path_factory.mktemp("trend")
    corpus = root / "corpus"
    run = root / "attention"
    started = time.perf_counter()

    assert cli.main(["synth", "--out", str(corpus), "--seed", "0"]) == 0
    assert cli.main([
        "train", "--manifest", str(corpus / "manifest.tsv"),
        "--asv-embeddings", str(corpus / "asv_embeddings.txt"),
        "--cm-embeddings", str(corpus / "cm_embeddings.txt"),
        "--out", str(run), *TRAIN_RECIPE,
    ]) == 0

    reports = {}
    for scorer in ("fused", "asv_only", "score_sum"):
        score_file = root / f"{scorer}.tsv"
        assert cli.main([
            "score", "--checkpoint", str(run / "final.ckpt"),
            "--trials", str(corpus / "trials_eval.tsv"),
            "--asv-embeddings", str(corpus / "asv_embeddings.txt"),
            "--cm-embeddings", str(corpus / "cm_embeddings.txt"),
            "--scorer", scorer, "--out", str(score_file),
        ]) == 0
        report_file = root / f"{scorer}.eers"
        assert cli.main(["evaluate", "--scores", str(score_file),
                         "--out", str(report_file)]) == 0
        reports[scorer] = read_report(report_file)

    elapsed = time.perf_counter() - started
    return {"corpus": corpus, "run": run, "reports": reports, "elapsed": elapsed}


@pytest.fixture(scope="session")
def averaging_report(trend_pipeline, tmp_path_factory):
    """Criterion 6 ablation: identical recipe with averaging instead of
    attention pooling."""
    root = tmp_path_factory.mktemp("ablation")
    corpus = trend_pipeline["corpus"]
    run = root / "average"
    assert cli.main([
        "train", "--manifest", str(corpus / "manifest.tsv"),
        "--asv-embeddings", str(corpus / "asv_embeddings.txt"),
        "--cm-embeddings", str(corpus / "cm_embeddings.txt"),
        "--out", str(run), "--pooling", "average", *TRAIN_RECIPE,
    ]) == 0
    score_file = root / "fused.tsv"
    assert cli.main([
        "score", "--checkpoint", str(run / "final.ckpt"),
        "--trials", str(corpus / "trials_eval.tsv"),
        "--asv-embeddings", str(corpus / "asv_embeddings.txt"),
        "--cm-embeddings", str(corpus / "cm_embeddings.txt"),
        "--scorer", "fused", "--out", str(score_file),
    ]) == 0
    report_file = root / "fused.eers"
    assert cli.main(["evaluate", "--scores", str(score_file),
                     "--out", str(report_file)]) == 0
    return read_report(report_file)


def test_criterion_1_gradient_correctness():
    """Analytic gradients match extrapolated central differences (h = 1e-3,
    scale-aware error < 1e-4) for every parameter group on seeds 0..19 and
    141, < 30 s."""
    started = time.perf_counter()
    worst_overall = ("", 0.0)
    for seed in GRADCHECK_SEEDS:
        result = gradient_check(seed=seed)
        name, err = result.worst
        if err > worst_overall[1]:
            worst_overall = (f"seed {seed} {name}", err)
        assert result.passed, f"seed {seed}: {name} relative error {err:.3e}"
        assert set(result.errors) == {"Wq", "Wk", "Wv", "Wf", "bf", "vf",
                                      "a", "b", "w_cm", "b_cm", "w1", "w2", "v"}
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    print(f"criterion 1 PASS: worst rel err {worst_overall[1]:.2e} "
          f"({worst_overall[0]}), {elapsed:.1f}s for {len(GRADCHECK_SEEDS)} seeds")


def _counting_pool(n_speakers, half_k, d_a=6, d_c=4, seed=0):
    from sasvbackend.sampling import TrainingPool
    rows = [(f"s{s}", f"s{s}-{j}", j % 2 == 0)
            for s in range(n_speakers) for j in range(2 * (half_k + 1))]
    draws = np.random.default_rng(seed).standard_normal((len(rows), d_a + d_c))  # ASV, CM
    return TrainingPool(*zip(*rows), draws[:, :d_a], draws[:, d_a:])


def test_criterion_2_sampler_oracle():
    """Exhaustive pair counts: (M=3, K=4) gives 36 pairs / 6 positives;
    (M=16, K=10) gives 2560 pairs / 80 positives."""
    for m, k, want_pairs, want_pos in ((3, 4, 36, 6), (16, 10, 2560, 80)):
        pool = _counting_pool(m + 2, k // 2)
        batch = draw_batch(pool, m, k, np.random.default_rng(0))
        pairs = expand_pairs(batch)
        positives = [p for p in pairs if p.positive]
        utterances = [u for block in batch.speakers for u in block.utterances]
        # exhaustive enumeration of the label rule over every pair
        # pair i = (l*K + slot)*M + n tests slot of speaker l against speaker n
        for i, p in enumerate(pairs):
            test_row, n = divmod(i, m)
            test = utterances[test_row]
            assert p.test_row == test_row
            enrolled = [u for j, u in enumerate(batch.speakers[n].utterances)
                        if j != test_row % k]
            (speaker,) = {u.speaker_id for u in enrolled}
            assert p.positive == (test.speaker_id == speaker and test.bonafide)
            assert test.utterance_id not in {u.utterance_id for u in enrolled}
            assert np.array_equal(enrolled_vectors(pairs, i),
                                  [u.asv_embedding.values for u in enrolled if u.bonafide])
        assert len(pairs) == want_pairs, (m, k)
        assert len(positives) == want_pos, (m, k)
    print("criterion 2 PASS: 36/6 pairs at (3,4), 2560/80 pairs at (16,10)")


def test_criterion_3_masking_invariance():
    """Replacing masked enrollment vectors with random content changes h,
    the fused probability, and every parameter gradient by exactly 0."""
    rng = np.random.default_rng(2024)
    d_a, d_c, h_f = 6, 4, 3
    for case in range(100):
        k = int(rng.integers(2, 7))
        bona = [bool(b) for b in rng.integers(0, 2, size=k)]
        if not any(bona):
            bona[0] = True
        if all(bona):
            bona[-1] = False
        base = [rng.standard_normal(d_a) for _ in range(k)]
        swapped = [
            v if is_bona else rng.standard_normal(d_a) * rng.uniform(1, 50)
            for v, is_bona in zip(base, bona)
        ]
        q_asv = bk.Embedding("q", "asv", rng.standard_normal(d_a))
        q_cm = bk.Embedding("q", "cm", rng.standard_normal(d_c))

        results = []
        for vectors in (base, swapped):
            tape = ad.Tape()
            params = bk.BackendParams.init(d_a, d_c, h_f,
                                           np.random.default_rng(case), tape=tape)
            enroll = bk.EnrollmentSet(
                "spk",
                tuple(bk.Embedding(f"e{i}", "asv", v) for i, v in enumerate(vectors)),
                tuple(bona),
            )
            h = bk.pool_enrollments(params, enroll)
            cos, s_asv, p_asv = bk.asv_probability(params, ad.Tensor(q_asv.values), h)
            s_cm, p_cm = bk.cm_probability(params, ad.Tensor(q_cm.values))
            _, p = bk.fuse(params, p_cm, p_asv)
            loss = tr.bce_loss(p, positive=bool(case % 2))
            tape.backward(loss)
            results.append((
                h.value.copy(), p.item(),
                {name: t.grad.copy() for name, t in params.parameters()},
            ))

        (h1, p1, g1), (h2, p2, g2) = results
        assert np.array_equal(h1, h2), f"case {case}: h changed"
        assert p1 == p2, f"case {case}: P changed"
        for name in g1:
            assert np.array_equal(g1[name], g2[name]), f"case {case}: grad {name}"
    print("criterion 3 PASS: 100 randomized enrollments, all deltas exactly 0")


def test_criterion_4_eer_oracle_equivalence():
    """Interpolated EER matches the brute-force sweep within 1e-9 on 200
    random score sets; fixtures return exactly 0 and 1."""
    assert mt.eer([0.9, 0.8], [0.1, 0.2])[0] == 0.0
    assert mt.eer([0.1, 0.2], [0.8, 0.9])[0] == 1.0
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        n_pos = int(rng.integers(1, 1000))
        n_neg = int(rng.integers(1, 1000))
        pos = rng.normal(rng.uniform(-1, 2), rng.uniform(0.5, 2.0), size=n_pos)
        neg = rng.normal(0.0, 1.0, size=n_neg)
        if rng.uniform() < 0.3:
            pos, neg = np.round(pos, 1), np.round(neg, 1)
        got, _ = mt.eer(pos, neg)
        worst = max(worst, abs(got - brute_force_eer(pos, neg)))
    assert worst < 1e-9
    print(f"criterion 4 PASS: max |EER - oracle| = {worst:.2e} over 200 sets")


def test_criterion_5_table2_trend(trend_pipeline):
    """Synthetic Table-2 trend: asv_only is good at SV but broken under
    spoofing, the trained fusion fixes SASV while preserving SV, and
    score_sum lands strictly between; all under 2 minutes end to end."""
    reports = trend_pipeline["reports"]
    asv, fused, ssum = reports["asv_only"], reports["fused"], reports["score_sum"]

    assert asv["sv_eer"] < 0.05, f"asv_only SV {asv['sv_eer']:.4f}"
    assert asv["sasv_eer"] > 0.20, f"asv_only SASV {asv['sasv_eer']:.4f}"
    assert fused["sasv_eer"] < 0.02, f"fused SASV {fused['sasv_eer']:.4f}"
    assert abs(fused["sv_eer"] - asv["sv_eer"]) <= 0.015, (
        f"fused SV {fused['sv_eer']:.4f} vs asv_only SV {asv['sv_eer']:.4f}")
    assert fused["sasv_eer"] < ssum["sasv_eer"] < asv["sasv_eer"], (
        f"ordering broken: {fused['sasv_eer']:.4f}, {ssum['sasv_eer']:.4f}, "
        f"{asv['sasv_eer']:.4f}")
    assert trend_pipeline["elapsed"] < 120.0, f"{trend_pipeline['elapsed']:.0f}s"

    print(
        "criterion 5 PASS: "
        f"asv_only SV {100*asv['sv_eer']:.2f}% SASV {100*asv['sasv_eer']:.2f}% | "
        f"score_sum SASV {100*ssum['sasv_eer']:.2f}% | "
        f"fused SV {100*fused['sv_eer']:.2f}% SASV {100*fused['sasv_eer']:.2f}% | "
        f"{trend_pipeline['elapsed']:.0f}s"
    )


def test_criterion_6_table3_trend(trend_pipeline, averaging_report):
    """The averaging ablation trains to SASV < 5% and the attention variant
    is at least as good on the pinned seed."""
    attention = trend_pipeline["reports"]["fused"]
    assert averaging_report["sasv_eer"] < 0.05, (
        f"averaging SASV {averaging_report['sasv_eer']:.4f}")
    assert attention["sasv_eer"] <= averaging_report["sasv_eer"], (
        f"attention {attention['sasv_eer']:.4f} > "
        f"averaging {averaging_report['sasv_eer']:.4f}")
    print(
        "criterion 6 PASS: attention SASV "
        f"{100*attention['sasv_eer']:.2f}% <= averaging SASV "
        f"{100*averaging_report['sasv_eer']:.2f}% < 5%"
    )


def test_criterion_7_training_determinism(tmp_path):
    """Two train runs with identical flags produce bitwise-identical
    checkpoints and logs."""
    corpus = tmp_path / "corpus"
    assert cli.main([
        "synth", "--out", str(corpus), "--seed", "3",
        "--train-speakers", "5", "--dev-speakers", "2", "--eval-speakers", "2",
        "--bonafide-per-speaker", "8", "--spoof-per-speaker", "6",
        "--asv-dim", "10", "--cm-dim", "6",
    ]) == 0
    runs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert cli.main([
            "train", "--manifest", str(corpus / "manifest.tsv"),
            "--asv-embeddings", str(corpus / "asv_embeddings.txt"),
            "--cm-embeddings", str(corpus / "cm_embeddings.txt"),
            "--out", str(out), "--seed", "11", "--epochs", "2",
            "--learning-rate", "0.05", "--speakers-per-batch", "3",
            "--utterances-per-speaker", "4", "--hidden-dim", "4",
            "--dev-trials", str(corpus / "trials_dev.tsv"),
        ]) == 0
        runs.append(out)
    files = sorted(p.name for p in runs[0].iterdir())
    assert "final.ckpt" in files and "train.log" in files
    for name in files:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    print(f"criterion 7 PASS: {len(files)} files bitwise identical across reruns")


def test_criterion_8_hard_selection_contract():
    """A (M=16, K=10) batch with N=100 backpropagates exactly 180 pairs;
    N >= 2480 reproduces full-batch training bitwise."""
    pool = _counting_pool(18, 5)
    batch = draw_batch(pool, 16, 10, np.random.default_rng(4))
    pairs = expand_pairs(batch)
    assert len(pairs) == 2560
    assert sum(p.positive for p in pairs) == 80

    def grads_for(top_n):
        tape = ad.Tape()
        params = bk.BackendParams.init(6, 4, 3, np.random.default_rng(9), tape=tape)
        config = tr.TrainConfig(hard_negative_top_n=top_n, hidden_dim=3,
                                speakers_per_batch=16, utterances_per_speaker=10)
        loss, selected = tr.batch_loss(params, pairs, config)
        tape.backward(loss)
        return selected, {n: t.grad.copy() for n, t in params.parameters()}

    selected_hard, _ = grads_for(100)
    assert len(selected_hard) == 180
    assert all(a < b for a, b in zip(selected_hard, selected_hard[1:]))
    assert sum(1 for i in selected_hard if pairs[i].positive) == 80
    # every kept negative is at least as hard as every dropped one
    params = bk.BackendParams.init(6, 4, 3, np.random.default_rng(9))
    losses = tr.bce_loss(bk.forward_batch(params, pairs).p, pairs.positive).value
    kept = np.zeros(len(pairs), dtype=bool)
    kept[selected_hard] = True
    negatives = ~pairs.positive
    assert losses[kept & negatives].min() >= losses[~kept & negatives].max()

    selected_all, grads_all = grads_for(2480)
    assert len(selected_all) == 2560
    assert selected_all == list(range(2560))

    # the N >= negatives case must equal an explicit full-batch mean
    tape = ad.Tape()
    params = bk.BackendParams.init(6, 4, 3, np.random.default_rng(9), tape=tape)
    config = tr.TrainConfig(hard_negative_top_n=5000, hidden_dim=3,
                            speakers_per_batch=16, utterances_per_speaker=10)
    loss, selected = tr.batch_loss(params, pairs, config)
    tape.backward(loss)
    assert selected == list(range(2560))
    for name, tensor in params.parameters():
        assert np.array_equal(tensor.grad, grads_all[name]), name
    print("criterion 8 PASS: 180 pairs at N=100, full batch at N>=2480")

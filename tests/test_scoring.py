"""Trial-scoring helper tests."""

import numpy as np
import pytest

from sasvbackend import autodiff as ad
from sasvbackend import backend as bk
from sasvbackend import data as dio
from sasvbackend import metrics as mt
from sasvbackend import scoring
from sasvbackend.scoring import score_trials


@pytest.fixture(scope="module")
def setup():
    ds = dio.generate_synthetic(dio.SynthConfig(
        train_speakers=2, dev_speakers=2, eval_speakers=3,
        bonafide_per_speaker=8, spoof_per_speaker=6, d_a=10, d_c=6, seed=4,
    ))
    params = bk.BackendParams.init(10, 6, 4, np.random.default_rng(1))
    return ds, params


def test_fused_matches_forward_composition(setup):
    ds, params = setup
    records = score_trials(params, ds.trials_eval, ds.asv_embeddings,
                           ds.cm_embeddings, scorer="fused")
    trial = ds.trials_eval[0]
    enroll = bk.EnrollmentSet(
        trial.claimed_speaker,
        tuple(bk.Embedding(e, "asv", ds.asv_embeddings[e]) for e in trial.enroll_ids),
        (True,) * len(trial.enroll_ids),
    )
    h = bk.pool_enrollments(params, enroll)
    _, _, p_asv = bk.asv_probability(params, ad.Tensor(ds.asv_embeddings[trial.test_id]), h)
    _, p_cm = bk.cm_probability(params, ad.Tensor(ds.cm_embeddings[trial.test_id]))
    _, p = bk.fuse(params, p_cm, p_asv)
    assert records[0].score == p.item()
    assert records[0].label == trial.label


def test_probability_and_logit_scores_give_identical_eers(setup):
    # P = sigmoid(s) is strictly increasing, so ranking by P or by s is the
    # same ranking and the EERs agree exactly
    ds, params = setup
    p_records = score_trials(params, ds.trials_eval, ds.asv_embeddings,
                             ds.cm_embeddings, scorer="fused")
    p_report = mt.evaluate(p_records)

    def logit(p):
        return float(np.log(p) - np.log1p(-p))

    s_records = [
        mt.ScoreRecord(r.claimed_speaker, r.test_utterance, logit(r.score), r.label)
        for r in p_records
    ]
    s_report = mt.evaluate(s_records)
    assert p_report.sv_eer == pytest.approx(s_report.sv_eer, abs=1e-12)
    assert p_report.spf_eer == pytest.approx(s_report.spf_eer, abs=1e-12)
    assert p_report.sasv_eer == pytest.approx(s_report.sasv_eer, abs=1e-12)


def test_score_sum_is_cos_plus_cm_logit(setup):
    ds, params = setup
    records = score_trials(params, ds.trials_eval, ds.asv_embeddings,
                           ds.cm_embeddings, scorer="score_sum")
    trial = ds.trials_eval[0]
    enroll = bk.EnrollmentSet(
        trial.claimed_speaker,
        tuple(bk.Embedding(e, "asv", ds.asv_embeddings[e]) for e in trial.enroll_ids),
        (True,) * len(trial.enroll_ids),
    )
    pooled = bk.pool_enrollments(params, enroll)
    cos, _, _ = bk.asv_probability(params, ad.Tensor(ds.asv_embeddings[trial.test_id]), pooled)
    s_cm, _ = bk.cm_probability(params, ad.Tensor(ds.cm_embeddings[trial.test_id]))
    assert records[0].score == cos.item() + s_cm.item()


def _single_trial_scores(params, trial, asv_map, cm_map, pooling):
    """Every scorer's value for one trial, composed pool -> heads -> fuse."""
    enroll = bk.EnrollmentSet(
        trial.claimed_speaker,
        tuple(bk.Embedding(e, "asv", asv_map[e]) for e in trial.enroll_ids),
        (True,) * len(trial.enroll_ids),
    )
    h = bk.pool_enrollments(params, enroll) if pooling == "attention" else bk.average_pool(enroll)
    cos, _, p_asv = bk.asv_probability(params, ad.Tensor(asv_map[trial.test_id]), h)
    s_cm, p_cm = bk.cm_probability(params, ad.Tensor(cm_map[trial.test_id]))
    _, p = bk.fuse(params, p_cm, p_asv)
    return {"fused": p.item(), "asv_only": p_asv.item(), "score_sum": cos.item() + s_cm.item()}


def _mixed_size_trials(ds, sizes=(1, 3, 7, 7, 1, 3, 1, 7)):
    ids = sorted(ds.asv_embeddings)
    return [dio.Trial(f"spk{j}", tuple(ids[3 * j:3 * j + n]), t.test_id, t.label)
            for j, (n, t) in enumerate(zip(sizes, ds.trials_eval))]


@pytest.mark.parametrize("pooling", ["attention", "average"])
@pytest.mark.parametrize("chunk,rows", [(2, 1024), (3, 1024), (1024, 1024), (1024, 8)])
def test_mixed_set_sizes_match_single_trial_scores(setup, monkeypatch, pooling, chunk, rows):
    # enrollment sets of 1, 3 and 7 entries, scored in order of size: a
    # size change starts a new pass, 2 or 3 trials per pass also split the
    # trials of one size, and an 8-row limit splits the 7-entry sets; no
    # pass pads a set with masked entries
    ds, params = setup
    trials = _mixed_size_trials(ds)
    monkeypatch.setattr(scoring, "SCORE_CHUNK", chunk)
    monkeypatch.setattr(scoring, "SCORE_POOL_ROWS", rows)
    stacks = []
    trial_batch = scoring._trial_batch

    def recorded(*args):
        batch = trial_batch(*args)
        stacks.append(batch.enroll)
        return batch
    monkeypatch.setattr(scoring, "_trial_batch", recorded)
    expected = [_single_trial_scores(params, t, ds.asv_embeddings, ds.cm_embeddings, pooling)
                for t in trials]
    for scorer in scoring.SCORERS:
        records = score_trials(params, trials, ds.asv_embeddings, ds.cm_embeddings,
                               pooling=pooling, scorer=scorer)
        assert [r.test_utterance for r in records] == [t.test_id for t in trials]
        got = np.array([r.score for r in records])
        want = np.array([e[scorer] for e in expected])
        # a batched product may sum in another order than one trial's, so
        # equality holds to round-off, not to the last bit
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert stacks and not any(stack.masked.any() for stack in stacks)


def test_forward_passes_respect_both_limits(setup, monkeypatch):
    ds, _ = setup
    trials = _mixed_size_trials(ds, sizes=(1, 3, 7, 7, 1, 3, 1, 7, 3, 1, 1, 12))
    monkeypatch.setattr(scoring, "SCORE_CHUNK", 3)
    # at 8 rows the row limit alone cuts at most size changes; at 64 it cuts
    # none, so only the size rule keeps the sizes apart
    for rows in (8, 64):
        monkeypatch.setattr(scoring, "SCORE_POOL_ROWS", rows)
        chunks = list(scoring._chunks(trials))
        assert sorted(i for c in chunks for i in c) == list(range(len(trials)))
        widths = [len(trials[i].enroll_ids) for c in chunks for i in c]
        assert widths == sorted(widths)
        for c in chunks:
            assert len(c) <= 3
            sizes = {len(trials[i].enroll_ids) for i in c}
            assert len(sizes) == 1  # a pass holds sets of one size, so none is padded
            sets = {(trials[i].claimed_speaker, trials[i].enroll_ids) for i in c}
            # the real rows of the pass; a set wider than the limit gets a pass of its own
            assert len(sets) == 1 or sum(len(ids) for _, ids in sets) <= rows


def test_unshared_sets_are_split_by_the_cell_limit(setup):
    # 1,024 trials, each with a set (claimed speaker, one entry) and a test
    # utterance of its own, fit the trial and row limits in one pass, but
    # its test rows x sets product (1,024 x 1,024) is over SCORE_CELLS
    ds = dio.generate_synthetic(dio.SynthConfig(
        train_speakers=2, dev_speakers=2, eval_speakers=40, bonafide_per_speaker=12,
        spoof_per_speaker=12, d_a=10, d_c=6, seed=4,
    ))
    _, params = setup
    ids = sorted(ds.asv_embeddings)
    assert len(ids) >= 1024
    trials = [dio.Trial(f"spk{j}", (ids[j],), ids[-1 - j], "target") for j in range(1024)]
    chunks = list(scoring._chunks(trials))
    assert sorted(i for c in chunks for i in c) == list(range(len(trials)))
    assert len(chunks) > 1
    for c in chunks:
        tests = {trials[i].test_id for i in c}
        sets = {(trials[i].claimed_speaker, trials[i].enroll_ids) for i in c}
        assert len(tests) * len(sets) <= scoring.SCORE_CELLS
    records = score_trials(params, trials, ds.asv_embeddings, ds.cm_embeddings)
    want = [_single_trial_scores(params, t, ds.asv_embeddings, ds.cm_embeddings,
                                 "attention")["fused"] for t in trials]
    np.testing.assert_allclose([r.score for r in records], want, rtol=1e-12, atol=0)


def test_unknown_scorer_rejected(setup):
    ds, params = setup
    with pytest.raises(ValueError, match="scorer"):
        score_trials(params, ds.trials_eval, ds.asv_embeddings,
                     ds.cm_embeddings, scorer="plda")


def test_records_preserve_trial_order_and_count(setup):
    ds, params = setup
    records = score_trials(params, ds.trials_eval, ds.asv_embeddings,
                           ds.cm_embeddings)
    assert len(records) == len(ds.trials_eval)
    for rec, trial in zip(records, ds.trials_eval):
        assert rec.test_utterance == trial.test_id
        assert rec.claimed_speaker == trial.claimed_speaker

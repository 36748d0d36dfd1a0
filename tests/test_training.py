"""Trainer tests: loss values, hard selection, SGD update rule, full loop."""

import dataclasses
import functools
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import per_pair_batch_loss, select_hard_by_sort, tape_batch_loss

from sasvbackend import autodiff as ad
from sasvbackend import data as dio
from sasvbackend import training as tr
from sasvbackend.backend import BackendParams, EnrollmentStack
from sasvbackend.metrics import EerReport, evaluate
from sasvbackend.sampling import TrainingPool, draw_batch, expand_pairs
from sasvbackend.scoring import score_trials


def tiny_dataset(seed=0, **overrides):
    cfg = dict(
        train_speakers=6, dev_speakers=2, eval_speakers=2,
        bonafide_per_speaker=8, spoof_per_speaker=8,
        d_a=8, d_c=5, seed=seed,
    )
    cfg.update(overrides)
    ds = dio.generate_synthetic(dio.SynthConfig(**cfg))
    return dio.build_records(ds.manifest, ds.asv_embeddings, ds.cm_embeddings), ds


def tiny_config(**overrides):
    cfg = dict(
        learning_rate=0.05, epochs=2, speakers_per_batch=3,
        utterances_per_speaker=4, hard_negative_top_n=10,
        hidden_dim=4, seed=1,
    )
    cfg.update(overrides)
    return tr.TrainConfig(**cfg)


class TestBceLoss:
    def test_symmetric_point(self):
        for positive in (True, False):
            loss = tr.bce_loss(ad.Tensor(0.5), positive)
            assert loss.item() == pytest.approx(math.log(2), abs=1e-15)

    def test_perfect_prediction(self):
        assert tr.bce_loss(ad.Tensor(1.0 - 1e-9), True).item() < 1e-8

    def test_negative_at_point_nine(self):
        loss = tr.bce_loss(ad.Tensor(0.9), False)
        assert loss.item() == pytest.approx(2.3025850929940455, abs=1e-12)

    def test_clamped_at_edges(self):
        assert math.isfinite(tr.bce_loss(ad.Tensor(1.0), True).item())
        assert math.isfinite(tr.bce_loss(ad.Tensor(0.0), True).item())

    def test_gradient_direction(self):
        tape = ad.Tape()
        p = tape.parameter(0.3)
        tape.backward(tr.bce_loss(p, True))
        assert p.grad[0, 0] < 0  # increasing p decreases a positive's loss
        tape.clear()
        tape.backward(tr.bce_loss(p, False))
        assert p.grad[0, 0] > 0  # increasing p increases a negative's loss


class TestSelectHard:
    def test_full_scale_batch_counts(self):
        losses = list(np.random.default_rng(0).uniform(size=2560))
        positives = [i < 80 for i in range(2560)]
        kept = tr.select_hard(losses, positives, 100)
        assert len(kept) == 180
        assert all(i in kept for i in range(80))

    def test_selection_is_full_batch_when_n_large(self):
        losses = [3.0, 1.0, 2.0]
        kept = tr.select_hard(losses, [False, False, False], 10)
        assert kept == [0, 1, 2]

    def test_top_two_of_three_negatives(self):
        losses = [3.0, 1.0, 2.0]
        kept = tr.select_hard(losses, [False, False, False], 2)
        assert kept == [0, 2]

    def test_never_drops_positives(self):
        losses = [0.01, 5.0, 0.02, 4.0]
        positives = [True, False, True, False]
        kept = tr.select_hard(losses, positives, 1)
        assert 0 in kept and 2 in kept
        assert kept == [0, 1, 2]

    def test_stable_tie_break(self):
        losses = [1.0, 1.0, 1.0, 1.0]
        kept = tr.select_hard(losses, [False] * 4, 2)
        assert kept == [0, 1]


@given(data=st.data(), n=st.integers(0, 60), levels=st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_select_hard_matches_stable_sort(data, n, levels):
    """The partition-based selection keeps the pairs a full stable sort
    keeps: few distinct losses make heavy ties, and top_n runs from 0 to
    past the negative count."""
    value = st.one_of(st.integers(0, levels - 1).map(float),
                      st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                      st.floats(allow_nan=True))
    losses = data.draw(st.lists(value, min_size=n, max_size=n))
    positive = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    top_n = data.draw(st.integers(0, n - sum(positive) + 2))
    assert tr.select_hard(losses, positive, top_n) == select_hard_by_sort(losses, positive, top_n)


class TestSgdStep:
    def make(self, theta=1.0):
        params = BackendParams.init(2, 2, 2, np.random.default_rng(0))
        state = tr.OptimizerState(
            velocities={n: np.zeros_like(t.value) for n, t in params.parameters()},
            learning_rate=1e-4,
        )
        return params, state

    def set_all_grads(self, params, value):
        for _, t in params.parameters():
            t.grad = np.full_like(t.value, value)

    def test_plain_gradient_descent_reduction(self):
        params, state = self.make()
        config = tr.TrainConfig(momentum=0.0, weight_decay=0.0, learning_rate=0.5)
        state.learning_rate = 0.5
        before = params.a.value.copy()
        self.set_all_grads(params, 2.0)
        tr.sgd_step(params, state, config)
        assert params.a.value[0, 0] == before[0, 0] - 0.5 * 2.0

    def test_zero_gradient_fixed_point(self):
        params, state = self.make()
        config = tr.TrainConfig(momentum=0.5, weight_decay=0.0)
        before = {n: t.value.copy() for n, t in params.parameters()}
        self.set_all_grads(params, 0.0)
        tr.sgd_step(params, state, config)
        for name, t in params.parameters():
            assert np.array_equal(t.value, before[name]), name

    def test_hand_update(self):
        params, state = self.make()
        config = tr.TrainConfig(momentum=0.9, weight_decay=1e-5, learning_rate=1e-4)
        params.a.value[:] = 1.0
        self.set_all_grads(params, 1.0)
        tr.sgd_step(params, state, config)
        assert state.velocities["a"][0, 0] == pytest.approx(1.00001, abs=1e-15)
        assert params.a.value[0, 0] == pytest.approx(0.999899999, abs=1e-15)

    def test_non_finite_gradient_names_parameter(self):
        params, state = self.make()
        config = tr.TrainConfig()
        self.set_all_grads(params, 1.0)
        params.Wk.grad[0, 0] = np.nan
        with pytest.raises(tr.TrainingDivergedError, match="Wk"):
            tr.sgd_step(params, state, config, epoch=3, batch=7)


class TestBatchLoss:
    def test_selected_count_and_gradient_isolation(self):
        records, _ = tiny_dataset()
        config = tiny_config(hard_negative_top_n=5)
        rng = np.random.default_rng(0)
        batch = draw_batch(records, 3, 4, rng)
        pairs = expand_pairs(batch)

        tape = ad.Tape()
        params = BackendParams.init(8, 5, 4, np.random.default_rng(2), tape=tape)
        loss, selected = tr.batch_loss(params, pairs, config)
        assert len(selected) == 6 + 5  # all positives + top 5 negatives
        assert math.isfinite(loss.item())
        tape.backward(loss)
        for name, t in params.parameters():
            assert t.grad is not None and t.grad.shape == t.value.shape
        # the attention path is active, so these all receive real gradients
        for name in ("Wq", "Wk", "Wv", "Wf", "vf", "w_cm"):
            assert np.any(getattr(params, name).grad), name

    def test_dropped_tape_is_freed_without_the_cyclic_collector(self):
        records, _ = tiny_dataset()
        config = tiny_config()
        tape = ad.Tape()
        params = BackendParams.init(8, 5, 4, np.random.default_rng(2), tape=tape)
        state = tr.OptimizerState({n: np.zeros_like(t.value) for n, t in params.parameters()},
                                  config.learning_rate)
        gc.disable()
        try:
            pairs = expand_pairs(draw_batch(records, 3, 4, np.random.default_rng(0)))
            loss, _ = tr.batch_loss(params, pairs, config)
            tape.backward(loss)
            tr.sgd_step(params, state, config)
            tape.clear()
            dropped = weakref.ref(tape), weakref.ref(params), weakref.ref(params.Wq)
            del tape, params, loss
            assert [ref() for ref in dropped] == [None, None, None]
        finally:
            gc.enable()

    def test_average_pooling_leaves_attention_grads_zero(self):
        records, _ = tiny_dataset()
        config = tiny_config(pooling="average")
        batch = draw_batch(records, 3, 4, np.random.default_rng(0))
        pairs = expand_pairs(batch)
        tape = ad.Tape()
        params = BackendParams.init(8, 5, 4, np.random.default_rng(2), tape=tape)
        loss, _ = tr.batch_loss(params, pairs, config)
        tape.backward(loss)
        for name in ("Wq", "Wk", "Wv", "Wf", "bf", "vf"):
            grad = getattr(params, name).grad
            assert np.array_equal(grad, np.zeros_like(grad)), name
        assert np.any(params.w_cm.grad)


def random_pool(rng, n_speakers, half_k, d_a=6, d_c=4):
    rows = [(f"s{s}", f"s{s}-{j}", j < half_k)
            for s in range(n_speakers) for j in range(2 * half_k)]
    draws = rng.standard_normal((len(rows), d_a + d_c))  # ASV, then CM, per utterance
    return TrainingPool(*zip(*rows), draws[:, :d_a], draws[:, d_a:])


def loss_and_grads(loss_fn, pairs, config, seed):
    tape = ad.Tape()
    params = BackendParams.init(6, 4, 3, np.random.default_rng(seed), tape=tape)
    loss, selected = loss_fn(params, pairs, config)
    tape.backward(loss)
    return loss.item(), selected, {n: t.grad.copy() for n, t in params.parameters()}


def k_slot_layout(pairs, bonafide):
    """The pairs under the K-slot enrollment layout: group n holds all K
    rows of speaker n, and set n*K + j masks its spoofed slots and slot j.
    bonafide (M, K) flags the batch's rows."""
    m, k = bonafide.shape
    masked = ~bonafide[:, None] | np.eye(k, dtype=bool)
    test_row, speaker = np.divmod(np.arange(m * k * m), m)
    enroll = EnrollmentStack(pairs.test_asv.reshape(m, k, -1), masked)
    return dataclasses.replace(pairs, enroll=enroll, enroll_set=speaker * k + test_row % k)


class TestBatchedForward:
    # fixed before the batched forward was written: float64 round-off from
    # a different summation order, far below any real gradient defect
    RTOL = 1e-12

    def assert_same(self, got, want):
        """Same selected pairs, losses within RTOL and every gradient within
        RTOL times its group's largest entry."""
        (loss, selected, grads), (want, want_selected, want_grads) = got, want
        assert selected == want_selected
        assert abs(loss - want) <= self.RTOL * abs(want)
        for name, g in want_grads.items():
            np.testing.assert_allclose(grads[name], g, rtol=0,
                                       atol=self.RTOL * np.max(np.abs(g)), err_msg=name)

    @given(m=st.integers(2, 4), half_k=st.integers(2, 3), top_n=st.integers(1, 40),
           pooling=st.sampled_from(["attention", "average"]), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_pair_reference(self, m, half_k, top_n, pooling, seed):
        rng = np.random.default_rng(seed)
        k = 2 * half_k
        batch = draw_batch(random_pool(rng, m + 1, half_k), m, k, rng)
        pairs = expand_pairs(batch)
        config = tr.TrainConfig(hard_negative_top_n=top_n, pooling=pooling, hidden_dim=3,
                                speakers_per_batch=m, utterances_per_speaker=k)
        self.assert_same(loss_and_grads(tr.batch_loss, pairs, config, seed), loss_and_grads(
            functools.partial(per_pair_batch_loss, batch=batch), pairs, config, seed))

    @pytest.mark.parametrize("m, k", [(3, 4), (4, 6), (16, 10)])
    @pytest.mark.parametrize("pooling", ["attention", "average"])
    def test_matches_the_k_slot_layout(self, m, k, pooling):
        """Holding only the bona-fide rows, under K/2 + 1 sets per speaker,
        computes the loss of the layout that holds all K rows under K sets."""
        rng = np.random.default_rng(m * k)
        batch = draw_batch(random_pool(rng, m + 1, k // 2), m, k, rng)
        pairs = expand_pairs(batch)
        config = tr.TrainConfig(hard_negative_top_n=2 * m * k, pooling=pooling, hidden_dim=3,
                                speakers_per_batch=m, utterances_per_speaker=k)
        k_slot = k_slot_layout(pairs, batch.pool.bonafide[batch.rows])
        self.assert_same(loss_and_grads(tr.batch_loss, pairs, config, k),
                         loss_and_grads(tr.batch_loss, k_slot, config, k))

    @pytest.mark.parametrize("pooling", ["attention", "average"])
    def test_spoofed_enrollment_content_cannot_leak(self, pooling):
        """Replacing every spoofed row of a whole batch's enrollment side
        with random content changes the loss and every gradient by exactly
        0; the test side keeps the real rows. expand_pairs leaves spoofed
        rows out of its groups, which hold exactly the test side's bona-fide
        rows, so the swap runs on the K-slot layout, whose groups hold them
        masked."""
        rng = np.random.default_rng(31)
        batch = draw_batch(random_pool(rng, 5, 3), 4, 6, rng)
        drawn = expand_pairs(batch)
        bonafide = batch.pool.bonafide[batch.rows]
        assert np.array_equal(drawn.enroll.embeddings.reshape(-1, 6),
                              drawn.test_asv[bonafide.reshape(-1)])
        config = tr.TrainConfig(hard_negative_top_n=30, pooling=pooling, hidden_dim=3,
                                speakers_per_batch=4, utterances_per_speaker=6)
        pairs = k_slot_layout(drawn, bonafide)
        spoofed = ~bonafide
        swapped = pairs.enroll.embeddings.copy()
        swapped[spoofed] = rng.standard_normal((spoofed.sum(), 6)) * rng.uniform(1, 50)
        fake = dataclasses.replace(
            pairs, enroll=dataclasses.replace(pairs.enroll, embeddings=swapped))
        assert not np.array_equal(fake.enroll.embeddings.reshape(-1, 6), pairs.test_asv)
        loss, selected, grads = loss_and_grads(tr.batch_loss, pairs, config, 8)
        loss2, selected2, grads2 = loss_and_grads(tr.batch_loss, fake, config, 8)
        assert loss == loss2 and selected == selected2
        assert len(grads) == 13
        for name in grads:
            assert np.array_equal(grads[name], grads2[name]), name


class TestBlockBackward:
    """Each back-end block records one tape entry with a hand-derived
    backward. The step's loss, selection and gradients must equal, byte
    for byte, those of the same composition spelled in the generic ops."""

    @given(seed=st.integers(0, 2**32 - 1), d_a=st.integers(1, 12), d_c=st.integers(1, 8),
           h_f=st.integers(1, 8), m=st.integers(2, 4), k=st.sampled_from([4, 6, 8, 10]),
           pooling=st.sampled_from(["attention", "average"]), top_n=st.integers(1, 120))
    # at h_f = 1, bf is 1 x 1 and its gradient is one full sum
    @example(seed=0, d_a=5, d_c=3, h_f=1, m=3, k=6, pooling="attention", top_n=7)
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_generic_tape(self, seed, d_a, d_c, h_f, m, k, pooling, top_n):
        rng = np.random.default_rng(seed)
        pairs = expand_pairs(draw_batch(random_pool(rng, m, k // 2, d_a, d_c), m, k, rng))
        config = tr.TrainConfig(hard_negative_top_n=top_n, pooling=pooling, hidden_dim=h_f,
                                speakers_per_batch=m, utterances_per_speaker=k)
        results = []
        for loss_fn in (tr.batch_loss, tape_batch_loss):
            tape = ad.Tape()
            params = BackendParams.init(d_a, d_c, h_f, np.random.default_rng(seed), tape=tape)
            loss, selected = loss_fn(params, pairs, config)
            tape.backward(loss)
            results.append((loss.value.tobytes(), selected,
                            {n: t.grad.tobytes() for n, t in params.parameters()}))
        (loss, selected, grads), (want, want_selected, want_grads) = results
        assert loss == want and selected == want_selected
        assert len(grads) == 13
        for name in want_grads:
            assert grads[name] == want_grads[name], name

    @pytest.mark.parametrize("pooling", ["attention", "average"])
    def test_step_records_one_entry_per_block(self, pooling):
        rng = np.random.default_rng(3)
        pairs = expand_pairs(draw_batch(random_pool(rng, 3, 2), 3, 4, rng))
        config = tr.TrainConfig(hidden_dim=3, pooling=pooling, speakers_per_batch=3,
                                utterances_per_speaker=4)
        tape = ad.Tape()
        tr.batch_loss(BackendParams.init(6, 4, 3, rng, tape=tape), pairs, config)
        # pooling (attention only), ASV head, CM head, CM gather, fusion, loss
        assert len(tape._records) == (6 if pooling == "attention" else 5)


class TestTrain:
    def test_deterministic_trajectory(self, tmp_path):
        records, _ = tiny_dataset()
        config = tiny_config()
        one = tr.train(records, config, tmp_path / "one")
        two = tr.train(records, config, tmp_path / "two")
        assert [l.mean_selected_loss for l in one] == [l.mean_selected_loss for l in two]
        assert (tmp_path / "one" / "final.ckpt").read_bytes() == \
               (tmp_path / "two" / "final.ckpt").read_bytes()

    def test_loss_decreases_on_separable_data(self, tmp_path):
        records, _ = tiny_dataset(cm_separation=8.0)
        config = tiny_config(epochs=6, learning_rate=0.2)
        logs = tr.train(records, config, tmp_path)
        first = logs[0].mean_selected_loss
        last = logs[-1].mean_selected_loss
        assert last < first

    def test_learning_rate_schedule_exact(self, tmp_path):
        records, _ = tiny_dataset()
        config = tiny_config(epochs=3)
        for log in tr.train(records, config, tmp_path):
            expected = config.learning_rate * config.lr_decay_per_epoch ** (log.epoch - 1)
            assert log.learning_rate == expected

    def test_checkpoints_and_log_written(self, tmp_path):
        records, ds = tiny_dataset()
        config = tiny_config(epochs=2)
        dev = (ds.trials_dev, ds.asv_embeddings, ds.cm_embeddings)
        tr.train(records, config, tmp_path / "ck", dev_bundle=dev)
        assert (tmp_path / "ck" / "epoch_001.ckpt").exists()
        assert (tmp_path / "ck" / "epoch_002.ckpt").exists()
        assert (tmp_path / "ck" / "final.ckpt").exists()
        lines = (tmp_path / "ck" / "train.log").read_text().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split("\t")) == 6  # epoch lr loss + 3 dev EERs

    def test_log_without_dev_bundle_has_three_fields(self, tmp_path):
        records, _ = tiny_dataset()
        tr.train(records, tiny_config(), tmp_path)
        for line in (tmp_path / "train.log").read_text().splitlines():
            assert len(line.split("\t")) == 3

    def test_logged_dev_eers_match_standalone_evaluation(self, tmp_path):
        from sasvbackend.metrics import evaluate
        from sasvbackend.scoring import score_trials
        records, ds = tiny_dataset()
        dev = (ds.trials_dev, ds.asv_embeddings, ds.cm_embeddings)
        last = tr.train(records, tiny_config(epochs=2), tmp_path, dev_bundle=dev)[-1]
        final = BackendParams.load(tmp_path / "final.ckpt")
        report = evaluate(score_trials(final, *dev, scorer="fused"))
        assert last.dev.sv_eer == report.sv_eer
        assert last.dev.spf_eer == report.spf_eer
        assert last.dev.sasv_eer == report.sasv_eer

    @pytest.mark.parametrize("missing, absent_field", [("nontarget", 3), ("spoof", 4)])
    def test_missing_dev_class_is_logged_absent(self, tmp_path, missing, absent_field):
        """A dev set without a class still logs all three dev EERs: the
        missing one reads absent, and the other two are the standalone
        evaluation's."""
        records, ds = tiny_dataset()
        dev = ([t for t in ds.trials_dev if t.label != missing],
               ds.asv_embeddings, ds.cm_embeddings)
        tr.train(records, tiny_config(epochs=2), tmp_path, dev_bundle=dev)
        lines = (tmp_path / "train.log").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 6, line
            assert fields[absent_field] == "absent", line
            assert "None" not in line
        report = evaluate(score_trials(BackendParams.load(tmp_path / "final.ckpt"), *dev,
                                       scorer="fused"))
        eers = [report.sv_eer, report.spf_eer, report.sasv_eer]
        assert eers[absent_field - 3] is None
        assert lines[-1].split("\t")[3:] == ["absent" if e is None else repr(e) for e in eers]

    def test_no_log_line_reads_none(self):
        full = EerReport(0.25, 0.5, 0.125, 0.1, 0.2, 0.3, 4, 4, 4)
        for dev in (None, full, dataclasses.replace(full, sv_eer=None),
                    dataclasses.replace(full, spf_eer=None)):
            line = tr.EpochLog(3, 0.1, 0.5, dev).line()
            assert "None" not in line
            assert len(line.split("\t")) == (3 if dev is None else 6)

    @pytest.mark.parametrize("pooling", ["attention", "average"])
    def test_nan_weight_ends_in_the_loss_check(self, tmp_path, monkeypatch, pooling):
        """Weights gone NaN after the first step (Wq feeds the attention
        pooling, a the ASV score of both modes) end in the step's loss check,
        which names the step; norm, which rejects only zero rows, passes the
        NaN pooled vectors on."""
        step = tr.sgd_step

        def poisoned(params, *args, **kwargs):
            step(params, *args, **kwargs)
            params.Wq.value[0, 0] = params.a.value[0, 0] = np.nan
        monkeypatch.setattr(tr, "sgd_step", poisoned)
        records, _ = tiny_dataset()
        with pytest.raises(tr.TrainingDivergedError, match="non-finite loss epoch=1 batch=2$"):
            tr.train(records, tiny_config(pooling=pooling), tmp_path)

    def test_pool_too_small_raises(self, tmp_path):
        records, _ = tiny_dataset()
        config = tiny_config(speakers_per_batch=50)
        with pytest.raises(Exception, match="speakers"):
            tr.train(records, config, tmp_path / "run")


class TestStep:
    def test_hand_loop_matches_train(self, tmp_path):
        """Running the steps by hand over start's run gives train's epoch
        losses and its final.ckpt, byte for byte."""
        records, _ = tiny_dataset()
        config = tiny_config(epochs=3)
        logs = tr.train(records, config, tmp_path / "train")
        run = tr.start(records, config)
        steps = math.ceil(len(records) / (config.speakers_per_batch
                                          * config.utterances_per_speaker))
        means = []
        for epoch in range(1, config.epochs + 1):
            losses = [tr.step(run, epoch, batch).loss for batch in range(1, steps + 1)]
            means.append(sum(losses) / len(losses))
        assert means == [log.mean_selected_loss for log in logs]
        run.params.save(tmp_path / "hand.ckpt")
        assert (tmp_path / "hand.ckpt").read_bytes() == \
               (tmp_path / "train" / "final.ckpt").read_bytes()

    def test_corpus_scale_counts(self):
        """At M=16, K=10 and N=100 a step pairs 2,560 trials, 80 of them
        positive, and keeps the 80 positives plus 100 negatives."""
        rng = np.random.default_rng(5)
        pool = random_pool(rng, 17, 5)
        config = tr.TrainConfig(hidden_dim=3, speakers_per_batch=16, utterances_per_speaker=10)
        record = tr.step(tr.start(pool, config), 1, 1)
        assert (record.pairs, record.positives, record.selected) == (2560, 80, 180)
        assert record.rows.shape == (16, 10)
        assert math.isfinite(record.loss)

    @pytest.mark.parametrize("epoch", [1, 2, 5])
    def test_sets_the_epoch_learning_rate(self, epoch):
        records, _ = tiny_dataset()
        config = tiny_config(learning_rate=0.03, lr_decay_per_epoch=0.5)
        run = tr.start(records, config)
        tr.step(run, epoch, 1)
        assert run.optimizer.learning_rate == 0.03 * 0.5 ** (epoch - 1)


class TestConfigValidation:
    def test_bad_pooling(self):
        with pytest.raises(ValueError, match="pooling"):
            tr.TrainConfig(pooling="max")

    def test_bad_top_n(self):
        with pytest.raises(ValueError, match="hard_negative_top_n"):
            tr.TrainConfig(hard_negative_top_n=0)

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            tr.TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("name", ["learning_rate", "momentum", "weight_decay",
                                      "lr_decay_per_epoch"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            tr.TrainConfig(**{name: value})

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            tr.TrainConfig(seed=-1)

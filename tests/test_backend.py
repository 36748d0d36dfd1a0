"""Tests for the attention back-end: pooling, heads, fusion, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gathered_cos, pooled_per_set
from sasvbackend import autodiff as ad
from sasvbackend import backend as bk
from sasvbackend import data as dio
from sasvbackend import sampling, training


def make_params(d_a=4, d_c=3, h_f=2, seed=0, tape=None, pooling=None):
    return bk.BackendParams.init(d_a, d_c, h_f, np.random.default_rng(seed), tape=tape,
                                 pooling=pooling)


def zero_attention_params(d_a=4, d_c=3, h_f=2):
    """Params with all attention weights zero so pooling is analytically known."""
    p = make_params(d_a=d_a, d_c=d_c, h_f=h_f)
    for name in ("Wq", "Wk", "Wv", "Wf", "bf", "vf"):
        getattr(p, name).value[:] = 0.0
    return p


def enrollment(vectors, bonafide, speaker="spk"):
    embs = tuple(
        bk.Embedding(f"{speaker}-e{i}", "asv", np.asarray(v, float))
        for i, v in enumerate(vectors)
    )
    return bk.EnrollmentSet(speaker, embs, tuple(bonafide))


class TestEnrollmentSet:
    def test_mismatched_mask_length(self):
        with pytest.raises(ValueError, match="mask"):
            enrollment([[1, 0], [0, 1]], [True])

    @pytest.mark.parametrize("bonafide", [[True, False, True], [False, True, True, False]])
    def test_is_the_hand_built_one_group_stack(self, bonafide):
        rng = np.random.default_rng(len(bonafide))
        vectors = rng.standard_normal((len(bonafide), 5))
        enroll = enrollment(vectors, bonafide)
        stack = bk.EnrollmentStack(vectors[None], ~np.array(bonafide)[None, None])
        assert isinstance(enroll, bk.EnrollmentStack) and len(enroll) == len(bonafide)
        for name in ("embeddings", "masked"):
            got, want = getattr(enroll, name), getattr(stack, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert np.shares_memory(enroll.matrix(), enroll.embeddings)
        assert np.array_equal(enroll.matrix(), vectors)
        assert np.array_equal(enroll.spoof_mask(), ~np.array(bonafide))
        params = make_params(d_a=5, seed=2)
        for pool in (lambda s: bk.pool_enrollments(params, s), bk.average_pool):
            assert pool(enroll).value.tobytes() == pool(stack).value.tobytes()

    @pytest.mark.parametrize("vectors, bonafide, error, message", [
        ([], [], bk.EmptyEnrollmentError, "enrollment for 'spk' is empty"),
        ([[1, 0], [0, 1]], [True], ad.ShapeError, r"enrollment mask \(1, 1, 1\) does not fit"),
        ([[1, 0], [0, 1]], [False, False], bk.DegenerateEnrollmentError, "no bona-fide entry"),
    ], ids=["empty", "mask_length", "all_spoofed"])
    def test_bad_set_fails_at_construction(self, vectors, bonafide, error, message):
        with pytest.raises(error, match=message):
            enrollment(vectors, bonafide)

    def test_stack_embeddings_must_be_grouped(self):
        with pytest.raises(ad.ShapeError, match=r"enrollment mask \(1, 1, 3\) does not fit "
                                                r"embeddings \(3, 5\)"):
            bk.EnrollmentStack(np.ones((3, 5)), np.zeros((1, 1, 3), dtype=bool))

    def test_zero_asv_embedding_rejected(self):
        with pytest.raises(bk.ZeroNormError):
            bk.Embedding("u", "asv", np.zeros(4))

    def test_cm_embedding_may_be_zero(self):
        e = bk.Embedding("u", "cm", np.zeros(4))
        assert e.dim == 4


class TestPoolEnrollments:
    def test_single_entry_with_zero_weights_passes_through(self):
        p = zero_attention_params()
        e = np.array([0.5, -1.0, 2.0, 0.25])
        h = bk.pool_enrollments(p, enrollment([e], [True]))
        assert np.allclose(h.value[0], e, atol=1e-15)

    def test_identical_entries_reduce_to_single(self):
        p = make_params(seed=3)
        e = np.array([1.0, 2.0, -0.5, 0.75])
        h1 = bk.pool_enrollments(p, enrollment([e], [True]))
        h3 = bk.pool_enrollments(p, enrollment([e, e, e], [True, True, True]))
        assert np.allclose(h1.value, h3.value, atol=1e-12)

    def test_masked_content_cannot_leak(self):
        p = make_params(seed=1)
        rng = np.random.default_rng(42)
        base = [rng.standard_normal(4) for _ in range(4)]
        mask = [True, False, True, False]  # entries 2 and 4 spoofed
        h_ref = bk.pool_enrollments(p, enrollment(base, mask)).value
        swapped = [
            v if bona else rng.standard_normal(4) * 100.0
            for v, bona in zip(base, mask)
        ]
        h_alt = bk.pool_enrollments(p, enrollment(swapped, mask)).value
        assert np.array_equal(h_ref, h_alt)

    def test_all_masked_raises(self):
        p = make_params()
        with pytest.raises(bk.DegenerateEnrollmentError):
            bk.pool_enrollments(p, enrollment([[1, 0, 0, 0]], [False]))

    def test_empty_raises(self):
        p = make_params()
        with pytest.raises(bk.EmptyEnrollmentError):
            bk.pool_enrollments(p, bk.EnrollmentSet("s", (), ()))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        p = make_params(seed=seed % 17)
        k = int(rng.integers(2, 6))
        vectors = [rng.standard_normal(4) for _ in range(k)]
        bona = [bool(b) for b in rng.integers(0, 2, size=k)]
        if not any(bona):
            bona[0] = True
        h = bk.pool_enrollments(p, enrollment(vectors, bona)).value
        perm = rng.permutation(k)
        h_perm = bk.pool_enrollments(
            p, enrollment([vectors[i] for i in perm], [bona[i] for i in perm])
        ).value
        assert np.allclose(h, h_perm, atol=1e-12)


class TestAveragePool:
    def test_single_entry(self):
        e = np.array([1.0, 2.0, 3.0, 4.0])
        h = bk.average_pool(enrollment([e], [True]))
        assert np.array_equal(h.value[0], e)

    def test_midpoint(self):
        h = bk.average_pool(enrollment([[1, 0], [0, 1]], [True, True]))
        assert np.array_equal(h.value[0], [0.5, 0.5])

    def test_masked_entry_excluded(self):
        h = bk.average_pool(
            enrollment([[2, 4], [4, 8], [6, 0], [99, 99]], [True, True, True, False])
        )
        assert np.array_equal(h.value[0], [4.0, 4.0])

    def test_all_masked_raises(self):
        with pytest.raises(bk.DegenerateEnrollmentError):
            bk.average_pool(enrollment([[1, 1]], [False]))


class TestAsvProbability:
    def test_same_vector_gives_sigmoid_one(self):
        p = make_params()
        p.a.value[:] = 1.0
        p.b.value[:] = 0.0
        q = ad.Tensor([1.0, 2.0, 2.0, 0.0])
        cos, s, prob = bk.asv_probability(p, q, q)
        assert cos.item() == pytest.approx(1.0, abs=1e-15)
        assert prob.item() == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_orthogonal_gives_half(self):
        p = make_params()
        p.a.value[:] = 1.0
        p.b.value[:] = 0.0
        q = ad.Tensor([1.0, 0.0, 0.0, 0.0])
        h = ad.Tensor([0.0, 1.0, 0.0, 0.0])
        cos, s, prob = bk.asv_probability(p, q, h)
        assert cos.item() == 0.0
        assert prob.item() == 0.5

    def test_opposite_with_calibration(self):
        p = make_params()
        p.a.value[:] = 2.0
        p.b.value[:] = 1.0
        q = ad.Tensor([1.0, 1.0, 0.0, 0.0])
        h = ad.Tensor([-1.0, -1.0, 0.0, 0.0])
        cos, s, prob = bk.asv_probability(p, q, h)
        assert s.item() == pytest.approx(-1.0, abs=1e-12)
        assert prob.item() == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_zero_norm_rejected(self):
        p = make_params()
        with pytest.raises(bk.ZeroNormError):
            bk.asv_probability(p, ad.Tensor([0.0, 0.0, 0.0, 0.0]), ad.Tensor([1.0, 0, 0, 0]))

    def test_one_row_meets_every_row(self):
        p = make_params()
        rng = np.random.default_rng(4)
        q, h = rng.standard_normal((1, 4)), rng.standard_normal((3, 4))
        cos, _, _ = bk.asv_probability(p, ad.Tensor(q), ad.Tensor(h))
        each = [bk.asv_probability(p, ad.Tensor(q), ad.Tensor(row))[0].item() for row in h]
        assert cos.value.tolist() == each
        with pytest.raises(ValueError):
            bk.asv_probability(p, ad.Tensor(h[:2]), ad.Tensor(h))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_cosine_in_range(self, seed):
        rng = np.random.default_rng(seed)
        p = make_params()
        q = ad.Tensor(rng.standard_normal(4))
        h = ad.Tensor(rng.standard_normal(4))
        cos, _, prob = bk.asv_probability(p, q, h)
        assert -1.0 - 1e-12 <= cos.item() <= 1.0 + 1e-12
        assert 0.0 < prob.item() < 1.0


class TestCmProbability:
    def test_zero_weights_give_half(self):
        p = make_params()
        p.w_cm.value[:] = 0.0
        p.b_cm.value[:] = 0.0
        _, prob = bk.cm_probability(p, ad.Tensor([3.0, -7.0, 11.0]))
        assert prob.item() == 0.5

    def test_hand_value(self):
        p = make_params(d_c=2)
        p.w_cm.value[:] = [[1.0, 0.0]]
        p.b_cm.value[:] = 0.0
        s, prob = bk.cm_probability(p, ad.Tensor([2.0, 7.0]))
        assert s.item() == 2.0
        assert prob.item() == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_negation_flips_probability(self):
        p = make_params(seed=9)
        q = ad.Tensor([0.5, -1.5, 2.5])
        _, prob = bk.cm_probability(p, q)
        p.w_cm.value[:] = -p.w_cm.value
        p.b_cm.value[:] = -p.b_cm.value
        _, flipped = bk.cm_probability(p, q)
        assert flipped.item() == pytest.approx(1.0 - prob.item(), abs=1e-12)

    def test_dimension_mismatch(self):
        p = make_params(d_c=3)
        with pytest.raises(ad.ShapeError):
            bk.cm_probability(p, ad.Tensor([1.0, 2.0]))


class TestFuse:
    def test_hand_value(self):
        p = make_params()
        p.w1.value[:] = 1.0
        p.w2.value[:] = 1.0
        p.v.value[:] = 0.0
        s, prob = bk.fuse(p, ad.Tensor(0.5), ad.Tensor(0.5))
        assert s.item() == 1.0
        assert prob.item() == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_constant_head(self):
        p = make_params()
        p.w1.value[:] = 0.0
        p.w2.value[:] = 0.0
        p.v.value[:] = 0.0
        for pcm, pasv in [(0.01, 0.99), (0.7, 0.2)]:
            _, prob = bk.fuse(p, ad.Tensor(pcm), ad.Tensor(pasv))
            assert prob.item() == 0.5

    def test_offset_cancels(self):
        p = make_params()
        p.w1.value[:] = 4.0
        p.w2.value[:] = 0.0
        p.v.value[:] = -2.0
        s, prob = bk.fuse(p, ad.Tensor(0.5), ad.Tensor(0.123))
        assert s.item() == 0.0
        assert prob.item() == 0.5

    @given(
        delta=st.floats(1e-6, 0.2),
        base=st.floats(0.1, 0.7),
    )
    def test_monotone_when_weights_positive(self, delta, base):
        p = make_params()
        p.w1.value[:] = 1.3
        p.w2.value[:] = 0.7
        p.v.value[:] = -0.9
        _, low = bk.fuse(p, ad.Tensor(base), ad.Tensor(0.5))
        _, high = bk.fuse(p, ad.Tensor(base + delta), ad.Tensor(0.5))
        assert high.item() > low.item()
        _, low2 = bk.fuse(p, ad.Tensor(0.5), ad.Tensor(base))
        _, high2 = bk.fuse(p, ad.Tensor(0.5), ad.Tensor(base + delta))
        assert high2.item() > low2.item()


def random_trial(rng, d_a=4, d_c=3, k=3):
    q_asv = bk.Embedding("t-asv", "asv", rng.standard_normal(d_a))
    q_cm = bk.Embedding("t-cm", "cm", rng.standard_normal(d_c))
    bona = [True] + [bool(b) for b in rng.integers(0, 2, size=k - 1)]
    vectors = [rng.standard_normal(d_a) for _ in range(k)]
    embs = tuple(bk.Embedding(f"e{i}", "asv", v) for i, v in enumerate(vectors))
    return q_asv, q_cm, bk.EnrollmentSet("s", embs, tuple(bona))


def forward_one(params, q_asv, q_cm, enroll, pooling="attention"):
    """forward_batch on a batch holding the single trial (q, enroll)."""
    stack = bk.EnrollmentStack(enroll.matrix()[None], enroll.spoof_mask()[None, None])
    batch = bk.TrialBatch(q_asv.values[None], q_cm.values[None], stack,
                          np.array([0]), np.array([0]))
    return bk.forward_batch(params, batch, pooling)


class TestForward:
    def test_composition_matches_components_bitwise(self):
        rng = np.random.default_rng(5)
        p = make_params(seed=5)
        q_asv, q_cm, enroll = random_trial(rng)
        out = forward_one(p, q_asv, q_cm, enroll)
        h = bk.pool_enrollments(p, enroll)
        cos, s_asv, p_asv = bk.asv_probability(p, ad.Tensor(q_asv.values), h)
        s_cm, p_cm = bk.cm_probability(p, ad.Tensor(q_cm.values))
        s, prob = bk.fuse(p, p_cm, p_asv)
        assert out.p.item() == prob.item()
        assert out.s_asv.item() == s_asv.item()
        assert out.s_cm.item() == s_cm.item()
        assert out.cos.item() == cos.item()

    def test_unknown_pooling_rejected(self):
        rng = np.random.default_rng(0)
        p = make_params()
        q_asv, q_cm, enroll = random_trial(rng)
        with pytest.raises(ValueError, match="pooling"):
            forward_one(p, q_asv, q_cm, enroll, pooling="max")

    def test_probabilities_in_open_interval(self):
        rng = np.random.default_rng(11)
        p = make_params(seed=11)
        for _ in range(20):
            q_asv, q_cm, enroll = random_trial(rng)
            out = forward_one(p, q_asv, q_cm, enroll)
            for val in (out.p.item(), out.p_asv.item(), out.p_cm.item()):
                assert 0.0 < val < 1.0

    def test_average_pooling_has_no_attention_gradient(self):
        rng = np.random.default_rng(2)
        tape = ad.Tape()
        p = bk.BackendParams.init(4, 3, 2, rng, tape=tape)
        q_asv, q_cm, enroll = random_trial(rng)
        out = forward_one(p, q_asv, q_cm, enroll, pooling="average")
        tape.backward(out.p)
        for name in ("Wq", "Wk", "Wv", "Wf", "bf", "vf"):
            assert np.array_equal(getattr(p, name).grad, np.zeros_like(getattr(p, name).value))
        assert np.any(p.w_cm.grad)
        assert np.any(p.a.grad)


def drawn_batch(d_a, m=4, k=4, seed=0):
    ds = dio.generate_synthetic(dio.SynthConfig(
        train_speakers=m, dev_speakers=2, eval_speakers=2, bonafide_per_speaker=6,
        spoof_per_speaker=6, d_a=d_a, d_c=5, seed=seed))
    records = dio.build_records(ds.manifest, ds.asv_embeddings, ds.cm_embeddings)
    return sampling.draw_batch(records, m, k, np.random.default_rng(seed))


def pair_batch(d_a, m=4, k=4, seed=0):
    return sampling.expand_pairs(drawn_batch(d_a, m, k, seed))


class TestAsvHeadPerDistinctRow:
    def test_tape_holds_no_per_pair_rows(self):
        d_a = 7
        pairs = pair_batch(d_a)
        tape = ad.Tape()
        params = bk.BackendParams.init(d_a, 5, 3, np.random.default_rng(1), tape=tape)
        config = training.TrainConfig(speakers_per_batch=4, utterances_per_speaker=4,
                                      hidden_dim=3, hard_negative_top_n=10)
        training.batch_loss(params, pairs, config)
        n_pairs = len(pairs.test_row)
        assert n_pairs == 4 * 4 * 4
        shapes = [out.shape for out, _ in tape._records]
        # one record per block: pooling, ASV head, CM head, the CM gather,
        # fusion, and BCE + selection + mean
        assert len(shapes) == 6 and (n_pairs, d_a) not in shapes

    @pytest.mark.parametrize("pooling", ["attention", "average"])
    @pytest.mark.parametrize("d_a", [7, 96])
    def test_cos_is_the_gathered_composition_bitwise(self, pooling, d_a):
        pairs = pair_batch(d_a, seed=d_a)
        params = make_params(d_a=d_a, d_c=5, h_f=3, seed=d_a)
        h = (bk.pool_enrollments(params, pairs.enroll) if pooling == "attention"
             else bk.average_pool(pairs.enroll))
        cos = bk.forward_batch(params, pairs, pooling).cos.value
        assert np.array_equal(cos, gathered_cos(pairs, h).value)


def padded_stack(rng, lengths, d_a, spoofed=()):
    """One group per set (R = 1), each padded to the longest set with masked
    entries; spoofed holds (set, slot) entries masked as spoofed."""
    masked = np.arange(max(lengths)) >= np.array(lengths)[:, None]
    for s, slot in spoofed:
        masked[s, slot] = True
    return bk.EnrollmentStack(rng.standard_normal((len(lengths), max(lengths), d_a)),
                              masked[:, None])


def leave_one_out_stack(rng, m, k, d_a):
    """One group per speaker whose K sets each leave one slot out, no spoofs."""
    masked = np.broadcast_to(np.eye(k, dtype=bool), (m, k, k))
    return bk.EnrollmentStack(rng.standard_normal((m, k, d_a)), masked)


class TestGroupPooling:
    CASES = {
        "padded": lambda rng: padded_stack(rng, [1, 3, 5, 2], 6),
        "padded_spoofed": lambda rng: padded_stack(rng, [4, 2, 5], 6, [(0, 1), (2, 0), (2, 3)]),
        "leave_one_out": lambda rng: leave_one_out_stack(rng, 3, 4, 6),
        "leave_one_out_spoofed": lambda rng: pair_batch(6, seed=int(rng.integers(99))).enroll,
    }

    @pytest.mark.parametrize("pooling", ["attention", "average"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_explicit_per_set_reference(self, case, pooling):
        rng = np.random.default_rng(len(case))
        stack = self.CASES[case](rng)
        params = make_params(d_a=6, d_c=5, h_f=3, seed=len(case))
        embeddings = stack.embeddings.copy()
        got = (bk.pool_enrollments(params, stack) if pooling == "attention"
               else bk.average_pool(stack)).value
        assert np.array_equal(stack.embeddings, embeddings)  # pooling never writes to it
        want = pooled_per_set(params, stack, pooling)
        assert got.shape == (stack.masked.shape[0] * stack.masked.shape[1], 6)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pooling", ["attention", "average"])
    def test_excluded_slot_cannot_leak(self, pooling):
        batch = drawn_batch(6, seed=3)
        pairs = sampling.expand_pairs(batch)
        m, k = 4, 4
        n = 2
        j = int(np.flatnonzero(batch.pool.bonafide[batch.rows[n]])[0])
        # speaker n's set for a test at each slot: pair (l, slot, n) with l = 0
        set_for = pairs.enroll_set[np.arange(k) * m + n]
        params = make_params(d_a=6, d_c=5, h_f=3, seed=3)

        def pooled(embeddings):
            stack = bk.EnrollmentStack(embeddings, pairs.enroll.masked)
            return (bk.pool_enrollments(params, stack) if pooling == "attention"
                    else bk.average_pool(stack)).value
        # slot j, speaker n's first bona-fide slot, is entry 0 of its group
        assert np.array_equal(pairs.enroll.embeddings[n, 0], pairs.test_asv[n * k + j])
        changed = pairs.enroll.embeddings.copy()
        changed[n, 0] = np.random.default_rng(0).standard_normal(6) * 100.0
        before, after = pooled(pairs.enroll.embeddings), pooled(changed)
        assert np.array_equal(before[set_for[j]], after[set_for[j]])
        # the row does reach the speaker's sets that keep it
        other = next(s for s in range(k) if s != j)
        assert not np.array_equal(before[set_for[other]], after[set_for[other]])

    def test_tape_holds_no_per_set_stack(self):
        m, k = 4, 4
        pairs = pair_batch(7, m=m, k=k)
        tape = ad.Tape()
        params = bk.BackendParams.init(7, 5, 3, np.random.default_rng(1), tape=tape)
        config = training.TrainConfig(speakers_per_batch=m, utterances_per_speaker=k,
                                      hidden_dim=3, hard_negative_top_n=10)
        training.batch_loss(params, pairs, config)
        shapes = [out.shape for out, _ in tape._records]
        assert len(shapes) == 6  # one record per block, as above
        assert not [shape for shape in shapes if shape[:2] == (m * k, k - 1)]


class TestMaskingByWeight:
    """Pooling reads the stack's own array: a masked entry is left out by
    its exact zero weight, never by zeroing its content."""

    @pytest.mark.parametrize("pooling", ["attention", "average"])
    def test_spoofed_entries_pool_as_zeros_and_stay_unwritten(self, pooling):
        bonafide = np.array([True, False, True, False])
        vectors = np.random.default_rng(4).standard_normal((4, 5))
        enroll = enrollment(vectors, bonafide)
        zeroed = bk.EnrollmentStack(np.where(bonafide[:, None], vectors, 0.0)[None],
                                    enroll.masked)
        params = make_params(d_a=5, seed=1)

        def pool(stack):
            return (bk.pool_enrollments(params, stack) if pooling == "attention"
                    else bk.average_pool(stack)).value
        pooled = pool(enroll)
        assert np.all(np.isfinite(pooled))
        assert pooled.tobytes() == pool(zeroed).tobytes()
        assert np.array_equal(enroll.embeddings[0], vectors)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        p = make_params(d_a=6, d_c=5, h_f=3, seed=21)
        path = tmp_path / "model.ckpt"
        p.save(path)
        loaded = bk.BackendParams.load(path)
        assert (loaded.d_a, loaded.d_c, loaded.h_f) == (6, 5, 3)
        for (name, orig), (_, got) in zip(p.parameters(), loaded.parameters()):
            assert np.array_equal(orig.value, got.value), name
        second = tmp_path / "model2.ckpt"
        loaded.save(second)
        assert path.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("pooling", ["attention", "average"])
    def test_version_2_records_pooling_and_roundtrips(self, tmp_path, pooling):
        p = make_params(d_a=3, d_c=2, h_f=2, seed=4)
        p.pooling = pooling
        path, second = tmp_path / "v2.ckpt", tmp_path / "again.ckpt"
        p.save(path)
        loaded = bk.BackendParams.load(path)
        assert loaded.pooling == pooling and loaded.detach().pooling == pooling
        loaded.save(second)
        assert path.read_bytes() == second.read_bytes()
        # the same weights without a mode: a version-1 file, 4 + len(mode) bytes shorter
        p.pooling = None
        p.save(second)
        assert len(second.read_bytes()) == len(path.read_bytes()) - 4 - len(pooling)
        assert bk.BackendParams.load(second).pooling is None

    def test_unknown_pooling_mode_rejected(self, tmp_path):
        p = make_params(d_a=3, d_c=2, h_f=2, seed=4, pooling="average")
        path = tmp_path / "model.ckpt"
        p.save(path)
        path.write_bytes(path.read_bytes().replace(b"average", b"maximum", 1))
        with pytest.raises(ValueError, match="model.ckpt: unknown pooling mode 'maximum'"):
            bk.BackendParams.load(path)

    def test_forward_reproducible_after_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        p = make_params(seed=8)
        q_asv, q_cm, enroll = random_trial(rng)
        before = forward_one(p, q_asv, q_cm, enroll, pooling="average").p.item()
        path = tmp_path / "m.ckpt"
        p.save(path)
        after = forward_one(bk.BackendParams.load(path), q_asv, q_cm, enroll,
                            pooling="average").p.item()
        assert before == after

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            bk.BackendParams.load(path)

    def _saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        make_params(d_a=3, d_c=2, h_f=2, seed=4).save(path)
        return path, path.read_bytes()

    @pytest.mark.parametrize("keep", [0, 10, 24, 30, 100, -1])
    def test_truncated_rejected_naming_path(self, tmp_path, keep):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:keep] if keep >= 0 else data[:-1])
        with pytest.raises(ValueError, match="model.ckpt"):
            bk.BackendParams.load(path)

    @pytest.mark.parametrize("old,new,message", [
        (b"\x02\x00\x00\x00Wk", b"\x02\x00\x00\x00Wq", "repeated"),
        (b"w_cm", b"w_xx", "unknown"),
    ])
    def test_wrong_name_set_rejected(self, tmp_path, old, new, message):
        path, data = self._saved(tmp_path)
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(ValueError, match=message):
            bk.BackendParams.load(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path, data = self._saved(tmp_path)
        # header says d_a = 3; claim d_a = 4 instead
        path.write_bytes(data[:12] + (4).to_bytes(4, "little") + data[16:])
        with pytest.raises(ValueError, match="shape"):
            bk.BackendParams.load(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path, data = self._saved(tmp_path)
        at = data.index(b"Wq") + 2 + 8
        path.write_bytes(data[:at] + np.array([np.nan]).tobytes() + data[at + 8:])
        with pytest.raises(ValueError, match="non-finite"):
            bk.BackendParams.load(path)

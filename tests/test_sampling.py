"""Sampler tests: batch layout, pair expansion counts, label rules."""

from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import draw_batch_by_records

from sasvbackend import autodiff as ad
from sasvbackend import sampling as sm
from sasvbackend import training as tr
from sasvbackend.backend import BackendParams, ZeroNormError


def make_pool(n_speakers, bona_per_speaker, spoof_per_speaker, d_a=4, d_c=3, seed=0):
    rows = [(f"spk{s:02d}", j, j < bona_per_speaker)
            for s in range(n_speakers) for j in range(bona_per_speaker + spoof_per_speaker)]
    utts = [f"{speaker}-{'b' if bona else 's'}{j:02d}" for speaker, j, bona in rows]
    draws = np.random.default_rng(seed).standard_normal((len(rows), d_a + d_c))  # ASV, CM
    return sm.TrainingPool([r[0] for r in rows], utts, [r[2] for r in rows],
                           draws[:, :d_a], draws[:, d_a:])


def pair_records(batch, pairs, i):
    """Pair i read back from the arrays as records: its test utterance, the
    speaker of its enrollment group, the K - 1 utterances of the group
    other than the set's held-out slot, and the set's mask over them."""
    utterances = [u for block in batch.speakers for u in block.utterances]
    for row, u in enumerate(utterances):
        assert np.array_equal(pairs.test_asv[row], u.asv_embedding.values)
    group, slot = divmod(int(pairs.enroll_set[i]), pairs.enroll.masked.shape[1])
    members = [utterances[row] for row in pairs.enroll.members[group]]
    (speaker,) = {u.speaker_id for u in members}
    kept = [s for s in range(len(members)) if s != slot]
    return (utterances[pairs.test_row[i]], speaker, [members[s] for s in kept],
            pairs.enroll.masked[group, slot][kept])


class TestDrawBatch:
    def test_table_layout_m3_k4(self):
        pool = make_pool(3, 2, 2)
        batch = sm.draw_batch(pool, 3, 4, np.random.default_rng(0))
        assert batch.m == 3 and batch.k == 4
        for block in batch.speakers:
            bona = [u.bonafide for u in block.utterances]
            assert sum(bona) == 2
            assert all(u.speaker_id == block.speaker_id for u in block.utterances)

    def test_full_scale_configuration_size(self):
        pool = make_pool(20, 8, 8)
        batch = sm.draw_batch(pool, 16, 10, np.random.default_rng(1))
        total = sum(len(b.utterances) for b in batch.speakers)
        assert total == 160
        for block in batch.speakers:
            assert sum(u.bonafide for u in block.utterances) == 5

    def test_no_replacement_within_batch(self):
        pool = make_pool(4, 3, 3)
        batch = sm.draw_batch(pool, 3, 6, np.random.default_rng(5))
        ids = [u.utterance_id for b in batch.speakers for u in b.utterances]
        assert len(ids) == len(set(ids))
        speakers = [b.speaker_id for b in batch.speakers]
        assert len(speakers) == len(set(speakers))

    def test_deterministic_given_seed(self):
        pool = make_pool(6, 4, 4)
        def draw_sequence():
            rng = np.random.default_rng(77)
            return [
                [u.utterance_id for b in sm.draw_batch(pool, 3, 4, rng).speakers
                 for u in b.utterances]
                for _ in range(5)
            ]
        assert draw_sequence() == draw_sequence()

    def test_pool_exhausted_names_deficiency(self):
        pool = make_pool(3, 1, 4)  # only one bona-fide utterance per speaker
        with pytest.raises(sm.PoolExhaustedError, match="bona-fide"):
            sm.draw_batch(pool, 3, 4, np.random.default_rng(0))

    def test_too_few_speakers(self):
        pool = make_pool(2, 4, 4)
        with pytest.raises(sm.PoolExhaustedError):
            sm.draw_batch(pool, 3, 4, np.random.default_rng(0))

    def test_k2_always_degenerate(self):
        # one bona-fide entry per block: excluding it empties the enrollment
        pool = make_pool(4, 3, 3)
        with pytest.raises(sm.PoolExhaustedError, match="at least 4"):
            sm.draw_batch(pool, 3, 2, np.random.default_rng(0))

    def test_odd_k_rejected(self):
        pool = make_pool(4, 3, 3)
        with pytest.raises(ValueError, match="even"):
            sm.draw_batch(pool, 3, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("k", [0, -2, -3])
    def test_non_positive_k_rejected(self, k):
        pool = make_pool(4, 3, 3)
        with pytest.raises(ValueError, match=f"^k must be positive and even, got {k}$") as info:
            sm.draw_batch(pool, 3, k, np.random.default_rng(0))
        assert not isinstance(info.value, sm.PoolExhaustedError)  # exit 2, not 3

    @given(n_speakers=st.integers(2, 6), extra_bona=st.integers(0, 3),
           extra_spoof=st.integers(0, 3), m=st.integers(2, 6), half_k=st.integers(1, 4),
           seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_every_block_and_enrollment_keeps_bonafide(self, n_speakers, extra_bona,
                                                         extra_spoof, m, half_k, seed):
        k = 2 * half_k
        pool = make_pool(n_speakers, half_k + extra_bona, half_k + extra_spoof, seed=seed)
        rng = np.random.default_rng(seed)
        if k == 2 or m > n_speakers:
            with pytest.raises(sm.PoolExhaustedError):
                sm.draw_batch(pool, m, k, rng)
            return
        batch = sm.draw_batch(pool, m, k, rng)
        for block in batch.speakers:
            assert len(block.utterances) == k
            assert sum(u.bonafide for u in block.utterances) == half_k
        pairs = sm.expand_pairs(batch)
        stack = pairs.enroll
        # (G, R, K): entry s of set r is a bona-fide row the set keeps
        usable = ~stack.masked & pairs.bonafide[stack.members][:, None, :]
        assert usable.any(axis=-1).all()


def uneven_pool(counts, seed, d_a=4, d_c=3):
    """A pool of speakers with (bona fide, spoofed) counts each, shuffled
    so that a speaker's utterances are interleaved with the others'."""
    rng = np.random.default_rng(seed)
    rows = [(f"spk{s}", f"spk{s}-{j}", j < n_bona)  # spk10 sorts before spk2
            for s, (n_bona, n_spoof) in enumerate(counts) for j in range(n_bona + n_spoof)]
    draws = rng.standard_normal((len(rows), d_a + d_c))  # ASV, then CM, per utterance
    order = rng.permutation(len(rows))
    speakers, utts, bonafide = zip(*[rows[i] for i in order]) if rows else ((), (), ())
    return sm.TrainingPool(speakers, utts, bonafide, draws[order, :d_a], draws[order, d_a:])


def draws(draw, seed, n_draws=3):
    """The utterance ids of n_draws consecutive batches, block by block, or
    the error raised, followed by the rng's next value."""
    rng = np.random.default_rng(seed)
    try:
        out = [[(b.speaker_id, [u.utterance_id for u in b.utterances]) for b in draw(rng)]
               for _ in range(n_draws)]
    except ValueError as exc:
        out = (type(exc), str(exc))
    return out, rng.random()


class TestTrainingPool:
    # mostly valid layouts, and up to five speakers with five bona-fide and
    # five spoofed utterances, so that most examples draw batches
    @given(counts=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=10),
           full=st.integers(0, 5), m=st.sampled_from([2, 3, 4, 2, 3, 6, 1]),
           k=st.sampled_from([4, 6, 8, 4, 6, 2, 3, 0, -2]), seed=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_draws_match_regrouping_oracle(self, counts, full, m, k, seed):
        counts = counts + [(5, 5)] * full
        if not sum(map(sum, counts)):
            with pytest.raises(ValueError, match="^empty training pool$"):
                uneven_pool(counts, seed)
            return
        pool = uneven_pool(counts, seed)
        records = list(pool)
        got = draws(lambda rng: sm.draw_batch(pool, m, k, rng).speakers, seed)
        want = draws(lambda rng: draw_batch_by_records(records, m, k, rng), seed)
        assert got == want

    def test_arrays_hold_the_records(self):
        pool = uneven_pool([(3, 1), (0, 2), (2, 4)], seed=4)
        records = list(pool)
        assert len(pool) == len(records)
        assert [r.utterance_id for r in records] == list(pool.utterance_ids)
        assert pool.asv.tobytes() == np.array([r.asv_embedding.values for r in records]).tobytes()
        assert pool.cm.tobytes() == np.array([r.cm_embedding.values for r in records]).tobytes()
        assert pool.bonafide.tolist() == [r.bonafide for r in records]
        assert pool.n_bona.tolist() == [3, 0, 2] and pool.n_spoof.tolist() == [1, 2, 4]
        for s, (bona, spoof) in enumerate(zip(pool.bona_rows, pool.spoof_rows)):
            assert all(records[i].speaker_id == f"spk{s}" for i in [*bona, *spoof])
            assert bona.tolist() == sorted(bona) and spoof.tolist() == sorted(spoof)
            assert all(records[i].bonafide for i in bona)
            assert not any(records[i].bonafide for i in spoof)

    @staticmethod
    def rebuilt(pool, asv=None, cm=None):
        """pool's ids and flags with other matrices."""
        return sm.TrainingPool(pool.speaker_ids, pool.utterance_ids, pool.bonafide,
                               pool.asv if asv is None else asv, pool.cm if cm is None else cm)

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError, match="^empty training pool$"):
            sm.TrainingPool([], [], [], np.empty((0, 4)), np.empty((0, 3)))

    @pytest.mark.parametrize("kind", ["asv", "cm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises_naming_the_utterance(self, kind, value):
        pool = make_pool(3, 2, 2)
        matrix = getattr(pool, kind).copy()
        matrix[5, 1] = value
        with pytest.raises(ValueError, match="^embedding 'spk01-b01' has non-finite values$") \
                as info:
            self.rebuilt(pool, **{kind: matrix})
        assert not isinstance(info.value, ZeroNormError)

    def test_zero_asv_row_raises_zero_norm_naming_the_utterance(self):
        pool = make_pool(3, 2, 2)
        asv = pool.asv.copy()
        asv[6] = 0.0
        with pytest.raises(ZeroNormError, match="^ASV embedding 'spk01-s02' is a zero vector$"):
            self.rebuilt(pool, asv=asv)
        cm = pool.cm.copy()
        cm[6] = 0.0  # a zero CM vector is valid
        assert self.rebuilt(pool, cm=cm).cm[6].tolist() == [0.0, 0.0, 0.0]

    def test_first_bad_row_is_named(self):
        # the checks run row by row: ASV non-finite, ASV zero, CM non-finite
        pool = make_pool(3, 2, 2)
        asv, cm = pool.asv.copy(), pool.cm.copy()
        asv[9], cm[4, 0], asv[4, 2] = 0.0, np.nan, 0.0
        with pytest.raises(ValueError, match="'spk01-b00' has non-finite") as info:
            self.rebuilt(pool, asv, cm)
        assert not isinstance(info.value, ZeroNormError)
        asv[4], cm[4, 0] = 0.0, np.nan  # a zero ASV row comes before its CM row
        with pytest.raises(ZeroNormError, match="'spk01-b00' is a zero vector"):
            self.rebuilt(pool, asv, cm)

    def test_record_view_is_row_i_bitwise(self):
        pool = uneven_pool([(3, 1), (2, 4)], seed=6, d_a=5, d_c=2)
        for i in [*range(len(pool)), -1, -len(pool)]:
            rec = pool[i]
            assert isinstance(rec, sm.UtteranceRecord)
            assert (rec.speaker_id, rec.utterance_id, rec.bonafide) == (
                pool.speaker_ids[i], pool.utterance_ids[i], bool(pool.bonafide[i]))
            assert rec.asv_embedding.values.tobytes() == pool.asv[i].tobytes()
            assert rec.cm_embedding.values.tobytes() == pool.cm[i].tobytes()
            assert (rec.asv_embedding.kind, rec.cm_embedding.kind) == ("asv", "cm")
            assert rec.asv_embedding.utterance_id == rec.cm_embedding.utterance_id == \
                rec.utterance_id
        assert pool[-1].utterance_id == pool.utterance_ids[len(pool) - 1]

    @pytest.mark.parametrize("offset", [0, 1, 5])
    def test_out_of_range_index_raises(self, offset):
        pool = make_pool(2, 2, 2)
        for i in (len(pool) + offset, -len(pool) - 1 - offset):
            with pytest.raises(IndexError):
                pool[i]

    def test_step_path_reads_no_record(self, monkeypatch):
        pool = uneven_pool([(4, 5), (6, 3), (3, 3), (5, 7)], seed=8, d_a=6)
        config = tr.TrainConfig(hard_negative_top_n=20, hidden_dim=3, speakers_per_batch=3,
                                utterances_per_speaker=6)

        def no_record(self, i):
            raise AssertionError("a record was read on the step path")

        with monkeypatch.context() as patched:
            patched.setattr(sm.TrainingPool, "__getitem__", no_record)
            batch = sm.draw_batch(pool, 3, 6, np.random.default_rng(2))
            pairs = sm.expand_pairs(batch)
            tape = ad.Tape()
            params = BackendParams.init(6, 3, 3, np.random.default_rng(5), tape=tape)
            loss, _ = tr.batch_loss(params, pairs, config)
            tape.backward(loss)
        utterances = [u for block in batch.speakers for u in block.utterances]
        assert pairs.test_asv.tobytes() == np.array(
            [u.asv_embedding.values for u in utterances]).tobytes()
        assert pairs.test_cm.tobytes() == np.array(
            [u.cm_embedding.values for u in utterances]).tobytes()
        assert pairs.bonafide.tolist() == [u.bonafide for u in utterances]


class TestExpandPairs:
    def test_table_counts_m3_k4(self):
        pool = make_pool(3, 2, 2)
        batch = sm.draw_batch(pool, 3, 4, np.random.default_rng(2))
        pairs = sm.expand_pairs(batch)
        assert len(pairs) == 36
        assert sum(p.positive for p in pairs) == 6

    def test_full_scale_counts_m16_k10(self):
        pool = make_pool(20, 8, 8)
        batch = sm.draw_batch(pool, 16, 10, np.random.default_rng(3))
        pairs = sm.expand_pairs(batch)
        assert len(pairs) == 2560
        assert sum(p.positive for p in pairs) == 80

    def test_pair_views_index_like_a_list(self):
        pool = make_pool(3, 2, 2)
        pairs = sm.expand_pairs(sm.draw_batch(pool, 3, 4, np.random.default_rng(2)))
        assert not isinstance(pairs, Sequence) and not isinstance(pool, Sequence)
        want = list(zip(pairs.test_row.tolist(), pairs.enroll_set.tolist(),
                        pairs.positive.tolist()))
        assert list(pairs) == want  # iteration runs through __getitem__
        assert pairs[-1] == want[-1] and pairs[-len(pairs)] == want[0]
        for i in (len(pairs), -len(pairs) - 1):
            with pytest.raises(IndexError):
                pairs[i]
        assert [r.utterance_id for r in pool] == list(pool.utterance_ids)

    def test_spoofed_test_of_own_speaker_is_negative(self):
        pool = make_pool(3, 2, 2)
        batch = sm.draw_batch(pool, 3, 4, np.random.default_rng(4))
        pairs = sm.expand_pairs(batch)
        same_speaker_spoofed = []
        for i in range(len(pairs)):
            test, speaker, _, _ = pair_records(batch, pairs, i)
            if test.speaker_id == speaker and not test.bonafide:
                same_speaker_spoofed.append(i)
        assert same_speaker_spoofed
        assert all(not pairs.positive[i] for i in same_speaker_spoofed)

    def test_label_rule_exhaustive(self):
        pool = make_pool(4, 3, 3)
        batch = sm.draw_batch(pool, 4, 6, np.random.default_rng(6))
        pairs = sm.expand_pairs(batch)
        for i in range(len(pairs)):
            test, speaker, _, _ = pair_records(batch, pairs, i)
            expected = (test.speaker_id == speaker) and test.bonafide
            assert pairs.positive[i] == expected

    def test_enrollment_never_contains_test(self):
        pool = make_pool(3, 2, 2)
        batch = sm.draw_batch(pool, 3, 4, np.random.default_rng(7))
        pairs = sm.expand_pairs(batch)
        for i in range(len(pairs)):
            test, _, enrolled, _ = pair_records(batch, pairs, i)
            assert test.utterance_id not in {u.utterance_id for u in enrolled}

    def test_enrollment_size_and_index_exclusion(self):
        pool = make_pool(3, 2, 2)
        batch = sm.draw_batch(pool, 3, 4, np.random.default_rng(8))
        pairs = sm.expand_pairs(batch)
        blocks = batch.speakers
        i = 0
        for l in range(3):
            for m_idx in range(4):
                for n in range(3):
                    _, _, enrolled, _ = pair_records(batch, pairs, i)
                    i += 1
                    assert len(enrolled) == 3
                    expected = [
                        u.utterance_id
                        for j, u in enumerate(blocks[n].utterances) if j != m_idx
                    ]
                    assert [u.utterance_id for u in enrolled] == expected

    def test_every_enrollment_keeps_a_bonafide(self):
        pool = make_pool(5, 2, 2)
        rng = np.random.default_rng(9)
        for _ in range(10):
            batch = sm.draw_batch(pool, 3, 4, rng)
            pairs = sm.expand_pairs(batch)
            for i in range(len(pairs)):
                _, _, enrolled, masked = pair_records(batch, pairs, i)
                assert np.array_equal(masked, [not u.bonafide for u in enrolled])
                assert any(u.bonafide for u in enrolled)

    @given(m=st.integers(2, 5), half_k=st.integers(1, 3), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_pair_count_formula(self, m, half_k, seed):
        k = 2 * half_k
        if k == 2:
            return  # single bona-fide entry per block cannot survive exclusion
        pool = make_pool(m + 1, half_k + 1, half_k + 1, seed=seed)
        batch = sm.draw_batch(pool, m, k, np.random.default_rng(seed))
        pairs = sm.expand_pairs(batch)
        assert len(pairs) == m * k * m
        assert sum(p.positive for p in pairs) == m * k // 2

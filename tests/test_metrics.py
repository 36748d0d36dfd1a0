"""EER tests against an independent brute-force threshold-sweep oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_force_eer

from sasvbackend import metrics as mt


finite_scores = st.floats(-100, 100, allow_nan=False)


class TestEer:
    def test_perfect_separation_is_exactly_zero(self):
        value, threshold = mt.eer([0.9, 0.8], [0.1, 0.2])
        assert value == 0.0
        assert 0.2 < threshold <= 0.8

    def test_fully_inverted_is_exactly_one(self):
        value, _ = mt.eer([0.1, 0.2], [0.8, 0.9])
        assert value == 1.0

    def test_crossing_at_half(self):
        value, threshold = mt.eer([0.8, 0.4], [0.6, 0.2])
        assert value == 0.5
        assert threshold == 0.6

    @pytest.mark.parametrize("x", [2.0 ** 53, 1e16, -1e300, 1e300, np.finfo(np.float64).max])
    def test_tie_at_a_score_that_one_does_not_move(self, x):
        """From |x| = 2**53 on, x + 1.0 == x, so the sweep's end point steps
        to the next float (inf past the largest one)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, threshold = mt.eer([x], [x])
        assert value == 0.5
        assert not np.isnan(threshold) and threshold >= x

    def test_empty_class_named(self):
        with pytest.raises(mt.EmptyClassError, match="positive"):
            mt.eer([], [0.1])
        with pytest.raises(mt.EmptyClassError, match="negative"):
            mt.eer([0.1], [])

    def test_matches_oracle_on_200_random_sets(self):
        rng = np.random.default_rng(1234)
        for trial in range(200):
            n_pos = int(rng.integers(1, 500))
            n_neg = int(rng.integers(1, 500))
            shift = rng.uniform(-1.0, 2.0)
            pos = rng.normal(shift, 1.0, size=n_pos)
            neg = rng.normal(0.0, 1.0, size=n_neg)
            if rng.uniform() < 0.3:  # inject ties
                pos = np.round(pos, 1)
                neg = np.round(neg, 1)
            got, _ = mt.eer(pos, neg)
            want = brute_force_eer(pos, neg)
            assert abs(got - want) < 1e-9, f"trial {trial}"

    @given(
        pos=st.lists(finite_scores, min_size=1, max_size=60),
        neg=st.lists(finite_scores, min_size=1, max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence_property(self, pos, neg):
        got, _ = mt.eer(pos, neg)
        assert abs(got - brute_force_eer(pos, neg)) < 1e-9

    @given(
        pos=st.lists(finite_scores, min_size=1, max_size=40),
        neg=st.lists(finite_scores, min_size=1, max_size=40),
        scale=st.floats(0.1, 10.0),
        shift=st.floats(-50, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_increasing_transform(self, pos, neg, scale, shift):
        # the transform must stay strictly increasing after rounding,
        # otherwise it can merge distinct scores and change the ranks
        distinct = sorted(set(pos + neg))
        transformed = [scale * s + shift for s in distinct]
        assume(all(a < b for a, b in zip(transformed, transformed[1:])))
        base, _ = mt.eer(pos, neg)
        mapped, _ = mt.eer([scale * p + shift for p in pos],
                           [scale * n + shift for n in neg])
        assert base == pytest.approx(mapped, abs=1e-9)

    @given(
        pos=st.lists(finite_scores, min_size=1, max_size=40),
        neg=st.lists(finite_scores, min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_swap_maps_to_complement(self, pos, neg):
        forward = brute_force_eer(pos, neg)
        swapped, _ = mt.eer(neg, pos)
        assert swapped == pytest.approx(1.0 - forward, abs=1e-9)


def records(target=(), nontarget=(), spoof=()):
    out = []
    for label, scores in (("target", target), ("nontarget", nontarget), ("spoof", spoof)):
        out.extend(
            mt.ScoreRecord(f"spk{i}", f"utt-{label}-{i}", float(s), label)
            for i, s in enumerate(scores)
        )
    return out


class TestEvaluate:
    def test_perfectly_separated_all_zero(self):
        rep = mt.evaluate(records(target=[0.9, 0.95], nontarget=[0.2, 0.3], spoof=[0.4, 0.1]))
        assert rep.sv_eer == 0.0
        assert rep.spf_eer == 0.0
        assert rep.sasv_eer == 0.0
        assert (rep.n_target, rep.n_nontarget, rep.n_spoof) == (2, 2, 2)

    def test_overlapping_nontarget_separated_spoof(self):
        rng = np.random.default_rng(99)
        target = rng.normal(0.0, 1.0, 400)
        nontarget = rng.normal(0.0, 1.0, 400)  # same distribution: EER ~ 0.5
        spoof = rng.normal(-20.0, 1.0, 400)    # fully separated: EER ~ 0
        rep = mt.evaluate(records(target, nontarget, spoof))
        assert rep.sv_eer == pytest.approx(0.5, abs=0.08)
        assert rep.spf_eer == 0.0
        oracle = brute_force_eer(list(target), list(nontarget) + list(spoof))
        assert rep.sasv_eer == pytest.approx(oracle, abs=1e-9)

    def test_missing_class_reported_absent(self):
        rep = mt.evaluate(records(target=[0.9], nontarget=[0.1]))
        assert rep.spf_eer is None
        assert rep.spf_threshold is None
        assert rep.sv_eer == 0.0
        assert rep.sasv_eer == 0.0

    def test_no_targets_raises(self):
        with pytest.raises(mt.EmptyClassError, match="target"):
            mt.evaluate(records(nontarget=[0.1]))

    def test_no_impostors_raises(self):
        with pytest.raises(mt.EmptyClassError):
            mt.evaluate(records(target=[0.9]))

    @given(
        target=st.lists(finite_scores, min_size=1, max_size=30),
        nontarget=st.lists(finite_scores, min_size=1, max_size=30),
        spoof=st.lists(finite_scores, min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_union_is_concatenation_order_independent(self, target, nontarget, spoof):
        one, _ = mt.eer(target, nontarget + spoof)
        other, _ = mt.eer(target, spoof + nontarget)
        assert one == other
        rep = mt.evaluate(records(target, nontarget, spoof))
        assert rep.sasv_eer == one


class TestScoreRecord:
    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            mt.ScoreRecord("s", "u", 0.5, "genuine")

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            mt.ScoreRecord("s", "u", float("nan"), "target")

    @pytest.mark.parametrize("score", [np.float64("inf"), -math.inf])
    def test_infinite_score_names_the_trial(self, score):
        with pytest.raises(ValueError, match=r"^non-finite score for \(s, u\)$"):
            mt.ScoreRecord("s", "u", score, "target")

    @pytest.mark.parametrize("score", ["0.5", None])
    def test_non_number_score_raises_type_error(self, score):
        with pytest.raises(TypeError):
            mt.ScoreRecord("s", "u", score, "target")


class TestScoreSum:
    def test_zero(self):
        assert mt.score_sum_baseline(0.0, 0.0) == 0.0

    def test_addition(self):
        assert mt.score_sum_baseline(0.3, -0.1) == pytest.approx(0.2)

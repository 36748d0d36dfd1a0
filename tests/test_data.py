"""Loader/writer round-trips, malformed-file rejection, generator geometry."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvbackend import data as dio
from sasvbackend.metrics import ScoreRecord


class TestEmbeddingsIO:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("u1 1.0 0.0\nu2 0.0 1.0\n")
        emb = dio.load_embeddings(p)
        assert set(emb) == {"u1", "u2"}
        assert np.array_equal(emb["u1"], [1.0, 0.0])
        assert emb["u2"].dtype == np.float64

    def test_empty_file_is_valid(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("")
        assert dio.load_embeddings(p) == {}

    @given(values=st.lists(
        st.floats(-1e12, 1e12, allow_nan=False).map(float),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_exact(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("emb")
        original = {"utt": np.array(values, dtype=np.float64)}
        dio.save_embeddings(original, tmp / "e.txt")
        loaded = dio.load_embeddings(tmp / "e.txt")
        assert np.array_equal(loaded["utt"], original["utt"])
        dio.save_embeddings(loaded, tmp / "e2.txt")
        assert (tmp / "e.txt").read_bytes() == (tmp / "e2.txt").read_bytes()

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("u1 1.0 2.0\nu2 oops 2.0\n")
        with pytest.raises(dio.MalformedLineError, match=":2"):
            dio.load_embeddings(p)

    def test_inconsistent_dimension(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("u1 1.0 2.0\nu2 1.0\n")
        with pytest.raises(dio.DimensionMismatchError):
            dio.load_embeddings(p)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("u1 1.0\nu1 2.0\n")
        with pytest.raises(dio.DuplicateIdError):
            dio.load_embeddings(p)

    def test_id_only_line_rejected(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("u1\n")
        with pytest.raises(dio.MalformedLineError):
            dio.load_embeddings(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        p = tmp_path / "emb.txt"
        p.write_text(f"u1 1.0 2.0\nu2 0.5 {value}\n")
        with pytest.raises(dio.MalformedLineError, match=re.escape(f"{p}:2: non-finite")):
            dio.load_embeddings(p)


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        m = dio.DatasetManifest((
            dio.ManifestEntry("s1", "u1", True),
            dio.ManifestEntry("s1", "u2", False),
        ))
        dio.save_manifest(m, tmp_path / "m.tsv")
        loaded = dio.load_manifest(tmp_path / "m.tsv")
        assert loaded.utterances == m.utterances

    def test_bad_flag(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("s1\tu1\tgenuine\n")
        with pytest.raises(dio.BadLabelError):
            dio.load_manifest(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("s1\tu1\n")
        with pytest.raises(dio.MalformedLineError, match=":1"):
            dio.load_manifest(p)


class TestTrialsIO:
    def test_single_trial(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("spkA\te1,e2,e3\tu9\ttarget\n")
        trials = dio.load_trials(p)
        assert len(trials) == 1
        assert trials[0].enroll_ids == ("e1", "e2", "e3")
        assert trials[0].label == "target"

    def test_bad_label_token(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("spkA\te1\tu9\tgenuine\n")
        with pytest.raises(dio.BadLabelError, match="genuine"):
            dio.load_trials(p)

    def test_roundtrip(self, tmp_path):
        trials = [
            dio.Trial("spkA", ("e1", "e2"), "u1", "target"),
            dio.Trial("spkB", ("e3",), "u2", "spoof"),
        ]
        dio.save_trials(trials, tmp_path / "t.tsv")
        assert dio.load_trials(tmp_path / "t.tsv") == trials

    def test_resolution_lists_missing_ids(self):
        trials = [dio.Trial("s", ("e1", "e2"), "u1", "target")]
        asv = {"e1": np.ones(2)}
        cm = {}
        with pytest.raises(dio.UnresolvedIdError, match="e2"):
            dio.resolve_trials(trials, asv, cm)


class TestScoresIO:
    def test_roundtrip(self, tmp_path):
        records = [
            ScoreRecord("s1", "u1", 0.123456789012345678, "target"),
            ScoreRecord("s2", "u2", -3.5, "spoof"),
        ]
        dio.save_scores(records, tmp_path / "s.tsv")
        loaded = dio.load_scores(tmp_path / "s.tsv")
        assert loaded == records

    def test_bad_score(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("s\tu\tnot-a-number\ttarget\n")
        with pytest.raises(dio.MalformedLineError):
            dio.load_scores(p)

    @pytest.mark.parametrize("score", ["nan", "-inf", "1e999"])
    def test_non_finite_score_reports_line(self, tmp_path, score):
        p = tmp_path / "s.tsv"
        p.write_text(f"s\tu1\t0.5\ttarget\ns\tu2\t{score}\tspoof\n")
        with pytest.raises(dio.MalformedLineError, match=re.escape(f"{p}:2: non-finite")):
            dio.load_scores(p)


@pytest.mark.parametrize("loader, line", [
    (dio.load_embeddings, b"u1 1.0 2.0\n"),
    (dio.load_manifest, b"s1\tu1\tbonafide\n"),
    (dio.load_trials, b"s1\te1\tu1\ttarget\n"),
    (dio.load_scores, b"s1\tu1\t0.5\ttarget\n"),
], ids=["embeddings", "manifest", "trials", "scores"])
def test_non_utf8_byte_names_path(tmp_path, loader, line):
    p = tmp_path / "data.txt"
    p.write_bytes(line + b"\xff" + line)
    with pytest.raises(dio.MalformedLineError, match=re.escape(f"{p}: 'utf-8' codec")):
        loader(p)


class TestBuildRecords:
    def test_resolves_and_builds(self):
        manifest = dio.DatasetManifest((
            dio.ManifestEntry("s1", "u1", True),
            dio.ManifestEntry("s1", "u2", False),
        ))
        asv = {"u1": np.array([1.0, 0.0]), "u2": np.array([0.0, 1.0])}
        cm = {"u1": np.array([0.5]), "u2": np.array([-0.5])}
        records = dio.build_records(manifest, asv, cm)
        assert len(records) == 2
        assert records[0].bonafide and not records[1].bonafide

    def test_missing_embedding_named(self):
        manifest = dio.DatasetManifest((dio.ManifestEntry("s1", "u1", True),))
        with pytest.raises(dio.UnresolvedIdError, match="u1"):
            dio.build_records(manifest, {}, {"u1": np.ones(2)})


def small_config(**overrides):
    defaults = dict(
        train_speakers=4, dev_speakers=2, eval_speakers=3,
        bonafide_per_speaker=8, spoof_per_speaker=6,
        d_a=8, d_c=5, seed=123,
    )
    defaults.update(overrides)
    return dio.SynthConfig(**defaults)


class TestGenerateSynthetic:
    def test_deterministic_files(self, tmp_path):
        cfg = small_config()
        one = dio.generate_synthetic(cfg)
        two = dio.generate_synthetic(cfg)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        dio.write_synthetic(one, d1)
        dio.write_synthetic(two, d2)
        for name in dio.SYNTH_FILES:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_speaker_splits_disjoint(self):
        ds = dio.generate_synthetic(small_config())
        def speakers(trials):
            return {t.claimed_speaker for t in trials}
        train, dev, eval_ = map(speakers, (ds.trials_train, ds.trials_dev, ds.trials_eval))
        assert not train & dev and not train & eval_ and not dev & eval_
        manifest_speakers = {e.speaker_id for e in ds.manifest.utterances}
        assert manifest_speakers == train

    def test_asv_embeddings_unit_norm(self):
        ds = dio.generate_synthetic(small_config())
        for utt, v in ds.asv_embeddings.items():
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12, utt

    def test_trials_resolve_and_have_all_classes(self):
        ds = dio.generate_synthetic(small_config())
        for trials in (ds.trials_train, ds.trials_dev, ds.trials_eval):
            dio.resolve_trials(trials, ds.asv_embeddings, ds.cm_embeddings)
            labels = {t.label for t in trials}
            assert labels == {"target", "nontarget", "spoof"}
            for t in trials:
                assert len(t.enroll_ids) >= 5
                assert t.test_id not in t.enroll_ids

    def test_trial_counts(self):
        cfg = small_config()
        ds = dio.generate_synthetic(cfg)
        # targets are the clean (non-degraded) bona fide tests outside enrollment
        per_speaker_targets = sum(
            1 for j in range(dio.ENROLL_PER_SPEAKER, cfg.bonafide_per_speaker)
            if not dio._is_degraded(j)
        )
        n = cfg.eval_speakers
        targets = [t for t in ds.trials_eval if t.label == "target"]
        spoofs = [t for t in ds.trials_eval if t.label == "spoof"]
        nons = [t for t in ds.trials_eval if t.label == "nontarget"]
        assert len(targets) == n * per_speaker_targets
        assert len(spoofs) == n * cfg.spoof_per_speaker
        expected_non = min(max(1, cfg.spoof_per_speaker // 2), (n - 1) * per_speaker_targets)
        assert len(nons) == n * expected_non

    def test_spoof_trials_claim_their_own_speaker(self):
        ds = dio.generate_synthetic(small_config())
        for t in ds.trials_eval:
            if t.label == "spoof":
                assert t.test_id.startswith(t.claimed_speaker)
            if t.label == "nontarget":
                assert not t.test_id.startswith(t.claimed_speaker)

    def test_too_few_bonafide_rejected(self):
        with pytest.raises(dio.InsufficientDataError):
            dio.generate_synthetic(small_config(bonafide_per_speaker=5))

    def test_single_speaker_split_rejected(self):
        with pytest.raises(dio.InsufficientDataError):
            dio.generate_synthetic(small_config(dev_speakers=1))

    def test_identical_distributions_when_fidelity_one_separation_zero(self):
        # spoofs become statistically indistinguishable from bona fide
        cfg = small_config(spoof_speaker_fidelity=1.0, cm_separation=0.0,
                           bonafide_per_speaker=30, spoof_per_speaker=30)
        ds = dio.generate_synthetic(cfg)
        bona_cm = np.stack([v for u, v in ds.cm_embeddings.items() if "-b" in u])
        spoof_cm = np.stack([v for u, v in ds.cm_embeddings.items() if "-s" in u])
        # both classes are N(0, I); allow a few standard errors of the mean
        se = 1.0 / np.sqrt(bona_cm.shape[0])
        assert np.all(np.abs(bona_cm.mean(axis=0) - spoof_cm.mean(axis=0)) < 6 * se)

    def test_write_synthetic_creates_six_files(self, tmp_path):
        ds = dio.generate_synthetic(small_config())
        paths = dio.write_synthetic(ds, tmp_path / "out")
        assert len(paths) == 6
        for p in paths:
            assert p.exists() and p.stat().st_size > 0
        listed = sorted(x.name for x in (tmp_path / "out").iterdir())
        assert listed == sorted(dio.SYNTH_FILES)


class TestGeometryOracles:
    def test_degenerate_geometry_kills_spoof_detection(self):
        # with perfect imitation and no CM separation, spoofed and bona-fide
        # test distributions coincide, so target-vs-spoof discrimination is
        # chance for any scorer (here: the bayes score of the nominal model)
        cfg = dio.SynthConfig(
            train_speakers=2, dev_speakers=2, eval_speakers=10,
            bonafide_per_speaker=55, spoof_per_speaker=50,
            d_a=24, d_c=8, spoof_speaker_fidelity=1.0, cm_separation=0.0,
            seed=5,
        )
        ds = dio.generate_synthetic(cfg)
        from sasvbackend.metrics import eer
        enrolled = {}
        for t in ds.trials_eval:
            enrolled.setdefault(t.claimed_speaker, t.enroll_ids)
        scores = {"target": [], "spoof": []}
        for t in ds.trials_eval:
            if t.label == "nontarget":
                continue
            h = np.mean([ds.asv_embeddings[e] for e in t.enroll_ids], axis=0)
            q = ds.asv_embeddings[t.test_id]
            cos = float(q @ h / (np.linalg.norm(q) * np.linalg.norm(h)))
            cm = float(ds.cm_embeddings[t.test_id][0])
            scores[t.label].append(cos + cm)
        spf_eer, _ = eer(scores["target"], scores["spoof"])
        assert abs(spf_eer - 0.5) <= 0.05

    def test_separable_cm_reaches_low_spf_eer(self):
        # cm_separation of 8 noise units: the bayes-optimal linear classifier
        # (projection on the class-mean difference) nearly separates classes
        cfg = dio.SynthConfig(
            train_speakers=2, dev_speakers=2, eval_speakers=25,
            bonafide_per_speaker=105, spoof_per_speaker=100,
            d_a=16, d_c=12, cm_separation=8.0, seed=6,
        )
        ds = dio.generate_synthetic(cfg)
        from sasvbackend.metrics import eer
        target, spoof = [], []
        for t in ds.trials_eval:
            if t.label == "nontarget":
                continue
            (target if t.label == "target" else spoof).append(
                float(ds.cm_embeddings[t.test_id][0])
            )
        assert len(target) + len(spoof) >= 3000
        spf_eer, _ = eer(target, spoof)
        assert spf_eer < 0.005

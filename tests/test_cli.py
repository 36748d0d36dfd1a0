"""End-to-end CLI tests: subcommands, exit codes, config files."""

import contextlib
import dataclasses
import io
import re
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from test_gradcheck import UPSTREAM_OF_TANH, tanh_grad_scaled

from sasvbackend import backend as bk
from sasvbackend import cli
from sasvbackend import data as dio
from sasvbackend import training
from sasvbackend.backend import BackendParams, ZeroNormError
from sasvbackend.training import EpochLog, TrainConfig

SYNTH_SMALL = [
    "--train-speakers", "4", "--dev-speakers", "2", "--eval-speakers", "2",
    "--bonafide-per-speaker", "8", "--spoof-per-speaker", "6",
    "--asv-dim", "8", "--cm-dim", "5",
]

TRAIN_SMALL = [
    "--epochs", "1", "--learning-rate", "0.05", "--speakers-per-batch", "3",
    "--utterances-per-speaker", "4", "--hidden-dim", "4", "--top-n", "10",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["synth", "--out", str(out), "--seed", "7", *SYNTH_SMALL]) == 0
    return out


def data_args(corpus):
    return [
        "--asv-embeddings", str(corpus / "asv_embeddings.txt"),
        "--cm-embeddings", str(corpus / "cm_embeddings.txt"),
    ]


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = cli.main([
        "train", "--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
        "--out", str(out), "--seed", "1", *TRAIN_SMALL,
    ])
    assert code == 0
    return out


class TestSynth:
    def test_creates_six_files(self, corpus):
        names = sorted(p.name for p in corpus.iterdir())
        assert names == sorted(dio.SYNTH_FILES)

    def test_rerun_identical(self, corpus, tmp_path):
        other = tmp_path / "again"
        assert cli.main(["synth", "--out", str(other), "--seed", "7", *SYNTH_SMALL]) == 0
        for name in dio.SYNTH_FILES:
            assert (corpus / name).read_bytes() == (other / name).read_bytes(), name

    def test_unwritable_directory_exits_2(self, tmp_path, capsys):
        # a regular file in the parent slot makes the directory uncreatable
        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")
        code = cli.main(["synth", "--out", str(blocked / "sub"), *SYNTH_SMALL])
        assert code == 2
        assert "blocked" in capsys.readouterr().err


class TestTrain:
    def test_writes_checkpoints_and_log(self, trained):
        assert (trained / "epoch_001.ckpt").exists()
        assert (trained / "final.ckpt").exists()
        assert (trained / "train.log").read_text().count("\n") == 1

    def test_dev_trials_logged(self, corpus, tmp_path):
        out = tmp_path / "run"
        code = cli.main([
            "train", "--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
            "--out", str(out), "--seed", "1", *TRAIN_SMALL,
            "--dev-trials", str(corpus / "trials_dev.tsv"),
        ])
        assert code == 0
        line = (out / "train.log").read_text().splitlines()[0]
        assert len(line.split("\t")) == 6

    @pytest.mark.parametrize("dev", [False, True])
    def test_training_runs_without_the_loaded_embedding_maps(self, corpus, tmp_path,
                                                             monkeypatch, dev):
        """The pool holds its own copy of the training vectors, so the maps
        read from the files are freed before training; a dev bundle keeps
        copies of only the vectors its trials reference."""
        loaded, seen = [], {}
        load = dio.load_embeddings

        def tracked_load(path):
            embeddings = load(path)
            base = next(iter(embeddings.values())).base  # the C reader's matrix
            assert base is not None
            loaded.append(weakref.ref(base))
            return embeddings

        def stub_train(pool, config, out_dir, dev_bundle=None):
            seen["alive"] = [ref() is not None for ref in loaded]
            seen["bundle"] = dev_bundle
            return [EpochLog(1, config.learning_rate, 0.5)]
        monkeypatch.setattr(dio, "load_embeddings", tracked_load)
        monkeypatch.setattr(cli, "train", stub_train)
        dev_args = ["--dev-trials", str(corpus / "trials_dev.tsv")] if dev else []
        assert cli.main(["train", "--manifest", str(corpus / "manifest.tsv"),
                         *data_args(corpus), "--out", str(tmp_path / "run"), *TRAIN_SMALL,
                         *dev_args]) == 0
        assert seen["alive"] == [False, False]
        if not dev:
            assert seen["bundle"] is None
            return
        trials, asv, cm = seen["bundle"]
        tests = {t.test_id for t in trials}
        assert set(asv) == tests | {e for t in trials for e in t.enroll_ids}
        assert set(cm) == tests
        assert len(asv) < len(load(corpus / "asv_embeddings.txt"))
        for embeddings, name in ((asv, "asv_embeddings.txt"), (cm, "cm_embeddings.txt")):
            full = load(corpus / name)
            for utt, values in embeddings.items():
                assert values.tobytes() == full[utt].tobytes(), utt

    @pytest.mark.parametrize("utt, message", [
        ("trn001-b002", "ASV embedding 'trn001-b002'"),  # a manifest entry
        ("dev000-b000", "the enrollment ASV embedding of 'dev000-b000'"),  # a dev enrollment
    ])
    def test_zero_asv_vector_exits_2_naming_file_before_training(self, corpus, tmp_path,
                                                                 capsys, utt, message):
        asv_map = dio.load_embeddings(corpus / "asv_embeddings.txt")
        asv_map[utt] = asv_map[utt] * 0.0
        bad = tmp_path / "asv_embeddings.txt"
        dio.save_embeddings(asv_map, bad)
        out = tmp_path / "run"
        code = cli.main([
            "train", "--manifest", str(corpus / "manifest.tsv"), "--asv-embeddings", str(bad),
            "--cm-embeddings", str(corpus / "cm_embeddings.txt"), "--out", str(out),
            "--seed", "1", *TRAIN_SMALL, "--dev-trials", str(corpus / "trials_dev.tsv"),
        ])
        assert code == 2
        assert f"error: {bad}: {message} is a zero vector" in capsys.readouterr().err
        assert not out.exists()  # no epoch ran

    @pytest.mark.parametrize("kept, message", [
        (("nontarget", "spoof"), "no target trials"),
        (("target",), "no impostor trials of any class"),
    ])
    def test_dev_trials_without_a_class_exit_5_naming_file_before_training(
            self, corpus, tmp_path, capsys, kept, message):
        trials = [t for t in dio.load_trials(corpus / "trials_dev.tsv") if t.label in kept]
        bad = tmp_path / "trials_dev.tsv"
        dio.save_trials(trials, bad)
        out = tmp_path / "run"
        code = cli.main([
            "train", "--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
            "--out", str(out), "--seed", "1", *TRAIN_SMALL, "--dev-trials", str(bad),
        ])
        assert code == 5
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not out.exists()  # no epoch ran, no train.log left behind

    @pytest.mark.parametrize("flag, value, code, message", [
        ("--utterances-per-speaker", "5", 2, "k must be positive and even, got 5"),
        ("--utterances-per-speaker", "2", 3, "k must be at least 4"),
        ("--speakers-per-batch", "1", 2, "m must be at least 2, got 1"),
        ("--speakers-per-batch", "9", 3, "need 9 speakers"),  # the corpus has 4
    ], ids=["odd-k", "k-2", "m-1", "m-over-pool"])
    def test_bad_batch_layout_exits_before_writing(self, corpus, tmp_path, capsys,
                                                   flag, value, code, message):
        out = tmp_path / "run"
        assert cli.main([
            "train", "--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
            "--out", str(out), "--seed", "1", *TRAIN_SMALL, flag, value,
        ]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()  # no directory, no empty train.log

    def test_diverged_attention_run_exits_3(self, corpus, tmp_path, capsys, monkeypatch):
        step = training.sgd_step

        def poisoned(params, *args, **kwargs):
            step(params, *args, **kwargs)
            params.Wq.value[0, 0] = np.nan  # every pooled vector turns NaN
        monkeypatch.setattr(training, "sgd_step", poisoned)
        assert cli.main([
            "train", "--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
            "--out", str(tmp_path / "run"), "--seed", "1", *TRAIN_SMALL,
        ]) == 3
        assert "error: non-finite loss epoch=1 batch=2\n" in capsys.readouterr().err

    def test_pool_exhausted_exits_3(self, corpus, tmp_path, capsys):
        code = cli.main([
            "train", "--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
            "--out", str(tmp_path / "x"), "--speakers-per-batch", "50",
            "--utterances-per-speaker", "4", "--epochs", "1",
        ])
        assert code == 3
        assert "speakers" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_no_option_selects_another_selection_policy(self, corpus, tmp_path, capsys,
                                                      source):
        """Every run keeps all positives plus the top-N hardest negatives;
        asking for a selection policy by flag or config key exits 2 before
        anything is written."""
        out = tmp_path / "run"
        argv = ["train", "--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
                "--out", str(out), *TRAIN_SMALL]
        if source == "flag":
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--hard-selection", "negatives_only"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --hard-selection negatives_only" \
                in capsys.readouterr().err
        else:
            cfg = tmp_path / "train.cfg"
            cfg.write_text("hard-selection=negatives_only\n")
            assert cli.main([*argv, "--config", str(cfg)]) == 2
            assert re.search(f"^error: {re.escape(str(cfg))}: unknown config keys: "
                             "hard.selection$", capsys.readouterr().err, re.M)
        assert not out.exists()


class TestNonPositiveDimensions:
    @pytest.mark.parametrize("command, flags, config, name", [
        ("train", ["--hidden-dim", "0"], None, "hidden_dim"),
        ("train", ["--hidden-dim", "-2"], None, "hidden_dim"),
        ("train", [], "hidden_dim=0\n", "hidden_dim"),
        ("gradcheck", ["--hidden-dim", "0"], None, "hidden_dim"),
        ("gradcheck", ["--asv-dim", "0"], None, "d_a"),
        ("gradcheck", ["--cm-dim", "0"], None, "d_c"),
    ], ids=["train-zero", "train-negative", "train-config", "gradcheck-hidden",
            "gradcheck-asv", "gradcheck-cm"])
    def test_exits_2_naming_the_dimension(self, corpus, tmp_path, capsys,
                                          command, flags, config, name):
        argv = [command, *flags]
        if command == "train":
            argv += ["--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
                     "--out", str(tmp_path / "run"), *TRAIN_SMALL[:-4]]  # no --hidden-dim
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and f"{name} must be at least 1" in err

    def test_zero_vector_outside_train_and_score_names_no_path(self, monkeypatch, capsys):
        def zero_vector(**kwargs):
            raise ZeroNormError("ASV embedding 'g0-0' is a zero vector")
        monkeypatch.setattr(cli, "gradient_check", zero_vector)
        assert cli.main(["gradcheck"]) == 2
        assert capsys.readouterr().err == "error: ASV embedding 'g0-0' is a zero vector\n"


class TestScore:
    def test_one_line_per_trial(self, corpus, trained, tmp_path):
        out = tmp_path / "scores.tsv"
        code = cli.main([
            "score", "--checkpoint", str(trained / "final.ckpt"),
            "--trials", str(corpus / "trials_eval.tsv"), *data_args(corpus),
            "--out", str(out),
        ])
        assert code == 0
        n_trials = len(dio.load_trials(corpus / "trials_eval.tsv"))
        assert len(out.read_text().splitlines()) == n_trials

    def test_asv_only_ignores_cm_embeddings(self, corpus, trained, tmp_path):
        cm_map = dio.load_embeddings(corpus / "cm_embeddings.txt")
        scrambled = {u: v + 100.0 for u, v in cm_map.items()}
        alt_cm = tmp_path / "cm_alt.txt"
        dio.save_embeddings(scrambled, alt_cm)
        outs = []
        for cm_file in (corpus / "cm_embeddings.txt", alt_cm):
            out = tmp_path / f"s{len(outs)}.tsv"
            code = cli.main([
                "score", "--checkpoint", str(trained / "final.ckpt"),
                "--trials", str(corpus / "trials_eval.tsv"),
                "--asv-embeddings", str(corpus / "asv_embeddings.txt"),
                "--cm-embeddings", str(cm_file),
                "--scorer", "asv_only", "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("scorer", ["asv_only", "fused"])
    @pytest.mark.parametrize("kind, value", [("cm", "nan"), ("asv", "inf")])
    def test_non_finite_embedding_exits_2_naming_line(self, corpus, trained, tmp_path,
                                                       capsys, scorer, kind, value):
        # an eval test's CM embedding, or the first enrollment entry's ASV one
        utt = "evl000-b005" if kind == "cm" else "evl000-b000"
        lines = (corpus / f"{kind}_embeddings.txt").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(utt + " "))
        lines[row] = f"{utt} {value} " + lines[row].split(" ", 2)[2]
        bad = tmp_path / f"{kind}_embeddings.txt"
        bad.write_text("\n".join(lines) + "\n")
        files = {"asv": corpus / "asv_embeddings.txt", "cm": corpus / "cm_embeddings.txt",
                 kind: bad}
        code = cli.main([
            "score", "--checkpoint", str(trained / "final.ckpt"),
            "--trials", str(corpus / "trials_eval.tsv"), "--asv-embeddings", str(files["asv"]),
            "--cm-embeddings", str(files["cm"]), "--scorer", scorer,
            "--out", str(tmp_path / "s.tsv"),
        ])
        assert code == 2
        assert f"{bad}:{row + 1}: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("role, utt", [("enrollment", "evl000-b000"),
                                           ("test", "evl000-b005")])
    def test_zero_asv_vector_exits_2_naming_utterance_and_file(self, corpus, trained, tmp_path,
                                                               capsys, role, utt):
        asv_map = dio.load_embeddings(corpus / "asv_embeddings.txt")
        asv_map[utt] = asv_map[utt] * 0.0
        bad = tmp_path / "asv_embeddings.txt"
        dio.save_embeddings(asv_map, bad)
        code = cli.main([
            "score", "--checkpoint", str(trained / "final.ckpt"),
            "--trials", str(corpus / "trials_eval.tsv"), "--asv-embeddings", str(bad),
            "--cm-embeddings", str(corpus / "cm_embeddings.txt"),
            "--out", str(tmp_path / "s.tsv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: the {role} ASV embedding of {utt!r} is a zero vector" in err

    @pytest.mark.parametrize("kind, name, dim", [("asv", "ASV", 8), ("cm", "CM", 5)])
    def test_checkpoint_dimension_mismatch_exits_2_naming_both_files(
            self, corpus, trained, tmp_path, capsys, kind, name, dim):
        embeddings = dio.load_embeddings(corpus / f"{kind}_embeddings.txt")
        bad = tmp_path / f"{kind}_embeddings.txt"
        dio.save_embeddings({u: v[:dim - 2] for u, v in embeddings.items()}, bad)
        files = {"asv": corpus / "asv_embeddings.txt", "cm": corpus / "cm_embeddings.txt",
                 kind: bad}
        checkpoint = trained / "final.ckpt"
        code = cli.main([
            "score", "--checkpoint", str(checkpoint),
            "--trials", str(corpus / "trials_eval.tsv"), "--asv-embeddings", str(files["asv"]),
            "--cm-embeddings", str(files["cm"]), "--out", str(tmp_path / "s.tsv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {checkpoint}: {name} dimension {dim} differs from {dim - 2} in {bad}" \
            in err
        assert not (tmp_path / "s.tsv").exists()

    def test_unresolved_ids_exit_4(self, corpus, trained, tmp_path, capsys):
        bad = tmp_path / "bad_trials.tsv"
        bad.write_text("ghost\tnope1,nope2\tmissing\ttarget\n")
        code = cli.main([
            "score", "--checkpoint", str(trained / "final.ckpt"),
            "--trials", str(bad), *data_args(corpus),
            "--out", str(tmp_path / "s.tsv"),
        ])
        assert code == 4
        assert "nope1" in capsys.readouterr().err


def score_with(checkpoint, corpus, out, *flags):
    return cli.main([
        "score", "--checkpoint", str(checkpoint),
        "--trials", str(corpus / "trials_eval.tsv"), *data_args(corpus), "--out", str(out),
        *flags,
    ])


@pytest.fixture(scope="module")
def trained_average(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_average")
    code = cli.main([
        "train", "--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
        "--out", str(out), "--seed", "1", "--pooling", "average", *TRAIN_SMALL,
    ])
    assert code == 0
    return out


def version_1_copy(checkpoint, path):
    """The same weights in a version-1 file, which records no pooling mode."""
    params = BackendParams.load(checkpoint)
    params.pooling = None
    params.save(path)
    assert path.read_bytes()[8:12] == (1).to_bytes(4, "little")
    return path


class TestCheckpointPooling:
    def test_version_2_scores_with_its_recorded_mode(self, corpus, trained_average, tmp_path):
        ckpt = trained_average / "final.ckpt"
        assert ckpt.read_bytes()[8:12] == (2).to_bytes(4, "little")
        assert BackendParams.load(ckpt).pooling == "average"
        assert score_with(ckpt, corpus, tmp_path / "implicit.tsv") == 0
        assert score_with(ckpt, corpus, tmp_path / "explicit.tsv", "--pooling", "average") == 0
        implicit = (tmp_path / "implicit.tsv").read_bytes()
        assert implicit == (tmp_path / "explicit.tsv").read_bytes()
        # attention pooling of the same weights scores differently
        v1 = version_1_copy(ckpt, tmp_path / "v1.ckpt")
        assert score_with(v1, corpus, tmp_path / "attention.tsv") == 0
        assert implicit != (tmp_path / "attention.tsv").read_bytes()

    def test_version_1_keeps_the_flag(self, corpus, trained_average, tmp_path):
        ckpt = trained_average / "final.ckpt"
        v1 = version_1_copy(ckpt, tmp_path / "v1.ckpt")
        assert BackendParams.load(v1).pooling is None
        for flags, name in (((), "default"), (("--pooling", "attention"), "attention"),
                            (("--pooling", "average"), "average")):
            assert score_with(v1, corpus, tmp_path / f"{name}.tsv", *flags) == 0
        assert score_with(ckpt, corpus, tmp_path / "v2.tsv") == 0
        scores = {name: (tmp_path / f"{name}.tsv").read_bytes()
                  for name in ("default", "attention", "average", "v2")}
        assert scores["default"] == scores["attention"] != scores["average"] == scores["v2"]

    @pytest.mark.parametrize("trained_with, flag", [("average", "attention"),
                                                    ("attention", "average")])
    def test_disagreeing_pooling_flag_exits_2_naming_checkpoint(
            self, corpus, trained, trained_average, tmp_path, capsys, trained_with, flag):
        ckpt = (trained_average if trained_with == "average" else trained) / "final.ckpt"
        out = tmp_path / "s.tsv"
        assert score_with(ckpt, corpus, out, "--pooling", flag) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and trained_with in err and flag in err
        assert not out.exists()


class TestCorruptCheckpoint:
    def test_truncated_exits_2(self, corpus, trained, tmp_path, capsys):
        good = (trained / "final.ckpt").read_bytes()
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(good[:len(good) // 2])
        assert score_with(bad, corpus, tmp_path / "s.tsv") == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "truncated" in err

    def test_renamed_parameter_exits_2(self, corpus, trained, tmp_path, capsys):
        good = (trained / "final.ckpt").read_bytes()
        bad = tmp_path / "renamed.ckpt"
        bad.write_bytes(good.replace(b"w_cm", b"w_xx", 1))
        assert score_with(bad, corpus, tmp_path / "s.tsv") == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "w_xx" in err


def command_reading(role, files, out_dir):
    """The command that reads the input file files[role]."""
    if role == "manifest":
        return ["train", "--manifest", files["manifest"], "--asv-embeddings", files["asv"],
                "--cm-embeddings", files["cm"], "--out", out_dir, *TRAIN_SMALL]
    if role == "scores":
        return ["evaluate", "--scores", files["scores"]]
    return ["score", "--checkpoint", files["checkpoint"], "--trials", files["trials"],
            "--asv-embeddings", files["asv"], "--cm-embeddings", files["cm"],
            "--config", files["config"], "--out", out_dir / "scores.tsv"]


# exit codes each input may end with besides 0: a file-format problem (2),
# and what a valid but altered file can cause: a pool too small to train
# (3), ids without embeddings (4) and a score file without targets (5)
MUTATION_EXITS = {
    "checkpoint": {2}, "config": {2}, "trials": {2, 4}, "asv": {2, 4}, "cm": {2, 4},
    "manifest": {2, 3, 4}, "scores": {2, 5},
}


@pytest.fixture(scope="module")
def inputs(corpus, trained, tmp_path_factory):
    """Every kind of input file the CLI reads, by role."""
    run = tmp_path_factory.mktemp("inputs")
    files = {
        "checkpoint": trained / "final.ckpt", "trials": corpus / "trials_eval.tsv",
        "asv": corpus / "asv_embeddings.txt", "cm": corpus / "cm_embeddings.txt",
        "manifest": corpus / "manifest.tsv", "config": run / "score.cfg",
        "scores": run / "scores.tsv",
    }
    files["config"].write_text("# score options\nscorer=fused\npooling=attention\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in command_reading("checkpoint", files, run)]) == 0
    return files


class TestMutatedInputs:
    @given(role=st.sampled_from(sorted(MUTATION_EXITS)),
           edits=st.lists(st.tuples(st.sampled_from(["set", "cut", "insert"]),
                                    st.floats(0, 1, exclude_max=True),
                                    st.integers(0, 255)), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_mutated_bytes_exit_with_documented_code(self, inputs, role, edits):
        data = bytearray(inputs[role].read_bytes())
        for kind, where, byte in edits:
            at = int(where * len(data)) if data else 0
            if kind == "set" and data:
                data[at] = byte
            elif kind == "cut":
                del data[at:]
            else:
                data[at:at] = bytes([byte])
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / inputs[role].name
            bad.write_bytes(bytes(data))
            argv = command_reading(role, {**inputs, role: bad}, Path(tmp))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
        event(f"{role} exit {code}")
        assert code in {0} | MUTATION_EXITS[role], err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert str(bad) in err.getvalue()


class TestEvaluate:
    def write_scores(self, path, rows):
        path.write_text("".join(f"s\tu{i}\t{score}\t{label}\n"
                                for i, (score, label) in enumerate(rows)))

    def test_perfect_separation_prints_zeros(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        self.write_scores(scores, [(0.9, "target"), (0.95, "target"),
                                   (0.1, "nontarget"), (0.2, "spoof")])
        assert cli.main(["evaluate", "--scores", str(scores)]) == 0
        assert capsys.readouterr().out.strip() == "0.00 0.00 0.00"

    def test_missing_spoof_reported_absent(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        self.write_scores(scores, [(0.9, "target"), (0.1, "nontarget")])
        assert cli.main(["evaluate", "--scores", str(scores)]) == 0
        assert capsys.readouterr().out.strip() == "0.00 absent 0.00"

    def test_no_targets_exit_5(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        self.write_scores(scores, [(0.1, "nontarget")])
        assert cli.main(["evaluate", "--scores", str(scores)]) == 5
        assert capsys.readouterr().err == f"error: {scores}: no target trials\n"

    def test_no_impostors_exit_5_naming_the_file(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        self.write_scores(scores, [(0.9, "target")])
        assert cli.main(["evaluate", "--scores", str(scores)]) == 5
        assert capsys.readouterr().err == f"error: {scores}: no impostor trials of any class\n"

    def test_key_value_report(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        self.write_scores(scores, [(0.9, "target"), (0.1, "nontarget"), (0.5, "spoof")])
        report = tmp_path / "report.txt"
        assert cli.main(["evaluate", "--scores", str(scores), "--out", str(report)]) == 0
        text = report.read_text()
        assert "sv_eer=0.0" in text
        assert "n_target=1" in text
        capsys.readouterr()


class TestGradcheck:
    def test_default_dims_pass(self, capsys):
        assert cli.main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Wq" in out and "ok" in out

    def test_failure_exit_code_structure(self, capsys):
        # a passing run lists every parameter group's error; the failing
        # exit is checked by test_failed_check_exits_6_naming_the_worst_group
        assert cli.main(["gradcheck", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        groups = {l.split("\t")[0] for l in lines if "\t" in l}
        assert {"Wq", "Wk", "Wv", "Wf", "bf", "vf", "a", "b",
                "w_cm", "b_cm", "w1", "w2", "v"} <= groups

    def test_round_off_does_not_fail_seed_141(self, capsys):
        # a plain central difference at step 1e-5 put Wk's error at 1.28e-4
        assert cli.main(["gradcheck", "--seed", "141"]) == 0
        assert capsys.readouterr().out.endswith("ok: all gradients within 1e-04\n")

    @pytest.mark.parametrize("flags, code, message", [
        (["--speakers", "0"], 2, "m must be at least 2, got 0"),
        (["--speakers", "-1"], 2, "m must be at least 2, got -1"),
        (["--utterances", "-2"], 2, "k must be positive and even, got -2"),
        (["--utterances", "0"], 2, "k must be positive and even, got 0"),
        (["--utterances", "2"], 3, "k must be at least 4"),
    ], ids=["speakers-0", "speakers-negative", "utterances-negative", "utterances-0",
            "utterances-2"])
    def test_bad_layout_exits_like_train(self, capsys, flags, code, message):
        assert cli.main(["gradcheck", *flags]) == code
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and message in out.err

    def test_failed_check_exits_6_naming_the_worst_group(self, monkeypatch, capsys):
        monkeypatch.setattr(bk, "tanh_grad", tanh_grad_scaled(-1.0))
        assert cli.main(["gradcheck", "--seed", "0"]) == 6
        out = capsys.readouterr()
        assert "ok:" not in out.out
        name, err, limit = re.fullmatch(r"FAILED: (\w+) relative error (\S+) exceeds (\S+)\n",
                                        out.err).groups()
        assert name in UPSTREAM_OF_TANH and float(err) > 1e-4 and limit == "1e-04"


class TestTrainDefaults:
    def test_defaults_match_corpus_scale_recipe(self):
        # lr 1e-4, momentum 0.9, weight decay 1e-5, 0.95 decay per epoch,
        # 40 epochs, top-100 hard negatives, 16 speakers x (5+5) utterances
        parser = cli.build_parser()
        args = parser.parse_args([
            "train", "--manifest", "m", "--asv-embeddings", "a",
            "--cm-embeddings", "c", "--out", "o",
        ])
        assert args.learning_rate == 1e-4
        assert args.momentum == 0.9
        assert args.weight_decay == 1e-5
        assert args.lr_decay == 0.95
        assert args.epochs == 40
        assert args.top_n == 100
        assert args.speakers_per_batch == 16
        assert args.utterances_per_speaker == 10
        assert args.pooling == "attention"

    # options named differently from their config field
    RENAMED = {"d_a": "asv_dim", "d_c": "cm_dim", "spoof_speaker_fidelity": "spoof_fidelity",
               "lr_decay_per_epoch": "lr_decay", "hard_negative_top_n": "top_n"}

    @pytest.mark.parametrize("argv, config", [
        (["synth", "--out", "o"], dio.SynthConfig()),
        (["train", "--manifest", "m", "--asv-embeddings", "a", "--cm-embeddings", "c",
          "--out", "o"], TrainConfig()),
    ], ids=["synth", "train"])
    def test_every_default_is_its_config_field(self, argv, config):
        args = vars(cli.build_parser().parse_args(argv))
        for field in dataclasses.fields(config):
            value = args[self.RENAMED.get(field.name, field.name)]
            assert value == getattr(config, field.name), field.name
            assert type(value) is type(getattr(config, field.name)), field.name


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train-speakers=3\ndev-speakers=2\neval-speakers=2\n"
                       "bonafide-per-speaker=8\nspoof-per-speaker=6\n"
                       "asv-dim=8\ncm-dim=5\nseed=9\n")
        out1 = tmp_path / "a"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out1)]) == 0
        manifest = dio.load_manifest(out1 / "manifest.tsv")
        assert len({e.speaker_id for e in manifest.utterances}) == 3
        # explicit flag beats the config value
        out2 = tmp_path / "b"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out2),
                         "--train-speakers", "5"]) == 0
        manifest2 = dio.load_manifest(out2 / "manifest.tsv")
        assert len({e.speaker_id for e in manifest2.utterances}) == 5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("not-a-real-option=3\n")
        code = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "not_a_real_option" in capsys.readouterr().err

    def test_equals_form_also_read(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train-speakers=3\ndev-speakers=2\neval-speakers=2\n"
                       "bonafide-per-speaker=8\nspoof-per-speaker=6\n"
                       "asv-dim=8\ncm-dim=5\n")
        out = tmp_path / "eq"
        assert cli.main(["synth", f"--config={cfg}", "--out", str(out)]) == 0
        manifest = dio.load_manifest(out / "manifest.tsv")
        assert len({e.speaker_id for e in manifest.utterances}) == 3

    def test_abbreviated_flag_also_read(self, tmp_path):
        # argparse accepts --conf for --config, so the file must be read too
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train-speakers=3\ndev-speakers=2\neval-speakers=2\n"
                       "bonafide-per-speaker=8\nspoof-per-speaker=6\n"
                       "asv-dim=8\ncm-dim=5\n")
        out = tmp_path / "abbrev"
        assert cli.main(["synth", "--conf", str(cfg), "--out", str(out)]) == 0
        manifest = dio.load_manifest(out / "manifest.tsv")
        assert len({e.speaker_id for e in manifest.utterances}) == 3

    def test_train_paths_only_from_the_file(self, corpus, trained, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"manifest={corpus / 'manifest.tsv'}\n"
                       f"asv-embeddings={corpus / 'asv_embeddings.txt'}\n"
                       f"cm-embeddings={corpus / 'cm_embeddings.txt'}\nout={out}\n")
        assert cli.main(["train", "--config", str(cfg), "--seed", "1", *TRAIN_SMALL]) == 0
        # the same run as the fixture's, which passed every path as a flag
        assert (out / "final.ckpt").read_bytes() == (trained / "final.ckpt").read_bytes()

    def test_score_paths_only_from_the_file_flags_win(self, corpus, trained, tmp_path):
        paths = {"checkpoint": trained / "final.ckpt", "trials": corpus / "trials_eval.tsv",
                 "asv-embeddings": corpus / "asv_embeddings.txt",
                 "cm-embeddings": corpus / "cm_embeddings.txt"}
        by_flags = tmp_path / "flags.tsv"
        assert cli.main(["score", *[str(a) for key, path in paths.items()
                                    for a in ("--" + key, path)], "--out", str(by_flags)]) == 0
        cfg = tmp_path / "score.cfg"
        cfg.write_text("".join(f"{key}={path}\n" for key, path in paths.items())
                       + f"out={tmp_path / 'file.tsv'}\n")
        assert cli.main(["score", f"--config={cfg}"]) == 0
        assert (tmp_path / "file.tsv").read_bytes() == by_flags.read_bytes()
        # an explicit flag still beats the file for a required option
        assert cli.main(["score", "--conf", str(cfg), "--out", str(tmp_path / "flag.tsv")]) == 0
        assert (tmp_path / "flag.tsv").read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_option_in_neither_flags_nor_file_exits_2_naming_it(self, tmp_path, capsys,
                                                                command):
        given = {"train": "manifest=m\nasv-embeddings=a\ncm-embeddings=c\n",
                 "score": "checkpoint=k\ntrials=t\nasv-embeddings=a\ncm-embeddings=c\n"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(given[command])
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: the following arguments are required: --out")

    @pytest.mark.parametrize("text, where", [
        ("train-speakers=3\nseed=abc\n", ":2: seed: invalid literal"),
        ("asv-dim=8\nspoof-fidelity=high\n", ":2: spoof_fidelity: could not convert"),
        ("seed=1\xff\n", ": 'utf-8' codec can't decode"),
        ("asv-noise=0.1\ncm-separation=-inf\n", ":2: cm_separation: '-inf' is not a finite"),
    ], ids=["int", "float", "encoding", "non-finite"])
    def test_bad_value_names_path_and_line(self, tmp_path, capsys, text, where):
        cfg = tmp_path / "synth.cfg"
        cfg.write_bytes(text.encode("latin-1"))
        code = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{cfg}{where}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--asv-noise", "nan"),
        ("synth", "--cm-separation", "inf"),
        ("train", "--learning-rate", "nan"),
        ("train", "--learning-rate", "inf"),
        ("train", "--momentum", "nan"),
        ("train", "--weight-decay", "NaN"),
        ("train", "--lr-decay", "inf"),
    ])
    def test_non_finite_flag_exits_2_naming_it(self, tmp_path, capsys, command, flag, value):
        required = ["--manifest", "m", "--asv-embeddings", "a", "--cm-embeddings", "c"]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *(required if command == "train" else []),
                      "--out", str(tmp_path / "x"), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid finite_float value: '{value}'" \
            in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, value", [("synth", "-1"), ("train", "-3"),
                                                ("gradcheck", "-2")])
    def test_negative_seed_exits_2_naming_it(self, corpus, tmp_path, capsys, command, value):
        argv = [command, "--seed", value]
        if command == "train":
            argv += ["--manifest", str(corpus / "manifest.tsv"), *data_args(corpus),
                     *TRAIN_SMALL]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: seed must be at least 0, got {value}\n"
        assert not (tmp_path / "x").exists()

    def test_bad_choice_names_path_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=1\npooling=max\n")
        code = cli.main(["train", "--config", str(cfg), "--manifest", "m",
                         "--asv-embeddings", "a", "--cm-embeddings", "c",
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{cfg}:2: pooling: 'max' is not one of attention, average" \
            in capsys.readouterr().err

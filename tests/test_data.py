"""Loader/writer round-trips, malformed-file rejection, generator geometry."""

import math
import os
import re
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvbackend import cli
from sasvbackend import data as dio
from sasvbackend.metrics import ScoreRecord

from oracles import load_embeddings_by_line


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

    def test_saved_bytes_are_per_element_repr(self, tmp_path):
        vectors = {"u1": np.array([-0.0, 5e-324, 1e308, 0.1]), "u2": np.array([0.1, -1e308])}
        dio.save_embeddings(vectors, tmp_path / "e.txt")
        expected = "".join(u + " " + " ".join(repr(float(x)) for x in v) + "\n"
                           for u, v in vectors.items())
        assert (tmp_path / "e.txt").read_bytes() == expected.encode()


def load_outcome(loader, path):
    """A loader's result as comparable values: the ids in order with each
    vector's bytes, shape and writability, or the exception's class and
    message."""
    try:
        loaded = loader(path)
    except dio.DataError as exc:
        return type(exc), str(exc)
    return [(u, v.dtype, v.shape, v.tobytes(), v.flags.writeable) for u, v in loaded.items()]


# byte edits that make a small embedding file hit every parse path
EDITS = st.lists(st.tuples(
    st.sampled_from(["set", "insert", "delete"]),
    st.integers(0, 200),
    st.sampled_from([b" ", b"\n", b"\r", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x1f", b"#",
                     b'"', b"'", b"_", b"e", b"+", b"-", b".", b"0", b"1", b"7", b"nan",
                     b"inf", b"\xff", b"\x00", "\u0661".encode()]),
), max_size=4)


def mutated_file(edits, width: int, rows: int) -> bytes:
    data = bytearray(b"".join(
        b"u%d" % r + b"".join(b" %r" % ((r + 1) * 0.1 - c) for c in range(width)) + b"\n"
        for r in range(rows)))
    for op, pos, byte in edits:
        pos %= len(data) + 1
        if op == "insert":
            data[pos:pos] = byte
        elif pos < len(data):
            data[pos:pos + 1] = byte if op == "set" else b""
    return bytes(data)


class TestEmbeddingParsePaths:
    """load_embeddings parses through numpy's C reader and re-reads a file
    that fails a check line by line; both must agree with the per-value
    reference loader on every file."""

    def check(self, path):
        outcome = load_outcome(dio.load_embeddings, path)
        assert outcome == load_outcome(load_embeddings_by_line, path)
        return outcome

    def test_lone_trailing_space_line_names_line_2(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("a 1.0 2.0\nb \nc 3.0 4.0\n")
        assert self.check(p) == (dio.MalformedLineError,
                                 f"{p}:2: could not convert string to float: ''")

    def test_bad_float_reported_before_later_field_count_error(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("a 1.0 2.0\nb 1.0 x\nc 3.0 4.0\nd\n")
        assert self.check(p) == (dio.MalformedLineError,
                                 f"{p}:2: could not convert string to float: 'x'")

    def test_values_only_float_accepts_still_load(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("a 1_0 \u0661\nb 2.5 -3\n", encoding="utf-8")
        self.check(p)
        assert dio.load_embeddings(p)["a"].tolist() == [10.0, 1.0]

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_values_only_loadtxt_accepts_are_rejected(self, tmp_path, sep):
        # loadtxt strips these around a value; float() does not
        p = tmp_path / "e.txt"
        p.write_text(f"a 1.0 2.0\nb {sep}3.0 4.0{sep}\n")
        assert self.check(p)[0] is dio.MalformedLineError

    @pytest.mark.parametrize("text, shapes", [
        ("a 0.5 -1.5 2.0\n", [(3,)]),
        ("a 0.5", [(1,)]),
        ("a 0.5\nb -1e-300\nc 7\n", [(1,)] * 3),
    ], ids=["one-line", "one-line-no-newline", "1-d"])
    def test_one_line_and_1d_files(self, tmp_path, text, shapes):
        p = tmp_path / "e.txt"
        p.write_text(text)
        assert [shape for _, _, shape, _, _ in self.check(p)] == shapes

    @pytest.mark.parametrize("text", ["\n", "\n\n\r\n", "\r"])
    def test_blank_only_file_is_empty(self, tmp_path, text):
        p = tmp_path / "e.txt"
        p.write_bytes(text.encode())
        assert self.check(p) == [] and dio.load_embeddings(p) == {}

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_compressor_suffix_is_read_as_text(self, tmp_path, suffix):
        # np.loadtxt given a path picks a decompressor by its suffix
        p = tmp_path / f"e.txt{suffix}"
        p.write_text("a 1.0 2.0\nb 3.0 4.0\n")
        assert [utt_id for utt_id, *_ in self.check(p)] == ["a", "b"]

    def test_row_count_short_of_ids_falls_back(self, tmp_path, monkeypatch):
        p = tmp_path / "e.txt"
        p.write_text("a 1.0 2.0\nb 3.0 4.0\nc 5.0 6.0\n")
        loadtxt = np.loadtxt
        monkeypatch.setattr(dio.np, "loadtxt", lambda *a, **k: loadtxt(*a, **k)[1:])
        assert self.check(p)[0][0] == "a"

    @given(edits=EDITS, width=st.integers(1, 3), rows=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_matches_reference(self, tmp_path_factory, edits, width, rows):
        p = tmp_path_factory.mktemp("emb") / "e.txt"
        p.write_bytes(mutated_file(edits, width, rows))
        self.check(p)


def embedding_lines(rows: int, width: int, ids=None) -> list[str]:
    rng = np.random.default_rng(rows * width)
    ids = ids or [f"utt{i:04d}" for i in range(rows)]
    return [u + " " + " ".join(map(repr, rng.standard_normal(width).tolist())) for u in ids]


def force_workers(monkeypatch, workers: int) -> list:
    """Make load_embeddings split every file for this many workers; returns
    a list that each call's byte ranges are appended to."""
    used, byte_ranges = [], dio._byte_ranges
    monkeypatch.setattr(dio, "_worker_count", lambda path: workers)
    monkeypatch.setattr(dio, "_byte_ranges",
                        lambda path, n: used.append(byte_ranges(path, n)) or used[-1])
    return used


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
class TestForkedParse:
    """A file split into byte ranges that forked children parse gives the
    serial parse's map: the same ids in order, value bytes and writable
    vectors, or the same error; no call leaves a child behind."""

    def check(self, monkeypatch, path, workers):
        """The serial outcome, which the forked one must equal; returns it
        with the byte ranges of the forked parse."""
        serial = load_outcome(dio.load_embeddings, path)
        used = force_workers(monkeypatch, workers)
        forked = load_outcome(dio.load_embeddings, path)
        assert_no_child_left()
        assert forked == serial
        return serial, used[0]

    def arrays(self, path) -> int:
        """How many parsed arrays the map's vectors are rows of: one per
        range with ids, unless the line walk, which gives none, ran."""
        bases = [v.base for v in dio.load_embeddings(path).values()]
        assert_no_child_left()
        return 0 if any(b is None for b in bases) else len({id(b) for b in bases})

    @pytest.mark.parametrize("text", [
        "\n".join(embedding_lines(40, 192)) + "\n",
        "\n".join(embedding_lines(40, 160)) + "\n",
        "\r\n".join(embedding_lines(40, 16)) + "\r\n",
        "\n".join(embedding_lines(40, 16, [f"spk-\u00fc{i}-\u8bed\u97f3" for i in range(40)])),
        "\n".join(embedding_lines(3, 8)) + "\n" * 3000 + "\r\n" * 3000 + "\n\n".join(
            embedding_lines(3, 8, ["x", "y", "z"])) + "\n",
    ], ids=["asv", "cm", "crlf", "non-ascii-ids-no-trailing-newline", "blank-lines-at-splits"])
    def test_map_equals_serial(self, tmp_path, monkeypatch, workers, text):
        p = tmp_path / "e.txt"
        p.write_bytes(text.encode())
        outcome, ranges = self.check(monkeypatch, p, workers)
        assert isinstance(outcome, list) and len(ranges) == workers
        blank_middle = "\n" * 3000 in text and workers == 3  # a range of blank lines only
        assert self.arrays(p) == workers - blank_middle

    def test_no_newline_after_the_midpoint(self, tmp_path, monkeypatch, workers):
        lines = embedding_lines(40, 16)
        p = tmp_path / "e.txt"
        p.write_bytes(("\n".join(lines[:20]) + "\n" + "\r".join(lines[20:]) + "\r").encode())
        outcome, ranges = self.check(monkeypatch, p, workers)
        assert len(outcome) == 40 and len(ranges) == workers - 1 == self.arrays(p)

    @pytest.mark.parametrize("edit", [
        lambda line: line.replace(" ", " x", 1),
        lambda line: line.replace(" ", " nan ", 1),
        lambda line: line.rsplit(" ", 1)[0],
        lambda line: line + "\x1c",
        lambda line: "utt0000" + line[7:],
    ], ids=["bad-value", "non-finite", "width", "separator", "duplicate-id"])
    def test_bad_line_in_a_child_range_is_named_as_serially(self, tmp_path, monkeypatch,
                                                            capsys, workers, edit):
        lines = embedding_lines(30, 16)
        lines[-2] = edit(lines[-2])
        p = tmp_path / "e.txt"
        p.write_text("\n".join(lines) + "\n")
        (tmp_path / "m.tsv").write_text("spk\tutt0000\tbonafide\n")
        argv = ["train", "--manifest", str(tmp_path / "m.tsv"), "--asv-embeddings", str(p),
                "--cm-embeddings", str(p), "--out", str(tmp_path / "run")]
        serial = cli.main(argv), capsys.readouterr().err
        outcome, ranges = self.check(monkeypatch, p, workers)
        assert f"{p}:29: " in outcome[1] and ranges[-1][0] < p.stat().st_size - len(lines[-1])
        assert (cli.main(argv), capsys.readouterr().err) == serial
        assert serial[0] == 2
        assert_no_child_left()

    def test_child_that_dies_falls_back_to_the_line_walk(self, tmp_path, monkeypatch, workers):
        p = tmp_path / "e.txt"
        p.write_text("\n".join(embedding_lines(30, 16)) + "\n")
        parse_range, parent = dio._parse_range, os.getpid()

        def dying(path, start=0, end=None):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse_range(path, start, end)
        monkeypatch.setattr(dio, "_parse_range", dying)
        assert len(self.check(monkeypatch, p, workers)[0]) == 30
        assert self.arrays(p) == 0

    def test_fork_warning_of_other_threads_is_no_error(self, tmp_path, monkeypatch, workers):
        # Python 3.12+ warns like this on a fork while any other OS thread
        # runs, an idle BLAS pool's too
        fork = os.fork

        def warning_fork():
            warnings.warn("This process is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()
        monkeypatch.setattr(os, "fork", warning_fork)
        p = tmp_path / "e.txt"
        p.write_text("\n".join(embedding_lines(30, 16)) + "\n")
        assert len(self.check(monkeypatch, p, workers)[0]) == 30
        assert self.arrays(p) == workers

    @pytest.mark.parametrize("child_delay", [0, 60])
    def test_interrupt_in_the_parent_kills_its_children(self, tmp_path, monkeypatch, workers,
                                                        child_delay):
        # each child's rows fill more than a pipe's buffer, so a child blocks
        # in write until its pipe is closed; a child still parsing must be
        # killed, or waiting for it takes as long as its parse
        p = tmp_path / "e.txt"
        p.write_text("\n".join(embedding_lines(300, 192)) + "\n")
        parse_range, parent = dio._parse_range, os.getpid()

        def interrupted(path, start=0, end=None):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(child_delay)
            return parse_range(path, start, end)

        def hung(signum, frame):
            raise AssertionError("load_embeddings hung")
        monkeypatch.setattr(dio, "_parse_range", interrupted)
        force_workers(monkeypatch, workers)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            t0 = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                dio.load_embeddings(p)
            assert time.monotonic() - t0 < 10
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()

    @given(edits=EDITS, width=st.integers(1, 3), rows=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_mutated_file_matches_reference(self, tmp_path_factory, workers, edits, width, rows):
        p = tmp_path_factory.mktemp("emb") / "e.txt"
        p.write_bytes(mutated_file(edits, width, rows))
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_workers(monkeypatch, workers)
            assert load_outcome(dio.load_embeddings, p) == load_outcome(load_embeddings_by_line, p)
        assert_no_child_left()


def test_worker_count(tmp_path, monkeypatch):
    """One worker per PARSE_CHUNK_BYTES up to the usable CPUs, and one
    without fork or CPU affinity, or while another thread runs."""
    p = tmp_path / "e.txt"
    p.write_bytes(b"u 1.0\n" * 1000)
    assert dio._worker_count(p) == 1  # under 1 MiB
    monkeypatch.setattr(dio, "PARSE_CHUNK_BYTES", 1000)
    assert dio._worker_count(p) == min(len(os.sched_getaffinity(0)), 6)
    assert dio._worker_count(tmp_path / "missing.txt") == 1
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert dio._worker_count(p) == 4
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert dio._worker_count(p) == 1
    for name in ("fork", "sched_getaffinity"):
        with monkeypatch.context() as m:
            m.delattr(os, name)
            assert dio._worker_count(p) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert dio._worker_count(p) == 1
    finally:
        release.set()
        thread.join()


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


class TestSynthConfig:
    @pytest.mark.parametrize("name", ["asv_noise", "cm_separation"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            small_config(**{name: value})

    @pytest.mark.parametrize("name, value, low", [("seed", -1, 0), ("train_speakers", 0, 1),
                                                  ("d_c", -2, 1)])
    def test_value_below_its_bound_is_named(self, name, value, low):
        with pytest.raises(ValueError, match=f"^{name} must be at least {low}, got {value}$"):
            small_config(**{name: value})

    def test_fidelity_nan_is_rejected(self):
        with pytest.raises(ValueError, match="spoof_speaker_fidelity must lie in"):
            small_config(spoof_speaker_fidelity=math.nan)


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

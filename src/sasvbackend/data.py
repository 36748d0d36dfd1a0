"""Embedding, manifest, trial and score file I/O, the join of a manifest and
its embedding maps into a training pool, and the synthetic generator.

All formats are line-oriented text so runs can be inspected and diffed:

  embeddings   utterance_id v1 v2 ... vd          (space-separated decimals)
  manifest     speaker_id<TAB>utterance_id<TAB>bonafide|spoof
  trials       claimed_speaker<TAB>enroll_id1,enroll_id2,...<TAB>test_id<TAB>label
  scores       claimed_speaker<TAB>test_utterance<TAB>score<TAB>label

Floats are written with repr so that save(load(f)) is value-exact. The four
loaders share one line reader. Blank lines are skipped; a wrong field count,
a value that is not a finite float, a bad label or a repeated id raises a
DataError whose message starts with "path:line". Embedding values are parsed
by numpy's C reader, on every usable CPU for a large file, and a file that
fails a check is re-read line by line to name its first bad line; the values
accepted are those of Python's float(). A large embedding map is likewise
written on every usable CPU, to the same bytes as one process writes; both
directions fork their workers through one helper.

The synthetic generator stands in for the out-of-scope pre-trained encoders:
it plants spoofed speaker embeddings near the target speaker's centroid so
an ASV-only scorer accepts them, while the countermeasure space keeps the
two classes linearly separable.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import os
import signal
import struct
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backend import ZeroNormError
from .metrics import TRIAL_LABELS, ScoreRecord
from .sampling import TrainingPool

ENROLL_PER_SPEAKER = 5

# an embedding file, or map, gets one fork worker per this many bytes (of the
# file to parse, or of float64 values to write), up to the usable CPUs
FORK_CHUNK_BYTES = 1 << 20

# two of every five bona-fide recordings are heavily degraded, so pooling
# quality matters: plain averaging absorbs the junk entries while attention
# pooling can learn to downweight them. Degraded recordings share a channel
# signature (a fixed bias direction), the content cue that makes the
# downweighting learnable. Degraded utterances never appear as target tests.
DEGRADED_SLOT_PERIOD = 5
DEGRADED_SLOTS_PER_PERIOD = (3, 4)
DEGRADED_NOISE_FACTOR = 4.0
DEGRADED_CHANNEL_BIAS = 3.0


def _is_degraded(j: int) -> bool:
    return j % DEGRADED_SLOT_PERIOD in DEGRADED_SLOTS_PER_PERIOD


class DataError(ValueError):
    """Base class for data file problems."""


class MalformedLineError(DataError):
    pass


class DimensionMismatchError(DataError):
    pass


class DuplicateIdError(DataError):
    pass


class BadLabelError(DataError):
    pass


class UnresolvedIdError(DataError):
    pass


class InsufficientDataError(DataError):
    """Synthetic generation counts too small to build the requested trials."""


@dataclass(frozen=True)
class ManifestEntry:
    speaker_id: str
    utterance_id: str
    bonafide: bool


@dataclass(frozen=True)
class DatasetManifest:
    utterances: tuple[ManifestEntry, ...]


@dataclass(frozen=True)
class Trial:
    claimed_speaker: str
    enroll_ids: tuple[str, ...]
    test_id: str
    label: str

    def __post_init__(self):
        if self.label not in TRIAL_LABELS:
            raise BadLabelError(f"unknown trial label {self.label!r}")


TrialList = list[Trial]


class _ByteRange(io.RawIOBase):
    """The next n bytes of a binary file, as a raw stream that closes it."""

    def __init__(self, f, n: int):
        self._f, self._left = f, n

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._f.readinto(memoryview(b)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._f.close()
        super().close()


def _open_text(path, start: int = 0, end: int | None = None):
    """The UTF-8 text of path, or of its bytes [start, end), with the
    universal newlines open() reads it with."""
    if end is None:
        return open(path, "r", encoding="utf-8")
    f = open(path, "rb", buffering=0)
    f.seek(start)
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(f, end - start), 1 << 16),
                            encoding="utf-8")


def _read_lines(path, sep: str, n_fields: int, at_least: bool = False, maxsplit: int = -1,
                start: int = 0, end: int | None = None):
    """Yield ("path:line", fields) for every non-blank line of a text file,
    or of its bytes [start, end), where fields is line.split(sep, maxsplit):
    exactly n_fields of them, or at least n_fields when at_least is set. The
    prefix starts every error; its line number counts from start."""
    try:
        with _open_text(path, start, end) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                where = f"{path}:{lineno}"
                fields = line.split(sep, maxsplit)
                if len(fields) < n_fields if at_least else len(fields) != n_fields:
                    raise MalformedLineError(f"{where}: expected {'at least ' if at_least else ''}"
                                             f"{n_fields} fields separated by {sep!r}")
                yield where, fields
    except UnicodeDecodeError as exc:
        raise MalformedLineError(f"{path}: {exc}") from None


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def _parse_range(path, start: int = 0, end: int | None = None):
    """(ids, values) of the lines in bytes [start, end) of an embedding file,
    parsed by numpy's C reader: one row per id, all finite. None when a line
    is one the C reader must not take, or its rows disagree with the ids."""
    ids, widths = [], set()  # value counts; 0 marks a line the C reader must not take
    try:  # errors go to the line walk, which reports an earlier bad value first
        for _, (utt_id, text) in _read_lines(path, " ", 2, at_least=True, maxsplit=1,
                                             start=start, end=end):
            ids.append(utt_id)
            # loadtxt strips these separators from a value's ends, float() does not
            widths.add(0 if any(c in text for c in "\x1c\x1d\x1e\x1f") else text.count(" ") + 1)
    except MalformedLineError:
        return None
    if not ids:
        return ids, np.empty((0, 0))
    if len(widths) != 1 or 0 in widths:
        return None
    try:
        with _open_text(path, start, end) as f:
            values = np.loadtxt(f, dtype=np.float64, delimiter=" ", comments=None,
                                usecols=range(1, widths.pop() + 1), ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    # loadtxt may drop a row it takes for blank, so the rows are counted
    if values.shape[0] != len(ids) or not np.isfinite(values).all():
        return None
    return ids, values


def _workers_for(n_bytes: int) -> int:
    """Processes to read or write n_bytes of embeddings with: one per
    FORK_CHUNK_BYTES, up to the usable CPUs. 1 where a fork is unavailable or
    unsafe, which it is while another thread runs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_bytes // FORK_CHUNK_BYTES))


def _worker_count(path) -> int:
    """Processes to parse an embedding file with, by its size."""
    try:
        return _workers_for(os.path.getsize(path))
    except OSError:
        return 1


def _byte_ranges(path, n: int) -> list[tuple[int, int]]:
    """Split a file at k * size / n, each split moved forward past the next
    newline byte so that it starts a line; empty ranges are dropped."""
    size = os.path.getsize(path)
    splits = [0]
    with open(path, "rb") as f:
        for k in range(1, n):
            pos = max(k * size // n, splits[-1])
            f.seek(pos)
            while chunk := f.read(1 << 16):
                if (i := chunk.find(b"\n")) >= 0:
                    pos += i + 1
                    break
                pos += len(chunk)
            splits.append(pos)
    splits.append(size)
    return [(a, b) for a, b in zip(splits, splits[1:]) if a < b]


_HEADER = struct.Struct("<3q")  # rows, width, bytes of the newline-joined ids


def _send_part(out, path, start: int, end: int) -> None:
    """A parse worker's part: _parse_range of the bytes [start, end) of
    path, or nothing when the range is one it rejects."""
    part = _parse_range(path, start, end)
    if part is not None:
        ids, values = part
        joined = "\n".join(ids).encode("utf-8")
        out.write(_HEADER.pack(*values.shape, len(joined)))
        out.write(joined)
        out.write(values)


def _fill(f, buffer) -> bool:
    """Read into the whole byte buffer; False when the stream ends first."""
    view = memoryview(buffer)
    while view:
        n = f.readinto(view)
        if not n:
            return False
        view = view[n:]
    return True


def _receive(f):
    """A worker's (ids, values), or None when it sent less than a whole part."""
    header = bytearray(_HEADER.size)
    if not _fill(f, header):
        return None
    rows, width, n_bytes = _HEADER.unpack(header)
    joined, values = bytearray(n_bytes), np.empty((rows, width))
    if not (_fill(f, joined) and _fill(f, values.reshape(-1).view(np.uint8))):
        return None
    return (joined.decode("utf-8").split("\n") if rows else []), values


def _run_child(work, task, out, inherited) -> None:
    """A forked worker: close the inherited pipe ends, run work(task, out)
    and leave the process, with status 0 only once out is flushed."""
    status = 1
    try:
        gc.disable()  # a collection here could run the caller's finalizers
        for f in inherited:
            f.close()
        work(task, out)
        out.flush()
        status = 0
    finally:
        os._exit(status)  # never back into the caller's code, nor its stdio buffers


@contextlib.contextmanager
def _forked(tasks, work):
    """Fork one child per task, which runs work(task, out) with out the
    write end of a pipe to this process. Yields results(receive), which
    gives, per task in order, what receive(read end) returned once its child
    exited with status 0, or None where the child could not be started,
    exited otherwise or receive returned None. Forking stops at the first
    fork that fails. On leaving, children not yet waited for are killed
    first, and every child is waited for."""
    children = []  # (pid, read end) of the children not yet waited for
    try:
        for task in tasks:
            try:
                r, w = os.pipe()
            except OSError:
                break
            with open(w, "wb") as out:
                reader = open(r, "rb", buffering=0)
                try:
                    with warnings.catch_warnings():
                        # Python 3.12+ warns of any other OS thread, a BLAS
                        # pool's among them; no other Python thread runs
                        # (_workers_for), and a child touches no BLAS
                        warnings.simplefilter("ignore", DeprecationWarning)
                        pid = os.fork()
                except OSError:
                    reader.close()
                    break
                if pid == 0:
                    _run_child(work, task, out, [reader] + [f for _, f in children])
                children.append((pid, reader))
        started = len(children)

        def results(receive):
            for _ in range(started):
                pid, reader = children[0]
                result = receive(reader)
                reader.close()
                try:
                    _, status = os.waitpid(pid, 0)
                except ChildProcessError:  # reaped elsewhere: its status is unknown
                    status = -1
                children.pop(0)
                yield result if status == 0 else None
            yield from itertools.repeat(None, len(tasks) - started)
        yield results
    finally:
        for pid, reader in children:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
            reader.close()
        for pid, _ in children:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Read an embedding file into an id -> finite float64 vector map, with
    numpy's C reader or, for a file it cannot take, line by line.

    The file is split at line starts into one byte range per
    FORK_CHUNK_BYTES, up to one per usable CPU. Each range but the first is
    parsed by a forked child, so a large file is parsed on every CPU; where
    fork is missing or another thread runs, the whole file is parsed here,
    and where a child fails or cannot be started, line by line. The map is
    the same either way, with its vectors rows of one writable array per
    range when no child failed."""
    workers = _worker_count(path)
    ranges = _byte_ranges(path, workers) if workers > 1 else []
    if len(ranges) > 1:
        with _forked(ranges[1:], lambda task, out: _send_part(out, path, *task)) as results:
            parts = [_parse_range(path, *ranges[0])]
            parts.extend(results(_receive))
    else:
        parts = [_parse_range(path)]
    if all(part is not None for part in parts):
        ids = [utt_id for part_ids, _ in parts for utt_id in part_ids]
        widths = {values.shape[1] for part_ids, values in parts if part_ids}
        rows = sum(len(values) for _, values in parts)
        if len(widths) == 1 and len(set(ids)) == len(ids) == rows:
            return dict(zip(ids, itertools.chain.from_iterable(values for _, values in parts)))
    out: dict[str, np.ndarray] = {}
    dim = None
    for where, fields in _read_lines(path, " ", 2, at_least=True):
        utt_id = fields[0]
        try:
            values = np.array([float(x) for x in fields[1:]], dtype=np.float64)
        except ValueError as exc:
            raise MalformedLineError(f"{where}: {exc}") from None
        if not np.isfinite(values).all():
            raise MalformedLineError(f"{where}: non-finite value in embedding {utt_id!r}")
        if dim is None:
            dim = values.size
        elif values.size != dim:
            raise DimensionMismatchError(f"{where}: dimension {values.size} differs from {dim}")
        if utt_id in out:
            raise DuplicateIdError(f"{where}: duplicate utterance id {utt_id!r}")
        out[utt_id] = values
    return out


def _checked_rows(embeddings) -> list[tuple[str, np.ndarray]]:
    """The map's (id, float64 vector) pairs; ValueError names the first id
    whose line load_embeddings would reject or read back otherwise."""
    rows = []
    for utt_id, values in embeddings.items():
        if not utt_id or any(c in utt_id for c in " \n\r"):
            raise ValueError(f"embedding id {utt_id!r} is empty or holds a space or line break")
        vector = np.asarray(values, np.float64)
        if vector.ndim != 1 or not vector.size:
            raise ValueError(f"embedding {utt_id!r} is not a non-empty 1-D vector "
                             f"(shape {vector.shape})")
        if not np.isfinite(vector).all():
            raise ValueError(f"embedding {utt_id!r} holds a non-finite value")
        rows.append((utt_id, vector))
    return rows


def _embedding_lines(rows, start: int, end: int):
    """The newline-ended lines of rows [start, end) of an embedding file."""
    for utt_id, vector in rows[start:end]:
        yield utt_id + " " + " ".join(map(repr, vector.tolist())) + "\n"


def _write_rows(f, rows, start: int, end: int) -> None:
    for line in _embedding_lines(rows, start, end):
        f.write(line.encode("utf-8"))


_LENGTH = struct.Struct("<q")  # bytes of a write worker's payload


def _send_lines(out, rows, start: int, end: int) -> None:
    """A write worker's part: the length, then the bytes, of the lines of
    rows [start, end). They are built whole: a worker that streamed them
    would block on the pipe until the caller had formatted its own range."""
    payload = "".join(_embedding_lines(rows, start, end)).encode("utf-8")
    out.write(_LENGTH.pack(len(payload)))
    out.write(payload)


def _copy_payload(f, out) -> bool:
    """Copy a write worker's payload from f to out in chunks of at most a
    pipe's buffer; False when it sent less than its length."""
    header = bytearray(_LENGTH.size)
    if not _fill(f, header):
        return False
    (left,) = _LENGTH.unpack(header)
    buffer = memoryview(bytearray(min(left, 1 << 16)))
    while left:
        chunk = buffer[:min(left, len(buffer))]
        if not _fill(f, chunk):
            return False
        out.write(chunk)
        left -= len(chunk)
    return True


def save_embeddings(embeddings: dict[str, np.ndarray], path) -> None:
    """Write an id -> vector map as an embedding file, one line per id in
    the map's order, each value its float64 repr.

    Raises ValueError, and writes nothing, when an id is empty or holds a
    space, "\\n" or "\\r", or a vector is not 1-D, is empty or holds a
    non-finite value: a file load_embeddings would reject or read back
    otherwise. Vectors may differ in length.

    The rows are split into one range per FORK_CHUNK_BYTES of float64
    values, up to one per usable CPU, as load_embeddings splits a file.
    The first range is formatted here and streamed to the file; each other
    one by a forked child that sends its lines through a pipe, and they are
    copied into the file in order. A range whose child fails or cannot be
    started is formatted here instead. The bytes do not depend on the
    worker count."""
    rows = _checked_rows(embeddings)
    workers = max(1, min(len(rows), _workers_for(8 * sum(v.size for _, v in rows))))
    bounds = [k * len(rows) // workers for k in range(workers + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    # the file is opened after the fork, so no child holds it
    with _forked(ranges[1:], lambda task, out: _send_lines(out, rows, *task)) as results, \
            open(path, "wb") as f:
        _write_rows(f, rows, *ranges[0])
        start = f.tell()
        for task, copied in zip(ranges[1:], results(lambda reader: _copy_payload(reader, f))):
            if not copied:
                f.seek(start)
                f.truncate()
                _write_rows(f, rows, *task)
            start = f.tell()


def load_manifest(path) -> DatasetManifest:
    entries = []
    seen = set()
    for where, (speaker, utt, flag) in _read_lines(path, "\t", 3):
        if flag not in ("bonafide", "spoof"):
            raise BadLabelError(f"{where}: bad bonafide flag {flag!r}")
        if utt in seen:
            raise DuplicateIdError(f"{where}: duplicate utterance id {utt!r}")
        seen.add(utt)
        entries.append(ManifestEntry(speaker, utt, flag == "bonafide"))
    return DatasetManifest(tuple(entries))


def save_manifest(manifest: DatasetManifest, path) -> None:
    _write_lines(path, (f"{e.speaker_id}\t{e.utterance_id}\t"
                        f"{'bonafide' if e.bonafide else 'spoof'}" for e in manifest.utterances))


def load_trials(path) -> TrialList:
    trials = []
    for where, (claimed, enroll_csv, test_id, label) in _read_lines(path, "\t", 4):
        enroll_ids = tuple(e for e in enroll_csv.split(",") if e)
        if not enroll_ids:
            raise MalformedLineError(f"{where}: empty enrollment list")
        if label not in TRIAL_LABELS:
            raise BadLabelError(f"{where}: bad trial label {label!r}")
        trials.append(Trial(claimed, enroll_ids, test_id, label))
    return trials


def save_trials(trials: TrialList, path) -> None:
    _write_lines(path, (f"{t.claimed_speaker}\t{','.join(t.enroll_ids)}\t{t.test_id}\t{t.label}"
                        for t in trials))


def load_scores(path) -> list[ScoreRecord]:
    records = []
    for where, (claimed, test_id, score_text, label) in _read_lines(path, "\t", 4):
        try:
            records.append(ScoreRecord(claimed, test_id, float(score_text), label))
        except ValueError as exc:  # a bad score, a non-finite score or a bad label
            raise MalformedLineError(f"{where}: {exc}") from None
    return records


def save_scores(records, path) -> None:
    _write_lines(path, (f"{r.claimed_speaker}\t{r.test_utterance}\t{repr(r.score)}\t{r.label}"
                        for r in records))


def _check_resolved(what: str, *needs) -> None:
    """Raise UnresolvedIdError naming up to 10 ids that lack an embedding;
    each of needs is (ids, embedding map) and every id must be in its map."""
    missing = sorted({i for ids, available in needs for i in ids if i not in available})
    if missing:
        raise UnresolvedIdError(f"{len(missing)} {what} ids missing embeddings: "
                                f"{', '.join(missing[:10])}")


def build_records(manifest: DatasetManifest, asv_map: dict[str, np.ndarray],
                  cm_map: dict[str, np.ndarray]) -> TrainingPool:
    """Join a manifest with both embedding maps into a training pool, one
    row per manifest entry and in its order; the pool checks its rows."""
    entries = manifest.utterances
    ids = [e.utterance_id for e in entries]
    _check_resolved("manifest", (ids, asv_map), (ids, cm_map))
    return TrainingPool([e.speaker_id for e in entries], ids, [e.bonafide for e in entries],
                        np.array([asv_map[u] for u in ids]), np.array([cm_map[u] for u in ids]))


def resolve_trials(trials: TrialList, asv_map, cm_map) -> None:
    """Raise UnresolvedIdError (listing up to 10 ids) if any trial references
    an utterance without the embeddings it needs, or ZeroNormError naming the
    first enrollment, or else test, utterance whose ASV vector is zero."""
    enroll, tests = [i for t in trials for i in t.enroll_ids], [t.test_id for t in trials]
    _check_resolved("trial", (enroll, asv_map), (tests, asv_map), (tests, cm_map))
    for role, ids in (("enrollment", enroll), ("test", tests)):
        for utt in dict.fromkeys(ids):
            if not asv_map[utt].any():
                raise ZeroNormError(f"the {role} ASV embedding of {utt!r} is a zero vector")


@dataclass(frozen=True)
class SynthConfig:
    """Geometry and size of the synthetic embedding corpus.

    spoof_speaker_fidelity controls how closely a spoofed utterance
    imitates the target speaker in ASV space (1.0 = perfect imitation);
    cm_separation is the distance between the bona-fide and spoof class
    means in CM space, in units of the per-dimension noise.
    """

    train_speakers: int = 40
    dev_speakers: int = 10
    eval_speakers: int = 20
    bonafide_per_speaker: int = 20
    spoof_per_speaker: int = 20
    d_a: int = 96
    d_c: int = 24
    asv_noise: float = 0.15
    spoof_speaker_fidelity: float = 0.9
    cm_separation: float = 6.0
    seed: int = 0

    def __post_init__(self):
        for name in ("asv_noise", "cm_separation"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name, low in (("train_speakers", 1), ("dev_speakers", 1), ("eval_speakers", 1),
                          ("bonafide_per_speaker", 1), ("spoof_per_speaker", 1), ("d_a", 1),
                          ("d_c", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not 0.0 <= self.spoof_speaker_fidelity <= 1.0:
            raise ValueError("spoof_speaker_fidelity must lie in [0, 1]")


@dataclass(frozen=True)
class SyntheticDataset:
    manifest: DatasetManifest          # training utterances only
    asv_embeddings: dict[str, np.ndarray]
    cm_embeddings: dict[str, np.ndarray]
    trials_train: TrialList
    trials_dev: TrialList
    trials_eval: TrialList


def _normalize(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(np.sum(v * v))


def generate_synthetic(config: SynthConfig) -> SyntheticDataset:
    """Generate embeddings, a training manifest and per-split trial lists.

    Speaker sets of the three splits are disjoint. Every ASV embedding is
    unit-norm. Per split, each claimed speaker enrolls its first
    ENROLL_PER_SPEAKER bona-fide utterances; the remaining bona-fide
    utterances become target tests, all of the speaker's spoofed utterances
    become spoof trials, and half as many other speakers' target tests are
    drawn as nontarget trials (verification protocols with spoofed trials
    are spoof-heavy, roughly 2:1). Bitwise deterministic per seed.
    """
    if config.bonafide_per_speaker <= ENROLL_PER_SPEAKER:
        raise InsufficientDataError(
            f"need more than {ENROLL_PER_SPEAKER} bona-fide utterances per speaker "
            f"to enroll {ENROLL_PER_SPEAKER} and still have target tests"
        )

    rng = np.random.default_rng(config.seed)
    cm_shift = np.zeros(config.d_c)
    cm_shift[0] = config.cm_separation / 2.0
    channel_dir = np.zeros(config.d_a)
    channel_dir[0] = 1.0

    asv_map: dict[str, np.ndarray] = {}
    cm_map: dict[str, np.ndarray] = {}
    manifest_entries: list[ManifestEntry] = []
    trial_lists: dict[str, TrialList] = {}

    for split, prefix, n_speakers in (
        ("train", "trn", config.train_speakers),
        ("dev", "dev", config.dev_speakers),
        ("eval", "evl", config.eval_speakers),
    ):
        if n_speakers < 2:
            raise InsufficientDataError(
                f"{split}_speakers must be at least 2 for nontarget trials")
        split_speakers: list[tuple[str, list[str], list[str]]] = []
        for s in range(n_speakers):
            speaker = f"{prefix}{s:03d}"
            centroid = _normalize(rng.standard_normal(config.d_a))
            bona_ids, spoof_ids = [], []
            for j in range(config.bonafide_per_speaker):
                utt = f"{speaker}-b{j:03d}"
                vec = centroid + config.asv_noise * rng.standard_normal(config.d_a)
                if _is_degraded(j):
                    vec += (DEGRADED_NOISE_FACTOR - 1.0) * config.asv_noise \
                        * rng.standard_normal(config.d_a)
                    vec += DEGRADED_CHANNEL_BIAS * channel_dir
                asv_map[utt] = _normalize(vec)
                cm_map[utt] = cm_shift + rng.standard_normal(config.d_c)
                bona_ids.append(utt)
            for j in range(config.spoof_per_speaker):
                utt = f"{speaker}-s{j:03d}"
                asv_map[utt] = _normalize(
                    centroid
                    + (1.0 - config.spoof_speaker_fidelity) * rng.standard_normal(config.d_a)
                    + config.asv_noise * rng.standard_normal(config.d_a)
                )
                cm_map[utt] = -cm_shift + rng.standard_normal(config.d_c)
                spoof_ids.append(utt)
            split_speakers.append((speaker, bona_ids, spoof_ids))
            if split == "train":
                manifest_entries.extend(
                    ManifestEntry(speaker, u, True) for u in bona_ids
                )
                manifest_entries.extend(
                    ManifestEntry(speaker, u, False) for u in spoof_ids
                )

        trials: TrialList = []
        target_tests = {
            speaker: [
                utt for j, utt in enumerate(bona)
                if j >= ENROLL_PER_SPEAKER and not _is_degraded(j)
            ]
            for speaker, bona, _ in split_speakers
        }
        for idx, (speaker, bona_ids, spoof_ids) in enumerate(split_speakers):
            enroll = tuple(bona_ids[:ENROLL_PER_SPEAKER])
            for test in target_tests[speaker]:
                trials.append(Trial(speaker, enroll, test, "target"))
            others = [
                test
                for other, _, _ in split_speakers if other != speaker
                for test in target_tests[other]
            ]
            nontarget_count = max(1, config.spoof_per_speaker // 2)
            picked = rng.choice(len(others), size=min(nontarget_count, len(others)),
                                replace=False)
            for i in sorted(int(i) for i in picked):
                trials.append(Trial(speaker, enroll, others[i], "nontarget"))
            for test in spoof_ids:
                trials.append(Trial(speaker, enroll, test, "spoof"))
        trial_lists[split] = trials

    return SyntheticDataset(
        manifest=DatasetManifest(tuple(manifest_entries)),
        asv_embeddings=asv_map,
        cm_embeddings=cm_map,
        trials_train=trial_lists["train"],
        trials_dev=trial_lists["dev"],
        trials_eval=trial_lists["eval"],
    )


# file name -> (writer, SyntheticDataset field it writes)
SYNTH_FILES = {
    "manifest.tsv": (save_manifest, "manifest"),
    "asv_embeddings.txt": (save_embeddings, "asv_embeddings"),
    "cm_embeddings.txt": (save_embeddings, "cm_embeddings"),
    "trials_train.tsv": (save_trials, "trials_train"),
    "trials_dev.tsv": (save_trials, "trials_dev"),
    "trials_eval.tsv": (save_trials, "trials_eval"),
}


def write_synthetic(dataset: SyntheticDataset, out_dir) -> list[Path]:
    """Write the six dataset files into out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (save, field) in SYNTH_FILES.items():
        save(getattr(dataset, field), out / name)
    return [out / name for name in SYNTH_FILES]

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
accepted are those of Python's float().

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

# an embedding file gets one parse worker per this many bytes, up to the usable CPUs
PARSE_CHUNK_BYTES = 1 << 20

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


def _worker_count(path) -> int:
    """Processes to parse an embedding file with: one per PARSE_CHUNK_BYTES,
    up to the usable CPUs. 1 where a fork is unavailable or unsafe, which it
    is while another thread runs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    try:
        size = os.path.getsize(path)
    except OSError:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // PARSE_CHUNK_BYTES))


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


def _parse_in_child(out, inherited, path, start: int, end: int) -> None:
    """A forked worker: close the inherited pipe ends, parse the range, write
    it to out and leave the process, with status 0 only once the whole part
    is written."""
    status = 1
    try:
        gc.disable()  # a collection here could run the caller's finalizers
        for f in inherited:
            f.close()
        part = _parse_range(path, start, end)
        if part is not None:
            ids, values = part
            joined = "\n".join(ids).encode("utf-8")
            out.write(_HEADER.pack(*values.shape, len(joined)))
            out.write(joined)
            out.write(values)
            out.flush()
            status = 0
    finally:
        os._exit(status)  # never back into the caller's code, nor its stdio buffers


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


def _parse_forked(path, ranges):
    """The parts of _parse_range over the ranges: the first parsed here,
    each other one by a forked child that sends it through a pipe. A part is
    None when its child failed. None when a child cannot be started or
    waited for. Children still running when this returns or raises are
    killed first, and every child is waited for."""
    children = []  # (pid, read end) of the children not yet waited for
    try:
        for start, end in ranges[1:]:
            r, w = os.pipe()
            with open(w, "wb") as out:
                reader = open(r, "rb", buffering=0)
                try:
                    with warnings.catch_warnings():
                        # Python 3.12+ warns of any other OS thread, a BLAS
                        # pool's among them; no other Python thread runs
                        # (_worker_count), and a child touches no BLAS
                        warnings.simplefilter("ignore", DeprecationWarning)
                        pid = os.fork()
                except OSError:
                    reader.close()
                    raise
                if pid == 0:
                    _parse_in_child(out, [reader] + [f for _, f in children], path, start, end)
                children.append((pid, reader))
        parts = [_parse_range(path, *ranges[0])]
        while children:
            pid, reader = children[0]
            part = _receive(reader)
            reader.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            parts.append(part if status == 0 else None)
        return parts
    except OSError:
        return None
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
    PARSE_CHUNK_BYTES, up to one per usable CPU. Each range but the first is
    parsed by a forked child, so a large file is parsed on every CPU; where
    fork is missing or another thread runs, the whole file is parsed here.
    The map is the same either way, with its vectors rows of one writable
    array per range."""
    workers = _worker_count(path)
    ranges = _byte_ranges(path, workers) if workers > 1 else []
    parts = _parse_forked(path, ranges) if len(ranges) > 1 else None
    if parts is None:
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


def save_embeddings(embeddings: dict[str, np.ndarray], path) -> None:
    _write_lines(path, (utt_id + " " + " ".join(map(repr, np.asarray(values, np.float64).tolist()))
                        for utt_id, values in embeddings.items()))


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

"""Embedding, manifest, trial and score file I/O plus the synthetic generator.

All formats are line-oriented text so runs can be inspected and diffed:

  embeddings   utterance_id v1 v2 ... vd          (space-separated decimals)
  manifest     speaker_id<TAB>utterance_id<TAB>bonafide|spoof
  trials       claimed_speaker<TAB>enroll_id1,enroll_id2,...<TAB>test_id<TAB>label
  scores       claimed_speaker<TAB>test_utterance<TAB>score<TAB>label

Floats are written with repr so that save(load(f)) is value-exact. The four
loaders share one line reader. Blank lines are skipped; a wrong field count,
a value that is not a finite float, a bad label or a repeated id raises a
DataError whose message starts with "path:line".

The synthetic generator stands in for the out-of-scope pre-trained encoders:
it plants spoofed speaker embeddings near the target speaker's centroid so
an ASV-only scorer accepts them, while the countermeasure space keeps the
two classes linearly separable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backend import Embedding
from .metrics import TRIAL_LABELS, ScoreRecord
from .sampling import UtteranceRecord

ENROLL_PER_SPEAKER = 5

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


def _read_lines(path, sep: str, n_fields: int, at_least: bool = False):
    """Yield ("path:line", fields) for every non-blank line of a text file,
    where fields is the line split on sep: exactly n_fields of them, or at
    least n_fields when at_least is set. The prefix starts every error."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                where = f"{path}:{lineno}"
                fields = line.split(sep)
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


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Read an embedding file into an id -> finite float64 vector map."""
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
    _write_lines(path, (utt_id + " " + " ".join(repr(float(v)) for v in values)
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
                  cm_map: dict[str, np.ndarray]) -> list[UtteranceRecord]:
    """Join a manifest with both embedding maps into utterance records."""
    ids = [e.utterance_id for e in manifest.utterances]
    _check_resolved("manifest", (ids, asv_map), (ids, cm_map))
    return [
        UtteranceRecord(
            speaker_id=e.speaker_id,
            utterance_id=e.utterance_id,
            bonafide=e.bonafide,
            asv_embedding=Embedding(e.utterance_id, "asv", asv_map[e.utterance_id]),
            cm_embedding=Embedding(e.utterance_id, "cm", cm_map[e.utterance_id]),
        )
        for e in manifest.utterances
    ]


def resolve_trials(trials: TrialList, asv_map, cm_map) -> None:
    """Raise UnresolvedIdError (listing up to 10 ids) if any trial references
    an utterance without the embeddings it needs."""
    tests = [t.test_id for t in trials]
    _check_resolved("trial", ([i for t in trials for i in t.enroll_ids], asv_map),
                    (tests, asv_map), (tests, cm_map))


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
        for name in ("train_speakers", "dev_speakers", "eval_speakers",
                     "bonafide_per_speaker", "spoof_per_speaker", "d_a", "d_c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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

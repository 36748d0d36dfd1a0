"""Spoofing-aware attention back-end.

Enrollment speaker embeddings are pooled into a speaker representative
vector by one scaled-dot self-attention layer followed by one feed-forward
self-attention layer. The test embedding is compared against the pooled
vector with a calibrated cosine (the ASV probability), the countermeasure
embedding is scored by a linear head (the CM probability), and the two
probabilities are fused by a learnable linear transform into the final
score.

Spoofed enrollment entries are both zeroed out and excluded from every
attention softmax, so their content can never influence the pooled vector
or any gradient.

The building blocks work on stacks: forward_batch runs the whole pass over
a TrialBatch, pooling every enrollment set once and scoring every test
utterance with the CM head once.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor


class EmptyEnrollmentError(ValueError):
    """Enrollment set has no entries at all."""


class DegenerateEnrollmentError(ValueError):
    """Every enrollment entry is masked as spoofed."""


class ZeroNormError(ValueError):
    """Cosine similarity was asked for a zero-norm vector."""


CHECKPOINT_MAGIC = b"SASVBKND"
CHECKPOINT_VERSION = 1

POOLING_MODES = ("attention", "average")


@dataclass(frozen=True)
class Embedding:
    """A fixed-dimension embedding keyed by utterance id.

    kind is "asv" for speaker embeddings and "cm" for countermeasure
    embeddings. ASV embeddings must be nonzero (cosine needs a norm).
    """

    utterance_id: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"embedding values must be a vector, got ndim={v.ndim}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"embedding {self.utterance_id!r} has non-finite values")
        if self.kind not in ("asv", "cm"):
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        if self.kind == "asv" and not np.any(v):
            raise ZeroNormError(f"ASV embedding {self.utterance_id!r} is a zero vector")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class EnrollmentSet:
    """Ordered enrollment embeddings plus a bona-fide mask for one speaker."""

    speaker_id: str
    embeddings: tuple[Embedding, ...]
    bonafide_mask: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "embeddings", tuple(self.embeddings))
        object.__setattr__(self, "bonafide_mask", tuple(bool(b) for b in self.bonafide_mask))
        if len(self.embeddings) != len(self.bonafide_mask):
            raise ValueError(
                f"enrollment for {self.speaker_id!r}: {len(self.embeddings)} embeddings "
                f"but {len(self.bonafide_mask)} mask entries"
            )

    def __len__(self) -> int:
        return len(self.embeddings)

    def matrix(self) -> np.ndarray:
        """K x d_a stack of embedding values in enrollment order."""
        return np.stack([e.values for e in self.embeddings])

    def spoof_mask(self) -> np.ndarray:
        """True where the entry is spoofed, i.e. must be masked out."""
        return np.array([not b for b in self.bonafide_mask], dtype=bool)


@dataclass(frozen=True)
class EnrollmentStack:
    """S enrollment sets as rows of one embedding matrix.

    embeddings is (N, d_a); members (S, K) holds each set's row indices and
    masked (S, K) is True where an entry is spoofed, or pads a set shorter
    than K. Masked entries never influence pooling or any gradient.
    """

    embeddings: np.ndarray
    members: np.ndarray
    masked: np.ndarray

    def __post_init__(self):
        degenerate = np.flatnonzero(self.masked.all(axis=1))
        if degenerate.size:
            raise DegenerateEnrollmentError(
                f"enrollment set {degenerate[0]} has no bona-fide entry")


def _stack(enroll: "EnrollmentSet | EnrollmentStack") -> EnrollmentStack:
    if isinstance(enroll, EnrollmentStack):
        return enroll
    if len(enroll) == 0:
        raise EmptyEnrollmentError(f"enrollment for {enroll.speaker_id!r} is empty")
    members = np.arange(len(enroll))[None]
    return EnrollmentStack(enroll.matrix(), members, enroll.spoof_mask()[None])


def _shapes(d_a: int, d_c: int, h_f: int) -> dict[str, tuple[int, int]]:
    """Every parameter's shape, in parameter order."""
    return {
        "Wq": (d_a, d_a), "Wk": (d_a, d_a), "Wv": (d_a, d_a),
        "Wf": (h_f, d_a), "bf": (1, h_f), "vf": (1, h_f),
        "a": (1, 1), "b": (1, 1),
        "w_cm": (1, d_c), "b_cm": (1, 1),
        "w1": (1, 1), "w2": (1, 1), "v": (1, 1),
    }


_PARAM_NAMES = tuple(_shapes(1, 1, 1))

# start values of the parameters that init does not draw at random; the
# fusion starts at w1 = w2 = 1, v = -1 so that fuse(0.5, 0.5) gives 0.5
_FIXED_INIT = {"bf": 0.0, "a": 1.0, "b": 0.0, "b_cm": 0.0, "w1": 1.0, "w2": 1.0, "v": -1.0}


class BackendParams:
    """All trainable weights of the back-end.

    Shapes are fixed at construction from (d_a, d_c, h_f). Tensors are
    tape-tracked when a tape is supplied, plain values otherwise.
    """

    def __init__(self, d_a: int, d_c: int, h_f: int, tensors: dict[str, Tensor]):
        self.d_a = d_a
        self.d_c = d_c
        self.h_f = h_f
        expected = _shapes(d_a, d_c, h_f)
        for name in _PARAM_NAMES:
            t = tensors[name]
            if t.shape != expected[name]:
                raise ad.ShapeError(
                    f"parameter {name}: expected shape {expected[name]}, got {t.shape}"
                )
            setattr(self, name, t)

    @classmethod
    def init(cls, d_a: int, d_c: int, h_f: int, rng: np.random.Generator,
             tape: Tape | None = None) -> "BackendParams":
        """Fresh parameters: the _FIXED_INIT start values, every other
        weight uniform(+-1/sqrt(fan_in)) with fan_in its shape's columns,
        drawn in parameter order."""
        values = {}
        for name, shape in _shapes(d_a, d_c, h_f).items():
            if name in _FIXED_INIT:
                values[name] = np.full(shape, _FIXED_INIT[name])
            else:
                bound = 1.0 / math.sqrt(shape[1])
                values[name] = rng.uniform(-bound, bound, size=shape)
        make = tape.parameter if tape is not None else Tensor
        return cls(d_a, d_c, h_f, {k: make(v) for k, v in values.items()})

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]

    def detach(self) -> "BackendParams":
        """Untracked view sharing the same arrays; safe for scoring."""
        return BackendParams(
            self.d_a, self.d_c, self.h_f,
            {name: t.detach() for name, t in self.parameters()},
        )

    def save(self, path) -> None:
        """Write the versioned binary checkpoint; round-trips bit-exactly."""
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<IIII", CHECKPOINT_VERSION, self.d_a, self.d_c, self.h_f))
            for name, t in self.parameters():
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<II", *t.shape))
                f.write(np.ascontiguousarray(t.value, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path, tape: Tape | None = None) -> "BackendParams":
        """Read a checkpoint written by save().

        Raises ValueError naming the path on a bad magic or version, a short
        read, a missing, unknown or repeated parameter, a shape that does not
        match the header's dimensions, a non-finite value or trailing bytes.
        """
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size

            def read(n: int, what: str) -> bytes:
                if n > size - f.tell():
                    raise ValueError(f"{path}: checkpoint is truncated in {what}")
                return f.read(n)

            magic = f.read(8)
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a back-end checkpoint (bad magic {magic!r})")
            version, d_a, d_c, h_f = struct.unpack("<IIII", read(16, "the header"))
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"{path}: unsupported checkpoint version {version}")
            expected = _shapes(d_a, d_c, h_f)
            tensors = {}
            for i in range(len(_PARAM_NAMES)):
                (name_len,) = struct.unpack("<I", read(4, f"parameter {i}"))
                name = read(name_len, f"parameter {i}").decode("utf-8", errors="replace")
                if name not in expected or name in tensors:
                    kind = "repeated" if name in tensors else "unknown"
                    raise ValueError(f"{path}: {kind} parameter name {name!r}")
                shape = struct.unpack("<II", read(8, f"parameter {name}"))
                if shape != expected[name]:
                    raise ValueError(f"{path}: parameter {name} has shape {shape}, "
                                     f"expected {expected[name]}")
                raw = read(shape[0] * shape[1] * 8, f"parameter {name}")
                value = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
                if not np.all(np.isfinite(value)):
                    raise ValueError(f"{path}: parameter {name} has non-finite values")
                tensors[name] = tape.parameter(value) if tape is not None else Tensor(value)
            if f.read(1):
                raise ValueError(f"{path}: trailing bytes after parameters")
        return cls(d_a, d_c, h_f, tensors)


def pool_enrollments(params: BackendParams,
                     enroll: "EnrollmentSet | EnrollmentStack") -> Tensor:
    """Pool each enrollment set into its speaker representative vector.

    Returns an S x d_a tensor (1 x d_a for one EnrollmentSet), tracked
    whenever the parameters are. The N stacked embeddings are projected
    once and the projections gathered into the sets. Masked entries are
    zeroed and excluded from both attention softmaxes, so the result is
    independent of their content.
    """
    stack = _stack(enroll)
    X = Tensor(stack.embeddings)
    keep = ~stack.masked

    def rows(t: Tensor) -> Tensor:
        return ad.gather(t, stack.members, keep)

    # scaled-dot self-attention with residual, masked rows forced to zero
    E = rows(X)
    Q = rows(ad.matmul(X, params.Wq))
    K = rows(ad.matmul(X, params.Wk))
    V = rows(ad.matmul(X, params.Wv))
    scores = ad.affine(ad.matmul(Q, ad.transpose(K)), 1.0 / math.sqrt(params.d_a))
    A = ad.softmax_masked(scores, stack.masked[:, None, :])
    O = ad.zero_rows(ad.add(ad.matmul(A, V), E), stack.masked)

    # feed-forward self-attention pooling over the SDSA outputs
    hidden = ad.tanh(ad.add(ad.matmul(O, ad.transpose(params.Wf)), params.bf))
    alpha = ad.softmax_masked(ad.row_dot(hidden, params.vf), stack.masked)
    return ad.weighted_mean(O, alpha)


def average_pool(enroll: "EnrollmentSet | EnrollmentStack") -> Tensor:
    """Arithmetic mean of each set's bona-fide enrollment embeddings only."""
    stack = _stack(enroll)
    keep = ~stack.masked
    return ad.weighted_mean(ad.gather(Tensor(stack.embeddings), stack.members, keep),
                            keep.astype(np.float64))


def asv_probability(params: BackendParams, q_asv: Tensor, h: Tensor,
                    test_row=None, enroll_set=None) -> tuple[Tensor, Tensor, Tensor]:
    """Calibrated cosine head of row test_row[p] of q_asv against row
    enroll_set[p] of h, with one norm per row; by default row i meets row i
    and a single row meets every row. Returns (cos, s_asv, P_asv) per pair."""
    if test_row is None:
        test_row, enroll_set = np.broadcast_arrays(np.arange(len(q_asv.value)),
                                                   np.arange(len(h.value)))
    if not np.all(np.any(q_asv.value, axis=-1)):
        raise ZeroNormError("test ASV embedding has zero norm")
    if not np.all(np.any(h.value, axis=-1)):
        raise ZeroNormError("speaker representative vector has zero norm")
    norms = ad.mul(ad.gather(ad.norm(q_asv), test_row), ad.gather(ad.norm(h), enroll_set))
    cos = ad.div(ad.pair_dot(q_asv, h, test_row, enroll_set), norms)
    s_asv = ad.add(ad.mul(params.a, cos), params.b)
    return cos, s_asv, ad.sigmoid(s_asv)


def cm_probability(params: BackendParams, q_cm: Tensor) -> tuple[Tensor, Tensor]:
    """Linear countermeasure head over the rows of q_cm: returns (s_cm, P_cm),
    one entry per row."""
    s_cm = ad.add(ad.row_dot(q_cm, params.w_cm), params.b_cm)
    return s_cm, ad.sigmoid(s_cm)


def fuse(params: BackendParams, P_cm: Tensor, P_asv: Tensor) -> tuple[Tensor, Tensor]:
    """Learnable fusion of the two probabilities: returns (s, P)."""
    s = ad.add(ad.add(ad.mul(params.w1, P_cm), ad.mul(params.w2, P_asv)), params.v)
    return s, ad.sigmoid(s)


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Trials as arrays: T test utterances against the S sets of a stack.

    Trial i compares row test_row[i] of test_asv (T x d_a) and test_cm
    (T x d_c) with enrollment set enroll_set[i].
    """

    test_asv: np.ndarray
    test_cm: np.ndarray
    enroll: EnrollmentStack
    test_row: np.ndarray
    enroll_set: np.ndarray


@dataclass(frozen=True)
class BatchScores:
    """Every score the back-end produces, one entry per trial of a batch."""

    p: Tensor
    p_asv: Tensor
    p_cm: Tensor
    s: Tensor
    s_asv: Tensor
    s_cm: Tensor
    cos: Tensor


def forward_batch(params: BackendParams, batch: TrialBatch,
                  pooling: str = "attention") -> BatchScores:
    """Full back-end pass over a trial batch: pool, both heads, fusion.

    Every enrollment set is pooled once and every test row goes through
    the CM head once; only the ASV head's dot products and the fusion run
    per trial. pooling selects attention pooling or the averaging ablation.
    """
    if pooling not in POOLING_MODES:
        raise ValueError(f"unknown pooling mode {pooling!r}, expected one of {POOLING_MODES}")
    if pooling == "attention":
        h = pool_enrollments(params, batch.enroll)
    else:
        h = average_pool(batch.enroll)
    cos, s_asv, p_asv = asv_probability(params, Tensor(batch.test_asv), h,
                                        batch.test_row, batch.enroll_set)
    s_cm, p_cm = cm_probability(params, Tensor(batch.test_cm))
    p_cm = ad.gather(p_cm, batch.test_row)
    s, p = fuse(params, p_cm, p_asv)
    return BatchScores(p=p, p_asv=p_asv, p_cm=p_cm, s=s, s_asv=s_asv,
                       s_cm=ad.gather(s_cm, batch.test_row), cos=cos)

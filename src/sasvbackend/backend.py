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
a TrialBatch, pooling every enrollment group once and scoring every test
utterance with the CM head once. An enrollment group is K embeddings under
R masks, one per set: a scoring set is a group of its own (R = 1), and in
training a speaker's K utterances form one group whose R = K sets each
leave out one slot. Projections and attention logits are computed once per
group; only the masked softmaxes and the pooling weights are per set.
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
# version 2 records the pooling mode the weights were trained with;
# version 1 files, which do not, still load
CHECKPOINT_VERSION = 2

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
class EnrollmentStack:
    """G enrollment groups of K rows of one embedding matrix, each under R
    masks: G * R enrollment sets.

    embeddings is (N, d_a) and members (G, K) holds each group's row
    indices. masked (G, R, K) is True where set g * R + r leaves an entry
    of group g out: a spoofed entry, a slot held out for testing, or the
    padding of a set shorter than K. Masked entries never influence that
    set's pooled vector or its gradients.
    """

    embeddings: np.ndarray
    members: np.ndarray
    masked: np.ndarray

    def __post_init__(self):
        if self.masked.shape[::2] != self.members.shape:
            raise ad.ShapeError(f"enrollment mask {self.masked.shape} does not fit "
                                f"members {self.members.shape}")
        degenerate = np.flatnonzero(self.masked.all(axis=-1))
        if degenerate.size:
            raise DegenerateEnrollmentError(
                f"enrollment set {degenerate[0]} has no bona-fide entry")

    def rows(self) -> np.ndarray:
        """(G, K, d_a) embeddings of each group, zero where every set of the
        group masks the entry."""
        E = np.take(self.embeddings, self.members, axis=0)
        E[self.masked.all(axis=1)] = 0.0
        return E


class EnrollmentSet(EnrollmentStack):
    """One speaker's enrollment embeddings under a bona-fide mask: a stack
    of one group and one set (G = R = 1). An empty set raises
    EmptyEnrollmentError, a mask of another length ShapeError and an
    all-spoofed set DegenerateEnrollmentError."""

    def __init__(self, speaker_id: str, embeddings, bonafide_mask):
        values = [e.values for e in embeddings]
        if not values:
            raise EmptyEnrollmentError(f"enrollment for {speaker_id!r} is empty")
        spoofed = ~np.asarray(bonafide_mask, dtype=bool)
        super().__init__(np.stack(values), np.arange(len(values))[None], spoofed[None, None])

    def __len__(self) -> int:
        return self.members.shape[1]

    def matrix(self) -> np.ndarray:
        """K x d_a embedding values in enrollment order."""
        return self.embeddings

    def spoof_mask(self) -> np.ndarray:
        """True where the entry is spoofed, i.e. must be masked out."""
        return self.masked[0, 0]


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
    tape-tracked when a tape is supplied, plain values otherwise. pooling is
    the mode the weights are trained for, or None where it is not known.
    """

    def __init__(self, d_a: int, d_c: int, h_f: int, tensors: dict[str, Tensor],
                 pooling: str | None = None):
        self.d_a = d_a
        self.d_c = d_c
        self.h_f = h_f
        self.pooling = pooling
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
             tape: Tape | None = None, pooling: str | None = None) -> "BackendParams":
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
        return cls(d_a, d_c, h_f, {k: make(v) for k, v in values.items()}, pooling)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]

    def detach(self) -> "BackendParams":
        """Untracked view sharing the same arrays; safe for scoring."""
        return BackendParams(
            self.d_a, self.d_c, self.h_f,
            {name: t.detach() for name, t in self.parameters()}, self.pooling,
        )

    def save(self, path) -> None:
        """Write the versioned binary checkpoint; round-trips bit-exactly.
        The file is version 2, recording the pooling mode, when the mode is
        known, and version 1 otherwise."""

        def name_field(name: str) -> bytes:
            encoded = name.encode("utf-8")
            return struct.pack("<I", len(encoded)) + encoded
        version = 1 if self.pooling is None else CHECKPOINT_VERSION
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<IIII", version, self.d_a, self.d_c, self.h_f))
            if self.pooling is not None:
                f.write(name_field(self.pooling))
            for name, t in self.parameters():
                f.write(name_field(name))
                f.write(struct.pack("<II", *t.shape))
                f.write(np.ascontiguousarray(t.value, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "BackendParams":
        """Read a checkpoint written by save(), of version 1 or 2; the
        result's pooling is the recorded mode, None for version 1.

        Raises ValueError naming the path on a bad magic or version, a short
        read, an unknown pooling mode, a missing, unknown or repeated
        parameter, a shape that does not match the header's dimensions, a
        non-finite value or trailing bytes.
        """
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size

            def read(n: int, what: str) -> bytes:
                if n > size - f.tell():
                    raise ValueError(f"{path}: checkpoint is truncated in {what}")
                return f.read(n)

            def read_name(what: str) -> str:
                (name_len,) = struct.unpack("<I", read(4, what))
                return read(name_len, what).decode("utf-8", errors="replace")

            magic = f.read(8)
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a back-end checkpoint (bad magic {magic!r})")
            version, d_a, d_c, h_f = struct.unpack("<IIII", read(16, "the header"))
            if version not in (1, CHECKPOINT_VERSION):
                raise ValueError(f"{path}: unsupported checkpoint version {version}")
            pooling = None
            if version == CHECKPOINT_VERSION:
                pooling = read_name("the pooling mode")
                if pooling not in POOLING_MODES:
                    raise ValueError(f"{path}: unknown pooling mode {pooling!r}")
            expected = _shapes(d_a, d_c, h_f)
            tensors = {}
            for i in range(len(_PARAM_NAMES)):
                name = read_name(f"parameter {i}")
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
                tensors[name] = Tensor(value)
            if f.read(1):
                raise ValueError(f"{path}: trailing bytes after parameters")
        return cls(d_a, d_c, h_f, tensors, pooling)


def pool_enrollments(params: BackendParams, stack: EnrollmentStack) -> Tensor:
    """Pool each enrollment set into its speaker representative vector.

    Returns a (G * R) x d_a tensor, row g * R + r for set r of group g,
    tracked whenever the parameters are. Q, K, V and the attention logits
    are computed once per group; each set then takes its own masked
    softmaxes. Since O Wf^T = A (V Wf^T) + E Wf^T and
    alpha O = (alpha A) V + alpha E, no set's K x d_a output O is formed.
    Masked entries get exactly zero weight in both softmaxes, and entries
    masked in every set of a group are zeroed, so a set's result is
    independent of the content of its masked entries.
    """
    g, r, k = stack.masked.shape
    E = stack.rows()
    X = Tensor(E)

    # scaled-dot self-attention with residual, one softmax per set
    Q = ad.matmul(X, params.Wq)
    K = ad.matmul(X, params.Wk)
    V = ad.matmul(X, params.Wv)
    scores = ad.affine(ad.matmul(Q, ad.transpose(K)), 1.0 / math.sqrt(params.d_a))
    A = ad.softmax_masked(ad.reshape(scores, (g, 1, k, k)), stack.masked[:, :, None, :])

    # feed-forward self-attention pooling over the SDSA outputs O = A V + E
    Wf_t = ad.transpose(params.Wf)
    VW = ad.reshape(ad.matmul(V, Wf_t), (g, 1, k, params.h_f))
    EW = ad.add(ad.matmul(Tensor(E[:, None]), Wf_t), params.bf)
    hidden = ad.tanh(ad.add(ad.matmul(A, VW), EW))
    alpha = ad.softmax_masked(ad.row_dot(hidden, params.vf), stack.masked)
    alpha_A = ad.reshape(ad.matmul(ad.reshape(alpha, (g, r, 1, k)), A), (g, r, k))
    h = ad.add(ad.matmul(alpha_A, V), ad.matmul(alpha, X))
    return ad.reshape(h, (g * r, params.d_a))


def average_pool(stack: EnrollmentStack) -> Tensor:
    """Arithmetic mean of each set's bona-fide enrollment embeddings only,
    in pool_enrollments' row order. Untracked: it has no parameters."""
    keep = (~stack.masked).astype(np.float64)
    h = (keep @ stack.rows()) / keep.sum(axis=-1, keepdims=True)
    return Tensor(h.reshape(-1, h.shape[-1]))


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

"""Spoofing-aware attention back-end.

Enrollment speaker embeddings are pooled into a speaker representative
vector by one scaled-dot self-attention layer followed by one feed-forward
self-attention layer. The test embedding is compared against the pooled
vector with a calibrated cosine (the ASV probability), the countermeasure
embedding is scored by a linear head (the CM probability), and the two
probabilities are fused by a learnable linear transform into the final
score.

Masked enrollment entries (spoofed or held out) get an exact zero weight
in every attention softmax and in the average, so their finite content
never influences the pooled vector or any gradient.

The building blocks work on stacks: forward_batch runs the whole pass over
a TrialBatch, pooling every enrollment group once and scoring every test
utterance with the CM head once. An enrollment group is K embeddings under
R masks, one per set: a scoring set is a group of its own (R = 1), and in
training a speaker's K/2 bona-fide utterances form one group whose
R = K/2 + 1 sets each leave out one of them or none. Projections and
attention logits are computed once per group; only the masked softmaxes
and the pooling weights are per set.

The blocks (pool_enrollments, asv_probability, cm_probability, fuse)
compute in plain numpy. With tracked parameters each records one tape
entry, whose hand-derived backward replays the backward expressions of
the generic autodiff ops in their reverse order, so its gradients equal
theirs bit for bit, and adds them in place into the parameters' flat
gradient vector.
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
    """G enrollment groups of K embeddings each, each group under R masks:
    G * R enrollment sets.

    embeddings is (G, K, d_a). masked (G, R, K) is True where set g * R + r
    leaves an entry of group g out: a spoofed entry or one held out for
    testing. Pooling gives it exactly zero weight and never writes to
    embeddings, so its finite content never reaches that set's result.
    """

    embeddings: np.ndarray
    masked: np.ndarray

    def __post_init__(self):
        if self.masked.shape[::2] != self.embeddings.shape[:2]:
            raise ad.ShapeError(f"enrollment mask {self.masked.shape} does not fit "
                                f"embeddings {self.embeddings.shape}")
        degenerate = np.flatnonzero(self.masked.all(axis=-1))
        if degenerate.size:
            raise DegenerateEnrollmentError(
                f"enrollment set {degenerate[0]} has no bona-fide entry")


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
        super().__init__(np.stack(values)[None], spoofed[None, None])

    def __len__(self) -> int:
        return self.embeddings.shape[1]

    def matrix(self) -> np.ndarray:
        """K x d_a embedding values in enrollment order."""
        return self.embeddings[0]

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


PARAM_NAMES = tuple(_shapes(1, 1, 1))

# start values of the parameters that init does not draw at random; the
# fusion starts at w1 = w2 = 1, v = -1 so that fuse(0.5, 0.5) gives 0.5
_FIXED_INIT = {"bf": 0.0, "a": 1.0, "b": 0.0, "b_cm": 0.0, "w1": 1.0, "w2": 1.0, "v": -1.0}


class BackendParams:
    """All trainable weights of the back-end, in one float64 vector.

    Shapes are fixed at construction from (d_a, d_c, h_f). values holds
    the 13 parameters in parameter order, and each named parameter
    (params.Wq, ...) is a view of it; grad is their gradient vector of the
    same layout, whose views are the parameters' .grad. The parameters are
    tape-tracked when a tape is supplied, plain values otherwise. pooling is
    the mode the weights are trained for, or None where it is not known.
    """

    def __init__(self, d_a: int, d_c: int, h_f: int, values: np.ndarray,
                 pooling: str | None = None, tape: Tape | None = None):
        self.d_a = d_a
        self.d_c = d_c
        self.h_f = h_f
        self.pooling = pooling
        self.values = values
        tensors, self.grad = ad.flat_parameters(values, _shapes(d_a, d_c, h_f).values(), tape)
        for name, t in zip(PARAM_NAMES, tensors):
            setattr(self, name, t)

    @classmethod
    def init(cls, d_a: int, d_c: int, h_f: int, rng: np.random.Generator,
             tape: Tape | None = None, pooling: str | None = None) -> "BackendParams":
        """Fresh parameters: the _FIXED_INIT start values, every other
        weight uniform(+-1/sqrt(fan_in)) with fan_in its shape's columns,
        drawn in parameter order."""
        values = []
        for name, shape in _shapes(d_a, d_c, h_f).items():
            if name in _FIXED_INIT:
                values.append(np.full(shape, _FIXED_INIT[name]))
            else:
                bound = 1.0 / math.sqrt(shape[1])
                values.append(rng.uniform(-bound, bound, size=shape))
        return cls(d_a, d_c, h_f, np.concatenate([v.reshape(-1) for v in values]), pooling, tape)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in PARAM_NAMES]

    def detach(self) -> "BackendParams":
        """Untracked view sharing the same value vector; safe for scoring."""
        return BackendParams(self.d_a, self.d_c, self.h_f, self.values, self.pooling)

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
            for i in range(len(PARAM_NAMES)):
                name = read_name(f"parameter {i}")
                if name not in expected or name in tensors:
                    kind = "repeated" if name in tensors else "unknown"
                    raise ValueError(f"{path}: {kind} parameter name {name!r}")
                shape = struct.unpack("<II", read(8, f"parameter {name}"))
                if shape != expected[name]:
                    raise ValueError(f"{path}: parameter {name} has shape {shape}, "
                                     f"expected {expected[name]}")
                raw = read(shape[0] * shape[1] * 8, f"parameter {name}")
                value = np.frombuffer(raw, dtype="<f8").reshape(shape)
                if not np.all(np.isfinite(value)):
                    raise ValueError(f"{path}: parameter {name} has non-finite values")
                tensors[name] = value
            if f.read(1):
                raise ValueError(f"{path}: trailing bytes after parameters")
        return cls(d_a, d_c, h_f, np.concatenate([tensors[name].reshape(-1)
                                                  for name in PARAM_NAMES]), pooling)


def tanh_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient g passed back through y = tanh(x). pool_enrollments'
    backward calls it through this module, so that a check can plant a
    wrong derivative there."""
    return g * (1.0 - y * y)


def pool_enrollments(params: BackendParams, stack: EnrollmentStack) -> Tensor:
    """Pool each enrollment set into its speaker representative vector.

    Returns a (G * R) x d_a tensor, row g * R + r for set r of group g,
    tracked whenever the parameters are. Q, K, V and the attention logits
    are computed once per group; each set then takes its own masked
    softmaxes. Since O Wf^T = A (V Wf^T) + E Wf^T and
    alpha O = (alpha A) V + alpha E, no set's K x d_a output O is formed.
    Masked entries get exactly zero weight in both softmaxes, so a set's
    result is independent of the (finite) content of its masked entries.

    The block is one tape entry. Its backward is derived by hand and
    replays, in reverse order, the backward expressions of the autodiff
    ops that spell the same forward, so its gradients are theirs bit for
    bit.
    """
    g, r, k = stack.masked.shape
    E = np.ascontiguousarray(stack.embeddings, dtype=np.float64)
    d_a, h_f = params.d_a, params.h_f
    if E.shape[-1] != d_a:
        raise ad.ShapeError(f"enrollment embeddings {E.shape} are not {d_a}-d")
    rows = E.reshape(-1, d_a)
    Wf_t = np.ascontiguousarray(params.Wf.value.T)
    vf = params.vf.value
    scale = 1.0 / math.sqrt(d_a)

    # scaled-dot self-attention with residual, one softmax per set
    Q = (rows @ params.Wq.value).reshape(E.shape)
    K_t = np.ascontiguousarray(np.swapaxes((rows @ params.Wk.value).reshape(E.shape), -1, -2))
    V = (rows @ params.Wv.value).reshape(E.shape)
    A = ad.softmax_values((scale * (Q @ K_t) + 0.0).reshape(g, 1, k, k),
                          stack.masked[:, :, None, :])

    # feed-forward self-attention pooling over the SDSA outputs O = A V + E
    VW = (V.reshape(-1, d_a) @ Wf_t).reshape(g, 1, k, h_f)
    EW = (rows @ Wf_t).reshape(g, 1, k, h_f) + params.bf.value
    hidden = np.tanh(A @ VW + EW)
    alpha = ad.softmax_values(ad.row_dots(hidden, vf), stack.masked)
    alpha_row = alpha.reshape(g, r, 1, k)
    alpha_A = (alpha_row @ A).reshape(g, r, k)
    h = (alpha_A @ V + alpha @ E).reshape(g * r, d_a)

    def backward(grad):
        d_h = grad.reshape(g, r, d_a)
        d_alpha = d_h @ np.swapaxes(E, -1, -2)
        d_alpha_A = (d_h @ np.swapaxes(V, -1, -2)).reshape(g, r, 1, k)
        d_V = np.swapaxes(alpha_A, -1, -2) @ d_h
        d_A = np.swapaxes(alpha_row, -1, -2) @ d_alpha_A
        d_alpha = d_alpha + (d_alpha_A @ np.swapaxes(A, -1, -2)).reshape(g, r, k)
        d_logits = ad.softmax_grad(alpha, d_alpha)
        ad.accumulate(params.vf, d_logits.reshape(1, -1) @ hidden.reshape(-1, h_f))
        d_pre = tanh_grad(d_logits[..., None] * vf, hidden)
        d_EW = ad.sum_to(d_pre, EW.shape)
        d_A = d_A + d_pre @ np.swapaxes(VW, -1, -2)
        d_VW = ad.sum_to(np.swapaxes(A, -1, -2) @ d_pre, VW.shape).reshape(-1, h_f)
        ad.accumulate(params.bf, d_EW)
        d_Wf_t = rows.T @ d_EW.reshape(-1, h_f)
        d_V = d_V + (d_VW @ Wf_t.T).reshape(E.shape)
        d_Wf_t = d_Wf_t + V.reshape(-1, d_a).T @ d_VW
        ad.accumulate(params.Wf, np.ascontiguousarray(d_Wf_t.T))
        d_QK = scale * ad.sum_to(ad.softmax_grad(A, d_A), (g, 1, k, k)).reshape(g, k, k)
        d_K = np.ascontiguousarray(np.swapaxes(np.swapaxes(Q, -1, -2) @ d_QK, -1, -2))
        for weight, d_out in ((params.Wv, d_V), (params.Wk, d_K),
                              (params.Wq, d_QK @ np.swapaxes(K_t, -1, -2))):
            ad.accumulate(weight, rows.T @ d_out.reshape(-1, d_a))
    return ad.record(h, [params.Wq], backward)


def average_pool(stack: EnrollmentStack) -> Tensor:
    """Mean of each set's unmasked embeddings (a masked one has keep weight
    0), in pool_enrollments' row order. Untracked: it has no parameters."""
    keep = (~stack.masked).astype(np.float64)
    h = (keep @ stack.embeddings) / keep.sum(axis=-1, keepdims=True)
    return Tensor(h.reshape(-1, h.shape[-1]))


def asv_probability(params: BackendParams, q_asv: Tensor, h: Tensor,
                    test_row=None, enroll_set=None) -> tuple[Tensor, Tensor, Tensor]:
    """Calibrated cosine head of row test_row[p] of q_asv against row
    enroll_set[p] of h, with one norm per row; by default row i meets row i
    and a single row meets every row. Returns (cos, s_asv, P_asv) per pair.

    One tape entry, whose backward replays the autodiff ops' expressions
    (see pool_enrollments): only P_asv is tracked, and its gradient
    reaches a, b and a tracked h. q_asv is data and gets none."""
    if test_row is None:
        test_row, enroll_set = np.broadcast_arrays(np.arange(len(q_asv.value)),
                                                   np.arange(len(h.value)))
    q, hv = q_asv.value, h.value
    if not np.all(np.any(q, axis=-1)):
        raise ZeroNormError("test ASV embedding has zero norm")
    if not np.all(np.any(hv, axis=-1)):
        raise ZeroNormError("speaker representative vector has zero norm")
    test_norms = np.take(ad.row_norms(q), test_row, axis=0)
    set_norms = ad.row_norms(hv)
    norms = test_norms * np.take(set_norms, enroll_set, axis=0)
    dots = ad.pair_dots(q, hv, test_row, enroll_set)
    cos = dots / norms
    a = params.a.value.reshape(())
    s_asv = a * cos + params.b.value.reshape(())
    p_asv = ad.logistic(s_asv)

    def backward(grad):
        d_s = grad * p_asv * (1.0 - p_asv)
        ad.accumulate(params.b, d_s)
        ad.accumulate(params.a, d_s * cos)
        if h.tape is None:
            return
        d_cos = d_s * a
        d_norms = -d_cos * dots / (norms * norms)
        ad.accumulate(h, ad.pair_weights(d_cos / norms, test_row, enroll_set,
                                         len(q), len(hv)).T @ q)
        d_set_norms = ad.scatter_rows(d_norms * test_norms, enroll_set, set_norms.shape)
        ad.accumulate(h, (d_set_norms / set_norms)[..., None] * hv)
    return ad.constant(cos), ad.constant(s_asv), ad.record(p_asv, [params.a, h], backward)


def cm_probability(params: BackendParams, q_cm: Tensor) -> tuple[Tensor, Tensor]:
    """Linear countermeasure head over the rows of q_cm: returns (s_cm, P_cm),
    one entry per row. One tape entry: only P_cm is tracked (see
    asv_probability)."""
    q = q_cm.value
    s_cm = ad.row_dots(q, params.w_cm.value) + params.b_cm.value.reshape(())
    p_cm = ad.logistic(s_cm)

    def backward(grad):
        d_s = grad * p_cm * (1.0 - p_cm)
        ad.accumulate(params.b_cm, d_s)
        ad.accumulate(params.w_cm, d_s.reshape(1, -1) @ q.reshape(-1, q.shape[-1]))
    return ad.constant(s_cm), ad.record(p_cm, [params.w_cm], backward)


def fuse(params: BackendParams, P_cm: Tensor, P_asv: Tensor) -> tuple[Tensor, Tensor]:
    """Learnable fusion of the two probabilities: returns (s, P). One tape
    entry: only P is tracked, and its gradient reaches the fusion weights
    and tracked P_cm and P_asv."""
    w1, w2 = params.w1.value.reshape(()), params.w2.value.reshape(())
    s = w1 * P_cm.value + w2 * P_asv.value + params.v.value.reshape(())
    p = ad.logistic(s)

    def backward(grad):
        d_s = grad * p * (1.0 - p)
        ad.accumulate(params.v, d_s)
        ad.accumulate(params.w2, d_s * P_asv.value)
        ad.accumulate(P_asv, d_s * w2)
        ad.accumulate(params.w1, d_s * P_cm.value)
        ad.accumulate(P_cm, d_s * w1)
    return ad.constant(s), ad.record(p, [params.w1, P_cm, P_asv], backward)


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

"""Independent reference implementations shared by the test suites.

These deliberately avoid the library's fast code paths: plain counting
loops, midpoint threshold sweeps, a per-pair training loss and a per-value
embedding parser, so they can serve as oracles for the implementations
under test.
"""

import numpy as np

from sasvbackend import autodiff as ad
from sasvbackend import backend as bk
from sasvbackend import training as tr
from sasvbackend.data import (DimensionMismatchError, DuplicateIdError, MalformedLineError,
                              _read_lines)


def brute_force_eer(positives, negatives):
    """Reference EER: evaluate FAR/FRR at every midpoint between consecutive
    sorted scores (plus the scores themselves and points beyond both
    extremes) and interpolate the FAR = FRR crossing linearly."""
    pos = sorted(float(x) for x in positives)
    neg = sorted(float(x) for x in negatives)
    scores = sorted(set(pos + neg))
    thresholds = [scores[0] - 1.0]
    for a, b in zip(scores, scores[1:]):
        thresholds.append((a + b) / 2.0)
    thresholds.append(scores[-1] + 1.0)
    thresholds = sorted(set(thresholds + scores))

    prev = None
    for t in thresholds:
        frr = sum(1 for p in pos if p < t) / len(pos)
        far = sum(1 for n in neg if n >= t) / len(neg)
        d = far - frr
        if d == 0.0:
            return frr
        if d < 0.0:
            t0, far0, frr0 = prev
            d0 = far0 - frr0
            s = d0 / (d0 - d)
            return frr0 + s * (frr - frr0)
        prev = (t, far, frr)
    raise AssertionError("no crossing found")


def per_pair_batch_loss(params, pairs, config):
    """Reference training loss: one scalar graph per pair.

    Each pair's enrollment set is pooled on its own, both heads and the
    fusion run on 1 x 1 values, the selected losses are summed one by one
    in pair order and the sum is scaled by 1/len(selected). Returns
    (loss, selected) like training.batch_loss.
    """
    pooled = {}
    losses = []
    for pair in pairs:
        key = (pair.enroll.speaker_id, tuple(e.utterance_id for e in pair.enroll.embeddings))
        if key not in pooled:
            pooled[key] = (bk.pool_enrollments(params, pair.enroll)
                           if config.pooling == "attention" else bk.average_pool(pair.enroll))
        _, _, p_asv = bk.asv_probability(params, ad.Tensor(pair.test.asv_embedding.values),
                                         pooled[key])
        _, p_cm = bk.cm_probability(params, ad.Tensor(pair.test.cm_embedding.values))
        _, p = bk.fuse(params, p_cm, p_asv)
        losses.append(tr.bce_loss(p, pair.positive))
    selected = tr.select_hard([loss.item() for loss in losses], [p.positive for p in pairs],
                              config.hard_negative_top_n, config.hard_selection)
    total = losses[selected[0]]
    for i in selected[1:]:
        total = ad.add(total, losses[i])
    return ad.affine(total, 1.0 / len(selected)), selected


def _softmax(x):
    w = np.exp(x - x.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def pooled_per_set(params, stack, pooling="attention"):
    """Reference pooling written from the model description, one set at a
    time: E holds the set's unmasked rows, Q, K, V = E Wq, E Wk, E Wv, the
    SDSA output is O = softmax(Q K^T / sqrt(d_a)) V + E, the feed-forward
    weights are alpha = softmax(tanh(O Wf^T + bf) vf^T) and the pooled
    vector is alpha^T O; averaging pools to the mean of E. Row g * R + r
    is set r of group g. Calls no package pooling code."""
    P = {name: t.value for name, t in params.parameters()}
    out = []
    for members, masks in zip(stack.members, stack.masked):
        for mask in masks:
            E = stack.embeddings[members[~mask]]
            if pooling == "average":
                out.append(E.mean(axis=0))
                continue
            Q, K, V = E @ P["Wq"], E @ P["Wk"], E @ P["Wv"]
            O = _softmax(Q @ K.T / np.sqrt(E.shape[1])) @ V + E
            alpha = _softmax(np.tanh(O @ P["Wf"].T + P["bf"][0]) @ P["vf"][0])
            out.append(alpha @ O)
    return np.array(out)


def gathered_cos(batch, h):
    """Reference ASV-head cosine: both operands gathered to one row per
    trial, then row_dot over the product of the per-trial row norms."""
    q = ad.Tensor(batch.test_asv[batch.test_row])
    h = ad.gather(h, batch.enroll_set)
    return ad.div(ad.row_dot(q, h), ad.mul(ad.norm(q), ad.norm(h)))


def load_embeddings_by_line(path) -> dict[str, np.ndarray]:
    """Reference embedding loader: one float() per value, line by line."""
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

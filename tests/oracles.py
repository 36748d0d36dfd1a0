"""Independent reference implementations shared by the test suites.

These deliberately avoid the library's fast code paths: plain counting
loops, midpoint threshold sweeps, a per-pair training loss, the training
step spelled in the generic autodiff ops, a sampler that regroups its
records on every draw and a per-value embedding parser, so they can serve
as oracles for the implementations under test.
"""

import math

import numpy as np

from sasvbackend import autodiff as ad
from sasvbackend import backend as bk
from sasvbackend import training as tr
from sasvbackend.data import (DimensionMismatchError, DuplicateIdError, MalformedLineError,
                              _read_lines)
from sasvbackend.sampling import PoolExhaustedError, SpeakerBlock


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


def enrolled_vectors(pairs, i):
    """The ASV vectors that pair i's enrollment set keeps unmasked, in
    group order, read from the PairBatch's stack."""
    stack = pairs.enroll
    group, r = divmod(int(pairs.enroll_set[i]), stack.masked.shape[1])
    return stack.embeddings[group][~stack.masked[group, r]]


def per_pair_batch_loss(params, pairs, config, batch):
    """Reference training loss: one scalar graph per pair.

    Each pair's test utterance and enrollment set are rebuilt as records
    from the MiniBatch and the pair's position: pair i = (l*K + m)*M + n
    tests utterance m of speaker l against speaker n's utterances without
    slot m. The set the PairBatch assigns it must keep exactly the
    bona-fide ones of these. The label follows from the records. Each
    enrollment set is pooled on its own, both heads and the fusion run on
    1 x 1 values, the selected losses are summed one by one in pair order
    and the sum is scaled by 1/len(selected). Returns (loss, selected)
    like training.batch_loss.
    """
    m, k = batch.rows.shape
    pooled = {}
    losses = []
    labels = []
    for i in range(len(pairs)):
        test_row, speaker = divmod(i, m)
        slot = test_row % k
        test = batch.speakers[test_row // k].utterances[slot]
        block = batch.speakers[speaker]
        kept = [u for j, u in enumerate(block.utterances) if j != slot]
        assert np.array_equal(enrolled_vectors(pairs, i),
                              [u.asv_embedding.values for u in kept if u.bonafide]), i
        if (speaker, slot) not in pooled:
            enroll = bk.EnrollmentSet(block.speaker_id, tuple(u.asv_embedding for u in kept),
                                      tuple(u.bonafide for u in kept))
            pooled[speaker, slot] = (bk.pool_enrollments(params, enroll)
                                     if config.pooling == "attention" else bk.average_pool(enroll))
        _, _, p_asv = bk.asv_probability(params, ad.Tensor(test.asv_embedding.values),
                                         pooled[speaker, slot])
        _, p_cm = bk.cm_probability(params, ad.Tensor(test.cm_embedding.values))
        _, p = bk.fuse(params, p_cm, p_asv)
        labels.append(test.speaker_id == block.speaker_id and test.bonafide)
        losses.append(tr.bce_loss(p, labels[-1]))
    selected = tr.select_hard([loss.item() for loss in losses], labels,
                              config.hard_negative_top_n)
    total = losses[selected[0]]
    for i in selected[1:]:
        total = ad.add(total, losses[i])
    return ad.affine(total, 1.0 / len(selected)), selected


def tape_pool(params, stack):
    """pool_enrollments spelled in the generic autodiff ops: 25 records."""
    g, r, k = stack.masked.shape
    E = stack.embeddings
    X = ad.Tensor(E)
    Q = ad.matmul(X, params.Wq)
    K = ad.matmul(X, params.Wk)
    V = ad.matmul(X, params.Wv)
    scores = ad.affine(ad.matmul(Q, ad.transpose(K)), 1.0 / math.sqrt(params.d_a))
    A = ad.softmax_masked(ad.reshape(scores, (g, 1, k, k)), stack.masked[:, :, None, :])
    Wf_t = ad.transpose(params.Wf)
    VW = ad.reshape(ad.matmul(V, Wf_t), (g, 1, k, params.h_f))
    EW = ad.add(ad.matmul(ad.Tensor(E[:, None]), Wf_t), params.bf)
    hidden = ad.tanh(ad.add(ad.matmul(A, VW), EW))
    alpha = ad.softmax_masked(ad.row_dot(hidden, params.vf), stack.masked)
    alpha_A = ad.reshape(ad.matmul(ad.reshape(alpha, (g, r, 1, k)), A), (g, r, k))
    h = ad.add(ad.matmul(alpha_A, V), ad.matmul(alpha, X))
    return ad.reshape(h, (g * r, params.d_a))


def tape_batch_loss(params, pairs, config):
    """The training step's loss spelled in the generic autodiff ops, one
    record per op (53 at attention pooling): pooling, the calibrated-cosine
    ASV head of the training layout (gathered_cos), the linear CM head, the
    fusion, per-pair BCE, hard selection and the mean over the selected
    pairs. Returns (loss, selected) like training.batch_loss."""
    h = (tape_pool(params, pairs.enroll) if config.pooling == "attention"
         else bk.average_pool(pairs.enroll))
    cos = gathered_cos(pairs, h)
    p_asv = ad.sigmoid(ad.add(ad.mul(params.a, cos), params.b))
    p_cm = ad.sigmoid(ad.add(ad.row_dot(ad.Tensor(pairs.test_cm), params.w_cm), params.b_cm))
    p_cm = ad.gather(p_cm, pairs.test_row)
    p = ad.sigmoid(ad.add(ad.add(ad.mul(params.w1, p_cm), ad.mul(params.w2, p_asv)), params.v))
    positive = np.asarray(pairs.positive, dtype=bool)
    prob = ad.affine(p, np.where(positive, 1.0, -1.0), np.where(positive, 0.0, 1.0))
    losses = ad.affine(ad.log(ad.clamp(prob, tr.BCE_CLAMP, 1.0 - tr.BCE_CLAMP)), -1.0)
    selected = tr.select_hard(losses.value, positive, config.hard_negative_top_n)
    weights = np.zeros((1, len(positive)))
    weights[0, selected] = 1.0
    return ad.affine(ad.row_dot(losses, ad.Tensor(weights)), 1.0 / len(selected)), selected


def _group_pool(pool) -> dict[str, tuple[list, list]]:
    by_speaker: dict[str, tuple[list, list]] = {}
    for rec in pool:
        bona, spoof = by_speaker.setdefault(rec.speaker_id, ([], []))
        (bona if rec.bonafide else spoof).append(rec)
    return by_speaker


def draw_batch_by_records(pool, m: int, k: int, rng: np.random.Generator):
    """Reference sampler over a list of records: the pool is regrouped by
    speaker on every call and the blocks are built from the records.
    Returns the batch's SpeakerBlocks; makes the same rng calls, in the
    same order, as sampling.draw_batch and raises the same errors."""
    if k <= 0 or k % 2 != 0:
        raise ValueError(f"k must be positive and even, got {k}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if k == 2:
        raise PoolExhaustedError("k=2 leaves one bona-fide entry per speaker, and excluding "
                                 "it empties the enrollment; k must be at least 4")
    by_speaker = _group_pool(pool)
    half = k // 2
    eligible = sorted(
        spk for spk, (bona, spoof) in by_speaker.items()
        if len(bona) >= half and len(spoof) >= half
    )
    if len(eligible) < m:
        short_bona = sum(1 for _, (b, _s) in by_speaker.items() if len(b) < half)
        short_spoof = sum(1 for _, (_b, s) in by_speaker.items() if len(s) < half)
        raise PoolExhaustedError(
            f"need {m} speakers with >= {half} bona-fide and >= {half} spoofed "
            f"utterances, only {len(eligible)} qualify "
            f"({short_bona} speakers lack bona-fide and {short_spoof} lack spoofed utterances)"
        )

    chosen = rng.choice(len(eligible), size=m, replace=False)
    blocks = []
    for idx in chosen:
        speaker = eligible[int(idx)]
        bona, spoof = by_speaker[speaker]
        picked_bona = [bona[int(i)] for i in rng.choice(len(bona), size=half, replace=False)]
        picked_spoof = [spoof[int(i)] for i in rng.choice(len(spoof), size=half, replace=False)]
        utterances = picked_bona + picked_spoof
        order = rng.permutation(k)
        blocks.append(SpeakerBlock(speaker, tuple(utterances[int(i)] for i in order)))
    return tuple(blocks)


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
    for group, masks in zip(stack.embeddings, stack.masked):
        for mask in masks:
            E = group[~mask]
            if pooling == "average":
                out.append(E.mean(axis=0))
                continue
            Q, K, V = E @ P["Wq"], E @ P["Wk"], E @ P["Wv"]
            O = _softmax(Q @ K.T / np.sqrt(E.shape[1])) @ V + E
            alpha = _softmax(np.tanh(O @ P["Wf"].T + P["bf"][0]) @ P["vf"][0])
            out.append(alpha @ O)
    return np.array(out)


def gathered_cos(batch, h):
    """Reference ASV-head cosine of trials in any pairing, in the generic
    ops: one matmul of every test row with every row of h, and one
    broadcast product of their norms, each read at the trials' cells of
    that test rows x sets matrix by a gather (whose backward sums the
    trials that share a cell)."""
    q = ad.Tensor(batch.test_asv)
    t, s = len(q.value), len(h.value)
    cell = batch.test_row * s + batch.enroll_set
    dots = ad.reshape(ad.matmul(q, ad.transpose(h)), (t * s,))
    norms = ad.reshape(ad.mul(ad.reshape(ad.norm(q), (t, 1)), ad.reshape(ad.norm(h), (1, s))),
                       (t * s,))
    return ad.div(ad.gather(dots, cell), ad.gather(norms, cell))


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

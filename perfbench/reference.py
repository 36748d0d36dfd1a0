"""Independent numpy reference of the back-end forward pass.

Written from the model description, not from the package's code: pooling,
both heads, the fusion and the training loss are computed with batched
array operations over whole stacks of enrollment sets and trials, with no
autodiff tape and no per-pair objects. The benchmark checks the package's
scores and losses against it.

  masked SDSA    E' = E with spoofed rows zeroed
                 A  = softmax over bona-fide columns of E'Wq (E'Wk)^T / sqrt(d_a)
                 O  = A E'Wv + E', spoofed rows zeroed
  FF attention   alpha = softmax over bona-fide rows of vf . tanh(Wf o_i + bf)
                 h     = sum_i alpha_i o_i
  ASV head       cos = q.h / (|q| |h|),  s_asv = a cos + b,  p_asv = sigmoid(s_asv)
  CM head        s_cm = w_cm . c + b_cm,  p_cm = sigmoid(s_cm)
  fusion         s = w1 p_cm + w2 p_asv + v,  p = sigmoid(s)
  score_sum      cos + s_cm (the untrained baseline)

Parameters are passed as a name -> array dict with the package's shapes
(row vectors are 1 x n, scalars 1 x 1).
"""

from __future__ import annotations

import math

import numpy as np

BCE_CLAMP = 1e-12


def sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -x))


def _masked_softmax(logits: np.ndarray, keep: np.ndarray) -> np.ndarray:
    z = np.where(keep, logits, -np.inf)
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def pool_attention(P: dict, E: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Pool S enrollment stacks E (S, K, d_a) with bona-fide mask keep (S, K)
    into S speaker vectors (S, d_a)."""
    E = E * keep[..., None]
    Q, Kt, V = E @ P["Wq"], E @ P["Wk"], E @ P["Wv"]
    A = _masked_softmax(Q @ Kt.transpose(0, 2, 1) / math.sqrt(E.shape[-1]),
                        keep[:, None, :])
    O = (A @ V + E) * keep[..., None]
    logits = np.tanh(O @ P["Wf"].T + P["bf"]) @ P["vf"][0]
    alpha = _masked_softmax(logits, keep)
    return np.einsum("sk,skd->sd", alpha, O)


def pool_average(E: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Mean of the bona-fide rows of each stack: (S, K, d_a) -> (S, d_a)."""
    return (E * keep[..., None]).sum(axis=1) / keep.sum(axis=1, keepdims=True)


def pool(P: dict, E: np.ndarray, keep: np.ndarray, pooling: str) -> np.ndarray:
    return pool_attention(P, E, keep) if pooling == "attention" else pool_average(E, keep)


def trial_scores(P: dict, h: np.ndarray, q_asv: np.ndarray, q_cm: np.ndarray) -> dict:
    """Every score column for N trials: h, q_asv (N, d_a) and q_cm (N, d_c)."""
    cos = np.sum(q_asv * h, axis=1) / (
        np.linalg.norm(q_asv, axis=1) * np.linalg.norm(h, axis=1))
    s_asv = P["a"][0, 0] * cos + P["b"][0, 0]
    p_asv = sigmoid(s_asv)
    s_cm = q_cm @ P["w_cm"][0] + P["b_cm"][0, 0]
    p_cm = sigmoid(s_cm)
    s = P["w1"][0, 0] * p_cm + P["w2"][0, 0] * p_asv + P["v"][0, 0]
    return {"cos": cos, "s_asv": s_asv, "p_asv": p_asv, "s_cm": s_cm,
            "p_cm": p_cm, "s": s, "p": sigmoid(s)}


def scorer_values(cols: dict, scorer: str) -> np.ndarray:
    """The column a named scorer reports (fused, asv_only or score_sum)."""
    if scorer == "fused":
        return cols["p"]
    if scorer == "asv_only":
        return cols["p_asv"]
    if scorer == "score_sum":
        return cols["cos"] + cols["s_cm"]
    raise ValueError(f"unknown scorer {scorer!r}")


def score_trial_list(P: dict, trials, asv_map, cm_map, pooling: str = "attention") -> dict:
    """Score columns for a trial list whose enrollment lists share one length;
    every enrollment entry is bona fide."""
    claims = sorted({(t.claimed_speaker, t.enroll_ids) for t in trials})
    row = {claim: i for i, claim in enumerate(claims)}
    E = np.array([[asv_map[e] for e in ids] for _, ids in claims])
    h = pool(P, E, np.ones(E.shape[:2], dtype=bool), pooling)
    which = [row[(t.claimed_speaker, t.enroll_ids)] for t in trials]
    q_asv = np.array([asv_map[t.test_id] for t in trials])
    q_cm = np.array([cm_map[t.test_id] for t in trials])
    return trial_scores(P, h[which], q_asv, q_cm)


def bce(p: np.ndarray, positive: np.ndarray) -> np.ndarray:
    prob = np.where(positive, p, 1.0 - p)
    return -np.log(np.clip(prob, BCE_CLAMP, 1.0 - BCE_CLAMP))


def select_hard(losses: np.ndarray, positive: np.ndarray, top_n: int) -> np.ndarray:
    """Every positive plus the top_n largest-loss negatives, ties by index."""
    neg = np.flatnonzero(~positive)
    hardest = neg[np.argsort(-losses[neg], kind="stable")[:top_n]]
    return np.sort(np.concatenate([np.flatnonzero(positive), hardest]))


def batch_loss(P: dict, asv: np.ndarray, cm: np.ndarray, bona: np.ndarray,
               top_n: int, pooling: str = "attention") -> tuple[float, np.ndarray]:
    """Mean selected BCE of one mini-batch of M speakers x K utterances.

    asv (M, K, d_a), cm (M, K, d_c) and bona (M, K) hold the batch in draw
    order. Test (l, j) meets every speaker n enrolled on n's utterances
    without slot j; pairs are ordered by (l, j, n), and a pair is positive
    when n == l and the test is bona fide. Returns the loss and the
    selected pair indices.
    """
    M, K = bona.shape
    others = np.array([[i for i in range(K) if i != j] for j in range(K)])
    h = pool(P, asv[:, others].reshape(M * K, K - 1, -1),
             bona[:, others].reshape(M * K, K - 1), pooling).reshape(M, K, -1)
    l, j, n = (a.ravel() for a in np.meshgrid(
        np.arange(M), np.arange(K), np.arange(M), indexing="ij"))
    positive = (n == l) & bona[l, j]
    losses = bce(trial_scores(P, h[n, j], asv[l, j], cm[l, j])["p"], positive)
    selected = select_hard(losses, positive, top_n)
    return float(losses[selected].mean()), selected

"""Hierarchical dual-side attention.

Per list: candidate<->history co-attention, then attention pooling of the
interacted item vectors into one list vector; across lists: scaled
self-attention followed by attention pooling into a single page vector that
is shared by every scoring slot.

All functions are batched. Per-list weights are stacked on a leading n axis
(one independent set per list); aggregation weights are shared.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor

log = logging.getLogger(__name__)

MASK_FILL = -1e9  # added to masked logits; finite so gradients stay defined


@dataclass
class DualSideParams:
    """Per-list candidate/history interaction weights (stacked over lists)."""

    w_a: Tensor  # (n, d_h, d_x) affinity
    w_x: Tensor  # (n, d_x, m)
    w_h: Tensor  # (n, d_h, m)


@dataclass
class AggregationParams:
    """Shared item-level and list-level attention-pooling weights."""

    w_l: Tensor      # (d_l, d_l)
    b_l: Tensor      # (d_l,)
    q_item: Tensor   # (d_l, 1)
    w_p: Tensor      # (d_l, d_l)
    b_p: Tensor      # (d_l,)
    q_list: Tensor   # (d_l, 1)


def _key_mask_bias(mask: np.ndarray) -> np.ndarray:
    """(…, keys) 0/1 mask -> additive logit bias, MASK_FILL on masked keys."""
    return (1.0 - mask) * MASK_FILL


_warned_empty_history = False


def _history_attention_mask(history_mask: np.ndarray) -> np.ndarray:
    """History key mask with the all-masked fallback: weight on position 0."""
    global _warned_empty_history
    empty = history_mask.sum(axis=-1) == 0
    if not np.any(empty):
        return history_mask
    if not _warned_empty_history:
        log.warning("page(s) with empty history: attention falls back to position 0")
        _warned_empty_history = True
    fixed = history_mask.copy()
    fixed[empty, 0] = 1.0
    return fixed


def dual_side_attention(x_emb: Tensor, h_emb: Tensor, params: DualSideParams,
                        mask: np.ndarray, history_mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Candidate/history co-attention for every list of every page.

    x_emb: (b, n, m, d_x); h_emb: (b, t, d_h); mask: (b, n, m) over candidate
    slots; history_mask: (b, t). Returns interacted candidate and history
    representations, both (b, n, m, d_*). Masked keys on either side receive
    MASK_FILL logits; pages with no unmasked history attend to position 0.
    """
    b, n, m, _ = x_emb.shape
    h4 = ag.reshape(h_emb, (b, 1) + h_emb.shape[1:])               # (b, 1, t, d_h)

    affinity = ag.tanh(ag.matmul(ag.matmul(h4, params.w_a), ag.transpose(x_emb)))  # (b, n, t, m)
    xw = ag.matmul(x_emb, params.w_x)                              # (b, n, m, m)
    hw = ag.matmul(h4, params.w_h)                                 # (b, n, t, m)

    cand_logits = ag.tanh(xw + ag.matmul(ag.transpose(hw), affinity))      # (b, n, m, m)
    cand_bias = _key_mask_bias(mask)[:, :, None, :]                        # keys axis = m
    a_x = ag.softmax(cand_logits + cand_bias, axis=-1)

    hist_logits = ag.transpose(ag.tanh(hw + ag.matmul(affinity, xw)))      # (b, n, m, t)
    hist_bias = _key_mask_bias(_history_attention_mask(history_mask))[:, None, None, :]
    a_h = ag.softmax(hist_logits + hist_bias, axis=-1)

    x_tilde = ag.matmul(a_x, x_emb)                                # (b, n, m, d_x)
    h_tilde = ag.matmul(a_h, h4)                                   # (b, n, m, d_h)
    return x_tilde, h_tilde


def candidate_self_attention(x_emb: Tensor, mask: np.ndarray) -> Tensor:
    """History-free replacement for dual-side attention (ablation variant).

    Scaled dot-product self-attention over each list's candidates: the
    candidate side's output, (b, n, m, d_x). The caller supplies the history
    side.
    """
    logits = ag.matmul(x_emb, ag.transpose(x_emb)) / math.sqrt(x_emb.shape[-1])
    bias = _key_mask_bias(mask)[:, :, None, :]
    return ag.matmul(ag.softmax(logits + bias, axis=-1), x_emb)


def item_level_aggregation(x_tilde: Tensor, h_tilde: Tensor,
                           params: AggregationParams, mask: np.ndarray) -> Tensor:
    """Pool each list's interacted items into one list vector: (b, n, d_l)."""
    b, n, m, _ = x_tilde.shape
    cat = ag.concat([x_tilde, h_tilde], axis=-1)                   # (b, n, m, d_l)
    u = ag.tanh(ag.matmul(cat, params.w_l) + params.b_l)
    scores = ag.reshape(ag.matmul(u, params.q_item), (b, n, m))
    alpha = ag.softmax(scores + _key_mask_bias(mask), axis=-1)
    pooled = ag.matmul(ag.reshape(alpha, (b, n, 1, m)), cat)       # (b, n, 1, d_l)
    return ag.reshape(pooled, (b, n, cat.shape[-1]))


def list_level_self_attention(lists: Tensor) -> Tensor:
    """Scaled self-attention across the n list vectors: (b, n, d_l)."""
    d_l = lists.shape[-1]
    attn = ag.softmax(ag.matmul(lists, ag.transpose(lists)) / math.sqrt(d_l), axis=-1)
    return ag.matmul(attn, lists)


def list_level_aggregation(lists: Tensor, params: AggregationParams) -> Tensor:
    """Pool the re-weighted list vectors into the page vector: (b, d_l)."""
    b, n, d_l = lists.shape
    v = ag.tanh(ag.matmul(lists, params.w_p) + params.b_p)
    beta = ag.softmax(ag.reshape(ag.matmul(v, params.q_list), (b, n)), axis=-1)
    pooled = ag.matmul(ag.reshape(beta, (b, 1, n)), lists)
    return ag.reshape(pooled, (b, d_l))

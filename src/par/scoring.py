"""Per-item dense features, mixture-of-experts scoring, loss, and reranking.

Every slot is scored from the shared page vector, its dense feature, and its
pairwise-influence vector. The page vector's part of the gates and of the
experts' first layer is computed once per page, and the [dense feature |
influence] part once per slot. Experts are shared across lists; each list
owns a gate and a tower. The tower ends in a logistic squashing so scores
live in (0, 1) as the cross-entropy loss requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError

CLAMP = 1e-12


@dataclass
class Mlp:
    """ReLU MLP: relu after every layer but the last, none on the output.

    weights[i] is (d_i, d_i+1) and biases[i] is (d_i+1,); a net stacked k times
    on a leading axis (one per list or per expert) has (k, d_i, d_i+1) weights
    and (k, d_i+1) biases.
    """

    weights: list[Tensor]
    biases: list[Tensor]


@dataclass
class MMoEParams:
    """Shared experts plus one gate and one tower per list."""

    experts: Mlp     # stacked on (E,)
    gate_w: Tensor   # (n, d_z, E), the page vector's d_l rows first
    gate_b: Tensor   # (n, E)
    towers: Mlp      # stacked on (n,)


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    limit = math.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def mlp(x: Tensor, params: Mlp) -> Tensor:
    """(..., d_in) -> (..., d_out); a stacked net maps (..., k, rows, d_in)."""
    out = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if b.ndim == 2:
            b = ag.reshape(b, (b.shape[0], 1, b.shape[1]))
        out = ag.matmul(out, w) + b
        if i < last:
            out = ag.relu(out)
    return out


def dense_network(x_emb: Tensor, params: Mlp) -> Tensor:
    """Shared MLP per item: (b, n, m, d_x) -> (b, n, m, d_r)."""
    return mlp(x_emb, params)


def mmoe_score(page_vec: Tensor, dense_feat: Tensor, influence: Tensor,
               params: MMoEParams) -> Tensor:
    """Mixture-of-experts scores for every slot: (b, n, m) in (0, 1).

    page_vec: (b, d_l), shared by all of a page's slots; dense_feat:
    (b, n, m, d_r); influence: (b, n, m, d_o). The gates and the experts read
    the page vector once per page and the [dense_feat | influence] columns per
    slot: a list's gate logits are page @ gate_w[:, :d_l] + slot @
    gate_w[:, d_l:] + gate_b, softmax-normalized over the experts, and the
    experts run in `ag.expert_mixture`; each list's tower squashes its
    combined expert output.
    """
    b, n, m, _ = dense_feat.shape
    w, d_l, n_experts = params.gate_w, page_vec.shape[-1], params.gate_w.shape[-1]
    if w.shape[0] != n:
        raise ContractError(f"params built for {w.shape[0]} lists, batch has {n}")
    slot = ag.concat([dense_feat, influence], axis=-1)
    gate_page = ag.matmul(ag.reshape(page_vec, (b, 1, 1, d_l)),
                          ag.slice_axis(w, 0, d_l, axis=1))                 # (b, n, 1, E)
    gate_slot = ag.matmul(slot, ag.slice_axis(w, d_l, w.shape[1], axis=1))  # (b, n, m, E)
    gate_logits = gate_page + gate_slot + ag.reshape(params.gate_b, (n, 1, n_experts))
    gamma = ag.softmax(gate_logits, axis=-1)                       # (b, n, m, E)

    mixed = ag.expert_mixture(page_vec, ag.reshape(slot, (b * n * m, slot.shape[-1])),
                              ag.reshape(gamma, (b * n * m, n_experts)),
                              params.experts.weights, params.experts.biases)
    combined = ag.reshape(mixed, (b, n, m, mixed.shape[-1]))
    return ag.sigmoid(ag.reshape(mlp(combined, params.towers), (b, n, m)))


def bce_loss(y_hat: Tensor, y: np.ndarray, mask: np.ndarray) -> Tensor:
    """Binary cross-entropy over unmasked slots, mean reduction.

    Predictions are clamped to [CLAMP, 1-CLAMP] before the logs.
    """
    p = ag.clip(y_hat, CLAMP, 1.0 - CLAMP)
    y = np.asarray(y, dtype=np.float64)
    terms = Tensor(y) * ag.log(p) + Tensor(1.0 - y) * ag.log(1.0 - p)
    count = max(float(mask.sum()), 1.0)
    return -(terms * Tensor(mask)).sum() / count


def rerank(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-list display permutation: unmasked slots by score descending.

    Ties keep the incoming (initial-ranker) order; padding slots stay at the
    tail. Takes (..., n, m) scores and mask (any leading axes are pages) and
    returns integer slot indices of the same shape, sorted within each list.
    """
    if not np.all(np.isfinite(scores[mask > 0])):
        raise ContractError("rerank requires finite scores")
    return np.argsort(np.where(mask > 0, -scores, np.inf), axis=-1, kind="stable")

"""Per-item dense features, mixture-of-experts scoring, loss, and reranking.

Every slot is scored from the concatenation of the shared page vector, its
dense feature, and its pairwise-influence vector. Experts are shared across
lists; each list owns a gate and a tower. The tower ends in a logistic
squashing so scores live in (0, 1) as the cross-entropy loss requires.
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
    gate_w: Tensor   # (n, d_z, E)
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


def _slot_input(page_vec: Tensor, dense_feat: Tensor, influence: Tensor) -> Tensor:
    """Per-slot scoring input concat([page, dense_feat, influence]): (b, n, m, d_z)."""
    b, n, m, _ = dense_feat.shape
    d_l = page_vec.shape[-1]
    page = ag.broadcast_to(ag.reshape(page_vec, (b, 1, 1, d_l)), (b, n, m, d_l))
    return ag.concat([page, dense_feat, influence], axis=-1)


def mmoe_score(page_vec: Tensor, dense_feat: Tensor, influence: Tensor,
               params: MMoEParams) -> Tensor:
    """Mixture-of-experts scores for every slot: (b, n, m) in (0, 1).

    page_vec: (b, d_l) broadcast to all slots; dense_feat: (b, n, m, d_r);
    influence: (b, n, m, d_o). Gate vectors, read from the concatenated slot
    input, are softmax-normalized over the experts; the experts take the page
    vector once per page and the [dense_feat | influence] columns per slot
    (`ag.expert_mixture`); each list's tower squashes its combined expert
    output.
    """
    b, n, m, _ = dense_feat.shape
    if params.gate_w.shape[0] != n:
        raise ContractError(f"params built for {params.gate_w.shape[0]} lists, batch has {n}")
    z = _slot_input(page_vec, dense_feat, influence)

    n_experts = params.gate_w.shape[-1]
    gate_logits = ag.matmul(z, params.gate_w) + ag.reshape(params.gate_b, (n, 1, n_experts))
    gamma = ag.softmax(gate_logits, axis=-1)                       # (b, n, m, E)

    slot = ag.concat([dense_feat, influence], axis=-1)
    mixed = ag.expert_mixture(page_vec, ag.reshape(slot, (b * n * m, slot.shape[-1])),
                              ag.reshape(gamma, (b * n * m, n_experts)),
                              params.experts.weights, params.experts.biases)
    combined = ag.reshape(mixed, (b, n, m, mixed.shape[-1]))
    return ag.sigmoid(ag.reshape(mlp(combined, params.towers), (b, n, m)))


def single_mlp_score(page_vec: Tensor, dense_feat: Tensor, influence: Tensor,
                     params: Mlp) -> Tensor:
    """Shared-MLP head (mixture ablation): (b, n, m) in (0, 1)."""
    b, n, m, _ = dense_feat.shape
    z = _slot_input(page_vec, dense_feat, influence)
    return ag.sigmoid(ag.reshape(mlp(z, params), (b, n, m)))


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

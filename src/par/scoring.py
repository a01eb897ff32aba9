"""Per-item dense features, mixture-of-experts scoring, loss, and reranking.

Every slot is scored from the concatenation of the shared page vector, its
dense feature, and its pairwise-influence vector. Experts are shared across
lists; each list owns a gate and a tower. The tower ends in a logistic
squashing so scores live in (0, 1) as the cross-entropy loss requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError

CLAMP = 1e-12


@dataclass
class DenseNetParams:
    """Shared MLP over item embeddings; relu hidden layers, linear output."""

    weights: list[Tensor]  # [(d_in, h1), (h1, h2), ...]
    biases: list[Tensor]


@dataclass
class MMoEParams:
    """Shared experts plus one gate and one tower per list."""

    expert_weights: list[Tensor]  # stacked (E, d_in, d_out) per layer
    expert_biases: list[Tensor]   # stacked (E, d_out)
    gate_w: Tensor                # (n, d_z, E)
    gate_b: Tensor                # (n, E)
    tower_weights: list[Tensor]   # stacked (n, d_in, d_out) per layer
    tower_biases: list[Tensor]    # stacked (n, d_out)


@dataclass
class SingleMlpParams:
    """Shared replacement head used by the no-mixture ablation."""

    weights: list[Tensor]
    biases: list[Tensor]


def dense_network(x_emb: Tensor, params: DenseNetParams) -> Tensor:
    """Shared MLP per item: (b, n, m, d_x) -> (b, n, m, d_r)."""
    out = x_emb
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = ag.matmul(out, w) + b
        if i < last:
            out = ag.relu(out)
    return out


def mmoe_score(page_vec: Tensor, dense_feat: Tensor, influence: Tensor,
               params: MMoEParams) -> Tensor:
    """Mixture-of-experts scores for every slot: (b, n, m) in (0, 1).

    page_vec: (b, d_l) broadcast to all slots; dense_feat: (b, n, m, d_r);
    influence: (b, n, m, d_o). Gate vectors are softmax-normalized over the
    experts; each list's tower squashes its combined expert output.
    """
    b, n, m, _ = dense_feat.shape
    if params.gate_w.shape[0] != n:
        raise ContractError(f"params built for {params.gate_w.shape[0]} lists, batch has {n}")
    d_l = page_vec.shape[-1]
    page = ag.broadcast_to(ag.reshape(page_vec, (b, 1, 1, d_l)), (b, n, m, d_l))
    z = ag.concat([page, dense_feat, influence], axis=-1)          # (b, n, m, d_z)

    n_experts = params.gate_w.shape[-1]
    gate_logits = ag.matmul(z, params.gate_w) + ag.reshape(params.gate_b, (n, 1, n_experts))
    gamma = ag.softmax(gate_logits, axis=-1)                       # (b, n, m, E)

    rows = b * n * m
    mixed = ag.expert_mixture(ag.reshape(z, (rows, z.shape[-1])),
                              ag.reshape(gamma, (rows, n_experts)),
                              params.expert_weights, params.expert_biases)
    combined = ag.reshape(mixed, (b, n, m, mixed.shape[-1]))

    return ag.sigmoid(_tower_forward(combined, params.tower_weights, params.tower_biases))


def _tower_forward(x: Tensor, weights: list[Tensor], biases: list[Tensor]) -> Tensor:
    b, n, m, _ = x.shape
    out = x
    last = len(weights) - 1
    for i, (w, tb) in enumerate(zip(weights, biases)):
        out = ag.matmul(out, w) + ag.reshape(tb, (n, 1, tb.shape[-1]))
        if i < last:
            out = ag.relu(out)
    return ag.reshape(out, (b, n, m))


def single_mlp_score(page_vec: Tensor, dense_feat: Tensor, influence: Tensor,
                     params: SingleMlpParams) -> Tensor:
    """Shared-MLP head (mixture ablation): (b, n, m) in (0, 1)."""
    b, n, m, _ = dense_feat.shape
    d_l = page_vec.shape[-1]
    page = ag.broadcast_to(ag.reshape(page_vec, (b, 1, 1, d_l)), (b, n, m, d_l))
    z = ag.concat([page, dense_feat, influence], axis=-1)
    out = z
    last = len(params.weights) - 1
    for i, (w, sb) in enumerate(zip(params.weights, params.biases)):
        out = ag.matmul(out, w) + sb
        if i < last:
            out = ag.relu(out)
    return ag.sigmoid(ag.reshape(out, (b, n, m)))


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
    tail. Returns an (n, m) integer array of slot indices per list.
    """
    if not np.all(np.isfinite(scores[mask > 0])):
        raise ContractError("rerank requires finite scores")
    n, m = scores.shape
    perms = np.empty((n, m), dtype=np.int64)
    for i in range(n):
        order = np.argsort(-scores[i], kind="stable")
        real = [k for k in order if mask[i, k] > 0]
        pads = [k for k in range(m) if mask[i, k] == 0]
        perms[i] = real + pads
    return perms

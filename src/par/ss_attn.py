"""Spatial-scaled multi-head attention over all page slots.

Pairwise attention logits are passed through softplus (keeping them
non-negative so distance damping cannot flip their sign) and multiplied by a
learnable, strictly decreasing function of the slots' Manhattan distance
before the usual scaled softmax. Each head owns one steepness scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError
from .hds_attn import _key_mask_bias

SIGMA = 0.1  # distance normalizer of the influence factor


@dataclass
class SSAttnParams:
    """Per-head projections, steepness scalars, and the output projection."""

    w_q: Tensor          # (B, d_x, d_a)
    w_k: Tensor          # (B, d_x, d_a)
    w_v: Tensor          # (B, d_x, d_a)
    v: Tensor | None     # (B,) steepness; None when distance scaling is ablated
    w_o: Tensor          # (B * d_a, d_o)


def learnable_sigmoid(d, v) -> Tensor:
    """Distance -> influence factor (1 + e^v) / (1 + e^(v + SIGMA*d)).

    Computed as exp(softplus(v) - softplus(v + SIGMA*d)), which is exact
    (1 + e^x == e^softplus(x)) and overflow-safe for any v. Equals 1 at d=0
    and decreases strictly in d. Differentiable in v; d is treated as a
    constant.
    """
    v = ag.as_tensor(v)
    d = np.asarray(d, dtype=np.float64)
    shifted = v + SIGMA * d  # a constant: takes v's dtype
    return ag.exp(ag.softplus(v) - ag.softplus(shifted))


def spatial_scaled_attention(x_flat: Tensor, distances: np.ndarray,
                             params: SSAttnParams, mask: np.ndarray) -> Tensor:
    """Multi-head attention over the nm page slots.

    x_flat: (b, nm, d_x); distances: (nm, nm); mask: (b, nm) slot mask.
    With steepness params, logits are softplus-rectified and multiplied by
    each head's influence factor; without them (the distance scaling
    ablated) plain dot-product logits are used. Both run through the one
    fused op `ag.spatial_attention`, scaled by 1/sqrt(d_a). Padding slots are
    masked as keys, and their output rows are zeroed so they contribute
    nothing downstream. Returns (b, nm, d_o).
    """
    b, nm, _ = x_flat.shape
    n_heads, _, d_a = params.w_q.shape
    if distances.shape != (nm, nm):
        raise ContractError(f"distance matrix {distances.shape} does not match {nm} slots")

    x4 = ag.reshape(x_flat, (b, 1, nm, x_flat.shape[-1]))
    q = ag.matmul(x4, params.w_q)                                  # (b, B, nm, d_a)
    k = ag.matmul(x4, params.w_k)
    val = ag.matmul(x4, params.w_v)

    factor = None
    if params.v is not None:
        factor = learnable_sigmoid(distances, ag.reshape(params.v, (n_heads, 1, 1)))
    bias = _key_mask_bias(mask)[:, None, None, :]                  # keys axis
    heads = ag.spatial_attention(q, k, val, bias, factor)          # (b, B, nm, d_a)
    merged = ag.reshape(ag.transpose(heads, (0, 2, 1, 3)), (b, nm, n_heads * d_a))
    out = ag.matmul(merged, params.w_o)                            # (b, nm, d_o)
    return out * mask[:, :, None]

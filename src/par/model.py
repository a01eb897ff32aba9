"""Full reranking model: parameter construction, forward pass, loss.

Ablated components are absent from the parameter inventory, not merely
skipped: their contribution to the scoring input is a zero block of the same
width, so output shapes never change across variants.

The forward pass scores relevance; `predict` and reranking sort by it. The
forward computes in its parameters' dtype: float64 for training, float32 for
scoring pages (`float32_copy`).
Training fits the logged clicks as relevance times a per-slot examination
probability (`exam.logit`, in every variant), so the position bias of the
ranking the clicks were logged under goes into the examination table and
not into the relevance scores (position-bias-aware learning, as in PAL,
Guo et al. 2019, and unbiased learning to rank, Joachims et al. 2017).
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Callable, Mapping

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import VARIANTS, TrainConfig
from .data_oracle import stream
from .embedding import (EmbeddingTable, PageBatch, embed_history, embed_page,
                        embedding_rows)
from .errors import ConfigError, ContractError
from .hds_attn import (AggregationParams, DualSideParams, candidate_self_attention,
                       dual_side_attention, item_level_aggregation,
                       list_level_aggregation, list_level_self_attention)
from .layout import PageLayout, manhattan_distance_matrix
from .scoring import MMoEParams, Mlp, bce_loss, dense_network, glorot, mmoe_score
from .ss_attn import SSAttnParams, spatial_scaled_attention


def _vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    limit = 1.0 / math.sqrt(dim)
    return rng.uniform(-limit, limit, size=(dim, 1))


class ParModel:
    """Holds every trainable tensor and runs the page-scoring forward pass.

    Each parameter is initialized from a stream derived from (seed, name), so
    parameters shared between ablation variants start from identical values
    and variant comparisons are paired. With `stored` (name -> array, e.g. a
    checkpoint's tensors) every parameter takes a copy of its stored value
    instead and no initial value is drawn.
    """

    def __init__(self, config: TrainConfig, layout: PageLayout, seed: int,
                 stored: Mapping[str, np.ndarray] | None = None):
        if layout.n != config.n or layout.m != config.m:
            raise ConfigError(f"layout ({layout.n}x{layout.m}) does not match "
                              f"config ({config.n}x{config.m})")
        self.config = config
        self.layout = layout
        self.seed = int(seed)
        self.distances = manhattan_distance_matrix(layout)
        self._params: dict[str, Tensor] = {}
        self._stored = stored
        c, off = config, VARIANTS[config.variant]

        self.item_table = self._table("emb.item", c.vocab_size, c.d_x)
        self.category_table = self._table("emb.category", c.n_categories, c.d_x)

        self.dual: DualSideParams | None = None
        self.agg: AggregationParams | None = None
        if "hdsa" not in off:
            if "dsa" not in off:
                self.dual = DualSideParams(
                    w_a=self._glorot("hds.w_a", (c.n, c.d_h, c.d_x)),
                    w_x=self._glorot("hds.w_x", (c.n, c.d_x, c.m)),
                    w_h=self._glorot("hds.w_h", (c.n, c.d_h, c.m)),
                )
            self.agg = AggregationParams(
                w_l=self._glorot("hds.w_l", (c.d_l, c.d_l)),
                b_l=self._zeros("hds.b_l", (c.d_l,)),
                q_item=self._query("hds.q_item", c.d_l),
                w_p=self._glorot("hds.w_p", (c.d_l, c.d_l)),
                b_p=self._zeros("hds.b_p", (c.d_l,)),
                q_list=self._query("hds.q_list", c.d_l),
            )

        self.ss: SSAttnParams | None = None
        if "ssa" not in off:
            steep = None if "scale" in off else self._zeros("ss.v", (c.heads,))
            self.ss = SSAttnParams(
                w_q=self._glorot("ss.w_q", (c.heads, c.d_x, c.d_a)),
                w_k=self._glorot("ss.w_k", (c.heads, c.d_x, c.d_a)),
                w_v=self._glorot("ss.w_v", (c.heads, c.d_x, c.d_a)),
                v=steep,
                w_o=self._glorot("ss.w_o", (c.heads * c.d_a, c.d_o)),
            )

        self.dense: Mlp | None = None
        if "dn" not in off:
            self.dense = self._mlp("dense.w", "dense.b", (c.d_x,) + c.dense_hidden + (c.d_r,))

        d_z = c.d_l + c.d_r + c.d_o
        self.moe: MMoEParams | None = None
        self.head: Mlp | None = None
        if "mmoe" not in off:
            self.moe = MMoEParams(
                experts=self._mlp("moe.expert_w", "moe.expert_b", (d_z,) + c.expert_hidden,
                                  stack=(c.experts,)),
                gate_w=self._glorot("moe.gate_w", (c.n, d_z, c.experts)),
                gate_b=self._zeros("moe.gate_b", (c.n, c.experts)),
                towers=self._mlp("moe.tower_w", "moe.tower_b",
                                 (c.expert_hidden[-1],) + c.tower_hidden + (1,), stack=(c.n,)),
            )
        else:
            self.head = self._mlp("head.w", "head.b", (d_z,) + c.expert_hidden + (1,),
                                  stack=(1,))

        # a training term, not a component: no ablation removes it
        self.exam_logit = self._zeros("exam.logit", (c.n, c.m))
        # a drawn table takes the split's start at the first `loss` call
        self._exam_pending = stored is None
        if stored is not None and set(stored) != set(self._params):
            extra = sorted(set(stored) - set(self._params))
            raise ContractError(f"stored tensors {extra} are not parameters of the model")
        self._stored = None  # keep no reference to the caller's arrays

    # -- parameter bookkeeping ------------------------------------------

    def _stream(self, name: str) -> np.random.Generator:
        return stream(self.seed, zlib.crc32(name.encode()))

    def _register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name '{name}'")
        self._params[name] = tensor
        return tensor

    def _new(self, name: str, shape: tuple[int, ...],
             draw: Callable[[np.random.Generator], np.ndarray] | None) -> Tensor:
        """The parameter `name`: its stored value, else drawn (zeros if no `draw`)."""
        if self._stored is None:
            values = np.zeros(shape) if draw is None else draw(self._stream(name))
        else:
            if name not in self._stored:
                raise ContractError(f"stored tensors lack '{name}', a parameter of the model")
            values = self._stored[name]
            if values.shape != shape:
                raise ContractError(f"stored tensor '{name}' has shape {values.shape}, "
                                    f"model expects {shape}")
            values = values.copy()
        return self._register(name, Tensor(values, requires_grad=True))

    def _glorot(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._new(name, shape, lambda rng: glorot(rng, shape))

    def _zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._new(name, shape, None)

    def _query(self, name: str, dim: int) -> Tensor:
        return self._new(name, (dim, 1), lambda rng: _vector(rng, dim))

    def _table(self, name: str, vocab_size: int, dim: int) -> EmbeddingTable:
        return EmbeddingTable(self._new(name, (vocab_size - 1, dim),
                                        lambda rng: embedding_rows(rng, vocab_size, dim)))

    def _mlp(self, w_name: str, b_name: str, dims: tuple[int, ...],
             stack: tuple[int, ...] = ()) -> Mlp:
        """Glorot weights then zero biases, named w_name{i} and b_name{i}."""
        layers = range(len(dims) - 1)
        return Mlp(weights=[self._glorot(f"{w_name}{i}", stack + (dims[i], dims[i + 1]))
                            for i in layers],
                   biases=[self._zeros(f"{b_name}{i}", stack + (dims[i + 1],))
                           for i in layers])

    @property
    def params(self) -> dict[str, Tensor]:
        return self._params

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    # -- forward ----------------------------------------------------------

    def forward(self, batch: PageBatch) -> Tensor:
        """Score every slot's relevance: (b, n, m) in (0, 1).

        An ablated component is one whose parameters `__init__` did not build.
        """
        c = self.config
        b, n, m = batch.items.shape
        if (n, m) != (c.n, c.m):
            raise ConfigError(f"batch shaped {n}x{m} but model built for {c.n}x{c.m}")

        x_emb = embed_page(batch, self.item_table, self.category_table)

        def zeros(*shape: int) -> Tensor:  # an ablated block, in the parameters' dtype
            return Tensor(np.zeros(shape, dtype=x_emb.values.dtype))

        if self.agg is None:
            page_vec = zeros(b, c.d_l)
        else:
            if self.dual is None:
                x_t, h_t = candidate_self_attention(x_emb, batch.mask), zeros(b, n, m, c.d_h)
            else:
                h_emb = embed_history(batch, self.item_table, self.category_table)
                x_t, h_t = dual_side_attention(x_emb, h_emb, self.dual,
                                               batch.mask, batch.history_mask)
            pooled = item_level_aggregation(x_t, h_t, self.agg, batch.mask)
            page_vec = list_level_aggregation(list_level_self_attention(pooled), self.agg)

        if self.ss is None:
            influence = zeros(b, n, m, c.d_o)
        else:
            flat = ag.reshape(x_emb, (b, n * m, c.d_x))
            out = spatial_scaled_attention(flat, self.distances, self.ss,
                                           batch.mask.reshape(b, n * m))
            influence = ag.reshape(out, (b, n, m, c.d_o))

        if self.dense is None:
            dense_feat = zeros(b, n, m, c.d_r)
        else:
            dense_feat = dense_network(x_emb, self.dense)

        if self.moe is not None:
            return mmoe_score(page_vec, dense_feat, influence, self.moe)
        # the mixture ablation's one shared network: a one-expert stack, its gate all ones
        slot = ag.reshape(ag.concat([dense_feat, influence], axis=-1), (b * n * m, -1))
        ones = Tensor(np.ones((b * n * m, 1), dtype=slot.values.dtype))
        out = ag.expert_mixture(page_vec, slot, ones, self.head.weights, self.head.biases)
        return ag.sigmoid(ag.reshape(out, (b, n, m)))

    def loss(self, batch: PageBatch) -> tuple[Tensor, Tensor]:
        """Masked mean binary cross-entropy of the clicks, and the relevance scores.

        A click is fit as `forward(batch) * sigmoid(exam.logit)`: the item's
        relevance times the probability that its slot (list, position) is
        examined, broadcast over pages. On a drawn (not stored) model, the
        first call first sets the table to `batch.exam_start` when the batch
        carries one; later calls, and models built from stored tensors,
        never reset it.
        """
        if self._exam_pending:
            self._exam_pending = False
            if batch.exam_start is not None:
                self.exam_logit.values = batch.exam_start.copy()
        scores = self.forward(batch)
        clicks = scores * ag.sigmoid(self.exam_logit)
        return bce_loss(clicks, batch.clicks, batch.mask), scores

    def predict(self, batch: PageBatch) -> np.ndarray:
        return self.forward(batch).values

    def float32_copy(self) -> "ParModel":
        """The same model with float32 parameters, whose forward runs in float32.

        Refuses, naming it, a parameter with a value beyond the float32 range
        (or an infinite one), which the cast would turn into an infinity.
        """
        with np.errstate(over="ignore"):  # an overflow leaves an infinity, refused below
            tensors = {name: p.values.astype(np.float32) for name, p in self._params.items()}
        if np.isinf(np.concatenate([values.ravel() for values in tensors.values()])).any():
            name = next(name for name, values in tensors.items() if np.isinf(values).any())
            raise ContractError(f"tensor '{name}' holds a value outside the float32 range "
                                f"(|x| > {np.finfo(np.float32).max:.3g})")
        return ParModel(self.config, self.layout, self.seed, tensors)

"""Id-to-vector embedding tables and the batched page/history inputs.

Id 0 is the padding id on both the candidate and history side. The zero row
is not a parameter: tables store rows 1..vocab-1 and the lookup reads zeros
for id 0, so padding can never drift or receive gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import DataError

INIT_SCALE = 0.05


def embedding_rows(rng: np.random.Generator, vocab_size: int, dim: int) -> np.ndarray:
    """Initial (vocab_size - 1, dim) rows of a table: ids 1..vocab_size-1."""
    if vocab_size < 2:
        raise DataError(f"vocab_size must be >= 2 (padding + 1 id), got {vocab_size}")
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab_size - 1, dim))


class EmbeddingTable:
    """Trainable lookup table with a pinned all-zero padding row.

    `weights` holds the rows of ids 1..vocab_size-1: (vocab_size - 1, dim).
    """

    def __init__(self, weights: Tensor):
        rows, dim = weights.shape
        if rows < 1:
            raise DataError(f"vocab_size must be >= 2 (padding + 1 id), got {rows + 1}")
        self.vocab_size = rows + 1
        self.dim = dim
        self.weights = weights

    def lookup(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.size:
            bad = ids[(ids < 0) | (ids >= self.vocab_size)]
            if bad.size:
                raise DataError(f"id {int(bad.flat[0])} outside vocabulary of size {self.vocab_size}")
        return ag.gather(self.weights, ids)


@dataclass
class PageBatch:
    """One batch of pages, padded to fixed (n, m, t).

    Padded slots carry id 0, category 0, label 0, mask 0. All arrays share
    the leading batch dimension, except `exam_start`: the (n, m) start of the
    model's per-slot examination logits, computed once from the whole split
    (`data_oracle.examination_start`) and kept by `select`, so every batch
    drawn from a split carries the split's start. It is None for a batch
    that no split produced.
    """

    items: np.ndarray              # (b, n, m) int
    categories: np.ndarray         # (b, n, m) int
    history: np.ndarray            # (b, t) int
    history_categories: np.ndarray  # (b, t) int
    clicks: np.ndarray             # (b, n, m) float in {0, 1}
    mask: np.ndarray               # (b, n, m) float in {0, 1}
    history_mask: np.ndarray       # (b, t) float in {0, 1}
    exam_start: np.ndarray | None = None  # (n, m) float logits

    def __post_init__(self):
        b, n, m = self.items.shape
        if self.clicks.shape != (b, n, m) or self.mask.shape != (b, n, m):
            raise DataError("clicks/mask must match the item matrix shape")
        if self.exam_start is not None and self.exam_start.shape != (n, m):
            raise DataError(f"exam_start must be shaped {n}x{m}, got {self.exam_start.shape}")
        if self.history.shape != self.history_mask.shape:
            raise DataError("history and history_mask must match")
        pad = self.mask == 0
        if np.any(self.items[pad] != 0) or np.any(self.clicks[pad] != 0):
            raise DataError("padded slots must carry id 0 and label 0")
        if np.any(self.history[self.history_mask == 0] != 0):
            raise DataError("padded history slots must carry id 0")

    @property
    def size(self) -> int:
        return self.items.shape[0]

    def select(self, idx: np.ndarray) -> "PageBatch":
        return PageBatch(self.items[idx], self.categories[idx], self.history[idx],
                         self.history_categories[idx], self.clicks[idx],
                         self.mask[idx], self.history_mask[idx], self.exam_start)


def embed_page(batch: PageBatch, item_table: EmbeddingTable,
               category_table: EmbeddingTable) -> Tensor:
    """Embed the candidate matrix: (b, n, m) ids -> (b, n, m, d)."""
    return item_table.lookup(batch.items) + category_table.lookup(batch.categories)


def embed_history(batch: PageBatch, item_table: EmbeddingTable,
                  category_table: EmbeddingTable) -> Tensor:
    """Embed the history list: (b, t) ids -> (b, t, d)."""
    return item_table.lookup(batch.history) + category_table.lookup(batch.history_categories)

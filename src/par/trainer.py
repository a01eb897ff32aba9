"""Training, checkpointing, evaluation pipeline, and gradient audit.

Everything is deterministic given (seed, config, dataset): parameter init,
shuffle order, and click sampling all come from seeds derived off the config
seed, and batch reductions run in a fixed order.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import AdamState, GradCheckReport, finite_diff_check
from .config import TrainConfig, config_from_dict
from .data_oracle import (LIST_FIELDS, Catalog, ClickOracle, PageRecord, PageTable, atomic_write,
                          displayed_grid, fit_shape, pages_to_batch)
from .data_oracle import stream as _rng
from .embedding import PageBatch
from .errors import ConfigError, ContractError, DataError
from .layout import PageLayout
from .metrics import MetricReport, compute_report
from .model import ParModel
from .scoring import rerank

CHECKPOINT_MAGIC = b"PARCKPT1"

# seed-stream tags
_SHUFFLE, _CLICKS, _GRADCHECK = 0x102, 0x103, 0x104

EVAL_SEED = 90210  # the seed of evaluate's click draws unless one is given


# -- checkpoints ----------------------------------------------------------------


@dataclass
class Checkpoint:
    """Named-tensor container with config snapshot and training history."""

    config: TrainConfig
    epoch: int
    loss_history: list[float]
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        header = {
            "config": self.config.to_dict(),
            "epoch": self.epoch,
            "loss_history": self.loss_history,
            "tensors": [{"name": name, "shape": list(arr.shape)}
                        for name, arr in self.tensors.items()],
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                           for arr in self.tensors.values())
        return CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        if blob[:8] != CHECKPOINT_MAGIC:
            raise ContractError("not a checkpoint file (bad magic)")
        if len(blob) < 12:
            raise ContractError("truncated checkpoint: header length missing")
        (head_len,) = struct.unpack("<I", blob[8:12])
        offset = 12 + head_len
        if len(blob) < offset:
            raise ContractError(f"truncated checkpoint: header of {head_len} bytes, "
                                f"{len(blob) - 12} present")
        try:
            header = json.loads(blob[12:offset].decode())
            shapes = {meta["name"]: meta["shape"] for meta in header["tensors"]}
            if not all(isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
                       for shape in shapes.values()):
                raise ContractError("corrupt checkpoint header: a tensor shape is not a list "
                                    "of non-negative ints")
            need = 8 * sum(math.prod(shape) for shape in shapes.values())
            checkpoint = cls(config=config_from_dict(header["config"]), epoch=header["epoch"],
                             loss_history=list(header["loss_history"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise ContractError(f"corrupt checkpoint header: {exc!r}") from None
        if len(blob) - offset != need:
            raise ContractError(f"checkpoint payload has {len(blob) - offset} bytes, "
                                f"header shapes need {need}")
        for name, shape in shapes.items():
            count = math.prod(shape)
            raw = blob[offset:offset + 8 * count]
            checkpoint.tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            offset += 8 * count
        return checkpoint

    def save(self, path: str | Path) -> None:
        atomic_write(path, self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        try:
            blob = Path(path).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read checkpoint {path}: {exc.strerror}") from None
        return cls.from_bytes(blob)

    def build_model(self) -> ParModel:
        return ParModel(self.config, self.config.build_layout(), self.config.seed, self.tensors)


def _snapshot(model: ParModel, config: TrainConfig, epoch: int,
              loss_history: list[float]) -> Checkpoint:
    return Checkpoint(config=config, epoch=epoch, loss_history=list(loss_history),
                      tensors={name: p.values.copy() for name, p in model.params.items()})


# -- training --------------------------------------------------------------------


_BINARY = frozenset({0, 1})


def validate_dataset(config: TrainConfig, pages: PageTable, catalog: Catalog) -> None:
    """Check every page against the config's layout and the catalog.

    One pass over the table's arrays finds the pages that fail a check, and
    `_check_page` names the first one's first failure.
    """
    layout = config.build_layout()
    if catalog.vocab_size != config.vocab_size or catalog.themes != config.themes:
        raise ConfigError(f"catalog ({catalog.themes} themes x {catalog.items_per_theme}) "
                          f"does not match config ({config.themes} x {config.items_per_theme})")
    if not pages:
        raise ConfigError("empty page set")
    bad = _failing_pages(pages, layout, catalog.vocab_size)
    if bad.any():
        k = int(np.argmax(bad))
        _check_page(k, pages[k], layout, catalog.vocab_size)


def _failing_pages(pages: PageTable, layout: PageLayout, vocab: int) -> np.ndarray:
    """(P,) bool: the pages `_check_page` rejects.

    A page whose lists have the layout's lengths and cover them with rel,
    clicks and init_order holds all its values within the layout's (n, m)
    slots, so the value checks read the table cut to that shape.
    """
    count, n, m = len(pages), layout.n, layout.m
    slot = np.arange(m)

    def within(size: np.ndarray) -> np.ndarray:
        return slot < size[..., None]

    outside = (pages.history < 1) | (pages.history >= vocab)
    bad = np.any(outside & (np.arange(pages.history.shape[1]) < pages.history_len[:, None]),
                 axis=1)
    bad |= pages.list_count != n
    sizes = fit_shape(pages.lengths, (count, n, len(LIST_FIELDS)))
    items_len, rel_len, order_len, clicks_len = (
        sizes[..., LIST_FIELDS.index(f)] for f in ("items", "rel", "init_order", "clicks"))
    items, rel, order, clicks = (fit_shape(getattr(pages, f), (count, n, m))
                                 for f in ("items", "rel", "init_order", "clicks"))
    sorted_order = np.sort(np.where(within(order_len), order, m), axis=-1)
    # no clicks fails `clicks_len != items_len`, as every layout list holds an item
    failing = ((items_len != np.array(layout.lengths))
               | (rel_len != items_len) | (clicks_len != items_len) | (order_len != items_len)
               | np.any(within(items_len) & (sorted_order != slot), axis=-1)
               | np.any(within(rel_len) & (rel != 0) & (rel != 1), axis=-1)
               | np.any(within(clicks_len) & (clicks != 0) & (clicks != 1), axis=-1)
               | np.any(within(items_len) & ((items < 1) | (items >= vocab)), axis=-1))
    return bad | failing.any(axis=1)


def _check_page(k: int, page: PageRecord, layout: PageLayout, vocab: int) -> None:
    """Raise the error of page k's first failed check."""
    if page.history and not 1 <= min(page.history) <= max(page.history) < vocab:
        raise DataError(f"page {k} history holds item ids outside 1..{vocab - 1}")
    if len(page.lists) != layout.n:
        raise ConfigError(f"page {k} has {len(page.lists)} lists, config expects {layout.n}")
    for i, lst in enumerate(page.lists):
        length = len(lst.items)
        if length != layout.lengths[i]:
            raise ConfigError(f"page {k} list {i} has {length} items, layout expects "
                              f"{layout.lengths[i]}")
        if not lst.clicks:
            raise ConfigError(f"page {k} carries no click labels; run labeling first")
        if (len(lst.rel) != length or len(lst.clicks) != length
                or sorted(lst.init_order) != list(range(length))):
            raise DataError(f"page {k} list {i}: rel, clicks and init_order must cover "
                            f"its {length} items")
        if not (_BINARY.issuperset(lst.rel) and _BINARY.issuperset(lst.clicks)):
            raise DataError(f"page {k} list {i}: rel and clicks must be 0 or 1, got "
                            f"rel {lst.rel!r:.60}, clicks {lst.clicks!r:.60}")
        if not 1 <= min(lst.items) <= max(lst.items) < vocab:
            raise DataError(f"page {k} list {i} holds item ids outside 1..{vocab - 1}")


def train(config: TrainConfig, pages: PageTable, catalog: Catalog) -> Checkpoint:
    """Fit the model on labeled pages; deterministic for a given seed."""
    validate_dataset(config, pages, catalog)
    layout = config.build_layout()
    model = ParModel(config, layout, config.seed)
    data = pages_to_batch(pages, catalog, layout, config.t)
    loss_history = ag.fit(list(model.params.values()),
                          lambda idx: model.loss(data.select(idx))[0], data.size,
                          config.batch_size, config.epochs, _rng(config.seed, _SHUFFLE),
                          AdamState(lr=config.learning_rate, l2=config.l2))
    return _snapshot(model, config, config.epochs, loss_history)


# -- evaluation -------------------------------------------------------------------


def _score_pages(model: ParModel, batch: PageBatch, chunk: int = 128) -> np.ndarray:
    """Float32 relevance scores of every page, `chunk` pages per forward pass.

    Scoring runs on a float32 copy of the model, made once per call: ranking
    needs the order of the scores, not their last bits, and float32 halves the
    forward's memory traffic. Training stays float64 (see README).
    """
    scorer = model.float32_copy()
    scores = []
    with ag.no_grad():
        for start in range(0, batch.size, chunk):
            sub = batch.select(np.arange(start, min(start + chunk, batch.size)))
            scores.append(scorer.predict(sub))
    return np.concatenate(scores, axis=0)


def rank_pages(checkpoint: Checkpoint, pages: PageTable, catalog: Catalog
               ) -> tuple[PageBatch, np.ndarray]:
    """Check `pages`, then the checkpoint model's `(P, n, m)` reranking of each list."""
    config = checkpoint.config
    validate_dataset(config, pages, catalog)
    batch = pages_to_batch(pages, catalog, config.build_layout(), config.t)
    return batch, rerank(_score_pages(checkpoint.build_model(), batch), batch.mask)


def evaluate(checkpoint: Checkpoint, pages: PageTable, catalog: Catalog,
             eval_seed: int = EVAL_SEED, relevance_source: str = "labels"
             ) -> dict[str, MetricReport]:
    """Score, rerank, re-query the oracle, and compute metrics.

    Returns one report for the untouched initial order (INIT) and one for the
    checkpoint's variant. Each arrangement is one oracle call over all pages,
    and its clicks are one draw over all pages from the arm's own stream of
    eval_seed, so INIT and the model face identical click noise protocols.
    Only `utility` reads the drawn clicks.
    """
    config = checkpoint.config
    if relevance_source not in ("labels", "clicks"):
        raise ConfigError(f"relevance_source must be labels|clicks, got {relevance_source}")
    if eval_seed < 0:
        raise ConfigError(f"eval_seed must be >= 0, got {eval_seed}")
    batch, perms = rank_pages(checkpoint, pages, catalog)
    layout = config.build_layout()
    oracle = ClickOracle(catalog, layout)
    items, mask, rel = batch.items, batch.mask, displayed_grid(pages, layout, "rel")

    relevance = rel if relevance_source == "labels" else batch.clicks

    def report(arm: int, shown_items: np.ndarray, shown_rel: np.ndarray,
               shown_relevance: np.ndarray) -> MetricReport:
        probs = oracle.click_prob(shown_items, shown_rel, mask)
        drawn = oracle.sample_clicks(probs, _rng(eval_seed, _CLICKS, arm))
        return compute_report(drawn, probs, shown_relevance, mask, layout.roles, config.seed)

    def reranked(grid: np.ndarray) -> np.ndarray:
        return np.take_along_axis(grid, perms, axis=-1)

    return {
        "INIT": report(0, items, rel, relevance),
        config.variant_name(): report(1, reranked(items), reranked(rel), reranked(relevance)),
    }


# -- gradient audit ----------------------------------------------------------------


def tiny_gradcheck_config(**overrides) -> TrainConfig:
    """The small shape used for whole-model gradient verification."""
    base = dict(
        n=2, m=3, t=2, d_x=4, d_h=4, d_a=3, d_o=4, d_r=4,
        heads=2, experts=2, expert_hidden=(4, 4), tower_hidden=(3,),
        dense_hidden=(4,), themes=3, items_per_theme=4, true_dim=4,
        user_themes=2, batch_size=2, epochs=1, train_pages=4, test_pages=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _gradcheck_batch(config: TrainConfig, rng: np.random.Generator) -> PageBatch:
    b, n, m, t = 2, config.n, config.m, config.t
    items = rng.integers(1, config.vocab_size, size=(b, n, m))
    cats = rng.integers(1, config.n_categories, size=(b, n, m))
    history = rng.integers(1, config.vocab_size, size=(b, t))
    hcats = rng.integers(1, config.n_categories, size=(b, t))
    clicks = (rng.uniform(size=(b, n, m)) < 0.4).astype(float)
    mask = np.ones((b, n, m))
    hmask = np.ones((b, t))
    # exercise the padding paths
    mask[:, -1, -1] = 0.0
    items[:, -1, -1] = 0
    cats[:, -1, -1] = 0
    clicks[:, -1, -1] = 0.0
    hmask[:, -1] = 0.0
    history[:, -1] = 0
    hcats[:, -1] = 0
    return PageBatch(items, cats, history, hcats, clicks, mask, hmask)


def gradcheck(config: TrainConfig | None = None, h: float = 3e-4,
              tol_rel: float = 1e-4) -> GradCheckReport:
    """Verify analytic gradients of the entire loss against central differences.

    Runs at a well-spread random parameter point: at the timid training init
    many gradient components sit below the finite-difference noise floor
    eps*|loss|/h and relu preactivations sit within h of the kink, so no step
    size is informative there. h=3e-4 balances that noise floor against
    truncation error for this composed loss; per-op checks use h=1e-5.
    """
    config = config or tiny_gradcheck_config()
    limits = {"n": 2, "m": 3, "t": 2, "d_x": 4, "d_a": 4, "d_o": 4, "d_r": 4, "experts": 2}
    for name, cap in limits.items():
        if getattr(config, name) > cap:
            raise ConfigError(f"gradcheck needs a tiny config: {name} <= {cap}, "
                              f"got {getattr(config, name)}")
    model = ParModel(config, config.build_layout(), config.seed)
    spread = _rng(config.seed, _GRADCHECK, 1)
    for p in model.params.values():
        p.values = spread.uniform(-0.6, 0.6, size=p.shape)
    batch = _gradcheck_batch(config, _rng(config.seed, _GRADCHECK, 2))

    def loss_fn():
        loss, _ = model.loss(batch)
        return loss

    return finite_diff_check(loss_fn, model.params, h=h, tol_rel=tol_rel)

"""Synthetic multi-list pages, pointwise initial rankers, and the click oracle.

The synthetic world: items live in theme pools and carry fixed unit "true"
embeddings; each user has a latent preference vector. A list's relevant items
are the pool items the user's latent prefers most; history is drawn from the
user's preferred items across their themes, so preference is recoverable from
ids alone. The oracle click probability of a displayed item is

    relevance * 1 / (position^eta1 * list^eta2) * dissimilarity,

with 1-based position/list indices, eta1 = 0.4 and eta2 = 0.5, and
dissimilarity measured against the items currently displayed at Manhattan
distance 1. True embeddings are not visible to the reranking model; it must
learn from ids and clicks.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import TrainConfig, read_text
from .embedding import PageBatch
from .errors import ConfigError, DataError
from .layout import PageLayout, manhattan_distance_matrix
from .scoring import Mlp, glorot, mlp


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see partials.

    An unwritable path raises ConfigError naming it.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data)
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


# seed-stream tags of the world's draws
_CATALOG, _USERS, _PAGES, _RANKERS, _LABELS = 0xCA7A, 0x05E4, 0x9A6E, 0x4A4E, 0xC11C


def stream(seed: int, tag: int, *extra: int) -> np.random.Generator:
    """The generator of one (seed, tag, *extra) stream: SeedSequence of those words."""
    words = [seed, tag, *extra]
    if 0 <= min(words) and max(words) < 2**32:
        # one uint32 word per value, as SeedSequence splits the list: the same
        # stream, without the per-value int conversion (a build makes thousands)
        words = np.array(words, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


# -- catalog and users --------------------------------------------------------


def _item_themes(vocab: int, items_per_theme: int) -> np.ndarray:
    """(vocab,) theme of each id: 0 for the padding id, then items_per_theme ids per theme."""
    return np.concatenate([[0], np.arange(vocab - 1) // items_per_theme + 1])


@dataclass
class Catalog:
    """Fixed item universe: theme membership, embeddings, quality factors.

    An item's appeal to a user is latent-affinity plus the sum of two
    intrinsic quality factors, the same in every list. Initial rankers are
    fit to the affinity part only, so the quality factors are the signal a
    reranker can recover from click feedback.
    """

    themes: int
    items_per_theme: int
    true_dim: int
    seed: int
    item_theme: np.ndarray  # (vocab,) int; 0 for the padding id
    true_emb: np.ndarray    # (vocab, true_dim); row 0 zero, others unit norm
    quality: np.ndarray     # (vocab, 2) float; row 0 zero

    QUALITY_SCALE = 0.25    # matches the std of unit-vector affinities in 16d

    @classmethod
    def build(cls, themes: int, items_per_theme: int, true_dim: int, seed: int) -> "Catalog":
        rng = stream(seed, _CATALOG)
        vocab = themes * items_per_theme + 1
        emb = rng.standard_normal((vocab, true_dim))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        emb[0] = 0.0
        quality = cls.QUALITY_SCALE * rng.standard_normal((vocab, 2))
        quality[0] = 0.0
        return cls(themes, items_per_theme, true_dim, seed,
                   _item_themes(vocab, items_per_theme), emb, quality)

    def appeal(self, latent: np.ndarray, items: np.ndarray) -> np.ndarray:
        """User appeal of (..., k) items: affinity plus the quality factors.

        `latent` is (..., true_dim), its leading axes broadcast against the
        items' leading axes.
        """
        affinity = (self.true_emb[items] @ latent[..., None])[..., 0]
        return affinity + self.quality_total[items]

    @cached_property
    def quality_total(self) -> np.ndarray:
        """(vocab,) sum of each item's two quality factors."""
        return self.quality.sum(-1)

    @property
    def vocab_size(self) -> int:
        return self.themes * self.items_per_theme + 1

    @cached_property
    def pools(self) -> np.ndarray:
        """(themes, items_per_theme) item ids: row k is theme k+1's pool, in id order."""
        pools = np.arange(1, self.vocab_size).reshape(self.themes, self.items_per_theme)
        pools.flags.writeable = False  # theme_pool of one theme returns a view of a row
        return pools

    def theme_pool(self, themes) -> np.ndarray:
        """Item ids of theme pools: (..., items_per_theme) for (...) theme ids."""
        index = np.asarray(themes) - 1
        if index.min() < 0 or index.max() >= self.themes:
            raise DataError(f"theme {themes} outside 1..{self.themes}")
        return self.pools[index]

    def to_json(self) -> str:
        payload = {
            "themes": self.themes,
            "items_per_theme": self.items_per_theme,
            "true_dim": self.true_dim,
            "seed": self.seed,
            "item_theme": self.item_theme.tolist(),
            "true_emb": [[float(x) for x in row] for row in self.true_emb],
            "quality": [[float(x) for x in row] for row in self.quality],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Catalog":
        try:
            data = json.loads(text)
            catalog = cls(_int(data["themes"]), _int(data["items_per_theme"]),
                          _int(data["true_dim"]), _int(data["seed"]),
                          np.asarray(data["item_theme"], dtype=np.int64),
                          np.asarray(data["true_emb"], dtype=np.float64),
                          np.asarray(data["quality"], dtype=np.float64))
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"catalog line 1: {_reason(exc)}") from None
        vocab, dim = catalog.vocab_size, catalog.true_dim
        if (catalog.item_theme.shape != (vocab,) or catalog.true_emb.shape != (vocab, dim)
                or catalog.quality.shape != (vocab, 2)):
            raise DataError(f"catalog arrays do not fit {catalog.themes} themes x "
                            f"{catalog.items_per_theme} items of dimension {dim}")
        expected = _item_themes(vocab, catalog.items_per_theme)
        wrong = np.flatnonzero(catalog.item_theme != expected)
        if wrong.size:
            k = wrong[0]
            raise DataError(f"catalog item_theme[{k}] is {catalog.item_theme[k]}, expected "
                            f"{expected[k]} for {catalog.items_per_theme} items per theme")
        return catalog


@dataclass
class UserProfile:
    user_id: int
    latent: np.ndarray          # (true_dim,) unit vector
    themes: np.ndarray          # interacted theme ids
    history: np.ndarray         # (t,) item ids, most recent first


TOP_K = 5  # a user's history items come from their top-5 items of a theme
# pages per block of generate_pages' appeal gathers and of initial_rank's ranker
# GEMMs, which bounds their temporaries. It does not avoid BLAS stalls: on 2
# OpenBLAS threads float64 GEMMs stall in phases, and a stall is paid per call,
# whatever its rows. In such phases one (1024, 32) @ (32, 32) call took 8.0 ms,
# and initial_rank took 155-172 ms in 512-page blocks and 91-116 ms at one call
# per list, against 15-17 ms at one BLAS thread (13-16 ms in the bench).
APPEAL_CHUNK = 512
# initial rankers: hidden width, Adam learning rate, batch and epochs, std of the target noise
RANKER_HIDDEN, RANKER_LR, RANKER_BATCH, RANKER_EPOCHS, LABEL_NOISE = 32, 0.01, 256, 1, 0.1


def make_user(catalog: Catalog, user_id: int, user_themes: int, t: int,
              master_seed: int) -> UserProfile:
    """Build one user from its (master_seed, user_id) stream.

    History slot s picks a theme of the user's, then one of that theme's
    `TOP_K` items the user finds most appealing: two draws per slot, all
    2t of them in one call.
    """
    rng = stream(master_seed, _USERS, user_id)
    latent = rng.standard_normal(catalog.true_dim)
    latent /= np.linalg.norm(latent)
    themes = rng.choice(catalog.themes, size=min(user_themes, catalog.themes), replace=False) + 1
    pools = catalog.theme_pool(themes)
    order = np.argsort(-catalog.appeal(latent, pools), axis=1, kind="stable")[:, :TOP_K]
    tops = np.take_along_axis(pools, order, axis=1)
    # one call with an array of bounds draws what 2t scalar calls draw (pinned in
    # tests/test_data_oracle.py), so the stream is the per-slot loop's
    picks = rng.integers([len(themes), tops.shape[1]] * t).reshape(t, 2)
    return UserProfile(user_id, latent, themes, tops[picks[:, 0], picks[:, 1]])


# -- page records -------------------------------------------------------------


@dataclass
class ListRecord:
    theme: int
    items: list[int]          # generated (pre-ranking) order
    rel: list[int]            # aligned with `items`
    init_order: list[int]     # display position k shows items[init_order[k]]
    clicks: list[int]         # per display position
    probs: list[float]        # per display position

    def displayed_rel(self) -> list[int]:
        return [self.rel[k] for k in self.init_order]


@dataclass
class PageRecord:
    user_id: int
    history: list[int]
    lists: list[ListRecord]


LIST_FIELDS = ("items", "rel", "init_order", "clicks", "probs")  # a list's per-slot fields
PAGE_BLOCK = 512  # pages per block of the JSONL reader and writer and of record making


def fit_shape(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """`array` cut or zero-padded on each axis to `shape`."""
    if array.shape == shape:
        return array
    out = np.zeros(shape, array.dtype)
    common = tuple(slice(0, min(a, b)) for a, b in zip(array.shape, shape))
    out[common] = array[common]
    return out


@dataclass(eq=False)
class PageTable:
    """A split's pages as columns: row k of every array is page k.

    Page k has `list_count[k]` lists and `history_len[k]` history items, and
    its list i holds `lengths[k, i, f]` values of `LIST_FIELDS[f]`. Every
    entry past those counts is 0, so tables of the same pages are equal
    arrays, whatever their widths. The table is a sequence of pages:
    `table[k]` makes page k's `PageRecord`, a slice is a table of views, `+`
    concatenates and `==` compares whole tables.
    """

    user: np.ndarray         # (P,) int
    history: np.ndarray      # (P, H) int, most recent first
    history_len: np.ndarray  # (P,) int
    theme: np.ndarray        # (P, n) int
    list_count: np.ndarray   # (P,) int
    items: np.ndarray        # (P, n, m) int, generated (pre-ranking) order
    rel: np.ndarray          # (P, n, m) int, aligned with `items`
    init_order: np.ndarray   # (P, n, m) int: display slot k shows items[init_order[k]]
    clicks: np.ndarray       # (P, n, m) int, per display slot
    probs: np.ndarray        # (P, n, m) float, per display slot
    lengths: np.ndarray      # (P, n, len(LIST_FIELDS)) int

    def __len__(self) -> int:
        return len(self.user)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return PageTable(*(getattr(self, f.name)[key] for f in fields(self)))
        k = range(len(self))[key]
        return next(iter(self[k:k + 1]))

    def __iter__(self):
        for user, history, lists in self._rows():
            yield PageRecord(user, history, [ListRecord(*lst) for lst in lists])

    def __add__(self, other):
        if not isinstance(other, PageTable):
            return NotImplemented
        return _concat([self, other])

    def __eq__(self, other):
        if not isinstance(other, PageTable):
            return NotImplemented
        if len(self) != len(other):
            return False
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            shape = tuple(map(max, a.shape, b.shape))
            if not np.array_equal(fit_shape(a, shape), fit_shape(b, shape)):
                return False
        return True

    @classmethod
    def from_records(cls, records) -> "PageTable":
        """The table of any sequence of `PageRecord`s."""
        rows = [(r.user_id, r.history, [(l.theme, l.items, l.rel, l.init_order, l.clicks,
                                         l.probs) for l in r.lists]) for r in records]
        return _table_of_rows(rows, [f"page {k}" for k in range(len(rows))])

    def _rows(self):
        """(user, history, [(theme, items, rel, init_order, clicks, probs), ...]) of each
        page as Python lists cut to their lengths, one `tolist()` per array and block."""
        for lo in range(0, len(self), PAGE_BLOCK):
            block = self[lo:lo + PAGE_BLOCK]
            columns = (getattr(block, f.name).tolist() for f in fields(block))
            for user, history, history_len, themes, count, *grids, lengths in zip(*columns):
                yield user, history[:history_len], [
                    (themes[i], items[:a], rel[:b], order[:c], clicks[:d], probs[:e])
                    for i, items, rel, order, clicks, probs, (a, b, c, d, e)
                    in zip(range(count), *grids, lengths)]

    @classmethod
    def _from_rows(cls, rows: list) -> "PageTable":
        """The table of `_rows`-shaped tuples; a number outside 64 bits raises OverflowError."""
        count = len(rows)
        lists = [lst for _, _, page_lists in rows for lst in page_lists]
        list_count = np.fromiter((len(row[2]) for row in rows), np.int64, count)
        history_len = np.fromiter((len(row[1]) for row in rows), np.int64, count)
        sizes = np.array([[len(values) for values in lst[1:]] for lst in lists],
                         dtype=np.int64).reshape(len(lists), len(LIST_FIELDS))
        n, m = int(list_count.max(initial=0)), int(sizes.max(initial=0))
        listed = np.arange(n) < list_count[:, None]
        lengths = np.zeros((count, n, len(LIST_FIELDS)), dtype=np.int64)
        lengths[listed] = sizes
        theme = np.zeros((count, n), dtype=np.int64)
        theme[listed] = np.fromiter((lst[0] for lst in lists), np.int64, len(lists))
        history = np.zeros((count, int(history_len.max(initial=0))), dtype=np.int64)
        history[np.arange(history.shape[1]) < history_len[:, None]] = np.fromiter(
            chain.from_iterable(row[1] for row in rows), np.int64)
        grids = []
        for f, name in enumerate(LIST_FIELDS):
            dtype = np.float64 if name == "probs" else np.int64
            grid = np.zeros((count, n, m), dtype=dtype)
            grid[np.arange(m) < lengths[..., f, None]] = np.fromiter(
                chain.from_iterable(lst[f + 1] for lst in lists), dtype)
            grids.append(grid)
        user = np.fromiter((row[0] for row in rows), np.int64, count)
        return cls(user, history, history_len, theme, list_count, *grids, lengths)


def _table_of_rows(rows: list, names: list[str]) -> PageTable:
    """`PageTable._from_rows`; a number outside 64 bits raises DataError naming its row."""
    try:
        return PageTable._from_rows(rows)
    except OverflowError:
        for row, name in zip(rows, names):
            try:
                PageTable._from_rows([row])
            except OverflowError:
                raise DataError(f"{name}: a number outside the 64-bit range") from None
        raise


def _concat(tables: list[PageTable]) -> PageTable:
    """One table of `tables`' pages in order, each array widened to the widest."""
    columns = []
    for f in fields(PageTable):
        arrays = [getattr(table, f.name) for table in tables]
        width = tuple(map(max, zip(*(a.shape[1:] for a in arrays))))
        columns.append(np.concatenate([fit_shape(a, a.shape[:1] + width) for a in arrays]))
    return PageTable(*columns)


def generate_pages(catalog: Catalog, users: list[UserProfile], layout: PageLayout,
                   pos_per_list: int, master_seed: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One page per user: `themes` (P, n), `items` (P, n, m) and `rel` (P, n, m).

    Each page draws from its own (master_seed, user) stream: a permutation
    of the user's themes (topped up from the other themes when the user has
    fewer than n), then each list's displayed candidates from its theme's
    pool. A list's relevant items are the user's top `pos_per_list` picks by
    appeal among those candidates, ties to the earlier-drawn item; they are
    found in one pass over all pages. Items are in generated order, and
    padding slots hold 0.
    """
    n, lengths = layout.n, layout.lengths
    if catalog.themes < n:
        raise DataError(f"catalog has {catalog.themes} themes, page needs {n}")
    size = catalog.items_per_theme
    if size < max(lengths):
        raise DataError(f"theme pools have {size} items, a list needs {max(lengths)}")

    count = len(users)
    latents = np.empty((count, catalog.true_dim))
    themes = np.empty((count, n), dtype=np.int64)
    picks = np.zeros((count, n, layout.m), dtype=np.int64)  # pool offsets, generated order
    for p, user in enumerate(users):
        latents[p] = user.latent
        rng = stream(master_seed, _PAGES, user.user_id)
        chosen = rng.permutation(user.themes)[:n]
        if len(chosen) < n:
            others = np.setdiff1d(np.arange(1, catalog.themes + 1), chosen)
            chosen = np.concatenate([chosen, rng.permutation(others)[:n - len(chosen)]])
        themes[p] = chosen
        for i, length in enumerate(lengths):
            picks[p, i, :length] = rng.choice(size, size=length, replace=False)

    real = slot_mask(layout, 1)[0] > 0
    items = np.where(real, catalog.pools[themes[..., None] - 1, picks], 0)
    rel = np.zeros(items.shape, dtype=np.int64)
    for start in range(0, count, APPEAL_CHUNK):
        chunk = slice(start, start + APPEAL_CHUNK)
        appeal = catalog.appeal(latents[chunk, None, :], items[chunk])
        top = np.argsort(np.where(real, -appeal, np.inf), axis=-1, kind="stable")
        np.put_along_axis(rel[chunk], top[..., :pos_per_list], 1, axis=-1)
    return themes, items, rel


# -- initial rankers ----------------------------------------------------------


def _ranker_features(latents: np.ndarray, items: np.ndarray, layout: PageLayout,
                     catalog: Catalog) -> list[np.ndarray]:
    """[user latent, item true embedding] rows of each list: (P, length, 2*true_dim)."""
    features = []
    for i, length in enumerate(layout.lengths):
        emb = catalog.true_emb[items[:, i, :length]]
        features.append(np.concatenate([np.broadcast_to(latents[:, None], emb.shape), emb], -1))
    return features


def train_initial_rankers(features: list[np.ndarray], config: TrainConfig,
                          master_seed: int) -> list[Mlp]:
    """One pointwise ranker per list position, fit to noisy affinity targets.

    Each is one hidden layer over [user latent, item true embedding], and
    `features` holds each list's `_ranker_features` of the training pages.
    """
    rankers = []
    d = config.true_dim
    for i, list_features in enumerate(features):
        rng = stream(master_seed, _RANKERS, i)
        feats = list_features.reshape(-1, 2 * d)
        affinity = (feats[:, None, :d] @ feats[:, d:, None])[:, 0, 0]
        targets = (affinity + LABEL_NOISE * rng.standard_normal(len(feats)))[:, None]
        net = Mlp(weights=[Tensor(glorot(rng, (2 * d, RANKER_HIDDEN)), requires_grad=True),
                           Tensor(glorot(rng, (RANKER_HIDDEN, 1)), requires_grad=True)],
                  biases=[Tensor(np.zeros(RANKER_HIDDEN), requires_grad=True),
                          Tensor(np.zeros(1), requires_grad=True)])

        def loss_of(idx: np.ndarray) -> Tensor:
            err = mlp(Tensor(feats[idx]), net) - Tensor(targets[idx])
            return (err * err).sum() / len(idx)

        ag.fit(net.weights + net.biases, loss_of, len(feats), RANKER_BATCH,
               RANKER_EPOCHS, rng, ag.AdamState(lr=RANKER_LR))
        rankers.append(net)
    return rankers


def initial_rank(rankers: list[Mlp], features: list[np.ndarray], m: int) -> np.ndarray:
    """(P, n, m) display orders: each list's ranker's descending scores.

    Display slot k of list i shows generated slot `orders[p, i, k]`, and a
    padding slot keeps its own index. Each ranker scores its list position
    on all pages, from that list's `_ranker_features`, `APPEAL_CHUNK` pages
    at a time.
    """
    orders = np.tile(np.arange(m), (len(features[0]), len(features), 1))
    for i, (net, list_features) in enumerate(zip(rankers, features)):
        scores = np.empty(list_features.shape[:2])
        with ag.no_grad():
            for start in range(0, len(list_features), APPEAL_CHUNK):
                chunk = slice(start, start + APPEAL_CHUNK)
                scores[chunk] = mlp(Tensor(list_features[chunk]), net).values[..., 0]
        orders[:, i, :scores.shape[1]] = np.argsort(-scores, axis=1, kind="stable")
    return orders


# -- oracle click model --------------------------------------------------------


class ClickOracle:
    """Ground-truth click probabilities for items displayed on a layout.

    Dissimilarity is measured against the items at Manhattan distance 1.
    """

    PAGE_CHUNK = 256  # pages per gather in click_prob
    ETA1, ETA2 = 0.4, 0.5  # decay exponents of the position and the list index

    def __init__(self, catalog: Catalog, layout: PageLayout):
        self.catalog = catalog
        self.layout = layout
        n, m = layout.n, layout.m
        real = slot_mask(layout, 1).reshape(n * m) > 0
        adjacent = (manhattan_distance_matrix(layout) == 1) & real[:, None] & real[None, :]
        # slot p's k-th neighbour (in slot order) is _nbr_slot[p, k]; padding
        # entries point one past the last slot, where click_prob places a zero
        # embedding
        self._nbr_count = adjacent.sum(axis=1)
        width = max(1, int(self._nbr_count.max()))
        ordered = np.argsort(~adjacent, axis=1, kind="stable")[:, :width]
        self._nbr_slot = np.where(np.arange(width) < self._nbr_count[:, None], ordered, n * m)
        pos = np.arange(1, m + 1, dtype=np.float64)
        lst = np.arange(1, n + 1, dtype=np.float64)
        self._decay = (pos[None, :] ** -self.ETA1) * (lst[:, None] ** -self.ETA2)

    def position_decay(self, position: int, list_index: int) -> float:
        """Decay for 1-based (position-in-list, list) indices."""
        return float(position ** -self.ETA1 * list_index ** -self.ETA2)

    def click_prob(self, items: np.ndarray, rel: np.ndarray,
                   mask: np.ndarray) -> np.ndarray:
        """Oracle probabilities for displayed (..., n, m) item grids.

        Any leading axes are pages, scored PAGE_CHUNK pages at a time so the
        gathered embeddings stay bounded. The neighbour mean adds the
        neighbours in slot order and the dot products are batched
        (1, d) @ (d, 1) products, so each page gets the same bits as when it
        is scored alone.
        """
        n, m = self.layout.n, self.layout.m
        pages = items.reshape(-1, n * m)
        dissim = np.empty(pages.shape)
        for start in range(0, len(pages), self.PAGE_CHUNK):
            chunk = slice(start, start + self.PAGE_CHUNK)
            dissim[chunk] = self._dissimilarity(pages[chunk])
        probs = rel * self._decay * dissim.reshape(items.shape)
        return np.clip(probs * mask, 0.0, 1.0)

    def _dissimilarity(self, items: np.ndarray) -> np.ndarray:
        """(P, n*m) displayed items -> (P, n*m) dissimilarity to the neighbour mean."""
        nm = items.shape[1]
        # (P, n*m + 1, d) displayed embeddings plus a zero row for padding
        emb = np.zeros((len(items), nm + 1, self.catalog.true_dim))
        emb[:, :-1, :] = self.catalog.true_emb[items]
        own = emb[:, :-1, :]
        total = emb[:, self._nbr_slot[:, 0], :]
        for k in range(1, self._nbr_slot.shape[1]):
            total += emb[:, self._nbr_slot[:, k], :]
        mean = total / np.maximum(self._nbr_count, 1)[:, None]

        def dot(a, b):
            return (a[..., None, :] @ b[..., :, None])[..., 0, 0]

        norm = np.sqrt(dot(mean, mean))
        own_norm = np.maximum(np.sqrt(dot(own, own)), 1e-12)
        # isolated slots (only padding gathered) and zero-mean neighbourhoods
        # keep a neutral dissimilarity; masked slots are zeroed by click_prob
        scored = norm >= 1e-12
        cos = dot(own, mean) / np.where(scored, norm * own_norm, 1.0)
        return np.where(scored, np.clip(1.0 - cos, 0.0, 1.0), 1.0)

    def sample_clicks(self, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Independent Bernoulli draws per slot."""
        return (rng.random(probs.shape) < probs).astype(np.int64)


def label_pages(items: np.ndarray, rel: np.ndarray, mask: np.ndarray, oracle: ClickOracle,
                master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, n, m) oracle probabilities and sampled clicks of displayed grids.

    One oracle call scores every page; each page draws the uniforms of its
    clicks from its own (master_seed, page index) stream, and one comparison
    turns them all into clicks.
    """
    probs = oracle.click_prob(items, rel, mask)
    uniforms = np.empty(probs.shape)
    for idx in range(len(probs)):
        uniforms[idx] = stream(master_seed, _LABELS, idx).random(probs.shape[1:])
    return probs, (uniforms < probs).astype(np.int64)


def displayed_grid(pages: PageTable, layout: PageLayout, field: str) -> np.ndarray:
    """(P, n, m) grid of a list's per-item `field` ("items" or "rel") in displayed
    order; padding slots hold 0."""
    shape = (len(pages), layout.n, layout.m)
    shown = np.take_along_axis(fit_shape(getattr(pages, field), shape),
                               fit_shape(pages.init_order, shape), axis=-1)
    return np.where(slot_mask(layout, 1) > 0, shown, 0).astype(
        np.int64 if field == "items" else np.float64)


def slot_mask(layout: PageLayout, count: int) -> np.ndarray:
    """(count, n, m) float mask: 1 on real slots, 0 on padding."""
    real = np.arange(layout.m) < np.array(layout.lengths)[:, None]
    return np.broadcast_to(real, (count, layout.n, layout.m)).astype(np.float64)


# -- serialization -------------------------------------------------------------


def pages_to_jsonl(pages: PageTable) -> str:
    """One JSON object per page, keys sorted; the pages are read a block at a time.

    The keys are written in sorted order, so the encoder need not sort them.
    """
    with _no_cyclic_gc():
        return "\n".join(json.dumps({
            "history": history,
            "lists": [{
                "clicks": clicks,
                "init_order": init_order,
                "items": items,
                "probs": probs,
                "rel": rel,
                "theme": theme,
            } for theme, items, rel, init_order, clicks, probs in lists],
            "user": user,
        }) for user, history, lists in pages._rows()) + "\n"


def _int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r:.60}")
    return value


def _list(value, kinds: frozenset = frozenset({int})) -> list:
    if type(value) is not list or not kinds.issuperset(map(type, value)):
        raise TypeError(f"expected a list of {'/'.join(sorted(k.__name__ for k in kinds))}, "
                        f"got {value!r:.60}")
    return value


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"not JSON ({exc.msg})"
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


_NUMBERS = frozenset({int, float})


def _parse_page(line: str) -> tuple:
    """One JSONL page as a `PageTable._rows` tuple, its fields type-checked."""
    data = json.loads(line)
    return _int(data["user"]), _list(data["history"]), [
        (_int(l["theme"]), _list(l["items"]), _list(l["rel"]), _list(l["init_order"]),
         _list(l["clicks"]), _list(l["probs"], _NUMBERS))
        for l in _list(data["lists"], frozenset({dict}))]


@contextlib.contextmanager
def _no_cyclic_gc():
    """Pause the cyclic garbage collector, then restore its previous state.

    For making many short-lived lists, which hold no reference cycles: with
    the collector on, every 700 new containers start a collection, and the
    full ones walk every container already alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def pages_from_jsonl(text: str) -> PageTable:
    """Parse page lines, `PAGE_BLOCK` at a time; a malformed line raises DataError naming it."""
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
             if line.strip()]
    blocks = []
    with _no_cyclic_gc():
        for start in range(0, len(lines), PAGE_BLOCK):
            block, rows = lines[start:start + PAGE_BLOCK], []
            for lineno, line in block:
                try:
                    rows.append(_parse_page(line))
                except (ValueError, KeyError, TypeError) as exc:
                    raise DataError(f"page line {lineno}: {_reason(exc)}") from None
            blocks.append(_table_of_rows(rows, [f"page line {lineno}" for lineno, _ in block]))
    return _concat(blocks) if blocks else PageTable._from_rows([])


def write_pages(pages: PageTable, path: str | Path) -> None:
    atomic_write(path, pages_to_jsonl(pages))


def _load(path: str | Path, parse):
    text = read_text(path, DataError)
    try:
        return parse(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_pages(path: str | Path) -> PageTable:
    return _load(path, pages_from_jsonl)


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    atomic_write(path, catalog.to_json())


def load_catalog(path: str | Path) -> Catalog:
    return _load(path, Catalog.from_json)


# -- dataset assembly ----------------------------------------------------------


def build_dataset(config: TrainConfig) -> tuple[Catalog, PageTable, PageTable]:
    """Generate catalog, train/test pages, initial rankings, and click labels.

    Every stage works on (P, n, m) grids of all pages, and the two splits are
    slices of one table of them.
    """
    layout = config.build_layout()
    seed, cut = config.seed, config.train_pages
    catalog = Catalog.build(config.themes, config.items_per_theme, config.true_dim, seed)
    users = [make_user(catalog, uid, config.user_themes, config.t, seed)
             for uid in range(1, cut + config.test_pages + 1)]
    themes, items, rel = generate_pages(catalog, users, layout, config.pos_per_list, seed)

    # every list's ranker features are built once; the train split is their prefix
    features = _ranker_features(np.stack([u.latent for u in users]), items, layout, catalog)
    rankers = train_initial_rankers([f[:cut] for f in features], config, seed)
    orders = initial_rank(rankers, features, layout.m)

    oracle = ClickOracle(catalog, layout)
    shown_items, shown_rel = (np.take_along_axis(grid, orders, -1) for grid in (items, rel))
    mask = slot_mask(layout, len(users))
    train = label_pages(shown_items[:cut], shown_rel[:cut], mask[:cut], oracle, seed)
    test = label_pages(shown_items[cut:], shown_rel[cut:], mask[cut:], oracle, seed + 1)
    probs, clicks = (np.concatenate(pair) for pair in zip(train, test))
    count, history = len(users), np.stack([user.history for user in users])
    pages = PageTable(
        np.array([user.user_id for user in users]), history, np.full(count, history.shape[1]),
        themes, np.full(count, layout.n),
        *(np.where(mask > 0, grid, 0) for grid in (items, rel, orders, clicks, probs)),
        np.tile(np.array(layout.lengths)[:, None], (count, 1, len(LIST_FIELDS))))
    return catalog, pages[:cut], pages[cut:]


def examination_start(clicks: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The (n, m) start of the examination logits from a split's (b, n, m) clicks.

    It is the closed-form fit of a position-only click model: `rate` is the
    mean click of each slot over the pages that show it, `r = clip(rate /
    max(rate), 0.01, 0.99)`, and the start is `log(r / (1 - r))`. It is all
    zeros when the split holds no click; a slot no page shows starts at 0.
    """
    shown = mask.sum(axis=0)
    rate = clicks.sum(axis=0) / np.maximum(shown, 1.0)
    top = rate.max()
    if top <= 0.0:
        return np.zeros_like(rate)
    r = np.clip(rate / top, 0.01, 0.99)
    return np.where(shown > 0, np.log(r / (1.0 - r)), 0.0)


def pages_to_batch(pages: PageTable, catalog: Catalog, layout: PageLayout,
                   t: int) -> PageBatch:
    """Assemble displayed pages into padded model inputs, with the split's examination start.

    Each page's history is cut to its first `t` items.
    """
    b = len(pages)
    items, mask = displayed_grid(pages, layout, "items"), slot_mask(layout, b)
    clicks = fit_shape(pages.clicks, mask.shape).astype(np.float64)
    history = fit_shape(pages.history, (b, t))
    hmask = (np.arange(t) < pages.history_len[:, None]).astype(np.float64)
    categories = catalog.item_theme[items]
    hist_categories = catalog.item_theme[history]
    return PageBatch(items, categories, history, hist_categories, clicks, mask, hmask,
                     examination_start(clicks, mask))

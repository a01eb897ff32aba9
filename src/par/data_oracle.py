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
from dataclasses import dataclass
from functools import cached_property
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
# GEMMs: float64 GEMMs of 25,000 rows stalled in phases on 2 OpenBLAS threads
# (16 ms against 1 ms), blocks of 10,000 rows or fewer never did
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


def displayed_grid(pages: list[PageRecord], layout: PageLayout, field: str) -> np.ndarray:
    """(P, n, m) grid of a list's per-item `field` ("items" or "rel") in displayed
    order; padding slots hold 0."""
    count = len(pages)
    grid = np.zeros((count, layout.n, layout.m),
                    dtype=np.int64 if field == "items" else np.float64)
    for i, length in enumerate(layout.lengths):
        order = np.array([page.lists[i].init_order for page in pages],
                         dtype=np.int64).reshape(count, length)
        generated = np.array([getattr(page.lists[i], field) for page in pages],
                             dtype=grid.dtype).reshape(count, length)
        grid[:, i, :length] = np.take_along_axis(generated, order, axis=1)
    return grid


def slot_mask(layout: PageLayout, count: int) -> np.ndarray:
    """(count, n, m) float mask: 1 on real slots, 0 on padding."""
    real = np.arange(layout.m) < np.array(layout.lengths)[:, None]
    return np.broadcast_to(real, (count, layout.n, layout.m)).astype(np.float64)


# -- serialization -------------------------------------------------------------


def pages_to_jsonl(pages: list[PageRecord]) -> str:
    """One JSON object per page, keys sorted.

    The keys are written in sorted order, so the encoder need not sort them.
    """
    return "\n".join(json.dumps({
        "history": page.history,
        "lists": [{
            "clicks": lst.clicks,
            "init_order": lst.init_order,
            "items": lst.items,
            "probs": lst.probs,
            "rel": lst.rel,
            "theme": lst.theme,
        } for lst in page.lists],
        "user": page.user_id,
    }) for page in pages) + "\n"


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


@contextlib.contextmanager
def _no_cyclic_gc():
    """Pause the cyclic garbage collector, then restore its previous state.

    For building many records, which hold no reference cycles: with the
    collector on, every 700 new containers start a collection, and the full
    ones walk every record already alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def pages_from_jsonl(text: str) -> list[PageRecord]:
    """Parse page lines; a malformed line raises DataError naming it."""
    pages = []
    with _no_cyclic_gc():
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                pages.append(PageRecord(
                    user_id=_int(data["user"]),
                    history=_list(data["history"]),
                    lists=[ListRecord(theme=_int(l["theme"]), items=_list(l["items"]),
                                      rel=_list(l["rel"]), init_order=_list(l["init_order"]),
                                      clicks=_list(l["clicks"]),
                                      probs=_list(l["probs"], frozenset({int, float})))
                           for l in _list(data["lists"], frozenset({dict}))],
                ))
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"page line {lineno}: {_reason(exc)}") from None
    return pages


def write_pages(pages: list[PageRecord], path: str | Path) -> None:
    atomic_write(path, pages_to_jsonl(pages))


def _load(path: str | Path, parse):
    text = read_text(path, DataError)
    try:
        return parse(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_pages(path: str | Path) -> list[PageRecord]:
    return _load(path, pages_from_jsonl)


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    atomic_write(path, catalog.to_json())


def load_catalog(path: str | Path) -> Catalog:
    return _load(path, Catalog.from_json)


# -- dataset assembly ----------------------------------------------------------


def build_dataset(config: TrainConfig) -> tuple[Catalog, list[PageRecord], list[PageRecord]]:
    """Generate catalog, train/test pages, initial rankings, and click labels.

    Every stage works on (P, n, m) grids of all pages; the records are made
    once, at the end.
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
    pages = _page_records(users, layout, themes, items, rel, orders, clicks, probs)
    return catalog, pages[:cut], pages[cut:]


def _page_records(users: list[UserProfile], layout: PageLayout, themes: np.ndarray,
                  items: np.ndarray, rel: np.ndarray, orders: np.ndarray,
                  clicks: np.ndarray, probs: np.ndarray) -> list[PageRecord]:
    """Each user's page as a record, every list cut to its length; one `tolist()` per grid."""
    with _no_cyclic_gc():
        theme_rows = themes.tolist()
        grids = [grid.tolist() for grid in (items, rel, orders, clicks, probs)]
        return [PageRecord(user.user_id, user.history.tolist(), [
            ListRecord(theme_rows[p][i], *(rows[p][i][:length] for rows in grids))
            for i, length in enumerate(layout.lengths)]) for p, user in enumerate(users)]


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


def pages_to_batch(pages: list[PageRecord], catalog: Catalog, layout: PageLayout,
                   t: int) -> PageBatch:
    """Assemble displayed pages into padded model inputs, with the split's examination start."""
    b = len(pages)
    items, mask = displayed_grid(pages, layout, "items"), slot_mask(layout, b)
    clicks = np.zeros_like(mask)
    for i, length in enumerate(layout.lengths):
        clicks[:, i, :length] = np.array([page.lists[i].clicks for page in pages],
                                         dtype=np.float64).reshape(b, length)
    history = np.zeros((b, t), dtype=np.int64)
    hmask = np.zeros((b, t), dtype=np.float64)
    for k, page in enumerate(pages):
        hist = page.history[:t]
        history[k, :len(hist)] = hist
        hmask[k, :len(hist)] = 1.0
    categories = catalog.item_theme[items]
    hist_categories = catalog.item_theme[history]
    return PageBatch(items, categories, history, hist_categories, clicks, mask, hmask,
                     examination_start(clicks, mask))

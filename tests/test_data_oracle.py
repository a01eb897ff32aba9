"""Synthetic page construction and the oracle click model."""

import gc
import json

import numpy as np
import pytest

from par import autograd as ag
from par import data_oracle
from par.autograd import Tensor
from par.config import TrainConfig
from par.data_oracle import (Catalog, ClickOracle, build_dataset, displayed_grid,
                             generate_pages, initial_rank, label_pages, load_catalog,
                             load_pages, make_user, pages_from_jsonl, pages_to_batch,
                             pages_to_jsonl, slot_mask, write_catalog, write_pages)
from par.errors import DataError
from par.layout import fshape_preset, manhattan_distance_matrix, stacked_preset
from par.scoring import Mlp, mlp


def small_config(**overrides) -> TrainConfig:
    base = dict(n=2, m=4, t=4, themes=4, items_per_theme=12, true_dim=8,
                pos_per_list=2, user_themes=3, train_pages=6, test_pages=3,
                d_x=4, d_h=4, d_a=4, d_o=4, d_r=4,
                expert_hidden=(8, 4), tower_hidden=(4,), dense_hidden=(4,),
                experts=2, batch_size=4, epochs=1)
    base.update(overrides)
    return TrainConfig(**base)


def reference_make_user(catalog, user_id, user_themes, t, master_seed):
    """make_user as a per-history-slot loop: the reference for the batched version."""
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 0x05E4, user_id]))
    latent = rng.standard_normal(catalog.true_dim)
    latent /= np.linalg.norm(latent)
    themes = rng.choice(np.arange(1, catalog.themes + 1),
                        size=min(user_themes, catalog.themes), replace=False)
    history = np.empty(t, dtype=np.int64)
    for s in range(t):
        pool = catalog.theme_pool(int(rng.choice(themes)))
        appeal = catalog.appeal(latent, pool)
        top = pool[np.argsort(-appeal, kind="stable")[:5]]
        history[s] = rng.choice(top)
    return latent, themes, history


def reference_generate_page(catalog, user, layout, pos_per_list, master_seed):
    """One page of generate_pages as a per-list loop: the reference for the batched version.

    Returns that page's (n,) themes and (n, m) items and rel, 0 on padding slots.
    """
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 0x9A6E, user.user_id]))
    n = layout.n
    chosen = list(rng.permutation(user.themes)[:n])
    if len(chosen) < n:
        others = [th for th in range(1, catalog.themes + 1) if th not in chosen]
        chosen += list(rng.permutation(others)[:n - len(chosen)])
    items = np.zeros((n, layout.m), dtype=np.int64)
    rel = np.zeros((n, layout.m), dtype=np.int64)
    for i, theme in enumerate(chosen):
        length = layout.lengths[i]
        pool = catalog.theme_pool(int(theme))
        items[i, :length] = rng.choice(pool, size=length, replace=False)
        appeal = catalog.appeal(user.latent, items[i, :length])
        threshold = np.sort(appeal)[::-1][pos_per_list - 1]
        marked = (appeal >= threshold).astype(np.int64)
        if marked.sum() > pos_per_list:  # appeal ties, keep exactly pos_per_list
            extra = np.where(appeal == threshold)[0]
            marked[extra[marked.sum() - pos_per_list:]] = 0
        rel[i, :length] = marked
    return np.array(chosen), items, rel


def reference_label_pages(items, rel, mask, oracle, master_seed):
    """label_pages as one oracle call, draw and comparison per page: its reference."""
    probs = np.empty(items.shape)
    clicks = np.empty(items.shape, dtype=np.int64)
    for idx in range(len(items)):
        probs[idx] = oracle.click_prob(items[idx], rel[idx], mask[idx])
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, 0xC11C, idx]))
        clicks[idx] = oracle.sample_clicks(probs[idx], rng)
    return probs, clicks


def random_orders(layout, count, rng):
    """(count, n, m) display orders: a random permutation of each list, padding in place."""
    orders = np.tile(np.arange(layout.m), (count, layout.n, 1))
    for i, length in enumerate(layout.lengths):
        orders[:, i, :length] = np.argsort(rng.random((count, length)), axis=1)
    return orders


def reference_click_prob(catalog, layout, eta1, eta2, items, rel, mask):
    """The oracle as a per-slot loop over one (n, m) page: the batched version's reference."""
    n, m = layout.n, layout.m
    distances = manhattan_distance_matrix(layout)
    real = np.zeros(n * m, dtype=bool)
    for i in range(n):
        real[i * m:i * m + layout.lengths[i]] = True
    neighbors = [np.where((distances[p] == 1) & real)[0] if real[p] else
                 np.empty(0, dtype=np.int64) for p in range(n * m)]
    pos = np.arange(1, m + 1, dtype=np.float64)
    lst = np.arange(1, n + 1, dtype=np.float64)
    decay = (pos[None, :] ** -eta1) * (lst[:, None] ** -eta2)
    emb = catalog.true_emb
    flat_items = items.reshape(-1)
    dissim = np.ones(n * m)
    for p in range(n * m):
        if mask.reshape(-1)[p] == 0:
            continue
        nbrs = neighbors[p]
        if nbrs.size == 0:
            continue
        mean = emb[flat_items[nbrs]].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-12:
            continue
        own = emb[flat_items[p]]
        cos = float(own @ mean) / (norm * max(np.linalg.norm(own), 1e-12))
        dissim[p] = min(max(1.0 - cos, 0.0), 1.0)
    probs = rel * decay * dissim.reshape(n, m)
    return np.clip(probs * mask, 0.0, 1.0)


class TestCatalog:
    def test_structure(self):
        cat = Catalog.build(themes=3, items_per_theme=5, true_dim=6, seed=0)
        assert cat.vocab_size == 16
        assert cat.item_theme[0] == 0
        np.testing.assert_array_equal(cat.item_theme[1:6], 1)
        np.testing.assert_array_equal(cat.item_theme[6:11], 2)
        np.testing.assert_array_equal(cat.true_emb[0], 0.0)
        np.testing.assert_allclose(np.linalg.norm(cat.true_emb[1:], axis=1), 1.0, atol=1e-12)

    def test_roundtrip(self):
        cat = Catalog.build(3, 5, 6, seed=1)
        again = Catalog.from_json(cat.to_json())
        np.testing.assert_array_equal(cat.true_emb, again.true_emb)
        np.testing.assert_array_equal(cat.item_theme, again.item_theme)

    def test_theme_pool_bounds(self):
        cat = Catalog.build(3, 5, 6, seed=2)
        with pytest.raises(DataError):
            cat.theme_pool(4)


class TestPageGeneration:
    def test_relevant_count_and_distinct_themes(self):
        config = small_config()
        cat = Catalog.build(config.themes, config.items_per_theme, config.true_dim, 3)
        layout = stacked_preset(config.n, config.m)
        users = [make_user(cat, uid, config.user_themes, config.t, 3) for uid in range(1, 9)]
        themes, items, rel = generate_pages(cat, users, layout, config.pos_per_list, 3)
        assert themes.shape == (8, config.n)
        assert items.shape == rel.shape == (8, config.n, config.m)
        for p in range(len(users)):
            assert len(set(themes[p].tolist())) == config.n
            for i in range(config.n):
                assert rel[p, i].sum() == config.pos_per_list
                assert len(set(items[p, i].tolist())) == config.m
                assert (cat.item_theme[items[p, i]] == themes[p, i]).all()

    def test_relevant_items_are_most_appealing_among_shown(self):
        config = small_config()
        cat = Catalog.build(config.themes, config.items_per_theme, config.true_dim, 4)
        user = make_user(cat, 1, config.user_themes, config.t, 4)
        _, items, rel = generate_pages(cat, [user], stacked_preset(config.n, config.m),
                                       config.pos_per_list, 4)
        for list_items, list_rel in zip(items[0], rel[0]):
            appeal = cat.appeal(user.latent, list_items)
            assert list_rel.sum() == config.pos_per_list
            assert min(appeal[list_rel == 1]) >= max(appeal[list_rel == 0])

    def test_pool_too_small(self):
        cat = Catalog.build(themes=2, items_per_theme=3, true_dim=4, seed=5)
        user = make_user(cat, 1, 2, 2, 5)
        with pytest.raises(DataError):
            generate_pages(cat, [user], stacked_preset(2, 5), 1, 5)

    def test_fixed_seed_reproducible_bytes(self):
        config = small_config()
        _, train_a, test_a = build_dataset(config)
        _, train_b, test_b = build_dataset(config)
        assert pages_to_jsonl(train_a) == pages_to_jsonl(train_b)
        assert pages_to_jsonl(test_a) == pages_to_jsonl(test_b)

    def test_history_drawn_from_user_themes(self):
        cat = Catalog.build(4, 12, 8, seed=6)
        user = make_user(cat, 7, user_themes=3, t=10, master_seed=6)
        hist_themes = set(cat.item_theme[user.history])
        assert hist_themes <= set(user.themes)

    @pytest.mark.parametrize("seed", [0, 6, 7919])
    def test_make_user_equals_per_slot_loop(self, seed):
        cat = Catalog.build(5, 12, 8, seed=seed)
        for uid in range(1, 7):
            user = make_user(cat, uid, user_themes=3, t=15, master_seed=seed)
            latent, themes, history = reference_make_user(cat, uid, 3, 15, seed)
            np.testing.assert_array_equal(user.latent, latent)
            np.testing.assert_array_equal(user.themes, themes)
            np.testing.assert_array_equal(user.history, history)


class TestDrawsInOrder:
    """The batched world makes each stream's draws of the per-list/per-page loops."""

    LAYOUTS = {"stacked": dict(n=3, m=5),
               "fshape": dict(layout="fshape", v_len=3, h_count=2, h_len=5, n=3, m=5)}

    @staticmethod
    def world(layout, seed):
        config = small_config(items_per_theme=9, user_themes=2, **TestDrawsInOrder.LAYOUTS[layout])
        cat = Catalog.build(config.themes, config.items_per_theme, config.true_dim, seed)
        users = [make_user(cat, uid, config.user_themes, config.t, seed) for uid in range(1, 31)]
        return config, cat, users

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", [0, 6, 7919])
    def test_generate_pages_equals_per_list_loop(self, layout, seed):
        config, cat, users = self.world(layout, seed)
        lay = config.build_layout()
        assert lay.n > config.user_themes  # every page tops its themes up from the others
        grids = generate_pages(cat, users, lay, config.pos_per_list, seed)
        pages = [reference_generate_page(cat, u, lay, config.pos_per_list, seed) for u in users]
        for grid, expected in zip(grids, zip(*pages)):
            np.testing.assert_array_equal(grid, np.stack(expected))
        alone = generate_pages(cat, users[4:5], lay, config.pos_per_list, seed)
        for grid, page in zip(grids, alone):
            np.testing.assert_array_equal(page, grid[4:5])

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", [0, 6, 7919])
    def test_label_pages_equals_per_page_loop(self, layout, seed):
        config, cat, users = self.world(layout, seed)
        lay = config.build_layout()
        oracle = ClickOracle(cat, lay)
        _, items, rel = generate_pages(cat, users, lay, config.pos_per_list, seed)
        orders = random_orders(lay, len(users), np.random.default_rng(seed))
        shown = [np.take_along_axis(grid, orders, -1) for grid in (items, rel)]
        mask = slot_mask(lay, len(users))
        probs, clicks = label_pages(*shown, mask, oracle, seed)
        want_probs, want_clicks = reference_label_pages(*shown, mask, oracle, seed)
        np.testing.assert_array_equal(probs, want_probs)
        np.testing.assert_array_equal(clicks, want_clicks)
        assert clicks.dtype == np.int64 and clicks.any()
        assert not clicks[mask == 0].any()

    def test_relevant_ties_go_to_the_earlier_drawn_item(self):
        cat = Catalog.build(2, 6, 4, seed=1)
        cat.true_emb[1:] = cat.true_emb[1]  # every item equally appealing
        cat.quality[1:] = 0.0
        user = make_user(cat, 1, 2, 3, 1)
        _, _, rel = generate_pages(cat, [user], stacked_preset(2, 4), 2, 1)
        assert rel[0].tolist() == [[1, 1, 0, 0]] * 2

    @pytest.mark.parametrize("high", [(5, 5), (3, 5), (8, 5), (1, 5), (2**31, 5), (2, 1)])
    def test_array_high_integers_equal_scalar_calls(self, high):
        """make_user draws its 2t history picks in one call of the scalar calls' values.

        If a NumPy release breaks this, generated histories change: fail here first.
        """
        t = 7
        for seed in range(100):
            one, many = np.random.default_rng(seed), np.random.default_rng(seed)
            batched = one.integers(list(high) * t)
            scalar = [many.integers(h) for _ in range(t) for h in high]
            assert batched.tolist() == scalar, seed
            assert one.random() == many.random(), seed

    def test_choice_of_a_count_equals_choice_of_a_range(self):
        """Pages and users draw pool offsets (choice of a count) where the loops drew ids."""
        for seed in range(50):
            one, many = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (one.choice(50, size=10, replace=False) + 101).tolist() == \
                many.choice(np.arange(101, 151), size=10, replace=False).tolist(), seed
            assert one.random() == many.random(), seed


class TestStagesChangeNoArgument:
    """generate_pages, initial_rank and label_pages only return new arrays."""

    @staticmethod
    def freeze(arrays):
        """Copies of `arrays`, which are then made read-only: a write to one raises."""
        copies = [array.copy() for array in arrays]
        for array in arrays:
            array.flags.writeable = False
        return copies

    def check(self, arrays, copies, outputs):
        for array, before in zip(arrays, copies):
            np.testing.assert_array_equal(array, before)
        assert not any(np.shares_memory(out, array) for out in outputs for array in arrays)

    def test_stages_leave_their_inputs(self):
        config, cat, users = TestDrawsInOrder.world("fshape", 6)
        lay = config.build_layout()
        inputs = [cat.item_theme, cat.true_emb, cat.quality]
        inputs += [array for u in users for array in (u.latent, u.themes, u.history)]
        copies = self.freeze(inputs)
        grids = generate_pages(cat, users, lay, config.pos_per_list, 6)
        self.check(inputs, copies, grids)
        assert [u.user_id for u in users] == list(range(1, 31))

        features = data_oracle._ranker_features(np.stack([u.latent for u in users]), grids[1],
                                                lay, cat)
        rankers = data_oracle.train_initial_rankers(features, config, 6)
        inputs = features + [t.values for net in rankers for t in net.weights + net.biases]
        copies = self.freeze(inputs)
        orders = initial_rank(rankers, features, lay.m)
        self.check(inputs, copies, [orders])

        inputs = [np.take_along_axis(grid, orders, -1) for grid in grids[1:]]
        inputs.append(slot_mask(lay, len(users)))
        copies = self.freeze(inputs)
        labels = label_pages(*inputs, ClickOracle(cat, lay), 6)
        self.check(inputs, copies, labels)


class TestInitialRanking:
    def test_orders_follow_ranker_scores(self):
        config = small_config()
        _, train, _ = build_dataset(config)
        for page in train[:3]:
            for lst in page.lists:
                assert sorted(lst.init_order) == list(range(config.m))

    def test_scores_equal_training_forward(self):
        rng = np.random.default_rng(13)
        net = Mlp(weights=[Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
                           for shape in ((6, 5), (5, 1))],
                  biases=[Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
                          for shape in ((5,), (1,))])

        def scores(features):  # as initial_rank scores a list position
            with ag.no_grad():
                return mlp(Tensor(features), net).values[..., 0]

        feats = rng.uniform(-1, 1, (3, 7, 6))
        rows = feats.reshape(21, 6)
        trained = mlp(Tensor(rows), net).values[:, 0]
        np.testing.assert_array_equal(scores(rows), trained)
        # one batched call scores each row as it would alone
        for row in range(3):
            np.testing.assert_allclose(scores(feats)[row], scores(feats[row]),
                                       rtol=0, atol=1e-12)
        orders = initial_rank([net], [feats], 9)  # a list of 7 items on 9 slots
        assert orders.shape == (3, 1, 9)
        np.testing.assert_array_equal(orders[:, 0, :7],
                                      np.argsort(-scores(feats), axis=1, kind="stable"))
        assert orders[:, 0, 7:].tolist() == [[7, 8]] * 3  # padding keeps its own index

    def test_page_blocks_give_the_one_call_orders(self, monkeypatch):
        """30 pages scored 7 at a time get the orders of one call over all of them."""
        config, cat, users = TestDrawsInOrder.world("fshape", 8)
        lay = config.build_layout()
        _, items, _ = generate_pages(cat, users, lay, config.pos_per_list, 8)
        features = data_oracle._ranker_features(np.stack([u.latent for u in users]), items,
                                                lay, cat)
        rankers = data_oracle.train_initial_rankers(features, config, 8)
        assert len(users) <= data_oracle.APPEAL_CHUNK  # one block
        whole = initial_rank(rankers, features, lay.m)
        pages = []

        def spy(x, net):
            pages.append(len(x.values))
            return mlp(x, net)

        monkeypatch.setattr(data_oracle, "APPEAL_CHUNK", 7)
        monkeypatch.setattr(data_oracle, "mlp", spy)
        np.testing.assert_array_equal(initial_rank(rankers, features, lay.m), whole)
        assert pages == [7, 7, 7, 7, 2] * lay.n

    def test_initial_ranking_beats_random_on_relevance(self, monkeypatch):
        monkeypatch.setattr(data_oracle, "RANKER_EPOCHS", 4)
        config = small_config(train_pages=80, test_pages=20)
        _, train, test = build_dataset(config)
        # relevant items should on average sit earlier than the uniform midpoint
        positions = []
        for page in test:
            for lst in page.lists:
                rel = lst.displayed_rel()
                positions += [k for k, r in enumerate(rel) if r == 1]
        assert np.mean(positions) < (config.m - 1) / 2


class TestOracle:
    def make_oracle(self, n=2, m=4):
        cat = Catalog.build(4, 12, 8, seed=7)
        return cat, ClickOracle(cat, stacked_preset(n, m))

    def test_decay_reference_values(self):
        _, oracle = self.make_oracle()
        assert abs(oracle.position_decay(2, 1) - 2 ** -0.4) < 1e-12
        assert abs(oracle.position_decay(1, 2) - 2 ** -0.5) < 1e-12
        assert abs(oracle.position_decay(2, 1) - 0.757858) < 1e-6
        assert abs(oracle.position_decay(1, 2) - 0.707107) < 1e-6
        assert oracle.position_decay(1, 1) == 1.0

    def test_decay_non_increasing(self):
        _, oracle = self.make_oracle()
        for i in range(1, 10):
            assert oracle.position_decay(i + 1, 1) <= oracle.position_decay(i, 1)
            assert oracle.position_decay(1, i + 1) <= oracle.position_decay(1, i)

    def test_irrelevant_items_never_click(self):
        cat, oracle = self.make_oracle()
        rng = np.random.default_rng(8)
        items = rng.integers(1, cat.vocab_size, size=(2, 4))
        rel = np.zeros((2, 4))
        probs = oracle.click_prob(items, rel, np.ones((2, 4)))
        np.testing.assert_array_equal(probs, 0.0)

    def test_top_slot_is_relevance_times_dissim(self):
        cat, oracle = self.make_oracle()
        items = np.array([[1, 13, 25, 37], [2, 14, 26, 38]])
        rel = np.ones((2, 4))
        mask = np.ones((2, 4))
        probs = oracle.click_prob(items, rel, mask)
        # slot (0,0): neighbors are (0,1) and (1,0)
        mean = cat.true_emb[[13, 2]].mean(axis=0)
        cos = cat.true_emb[1] @ mean / (np.linalg.norm(mean) * np.linalg.norm(cat.true_emb[1]))
        expected = min(max(1 - cos, 0.0), 1.0)
        assert abs(probs[0, 0] - expected) < 1e-12

    def test_probs_within_unit_interval(self):
        cat, oracle = self.make_oracle()
        rng = np.random.default_rng(9)
        for _ in range(10):
            items = rng.integers(1, cat.vocab_size, size=(2, 4))
            rel = (rng.uniform(size=(2, 4)) < 0.5).astype(float)
            probs = oracle.click_prob(items, rel, np.ones((2, 4)))
            assert np.all((probs >= 0) & (probs <= 1))

    def test_promoting_relevant_item_never_hurts(self):
        # identical neighbors around both positions by construction
        cat, _ = self.make_oracle()
        oracle = ClickOracle(cat, stacked_preset(1, 3))
        a, b = 1, 13
        back = np.array([[b, a, b]])
        front = np.array([[a, b, b]])
        rel = np.array([[1.0, 1.0, 1.0]])
        mask = np.ones((1, 3))
        p_back = oracle.click_prob(back, rel, mask)[0, 1]
        p_front = oracle.click_prob(front, rel, mask)[0, 0]
        assert p_front >= p_back

    def test_empirical_click_rate_matches_probability(self):
        cat, oracle = self.make_oracle()
        items = np.array([[1, 13, 25, 37], [2, 14, 26, 38]])
        rel = np.ones((2, 4))
        probs = oracle.click_prob(items, rel, np.ones((2, 4)))
        rng = np.random.default_rng(10)
        draws = 100_000
        hits = np.zeros_like(probs)
        for _ in range(draws):
            hits += oracle.sample_clicks(probs, rng)
        freq = hits / draws
        se = np.sqrt(probs * (1 - probs) / draws)
        assert np.all(np.abs(freq - probs) <= 3 * se + 1e-12)

    # stacked; fshape with padded horizontal lists; fshape whose last
    # one-item horizontal list sits alone (an isolated slot)
    LAYOUTS = [stacked_preset(3, 5), fshape_preset(4, 2, 3), fshape_preset(2, 2, 1)]

    @staticmethod
    def random_pages(cat, layout, count, rng):
        """(count, n, m) random arrangements with padding zeroed and random masks/rel."""
        lengths = np.array(layout.lengths)
        real = (np.arange(layout.m)[None, :] < lengths[:, None]).astype(float)
        items = rng.integers(1, cat.vocab_size, size=(count, layout.n, layout.m)) * real
        rel = (rng.uniform(size=items.shape) < 0.6) * real
        mask = np.broadcast_to(real, items.shape).copy()
        return items.astype(np.int64), rel.astype(float), mask

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["stacked", "fshape", "fshape-isolated"])
    def test_batched_equals_per_slot_loop(self, layout):
        cat = Catalog.build(4, 12, 8, seed=7)
        oracle = ClickOracle(cat, layout)
        rng = np.random.default_rng(21)
        items, rel, mask = self.random_pages(cat, layout, 30, rng)
        # a padding-only neighbourhood (zero-mean neighbours) and a masked real slot
        items[0, 0, 1:] = 0
        items[0, 1:, 0] = 0
        mask[1, 0, 0] = 0.0
        probs = oracle.click_prob(items, rel, mask)
        for p in range(len(items)):
            ref = reference_click_prob(cat, layout, 0.4, 0.5, items[p], rel[p], mask[p])
            np.testing.assert_array_equal(probs[p], ref)
        assert probs[0, 0, 0] == rel[0, 0, 0]  # neutral dissimilarity at full decay

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["stacked", "fshape", "fshape-isolated"])
    def test_page_axis_equals_separate_calls(self, layout):
        cat = Catalog.build(4, 12, 8, seed=7)
        oracle = ClickOracle(cat, layout)
        items, rel, mask = self.random_pages(cat, layout, 12, np.random.default_rng(22))
        probs = oracle.click_prob(items, rel, mask)
        assert probs.shape == items.shape
        for p in range(len(items)):
            np.testing.assert_array_equal(probs[p], oracle.click_prob(items[p], rel[p], mask[p]))
        stacked = oracle.click_prob(items.reshape(3, 4, *items.shape[1:]),
                                    rel.reshape(3, 4, *items.shape[1:]),
                                    mask.reshape(3, 4, *items.shape[1:]))
        np.testing.assert_array_equal(stacked.reshape(probs.shape), probs)
        oracle.PAGE_CHUNK = 5  # pages scored in chunks of 5, 5 and 2
        np.testing.assert_array_equal(oracle.click_prob(items, rel, mask), probs)


class TestSerialization:
    def test_jsonl_roundtrip(self):
        config = small_config()
        _, train, _ = build_dataset(config)
        text = pages_to_jsonl(train)
        again = pages_from_jsonl(text)
        assert pages_to_jsonl(again) == text

    def test_file_roundtrip(self, tmp_path):
        config = small_config()
        catalog, train, _ = build_dataset(config)
        write_pages(train, tmp_path / "pages.jsonl")
        write_catalog(catalog, tmp_path / "catalog.json")
        pages = load_pages(tmp_path / "pages.jsonl")
        cat = load_catalog(tmp_path / "catalog.json")
        assert pages_to_jsonl(pages) == pages_to_jsonl(train)
        np.testing.assert_array_equal(cat.true_emb, catalog.true_emb)

    @pytest.mark.parametrize("edit, reason", [
        (lambda d: d.pop("history"), "missing key 'history'"),
        (lambda d: d["lists"][1].pop("probs"), "missing key 'probs'"),
        (lambda d: d.update(user="7"), "expected an integer"),
        (lambda d: d["lists"][0].update(items=[1, "2"]), "expected a list of int"),
        (lambda d: d.update(lists=5), "expected a list of dict"),
    ])
    def test_malformed_page_names_line(self, edit, reason):
        config = small_config()
        _, train, _ = build_dataset(config)
        lines = pages_to_jsonl(train[:3]).splitlines()
        data = json.loads(lines[2])
        edit(data)
        lines[2] = json.dumps(data)
        with pytest.raises(DataError, match=f"page line 3: {reason}"):
            pages_from_jsonl("\n".join(lines))

    def test_undecodable_page_line_names_line(self):
        config = small_config()
        _, train, _ = build_dataset(config)
        text = pages_to_jsonl(train[:2])
        with pytest.raises(DataError, match="page line 2: not JSON"):
            pages_from_jsonl(text[:-20])

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_record_builders_restore_the_collector(self, enabled):
        """The records are built with the cyclic GC paused, and its state comes back."""
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            _, train, _ = build_dataset(small_config())  # its records: `_page_records`
            assert gc.isenabled() is enabled
            text = pages_to_jsonl(train[:3])
            pages_from_jsonl(text)
            assert gc.isenabled() is enabled
            with pytest.raises(DataError, match="page line 2: not JSON"):
                pages_from_jsonl(text.replace("\n", "\n{", 1))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_record_builders_pause_the_collector(self, monkeypatch):
        seen = []
        record = data_oracle.ListRecord

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return record(*args, **kwargs)

        monkeypatch.setattr(data_oracle, "ListRecord", spy)
        assert gc.isenabled()
        _, train, _ = build_dataset(small_config())
        pages_from_jsonl(pages_to_jsonl(train[:3]))
        assert seen and not any(seen)

    def test_malformed_catalog_rejected(self, tmp_path):
        catalog = Catalog.build(3, 5, 4, seed=2)
        data = json.loads(catalog.to_json())
        del data["quality"]
        with pytest.raises(DataError, match="missing key 'quality'"):
            Catalog.from_json(json.dumps(data))
        data = json.loads(catalog.to_json())
        data["themes"] = 4
        with pytest.raises(DataError, match="do not fit"):
            Catalog.from_json(json.dumps(data))
        path = tmp_path / "catalog.json"
        path.write_text(catalog.to_json()[:-9])
        with pytest.raises(DataError, match="catalog.json: catalog line 1: not JSON"):
            load_catalog(path)

    @pytest.mark.parametrize("theme", [99, 2])  # out of range, and in range but wrong
    def test_catalog_with_wrong_item_theme_rejected(self, tmp_path, theme):
        catalog = Catalog.build(3, 5, 4, seed=2)
        data = json.loads(catalog.to_json())
        data["item_theme"][3] = theme
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DataError) as caught:
            load_catalog(path)
        assert str(caught.value) == (f"{path}: catalog item_theme[3] is {theme}, expected 1 "
                                     f"for 5 items per theme")

    def test_catalog_with_themed_padding_id_rejected(self, tmp_path):
        catalog = Catalog.build(3, 5, 4, seed=2)
        data = json.loads(catalog.to_json())
        data["item_theme"][0] = 1
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DataError) as caught:
            load_catalog(path)
        assert str(caught.value) == (f"{path}: catalog item_theme[0] is 1, expected 0 "
                                     f"for 5 items per theme")

    def test_batch_assembly(self):
        config = small_config()
        catalog, train, _ = build_dataset(config)
        layout = stacked_preset(config.n, config.m)
        batch = pages_to_batch(train, catalog, layout, config.t)
        assert batch.items.shape == (len(train), config.n, config.m)
        assert batch.history.shape == (len(train), config.t)
        np.testing.assert_array_equal(batch.mask, 1.0)
        # displayed item at slot (0, 0) of first page
        first = train[0].lists[0]
        assert batch.items[0, 0, 0] == first.items[first.init_order[0]]
        assert batch.clicks[0, 0, 0] == first.clicks[0]
        assert batch.categories[0, 0, 0] == catalog.item_theme[batch.items[0, 0, 0]]

    @staticmethod
    def click_grid(pages, layout):
        """(P, n, m) logged clicks and mask, built slot by slot from the records."""
        clicks = np.zeros((len(pages), layout.n, layout.m))
        shown = np.zeros_like(clicks)
        for p, page in enumerate(pages):
            for i, lst in enumerate(page.lists):
                for k, click in enumerate(lst.clicks):
                    clicks[p, i, k] = click
                    shown[p, i, k] = 1.0
        return clicks, shown

    @pytest.mark.parametrize("layout", ["stacked", "fshape"])
    def test_examination_start_is_per_slot_click_rate(self, layout):
        shape = dict(layout="fshape", v_len=4, h_count=2, h_len=3, n=3, m=4) \
            if layout == "fshape" else {}
        config = small_config(train_pages=40, **shape)
        catalog, train, _ = build_dataset(config)
        batch = pages_to_batch(train, catalog, config.build_layout(), config.t)
        clicks, shown = self.click_grid(train, config.build_layout())
        count = shown.sum(axis=0)
        rate = np.zeros_like(count)
        np.divide(clicks.sum(axis=0), count, out=rate, where=count > 0)
        assert rate.max() > 0
        r = np.clip(rate / rate.max(), 0.01, 0.99)
        want = np.where(count > 0, np.log(r / (1.0 - r)), 0.0)
        assert batch.exam_start.shape == (config.n, config.m)
        np.testing.assert_allclose(batch.exam_start, want, rtol=0, atol=1e-12)

    def test_select_keeps_examination_start(self):
        config = small_config()
        catalog, train, _ = build_dataset(config)
        batch = pages_to_batch(train, catalog, config.build_layout(), config.t)
        sub = batch.select(np.array([2, 0]))
        assert sub.size == 2
        np.testing.assert_array_equal(sub.exam_start, batch.exam_start)

    def test_split_without_clicks_starts_at_zero(self):
        config = small_config()
        catalog, train, _ = build_dataset(config)
        for page in train:
            for lst in page.lists:
                lst.clicks = [0] * len(lst.clicks)
        with np.errstate(all="raise"):
            batch = pages_to_batch(train, catalog, config.build_layout(), config.t)
        np.testing.assert_array_equal(batch.exam_start, np.zeros((config.n, config.m)))

    def test_displayed_grids_follow_display_order(self, monkeypatch):
        """The records hold `initial_rank`'s orders, and `displayed_grid` shows them."""
        config = small_config(layout="fshape", v_len=4, h_count=2, h_len=3, n=3, m=4)
        ranked, rank = [], data_oracle.initial_rank

        def spy(*args):  # build_dataset calls each stage through the module globals
            ranked.append(rank(*args))
            return ranked[-1]

        monkeypatch.setattr(data_oracle, "initial_rank", spy)
        _, train, _ = build_dataset(config)
        (orders,) = ranked
        layout = config.build_layout()
        items, rel = (displayed_grid(train, layout, name) for name in ("items", "rel"))
        mask = slot_mask(layout, len(train))
        assert items.shape == rel.shape == mask.shape == orders[:len(train)].shape
        for p, page in enumerate(train):
            for i, lst in enumerate(page.lists):
                length = layout.lengths[i]
                assert lst.init_order == orders[p, i, :length].tolist()
                assert orders[p, i, length:].tolist() == list(range(length, 4))
                assert items[p, i, :length].tolist() == [lst.items[k] for k in lst.init_order]
                assert rel[p, i, :length].tolist() == lst.displayed_rel()
                assert mask[p, i].tolist() == [1.0] * length + [0.0] * (4 - length)
                assert items[p, i, length:].tolist() == [0] * (4 - length)

    def test_labels_cover_real_slots(self):
        config = small_config()
        _, train, _ = build_dataset(config)
        for page in train:
            for lst in page.lists:
                assert len(lst.clicks) == len(lst.items)
                assert len(lst.probs) == len(lst.items)
                assert all(0 <= p <= 1 for p in lst.probs)
                # clicks imply relevance under the oracle
                rel = lst.displayed_rel()
                assert all(rel[k] == 1 for k, c in enumerate(lst.clicks) if c == 1)

    def test_catalog_written_with_theme_mix_still_loads(self):
        catalog = Catalog.build(3, 5, 4, seed=2)
        data = json.loads(catalog.to_json())
        data["theme_mix"] = 0.0
        loaded = Catalog.from_json(json.dumps(data, sort_keys=True))
        assert loaded.to_json() == catalog.to_json()

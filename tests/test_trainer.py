"""Training loop determinism, checkpoint format, evaluation, gradcheck."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from par import trainer
from par.config import TrainConfig, with_variant
from par.data_oracle import (LIST_FIELDS, ClickOracle, ListRecord, PageTable, build_dataset,
                             displayed_grid, pages_from_jsonl, pages_to_batch, pages_to_jsonl)
from par.errors import ConfigError, ContractError, DataError, NumericError
from par.metrics import utility
from par.model import ParModel
from par.scoring import rerank
from par.trainer import (Checkpoint, evaluate, gradcheck, tiny_gradcheck_config, train,
                         validate_dataset)


def toy_config(**overrides) -> TrainConfig:
    base = dict(n=2, m=4, t=4, themes=4, items_per_theme=12, true_dim=8,
                pos_per_list=2, user_themes=3, train_pages=64, test_pages=16,
                d_x=8, d_h=8, d_a=4, d_o=8, d_r=8, heads=2,
                expert_hidden=(16, 8), tower_hidden=(8,), dense_hidden=(8,),
                experts=2, batch_size=32, epochs=2, learning_rate=1e-3)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def toy_dataset():
    config = toy_config()
    catalog, train_pages, test_pages = build_dataset(config)
    return config, catalog, train_pages, test_pages


class TestTrain:
    def test_zero_epochs_returns_initialization(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        cfg = dataclasses.replace(config, epochs=0)
        ckpt = train(cfg, train_pages, catalog)
        fresh = train(cfg, train_pages, catalog)
        assert ckpt.loss_history == []
        assert ckpt.to_bytes() == fresh.to_bytes()

    def test_loss_decreases_on_toy_set(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        cfg = dataclasses.replace(config, epochs=3)
        ckpt = train(cfg, train_pages, catalog)
        assert len(ckpt.loss_history) == 3
        assert ckpt.loss_history[-1] < ckpt.loss_history[0]

    def test_identical_seeds_identical_checkpoints(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        a = train(config, train_pages, catalog)
        b = train(config, train_pages, catalog)
        assert a.to_bytes() == b.to_bytes()

    def test_different_seeds_differ(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        a = train(config, train_pages, catalog)
        b = train(dataclasses.replace(config, seed=1), train_pages, catalog)
        assert a.to_bytes() != b.to_bytes()

    def test_config_mismatch_rejected_before_stepping(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        bad = dataclasses.replace(config, n=3, themes=4)
        with pytest.raises(ConfigError):
            train(bad, train_pages, catalog)

    def test_padding_embedding_never_moves(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        model = train(config, train_pages, catalog).build_model()
        looked_up = model.item_table.lookup(np.array([0]))
        np.testing.assert_array_equal(looked_up.values, 0.0)

    def test_non_finite_loss_names_epoch_and_step(self, toy_dataset, monkeypatch):
        config, catalog, train_pages, _ = toy_dataset

        class NanModel(trainer.ParModel):
            def __init__(self, *args):
                super().__init__(*args)
                self.params["moe.tower_b0"].values[0, 0] = np.nan

        monkeypatch.setattr(trainer, "ParModel", NanModel)
        with pytest.raises(NumericError, match=r"epoch 1, step 1\b"):
            train(config, train_pages, catalog)

    def test_every_page_validated(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        pages = list(train_pages)
        last = pages[-1].lists[0]
        last.items, last.rel, last.clicks = last.items[:-1], last.rel[:-1], last.clicks[:-1]
        with pytest.raises(ConfigError, match=f"page {len(pages) - 1} list 0 has 3 items"):
            train(config, PageTable.from_records(pages), catalog)
        pages = list(train_pages)
        pages[-1].lists[1].init_order[0] = pages[-1].lists[1].init_order[1]
        with pytest.raises(DataError, match=f"page {len(pages) - 1} list 1"):
            train(config, PageTable.from_records(pages), catalog)
        for bad_id in (config.vocab_size, 0):  # 0 is the padding id, never an item
            pages = list(train_pages)
            pages[-1].history[0] = bad_id
            with pytest.raises(DataError, match=f"page {len(pages) - 1} history holds item "
                                                f"ids outside 1..{config.vocab_size - 1}"):
                train(config, PageTable.from_records(pages), catalog)

    def test_catalog_mismatch_rejected(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        bad = dataclasses.replace(config, items_per_theme=13)
        with pytest.raises(ConfigError):
            train(bad, train_pages, catalog)


def reference_validate(config, pages, catalog):
    """validate_dataset's page checks as the per-page loop over records: the reference."""
    layout, vocab = config.build_layout(), catalog.vocab_size
    for k, page in enumerate(pages):
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
            if not ({0, 1}.issuperset(lst.rel) and {0, 1}.issuperset(lst.clicks)):
                raise DataError(f"page {k} list {i}: rel and clicks must be 0 or 1, got "
                                f"rel {lst.rel!r:.60}, clicks {lst.clicks!r:.60}")
            if not 1 <= min(lst.items) <= max(lst.items) < vocab:
                raise DataError(f"page {k} list {i} holds item ids outside 1..{vocab - 1}")


PARITY_WORLDS = {
    "stacked": toy_config(train_pages=24, test_pages=1),
    "fshape": toy_config(train_pages=24, test_pages=1, layout="fshape", v_len=4, h_count=2,
                         h_len=3, n=3, m=4),
}


@pytest.fixture(scope="module")
def parity_worlds():
    return {name: (config, *build_dataset(config)[:2]) for name, config in PARITY_WORLDS.items()}


CORRUPTIONS = ["short list", "long list", "short field", "long field", "list count",
               "duplicate init_order", "item id", "history id", "rel", "clicks", "empty clicks"]


def corrupt(data, kind: str, page, vocab: int) -> None:
    """One random corruption of one list (or the history) of a page record."""
    lst = data.draw(st.sampled_from(page.lists), label="list")
    slot = data.draw(st.integers(0, len(lst.items) - 1), label="slot")
    bad_id = data.draw(st.sampled_from([0, -1, vocab, vocab + 7]), label="id")
    if kind == "short list":
        for name in LIST_FIELDS:
            setattr(lst, name, getattr(lst, name)[:-1])
    elif kind == "long list":
        for name, value in zip(LIST_FIELDS, (1, 0, len(lst.items), 0, 0.0)):
            setattr(lst, name, getattr(lst, name) + [value])
    elif kind in ("short field", "long field"):
        name = data.draw(st.sampled_from(LIST_FIELDS), label="field")
        values = getattr(lst, name)
        setattr(lst, name, values[:-1] if kind == "short field" else values + values[:1])
    elif kind == "list count":
        if data.draw(st.booleans(), label="drop a list"):
            page.lists.pop()
        else:
            page.lists.append(ListRecord(lst.theme, *(list(getattr(lst, name))
                                                      for name in LIST_FIELDS)))
    elif kind == "duplicate init_order":
        lst.init_order[slot] = lst.init_order[slot - 1]
    elif kind == "item id":
        lst.items[slot] = bad_id
    elif kind == "history id":
        page.history[slot % len(page.history)] = bad_id
    elif kind in ("rel", "clicks"):
        getattr(lst, kind)[slot] = data.draw(st.sampled_from([2, -1]), label="label")
    else:
        lst.clicks = []


class TestValidationParity:
    """The table's one-pass screen raises what the per-page loop over records raises."""

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_one_corruption_on_one_page(self, parity_worlds, kind, data):
        config, catalog, train_pages = parity_worlds[
            data.draw(st.sampled_from(sorted(parity_worlds)), label="world")]
        pages = list(train_pages)
        page = pages[data.draw(st.integers(0, len(pages) - 1), label="page")]
        corrupt(data, kind, page, catalog.vocab_size)
        try:
            reference_validate(config, pages, catalog)
            want = None
        except (ConfigError, DataError) as exc:
            want = exc
        table = PageTable.from_records(pages)
        for table in (table, pages_from_jsonl(pages_to_jsonl(table))):
            if want is None:
                validate_dataset(config, table, catalog)
                continue
            with pytest.raises((ConfigError, DataError)) as got:
                validate_dataset(config, table, catalog)
            assert type(got.value) is type(want)
            assert str(got.value) == str(want)

    def test_clean_split_passes(self, parity_worlds):
        for config, catalog, train_pages in parity_worlds.values():
            reference_validate(config, list(train_pages), catalog)
            validate_dataset(config, train_pages, catalog)


class TestExaminationStart:
    """A drawn model's examination table starts from its training split."""

    @staticmethod
    def split_batch(config, pages, catalog):
        return pages_to_batch(pages, catalog, config.build_layout(), config.t)

    def test_fresh_model_takes_start_at_first_loss_only(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        data = self.split_batch(config, train_pages, catalog)
        assert np.any(data.exam_start != 0)
        model = ParModel(config, config.build_layout(), config.seed)
        table = model.params["exam.logit"]
        model.predict(data.select(np.arange(4)))
        np.testing.assert_array_equal(table.values, 0.0)
        model.loss(data.select(np.arange(4)))
        np.testing.assert_array_equal(table.values, data.exam_start)
        table.values = table.values + 0.25
        moved = table.values.copy()
        model.loss(data.select(np.arange(4, 8)))
        np.testing.assert_array_equal(table.values, moved)

    def test_stored_model_keeps_its_table(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        ckpt = train(config, train_pages, catalog)
        data = self.split_batch(config, train_pages, catalog)
        stored = ckpt.tensors["exam.logit"]
        assert not np.array_equal(stored, data.exam_start)
        model = ckpt.build_model()
        model.loss(data.select(np.arange(4)))
        np.testing.assert_array_equal(model.params["exam.logit"].values, stored)

    def test_training_moves_the_table_from_the_start(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        ckpt = train(dataclasses.replace(config, epochs=1), train_pages, catalog)
        start = self.split_batch(config, train_pages, catalog).exam_start
        # one epoch of Adam moves each logit by at most about lr per step
        steps = -(-len(train_pages) // config.batch_size)
        drift = np.abs(ckpt.tensors["exam.logit"] - start)
        assert 0 < drift.max() <= 2 * steps * config.learning_rate


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, toy_dataset, tmp_path):
        config, catalog, train_pages, _ = toy_dataset
        ckpt = train(config, train_pages, catalog)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        loaded.save(tmp_path / "again.ckpt")
        assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()

    def test_restores_exact_values(self, toy_dataset, tmp_path):
        config, catalog, train_pages, _ = toy_dataset
        ckpt = train(config, train_pages, catalog)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        model = Checkpoint.load(path).build_model()
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.values, ckpt.tensors[name])

    def test_config_snapshot_preserved(self, toy_dataset, tmp_path):
        config, catalog, train_pages, _ = toy_dataset
        ckpt = train(config, train_pages, catalog)
        ckpt.save(tmp_path / "model.ckpt")
        assert Checkpoint.load(tmp_path / "model.ckpt").config == config

    def test_bad_magic_rejected(self):
        with pytest.raises(ContractError):
            Checkpoint.from_bytes(b"NOTACKPT" + b"\x00" * 16)

    def test_truncated_or_padded_rejected(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        blob = train(dataclasses.replace(config, epochs=0), train_pages, catalog).to_bytes()
        head_end = 12 + int.from_bytes(blob[8:12], "little")
        for cut in (10, 12, head_end - 5, head_end, head_end + 8, len(blob) - 3):
            with pytest.raises(ContractError):
                Checkpoint.from_bytes(blob[:cut])
        with pytest.raises(ContractError):
            Checkpoint.from_bytes(blob + b"\x00" * 8)

    def test_build_model_copies_the_stored_tensors(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        ckpt = train(config, train_pages, catalog)
        model = ckpt.build_model()
        assert list(model.params) == list(ParModel(config, config.build_layout(),
                                                   config.seed).params)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.values, ckpt.tensors[name])
            assert p.values is not ckpt.tensors[name] and p.requires_grad

    def test_build_model_rejects_mismatched_tensors(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        ckpt = train(dataclasses.replace(config, epochs=0), train_pages, catalog)
        first = next(iter(ckpt.tensors))
        edits = {
            "missing": lambda t: t.pop(first),
            "extra": lambda t: t.update({"extra.w": np.zeros(1)}),
            "shape": lambda t: t.update({first: t[first][:-1]}),
        }
        for edit in edits.values():
            tensors = dict(ckpt.tensors)
            edit(tensors)
            with pytest.raises(ContractError):
                dataclasses.replace(ckpt, tensors=tensors).build_model()

    def test_variant_checkpoint_rebuilds_variant_model(self, toy_dataset):
        config, catalog, train_pages, _ = toy_dataset
        cfg = with_variant(config, "PAR-SSA")
        ckpt = train(cfg, train_pages, catalog)
        model = ckpt.build_model()
        assert not any(name.startswith("ss.") for name in list(model.params))


class TestEvaluate:
    def test_reports_init_and_variant(self, toy_dataset):
        config, catalog, train_pages, test_pages = toy_dataset
        ckpt = train(config, train_pages, catalog)
        reports = evaluate(ckpt, test_pages, catalog)
        assert set(reports) == {"INIT", "PAR"}
        for report in reports.values():
            assert report.utility >= 0
            assert 0 <= report.ndcg <= 1
            assert 0 <= report.map <= 1
            assert set(report.sctr_per_list) == {"h1", "h2"}

    def test_deterministic_given_seed(self, toy_dataset):
        config, catalog, train_pages, test_pages = toy_dataset
        ckpt = train(config, train_pages, catalog)
        a = evaluate(ckpt, test_pages, catalog)
        b = evaluate(ckpt, test_pages, catalog)
        assert a["PAR"].row() == b["PAR"].row()
        assert a["INIT"].row() == b["INIT"].row()

    def test_eval_seed_changes_clicks_not_probs(self, toy_dataset):
        config, catalog, train_pages, test_pages = toy_dataset
        ckpt = train(config, train_pages, catalog)
        a = evaluate(ckpt, test_pages, catalog, eval_seed=1)
        others = [evaluate(ckpt, test_pages, catalog, eval_seed=s) for s in (2, 3, 4)]
        for b in others:
            assert abs(a["PAR"].sctr - b["PAR"].sctr) < 1e-12  # probs are exact
        assert any(b["PAR"].utility != a["PAR"].utility for b in others)  # draws differ

    @pytest.mark.parametrize("eval_seed", [trainer.EVAL_SEED, 7])
    def test_utility_is_one_click_draw_per_arm(self, toy_dataset, eval_seed):
        config, catalog, train_pages, test_pages = toy_dataset
        ckpt = train(config, train_pages, catalog)
        layout = config.build_layout()
        batch = pages_to_batch(test_pages, catalog, layout, config.t)
        items, rel = batch.items, displayed_grid(test_pages, layout, "rel")
        perms = rerank(trainer._score_pages(ckpt.build_model(), batch), batch.mask)
        arms = {"INIT": (0, items, rel),
                "PAR": (1, np.take_along_axis(items, perms, axis=-1),
                        np.take_along_axis(rel, perms, axis=-1))}
        reports = evaluate(ckpt, test_pages, catalog, eval_seed=eval_seed)
        oracle = ClickOracle(catalog, layout)
        for system, (arm, shown_items, shown_rel) in arms.items():
            probs = oracle.click_prob(shown_items, shown_rel, batch.mask)
            drawn = oracle.sample_clicks(probs, trainer._rng(eval_seed, trainer._CLICKS, arm))
            assert reports[system].utility == utility(drawn), system

    def test_click_relevance_switch(self, toy_dataset):
        config, catalog, train_pages, test_pages = toy_dataset
        ckpt = train(config, train_pages, catalog)
        labels = evaluate(ckpt, test_pages, catalog, relevance_source="labels")
        clicks = evaluate(ckpt, test_pages, catalog, relevance_source="clicks")
        assert labels["PAR"].ndcg != clicks["PAR"].ndcg
        with pytest.raises(ConfigError):
            evaluate(ckpt, test_pages, catalog, relevance_source="bogus")


class TestRngStreams:
    @pytest.mark.parametrize("words", [(0, 1), (90210, 7, 1, 499), (2**32 - 1, 3, 0),
                                       (2**32, 3, 5), (2**70, 1)])
    def test_same_stream_as_the_seed_list(self, words):
        expected = np.random.default_rng(np.random.SeedSequence(list(words))).random(8)
        np.testing.assert_array_equal(trainer._rng(*words).random(8), expected)

    def test_negative_seed_is_refused_like_the_seed_list(self):
        with pytest.raises(ValueError):
            trainer._rng(-1, 2)


class TestScorePages:
    """`_score_pages`, which `evaluate` and `par rerank` rank by, scores in float32."""

    @pytest.mark.parametrize("variant", ["PAR", "PAR-scale", "PAR-MMoE"])
    def test_float32_scores_rank_like_float64_predict(self, toy_dataset, variant):
        config, catalog, train_pages, test_pages = toy_dataset
        ckpt = train(with_variant(config, variant), train_pages, catalog)
        model = ckpt.build_model()
        batch = pages_to_batch(test_pages, catalog, config.build_layout(), config.t)
        scores = trainer._score_pages(model, batch, chunk=5)
        reference = model.predict(batch)
        assert scores.dtype == np.float32 and reference.dtype == np.float64
        np.testing.assert_allclose(scores, reference, rtol=0, atol=1e-5)
        np.testing.assert_array_equal(rerank(scores, batch.mask), rerank(reference, batch.mask))
        assert all(p.values.dtype == np.float64 for p in model.params.values())
        # float32 sigmoid saturates to 1.0 from a logit of about 17; two such
        # scores in one list would tie and keep the incoming order
        saturated = (scores == 1.0) & (batch.mask > 0)
        assert saturated.sum(axis=-1).max() <= 1


class TestGradcheck:
    def test_passes_on_tiny_config_quickly(self):
        start = time.perf_counter()
        report = gradcheck()
        elapsed = time.perf_counter() - start
        assert report.passed, "\n".join(report.lines())
        assert elapsed < 60
        groups = {name.split(".")[0] for name in report.per_param}
        assert {"emb", "hds", "ss", "dense", "moe"} <= groups
        assert report.per_param["exam.logit"] <= 1e-4

    def test_checks_the_table_at_the_spread_point(self, monkeypatch):
        config = tiny_gradcheck_config()
        fresh = ParModel(config, config.build_layout(), config.seed)
        spread = trainer._rng(config.seed, trainer._GRADCHECK, 1)
        want = {name: spread.uniform(-0.6, 0.6, size=p.shape)
                for name, p in fresh.params.items()}["exam.logit"]
        seen = {}
        real = trainer.finite_diff_check

        def spy(loss_fn, params, **kwargs):
            loss_fn()
            seen["table"] = params["exam.logit"].values.copy()
            return real(loss_fn, params, **kwargs)

        monkeypatch.setattr(trainer, "finite_diff_check", spy)
        gradcheck(config)
        np.testing.assert_array_equal(seen["table"], want)

    def test_rejects_large_configs(self):
        with pytest.raises(ConfigError):
            gradcheck(tiny_gradcheck_config(n=4))

"""Embedding tables and batched page inputs."""

import numpy as np
import pytest

from par.autograd import Tensor, finite_diff_check
from par.embedding import (EmbeddingTable, PageBatch, embed_history, embed_page,
                           embedding_rows)
from par.errors import DataError


def random_table(vocab_size, dim, rng):
    return EmbeddingTable(Tensor(embedding_rows(rng, vocab_size, dim), requires_grad=True))


def toy_batch(rng, b=1, n=1, m=3, t=2, vocab=6):
    items = rng.integers(1, vocab, size=(b, n, m))
    history = rng.integers(1, vocab, size=(b, t))
    return PageBatch(
        items=items,
        categories=np.ones_like(items),
        history=history,
        history_categories=np.ones_like(history),
        clicks=np.zeros((b, n, m)),
        mask=np.ones((b, n, m)),
        history_mask=np.ones((b, t)),
    )


class TestEmbeddingTable:
    def test_needs_one_real_id(self):
        with pytest.raises(DataError, match="vocab_size must be >= 2"):
            embedding_rows(np.random.default_rng(0), 1, 4)
        with pytest.raises(DataError, match="vocab_size must be >= 2"):
            EmbeddingTable(Tensor(np.zeros((0, 4))))

    def test_padding_id_maps_to_zero(self):
        table = random_table(5, 4, np.random.default_rng(0))
        out = table.lookup(np.array([0]))
        np.testing.assert_array_equal(out.values, np.zeros((1, 4)))

    def test_lookup_is_exact_row_selection(self):
        table = random_table(5, 4, np.random.default_rng(1))
        out = table.lookup(np.array([2, 2, 4]))
        np.testing.assert_array_equal(out.values[0], table.weights.values[1])
        np.testing.assert_array_equal(out.values[0], out.values[1])
        np.testing.assert_array_equal(out.values[2], table.weights.values[3])

    def test_out_of_range_id(self):
        table = random_table(5, 4, np.random.default_rng(2))
        with pytest.raises(DataError, match="7"):
            table.lookup(np.array([1, 7]))

    def test_padding_row_receives_no_gradient(self):
        table = random_table(4, 3, np.random.default_rng(3))
        out = table.lookup(np.array([0, 1, 2]))
        out.sum().backward()
        # only real rows are parameters; their grads reflect single lookups
        np.testing.assert_array_equal(table.weights.grad[0], np.ones(3))
        np.testing.assert_array_equal(table.weights.grad[1], np.ones(3))
        np.testing.assert_array_equal(table.weights.grad[2], np.zeros(3))

    def test_repeated_id_gradient_sums_occurrences(self):
        table = random_table(4, 2, np.random.default_rng(4))

        def model():
            out = table.lookup(np.array([1, 1, 2]))
            return (out * out).sum()

        report = finite_diff_check(model, {"weights": table.weights})
        assert report.passed, report.lines()


class TestPageBatch:
    def test_padding_invariants_enforced(self):
        with pytest.raises(DataError):
            PageBatch(
                items=np.array([[[5, 3]]]),
                categories=np.array([[[1, 1]]]),
                history=np.array([[1]]),
                history_categories=np.array([[1]]),
                clicks=np.zeros((1, 1, 2)),
                mask=np.array([[[1.0, 0.0]]]),  # slot 1 padded but id != 0
                history_mask=np.ones((1, 1)),
            )

    def test_select_subsets_rows(self):
        rng = np.random.default_rng(5)
        batch = toy_batch(rng, b=4)
        sub = batch.select(np.array([2, 0]))
        np.testing.assert_array_equal(sub.items, batch.items[[2, 0]])
        assert sub.size == 2


class TestEmbedOps:
    def test_embed_page_shape_and_sum(self):
        rng = np.random.default_rng(6)
        batch = toy_batch(rng, b=2, n=2, m=3)
        item_table = random_table(6, 4, rng)
        cat_table = random_table(3, 4, rng)
        out = embed_page(batch, item_table, cat_table)
        assert out.shape == (2, 2, 3, 4)
        expected = (item_table.lookup(batch.items).values
                    + cat_table.lookup(batch.categories).values)
        np.testing.assert_array_equal(out.values, expected)

    def test_embed_history_shape(self):
        rng = np.random.default_rng(7)
        batch = toy_batch(rng, b=2, t=5)
        item_table = random_table(6, 3, rng)
        cat_table = random_table(3, 3, rng)
        out = embed_history(batch, item_table, cat_table)
        assert out.shape == (2, 5, 3)
        expected = (item_table.lookup(batch.history).values
                    + cat_table.lookup(batch.history_categories).values)
        np.testing.assert_array_equal(out.values, expected)

    def test_padding_slots_embed_to_zero(self):
        rng = np.random.default_rng(8)
        batch = PageBatch(
            items=np.array([[[3, 0]]]),
            categories=np.array([[[1, 0]]]),
            history=np.array([[0]]),
            history_categories=np.array([[0]]),
            clicks=np.zeros((1, 1, 2)),
            mask=np.array([[[1.0, 0.0]]]),
            history_mask=np.zeros((1, 1)),
        )
        out = embed_page(batch, random_table(6, 4, rng), random_table(3, 4, rng))
        np.testing.assert_array_equal(out.values[0, 0, 1], np.zeros(4))

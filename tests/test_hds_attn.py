"""Dual-side attention and the hierarchical aggregation stack."""

import logging

import numpy as np
import pytest

from par import autograd as ag
from par import hds_attn
from par.autograd import Tensor, finite_diff_check
from par.hds_attn import (AggregationParams, DualSideParams, candidate_self_attention,
                          dual_side_attention, item_level_aggregation,
                          list_level_aggregation, list_level_self_attention)


def make_dual_params(rng, n, d_x, d_h, m):
    return DualSideParams(
        w_a=Tensor(rng.uniform(-1, 1, (n, d_h, d_x)), requires_grad=True),
        w_x=Tensor(rng.uniform(-1, 1, (n, d_x, m)), requires_grad=True),
        w_h=Tensor(rng.uniform(-1, 1, (n, d_h, m)), requires_grad=True),
    )


def make_agg_params(rng, d_l):
    return AggregationParams(
        w_l=Tensor(rng.uniform(-1, 1, (d_l, d_l)), requires_grad=True),
        b_l=Tensor(rng.uniform(-1, 1, d_l), requires_grad=True),
        q_item=Tensor(rng.uniform(-1, 1, (d_l, 1)), requires_grad=True),
        w_p=Tensor(rng.uniform(-1, 1, (d_l, d_l)), requires_grad=True),
        b_p=Tensor(rng.uniform(-1, 1, d_l), requires_grad=True),
        q_list=Tensor(rng.uniform(-1, 1, (d_l, 1)), requires_grad=True),
    )


def attention_internals(x, h, params, mask, hmask):
    """Reference A_x / A_h computed with plain numpy (no masking applied)."""
    out = {}
    affinity = np.tanh((h[:, None] @ params.w_a.values) @ x.swapaxes(-1, -2))
    xw = x @ params.w_x.values
    hw = h[:, None] @ params.w_h.values
    cand = np.tanh(xw + hw.swapaxes(-1, -2) @ affinity)
    cand = cand + (1 - mask[:, :, None, :]) * -1e9
    e = np.exp(cand - cand.max(-1, keepdims=True))
    out["a_x"] = e / e.sum(-1, keepdims=True)
    hist = np.tanh(hw + affinity @ xw).swapaxes(-1, -2)
    hist = hist + (1 - hmask[:, None, None, :]) * -1e9
    e = np.exp(hist - hist.max(-1, keepdims=True))
    out["a_h"] = e / e.sum(-1, keepdims=True)
    return out


class TestDualSideAttention:
    def test_single_candidate_passthrough(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (1, 1, 1, 4)))
        h = Tensor(rng.uniform(-1, 1, (1, 3, 4)))
        params = make_dual_params(rng, 1, 4, 4, 1)
        mask = np.ones((1, 1, 1))
        hmask = np.ones((1, 3))
        x_t, _ = dual_side_attention(x, h, params, mask, hmask)
        np.testing.assert_allclose(x_t.values, x.values, atol=1e-12)

    def test_attention_rows_normalized(self):
        rng = np.random.default_rng(1)
        b, n, m, t, d = 2, 3, 4, 5, 4
        x = rng.uniform(-1, 1, (b, n, m, d))
        h = rng.uniform(-1, 1, (b, t, d))
        params = make_dual_params(rng, n, d, d, m)
        mask = np.ones((b, n, m))
        hmask = np.ones((b, t))
        internals = attention_internals(x, h, params, mask, hmask)
        np.testing.assert_allclose(internals["a_x"].sum(-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(internals["a_h"].sum(-1), 1.0, atol=1e-12)
        # and the module output agrees with the reference combination
        x_t, h_t = dual_side_attention(Tensor(x), Tensor(h), params, mask, hmask)
        np.testing.assert_allclose(x_t.values, internals["a_x"] @ x, atol=1e-12)
        np.testing.assert_allclose(h_t.values, internals["a_h"] @ h[:, None], atol=1e-12)

    def test_shapes_and_gradients(self):
        rng = np.random.default_rng(2)
        m, t, d = 2, 3, 4
        x0 = rng.uniform(-1, 1, (1, 1, m, d))
        h0 = rng.uniform(-1, 1, (1, t, d))
        params = make_dual_params(rng, 1, d, d, m)
        mask = np.ones((1, 1, m))
        hmask = np.ones((1, t))
        x = Tensor(x0, requires_grad=True)
        h = Tensor(h0, requires_grad=True)

        def model():
            x_t, h_t = dual_side_attention(x, h, params, mask, hmask)
            assert x_t.shape == (1, 1, m, d)
            assert h_t.shape == (1, 1, m, d)
            return (ag.tanh(x_t).sum() + ag.tanh(h_t).sum())

        report = finite_diff_check(model, {
            "x": x, "h": h,
            "w_a": params.w_a, "w_x": params.w_x, "w_h": params.w_h,
        })
        assert report.passed, report.lines()

    def test_masked_candidates_get_no_weight(self):
        rng = np.random.default_rng(3)
        b, n, m, t, d = 1, 1, 4, 3, 4
        x = rng.uniform(-1, 1, (b, n, m, d))
        h = rng.uniform(-1, 1, (b, t, d))
        params = make_dual_params(rng, n, d, d, m)
        mask = np.array([[[1.0, 1.0, 0.0, 0.0]]])
        hmask = np.ones((b, t))
        internals = attention_internals(x, h, params, mask, hmask)
        assert internals["a_x"][..., 2:].max() < 1e-30

    def test_empty_history_falls_back_to_slot_zero(self, caplog):
        rng = np.random.default_rng(4)
        hds_attn._warned_empty_history = False
        b, n, m, t, d = 2, 1, 2, 3, 4
        x = Tensor(rng.uniform(-1, 1, (b, n, m, d)))
        h = Tensor(rng.uniform(-1, 1, (b, t, d)))
        params = make_dual_params(rng, n, d, d, m)
        mask = np.ones((b, n, m))
        hmask = np.stack([np.zeros(t), np.ones(t)])
        with caplog.at_level(logging.WARNING):
            _, h_t = dual_side_attention(x, h, params, mask, hmask)
        # the empty-history page reads history slot 0 with weight 1
        np.testing.assert_allclose(h_t.values[0], np.broadcast_to(h.values[0, 0], (n, m, d)),
                                   atol=1e-12)
        assert sum("empty history" in r.message for r in caplog.records) == 1
        # warning is emitted once only
        with caplog.at_level(logging.WARNING):
            dual_side_attention(x, h, params, mask, hmask)
        assert sum("empty history" in r.message for r in caplog.records) == 1


class TestItemLevelAggregation:
    def test_single_item_list(self):
        rng = np.random.default_rng(5)
        x_t = Tensor(rng.uniform(-1, 1, (1, 1, 1, 3)))
        h_t = Tensor(rng.uniform(-1, 1, (1, 1, 1, 3)))
        params = make_agg_params(rng, 6)
        pooled = item_level_aggregation(x_t, h_t, params, np.ones((1, 1, 1)))
        expected = np.concatenate([x_t.values[0, 0, 0], h_t.values[0, 0, 0]])
        np.testing.assert_allclose(pooled.values[0, 0], expected, atol=1e-12)

    def test_identical_items_pool_to_common_vector(self):
        rng = np.random.default_rng(6)
        row = rng.uniform(-1, 1, 3)
        x_t = Tensor(np.tile(row, (1, 1, 5, 1)))
        h_t = Tensor(np.tile(-row, (1, 1, 5, 1)))
        params = make_agg_params(rng, 6)
        pooled = item_level_aggregation(x_t, h_t, params, np.ones((1, 1, 5)))
        np.testing.assert_allclose(pooled.values[0, 0], np.concatenate([row, -row]), atol=1e-12)

    def test_masked_items_excluded(self):
        rng = np.random.default_rng(7)
        x_t = rng.uniform(-1, 1, (1, 1, 3, 2))
        h_t = rng.uniform(-1, 1, (1, 1, 3, 2))
        params = make_agg_params(rng, 4)
        mask = np.array([[[1.0, 0.0, 0.0]]])
        pooled = item_level_aggregation(Tensor(x_t), Tensor(h_t), params, mask)
        expected = np.concatenate([x_t[0, 0, 0], h_t[0, 0, 0]])
        np.testing.assert_allclose(pooled.values[0, 0], expected, atol=1e-12)


class TestListLevel:
    def test_single_list_identity(self):
        rng = np.random.default_rng(8)
        lists = Tensor(rng.uniform(-1, 1, (2, 1, 6)))
        out = list_level_self_attention(lists)
        np.testing.assert_allclose(out.values, lists.values, atol=1e-12)

    def test_identical_lists_stay_equal(self):
        rng = np.random.default_rng(9)
        row = rng.uniform(-1, 1, 6)
        lists = Tensor(np.tile(row, (1, 2, 1)))
        out = list_level_self_attention(lists)
        np.testing.assert_allclose(out.values[0, 0], row, atol=1e-12)
        np.testing.assert_allclose(out.values[0, 1], row, atol=1e-12)

    def test_aggregation_single_list(self):
        rng = np.random.default_rng(10)
        lists = Tensor(rng.uniform(-1, 1, (1, 1, 6)))
        params = make_agg_params(rng, 6)
        out = list_level_aggregation(lists, params)
        np.testing.assert_allclose(out.values[0], lists.values[0, 0], atol=1e-12)

    def test_page_vector_invariant_to_list_order(self):
        rng = np.random.default_rng(11)
        lists = rng.uniform(-1, 1, (1, 4, 6))
        params = make_agg_params(rng, 6)

        def page_vec(arr):
            pooled = list_level_self_attention(Tensor(arr))
            return list_level_aggregation(pooled, params).values

        perm = [2, 0, 3, 1]
        np.testing.assert_allclose(page_vec(lists), page_vec(lists[:, perm]), atol=1e-12)

    def test_full_stack_gradients(self):
        rng = np.random.default_rng(12)
        b, n, m, d = 1, 2, 2, 2
        x_t = Tensor(rng.uniform(-1, 1, (b, n, m, d)), requires_grad=True)
        h_t = Tensor(rng.uniform(-1, 1, (b, n, m, d)), requires_grad=True)
        params = make_agg_params(rng, 2 * d)
        mask = np.ones((b, n, m))

        def model():
            pooled = item_level_aggregation(x_t, h_t, params, mask)
            page = list_level_aggregation(list_level_self_attention(pooled), params)
            return ag.tanh(page).sum()

        report = finite_diff_check(model, {
            "x_t": x_t, "h_t": h_t, "w_l": params.w_l, "b_l": params.b_l,
            "q_item": params.q_item, "w_p": params.w_p, "b_p": params.b_p,
            "q_list": params.q_list,
        })
        assert report.passed, report.lines()


class TestCandidateSelfAttention:
    def test_shapes_match_dual_side(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 5)))
        mask = np.ones((2, 3, 4))
        x_t = candidate_self_attention(x, mask)
        assert x_t.shape == (2, 3, 4, 5)

    def test_single_item(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(-1, 1, (1, 1, 1, 4)))
        x_t = candidate_self_attention(x, np.ones((1, 1, 1)))
        np.testing.assert_allclose(x_t.values, x.values, atol=1e-12)

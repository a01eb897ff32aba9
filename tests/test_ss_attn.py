"""Spatial-scaled attention and its learnable distance damping."""

import math

import numpy as np
import pytest

from par import autograd as ag
from par import ss_attn
from par.autograd import Tensor, finite_diff_check
from par.errors import ContractError
from par.layout import manhattan_distance_matrix, stacked_preset
from par.ss_attn import SSAttnParams, learnable_sigmoid, spatial_scaled_attention


def make_params(rng, heads, d_x, d_a, d_o, with_v=True):
    return SSAttnParams(
        w_q=Tensor(rng.uniform(-1, 1, (heads, d_x, d_a)), requires_grad=True),
        w_k=Tensor(rng.uniform(-1, 1, (heads, d_x, d_a)), requires_grad=True),
        w_v=Tensor(rng.uniform(-1, 1, (heads, d_x, d_a)), requires_grad=True),
        v=Tensor(rng.uniform(-0.5, 0.5, heads), requires_grad=True) if with_v else None,
        w_o=Tensor(rng.uniform(-1, 1, (heads * d_a, d_o)), requires_grad=True),
    )


class TestLearnableSigmoid:
    def test_unit_at_zero_distance(self):
        for v in range(-5, 6):
            f = learnable_sigmoid(0.0, float(v))
            assert f.item() == 1.0

    def test_strictly_decreasing(self):
        for v in np.linspace(-5, 5, 11):
            values = [learnable_sigmoid(float(d), float(v)).item()
                      for d in range(51)]
            assert all(a > b for a, b in zip(values, values[1:]))
        f1 = learnable_sigmoid(1.0, 0.3).item()
        f2 = learnable_sigmoid(2.0, 0.3).item()
        assert f1 > f2

    def test_closed_form_value(self):
        f = learnable_sigmoid(10.0, 0.0)
        assert abs(f.item() - 2.0 / (1.0 + math.e)) < 1e-12
        assert abs(f.item() - 0.537883) < 1e-6

    def test_overflow_safe(self):
        assert np.isfinite(learnable_sigmoid(10000.0, 900.0).item())
        assert learnable_sigmoid(10000.0, -900.0).item() > 0.0

    def test_range(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0, 100, 50)
        v = rng.uniform(-10, 10, 50)
        vals = np.array([learnable_sigmoid(float(dd), float(vv)).item()
                         for dd, vv in zip(d, v)])
        assert np.all(vals > 0) and np.all(vals <= 1)

    def test_rectified_logits_never_flip_sign(self):
        # softplus keeps preliminary logits non-negative, so the (0,1] factor
        # can only shrink them
        rng = np.random.default_rng(33)
        raw = rng.uniform(-50, 50, 200)
        rect = np.logaddexp(0, raw)
        factor = np.array([learnable_sigmoid(float(d), 0.7).item()
                           for d in rng.uniform(0, 30, 200)])
        scaled = rect * factor
        assert np.all(rect >= 0)
        assert np.all(scaled >= 0)
        assert np.all(scaled <= rect + 1e-15)

    def test_gradient_in_v(self):
        v = Tensor(np.array([0.4]), requires_grad=True)

        def model():
            return learnable_sigmoid(np.array([3.0, 7.0]), ag.reshape(v, (1, 1))).sum()

        report = finite_diff_check(model, {"v": v})
        assert report.passed, report.lines()


class TestSpatialScaledAttention:
    def test_single_slot_projection(self):
        rng = np.random.default_rng(1)
        params = make_params(rng, heads=1, d_x=3, d_a=2, d_o=4)
        x = rng.uniform(-1, 1, (1, 1, 3))
        out = spatial_scaled_attention(Tensor(x), np.zeros((1, 1), dtype=np.int64),
                                       params, np.ones((1, 1)))
        expected = x @ params.w_v.values[0] @ params.w_o.values
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_distance_shape_contract(self):
        rng = np.random.default_rng(2)
        params = make_params(rng, 1, 3, 2, 4)
        with pytest.raises(ContractError):
            spatial_scaled_attention(Tensor(rng.uniform(-1, 1, (1, 4, 3))),
                                     np.zeros((3, 3), dtype=np.int64),
                                     params, np.ones((1, 4)))

    def test_attention_rows_sum_to_one(self):
        # verified through a uniform-value probe: with all value vectors equal,
        # the output per head equals that value iff weights sum to 1
        rng = np.random.default_rng(3)
        d_x, d_a = 4, 3
        params = make_params(rng, heads=2, d_x=d_x, d_a=d_a, d_o=3)
        lay = stacked_preset(2, 3)
        dist = manhattan_distance_matrix(lay)
        x = np.tile(rng.uniform(-1, 1, d_x), (1, 6, 1))
        out = spatial_scaled_attention(Tensor(x), dist, params, np.ones((1, 6)))
        head_val = x[0, 0] @ params.w_v.values  # (heads, d_a), same for all slots
        expected = np.tile(head_val.reshape(-1), (6, 1)) @ params.w_o.values
        np.testing.assert_allclose(out.values[0], expected, atol=1e-9)

    def test_closer_key_gets_more_weight(self):
        # three slots on a line, identical embeddings so preliminary logits tie;
        # weight must then strictly decrease with distance from the query
        rng = np.random.default_rng(4)
        d_x, d_a = 4, 4
        w = np.eye(d_x)
        params = SSAttnParams(
            w_q=Tensor(w[None]), w_k=Tensor(w[None]), w_v=Tensor(w[None]),
            v=Tensor(np.zeros(1), requires_grad=True),
            w_o=Tensor(np.eye(d_x)),
        )
        lay = stacked_preset(1, 3)
        dist = manhattan_distance_matrix(lay)
        x = np.tile(rng.uniform(0.5, 1.0, d_x), (1, 3, 1))

        x4 = x[:, None]
        q = x4 @ params.w_q.values
        raw = q @ (x4 @ params.w_k.values).swapaxes(-1, -2)
        factor = (1 + np.exp(0.0)) / (1 + np.exp(0.1 * dist))
        logits = np.logaddexp(0, raw) * factor / math.sqrt(d_a)
        weights = np.exp(logits[0, 0, 0] - logits[0, 0, 0].max())
        weights /= weights.sum()
        assert weights[0] > weights[1] > weights[2]

        # the op agrees with this reference
        out = spatial_scaled_attention(Tensor(x), dist, params, np.ones((1, 3)))
        v_proj = x4 @ params.w_v.values
        expected0 = weights @ v_proj[0, 0]
        np.testing.assert_allclose(out.values[0, 0], expected0 @ np.eye(d_x), atol=1e-12)

    def test_sigma_zero_reduces_to_softplus_attention(self, monkeypatch):
        monkeypatch.setattr(ss_attn, "SIGMA", 0.0)
        rng = np.random.default_rng(5)
        d_x, d_a, d_o = 4, 3, 5
        params = make_params(rng, heads=2, d_x=d_x, d_a=d_a, d_o=d_o)
        lay = stacked_preset(2, 2)
        dist = manhattan_distance_matrix(lay)
        x = rng.uniform(-1, 1, (2, 4, d_x))
        mask = np.ones((2, 4))
        out = spatial_scaled_attention(Tensor(x), dist, params, mask)

        x4 = x[:, None]
        q = x4 @ params.w_q.values
        k = x4 @ params.w_k.values
        val = x4 @ params.w_v.values
        logits = np.logaddexp(0, q @ k.swapaxes(-1, -2)) / math.sqrt(d_a)
        e = np.exp(logits - logits.max(-1, keepdims=True))
        attn = e / e.sum(-1, keepdims=True)
        heads = attn @ val
        merged = heads.transpose(0, 2, 1, 3).reshape(2, 4, -1)
        np.testing.assert_allclose(out.values, merged @ params.w_o.values, atol=1e-12)

    def test_padded_slots_masked_and_zeroed(self):
        rng = np.random.default_rng(6)
        params = make_params(rng, 1, 3, 2, 4)
        lay = stacked_preset(1, 3)
        dist = manhattan_distance_matrix(lay)
        x = rng.uniform(-1, 1, (1, 3, 3))
        mask = np.array([[1.0, 1.0, 0.0]])
        out = spatial_scaled_attention(Tensor(x), dist, params, mask)
        np.testing.assert_array_equal(out.values[0, 2], 0.0)

    @pytest.mark.parametrize("with_v", [True, False], ids=["PAR", "PAR-scale"])
    def test_gradients_with_a_masked_key(self, with_v):
        rng = np.random.default_rng(7)
        d_x, d_a, d_o = 3, 2, 2
        params = make_params(rng, heads=2, d_x=d_x, d_a=d_a, d_o=d_o, with_v=with_v)
        lay = stacked_preset(2, 2)
        dist = manhattan_distance_matrix(lay)
        x = Tensor(rng.uniform(-1, 1, (2, 4, d_x)), requires_grad=True)
        mask = np.ones((2, 4))
        mask[1, 2] = 0.0

        def model():
            out = spatial_scaled_attention(x, dist, params, mask)
            return ag.tanh(out).sum()

        tensors = {"x": x, "w_q": params.w_q, "w_k": params.w_k, "w_v": params.w_v,
                   "w_o": params.w_o}
        if with_v:
            tensors["v"] = params.v
        report = finite_diff_check(model, tensors)
        assert report.passed, report.lines()

"""Dense network, mixture-of-experts head, loss, and rerank sort."""

import math

import numpy as np
import pytest

from par import autograd as ag
from par.autograd import Tensor, finite_diff_check
from par.errors import ContractError
from par.scoring import MMoEParams, Mlp, bce_loss, dense_network, mlp, mmoe_score, rerank


def make_dense(rng, dims, zero=False, stack=()):
    mk = (lambda s: np.zeros(s)) if zero else (lambda s: rng.uniform(-1, 1, s))
    return Mlp(
        weights=[Tensor(mk(stack + (dims[i], dims[i + 1])), requires_grad=True)
                 for i in range(len(dims) - 1)],
        biases=[Tensor(mk(stack + (dims[i + 1],)), requires_grad=True)
                for i in range(len(dims) - 1)],
    )


def make_moe(rng, n, d_z, experts, e_dims, t_dims):
    e_dims = (d_z,) + tuple(e_dims)
    return MMoEParams(
        experts=make_dense(rng, e_dims, stack=(experts,)),
        gate_w=Tensor(rng.uniform(-1, 1, (n, d_z, experts)), requires_grad=True),
        gate_b=Tensor(rng.uniform(-1, 1, (n, experts)), requires_grad=True),
        towers=make_dense(rng, (e_dims[-1],) + tuple(t_dims) + (1,), stack=(n,)),
    )


class TestDenseNetwork:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(0)
        params = make_dense(rng, (4, 3, 2), zero=True)
        x = Tensor(rng.uniform(-1, 1, (1, 2, 2, 4)))
        np.testing.assert_array_equal(dense_network(x, params).values, 0.0)

    def test_weight_sharing_across_slots(self):
        rng = np.random.default_rng(1)
        params = make_dense(rng, (4, 3, 2))
        row = rng.uniform(-1, 1, 4)
        x = Tensor(np.tile(row, (1, 2, 3, 1)))
        out = dense_network(x, params).values
        np.testing.assert_allclose(out, np.tile(out[0, 0, 0], (1, 2, 3, 1)), atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        params = make_dense(rng, (3, 4, 2))
        x = Tensor(rng.uniform(-1, 1, (1, 1, 2, 3)), requires_grad=True)

        def model():
            return ag.tanh(dense_network(x, params)).sum()

        names = {"x": x}
        names.update({f"w{i}": w for i, w in enumerate(params.weights)})
        names.update({f"b{i}": b for i, b in enumerate(params.biases)})
        report = finite_diff_check(model, names)
        assert report.passed, report.lines()

    def test_stacked_equals_each_slice(self):
        rng = np.random.default_rng(12)
        k, dims = 3, (4, 5, 3, 2)
        stacked = make_dense(rng, dims, stack=(k,))
        x = rng.uniform(-1, 1, (2, k, 6, dims[0]))
        out = mlp(Tensor(x), stacked).values
        assert out.shape == (2, k, 6, dims[-1])
        for j in range(k):
            alone = Mlp(weights=[Tensor(w.values[j]) for w in stacked.weights],
                        biases=[Tensor(b.values[j]) for b in stacked.biases])
            np.testing.assert_allclose(out[:, j], mlp(Tensor(x[:, j]), alone).values,
                                       rtol=0, atol=1e-12)

    def test_relu_between_layers_not_after_last(self):
        w = [Tensor(np.array([[1.0, -1.0]])), Tensor(np.array([[1.0], [1.0]]))]
        b = [Tensor(np.zeros(2)), Tensor(np.array([-5.0]))]
        out = mlp(Tensor(np.array([[2.0]])), Mlp(weights=w, biases=b)).values
        np.testing.assert_array_equal(out, [[-3.0]])


class TestMmoeScore:
    def test_scores_in_open_unit_interval(self):
        rng = np.random.default_rng(3)
        n, d_l, d_r, d_o = 2, 4, 3, 3
        moe = make_moe(rng, n, d_l + d_r + d_o, experts=3, e_dims=(5, 4), t_dims=(4,))
        y = mmoe_score(Tensor(rng.uniform(-1, 1, (2, d_l))),
                       Tensor(rng.uniform(-1, 1, (2, n, 3, d_r))),
                       Tensor(rng.uniform(-1, 1, (2, n, 3, d_o))), moe)
        assert y.shape == (2, n, 3)
        assert np.all(y.values > 0) and np.all(y.values < 1)

    def test_single_expert_ignores_gate(self):
        rng = np.random.default_rng(4)
        n, d_l, d_r, d_o = 2, 2, 2, 2
        d_z = d_l + d_r + d_o
        moe = make_moe(rng, n, d_z, experts=1, e_dims=(4, 3), t_dims=(3,))
        page = Tensor(rng.uniform(-1, 1, (1, d_l)))
        dense = Tensor(rng.uniform(-1, 1, (1, n, 2, d_r)))
        infl = Tensor(rng.uniform(-1, 1, (1, n, 2, d_o)))
        base = mmoe_score(page, dense, infl, moe).values
        moe.gate_w.values = rng.uniform(-9, 9, moe.gate_w.shape)
        moe.gate_b.values = rng.uniform(-9, 9, moe.gate_b.shape)
        np.testing.assert_allclose(mmoe_score(page, dense, infl, moe).values, base, atol=1e-12)

    def test_gate_weights_normalized(self):
        rng = np.random.default_rng(5)
        n, d_z = 2, 6
        z = rng.uniform(-1, 1, (3, n, 4, d_z))
        gate_w = rng.uniform(-1, 1, (n, d_z, 5))
        gate_b = rng.uniform(-1, 1, (n, 1, 5))
        logits = z @ gate_w + gate_b
        e = np.exp(logits - logits.max(-1, keepdims=True))
        gamma = e / e.sum(-1, keepdims=True)
        np.testing.assert_allclose(gamma.sum(-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-12, 0.0),
                                                   (np.float32, 0.0, 1e-5)],
                             ids=["float64", "float32"])
    def test_page_once_gate_logits_match_the_concatenated_input(self, monkeypatch, dtype,
                                                                rtol, atol):
        """Gate logits in the inputs' dtype, equal to concat([page, dense, infl]) @ W + b."""
        rng = np.random.default_rng(10)
        n, d_l, d_r, d_o = 3, 5, 4, 6
        moe = make_moe(rng, n, d_l + d_r + d_o, experts=4, e_dims=(5, 4), t_dims=(3,))
        page = rng.uniform(-1, 1, (2, d_l))
        dense = rng.uniform(-1, 1, (2, n, 7, d_r))
        infl = rng.uniform(-1, 1, (2, n, 7, d_o))
        z = np.concatenate([np.broadcast_to(page[:, None, None], (2, n, 7, d_l)), dense, infl],
                           axis=-1)
        want = z @ moe.gate_w.values + moe.gate_b.values[:, None, :]
        for t in (moe.gate_w, moe.gate_b, *moe.experts.weights, *moe.experts.biases,
                  *moe.towers.weights, *moe.towers.biases):
            t.values = t.values.astype(dtype)
        logits = []
        softmax = ag.softmax
        monkeypatch.setattr(ag, "softmax", lambda x, axis: logits.append(x.values)
                            or softmax(x, axis))
        mmoe_score(*(Tensor(x.astype(dtype)) for x in (page, dense, infl)), moe)
        assert len(logits) == 1 and logits[0].dtype == dtype
        np.testing.assert_allclose(logits[0], want, rtol=rtol, atol=atol)

    def test_list_count_contract(self):
        rng = np.random.default_rng(6)
        moe = make_moe(rng, 2, 8, experts=2, e_dims=(4, 3), t_dims=(3,))
        with pytest.raises(ContractError):
            mmoe_score(Tensor(rng.uniform(-1, 1, (1, 3))),
                       Tensor(rng.uniform(-1, 1, (1, 3, 2, 3))),
                       Tensor(rng.uniform(-1, 1, (1, 3, 2, 2))), moe)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        n, d_l, d_r, d_o = 2, 2, 2, 2
        moe = make_moe(rng, n, d_l + d_r + d_o, experts=2, e_dims=(3, 2), t_dims=(2,))
        page = Tensor(rng.uniform(-1, 1, (1, d_l)), requires_grad=True)
        dense = Tensor(rng.uniform(-1, 1, (1, n, 2, d_r)), requires_grad=True)
        infl = Tensor(rng.uniform(-1, 1, (1, n, 2, d_o)), requires_grad=True)
        y = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        mask = np.ones((1, n, 2))

        def model():
            return bce_loss(mmoe_score(page, dense, infl, moe), y, mask)

        names = {"page": page, "dense": dense, "infl": infl,
                 "gate_w": moe.gate_w, "gate_b": moe.gate_b}
        names.update({f"e_w{i}": w for i, w in enumerate(moe.experts.weights)})
        names.update({f"e_b{i}": b for i, b in enumerate(moe.experts.biases)})
        names.update({f"t_w{i}": w for i, w in enumerate(moe.towers.weights)})
        names.update({f"t_b{i}": b for i, b in enumerate(moe.towers.biases)})
        report = finite_diff_check(model, names)
        assert report.passed, report.lines()


class TestBceLoss:
    def test_perfect_prediction_is_near_zero(self):
        y = np.array([[[1.0, 0.0]]])
        y_hat = Tensor(np.array([[[1.0, 0.0]]]))
        loss = bce_loss(y_hat, y, np.ones((1, 1, 2)))
        assert loss.item() < 1e-10

    def test_uninformative_prediction_is_ln2(self):
        rng = np.random.default_rng(9)
        y = (rng.uniform(size=(2, 3, 4)) < 0.5).astype(float)
        loss = bce_loss(Tensor(np.full((2, 3, 4), 0.5)), y, np.ones((2, 3, 4)))
        assert abs(loss.item() - math.log(2)) < 1e-12

    def test_single_slot_value(self):
        loss = bce_loss(Tensor(np.array([[[0.25]]])), np.array([[[1.0]]]), np.ones((1, 1, 1)))
        assert abs(loss.item() - 2 * math.log(2)) < 1e-12

    def test_masked_slots_excluded(self):
        y = np.array([[[1.0, 0.0]]])
        mask = np.array([[[1.0, 0.0]]])
        loss = bce_loss(Tensor(np.array([[[0.25, 0.9]]])), y, mask)
        assert abs(loss.item() - 2 * math.log(2)) < 1e-12


class TestRerank:
    def test_descending_order(self):
        scores = np.array([[0.9, 0.1, 0.5]])
        perm = rerank(scores, np.ones((1, 3)))
        np.testing.assert_array_equal(perm, [[0, 2, 1]])

    def test_ties_keep_initial_order(self):
        perm = rerank(np.zeros((1, 4)), np.ones((1, 4)))
        np.testing.assert_array_equal(perm, [[0, 1, 2, 3]])

    def test_padding_stays_at_tail(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.7]])
        mask = np.array([[1.0, 1.0, 0.0, 1.0]])
        perm = rerank(scores, mask)
        np.testing.assert_array_equal(perm, [[1, 3, 0, 2]])

    def test_permutation_is_bijection(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n, m = rng.integers(1, 5), rng.integers(1, 8)
            scores = rng.standard_normal((n, m))
            lengths = rng.integers(1, m + 1, size=n)
            mask = (np.arange(m)[None, :] < lengths[:, None]).astype(float)
            perm = rerank(scores * mask, mask)
            for i in range(n):
                assert sorted(perm[i]) == list(range(m))

    def test_page_axis_equals_per_page_calls(self):
        rng = np.random.default_rng(12)
        scores = np.round(rng.uniform(size=(7, 3, 5)), 1)  # ties
        mask = (np.arange(5)[None, :] < np.array([5, 3, 4])[:, None]).astype(float)
        mask = np.broadcast_to(mask, scores.shape)
        perms = rerank(scores, mask)
        assert perms.shape == scores.shape
        for p in range(7):
            np.testing.assert_array_equal(perms[p], rerank(scores[p], mask[p]))

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(0.05, 0.95, (3, 6))
        mask = np.ones((3, 6))
        base = rerank(scores, mask)
        for transform in (lambda s: 3 * s + 1, np.log, lambda s: s ** 3):
            np.testing.assert_array_equal(rerank(transform(scores), mask), base)

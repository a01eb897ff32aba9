"""Core tensor ops: values against hand-computed cases, gradients against
central finite differences."""

import math
import tracemalloc

import numpy as np
import pytest

from par import autograd as ag
from par import data_oracle
from par.autograd import AdamState, Tensor, adam_step, finite_diff_check
from par.config import TrainConfig
from par.data_oracle import train_initial_rankers
from par.errors import ContractError, DimensionError, NumericError


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-8)])


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((2, 2))
        out = ag.matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.values, m)

    def test_hand_product(self):
        out = ag.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        a0 = rng.uniform(-1, 1, (3, 3))
        b0 = rng.uniform(-1, 1, (3, 3))

        a = Tensor(a0.copy(), requires_grad=True)
        loss = ag.matmul(a, Tensor(b0)).sum()
        loss.backward()
        numeric = fd_grad(lambda x: (x @ b0).sum(), a0.copy())
        assert rel_err(a.grad, numeric).max() <= 1e-6

    def test_broadcast_batched_gradient(self):
        rng = np.random.default_rng(2)
        a0 = rng.uniform(-1, 1, (4, 2, 3))
        b0 = rng.uniform(-1, 1, (3, 5))
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        out = ag.matmul(a, b)
        assert out.shape == (4, 2, 5)
        out.sum().backward()
        na = fd_grad(lambda x: (x @ b0).sum(), a0.copy())
        nb = fd_grad(lambda x: (a0 @ x).sum(), b0.copy())
        assert rel_err(a.grad, na).max() <= 1e-4
        assert rel_err(b.grad, nb).max() <= 1e-4

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4, 5), (3, 5, 2)),     # (b, n, p, q) @ (n, q, r)
        ((2, 1, 4, 5), (3, 5, 2)),     # (b, 1, p, q) @ (n, q, r)
        ((2, 3, 4, 5), (5, 2)),        # (b, n, m, q) @ (q, r)
        ((2, 3, 4, 5), (2, 1, 5, 2)),  # (b, n, m, t) @ (b, 1, t, d)
    ])
    def test_model_shape_paths(self, a_shape, b_shape):
        rng = np.random.default_rng(4)
        a0, b0 = rng.uniform(-1, 1, a_shape), rng.uniform(-1, 1, b_shape)
        w = rng.uniform(-1, 1, np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
                        + (a_shape[-2], b_shape[-1]))
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        out = ag.matmul(a, b)
        np.testing.assert_allclose(out.values, np.matmul(a0, b0), rtol=1e-12, atol=1e-12)
        (out * Tensor(w)).sum().backward()
        na = fd_grad(lambda x: (np.matmul(x, b0) * w).sum(), a0.copy())
        nb = fd_grad(lambda x: (np.matmul(a0, x) * w).sum(), b0.copy())
        assert rel_err(a.grad, na).max() <= 1e-6
        assert rel_err(b.grad, nb).max() <= 1e-6

    def test_associativity(self):
        rng = np.random.default_rng(3)
        a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
        left = (Tensor(a) @ Tensor(b)) @ Tensor(c)
        right = Tensor(a) @ (Tensor(b) @ Tensor(c))
        np.testing.assert_allclose(left.values, right.values, atol=1e-9)


class TestSoftmax:
    def test_symmetry(self):
        out = ag.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.values, [0.5, 0.5], atol=1e-15)

    def test_single_element(self):
        out = ag.softmax(Tensor([3.7]))
        np.testing.assert_allclose(out.values, [1.0], atol=1e-15)

    def test_log_inputs(self):
        out = ag.softmax(Tensor([math.log(1), math.log(2), math.log(3)]))
        np.testing.assert_allclose(out.values, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(-50, 50, size=(3, 7))
            out = ag.softmax(Tensor(x), axis=-1)
            np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(out.values > 0)

    def test_large_inputs_stable(self):
        out = ag.softmax(Tensor([1e4, 1e4 + 1.0]))
        np.testing.assert_allclose(out.values.sum(), 1.0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x0 = rng.uniform(-1, 1, (2, 4))
        w = rng.uniform(-1, 1, (2, 4))

        x = Tensor(x0.copy(), requires_grad=True)
        (ag.softmax(x, axis=-1) * Tensor(w)).sum().backward()

        def f(v):
            e = np.exp(v - v.max(axis=-1, keepdims=True))
            return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

        numeric = fd_grad(f, x0.copy())
        assert rel_err(x.grad, numeric).max() <= 1e-4

    def test_bad_axis(self):
        with pytest.raises(DimensionError):
            ag.softmax(Tensor([1.0, 2.0]), axis=2)


class TestElementwise:
    def test_softplus_zero(self):
        out = ag.softplus(Tensor(0.0))
        assert abs(out.item() - math.log(2)) < 1e-12

    def test_softplus_overflow_safe(self):
        out = ag.softplus(Tensor([800.0, -800.0]))
        np.testing.assert_allclose(out.values, [800.0, 0.0], atol=1e-12)
        assert np.all(np.isfinite(out.values))

    def test_softplus_matches_logaddexp_with_sigmoid_derivative(self):
        x0 = np.concatenate([np.linspace(-800.0, 800.0, 16001), np.linspace(-40.0, 40.0, 8001)])
        x = Tensor(x0.copy(), requires_grad=True)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = ag.softplus(x)
            out.sum().backward()
        np.testing.assert_allclose(out.values, np.logaddexp(0.0, x0), rtol=1e-15, atol=0.0)
        tail = np.exp(-np.abs(x0))
        sigmoid = np.where(x0 >= 0.0, 1.0 / (1.0 + tail), tail / (1.0 + tail))
        np.testing.assert_allclose(x.grad, sigmoid, rtol=0.0, atol=1e-15)

    def test_relu(self):
        out = ag.relu(Tensor([-3.0, 3.0]))
        np.testing.assert_array_equal(out.values, [0.0, 3.0])

    def test_tanh_gradient_at_zero(self):
        x = Tensor(np.zeros(1), requires_grad=True)
        ag.tanh(x).sum().backward()
        numeric = fd_grad(lambda v: float(np.tanh(v).sum()), np.zeros(1))
        np.testing.assert_allclose(x.grad, 1.0, atol=1e-10)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6)

    @pytest.mark.parametrize("op,ref", [
        (ag.tanh, np.tanh),
        (ag.sigmoid, lambda v: 1 / (1 + np.exp(-v))),
        (ag.relu, lambda v: np.maximum(v, 0)),
        (ag.softplus, lambda v: np.logaddexp(0, v)),
    ])
    def test_unary_gradients(self, op, ref):
        rng = np.random.default_rng(6)
        x0 = rng.uniform(-1, 1, (3, 3)) + 0.01  # keep away from relu kink
        x = Tensor(x0.copy(), requires_grad=True)
        op(x).sum().backward()
        numeric = fd_grad(lambda v: float(ref(v).sum()), x0.copy())
        assert rel_err(x.grad, numeric).max() <= 1e-4

    def test_exp_log_gradients(self):
        rng = np.random.default_rng(60)
        x0 = rng.uniform(0.2, 1.0, (3, 3))
        x = Tensor(x0.copy(), requires_grad=True)
        (ag.exp(x) * ag.log(x)).sum().backward()
        numeric = fd_grad(lambda v: float((np.exp(v) * np.log(v)).sum()), x0.copy())
        assert rel_err(x.grad, numeric).max() <= 1e-4

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(7)
        a0 = rng.uniform(-1, 1, (2, 3, 4))
        b0 = rng.uniform(-1, 1, (4,))
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones_like(a0))
        np.testing.assert_allclose(b.grad, np.full_like(b0, 6.0))

    def test_broadcast_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3))) * Tensor(np.zeros((2, 4)))


def broadcast_batched_mixture(z, gamma, weights, biases):
    """Expert mixture as an (E, N, d) stack combined by (N, 1, E) @ (N, E, d)."""
    x = z[None]
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = x @ w + b[:, None, :]
        if i < len(weights) - 1:
            x = np.maximum(x, 0.0)
    return (gamma[:, None, :] @ x.transpose(1, 0, 2))[:, 0, :]


def make_experts(rng, experts, dims):
    weights = [Tensor(rng.uniform(-1, 1, (experts, dims[i], dims[i + 1])), requires_grad=True)
               for i in range(len(dims) - 1)]
    biases = [Tensor(rng.uniform(-1, 1, (experts, dims[i + 1])), requires_grad=True)
              for i in range(len(dims) - 1)]
    return weights, biases


def make_mixture_inputs(rng, experts, dims, pages, per_page, d_page=2):
    """Expert layers, (pages, d_page) page vectors, (rows, dims[0] - d_page) slot
    columns and (rows, E) gates, all requiring grad."""
    weights, biases = make_experts(rng, experts, dims)
    rows = pages * per_page
    page = Tensor(rng.uniform(-1, 1, (pages, d_page)), requires_grad=True)
    slot = Tensor(rng.uniform(-1, 1, (rows, dims[0] - d_page)), requires_grad=True)
    gamma = Tensor(rng.dirichlet(np.ones(experts), size=rows), requires_grad=True)
    return page, slot, gamma, weights, biases


def mixture_rows(page, slot):
    """The rows the experts read: each page vector repeated for its slots."""
    per_page = slot.shape[0] // page.shape[0]
    return np.concatenate([np.repeat(page, per_page, axis=0), slot], axis=1)


class TestExpertMixture:
    @staticmethod
    def check_gradients(rng, experts, dims, pages, per_page):
        page, slot, gamma, weights, biases = make_mixture_inputs(rng, experts, dims,
                                                                 pages, per_page)
        probe = Tensor(rng.uniform(-1, 1, (pages * per_page, dims[-1])))

        def model():
            mixed = ag.expert_mixture(page, slot, gamma, weights, biases)
            return (ag.tanh(mixed) * probe).sum()

        params = {"page": page, "slot": slot, "gamma": gamma}
        params.update({f"w{i}": w for i, w in enumerate(weights)})
        params.update({f"b{i}": b for i, b in enumerate(biases)})
        report = finite_diff_check(model, params, tol_rel=1e-4)
        assert report.passed, report.lines()

    @pytest.mark.parametrize("experts,dims", [
        (3, (4, 5)), (3, (4, 5, 3)), (3, (4, 5, 3, 2)), (1, (4, 5, 3)),
    ])
    def test_gradients(self, experts, dims):
        self.check_gradients(np.random.default_rng(70 + len(dims) + experts), experts, dims,
                             pages=2, per_page=3)

    def test_one_expert_stack_is_a_plain_mlp(self):
        """PAR-MMoE's head: one expert of three layers, unit gates and an (N, 1) output."""
        rng = np.random.default_rng(74)
        page, slot, _, weights, biases = make_mixture_inputs(rng, 1, (6, 5, 4, 1),
                                                             pages=4, per_page=3)
        ones = Tensor(np.ones((12, 1)))
        out = ag.expert_mixture(page, slot, ones, weights, biases)
        x = mixture_rows(page.values, slot.values)
        for i, (w, b) in enumerate(zip(weights, biases)):
            x = x @ w.values[0] + b.values[0]
            x = np.maximum(x, 0.0) if i < len(weights) - 1 else x
        assert out.shape == (12, 1)
        np.testing.assert_allclose(out.values, x, rtol=1e-12, atol=1e-15)

        def model():
            return ag.tanh(ag.expert_mixture(page, slot, ones, weights, biases)).sum()

        params = {"page": page, "slot": slot}
        params.update({f"w{i}": w for i, w in enumerate(weights)})
        params.update({f"b{i}": b for i, b in enumerate(biases)})
        report = finite_diff_check(model, params, tol_rel=1e-4)
        assert report.passed, report.lines()

    def test_gradients_across_page_blocks(self, monkeypatch):
        monkeypatch.setattr(ag, "EXPERT_BLOCK", 7)  # 3 rows a page: blocks of 2, 2 and 1 pages
        self.check_gradients(np.random.default_rng(77), 3, (4, 5, 3, 2), pages=5, per_page=3)

    @pytest.mark.parametrize("dims", [(7, 9, 5), (7, 9, 6, 5)])
    def test_matches_broadcast_batched_formula(self, dims):
        rng = np.random.default_rng(75)
        page, slot, gamma, weights, biases = make_mixture_inputs(rng, 4, dims, pages=10,
                                                                 per_page=5, d_page=3)
        out = ag.expert_mixture(page, slot, gamma, weights, biases)
        ref = broadcast_batched_mixture(mixture_rows(page.values, slot.values), gamma.values,
                                        [w.values for w in weights],
                                        [b.values for b in biases])
        np.testing.assert_allclose(out.values, ref, rtol=0.0, atol=1e-12)

    def test_page_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(78)
        inputs = make_mixture_inputs(rng, 3, (4, 5, 3, 2), pages=5, per_page=3)
        g = rng.standard_normal((15, 2))
        monkeypatch.setattr(ag, "EXPERT_BLOCK", 15)
        whole = ag.expert_mixture(*inputs)
        monkeypatch.setattr(ag, "EXPERT_BLOCK", 7)
        blocked = ag.expert_mixture(*inputs)
        np.testing.assert_allclose(blocked.values, whole.values, rtol=1e-12, atol=0)
        for a, b in zip(blocked._vjp(g), whole._vjp(g)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    def test_leaves_its_inputs_unchanged(self, monkeypatch):
        monkeypatch.setattr(ag, "EXPERT_BLOCK", 7)
        rng = np.random.default_rng(79)
        page, slot, gamma, weights, biases = make_mixture_inputs(rng, 3, (4, 5, 3, 2),
                                                                 pages=5, per_page=3)
        g = rng.standard_normal((15, 2))
        arrays = [g, page.values, slot.values, gamma.values] + [
            t.values for t in weights + biases]
        before = [a.copy() for a in arrays]
        ag.expert_mixture(page, slot, gamma, weights, biases)._vjp(g)
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)

    @staticmethod
    def large_inputs():
        """Inputs spanning four blocks, and the size of one (N, E, h1) activation array."""
        experts, dims, per_page = 4, (16, 64, 16), 8
        pages = 4 * ag.EXPERT_BLOCK // per_page
        inputs = make_mixture_inputs(np.random.default_rng(80), experts, dims, pages, per_page)
        return inputs, pages * per_page * experts * dims[1] * inputs[1].values.itemsize

    def test_forward_retains_less_than_one_activation(self):
        """Backward recomputes the activations, so the graph keeps less than one."""
        inputs, activation = self.large_inputs()
        tracemalloc.start()
        try:
            out = ag.expert_mixture(*inputs)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained < activation

    def test_backward_allocates_less_than_one_activation(self):
        """Page blocks keep the vjp's peak below one (N, E, h1) activation array."""
        inputs, activation = self.large_inputs()
        out = ag.expert_mixture(*inputs)
        g = np.random.default_rng(81).standard_normal(out.shape)
        tracemalloc.start()
        try:
            out._vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < activation

    def test_no_grad_records_nothing(self):
        rng = np.random.default_rng(76)
        page, slot, gamma, weights, biases = make_mixture_inputs(rng, 2, (3, 4, 2),
                                                                 pages=5, per_page=1)
        with ag.no_grad():
            out = ag.expert_mixture(page, slot, gamma, weights, biases)
        assert not out.requires_grad
        assert out._parents == () and out._vjp is None

    def test_shape_mismatch(self):
        rng = np.random.default_rng(77)
        weights, biases = make_experts(rng, 2, (3, 4, 2))
        page, gamma = Tensor(np.zeros((2, 1))), Tensor(np.zeros((6, 2)))
        with pytest.raises(DimensionError, match="width 4"):
            ag.expert_mixture(page, Tensor(np.zeros((6, 3))), gamma, weights, biases)
        with pytest.raises(DimensionError, match="take 3 experts"):
            ag.expert_mixture(page, Tensor(np.zeros((6, 2))), Tensor(np.zeros((6, 3))),
                              weights, biases)
        with pytest.raises(DimensionError, match="7 slot rows do not split into 2 pages"):
            ag.expert_mixture(page, Tensor(np.zeros((7, 2))), Tensor(np.zeros((7, 2))),
                              weights, biases)


def attention_inputs(rng, b=2, heads=2, nm=4, d_a=3):
    """Queries, keys, values and positive factors requiring grad; key 3 of page 1 masked."""
    q, k, val = (Tensor(rng.uniform(-1, 1, (b, heads, nm, d_a)), requires_grad=True)
                 for _ in range(3))
    factor = Tensor(rng.uniform(0.2, 1.0, (heads, nm, nm)), requires_grad=True)
    mask = np.ones((b, nm))
    mask[1, 3] = 0.0
    bias = ((1.0 - mask) * -1e9)[:, None, None, :]
    return q, k, val, factor, bias


def reference_attention(q, k, val, bias, factor):
    """The unfused graph: matmul, softplus, factor, scale, bias, softmax, matmul."""
    raw = ag.matmul(q, ag.transpose(k))
    scale = 1.0 / math.sqrt(q.shape[-1])
    logits = raw * scale if factor is None else ag.softplus(raw) * (factor * scale)
    return ag.matmul(ag.softmax(logits + bias, axis=-1), val)


class TestSpatialAttention:
    @pytest.mark.parametrize("scaled", [True, False], ids=["factor", "plain"])
    def test_gradients(self, scaled):
        q, k, val, factor, bias = attention_inputs(np.random.default_rng(82))
        probe = Tensor(np.random.default_rng(83).uniform(-1, 1, q.shape))
        factor_in = factor if scaled else None

        def model():
            return (ag.tanh(ag.spatial_attention(q, k, val, bias, factor_in)) * probe).sum()

        params = {"q": q, "k": k, "val": val}
        if scaled:
            params["factor"] = factor
        report = finite_diff_check(model, params, tol_rel=1e-4)
        assert report.passed, report.lines()

    @pytest.mark.parametrize("scaled", [True, False], ids=["factor", "plain"])
    def test_matches_unfused_graph(self, scaled):
        q, k, val, factor, bias = attention_inputs(np.random.default_rng(84))
        factor_in = factor if scaled else None
        out = ag.spatial_attention(q, k, val, bias, factor_in)
        ref = reference_attention(q, k, val, bias, factor_in)
        np.testing.assert_allclose(out.values, ref.values, rtol=0, atol=1e-12)
        g = np.random.default_rng(85).standard_normal(out.shape)
        (ref * g).sum().backward()
        expected = [t.grad for t in out._parents]
        for got, want in zip(out._vjp(g), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # the masked key takes no attention, so its value row takes no gradient
        np.testing.assert_array_equal(out._vjp(g)[2][1, :, 3], 0.0)

    def test_graph_keeps_at_most_two_score_arrays(self):
        q, k, val, factor, bias = attention_inputs(np.random.default_rng(86))
        square = q.shape[:3] + (q.shape[2],)
        for factor_in, most in [(factor, 2), (None, 1)]:
            out = ag.spatial_attention(q, k, val, bias, factor_in)
            held = [cell.cell_contents for cell in out._vjp.__closure__]
            arrays = [x.values if isinstance(x, Tensor) else x for x in held]
            kept = [a for a in arrays if isinstance(a, np.ndarray) and a.shape == square]
            assert len(kept) <= most

    def test_leaves_its_inputs_unchanged(self):
        q, k, val, factor, bias = attention_inputs(np.random.default_rng(87))
        g = np.random.default_rng(88).standard_normal(q.shape)
        arrays = [g, bias, q.values, k.values, val.values, factor.values]
        before = [a.copy() for a in arrays]
        ag.spatial_attention(q, k, val, bias, factor)._vjp(g)
        ag.spatial_attention(q, k, val, bias)._vjp(g)
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_logit_refused(self):
        q, k, val, factor, bias = attention_inputs(np.random.default_rng(89))
        q.values[0, 1, 2, 0] = np.inf
        for factor_in in (factor, None):
            with pytest.raises(NumericError, match="softmax requires finite input"):
                ag.spatial_attention(q, k, val, bias, factor_in)

    def test_float32_stays_float32(self):
        q, k, val, factor, bias = attention_inputs(np.random.default_rng(90))
        f32 = [Tensor(t.values.astype(np.float32), requires_grad=True)
               for t in (q, k, val, factor)]
        out = ag.spatial_attention(*f32[:3], bias, f32[3])
        assert out.values.dtype == np.float32
        out.sum().backward()
        assert {t.grad.dtype for t in f32} == {np.dtype(np.float32)}


class TestGraph:
    def test_grad_accumulates_over_consumers(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3.0 + x * 5.0).sum().backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).sum()
        y.backward()
        y.grad = None
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_gradients_stay_on_leaves_only(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        h = x @ w
        a = ag.tanh(h)
        loss = (a * a).sum()
        loss.backward()
        assert h.grad is None and a.grad is None and loss.grad is None
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_grad_shapes_match_params(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        ag.tanh(a @ b).sum().backward()
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape

    def test_gather_scatter_adds(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = ag.gather(table, np.array([2, 2, 4]))  # id k reads row k - 1
        np.testing.assert_array_equal(out.values, table.values[[1, 1, 3]])
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_gather_reads_zeros_for_id_zero(self):
        table = Tensor(np.arange(1.0, 10.0).reshape(3, 3), requires_grad=True)
        out = ag.gather(table, np.array([[0, 3], [1, 0]]))
        np.testing.assert_array_equal(out.values[0, 0], np.zeros(3))
        np.testing.assert_array_equal(out.values[0, 1], table.values[2])
        np.testing.assert_array_equal(out.values[1, 0], table.values[0])
        (out * 2.0).sum().backward()
        np.testing.assert_array_equal(table.grad, [[2.0] * 3, [0.0] * 3, [2.0] * 3])
        with pytest.raises(ContractError):
            ag.gather(table, np.array([4]))

    def test_gather_gradient_matches_add_at_bit_for_bit(self):
        rng = np.random.default_rng(11)
        table = Tensor(rng.standard_normal((9, 5)), requires_grad=True)
        ids = rng.integers(0, 10, (64, 4, 3))  # repeats, and the padding id 0
        assert (ids == 0).any() and len(np.unique(ids)) < ids.size
        g = rng.standard_normal(ids.shape + (5,))
        expected = np.zeros((10, 5))
        np.add.at(expected, ids, g)
        (grad,) = ag.gather(table, ids)._vjp(g)
        assert grad.dtype == g.dtype
        np.testing.assert_array_equal(grad, expected[1:])


class TestDtype:
    """A graph computes in its inputs' dtype: float32 stays float32, all else is float64."""

    F32 = np.dtype(np.float32)

    def test_inputs_that_are_not_float32_become_float64(self):
        for values in ([1, 2], np.arange(3), 2.5, np.ones(2, np.float16), np.ones(2)):
            assert Tensor(values).values.dtype == np.float64
        assert Tensor(np.ones(2, np.float32)).values.dtype == self.F32
        assert Tensor(np.float32(2.0)).values.dtype == self.F32

    def test_constants_take_the_float32_tensors_dtype(self):
        x = Tensor(np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3))
        constant64 = np.linspace(0, 1, 3)
        outs = [-x, x / 3.0, x / math.sqrt(5), 2.0 * x, x + 1, 1.0 - x, x - np.asarray(2.0),
                x * np.asarray(-1.0), x + constant64, ag.mul(constant64, x)]
        assert [out.values.dtype for out in outs] == [self.F32] * len(outs)
        np.testing.assert_allclose((x + constant64).values, x.values + constant64, rtol=1e-6)

    def test_float32_gradients_stay_float32(self):
        rng = np.random.default_rng(90)
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
        loss = (ag.softmax(ag.sigmoid(x @ w) / 2.0, axis=-1) * np.ones(2)).sum()
        loss.backward()
        assert loss.values.dtype == x.grad.dtype == w.grad.dtype == self.F32

    def test_expert_mixture_in_float32(self, monkeypatch):
        monkeypatch.setattr(ag, "EXPERT_BLOCK", 4)  # 3 pages of 2 rows: blocks of 2 and 1
        rng = np.random.default_rng(91)
        inputs = make_mixture_inputs(rng, 3, (4, 5, 3, 2), pages=3, per_page=2)
        ref = ag.expert_mixture(*inputs)
        f32 = [Tensor(t.values.astype(np.float32), requires_grad=True) for t in
               inputs[0:3] + tuple(inputs[3] + inputs[4])]
        out = ag.expert_mixture(*f32[:3], f32[3:6], f32[6:])
        assert out.values.dtype == self.F32
        np.testing.assert_allclose(out.values, ref.values, rtol=0, atol=1e-5)
        out.sum().backward()
        assert {t.grad.dtype for t in f32} == {self.F32}

    def test_concat_and_reshape_roundtrip_gradient(self):
        rng = np.random.default_rng(9)
        a0 = rng.uniform(-1, 1, (2, 3))
        b0 = rng.uniform(-1, 1, (2, 2))
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        out = ag.concat([a, b], axis=-1).reshape(10)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a0, atol=1e-12)
        np.testing.assert_allclose(b.grad, 2 * b0, atol=1e-12)

    def test_transpose_gradient(self):
        rng = np.random.default_rng(10)
        a0 = rng.uniform(-1, 1, (2, 3, 4))
        a = Tensor(a0.copy(), requires_grad=True)
        w = rng.uniform(-1, 1, (2, 4, 3))
        (ag.transpose(a) * Tensor(w)).sum().backward()
        np.testing.assert_allclose(a.grad, w.swapaxes(-1, -2), atol=1e-12)

    @pytest.mark.parametrize("start, stop, axis", [(0, 2, 1), (2, 5, 1), (1, 3, -1)])
    def test_slice_axis_gradient(self, start, stop, axis):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1, 1, (3, 5, 4)), requires_grad=True)
        want = x.values[:, start:stop] if axis == 1 else x.values[..., start:stop]
        np.testing.assert_array_equal(ag.slice_axis(x, start, stop, axis=axis).values, want)
        probe = rng.uniform(-1, 1, want.shape)

        def model():
            return (ag.tanh(ag.slice_axis(x, start, stop, axis=axis)) * probe).sum()

        report = finite_diff_check(model, {"x": x}, tol_rel=1e-4)
        assert report.passed, report.lines()

    def test_slice_axis_in_float32(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
        out = ag.slice_axis(x, 1, 3, axis=1)
        (out * 2.0).sum().backward()
        assert out.values.dtype == x.grad.dtype == self.F32
        np.testing.assert_array_equal(x.grad, np.tile([0.0, 2.0, 2.0, 0.0], (3, 1)))

    def test_broadcast_to_gradient(self):
        a = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
        ag.broadcast_to(a, (2, 5)).sum().backward()
        np.testing.assert_allclose(a.grad, [[5.0], [5.0]])

    def test_clip_gradient_zero_outside(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        ag.clip(x, 0.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestAdam:
    def test_zero_grad_zero_l2_is_noop(self):
        rng = np.random.default_rng(11)
        p = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        before = p.values.copy()
        state = AdamState(lr=0.1)
        for _ in range(5):
            adam_step([p], [np.zeros_like(p.values)], state)
        np.testing.assert_array_equal(p.values, before)

    def test_first_step_decreases_by_lr(self):
        p = Tensor(np.full((4,), 10.0), requires_grad=True)
        state = AdamState(lr=0.01)
        adam_step([p], [np.ones(4)], state)
        np.testing.assert_allclose(p.values, 10.0 - 0.01, rtol=1e-7)

    def test_l2_couples_into_gradient(self):
        # grad 0, theta 1, l2 2e-4: first-step effective gradient is 2e-4,
        # so the bias-corrected update equals -lr.
        p = Tensor(np.ones(3), requires_grad=True)
        state = AdamState(lr=1e-3, l2=2e-4)
        adam_step([p], [np.zeros(3)], state)
        np.testing.assert_allclose(p.values, 1.0 - 1e-3, rtol=1e-6)

    def test_step_counter_increments(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        state = AdamState()
        for expected in (1, 2, 3):
            adam_step([p], [np.ones(2)], state)
            assert state.step == expected

    def test_misaligned_lengths(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ContractError):
            adam_step([p], [np.zeros(2), np.zeros(2)], AdamState())


class TestFit:
    @staticmethod
    def quadratic(rows: int):
        """A 2-vector fit to `rows` target rows; `calls` logs each step's rows and loss."""
        targets = np.random.default_rng(5).standard_normal((rows, 2))
        w = Tensor(np.zeros(2), requires_grad=True)
        calls = []

        def loss_of(idx):
            err = w - Tensor(targets[idx])
            loss = (err * err).sum() / len(idx)
            calls.append((idx.copy(), float(loss.values)))
            return loss

        return w, loss_of, calls

    def test_one_row_weighted_mean_per_epoch(self):
        w, loss_of, calls = self.quadratic(10)
        means = ag.fit([w], loss_of, 10, 4, 3, np.random.default_rng(0), AdamState(lr=0.1))
        assert len(means) == 3 and len(calls) == 9
        shuffle = np.random.default_rng(0)
        for epoch, mean in enumerate(means):
            steps = calls[3 * epoch:3 * epoch + 3]
            np.testing.assert_array_equal(np.concatenate([idx for idx, _ in steps]),
                                          shuffle.permutation(10))
            assert [len(idx) for idx, _ in steps] == [4, 4, 2]
            assert mean == sum(len(idx) * loss for idx, loss in steps) / 10
        assert means[2] < means[0]

    def test_a_step_frees_its_graph_before_the_next(self):
        """Three steps peak no higher than one: no step's graph outlives it."""
        data = np.random.default_rng(8).standard_normal((3 * 256, 32))
        w = Tensor(np.zeros((32, 512)), requires_grad=True)
        state = AdamState()

        def loss_of(idx):  # a deep graph: its activations outweigh backward's temporaries
            h = Tensor(data[idx]) @ w
            for _ in range(8):
                h = ag.tanh(h)
            return (h * h).sum() / len(idx)

        def peak(steps):
            tracemalloc.start()
            try:
                ag.fit([w], loss_of, steps * 256, 256, 1, np.random.default_rng(0), state)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # Adam's moments exist before either measurement
        assert peak(3) <= 1.15 * peak(1)

    @pytest.mark.parametrize("fault", ["nan", "overflow"])
    def test_numeric_fault_names_its_epoch_and_step(self, fault):
        w, loss_of, calls = self.quadratic(10)
        state = AdamState(lr=0.1)

        def faulty(idx):
            loss = loss_of(idx)
            if len(calls) < 5:  # the fifth step is epoch 2, step 2
                return loss
            return loss * np.nan if fault == "nan" else loss * 1e300 * 1e300

        with np.errstate(over="raise"), pytest.raises(NumericError) as caught:
            ag.fit([w], faulty, 10, 4, 3, np.random.default_rng(0), state)
        assert str(caught.value).endswith(" at epoch 2, step 2")
        assert ("non-finite loss nan" if fault == "nan" else "overflow") in str(caught.value)
        assert state.step == 4

    def test_nan_ranker_feature_stops_training(self, monkeypatch):
        monkeypatch.setattr(data_oracle, "RANKER_EPOCHS", 2)
        config = TrainConfig(true_dim=4)
        features = [np.random.default_rng(6).standard_normal((5, 3, 8))]
        features[0][2, 1, 3] = np.nan
        with pytest.raises(NumericError, match="non-finite loss nan at epoch 1, step 1$"):
            train_initial_rankers(features, config, master_seed=0)


class TestFiniteDiffCheck:
    def test_passes_on_smooth_model(self):
        rng = np.random.default_rng(12)
        w = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
        x = np.array([[0.3, -0.2, 0.7]])

        def model():
            return (ag.tanh(Tensor(x) @ w + b) ** 0 if False else
                    ag.tanh(ag.matmul(Tensor(x), w) + b)).sum()

        report = finite_diff_check(model, {"w": w, "b": b})
        assert report.passed
        assert report.max_rel_err <= 1e-4
        assert set(report.per_param) == {"w", "b"}

    def test_detects_wrong_gradient(self):
        w = Tensor(np.array([2.0]), requires_grad=True)

        def model():
            # forward computes w^2 but we corrupt the recorded gradient after
            return (w * w).sum()

        report = finite_diff_check(model, {"w": w})
        assert report.passed  # sanity: correct op passes

        # now a deliberately broken op
        def broken(x):
            out = ag.Tensor(x.values * x.values, requires_grad=True,
                            _parents=(x,), _vjp=lambda g: (g,))  # missing 2x
            return out

        report = finite_diff_check(lambda: broken(w).sum(), {"w": w})
        assert not report.passed

"""Full-model wiring: gradient correctness end to end, ablation inventory, loss."""

import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from par import autograd as ag
from par.autograd import AdamState, Tensor, adam_step, finite_diff_check
from par.config import VARIANTS, TrainConfig, load_config, with_variant
from par.data_oracle import stream
from par.embedding import PageBatch
from par.errors import ContractError
from par.model import ParModel
from par.scoring import bce_loss, glorot

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        n=2, m=3, t=2, d_x=4, d_h=4, d_a=3, d_o=4, d_r=4,
        heads=2, experts=2, expert_hidden=(5, 4), tower_hidden=(3,),
        dense_hidden=(4,), themes=3, items_per_theme=3, true_dim=4,
        user_themes=2, batch_size=2, epochs=1, train_pages=8, test_pages=4,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_batch(config: TrainConfig, seed=0, with_padding=True, pages=2) -> PageBatch:
    rng = np.random.default_rng(seed)
    b, n, m, t = pages, config.n, config.m, config.t
    items = rng.integers(1, config.vocab_size, size=(b, n, m))
    cats = rng.integers(1, config.n_categories, size=(b, n, m))
    history = rng.integers(1, config.vocab_size, size=(b, t))
    hcats = rng.integers(1, config.n_categories, size=(b, t))
    clicks = (rng.uniform(size=(b, n, m)) < 0.3).astype(float)
    mask = np.ones((b, n, m))
    hmask = np.ones((b, t))
    if with_padding:
        mask[:, -1, -1] = 0.0
        items[:, -1, -1] = 0
        cats[:, -1, -1] = 0
        clicks[:, -1, -1] = 0.0
        hmask[:, -1] = 0.0
        history[:, -1] = 0
        hcats[:, -1] = 0
    return PageBatch(items, cats, history, hcats, clicks, mask, hmask)


class TestForward:
    def test_scores_shape_and_range(self):
        config = tiny_config()
        model = ParModel(config, config.build_layout(), (0))
        batch = tiny_batch(config)
        scores = model.predict(batch)
        assert scores.shape == (2, config.n, config.m)
        assert np.all((scores > 0) & (scores < 1))

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_all_variants_preserve_shape(self, variant):
        config = with_variant(tiny_config(), variant)
        model = ParModel(config, config.build_layout(), (1))
        scores = model.predict(tiny_batch(config))
        assert scores.shape == (2, config.n, config.m)
        assert np.all(np.isfinite(scores))

    def test_deterministic_construction(self):
        config = tiny_config()
        m1 = ParModel(config, config.build_layout(), (7))
        m2 = ParModel(config, config.build_layout(), (7))
        assert list(m1.params) == list(m2.params)
        for name in list(m1.params):
            np.testing.assert_array_equal(m1.params[name].values, m2.params[name].values)


class TestParameterInventory:
    def test_full_model_groups(self):
        config = tiny_config()
        model = ParModel(config, config.build_layout(), (2))
        names = list(model.params)
        for prefix in ("emb.", "hds.", "ss.", "dense.", "moe."):
            assert any(name.startswith(prefix) for name in names)
        assert not any(name.startswith("head.") for name in names)

    def test_ssa_removes_all_spatial_params(self):
        config = with_variant(tiny_config(), "PAR-SSA")
        model = ParModel(config, config.build_layout(), (3))
        assert not any(name.startswith("ss.") for name in list(model.params))

    def test_scale_removes_steepness_only(self):
        config = with_variant(tiny_config(), "PAR-scale")
        model = ParModel(config, config.build_layout(), (4))
        names = list(model.params)
        assert "ss.v" not in names
        assert "ss.w_q" in names

    def test_dsa_removes_dual_side_weights_keeps_aggregation(self):
        config = with_variant(tiny_config(), "PAR-DSA")
        model = ParModel(config, config.build_layout(), (5))
        names = list(model.params)
        assert not any(name in names for name in ("hds.w_a", "hds.w_x", "hds.w_h"))
        assert "hds.q_item" in names

    def test_hdsa_removes_whole_module(self):
        config = with_variant(tiny_config(), "PAR-HDSA")
        model = ParModel(config, config.build_layout(), (6))
        assert not any(name.startswith("hds.") for name in list(model.params))

    def test_dn_removes_dense(self):
        config = with_variant(tiny_config(), "PAR-DN")
        model = ParModel(config, config.build_layout(), (7))
        assert not any(name.startswith("dense.") for name in list(model.params))

    def test_mmoe_swaps_head(self):
        config = with_variant(tiny_config(), "PAR-MMoE")
        model = ParModel(config, config.build_layout(), (8))
        names = list(model.params)
        assert not any(name.startswith("moe.") for name in names)
        assert any(name.startswith("head.") for name in names)

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_every_variant_holds_examination_table(self, variant):
        config = with_variant(tiny_config(), variant)
        table = ParModel(config, config.build_layout(), 9).params["exam.logit"]
        assert table.shape == (config.n, config.m) and table.requires_grad
        np.testing.assert_array_equal(table.values, 0.0)


class TestOneExpertHead:
    """PAR-MMoE scores every slot with one shared network, a one-expert stack."""

    def test_shapes_and_range(self):
        config = with_variant(tiny_config(), "PAR-MMoE")
        model = ParModel(config, config.build_layout(), 8)
        scores = model.predict(tiny_batch(config, pages=3))
        assert scores.shape == (3, config.n, config.m)
        assert np.all((scores > 0) & (scores < 1))

    def test_stacked_weights_hold_the_unstacked_draws(self):
        config = with_variant(tiny_config(), "PAR-MMoE")
        model = ParModel(config, config.build_layout(), 8)
        dims = (config.d_l + config.d_r + config.d_o,) + config.expert_hidden + (1,)
        for i in range(len(dims) - 1):
            w = model.params[f"head.w{i}"].values
            drawn = glorot(stream(8, zlib.crc32(f"head.w{i}".encode())), dims[i:i + 2])
            assert w.shape == (1,) + dims[i:i + 2]
            np.testing.assert_array_equal(w[0], drawn)
            assert model.params[f"head.b{i}"].shape == (1, dims[i + 1])


class TestExaminationLoss:
    """Training fits clicks as relevance x examination; scoring is relevance alone."""

    @staticmethod
    def model_with_table(config, table):
        model = ParModel(config, config.build_layout(), 11)
        model.params["exam.logit"].values = table
        return model

    def test_loss_is_bce_of_relevance_times_examination(self):
        config = tiny_config()
        table = np.random.default_rng(5).uniform(-2, 2, size=(config.n, config.m))
        model = self.model_with_table(config, table)
        batch = tiny_batch(config)
        loss, scores = model.loss(batch)
        relevance = model.predict(batch)
        np.testing.assert_array_equal(scores.values, relevance)
        clicks = relevance / (1.0 + np.exp(-table))
        want = bce_loss(Tensor(clicks), batch.clicks, batch.mask).item()
        assert loss.item() == pytest.approx(want, rel=1e-12)
        assert loss.item() != pytest.approx(
            bce_loss(Tensor(relevance), batch.clicks, batch.mask).item(), rel=1e-6)

    def test_predict_ignores_the_table(self):
        config = tiny_config()
        batch = tiny_batch(config)
        low = self.model_with_table(config, np.full((config.n, config.m), -3.0))
        high = self.model_with_table(config, np.linspace(-1, 4, config.n * config.m)
                                     .reshape(config.n, config.m))
        np.testing.assert_array_equal(low.predict(batch), high.predict(batch))


@pytest.fixture
def created(monkeypatch):
    """Every Tensor built while the test runs."""
    made = []
    init = Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording)
    return made


F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


class TestDtypes:
    """Scoring runs in float32 and training in float64; neither leaks into the other."""

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_float32_forward_creates_no_float64_tensor(self, variant, created):
        config = with_variant(tiny_config(), variant)
        model = ParModel(config, config.build_layout(), 2).float32_copy()
        created.clear()
        with ag.no_grad():
            scores = model.predict(tiny_batch(config))
        assert scores.dtype == F32
        assert created and {t.values.dtype for t in created} == {F32}

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_float64_training_step_creates_no_float32_value_or_gradient(self, variant, created):
        config = with_variant(tiny_config(), variant)
        model = ParModel(config, config.build_layout(), 2)
        loss, _ = model.loss(tiny_batch(config))
        interior = [t for t in created if t._vjp is not None]
        seen = {id(t): [] for t in interior}  # what each vjp received and returned

        def recording(vjp, arrays):
            def wrapped(g):
                grads = vjp(g)
                arrays.extend([g] + [np.asarray(x) for x in grads if x is not None])
                return grads
            return wrapped

        for t in interior:
            t._vjp = recording(t._vjp, seen[id(t)])
        ag.backward(loss)
        params = list(model.params.values())
        adam_step(params, [p.grad for p in params], AdamState())
        assert {id(p) for p in params} <= {id(t) for t in created}  # each counted once
        assert {t.values.dtype for t in created} == {F64}
        assert interior and all(seen.values())
        arrays = [a for received in seen.values() for a in received]
        arrays += [p.grad for p in params if p.grad is not None]
        assert {a.dtype for a in arrays} == {F64}

    def test_float32_copy_rounds_every_parameter_and_leaves_the_model(self):
        config = tiny_config()
        model = ParModel(config, config.build_layout(), 4)
        copy = model.float32_copy()
        assert list(copy.params) == list(model.params)
        for name, p in model.params.items():
            assert p.values.dtype == F64
            np.testing.assert_array_equal(copy.params[name].values, p.values.astype(np.float32))

    @pytest.mark.parametrize("value", [1e39, -np.inf])
    def test_float32_copy_refuses_a_value_beyond_float32_range(self, value):
        config = tiny_config()
        model = ParModel(config, config.build_layout(), 4)
        model.params["dense.w0"].values[0, 0] = value
        with pytest.raises(ContractError, match="'dense.w0'.*float32"):
            model.float32_copy()

    def test_float32_scores_match_float64_scores(self):
        config = tiny_config()
        model = ParModel(config, config.build_layout(), 5)
        batch = tiny_batch(config)
        np.testing.assert_allclose(model.float32_copy().predict(batch), model.predict(batch),
                                   rtol=0, atol=1e-6)


def desk_step_peak(variant: str) -> int:
    """tracemalloc peak, in bytes, of one float64 desk training step on 128 random pages.

    The Adam moments are warmed by one earlier step, so the peak is the step's own.
    """
    config = with_variant(load_config(DESK_CONFIG), variant)
    model = ParModel(config, config.build_layout(), 0)
    batch = tiny_batch(config, pages=128)
    params = list(model.params.values())
    state = AdamState(lr=config.learning_rate, l2=config.l2)

    def loss_of(idx):
        return model.loss(batch)[0]

    ag.train_step(params, loss_of, None, state)
    tracemalloc.start()
    try:
        ag.train_step(params, loss_of, None, state)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_expert_head_step_peaks_below_the_mixture():
    """PAR-MMoE's head keeps no activation, so its step peaks below PAR's four experts'."""
    head, mixture = desk_step_peak("PAR-MMoE"), desk_step_peak("PAR")
    assert head < mixture, f"PAR-MMoE +{head / 1e6:.1f} MB, PAR +{mixture / 1e6:.1f} MB"


class TestEndToEndGradients:
    """Analytic gradients of the whole loss against finite differences.

    Checked at a well-spread random parameter point: the timid training init
    (zero biases, +-0.05 embeddings) leaves many gradient components below
    the finite-difference noise floor and relu preactivations near zero,
    where no step size is informative.
    """

    def check(self, config, seed=0):
        model = ParModel(config, config.build_layout(), (seed))
        spread = np.random.default_rng(1000 + seed)
        for p in model.params.values():
            p.values = spread.uniform(-0.6, 0.6, size=p.shape)
        batch = tiny_batch(config, seed=seed)

        def loss_fn():
            loss, _ = model.loss(batch)
            return loss

        report = finite_diff_check(loss_fn, model.params, h=3e-4)
        assert report.passed, "\n".join(report.lines())

    def test_full_model(self):
        self.check(tiny_config())

    @pytest.mark.parametrize("variant", ["PAR-DSA", "PAR-MMoE"])
    def test_variants(self, variant):
        self.check(with_variant(tiny_config(), variant), seed=3)

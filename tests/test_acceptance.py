"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
train real models (several minutes); everything else is quick.
"""

import dataclasses
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from par.cli import main
from par.config import load_config, with_variant
from par.data_oracle import Catalog, ClickOracle, build_dataset
from par.layout import fshape_preset, manhattan_distance_matrix, stacked_preset
from par.metrics import average_precision, ndcg
from par.scoring import bce_loss
from par.ss_attn import learnable_sigmoid
from par.trainer import evaluate, gradcheck, train
from par.autograd import Tensor

REPO = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2, 3, 4)


def acceptance_config():
    return load_config(REPO / "configs" / "desk.cfg")


def report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num}] {status} — {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# -- heavy shared runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def desk_world():
    config = acceptance_config()
    t0 = time.perf_counter()
    catalog, train_pages, test_pages = build_dataset(config)
    return config, catalog, train_pages, test_pages, time.perf_counter() - t0


@pytest.fixture(scope="module")
def par_runs(desk_world):
    """PAR trained on each seed: list of (init_report, model_report), timed."""
    config, catalog, train_pages, test_pages, gen_seconds = desk_world
    t0 = time.perf_counter()
    runs = []
    for seed in SEEDS:
        cfg = dataclasses.replace(config, seed=seed)
        checkpoint = train(cfg, train_pages, catalog)
        reports = evaluate(checkpoint, test_pages, catalog)
        runs.append((reports["INIT"], reports["PAR"]))
    return runs, gen_seconds + (time.perf_counter() - t0)


@pytest.fixture(scope="module")
def ablation_runs(desk_world):
    """The two variants criterion 7 compares, trained on each seed: variant -> list of sctr.

    Every variant's forward and training step is covered by tests/test_model.py.
    """
    config, catalog, train_pages, test_pages, _ = desk_world
    results: dict[str, list[float]] = {}
    for variant in ("PAR-scale", "PAR-MMoE"):
        vals = []
        for seed in SEEDS:
            cfg = with_variant(dataclasses.replace(config, seed=seed), variant)
            checkpoint = train(cfg, train_pages, catalog)
            vals.append(evaluate(checkpoint, test_pages, catalog)[variant].sctr)
        results[variant] = vals
    return results


# -- criteria -------------------------------------------------------------------


class TestCriterion1GradientCorrectness:
    def test_whole_model_gradients(self):
        t0 = time.perf_counter()
        audit = gradcheck()
        elapsed = time.perf_counter() - t0
        groups = {name.split(".")[0] for name in audit.per_param}
        covered = {"emb", "hds", "ss", "dense", "moe"} <= groups
        report(1, "gradient correctness",
               audit.passed and elapsed < 60 and covered,
               f"max rel err {audit.max_rel_err:.2e} (tol 1e-4) over "
               f"{len(audit.per_param)} parameter groups in {elapsed:.1f}s")


class TestCriterion2GeometryFixture:
    def test_fshape_reference_distances(self):
        lay = fshape_preset(v_len=6, h_count=2, h_len=4)
        d = manhattan_distance_matrix(lay)
        m = lay.m
        p1 = 1 * m + 0
        got = [int(d[p1, q]) for q in (1 * m + 1, 1 * m + 2, 0 * m + 0,
                                       0 * m + 1, 2 * m + 1)]
        report(2, "geometry fixture", got == [1, 2, 1, 2, 5],
               f"five reference pair distances {got} (expect [1, 2, 1, 2, 5])")


class TestCriterion3LearnableSigmoid:
    def test_contract(self):
        unit_at_zero = all(learnable_sigmoid(0.0, float(v)).item() == 1.0
                           for v in range(-5, 6))
        monotone = True
        for v in np.linspace(-5, 5, 11):
            vals = [learnable_sigmoid(float(d), float(v)).item() for d in range(51)]
            monotone &= all(a > b for a, b in zip(vals, vals[1:]))
        ref = learnable_sigmoid(10.0, 0.0).item()
        value_ok = abs(ref - 0.537883) <= 1e-6
        report(3, "learnable sigmoid", unit_at_zero and monotone and value_ok,
               f"f(0|v)=1 exactly, strictly decreasing over d=0..50, "
               f"f(10|0)={ref:.6f} (expect 0.537883±1e-6)")


class TestCriterion4OracleDecay:
    def test_decay_and_zero_relevance(self):
        catalog = Catalog.build(4, 12, 8, seed=0)
        oracle = ClickOracle(catalog, stacked_preset(2, 4))
        d21 = oracle.position_decay(2, 1)
        d12 = oracle.position_decay(1, 2)
        decay_ok = abs(d21 - 2 ** -0.4) <= 1e-12 and abs(d12 - 2 ** -0.5) <= 1e-12
        rng = np.random.default_rng(0)
        items = rng.integers(1, catalog.vocab_size, size=(2, 4))
        probs = oracle.click_prob(items, np.zeros((2, 4)), np.ones((2, 4)))
        zero_ok = bool(np.all(probs == 0.0))
        report(4, "oracle decay", decay_ok and zero_ok,
               f"decay(2,1)={d21:.6f} (2^-0.4), decay(1,2)={d12:.6f} (2^-0.5), "
               f"rel=0 slots all have probability 0: {zero_ok}")


class TestCriterion5MetricOracles:
    @staticmethod
    def brute_ndcg(rel):
        if sum(rel) == 0:
            return 0.0
        dcg = lambda seq: sum(r / math.log2(k + 1) for k, r in enumerate(seq, start=1))
        return dcg(rel) / max(dcg(p) for p in itertools.permutations(rel))

    @staticmethod
    def brute_ap(rel):
        if sum(rel) == 0:
            return 0.0
        total = sum(sum(rel[:k]) / k for k in range(1, len(rel) + 1) if rel[k - 1])
        return total / sum(rel)

    def test_exhaustive_and_loss_value(self):
        checked, ok = 0, True
        for length in range(1, 6):
            for bits in itertools.product([0, 1], repeat=length):
                if sum(bits) > 2:
                    continue
                rel = list(bits)
                ok &= abs(ndcg(rel) - self.brute_ndcg(rel)) < 1e-12
                ok &= abs(average_precision(rel) - self.brute_ap(rel)) < 1e-12
                checked += 1
        loss = bce_loss(Tensor(np.full((1, 1, 4), 0.5)),
                        np.array([[[1.0, 0.0, 1.0, 0.0]]]), np.ones((1, 1, 4)))
        loss_ok = abs(loss.item() - math.log(2)) <= 1e-12
        report(5, "metric oracles", ok and loss_ok,
               f"nDCG and MAP match brute force on {checked} lists (len<=5, <=2 relevant); "
               f"loss at y_hat=0.5 is ln 2 within 1e-12: {loss_ok}")


class TestCriterion6EndToEndLift:
    def test_trained_model_beats_initial_ranking(self, par_runs):
        runs, elapsed = par_runs
        lifts = [(par.sctr - init.sctr) / init.sctr for init, par in runs]
        sctr_win = all(par.sctr > init.sctr for init, par in runs)
        util_win = all(par.utility > init.utility for init, par in runs)
        mean_lift = float(np.mean(lifts))
        report(6, "end-to-end lift",
               sctr_win and util_win and mean_lift >= 0.05 and elapsed < 900,
               f"sCTR lift per seed {[f'{l:+.1%}' for l in lifts]}, mean {mean_lift:+.1%} "
               f"(need >= +5%); utility strictly higher on all seeds: {util_win}; "
               f"runtime {elapsed:.0f}s (< 900s)")


class TestCriterion7AblationDirection:
    def test_mean_sctr_ordering(self, par_runs, ablation_runs):
        runs, _ = par_runs
        par_mean = float(np.mean([par.sctr for _, par in runs]))
        means = {v: float(np.mean(vals)) for v, vals in ablation_runs.items()}
        lines = ", ".join(f"{v}={m:.4f}" for v, m in sorted(means.items()))
        ok = par_mean >= means["PAR-scale"] and par_mean >= means["PAR-MMoE"]
        report(7, "ablation direction", ok,
               f"mean sCTR over {len(SEEDS)} seeds: PAR={par_mean:.4f} vs {lines}; "
               f"need PAR >= PAR-scale and PAR >= PAR-MMoE")


class TestCriterion8Determinism:
    def test_byte_identical_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        config = tmp_path / "repro.cfg"
        config.write_text(
            "train_pages = 96\ntest_pages = 24\nepochs = 2\nbatch_size = 32\n"
            "learning_rate = 0.001\nexpert_hidden = 32,16\ntower_hidden = 16\n"
            "t = 8\nitems_per_theme = 20\n")
        data = tmp_path / "pages"
        assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
        blobs = {}
        for tag in ("a", "b"):
            ckpt = tmp_path / f"model_{tag}.ckpt"
            rep = tmp_path / f"report_{tag}"
            assert main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(ckpt)]) == 0
            assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(rep)]) == 0
            blobs[tag] = (ckpt.read_bytes(), (tmp_path / f"report_{tag}.csv").read_bytes(),
                          (tmp_path / f"report_{tag}.json").read_bytes())
        same = blobs["a"] == blobs["b"]
        report(8, "determinism", same,
               "checkpoints and metric tables byte-identical across reruns "
               f"(checkpoint {len(blobs['a'][0])} bytes, csv {len(blobs['a'][1])} bytes)")

"""Desk pipeline stages, their output checks, and the two workloads.

Every run executes the whole desk pipeline (generate the world and round trip
it through JSONL, batch it, train one epoch, round trip the checkpoint,
evaluate, rerank), so every end-to-end metric has a value on every workload.
A workload differs in the stage it repeats for the measured seconds:

- train repeats training steps; the oracle is idle during a step.
- eval repeats `evaluate` and the `par rerank` path; no graph is recorded.

The rest of the pipeline runs in set-up or between the loop's operations.
Set-up is repeated, and each set-up is followed by its share of the loop.
Generation runs in every set-up, so `gen_pages_per_s` is measured on both.

The stages call `par` the way its CLI does. Only the training step is
repeated here, because `trainer.train` has no per-step hook.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from par import autograd as ag
from par import data_oracle, scoring, trainer
from par.config import TrainConfig
from par.data_oracle import Catalog, PageRecord
from par.embedding import PageBatch
from par.layout import PageLayout
from par.model import ParModel

SETUP_REPEATS = 4      # set-ups per run; setup_s is their median
SIDE_SHARE = 0.75      # the train loop's evaluation is timed for this share of its seconds


@dataclass
class World:
    config: TrainConfig
    layout: PageLayout
    catalog: Catalog
    train: list[PageRecord]
    test: list[PageRecord]
    train_batch: PageBatch | None = None
    test_batch: PageBatch | None = None


class Run:
    """Samples, output checks and digests collected by one benchmark run."""

    def __init__(self, tracer, traced: bool):
        self.tracer = tracer
        self.traced = traced
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.work: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])  # pages, seconds
        self.loop_seconds = {"traced": [], "untraced": []}
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, object] = {}   # digests and quality values

    def check(self, what: str, problems: list[str]) -> None:
        """Count one checked operation; it fails if any problem was found."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems[:3]))

    def add_work(self, key: str, pages: float, seconds: float) -> None:
        """One timed operation; the metric is all its pages over all its seconds."""
        work = self.work[key]
        work[0] += pages
        work[1] += seconds

    def rate(self, key: str) -> float:
        pages, seconds = self.work[key]
        return pages / seconds

    def record(self, key: str, value) -> None:
        """Keep an output; the same seed must reproduce it within a run."""
        if self.outputs.setdefault(key, value) != value:
            self.check(key, [f"{key} differs between repeats of one seed"])


@contextlib.contextmanager
def untraced(run: Run):
    """Run with the wrappers removed, so the work adds no spans: warm-up, later set-ups."""
    was = run.tracer.enabled
    run.tracer.set_enabled(False)
    try:
        yield
    finally:
        run.tracer.set_enabled(was)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# -- output checks -----------------------------------------------------------------


def dataset_problems(config: TrainConfig, layout: PageLayout, train: list[PageRecord],
                     test: list[PageRecord]) -> list[str]:
    """Page counts and shapes, probabilities in [0, 1], clicks only on relevant slots."""
    problems = []
    if (len(train), len(test)) != (config.train_pages, config.test_pages):
        problems.append(f"{len(train)}/{len(test)} pages, expected "
                        f"{config.train_pages}/{config.test_pages}")
    for p, page in enumerate(train + test):
        if len(page.history) != config.t or len(page.lists) != layout.n:
            problems.append(f"page {p}: history {len(page.history)}, {len(page.lists)} lists")
            continue
        for i, lst in enumerate(page.lists):
            length = layout.lengths[i]
            if not (len(lst.items) == len(lst.rel) == len(lst.clicks) == len(lst.probs)
                    == length) or sorted(lst.init_order) != list(range(length)):
                problems.append(f"page {p} list {i}: malformed")
                continue
            for prob, click, rel in zip(lst.probs, lst.clicks, lst.displayed_rel()):
                if not 0.0 <= prob <= 1.0 or click not in (0, 1) or (click and not rel):
                    problems.append(f"page {p} list {i}: prob {prob}, click {click}, rel {rel}")
                    break
    return problems


def permutation_problems(perms: np.ndarray, mask: np.ndarray) -> list[str]:
    """Each list's permutation is valid and shows real slots before padding."""
    problems = []
    m = perms.shape[-1]
    if not np.array_equal(np.sort(perms, axis=-1), np.broadcast_to(np.arange(m), perms.shape)):
        problems.append("a list permutation is not a permutation of its slots")
    shown = np.take_along_axis(mask, np.clip(perms, 0, m - 1), axis=-1)
    if np.any(np.diff(shown, axis=-1) > 0):
        problems.append("a padding slot is shown before a real slot")
    return problems


# -- pipeline stages -----------------------------------------------------------------


def generate(run: Run, config: TrainConfig) -> tuple[World, float, str]:
    """build_dataset, then the JSONL round trip `par gen-data` / `par train` make."""
    t0 = time.perf_counter()
    catalog, train, test = data_oracle.build_dataset(config)
    text = data_oracle.pages_to_jsonl(train + test)
    back = data_oracle.pages_from_jsonl(text)
    seconds = time.perf_counter() - t0
    layout = config.build_layout()
    problems = dataset_problems(config, layout, train, test)
    if back != train + test:
        problems.append("JSONL round trip changed the pages")
    run.check("generate", problems)
    digest = _sha(catalog.to_json().encode(), text.encode())
    return World(config, layout, catalog, train, test), seconds, digest


def generate_world(run: Run, config: TrainConfig) -> World:
    world, seconds, digest = generate(run, config)
    run.add_work("gen_pages_per_s", len(world.train) + len(world.test), seconds)
    run.record("dataset", digest)
    batch_world(run, world)
    return world


def batch_world(run: Run, world: World) -> None:
    """Assemble both splits into model inputs."""
    with run.tracer.span("bench.batch"):
        for split in ("train", "test"):
            batch = data_oracle.pages_to_batch(getattr(world, split), world.catalog,
                                               world.layout, world.config.t)
            setattr(world, split + "_batch", batch)


def _step(run: Run, model: ParModel, state: ag.AdamState, data: PageBatch,
          idx: np.ndarray, step: int) -> tuple[float, float]:
    """One optimisation step exactly as `trainer.train` takes it."""
    params = list(model.params.values())
    tracer = run.tracer
    t0 = time.perf_counter()
    with tracer.train_step(step) as span:
        with tracer.span("trainer.input_wait"):
            sub = data.select(idx)
        model.zero_grads()
        loss, _ = model.loss(sub)
        ag.backward(loss)
        ag.adam_step(params, [p.grad for p in params], state)
    seconds = time.perf_counter() - t0
    tracer.replay(span)
    return float(loss.values), seconds


def warm_up_step(run: Run, world: World) -> None:
    """One untraced step of a throwaway model, so timed steps find warm caches."""
    config = world.config
    model = ParModel(config, world.layout, config.seed)
    state = ag.AdamState(lr=config.learning_rate, l2=config.l2)
    with untraced(run):
        _step(run, model, state, world.train_batch,
              np.arange(min(config.batch_size, world.train_batch.size)), -1)


class Training:
    """A fresh model trained as `trainer.train` trains it, one step at a time.

    After the first epoch `checkpoint` holds the model as it was then; that
    epoch's mean loss is `train_loss`, the loss `trainer.train` reports for a
    one-epoch run.
    """

    def __init__(self, run: Run, world: World):
        config = world.config
        self.run, self.config, self.data = run, config, world.train_batch
        self.model = ParModel(config, world.layout, config.seed)
        self.state = ag.AdamState(lr=config.learning_rate, l2=config.l2)
        self.shuffle = trainer._rng(config.seed, trainer._SHUFFLE)
        self.batches: list[np.ndarray] = []
        self.first_epoch: list[tuple[float, int]] = []
        self.checkpoint: trainer.Checkpoint | None = None
        self.steps = 0

    def step(self) -> float:
        """Take one timed step; returns its seconds."""
        run, config = self.run, self.config
        if not self.batches:
            order = self.shuffle.permutation(self.data.size)
            self.batches = [order[lo:lo + config.batch_size]
                            for lo in range(0, self.data.size, config.batch_size)][::-1]
        idx = self.batches.pop()
        loss, took = _step(run, self.model, self.state, self.data, idx, self.steps)
        run.check("train step", [] if math.isfinite(loss) else
                  [f"non-finite loss {loss} at step {self.steps}"])
        run.samples["train_step_ms"].append(took * 1e3)
        run.add_work("train_pages_per_s", len(idx), took)
        self.steps += 1
        if self.checkpoint is None:
            self.first_epoch.append((loss, len(idx)))
            if not self.batches:
                self._end_first_epoch()
        return took

    def _end_first_epoch(self) -> None:
        losses = self.first_epoch
        mean = sum(l * n for l, n in losses) / sum(n for _, n in losses)
        self.run.record("train_loss", mean)
        self.run.record("loss", _sha(" ".join(float(l).hex() for l, _ in losses).encode()))
        self.checkpoint = trainer.Checkpoint(
            config=self.config, epoch=1, loss_history=[mean],
            tensors={name: p.values.copy() for name, p in self.model.params.items()})


def checkpoint_roundtrip(run: Run, checkpoint: trainer.Checkpoint
                         ) -> tuple[trainer.Checkpoint, ParModel]:
    """Serialize and reload a checkpoint, as `par train` then `par eval` do."""
    with run.tracer.span("trainer.checkpoint_roundtrip"):
        loaded = trainer.Checkpoint.from_bytes(checkpoint.to_bytes())
        model = loaded.build_model()
    same = loaded.tensors.keys() == checkpoint.tensors.keys() and all(
        np.array_equal(loaded.tensors[k], v) for k, v in checkpoint.tensors.items())
    run.check("checkpoint round trip", [] if same else ["reloaded tensors differ"])
    return loaded, model


def evaluate(run: Run, world: World, checkpoint: trainer.Checkpoint) -> float:
    t0 = time.perf_counter()
    reports = trainer.evaluate(checkpoint, world.test, world.catalog)
    seconds = time.perf_counter() - t0
    sctr = reports[checkpoint.config.variant_name()].sctr
    ok = all(math.isfinite(v) for r in reports.values()
             for v in r.row().values()) and sctr > 0
    run.check("evaluate", [] if ok else [f"report not finite or sctr {sctr} <= 0"])
    run.record("eval_sctr", sctr)
    return seconds


def rerank_pass(run: Run, model: ParModel, batch: PageBatch) -> float:
    """The `par rerank` path: score in chunks under no_grad, then sort."""
    t0 = time.perf_counter()
    scores = trainer._score_pages(model, batch)
    perms = np.stack([scoring.rerank(scores[p], batch.mask[p]) for p in range(batch.size)])
    seconds = time.perf_counter() - t0
    run.check("rerank", permutation_problems(perms, batch.mask))
    run.record("perms", _sha(perms.astype("<i8").tobytes()))
    return seconds


def evaluate_and_rerank(run: Run, world: World, checkpoint: trainer.Checkpoint,
                        model: ParModel) -> float:
    """One `par eval` and one `par rerank` of the test pages; returns their seconds."""
    pages = len(world.test)
    took_eval = evaluate(run, world, checkpoint)
    run.add_work("eval_pages_per_s", pages, took_eval)
    took_rerank = rerank_pass(run, model, world.test_batch)
    run.add_work("rerank_pages_per_s", pages, took_rerank)
    return took_eval + took_rerank


def repeat(seconds: float, op, done=lambda: True) -> None:
    """Run `op`, which returns its measured seconds, until `seconds` are measured and `done()`."""
    measured = 0.0
    while measured < seconds or not done():
        measured += op()


def trained(run: Run, world: World) -> tuple[trainer.Checkpoint, ParModel]:
    """Warm up, train one epoch, round trip the checkpoint."""
    warm_up_step(run, world)
    training = Training(run, world)
    repeat(0.0, training.step, lambda: training.checkpoint is not None)
    return checkpoint_roundtrip(run, training.checkpoint)


class Evaluation:
    """evaluate + rerank passes of a training's epoch-1 checkpoint, once it has one."""

    def __init__(self, run: Run, world: World, training: Training):
        self.run, self.world, self.training = run, world, training
        self.loaded: tuple[trainer.Checkpoint, ParModel] | None = None

    def __call__(self) -> float | None:
        """One pass; returns its seconds, or None before the first epoch has ended."""
        if self.training.checkpoint is None:
            return None
        if self.loaded is None:
            self.loaded = checkpoint_roundtrip(self.run, self.training.checkpoint)
        return evaluate_and_rerank(self.run, self.world, *self.loaded)

    def finish(self) -> None:
        """End the first epoch and make one pass, if the run has not yet."""
        repeat(0.0, self.training.step, lambda: self.training.checkpoint is not None)
        if self.loaded is None:
            self()


# -- workloads ---------------------------------------------------------------------


def setups(run: Run, setup):
    """Set up SETUP_REPEATS times, yielding each result; setup_s is their median.

    The caller measures its share of the loop after each set-up, so the
    set-ups, and the generation they time, are spread over the run as the
    loop is, and meet the same mix of machine speeds. A traced run traces
    the first set-up only.
    """
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with untraced(run) if i else contextlib.nullcontext():
            result = setup()
        run.samples["setup_s"].append(time.perf_counter() - t0)
        yield result


def measured_loop(run: Run, seconds: float, op, side=None) -> None:
    """Repeat the workload's own stage, `op`, until `seconds` of it are measured.

    After each operation, the `side` stage runs until its measured seconds
    reach SIDE_SHARE of the loop's, counted up to `seconds`; it returns None
    while it cannot run yet. Machine speed can flip every few seconds, so a
    stage timed in one burst after the loop meets fewer of those flips and
    spreads more from run to run than one whose operations span the run.

    A traced run traces every other loop operation of the run and makes at
    least two of each kind, for `trace.overhead_share`.
    """
    kinds = run.loop_seconds
    measured, side_measured = 0.0, 0.0
    while measured < seconds or (run.traced and min(map(len, kinds.values())) < 2):
        traced = run.traced and len(kinds["traced"]) == len(kinds["untraced"])
        run.tracer.set_enabled(traced)
        took = op()
        run.tracer.set_enabled(run.traced)
        kinds["traced" if traced else "untraced"].append(took)
        measured += took
        while side is not None and side_measured < SIDE_SHARE * min(measured, seconds):
            took = side()
            if took is None:
                break
            side_measured += took


def train_workload(run: Run, config: TrainConfig, seconds: float) -> None:
    def setup():
        world = generate_world(run, config)
        warm_up_step(run, world)
        return world

    training = evaluation = None
    for world in setups(run, setup):
        if training is None:
            training = Training(run, world)
            evaluation = Evaluation(run, world, training)
        measured_loop(run, seconds / SETUP_REPEATS, training.step, evaluation)
    evaluation.finish()


def eval_workload(run: Run, config: TrainConfig, seconds: float) -> None:
    def setup():
        world = generate_world(run, config)
        return (world,) + trained(run, world)

    for world, checkpoint, model in setups(run, setup):
        measured_loop(run, seconds / SETUP_REPEATS,
                      lambda: evaluate_and_rerank(run, world, checkpoint, model))


@dataclass(frozen=True)
class Workload:
    run: Callable[[Run, TrainConfig, float], None]
    hot_units: tuple[str, ...]   # span kinds of the measured loop, for per-layer values
    coverage_unit: str


WORKLOADS = {
    "train": Workload(train_workload, ("train_step", "replay"), "train_step"),
    "eval": Workload(eval_workload, ("model.predict", "trainer.evaluate"), "trainer.evaluate"),
}


def end_to_end(run: Run, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    steps = run.samples["train_step_ms"]
    p90 = statistics.quantiles(steps, n=10)[-1] if len(steps) > 1 else steps[0]
    return {
        "setup_s": (statistics.median(run.samples["setup_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "gen_pages_per_s": (run.rate("gen_pages_per_s"), "1/s"),
        "train_pages_per_s": (run.rate("train_pages_per_s"), "1/s"),
        "train_step_ms_p50": (statistics.median(steps), "ms"),
        "train_step_ms_p90": (p90, "ms"),
        "train_loss": (run.outputs["train_loss"], "nats"),
        "eval_pages_per_s": (run.rate("eval_pages_per_s"), "1/s"),
        "rerank_pages_per_s": (run.rate("rerank_pages_per_s"), "1/s"),
        "eval_sctr": (run.outputs["eval_sctr"], "clicks/page"),
    }

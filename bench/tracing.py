"""Span tracing of the par layers from outside the program.

A traced run wraps the public functions the benchmark reaches (module
attributes and class methods of `par`), so nothing under `src/` knows it is
being measured. Spans are kept in memory and written out when the run ends.

Backward time per layer cannot be seen from outside the graph, so each traced
training step is followed by a replay: every captured layer call is re-run on
detached copies of its inputs, and only `ag.backward` of that replay, under a
fixed cotangent, is timed. `trace.coverage` checks how much of the real step
the forward spans plus these replays explain.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import json
import math
import statistics
import time

import numpy as np

from par import autograd as ag
from par import data_oracle, model, scoring, trainer
from par.embedding import EmbeddingTable, PageBatch

# (owner, attribute, span name): timed wrappers. Functions the model imports
# by name are patched in `par.model`, where `ParModel.forward` looks them up.
TIMED = [
    (data_oracle, "build_dataset", "data_oracle.build_dataset"),
    (data_oracle, "make_user", "data_oracle.make_user"),
    (data_oracle, "generate_pages", "data_oracle.generate_pages"),
    (data_oracle, "train_initial_rankers", "data_oracle.train_rankers"),
    (data_oracle, "initial_rank", "data_oracle.initial_rank"),
    (data_oracle, "label_pages", "data_oracle.label_pages"),
    (data_oracle, "pages_to_jsonl", "data_oracle.jsonl_write"),
    (data_oracle, "pages_from_jsonl", "data_oracle.jsonl_read"),
    (data_oracle, "pages_to_batch", "data_oracle.pages_to_batch"),
    (data_oracle.ClickOracle, "click_prob", "data_oracle.click_prob"),
    (model.ParModel, "forward", "model.forward"),
    (model.ParModel, "predict", "model.predict"),
    (ag, "backward", "autograd.backward"),
    (ag, "adam_step", "autograd.adam"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "pages_to_batch", "trainer.pages_to_batch"),
    (trainer, "compute_report", "metrics.compute_report"),
    (trainer, "rerank", "scoring.rerank"),
    (scoring, "rerank", "scoring.rerank"),
]

# model layers: timed forward, and captured for the backward replay
LAYERS = [
    ("embed_page", "embedding"),
    ("embed_history", "embedding"),
    ("dual_side_attention", "hds_attn.dual_side"),
    ("item_level_aggregation", "hds_attn.aggregation"),
    ("list_level_self_attention", "hds_attn.aggregation"),
    ("list_level_aggregation", "hds_attn.aggregation"),
    ("spatial_scaled_attention", "ss_attn"),
    ("dense_network", "scoring.dense"),
    ("mmoe_score", "scoring.mmoe"),
    ("bce_loss", "scoring.loss"),
]

# graph-recording operations of the autograd, counted per call
OPS = ["add", "sub", "mul", "tanh", "sigmoid", "relu", "softplus", "log", "exp", "clip",
       "softmax", "matmul", "transpose", "reshape", "broadcast_to", "concat", "gather",
       "tensor_sum"]

BWD = "/bwd"  # suffix of replayed-backward span names


class Span:
    __slots__ = ("id", "name", "t0", "t1", "parent", "attr", "counts")

    def __init__(self, sid: int, name: str, t0: float, parent: int, attr):
        self.id, self.name, self.t0, self.t1 = sid, name, t0, t0
        self.parent, self.attr, self.counts = parent, attr, None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _detach(x):
    """Copy of a layer argument whose tensors are fresh graph leaves.

    Values are shared, not copied: the autograd never mutates an array in
    place (Adam assigns new ones), so a capture keeps the step's values.
    """
    if isinstance(x, ag.Tensor):
        return ag.Tensor(x.values, requires_grad=x.requires_grad)
    if isinstance(x, (list, tuple)):
        return type(x)(_detach(v) for v in x)
    if isinstance(x, EmbeddingTable):
        table = copy.copy(x)
        table.weights = _detach(x.weights)
        return table
    if dataclasses.is_dataclass(x) and not isinstance(x, (type, PageBatch)):
        return dataclasses.replace(x, **{f.name: _detach(getattr(x, f.name))
                                         for f in dataclasses.fields(x) if f.init})
    return x


class Tracer:
    """Records spans and counts while installed; replays captured layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[Span] = []
        self._captured: list = []
        self._capturing = False
        self._cotangents: dict[tuple, np.ndarray] = {}
        self._origin = time.perf_counter()
        self._backward = ag.backward
        self._patches = self._build_patches()

    # -- spans and counts -------------------------------------------------

    def open(self, name: str, attr=None) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, time.perf_counter(), parent, attr)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def _span(self, name: str, attr):
        span = self.open(name, attr)
        try:
            yield span
        finally:
            self.close(span)

    def span(self, name: str, attr=None):
        """Context manager recording one span; a no-op while disabled."""
        return self._span(name, attr) if self.enabled else contextlib.nullcontext()

    def count(self, name: str, k: float) -> None:
        for span in self._stack:
            if span.counts is None:
                span.counts = {}
            span.counts[name] = span.counts.get(name, 0) + k

    # -- installing the wrappers --------------------------------------------

    def _timed(self, fn, name: str, layer: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if layer and self._capturing:
                self._captured.append((name, fn, _detach(args), _detach(kwargs)))
            return out
        return wrapper

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count("autograd.op_calls", 1)
            if name == "matmul":
                a = np.shape(getattr(args[0], "values", args[0]))
                b = np.shape(getattr(args[1], "values", args[1]))
                batch = math.prod(np.broadcast_shapes(a[:-2], b[:-2]))
                self.count("autograd.matmul_calls", 1)
                self.count("autograd.matmul_gflop", 2e-9 * batch * a[-2] * a[-1] * b[-1])
            return fn(*args, **kwargs)
        return wrapper

    def _build_patches(self) -> list[tuple]:
        patches = [(owner, attr, self._timed(getattr(owner, attr), name))
                   for owner, attr, name in TIMED]
        patches += [(model, attr, self._timed(getattr(model, attr), name, layer=True))
                    for attr, name in LAYERS]
        patches += [(ag, op, self._counted(getattr(ag, op), op)) for op in OPS]
        lookup = EmbeddingTable.lookup

        def counted_lookup(table, ids):
            self.count("embedding.lookup_rows", np.size(ids))
            return lookup(table, ids)

        patches.append((EmbeddingTable, "lookup", counted_lookup))
        return [(owner, attr, getattr(owner, attr), wrapped) for owner, attr, wrapped in patches]

    def set_enabled(self, on: bool) -> None:
        if on == self.enabled:
            return
        for owner, attr, original, wrapped in self._patches:
            setattr(owner, attr, wrapped if on else original)
        self.enabled = on

    # -- training steps and their backward replay ------------------------------

    @contextlib.contextmanager
    def train_step(self, step: int):
        """Span one training step and capture its layer calls for `replay`."""
        if not self.enabled:
            yield None
            return
        self._captured.clear()
        self._capturing = True
        try:
            with self._span("train_step", step) as span:
                yield span
        finally:
            self._capturing = False

    def _cotangent(self, shape: tuple) -> ag.Tensor:
        if shape not in self._cotangents:
            self._cotangents[shape] = np.random.default_rng(0).standard_normal(shape)
        return ag.Tensor(self._cotangents[shape])

    def replay(self, step_span: Span | None) -> None:
        """Re-run each captured layer and time its backward under a fixed cotangent."""
        if step_span is None:
            return
        with self._span("replay", step_span.id):
            for name, fn, args, kwargs in self._captured:
                out = fn(*args, **kwargs)
                outs = out if isinstance(out, tuple) else (out,)
                loss = outs[0] * self._cotangent(outs[0].shape)
                loss = ag.tensor_sum(loss)
                for extra in outs[1:]:
                    loss = loss + ag.tensor_sum(extra * self._cotangent(extra.shape))
                with self._span(name + BWD, None):
                    self._backward(loss)
        self._captured.clear()

    # -- output -------------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON line per span; `self` is its duration minus its children's."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent] += s.seconds
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.t0 - self._origin, "end": s.t1 - self._origin,
                                     "self": s.seconds - children[s.id], "attr": s.attr,
                                     "counts": s.counts}) + "\n")


# -- per-layer metrics ------------------------------------------------------------

SUM, COUNT, CALL_MS, CALL_US, CALLS = "sum", "count", "call_ms", "call_us", "calls"
PASS = ["train_step", "model.predict"]       # one 128-page forward pass
BUILD = ["data_oracle.build_dataset"]

# metric, unit, how, source span (or counter), candidate unit spans
PER_LAYER = [
    ("data_oracle.make_user_ms", "ms", SUM, "data_oracle.make_user", BUILD),
    ("data_oracle.generate_pages_ms", "ms", SUM, "data_oracle.generate_pages", BUILD),
    ("data_oracle.train_rankers_ms", "ms", SUM, "data_oracle.train_rankers", BUILD),
    ("data_oracle.initial_rank_ms", "ms", SUM, "data_oracle.initial_rank", BUILD),
    ("data_oracle.label_pages_ms", "ms", SUM, "data_oracle.label_pages", BUILD),
    ("data_oracle.click_prob_us_p50", "us", CALL_US, "data_oracle.click_prob", None),
    ("data_oracle.click_prob_calls", "count", CALLS, "data_oracle.click_prob",
     BUILD + ["trainer.evaluate"]),
    ("data_oracle.jsonl_write_ms", "ms", CALL_MS, "data_oracle.jsonl_write", None),
    ("data_oracle.jsonl_read_ms", "ms", CALL_MS, "data_oracle.jsonl_read", None),
    ("data_oracle.pages_to_batch_ms", "ms", SUM, "data_oracle.pages_to_batch", ["bench.batch"]),
    ("embedding.fwd_ms", "ms", SUM, "embedding", PASS),
    ("embedding.bwd_ms", "ms", SUM, "embedding" + BWD, ["replay"]),
    ("embedding.lookup_rows", "count", COUNT, "embedding.lookup_rows", PASS),
    ("hds_attn.dual_side_fwd_ms", "ms", SUM, "hds_attn.dual_side", PASS),
    ("hds_attn.dual_side_bwd_ms", "ms", SUM, "hds_attn.dual_side" + BWD, ["replay"]),
    ("hds_attn.aggregation_fwd_ms", "ms", SUM, "hds_attn.aggregation", PASS),
    ("hds_attn.aggregation_bwd_ms", "ms", SUM, "hds_attn.aggregation" + BWD, ["replay"]),
    ("ss_attn.fwd_ms", "ms", SUM, "ss_attn", PASS),
    ("ss_attn.bwd_ms", "ms", SUM, "ss_attn" + BWD, ["replay"]),
    ("scoring.dense_fwd_ms", "ms", SUM, "scoring.dense", PASS),
    ("scoring.dense_bwd_ms", "ms", SUM, "scoring.dense" + BWD, ["replay"]),
    ("scoring.mmoe_fwd_ms", "ms", SUM, "scoring.mmoe", PASS),
    ("scoring.mmoe_bwd_ms", "ms", SUM, "scoring.mmoe" + BWD, ["replay"]),
    ("scoring.loss_fwd_ms", "ms", SUM, "scoring.loss", ["train_step"]),
    ("scoring.loss_bwd_ms", "ms", SUM, "scoring.loss" + BWD, ["replay"]),
    ("scoring.rerank_us", "us", CALL_US, "scoring.rerank", None),
    ("model.forward_ms", "ms", SUM, "model.forward", ["train_step"]),
    ("model.predict_ms", "ms", CALL_MS, "model.predict", None),
    ("autograd.backward_ms", "ms", SUM, "autograd.backward", ["train_step"]),
    ("autograd.adam_ms", "ms", SUM, "autograd.adam", ["train_step"]),
    ("autograd.op_calls", "count", COUNT, "autograd.op_calls", ["train_step"]),
    ("autograd.matmul_calls", "count", COUNT, "autograd.matmul_calls", ["train_step"]),
    ("autograd.matmul_gflop", "GFLOP", COUNT, "autograd.matmul_gflop", ["train_step"]),
    ("trainer.input_wait_ms", "ms", SUM, "trainer.input_wait", ["train_step"]),
    ("trainer.checkpoint_roundtrip_ms", "ms", CALL_MS, "trainer.checkpoint_roundtrip", None),
    ("metrics.compute_report_ms", "ms", CALL_MS, "metrics.compute_report", None),
]

# trace.coverage outside this range means the layer spans and replays no longer
# explain the measured unit. On the desk config it read 0.91 (eval) and 1.11
# (train, where replays overstate backward a little); on the tiny smoke-test
# world, evaluate's per-page glue brings eval to about 0.73.
COVERAGE_RANGE = (0.6, 1.4)

# leaf layer spans: what coverage counts (backward enters through the replays)
COVERED = {source for _, _, how, source, _ in PER_LAYER
           if how != COUNT and not source.endswith(BWD)} - {
    "model.forward", "model.predict", "autograd.backward"} | {"trainer.pages_to_batch"}


def per_layer_metrics(spans: list[Span], hot_units: list[str], coverage_unit: str,
                      loop_seconds: dict[str, list[float]]) -> tuple[dict, list[str]]:
    """Per-layer values from a run's spans, with the names that had no data.

    Each value is a median over unit spans (a dataset build, a training step,
    a predict chunk, ...). A metric prefers the units of the workload's timed
    loop (`hot_units`) and otherwise uses the other units the run contains.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def ancestors(s: Span):
        while s.parent >= 0:
            s = spans[s.parent]
            yield s

    out, missing = {}, []
    for name, unit, how, source, units in PER_LAYER:
        value = None
        if how in (CALL_MS, CALL_US):
            calls = [s.seconds for s in by_name.get(source, [])]
            if calls:
                value = statistics.median(calls) * (1e3 if how == CALL_MS else 1e6)
        else:
            ordered = [u for u in hot_units if u in units] + [u for u in units
                                                              if u not in hot_units]
            for u in ordered:
                if how == COUNT:
                    totals = [s.counts[source] for s in by_name.get(u, [])
                              if s.counts and source in s.counts]
                else:
                    per_unit: dict[int, float] = {}
                    for s in by_name.get(source, []):
                        owner = next((a for a in ancestors(s) if a.name == u), None)
                        if owner is not None:
                            step = 1 if how == CALLS else s.seconds * 1e3
                            per_unit[owner.id] = per_unit.get(owner.id, 0.0) + step
                    totals = list(per_unit.values())
                if totals:
                    value = statistics.median(totals)
                    break
        if value is None:
            missing.append(name)
            value = 0.0
        out[name] = {"value": value, "unit": unit}

    out["trace.coverage"] = {"value": _coverage(spans, by_name, coverage_unit),
                             "unit": "ratio"}
    traced, untraced = loop_seconds["traced"], loop_seconds["untraced"]
    share = (statistics.median(traced) / statistics.median(untraced) - 1.0
             if traced and untraced else 0.0)
    if not (traced and untraced):
        missing.append("trace.overhead_share")
    out["trace.overhead_share"] = {"value": share, "unit": "ratio"}
    return out, missing


def _coverage(spans: list[Span], by_name: dict, unit: str) -> float:
    """Median share of a unit span's time explained by its outermost layer spans.

    For a training step the backward part is the sum of that step's replays.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.name in COVERED:
            a = s
            while a.parent >= 0:
                a = spans[a.parent]
                if a.name in COVERED:
                    break
                if a.name == unit:
                    covered[a.id] = covered.get(a.id, 0.0) + s.seconds
                    break
        elif s.name.endswith(BWD) and unit == "train_step":
            step = spans[s.parent].attr
            covered[step] = covered.get(step, 0.0) + s.seconds
    shares = [covered.get(u.id, 0.0) / u.seconds for u in by_name.get(unit, [])
              if u.seconds > 0]
    return statistics.median(shares) if shares else 0.0

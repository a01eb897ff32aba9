"""Smoke test of the benchmark on a tiny world: every workload in seconds.

Checks that every metric BENCHMARK.json names is printed with its unit and
that no output check fails. It is not a timing gate. Run from the root:

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "bench/tiny.cfg"


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / SPEC["command"][1]), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("results")
    for workload in SPEC["workloads"]:
        for trace in ("0", "1"):
            done = _bench(ROOT, "--workload", workload["name"], "--seed", "3", "--seconds",
                          "0.5", "--trace", trace, "--config", TINY, "--save", str(out))
            assert done.returncode == 0, done.stderr
    return out


def _record(results: Path, workload: str, trace: int) -> dict:
    return json.loads((results / f"{workload}-seed3-trace{trace}.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit_and_no_failed_check(results, workload, trace, section):
    record = _record(results, workload, trace)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0


def test_train_loss_is_the_trainers_one_epoch_loss(results):
    """The benchmark's training loop takes the same steps as trainer.train."""
    sys.path.insert(0, str(ROOT / "src"))
    from par.config import load_config
    from par.data_oracle import build_dataset
    from par.trainer import train

    config = dataclasses.replace(load_config(ROOT / TINY), seed=3, epochs=1)
    catalog, pages, _ = build_dataset(config)
    expected = train(config, pages, catalog).loss_history[-1]
    for workload in SPEC["workloads"]:
        metrics = _record(results, workload["name"], 0)["result"]["metrics"]
        assert metrics["train_loss"]["value"] == expected


def test_compare_prints_a_row_per_workload_and_metric(results):
    done = subprocess.run([sys.executable, str(BENCH / "compare.py"), str(results),
                           str(results)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            assert [workload["name"], metric["name"]] in [row[:2] for row in rows]


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, it exits non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "train", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Utility- and relevance-based metrics over reranked pages, plus reporting.

Reports are flat key-value rows with a fixed column order (utility, sctr,
per-list sctr, ndcg, map, seed, timestamp) emitted as CSV and JSON. The
timestamp honors SOURCE_DATE_EPOCH so that identical runs can produce
byte-identical tables.
"""

from __future__ import annotations

import datetime
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


def utility(clicks: np.ndarray) -> float:
    """Mean over pages of the total click count; clicks is (P, n, m)."""
    clicks = np.asarray(clicks)
    if len(clicks) == 0:
        return 0.0
    return float(clicks.reshape(len(clicks), -1).sum(axis=1).mean())


def sctr(probs: np.ndarray, lists: list[int] | None = None) -> float:
    """Mean over pages of summed click probabilities, optionally per list.

    probs is (P, n, m); `lists` picks the rows summed on each page.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if len(probs) == 0:
        return 0.0
    shown = probs if lists is None else probs[:, lists, :]
    return float(shown.reshape(len(shown), -1).sum(axis=1).mean())


def ndcg(relevance) -> np.ndarray:
    """Binary-gain nDCG over the last axis with log2(rank+1) discount.

    The array over the leading axes (0-d for one ranking); 0 where nothing is
    relevant.
    """
    rel = np.asarray(relevance, dtype=np.float64)
    discount = np.log2(np.arange(1, rel.shape[-1] + 1) + 1)
    dcg = (rel / discount).sum(axis=-1)
    idcg = (np.flip(np.sort(rel, axis=-1), axis=-1) / discount).sum(axis=-1)
    found = rel.sum(axis=-1) > 0
    return np.where(found, dcg / np.where(found, idcg, 1.0), 0.0)


def average_precision(relevance) -> np.ndarray:
    """Mean precision@k over the relevant ranks of the last axis.

    The array over the leading axes (0-d for one ranking); 0 where nothing is
    relevant.
    """
    rel = np.asarray(relevance, dtype=np.float64)
    ranks = np.arange(1, rel.shape[-1] + 1)
    total = rel.sum(axis=-1)
    found = total > 0
    precision = (rel * np.cumsum(rel, axis=-1) / ranks).sum(axis=-1)
    return np.where(found, precision / np.where(found, total, 1.0), 0.0)


@dataclass
class MetricReport:
    """One evaluated system on one page set."""

    utility: float
    sctr: float
    sctr_per_list: dict[str, float]
    ndcg: float
    map: float
    seed: int

    def row(self) -> dict[str, float | int]:
        out: dict[str, float | int] = {"utility": self.utility, "sctr": self.sctr}
        for role, value in self.sctr_per_list.items():
            out[f"sctr_{role}"] = value
        out["ndcg"] = self.ndcg
        out["map"] = self.map
        out["seed"] = self.seed
        return out


def compute_report(clicks: np.ndarray, probs: np.ndarray, relevance: np.ndarray,
                   mask: np.ndarray, roles: tuple[str, ...], seed: int) -> MetricReport:
    """Aggregate (P, n, m) page arrays into one report.

    relevance holds binary labels in display order; nDCG and MAP rank each
    list's real (mask > 0) slots in order and average over every page's lists.
    """
    real = np.asarray(mask) > 0
    # move padding behind the real slots, keeping their order
    order = np.argsort(~real, axis=-1, kind="stable")
    rel = np.take_along_axis(np.where(real, relevance, 0.0), order, axis=-1)
    return MetricReport(
        utility=utility(clicks),
        sctr=sctr(probs),
        sctr_per_list={role: sctr(probs, lists=[i]) for i, role in enumerate(roles)},
        ndcg=float(np.mean(ndcg(rel))) if rel.size else 0.0,
        map=float(np.mean(average_precision(rel))) if rel.size else 0.0,
        seed=seed,
    )


# -- report tables -------------------------------------------------------------


def report_timestamp() -> str:
    """ISO timestamp; fixed by SOURCE_DATE_EPOCH when set (reproducible runs)."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        moment = datetime.datetime.now(datetime.timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class ReportTable:
    """Rows keyed by system/variant name, shared column order."""

    roles: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)

    def columns(self) -> list[str]:
        return (["system", "utility", "sctr"]
                + [f"sctr_{role}" for role in self.roles]
                + ["ndcg", "map", "seed", "timestamp"])

    def add(self, system: str, report: MetricReport, timestamp: str) -> None:
        row = {"system": system}
        row.update(report.row())
        row["timestamp"] = timestamp
        missing = set(self.columns()) - set(row)
        if missing:
            raise DataError(f"report row missing columns: {sorted(missing)}")
        self.rows.append(row)

    def add_aggregate(self, system: str, reports: list[MetricReport], timestamp: str) -> None:
        """Append mean and std rows over seeds for one system."""
        keys = [c for c in self.columns() if c not in ("system", "seed", "timestamp")]
        for label, reducer in (("mean", np.mean), ("std", np.std)):
            row = {"system": system, "seed": label, "timestamp": timestamp}
            for key in keys:
                row[key] = float(reducer([r.row()[key] for r in reports]))
            self.rows.append(row)

    def to_csv(self) -> str:
        cols = self.columns()
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(_format_cell(row[c]) for c in cols))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        cols = self.columns()
        payload = [{c: row[c] for c in cols} for row in self.rows]
        return json.dumps(payload, indent=2) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DataError(f"non-finite metric value {value}")
        return f"{value:.6f}"
    return str(value)

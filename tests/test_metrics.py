"""Ranking metrics against brute-force oracles, and report formatting."""

import itertools
import math

import numpy as np
import pytest

from par.metrics import (MetricReport, ReportTable, average_precision, compute_report,
                         ndcg, report_timestamp, sctr, utility)


def brute_force_ndcg(rel):
    """Independent reference: explicit DCG loop, IDCG via max over permutations."""
    rel = list(rel)
    if sum(rel) == 0:
        return 0.0

    def dcg(seq):
        total = 0.0
        for k, r in enumerate(seq, start=1):
            total += r / math.log2(k + 1)
        return total

    best = max(dcg(p) for p in itertools.permutations(rel))
    return dcg(rel) / best


def brute_force_ap(rel):
    """Independent reference: precision-at-k summed over relevant ranks."""
    rel = list(rel)
    if sum(rel) == 0:
        return 0.0
    total = 0.0
    for k in range(1, len(rel) + 1):
        if rel[k - 1]:
            total += sum(rel[:k]) / k
    return total / sum(rel)


def all_binary_lists(max_len=5, max_rel=2):
    for length in range(1, max_len + 1):
        for bits in itertools.product([0, 1], repeat=length):
            if sum(bits) <= max_rel:
                yield list(bits)


class TestUtility:
    def test_all_zero(self):
        assert utility([np.zeros((2, 3))]) == 0.0

    def test_single_page(self):
        clicks = np.zeros((2, 3))
        clicks[0, 0] = clicks[1, 2] = clicks[0, 1] = 1
        assert utility([clicks]) == 3.0

    def test_mean_over_pages(self):
        a = np.zeros((1, 2)); a[0, 0] = 1
        b = np.ones((1, 2))
        assert utility([a, b]) == 1.5


class TestSctr:
    def test_all_zero(self):
        assert sctr([np.zeros((2, 2))]) == 0.0

    def test_hand_sum(self):
        probs = np.array([[0.2, 0.3], [0.1, 0.4]])
        assert abs(sctr([probs]) - 1.0) < 1e-12

    def test_mean_over_pages(self):
        pages = [np.full((1, 2), 0.25), np.full((1, 2), 0.75)]
        assert abs(sctr(pages) - 1.0) < 1e-12

    def test_page_sctr_is_sum_of_list_sctrs(self):
        rng = np.random.default_rng(0)
        pages = [rng.uniform(size=(4, 10)) for _ in range(7)]
        total = sum(sctr(pages, lists=[i]) for i in range(4))
        assert abs(sctr(pages) - total) < 1e-12


class TestNdcg:
    def test_single_relevant_first(self):
        assert ndcg([1]) == 1.0

    def test_sole_relevant_at_rank_two(self):
        assert abs(ndcg([0, 1]) - 1 / math.log2(3)) < 1e-12
        assert abs(ndcg([0, 1]) - 0.63093) < 1e-5

    def test_all_relevant_any_order(self):
        assert ndcg([1, 1, 1]) == 1.0

    def test_empty_and_all_zero(self):
        assert ndcg([]) == 0.0
        assert ndcg([0, 0, 0]) == 0.0

    def test_matches_brute_force_exhaustively(self):
        for rel in all_binary_lists():
            assert abs(ndcg(rel) - brute_force_ndcg(rel)) < 1e-12, rel

    def test_perfect_iff_relevant_first(self):
        for rel in all_binary_lists():
            if sum(rel) == 0:
                continue
            sorted_first = all(a >= b for a, b in zip(rel, rel[1:]))
            assert (abs(ndcg(rel) - 1.0) < 1e-12) == sorted_first, rel


class TestMap:
    def test_single_relevant_first(self):
        assert average_precision([1]) == 1.0

    def test_relevant_at_one_and_three(self):
        assert abs(average_precision([1, 0, 1]) - (1 + 2 / 3) / 2) < 1e-12

    def test_no_relevant(self):
        assert average_precision([0, 0]) == 0.0

    def test_matches_brute_force_exhaustively(self):
        for rel in all_binary_lists():
            assert abs(average_precision(rel) - brute_force_ap(rel)) < 1e-12, rel

    def test_perfect_iff_relevant_first(self):
        for rel in all_binary_lists():
            if sum(rel) == 0:
                continue
            sorted_first = all(a >= b for a, b in zip(rel, rel[1:]))
            assert (abs(average_precision(rel) - 1.0) < 1e-12) == sorted_first, rel


class TestBatchedRankingMetrics:
    def test_rows_equal_single_rankings(self):
        rng = np.random.default_rng(3)
        rel = (rng.uniform(size=(6, 3, 7)) < 0.3).astype(float)
        nd, ap = ndcg(rel), average_precision(rel)
        assert nd.shape == ap.shape == (6, 3)
        for p in range(6):
            for i in range(3):
                assert abs(nd[p, i] - brute_force_ndcg(rel[p, i])) < 1e-12
                assert abs(ap[p, i] - brute_force_ap(rel[p, i])) < 1e-12

    def test_report_on_padded_fshape_pages(self):
        # fshape-like pages: one vertical list of 4, two horizontal lists of 3
        # padded to m = 4, plus a masked slot inside a list
        rng = np.random.default_rng(4)
        lengths = [4, 3, 3]
        mask = np.tile((np.arange(4)[None, :] < np.array(lengths)[:, None]).astype(float),
                       (9, 1, 1))
        mask[2, 0, 1] = 0.0
        rel = (rng.uniform(size=mask.shape) < 0.4) * mask
        rel[2, 0] = [0, 0, 0, 1]  # ranked third of the list's real slots, not fourth
        probs = rng.uniform(size=mask.shape) * mask
        clicks = (rng.uniform(size=mask.shape) < probs).astype(np.int64)
        report = compute_report(clicks, probs, rel, mask, ("v", "h1", "h2"), seed=3)
        rows = [[int(x) for x in rel[p, i][mask[p, i] > 0]] for p in range(9) for i in range(3)]
        assert abs(report.ndcg - np.mean([brute_force_ndcg(r) for r in rows])) < 1e-12
        assert abs(report.map - np.mean([brute_force_ap(r) for r in rows])) < 1e-12
        assert report.utility == np.mean([c.sum() for c in clicks])
        assert abs(report.sctr - np.mean([q.sum() for q in probs])) < 1e-12
        for i, role in enumerate(("v", "h1", "h2")):
            assert abs(report.sctr_per_list[role] - np.mean([q[i].sum() for q in probs])) < 1e-12


class TestReportAssembly:
    def make_report(self):
        clicks = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        probs = np.array([[[0.5, 0.1], [0.2, 0.3]]])
        rel = np.array([[[1, 0], [1, 1]]])
        return compute_report(clicks, probs, rel, np.ones((1, 2, 2)), roles=("h1", "h2"),
                              seed=7)

    def test_fields(self):
        report = self.make_report()
        assert report.utility == 2.0
        assert abs(report.sctr - 1.1) < 1e-12
        assert abs(report.sctr_per_list["h1"] - 0.6) < 1e-12
        assert abs(report.sctr_per_list["h2"] - 0.5) < 1e-12
        assert report.ndcg == 1.0
        assert report.map == 1.0
        assert report.seed == 7

    def test_csv_layout(self):
        table = ReportTable(roles=("h1", "h2"))
        table.add("INIT", self.make_report(), timestamp="2026-01-01T00:00:00Z")
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "system,utility,sctr,sctr_h1,sctr_h2,ndcg,map,seed,timestamp"
        cells = lines[1].split(",")
        assert cells[0] == "INIT"
        assert cells[-1] == "2026-01-01T00:00:00Z"
        assert len(cells) == 9

    def test_aggregate_rows(self):
        table = ReportTable(roles=("h1", "h2"))
        reports = []
        for seed in (0, 1):
            r = self.make_report()
            r.seed = seed
            r.sctr += seed  # make std nonzero
            reports.append(r)
        table.add_aggregate("PAR", reports, timestamp="t")
        mean_row = next(r for r in table.rows if r["seed"] == "mean")
        std_row = next(r for r in table.rows if r["seed"] == "std")
        assert abs(mean_row["sctr"] - 1.6) < 1e-12
        assert abs(std_row["sctr"] - 0.5) < 1e-12

    def test_timestamp_honors_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert report_timestamp() == "1970-01-01T00:00:00Z"

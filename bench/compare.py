"""Compare two sets of benchmark results, such as a parent commit and a change.

Each set is a directory of files written by `run.py --save DIR`, ideally ten
seeds per workload on each side:

    python3 bench/compare.py .perfbench/results/parent .perfbench/results/change

One row per workload and end-to-end metric gives each side's median and
quartiles and a verdict against the bound in BENCHMARK.json:

- unresolved: either side's spread (quartile distance over median) is wider
  than the bound, and not every run of the change beats every parent run;
- improved: the change wins at least nine tenths of the seed-paired runs and
  its median is better by more than the parent's quartile distance;
- regressed: the change's median is worse by more than the bound;
- within bound: otherwise.

Per-layer rows compare the medians of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[tuple[str, int], dict[str, dict[int, float]]]:
    """(workload, trace) -> metric -> seed -> value."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        facts = record["facts"]
        metrics = out.setdefault((facts["workload"], facts["trace"]), {})
        for name, metric in record["result"]["metrics"].items():
            metrics.setdefault(name, {})[facts["seed"]] = metric["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0     # sign * (new - base) > 0 means worse
    b1, bm, b3 = quartiles(list(base.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    all_better = all(sign * (n - b) < 0 for n in new.values() for b in base.values())
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    decided = sum(n != b for b, n in pairs)
    won = wins >= 0.9 * decided if decided else all_better
    if sign * (nm - bm) < 0 and won and abs(nm - bm) > b3 - b1:
        return "improved"
    if bm and sign * (nm - bm) / abs(bm) > bound:
        return "regressed"
    return "within bound"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="result directory of the parent")
    p.add_argument("new", help="result directory of the change")
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(args.base), load(args.new)

    print(f"{'workload':9s} {'metric':20s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'delta':>8s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = base.get((workload, 0), {}).get(metric["name"], {})
            b = new.get((workload, 0), {}).get(metric["name"], {})
            if not a or not b:
                print(f"{workload:9s} {metric['name']:20s} missing runs")
                continue
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
            print(f"{workload:9s} {metric['name']:20s} "
                  f"{qa[1]:12.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                  f"{qb[1]:12.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}] {delta:+8.2%}  "
                  f"{verdict(a, b, metric['better'], metric['bound'])}")

    print(f"\n{'workload':9s} {'per-layer metric':34s} {'base median':>12s} "
          f"{'new median':>12s} {'delta':>8s}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["per_layer"]:
            a = base.get((workload, 1), {}).get(metric["name"], {})
            b = new.get((workload, 1), {}).get(metric["name"], {})
            if not a or not b:
                continue
            ma, mb = statistics.median(a.values()), statistics.median(b.values())
            delta = f"{(mb - ma) / abs(ma):+8.2%}" if ma else "     n/a"
            print(f"{workload:9s} {metric['name']:34s} {ma:12.5g} {mb:12.5g} {delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record golden output digests from saved benchmark results.

    python3 bench/run.py --workload eval --seed 7919 --seconds 0 --save .perfbench/results/golden
    python3 bench/record_golden.py .perfbench/results/golden

Adds the dataset, loss-trace and permutation digests of every saved run to
bench/golden.json, keyed by config fingerprint and seed. Runs report whether
their digests match these as `golden` status; a mismatch is not a failure,
because a change that reorders float operations changes the bytes honestly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def main(argv: list[str]) -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for directory in argv:
        for path in sorted(Path(directory).glob("*.json")):
            record = json.loads(path.read_text())
            facts = record["facts"]
            seeds = golden.setdefault(facts["config_key"], {"config": facts["config"]})
            stored = seeds.setdefault(str(facts["seed"]), {})
            for key, digest in record["digests"].items():
                if stored.setdefault(key, digest) != digest:
                    print(f"error: {path}: {key} digest disagrees with {GOLDEN.name}",
                          file=sys.stderr)
                    return 1
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["."]))

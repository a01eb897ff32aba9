"""Benchmark of the par desk pipeline: one workload per process.

Run from the repository root:

    python3 bench/run.py --workload train --seed 0 --seconds 16 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same workload
with the layer wrappers installed and prints the per-layer metrics instead.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Lines before it give the machine facts,
the golden-digest status and every metric with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BLAS_ENV = "OPENBLAS_NUM_THREADS"
SEEN_ENV = ("PAR_THREADS", BLAS_ENV, "SOURCE_DATE_EPOCH")
DEFAULT_SEED = 0        # the workload seed claims are made on
HELD_OUT_SEED = 7919    # re-check a claim here: no change may be tuned on it
TRACE_DIR = ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train", "eval"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed: the config seed of the generated world and model; "
                        f"re-check claims on the held-out seed {HELD_OUT_SEED}")
    p.add_argument("--seconds", type=float, default=16.0,
                   help="seconds of the repeated stage to measure")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--config", default="configs/desk.cfg", help="config file, from the root")
    p.add_argument("--save", help="also write the full result as JSON into this directory")
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_facts(np) -> dict:
    """BLAS vendor, version and the thread count it reports, where it says."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def config_key(config) -> str:
    """Fingerprint of a config without its seed: golden digests are stored under it."""
    fields = {k: v for k, v in config.to_dict().items() if k != "seed"}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]


def golden_status(config, digests: dict) -> dict:
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    recorded = golden.get(config_key(config), {}).get(str(config.seed), {})
    return {key: ("unrecorded" if key not in recorded else
                  "match" if recorded[key] == digests.get(key) else "no-match")
            for key in digests}


def main(argv=None) -> int:
    args = parse_args(argv)
    config_path = ROOT / args.config
    for needed in (ROOT / "src" / "par" / "__init__.py", config_path):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a par checkout",
                  file=sys.stderr)
            return 2

    # BLAS threads: the environment's count when it is 1..nproc, else nproc
    seen = {k: os.environ.get(k) for k in SEEN_ENV}
    nproc = len(os.sched_getaffinity(0))
    if not (seen[BLAS_ENV] or "").isdigit() or not 1 <= int(seen[BLAS_ENV]) <= nproc:
        os.environ[BLAS_ENV] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import par
    if Path(par.__file__).resolve().parent != (ROOT / "src" / "par").resolve():
        print(f"error: imported par from {par.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from par.config import load_config
    from tracing import COVERAGE_RANGE, Tracer, per_layer_metrics
    from workloads import WORKLOADS, Run, end_to_end

    config = dataclasses.replace(load_config(config_path), seed=args.seed)
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    run = Run(tracer, traced=bool(args.trace))
    tracer.set_enabled(run.traced)
    try:
        workload.run(run, config, args.seconds)
    finally:
        tracer.set_enabled(False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics, missing = per_layer_metrics(tracer.spans, list(workload.hot_units),
                                             workload.coverage_unit, run.loop_seconds)
        for name in missing:
            run.check(name, [f"no spans measured {name}"])
        coverage = metrics["trace.coverage"]["value"]
        lo, hi = COVERAGE_RANGE
        run.check("trace.coverage", [] if lo <= coverage <= hi else
                  [f"coverage {coverage:.3f} outside [{lo}, {hi}]"])
        (ROOT / TRACE_DIR).mkdir(exist_ok=True)
        tracer.write(ROOT / TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(run, peak_rss_mb).items()}

    failed = len(run.failures)
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": args.config, "config_key": config_key(config),
        "nproc": nproc, "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_facts(np), "env_seen": seen, "blas_threads_env": os.environ[BLAS_ENV],
        "samples": {"setups": len(run.samples["setup_s"]),
                    "train_steps": len(run.samples["train_step_ms"]),
                    "loop_ops": len(run.loop_seconds["traced"])
                    + len(run.loop_seconds["untraced"])},
    }
    digests = {k: run.outputs.get(k) for k in ("dataset", "loss", "perms")}
    golden = golden_status(config, digests)
    error_rate = failed / max(run.attempted, 1)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}

    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("facts " + json.dumps(facts, sort_keys=True))
    print("golden " + json.dumps(golden, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {error_rate:.6g} ({failed} failed of {run.attempted} checked)")
    if args.save:
        out = Path(args.save)
        out.mkdir(parents=True, exist_ok=True)
        record = {"facts": facts, "golden": golden, "digests": digests,
                  "error_rate": error_rate, "failures": run.failures, "result": result}
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

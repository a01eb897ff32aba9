"""Command-line pipeline: data generation, training, reranking, evaluation.

Dataset paths are base paths: gen-data writes BASE.train.jsonl,
BASE.test.jsonl, and BASE.catalog.json, and the other commands read them.
All outputs are written atomically; any failure exits nonzero with a single
`error: <Kind>: <message>` line on stderr. A floating-point overflow or
invalid value inside a command is such a failure (`NumericError`, naming the
command, or the epoch and step for one inside a training step), not a
warning.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import VARIANTS, TrainConfig, load_config, with_variant
from .data_oracle import atomic_write, load_catalog, load_pages, write_catalog, write_pages
from .errors import ConfigError, NumericError, ParError
from .metrics import ReportTable, report_timestamp
from .trainer import (EVAL_SEED, Checkpoint, evaluate, gradcheck, rank_pages,
                      tiny_gradcheck_config, train)

log = logging.getLogger(__name__)


def _load_config(args) -> TrainConfig:
    config = load_config(args.config) if args.config else TrainConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _data_paths(base: str) -> dict[str, Path]:
    base_path = Path(base)
    return {
        "train": base_path.with_name(base_path.name + ".train.jsonl"),
        "test": base_path.with_name(base_path.name + ".test.jsonl"),
        "catalog": base_path.with_name(base_path.name + ".catalog.json"),
    }


def _load_splits(base: str, *splits: str):
    """The pages of each split, then the catalog."""
    paths = _data_paths(base)
    for key in (*splits, "catalog"):
        if not paths[key].exists():
            raise ConfigError(f"missing dataset file {paths[key]} (run gen-data first)")
    return (*(load_pages(paths[split]) for split in splits), load_catalog(paths["catalog"]))


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    from .data_oracle import build_dataset

    catalog, train_pages, test_pages = build_dataset(config)
    paths = _data_paths(args.out)
    write_catalog(catalog, paths["catalog"])
    write_pages(train_pages, paths["train"])
    write_pages(test_pages, paths["test"])
    print(f"wrote {len(train_pages)} train pages to {paths['train']}")
    print(f"wrote {len(test_pages)} test pages to {paths['test']}")
    print(f"wrote catalog ({catalog.vocab_size - 1} items, {catalog.themes} themes) "
          f"to {paths['catalog']}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    pages, catalog = _load_splits(args.data, "train")
    checkpoint = train(config, pages, catalog)
    checkpoint.save(args.out)
    final = checkpoint.loss_history[-1] if checkpoint.loss_history else float("nan")
    print(f"trained {config.variant_name()} for {config.epochs} epochs "
          f"(final loss {final:.6f}); checkpoint at {args.out}")
    return 0


def cmd_rerank(args) -> int:
    checkpoint = Checkpoint.load(args.checkpoint)
    pages, catalog = _load_splits(args.data, args.split)
    _, perms = rank_pages(checkpoint, pages, catalog)
    lengths = checkpoint.config.build_layout().lengths

    lines = []
    for user, page_perms in zip(pages.user.tolist(), perms.tolist()):
        lines.append(json.dumps({
            "user": user,
            "permutations": [page_perms[i][:length] for i, length in enumerate(lengths)],
        }, sort_keys=True))
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"reranked {len(pages)} pages; permutations at {args.out}")
    return 0


def cmd_eval(args) -> int:
    checkpoint = Checkpoint.load(args.checkpoint)
    pages, catalog = _load_splits(args.data, "test")
    reports = evaluate(checkpoint, pages, catalog, eval_seed=args.seed,
                       relevance_source=args.relevance)
    roles = checkpoint.config.build_layout().roles
    table = ReportTable(roles=roles)
    stamp = report_timestamp()
    for system in ("INIT", checkpoint.config.variant_name()):
        table.add(system, reports[system], timestamp=stamp)
    _write_table(table, args.out)
    for system, report in reports.items():
        print(f"{system}: utility={report.utility:.4f} sctr={report.sctr:.4f} "
              f"ndcg={report.ndcg:.4f} map={report.map:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    config = load_config(args.config) if args.config else tiny_gradcheck_config()
    report = gradcheck(config)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_ablate(args) -> int:
    config = _load_config(args)
    train_pages, test_pages, catalog = _load_splits(args.data, "train", "test")

    if args.variants:
        requested = [v.strip() for v in args.variants.split(",") if v.strip()]
        unknown = [v for v in requested if v not in VARIANTS]
        if unknown:
            raise ConfigError(f"unknown variants: {unknown} (choose from {list(VARIANTS)})")
    else:
        requested = [v for v in VARIANTS if v != "PAR"]
    variants = list(dict.fromkeys(["PAR"] + requested))  # PAR first, each name once
    seeds = [config.seed + k for k in range(config.ablate_seeds)]

    table = ReportTable(roles=config.build_layout().roles)
    stamp = report_timestamp()
    collected: dict[str, list] = {v: [] for v in variants}
    for variant in variants:
        for seed in seeds:
            run_config = with_variant(dataclasses.replace(config, seed=seed), variant)
            try:
                checkpoint = train(run_config, train_pages, catalog)
                reports = evaluate(checkpoint, test_pages, catalog)
            except (ParError, FloatingPointError) as exc:
                kind = NumericError if isinstance(exc, FloatingPointError) else type(exc)
                raise kind(f"variant {variant} (seed {seed}) failed: {exc}") from exc
            report = reports[variant]
            collected[variant].append(report)
            table.add(variant, report, timestamp=stamp)
            log.info("ablate %s seed %d: sctr=%.4f", variant, seed, report.sctr)
    for variant in variants:
        table.add_aggregate(variant, collected[variant], timestamp=stamp)
    _write_table(table, args.out)
    print(f"ablation table ({len(variants)} variants x {len(seeds)} seeds) at "
          f"{args.out}.csv and {args.out}.json")
    return 0


def _write_table(table: ReportTable, out_base: str) -> None:
    atomic_write(out_base + ".csv", table.to_csv())
    atomic_write(out_base + ".json", table.to_json())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="par", description="page-level attentional reranking pipeline")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic page dataset")
    p.add_argument("--config", help="config file (key = value lines)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="dataset base path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--config", help="config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--data", required=True, help="dataset base path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rerank", help="emit per-list permutations for a page set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset base path")
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--out", required=True, help="permutations JSONL path")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="evaluate a checkpoint against the oracle")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset base path")
    p.add_argument("--seed", type=int, default=EVAL_SEED,
                   help=f"evaluation click seed (default {EVAL_SEED})")
    p.add_argument("--relevance", choices=["labels", "clicks"], default="labels")
    p.add_argument("--out", required=True, help="report base path (.csv/.json added)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify model gradients on a tiny config")
    p.add_argument("--config", help="tiny config file")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    p.add_argument("--config", help="config file")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--data", required=True, help="dataset base path")
    p.add_argument("--variants", help="comma-separated variant names (default: all)")
    p.add_argument("--out", required=True, help="table base path (.csv/.json added)")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (ParError, FloatingPointError) as exc:
        if isinstance(exc, FloatingPointError):
            exc = NumericError(f"{args.command}: {exc}")
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""argparse front end over the pipeline stages.

Exit codes: 0 success, 1 runtime failure, 2 usage error (argparse's own
convention, extended to unknown strategy names).
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .pipeline import SELECTION_NAMES, load_config


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradsel",
        description="Gradient-magnitude density selection of fine-tuning data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True,
                       help="JSON file mirroring RunConfig fields")
        p.add_argument("--out", default=None,
                       help="override the config output directory")

    p = sub.add_parser("extract", help="write gradient records for a dataset")
    common(p)

    p = sub.add_parser("select", help="density strategy or baseline selection over records")
    common(p)
    p.add_argument("--records", required=True)
    p.add_argument("--strategy", choices=SELECTION_NAMES, default="grads",
                   help="density strategy or baseline (default: %(default)s)")
    p.add_argument("--fraction", type=float, default=50.0,
                   help="percentage of the records to keep (default: %(default)g)")
    p.add_argument("--force", action="store_true",
                   help="skip provenance checks")

    p = sub.add_parser("train", help="fine-tune a fresh model on a selection")
    common(p)
    p.add_argument("--selection", default=None,
                   help="selection JSONL; omitted = full training pool")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("eval", help="score a checkpoint on the test split")
    common(p)
    p.add_argument("--model", required=True)

    p = sub.add_parser("pilot", help="gradient-decile report (CSV)")
    common(p)
    p.add_argument("--records", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("compare", help="strategy sweep with base/all rows")
    common(p)
    p.add_argument("--strategy", default="grads,random",
                   help="comma-separated strategy/baseline names (default: %(default)s)")
    p.add_argument("--fraction", default="50",
                   help="comma-separated percentages (default: %(default)s)")
    p.add_argument("--records", default=None,
                   help="reuse an existing records file")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("synth", help="generate the labeled synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--domain", type=int, default=700)
    p.add_argument("--noise", type=int, default=150)
    p.add_argument("--trivial", type=int, default=150)

    return parser


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.command == "synth":
        path = pipeline.run_synth(
            args.out, args.domain, args.noise, args.trivial, args.seed
        )
        print(path)
        return 0

    cfg = load_config(args.config, out_dir=args.out)

    if args.command == "extract":
        out = pipeline.run_extract(cfg)
        print(f"{out['records']} ({out['n_records']} records)")
    elif args.command == "select":
        result = pipeline.run_select(
            cfg, args.records, args.strategy, args.fraction, args.force
        )
        print(f"{result.strategy}@{result.fraction_percent:g}: "
              f"{len(result.selected_ids)} selected -> {cfg.out_dir}")
    elif args.command == "train":
        meta = pipeline.run_train(cfg, args.selection, args.force)
        print(f"trained on {meta['n_train']} instances -> {cfg.out_dir}")
    elif args.command == "eval":
        out = pipeline.run_eval(cfg, args.model)
        m = out["metrics"]
        print(f"bleu={m['bleu']:.4f} rouge_l={m['rouge_l']:.4f} "
              f"meteor={m['meteor']:.4f} (n={out['n_test']})")
    elif args.command == "pilot":
        meta = pipeline.run_pilot(cfg, args.records, args.force)
        rho = meta["loss_gradient_spearman"]
        print(f"loss/gradient spearman = {'n/a' if rho is None else f'{rho:.4f}'} "
              f"-> {cfg.out_dir}")
    elif args.command == "compare":
        strategies = _comma_list(args.strategy)
        for name in strategies:
            if name not in SELECTION_NAMES:
                parser.error(f"unknown strategy {name!r}")
        try:
            fractions = [float(x) for x in _comma_list(args.fraction)]
        except ValueError:
            parser.error(f"bad fraction list {args.fraction!r}")
        report = pipeline.run_compare(
            cfg, strategies, fractions, args.records, args.force
        )
        for row in report.rows:
            if row.get("error"):
                print(f"{row['row']}: ERROR {row['error']}")
            else:
                print(f"{row['row']}: bleu={row['bleu']:.4f} "
                      f"rouge_l={row['rouge_l']:.4f} meteor={row['meteor']:.4f}")
        if any(row.get("error") for row in report.rows):
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, parser)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands simulate / sample / reconstruct / analyze / report each take
--config (a file path or a preset name), --out, and an optional --seed
override. Exit codes: 0 success, 2 configuration error, 3 numeric or
physics-check failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline
from .config import resolve_config
from .errors import CatsimError, ConfigError, MissingInputError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

STAGES = ("simulate", "sample", "reconstruct", "analyze", "report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catsim",
        description=(
            "Simulate heralded photon subtraction from squeezed vacuum, draw "
            "synthetic homodyne data, reconstruct states by maximum likelihood, "
            "and report the comparison."
        ),
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        p.add_argument(
            "--config",
            required=True,
            help="path to a run config INI, or a preset name "
            "(default, lossless, pure_subtraction, cat_panels)",
        )
        p.add_argument("--out", required=True, help="output directory of the run")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    show = sub.add_parser("preset", help="print a preset config to stdout")
    show.add_argument("name", help="default, lossless, pure_subtraction, or cat_panels")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.stage == "preset":
            from .config import preset

            sys.stdout.write(preset(args.name).to_ini())
            return EXIT_OK
        cfg = resolve_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        if args.stage == "report":
            _, all_pass = pipeline.report(cfg, args.out)
            sys.stdout.write((Path(args.out) / "report" / "report.txt").read_text(encoding="ascii"))
            return EXIT_OK if all_pass else EXIT_NUMERIC
        stage_fn = getattr(pipeline, args.stage)
        files = stage_fn(cfg, args.out)
        print(f"{args.stage}: wrote {len(files)} files under {args.out}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CatsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point.

Exit codes: 0 when the run completed, 3 when a time budget skipped
pages (partial results), 1 on failure. The run report is printed to
stdout as JSON; errors go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .config import RunConfig, apply_cli_overrides, load_config
from .errors import SchemReviewError
from .pipeline import RunStatus, run_pipeline

EXIT_COMPLETE = 0
EXIT_FAILED = 1
EXIT_PARTIAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemreview",
        description="Multi-agent schematic design review pipeline")
    parser.add_argument("--schematic", required=True,
                        help="schematic file to analyze")
    parser.add_argument("--config", help="run config file (JSON, version 1)")
    parser.add_argument("--base",
                        help="base schematic for design-review page diffing")
    parser.add_argument("--mode", choices=["design-review", "full-analysis"],
                        help="operational mode")
    parser.add_argument("--time-limit-secs", type=float, dest="time_limit_secs",
                        help="time budget; past it a page refused new work is skipped")
    parser.add_argument("--runs", type=int, help="review runs per group (k)")
    parser.add_argument("--threshold", type=float,
                        help="critic score threshold for datasheet retries")
    parser.add_argument("--out", help="output directory (file sink)")
    parser.add_argument("--cache-dir", dest="cache_dir",
                        help="datasheet spec cache directory")
    parser.add_argument("--trace-out", dest="trace_out",
                        help="write newline-delimited trace spans to this file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = apply_cli_overrides(cfg, args)
        report = run_pipeline(cfg, args.schematic)
    except SchemReviewError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    return EXIT_PARTIAL if report.status == RunStatus.PARTIAL else EXIT_COMPLETE


if __name__ == "__main__":
    sys.exit(main())

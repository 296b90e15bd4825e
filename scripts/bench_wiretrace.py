#!/usr/bin/env python3
"""Time wire tracing against page size and write the result as JSON.

Each page is one page of wire geometry from the benchmark's board
generator (``perfbench/boardgen.py``, imported read-only) with 6, 12, 24
and 48 blocks, about 200 to 1,600 wire segments. It is traced by
``wiretrace.trace_nets`` (row/column index) and by the all-pairs tracer
kept as the oracle in ``tests/test_wiretrace.py``; the two must return
equal nets. Each time is the median of ``--repeat`` runs.

    PYTHONPATH=src python scripts/bench_wiretrace.py [--repeat 5] [--seed 1] \
        [--out BENCH_wiretrace.json]
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import boardgen  # noqa: E402
from test_wiretrace import oracle_trace_nets  # noqa: E402

from schemreview.ingest import ingest_schematic  # noqa: E402
from schemreview.wiretrace import trace_nets  # noqa: E402

BLOCKS = (6, 12, 24, 48)


def median_ms(trace, page, repeat: int):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        nets = trace(page.id, page.components, page.annotations)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1000, 2), nets


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "BENCH_wiretrace.json"))
    args = parser.parse_args()

    rows = []
    for blocks in BLOCKS:
        board = boardgen.generate_board(args.seed, pages=1, blocks=blocks, wires=True)
        page = ingest_schematic(boardgen.dumps(board["head"])).pages[0]
        old_ms, old_nets = median_ms(oracle_trace_nets, page, args.repeat)
        new_ms, new_nets = median_ms(trace_nets, page, args.repeat)
        if new_nets != old_nets:
            raise SystemExit(f"{blocks} blocks: the tracers disagree")
        rows.append({
            "blocks": blocks,
            "segments": sum(a.kind == "wire" for a in page.annotations),
            "nets": len(new_nets),
            "all_pairs_ms": old_ms,
            "indexed_ms": new_ms,
            "speedup": round(old_ms / new_ms, 1),
        })
        print(json.dumps(rows[-1]), flush=True)

    report = {
        "what": "wiretrace.trace_nets on one synthetic page of wire geometry: "
                "the all-pairs tracer (before) and the row/column index (after)",
        "command": "PYTHONPATH=src python scripts/bench_wiretrace.py "
                   f"--repeat {args.repeat} --seed {args.seed}",
        "statistic": f"median of {args.repeat} runs, milliseconds",
        "target": "1,600 segments in under 100 ms",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "pages": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time a design review's read of head and base plus the page diff, and
write the result as JSON.

Each board is the benchmark's board-wired-diff style (``perfbench/boardgen.py``,
imported read-only): three pages of wire geometry with 6, 12 and 24
blocks, base and head differing on one page. Both documents are decoded
from bytes in memory and read two ways:

* before: head and base each ingested and augmented in full, then every
  page of both hashed (the diff as it was when nothing was shared);
* after: head read in full, base read against it
  (``ingest_schematic(..., reuse=head)``), then ``canonical.diff_pages``.

The two must select the same pages. Before and after alternate within
each repetition; each time is the median of ``--repeat`` runs.

    PYTHONPATH=src python scripts/bench_pagediff.py [--repeat 15] [--seed 21] \
        [--out BENCH_pagediff.json]
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
sys.path.insert(0, str(ROOT / "perfbench"))

import boardgen  # noqa: E402

from schemreview.augment import augment_netlist  # noqa: E402
from schemreview.canonical import diff_pages, page_hash  # noqa: E402
from schemreview.ingest import ingest_schematic  # noqa: E402

BLOCKS = (6, 12, 24)


def before(head_raw: bytes, base_raw: bytes) -> set[str]:
    head = augment_netlist(ingest_schematic(head_raw))
    base = augment_netlist(ingest_schematic(base_raw))
    base_hashes = {p.id: page_hash(p) for p in base.pages}
    return {p.id for p in head.pages if base_hashes.get(p.id) != page_hash(p)}


def after(head_raw: bytes, base_raw: bytes) -> set[str]:
    head = augment_netlist(ingest_schematic(head_raw))
    base = augment_netlist(ingest_schematic(base_raw, reuse=head))
    return diff_pages(base, head)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--out", default=str(ROOT / "BENCH_pagediff.json"))
    args = parser.parse_args()

    rows = []
    for blocks in BLOCKS:
        board = boardgen.generate_board(args.seed, pages=3, blocks=blocks,
                                        wires=True, diff=True)
        head_raw, base_raw = boardgen.dumps(board["head"]), boardgen.dumps(board["base"])
        times = {"before": [], "after": []}
        for _ in range(args.repeat):
            for name, fn in (("before", before), ("after", after)):
                seconds, changed = timed(fn, head_raw, base_raw)
                times[name].append(seconds)
                if changed != {board["manifest"]["changed_page"]}:
                    raise SystemExit(f"{blocks} blocks, {name}: selected {sorted(changed)}")
        old_ms, new_ms = (round(statistics.median(times[k]) * 1000, 2)
                          for k in ("before", "after"))
        rows.append({
            "blocks": blocks,
            "document_bytes": len(head_raw),
            "segments_per_page": round(sum(
                a["kind"] == "wire" for page in board["head"]["pages"]
                for a in page["annotations"]) / 3),
            "changed_page": board["manifest"]["changed_page"],
            "before_ms": old_ms,
            "after_ms": new_ms,
            "saved": f"{1 - new_ms / old_ms:.1%}",
        })
        print(json.dumps(rows[-1]), flush=True)

    report = {
        "what": "read head and base and diff their pages, one board-wired-diff board "
                "(3 pages, one changed): both documents read in full and every page "
                "hashed (before), and base read against head with only the changed "
                "pair hashed (after)",
        "command": "PYTHONPATH=src python scripts/bench_pagediff.py "
                   f"--repeat {args.repeat} --seed {args.seed}",
        "statistic": f"median of {args.repeat} alternated runs, milliseconds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "boards": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

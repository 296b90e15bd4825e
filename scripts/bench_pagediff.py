#!/usr/bin/env python3
"""Time a design review's read of head and base plus the page diff, and
write the result as JSON.

Each board is the benchmark's board-wired-diff style (``perfbench/boardgen.py``,
imported read-only): pages of wire geometry, base and head differing on
one page. Two axes: three pages with 6, 12 and 24 blocks a page, and 12
and 48 pages with 6 blocks a page. Both documents are read two ways:

* before: decoded from bytes in memory, head and base each ingested and
  augmented in full, then every page of both hashed;
* after: the pipeline's own design-review read,
  ``pipeline.select_pages`` on the two files (written once to a
  temporary directory): only the head pages whose page item text differs
  from the base's, and their base pages, are read, traced and compared.

The two must select the same pages. They alternate within each
repetition, and each is timed after a full garbage collection, so that
neither pays for collecting what the other left; each time is the median
of ``--repeat`` runs.

    PYTHONPATH=src python scripts/bench_pagediff.py [--repeat 15] [--seed 21] \
        [--out BENCH_pagediff.json]
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import boardgen  # noqa: E402

from schemreview.augment import augment_netlist  # noqa: E402
from schemreview.canonical import page_hash  # noqa: E402
from schemreview.config import Mode, RunConfig  # noqa: E402
from schemreview.ingest import ingest_schematic  # noqa: E402
from schemreview.pipeline import select_pages  # noqa: E402

# (pages, blocks a page)
BOARDS = ((3, 6), (3, 12), (3, 24), (12, 6), (48, 6))


def before(head_raw: bytes, base_raw: bytes) -> set[str]:
    head = augment_netlist(ingest_schematic(head_raw))
    base = augment_netlist(ingest_schematic(base_raw))
    base_hashes = {p.id: page_hash(p) for p in base.pages}
    return {p.id for p in head.pages if base_hashes.get(p.id) != page_hash(p)}


def after(cfg: RunConfig, head_path: Path) -> set[str]:
    return {page.id for page in select_pages(cfg, head_path)}


def timed(fn, *args):
    gc.collect()
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
    work = Path(tempfile.mkdtemp(prefix="bench_pagediff-"))
    for pages, blocks in BOARDS:
        board = boardgen.generate_board(args.seed, pages=pages, blocks=blocks,
                                        wires=True, diff=True)
        head_raw, base_raw = boardgen.dumps(board["head"]), boardgen.dumps(board["base"])
        head_path, base_path = work / "schematic.json", work / "base_schematic.json"
        head_path.write_bytes(head_raw)
        base_path.write_bytes(base_raw)
        cfg = RunConfig(mode=Mode.DESIGN_REVIEW, base_schematic=str(base_path))
        times = {"before": [], "after": []}
        for _ in range(args.repeat):
            for name, fn, first, second in (("before", before, head_raw, base_raw),
                                            ("after", after, cfg, head_path)):
                seconds, changed = timed(fn, first, second)
                times[name].append(seconds)
                if changed != {board["manifest"]["changed_page"]}:
                    raise SystemExit(f"{pages} pages x {blocks} blocks, {name}: "
                                     f"selected {sorted(changed)}")
        old_ms, new_ms = (round(statistics.median(times[k]) * 1000, 2)
                          for k in ("before", "after"))
        rows.append({
            "pages": pages,
            "blocks": blocks,
            "document_bytes": len(head_raw),
            "segments_per_page": round(sum(
                a["kind"] == "wire" for page in board["head"]["pages"]
                for a in page["annotations"]) / pages),
            "changed_page": board["manifest"]["changed_page"],
            "before_ms": old_ms,
            "after_ms": new_ms,
            "saved": f"{1 - new_ms / old_ms:.1%}",
        })
        print(json.dumps(rows[-1]), flush=True)
    shutil.rmtree(work)

    report = {
        "what": "read head and base and diff their pages, board-wired-diff boards "
                "(one page changed): both documents read in full and every page "
                "hashed (before), and the pipeline's design-review read "
                "(pipeline.select_pages), which reads, traces and compares only the "
                "pages whose item text differs between head and base (after)",
        "command": "PYTHONPATH=src python scripts/bench_pagediff.py "
                   f"--repeat {args.repeat} --seed {args.seed}",
        "statistic": f"median of {args.repeat} alternated runs, each after "
                     "gc.collect(), milliseconds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "boards": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Count one invocation's agent calls and tokens per agent kind on each
benchmark workload, from the run's own trace, and write them as JSON.

Each workload's workspace is laid out and its mock fixtures generated as
the benchmark does it (``perfbench/measure.py``, imported read-only), in
a fresh temporary directory. Payloads carry no path under it, datasheet
URLs included, so the counts do not depend on where it is; for older
code that sent the URLs, every run's directory path has the same length.
One invocation then runs with ``trace_out`` set, and the per-kind sums
are ``gateway.usage_by_kind`` over the spans read back from that file.
Under the mock backend the counts are exact.

Run it in two checkouts and pass the first one's output as ``--before``
to record both, with the change in ``tokens_in`` per workload:

    PYTHONPATH=src python scripts/bench_specs.py [--seed 21] \\
        [--before OLD.json] [--out BENCH_specs.json]
"""

import argparse
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import measure  # noqa: E402

from schemreview.config import load_config  # noqa: E402
from schemreview.gateway import usage_by_kind  # noqa: E402
from schemreview.pipeline import run_pipeline  # noqa: E402
from schemreview.tracing import TraceEvent  # noqa: E402


def count(name: str, seed: int) -> dict:
    """Per agent kind, calls and tokens of one traced invocation of ``name``."""
    workload = measure.SPEC["workloads"][name]
    work = Path(tempfile.mkdtemp(prefix="specs-"))
    try:
        ws = measure.prepare(workload, seed, work)
        measure.generate(ws, workload["cold_cache"], work)
        if workload["cold_cache"]:
            shutil.rmtree(work / "cache", ignore_errors=True)
        shutil.rmtree(ws["out"], ignore_errors=True)
        cfg = load_config(ws["config"])
        cfg.trace_out = str(work / "trace.jsonl")
        report = run_pipeline(cfg, ws["schematic"])
        if report.status != "complete":
            raise RuntimeError(f"{name}: run ended {report.status}")
        events = [TraceEvent(s["span"], s["path"], s["start"], s["duration"],
                             s["attributes"])
                  for s in map(json.loads, Path(cfg.trace_out).read_text().splitlines())]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    usage = {kind: {k: v for k, v in entry.items() if k != "latency_s"}
             for kind, entry in usage_by_kind(events).items()}
    return {"usage": usage,
            "tokens_in": sum(u["tokens_in"] for u in usage.values()),
            "tokens_out": sum(u["tokens_out"] for u in usage.values()),
            "agent_calls": sum(u["calls"] for u in usage.values())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--before", help="this script's output for the old code")
    parser.add_argument("--out", default="BENCH_specs.json")
    args = parser.parse_args()

    workloads = {name: count(name, args.seed) for name in sorted(measure.SPEC["workloads"])}
    doc = {"what": "agent calls and tokens of one invocation per workload, "
                   "per agent kind, summed from the run's trace",
           "seed": args.seed, "python": platform.python_version(),
           "workloads": workloads}
    if args.before:
        before = json.loads(Path(args.before).read_text(encoding="utf-8"))["workloads"]
        doc["workloads"] = {
            name: {"before": before[name], "after": after,
                   "tokens_in_change": round(
                       after["tokens_in"] / before[name]["tokens_in"] - 1, 4)}
            for name, after in workloads.items()}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, entry in doc["workloads"].items():
        print(name, entry.get("tokens_in_change", entry.get("tokens_in")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

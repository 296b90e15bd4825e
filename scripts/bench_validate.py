#!/usr/bin/env python3
"""Time one schema validation, jsonschema against the checkout's check
(``schemacheck.compile_schema``), and compiling each shipped schema, and
write the result as JSON.

Documents are the bundled demo schematic and 3-page boards of wire
geometry from the benchmark's board generator (``perfbench/boardgen.py``,
imported read-only) with 6, 12 and 24 blocks per page. Agent responses
are the largest response per agent kind that the demo's scripted agents
give. "jsonschema" is the call each value used to cost: a prebuilt
validator's ``best_match(iter_errors(doc))`` for a document, a fresh
``Draft202012Validator`` and ``sorted(iter_errors)`` for a response.
"check" is ``compile_schema(schema)(value)``. The two must agree that
every value is valid. Each time is the median of ``--repeat`` runs.

Run it in two checkouts and pass the first one's output as ``--before``
to record both, with the change in each check's time:

    PYTHONPATH=src python scripts/bench_validate.py [--repeat 9] [--seed 5] \\
        [--before OLD.json] [--out BENCH_validate.json]
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from importlib import resources
from importlib.metadata import version
from pathlib import Path

import jsonschema

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import boardgen  # noqa: E402

from schemreview.config import load_config  # noqa: E402
from schemreview.demo import demo_schematic_text, generate_fixtures, write_demo_workspace  # noqa: E402
from schemreview.pipeline import run_pipeline  # noqa: E402
from schemreview.schemacheck import compile_schema  # noqa: E402

BLOCKS = (6, 12, 24)
AGENT_KINDS = ("selection", "head_analysis", "extraction", "critic",
               "group_review", "consensus")


def shipped(filename: str) -> dict:
    return json.loads(resources.files("schemreview.schemas").joinpath(filename).read_text())


def median_ms(fn, value, repeat: int):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(value)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000, result


def demo_responses() -> dict:
    """Agent kind -> the largest response the demo's scripted agents give."""
    work = Path(tempfile.mkdtemp(prefix="bench_validate-"))
    try:
        paths = write_demo_workspace(work)
        cfg = load_config(paths["config"])

        def run():
            shutil.rmtree(work / "cache", ignore_errors=True)
            shutil.rmtree(work / "out", ignore_errors=True)
            return run_pipeline(cfg, paths["schematic"])

        generate_fixtures(run, paths["fixtures"])
        return {kind: max((p.read_text() for p in (paths["fixtures"] / kind).glob("*.resp")),
                          key=lambda t: (len(t), t))
                for kind in AGENT_KINDS}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def row(name: str, schema: dict, text: str, before, repeat: int) -> dict:
    value = json.loads(text)
    check = compile_schema(schema)
    before_ms, before_ok = median_ms(before, value, repeat)
    after_ms, after_ok = median_ms(check, value, repeat)
    if not (before_ok and after_ok):
        raise SystemExit(f"{name}: not valid under both validations")
    return {"value": name, "bytes": len(text.encode()),
            "jsonschema_ms": round(before_ms, 3), "check_ms": round(after_ms, 3),
            "speedup": round(before_ms / after_ms, 1)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=9)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--before", help="this script's output for the old code")
    parser.add_argument("--out", default=str(ROOT / "BENCH_validate.json"))
    args = parser.parse_args()

    document_schema = shipped("structured_pages.schema.json")
    document_validator = jsonschema.Draft202012Validator(document_schema)

    def document_before(doc) -> bool:
        return jsonschema.exceptions.best_match(document_validator.iter_errors(doc)) is None

    documents = [("demo schematic", demo_schematic_text())]
    for blocks in BLOCKS:
        board = boardgen.generate_board(args.seed, pages=3, blocks=blocks, wires=True)
        documents.append((f"wired board, 3 pages x {blocks} blocks",
                          boardgen.dumps(board["head"]).decode()))

    compile_ms = {}
    for filename in ("structured_pages.schema.json",
                     *(f"{kind}.json" for kind in AGENT_KINDS)):
        compile_ms[filename] = round(median_ms(compile_schema, shipped(filename),
                                               args.repeat)[0], 3)
        print(json.dumps({"compile": filename, "ms": compile_ms[filename]}), flush=True)

    rows = []
    for name, text in documents:
        rows.append(row(name, document_schema, text, document_before, args.repeat))
        print(json.dumps(rows[-1]), flush=True)
    for kind, text in demo_responses().items():
        schema = shipped(f"{kind}.json")

        def response_before(value, schema=schema) -> bool:
            validator = jsonschema.Draft202012Validator(schema)
            return not sorted(validator.iter_errors(value), key=str)

        rows.append(row(f"{kind} response", schema, text, response_before, args.repeat))
        print(json.dumps(rows[-1]), flush=True)

    report = {
        "what": "one validation of a valid value, by jsonschema as each value used "
                "to be validated and by compile_schema's check; compile_schema's time "
                "for each shipped schema",
        "command": "PYTHONPATH=src python scripts/bench_validate.py "
                   f"--repeat {args.repeat} --seed {args.seed}",
        "statistic": f"median of {args.repeat} runs, milliseconds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "jsonschema": version("jsonschema")},
        "compile_ms": compile_ms,
        "values": rows,
    }
    if args.before:
        before = json.loads(Path(args.before).read_text(encoding="utf-8"))
        report["before"] = {key: before[key] for key in ("compile_ms", "values")
                            if key in before}
        old = {r["value"]: r["check_ms"] for r in before["values"]}
        for r in rows:
            r["check_change"] = round(r["check_ms"] / old[r["value"]] - 1, 3)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

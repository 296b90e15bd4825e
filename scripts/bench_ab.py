#!/usr/bin/env python3
"""Time ``run_pipeline`` of this checkout against a ``--before`` checkout
in one process, in alternating rounds on one workspace, and write the
per-round medians and wins as JSON.

A shared host's speed drifts over minutes, so two benchmark runs made
apart can show drift as a change. Here both checkouts' packages are
loaded side by side (``--before``'s ``src/schemreview`` under the name
``schemreview_before``), and each round runs ``--runs`` invocations of
one checkout, then of the other, the order reversed every other round,
so that a slow stretch of the host falls on both. The summary's
``change`` is the median and quartiles of the per-round after/before
ratios (``summarize``).

The workspace is one of the benchmark's workloads, laid out and its mock
fixtures generated with the benchmark's own set-up
(``perfbench/measure.py``, imported read-only). Every invocation starts
with the run's output directory removed (and the datasheet cache, where
the workload empties it); every invocation of both checkouts must give
the first invocation's usage, delivered bytes and (span, path,
attributes) sequence in ``trace.jsonl`` (the comparison of acceptance
criterion 07), and neither checkout may miss a mock fixture.

``--split-wire`` (design-review boards) draws one wire of the base's
changed page as two collinear halves before the fixtures are generated:
that page's annotations then differ from the head's while its nets do
not, so nothing of the changed pair's wiring is shared.

``--budget SECS`` gives the after side's runs that time budget
(``time_budget_s``); the before side runs without one. With a budget that
never binds, the equality check above shows that the budget changes no
output.

``--distinct-choices`` scripts each ``group_review`` answer followed by as
many blanks as its seed: the k choices of one request are then equal in
value but never in text, so no choice is read for another.

``--mock-delay SECS`` and ``--max-in-flight N`` replace the workload's mock
backend delay and pool size in both sides' runs (fixture generation keeps
its own), to time the scheduling of a run that waits.

    python scripts/bench_ab.py --before OLD_CHECKOUT --workload board-warm \\
        --out BENCH_name.json [--rounds 20] [--runs 5] [--seed 5] [--split-wire] \\
        [--distinct-choices] [--budget SECS] [--mock-delay SECS] [--max-in-flight N]
"""

import argparse
import importlib
import importlib.util
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

import checks  # noqa: E402
import measure  # noqa: E402  (puts this checkout's src/ on sys.path)
import boardgen  # noqa: E402  (imports schemreview)

SIDES = ("before", "after")


def load_package(src: Path, name: str):
    """The ``schemreview`` package under ``src``, imported as ``name``."""
    package = src / "schemreview"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def span_sequence(trace: Path) -> list:
    """The (span, path, attributes) sequence of a ``trace.jsonl``."""
    return [(span["span"], span["path"], json.dumps(span["attributes"], sort_keys=True))
            for span in map(json.loads, trace.read_text(encoding="utf-8").splitlines())]


def split_wire(path: Path, page_id: str) -> None:
    """Draw one wire of page ``page_id`` of the document at ``path`` as two
    collinear halves: the last wire for which that keeps the page's traced
    nets."""
    from schemreview.augment import augment_netlist
    from schemreview.errors import SchemReviewError
    from schemreview.ingest import ingest_schematic

    def nets(doc):
        try:
            return augment_netlist(ingest_schematic(boardgen.dumps(doc))).page(page_id).nets
        except SchemReviewError:
            return None

    doc = json.loads(path.read_text(encoding="utf-8"))
    before = nets(doc)
    annotations = next(page for page in doc["pages"] if page["id"] == page_id)["annotations"]
    for i in reversed(range(len(annotations))):
        wire = annotations[i]
        box = wire["bbox"]
        if wire["kind"] != "wire" or box["w"] + box["h"] < 2:
            continue
        dx, dy = box["w"] // 2, box["h"] // 2
        annotations[i:i + 1] = [
            {**wire, "bbox": {**box, "w": dx or box["w"], "h": dy or box["h"]}},
            {**wire, "bbox": {"x": box["x"] + dx, "y": box["y"] + dy,
                              "w": box["w"] - dx, "h": box["h"] - dy}}]
        if nets(doc) == before:
            path.write_bytes(boardgen.dumps(doc))
            return
        annotations[i:i + 2] = [wire]
    raise SystemExit(f"no wire of {page_id} splits without changing its nets")


def distinct_choices(make_responder):
    """``make_responder`` whose ``group_review`` answers end in as many
    blanks as the seed they answer."""
    def make(manifest):
        respond = make_responder(manifest)

        def distinct(kind_name: str, payload: str, seed: int = 0) -> str:
            text = respond(kind_name, payload, seed)
            return text + " " * seed if kind_name == "group_review" else text
        return distinct
    return make


def side_runner(package: str, ws: dict, work: Path, cold_cache: bool,
                budget: float | None, backend: dict):
    """A function that runs one invocation with ``package``'s code, under
    time budget ``budget`` if given and with the backend settings of
    ``backend`` (field -> value), and returns its wall time and what it
    must share with every other invocation: usage, delivered bytes' digest
    and span sequence."""
    config = importlib.import_module(f"{package}.config")
    pipeline = importlib.import_module(f"{package}.pipeline")
    cfg = config.load_config(ws["config"])
    if budget is not None:
        cfg.time_budget_s = budget
    for field, value in backend.items():
        setattr(cfg.backend, field, value)
    cfg.trace_out = cfg.trace_out or str(work / "trace.jsonl")
    trace = Path(cfg.trace_out)

    def run():
        if cold_cache:
            shutil.rmtree(work / "cache", ignore_errors=True)
        shutil.rmtree(ws["out"], ignore_errors=True)
        trace.unlink(missing_ok=True)
        t0 = time.perf_counter()
        report = pipeline.run_pipeline(cfg, ws["schematic"])
        wall = time.perf_counter() - t0
        return wall, (measure.usage_of(report), checks.output_digest(ws["out"]),
                      span_sequence(trace))

    return run


def quartiles(values: list[float], scale: float = 1000, digits: int = 3) -> dict:
    """The median and quartiles of ``values`` (at least two), each times
    ``scale``, rounded to ``digits``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median * scale, digits), "q1": round(q1 * scale, digits),
            "q3": round(q3 * scale, digits)}


def summarize(rounds: list[dict]) -> dict:
    """The summary of per-round side medians (seconds, keyed by side):
    each side's median and quartiles over rounds in milliseconds; as
    ``change``, the median and quartiles of the per-round after/before
    ratios, so that host drift from round to round, which both sides of a
    round share, does not read as a change; and the rounds in which the
    after side was faster."""
    return {"before_ms": quartiles([r["before"] for r in rounds]),
            "after_ms": quartiles([r["after"] for r in rounds]),
            "change": quartiles([r["after"] / r["before"] for r in rounds], 1, 4),
            "after_faster_rounds": f"{sum(r['after'] < r['before'] for r in rounds)}"
                                   f"/{len(rounds)}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="checkout of the old code")
    parser.add_argument("--workload", required=True, choices=sorted(measure.SPEC["workloads"]))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--runs", type=int, default=5, help="invocations per side and round")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--split-wire", action="store_true",
                        help="draw a wire of the base's changed page as two halves")
    parser.add_argument("--distinct-choices", action="store_true",
                        help="make the choices of every group review differ in text")
    parser.add_argument("--budget", type=float, metavar="SECS",
                        help="time budget of the after side's runs (default: none)")
    parser.add_argument("--mock-delay", type=float, metavar="SECS",
                        help="mock backend delay of both sides' runs (default: the workload's)")
    parser.add_argument("--max-in-flight", type=int, metavar="N",
                        help="pool size of both sides' runs (default: the config's)")
    parser.add_argument("--out", required=True,
                        help="where to write the JSON record; an existing file is replaced")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for the quartiles")

    before = Path(args.before).resolve() / "src"
    if not (before / "schemreview" / "__init__.py").is_file():
        raise SystemExit(f"no schemreview package under {before}")
    load_package(before, "schemreview_before")
    packages = dict(zip(SIDES, ("schemreview_before", "schemreview")))

    backend = {field: value for field, value in (("mock_delay_s", args.mock_delay),
                                                 ("max_in_flight", args.max_in_flight))
               if value is not None}
    workload = measure.SPEC["workloads"][args.workload]
    cold = workload["cold_cache"]
    rounds = []
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        work = Path(tmp)
        ws = measure.prepare(workload, args.seed, work)
        if args.split_wire:
            changed = (ws["manifest"] or {}).get("changed_page")
            if changed is None:
                raise SystemExit(f"{args.workload} has no base with a changed page")
            split_wire(work / "base_schematic.json", changed)
        if args.distinct_choices:
            measure.make_responder = distinct_choices(measure.make_responder)
        measure.generate(ws, cold, work)
        runners = {side: side_runner(packages[side], ws, work, cold,
                                     args.budget if side == "after" else None, backend)
                   for side in SIDES}
        reference = None
        for i in range(args.rounds):
            walls = {}
            for side in SIDES[::1 if i % 2 == 0 else -1]:
                times = []
                for _ in range(args.runs):
                    wall, shared = runners[side]()
                    if reference is None:
                        reference = shared
                    if shared != reference:
                        raise SystemExit(f"round {i}: {side}'s usage, delivered bytes or "
                                         "span sequence differ from the first invocation's")
                    times.append(wall)
                walls[side] = statistics.median(times)
            rounds.append(walls)
            print(f"round {i}: " + " ".join(f"{s} {walls[s] * 1000:.2f} ms" for s in SIDES),
                  flush=True)
        misses = checks.missing_fixtures(ws["fixtures"])
        if misses:
            raise SystemExit(f"{len(misses)} mock miss(es), e.g. {misses[0]}")

    report = {
        "what": f"wall time of one run_pipeline invocation on the {args.workload} workload, "
                "this checkout (after) against --before, both loaded in one process",
        "command": f"python scripts/bench_ab.py --before OLD --workload {args.workload} "
                   f"--rounds {args.rounds} --runs {args.runs} --seed {args.seed}"
                   + (" --split-wire" if args.split_wire else "")
                   + (" --distinct-choices" if args.distinct_choices else "")
                   + (f" --budget {args.budget:g}" if args.budget is not None else "")
                   + (f" --mock-delay {args.mock_delay:g}" if args.mock_delay is not None
                      else "")
                   + (f" --max-in-flight {args.max_in_flight}"
                      if args.max_in_flight is not None else "")
                   + f" --out {Path(args.out).name}",
        "statistic": f"per round, the median of {args.runs} invocations per side, "
                     "milliseconds; summary: each side's median and quartiles over rounds, "
                     "and as change the median and quartiles of the per-round "
                     "after/before ratios",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "rounds_ms": [{side: round(r[side] * 1000, 3) for side in SIDES} for r in rounds],
        "summary": summarize(rounds),
    }
    print(json.dumps(report["summary"]))
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, measure in a closed loop, check.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S
                                 --trace 0|1 --work DIR

Set-up (not timed): lay out the workspace under DIR (the demo workspace,
or a synthetic board from ``boardgen``) and generate the mock fixtures
with ``schemreview.demo.generate_fixtures`` and the benchmark responder.
Then one client calls ``run_pipeline`` back to back for S seconds,
checking every invocation's output; ``setup_s`` samples are taken in fresh
interpreters between invocations. With ``--trace 1`` every other
invocation runs under ``Probes``.

Prints one JSON object as its last line: correct, attempted, failed,
metrics (end-to-end, or per-layer with ``--trace 1``) and details.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import boardgen  # noqa: E402
import checks  # noqa: E402
from calibrate import adjusted, reference_task  # noqa: E402
from responder import make_responder  # noqa: E402
from schemreview.config import load_config  # noqa: E402
from schemreview.demo import generate_fixtures, write_demo_workspace  # noqa: E402
from schemreview.pipeline import run_pipeline  # noqa: E402

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import schemreview.cli
from schemreview.config import load_config
from schemreview.gateway import Gateway
Gateway(load_config(sys.argv[1]).backend)
print(time.perf_counter() - t0)
"""

SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def prepare(workload: dict, seed: int, work: Path) -> dict:
    """Workspace files, config and expectations for one workload."""
    paths = write_demo_workspace(work)
    manifest = None
    expected_pages = None
    if workload["source"] == "board":
        board = boardgen.generate_board(
            seed, workload["pages"], workload["blocks"],
            wires=workload["style"] == "wires", diff=workload.get("diff", False))
        for name, data in boardgen.board_files(board).items():
            (work / name).write_bytes(data)
        manifest = board["manifest"]
        expected_reports = checks.planted(manifest)
        if manifest["changed_page"] is not None:
            expected_pages = [manifest["changed_page"]]
    else:
        expected_reports = list(checks.DEMO_ERRORS)

    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["mode"] = workload["mode"]
    config["backend"]["mock_delay_s"] = workload["mock_delay_s"]
    if workload["mode"] == "design-review":
        config["base_schematic"] = str(work / "base_schematic.json")
    paths["config"].write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {**paths, "manifest": manifest, "expected_reports": expected_reports,
            "expected_pages": expected_pages}


def generate(ws: dict, cold_cache: bool, work: Path) -> float:
    """Script the mock fixtures by running the pipeline until no call
    misses; returns the seconds it took. Leaves the datasheet cache filled."""
    cfg = load_config(ws["config"])
    cfg.backend.mock_delay_s = 0.0

    def run():
        if cold_cache:
            shutil.rmtree(work / "cache", ignore_errors=True)
        shutil.rmtree(ws["out"], ignore_errors=True)
        return run_pipeline(cfg, ws["schematic"])

    quiet = logging.getLogger("schemreview")
    level = quiet.level
    quiet.setLevel(logging.ERROR)  # the rounds before convergence warn by design
    t0 = time.perf_counter()
    try:
        generate_fixtures(run, ws["fixtures"], responder=make_responder(ws["manifest"]))
    finally:
        quiet.setLevel(level)
    return time.perf_counter() - t0


def setup_sample(config_path: Path) -> float:
    """One ``setup_s`` sample, taken in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config_path)],
                          env=env, capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def usage_of(report) -> dict:
    return {kind: {k: v for k, v in entry.items() if k != "latency_s"}
            for kind, entry in report.usage.items()}


class Checker:
    """Per-invocation output check; the first passing invocation's usage
    and delivered bytes become the reference for the rest."""

    def __init__(self, ws: dict):
        self.ws = ws
        self.usage = None
        self.digest = None

    def __call__(self, report) -> list[str]:
        problems = checks.check_status(report)
        problems += checks.check_reported(self.ws["out"], self.ws["expected_reports"])
        if self.ws["expected_pages"] is not None:
            problems += checks.check_pages(report.pages_analyzed,
                                           self.ws["expected_pages"])
        misses = checks.missing_fixtures(self.ws["fixtures"])
        if misses:
            problems.append(f"{len(misses)} mock miss(es), e.g. {misses[0]}")
        usage, digest = usage_of(report), checks.output_digest(self.ws["out"])
        if self.usage is None and not problems:
            self.usage, self.digest = usage, digest
        if self.usage is not None and usage != self.usage:
            problems.append("usage differs from the first invocation")
        if self.digest is not None and digest != self.digest:
            problems.append("delivered bytes differ from the first invocation")
        return problems


class HostSpeed:
    """The reference task run between timed stretches: ``reference()`` is
    its mean time just before and just after the stretch that ended last."""

    def __init__(self):
        self._last = reference_task()

    def reference(self) -> float:
        after = reference_task()
        mean, self._last = (self._last + after) / 2, after
        return mean


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans-out", help="write the traced run's spans here")
    args = parser.parse_args(argv)

    workload = SPEC["workloads"][args.workload]
    work = Path(args.work)
    ws = prepare(workload, args.seed, work)
    prep_s = generate(ws, workload["cold_cache"], work)

    cfg = load_config(ws["config"])
    check = Checker(ws)
    probes = None
    if args.trace:
        from probes import Probes, summarize_runs

        probes = Probes(cfg.critic_threshold)

    # setup_s samples are spread over the run, between invocations, so that
    # one slow stretch of a shared host cannot skew them all
    samples = 0 if args.trace else SPEC["setup_samples"]
    if samples:
        setup_sample(ws["config"])  # unmeasured: warms the byte-code cache
    host = HostSpeed()
    setup, setup_raw = [], []
    walls = {False: [], True: []}
    raw_walls: list[float] = []
    pages = 0
    failures: list[str] = []
    attempted = 0

    def take_setup_sample():
        sample = setup_sample(ws["config"])
        setup_raw.append(sample)
        setup.append(adjusted(sample, sample, host.reference()))

    started = time.perf_counter()
    while (attempted < (2 if args.trace else 1)
           or time.perf_counter() - started < args.seconds):
        elapsed = time.perf_counter() - started
        if len(setup) < samples and elapsed >= len(setup) * args.seconds / samples:
            take_setup_sample()
        if workload["cold_cache"]:
            shutil.rmtree(work / "cache", ignore_errors=True)
        shutil.rmtree(ws["out"], ignore_errors=True)
        traced = probes is not None and attempted % 2 == 1
        if traced:
            probes.install()
        report, error = None, None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                report = probes.run(attempted, run_pipeline, cfg, ws["schematic"])
            else:
                report = run_pipeline(cfg, ws["schematic"])
        except Exception as exc:  # an invocation failure is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            probes.uninstall()
        # with no mock delay every second is the host's; with one, only the
        # process's CPU time is (a VM's stolen time never shows in CPU time,
        # so CPU time would miss the host's slow stretches where it can)
        busy = cpu if workload["mock_delay_s"] else wall
        walls[traced].append(adjusted(wall, busy, host.reference()))
        if not traced:
            raw_walls.append(wall)
        attempted += 1
        problems = [error] if error else check(report)
        if problems:
            failures.append(f"invocation {attempted}: " + "; ".join(problems))
        else:
            pages += len(report.pages_analyzed)

    while len(setup) < samples:
        take_setup_sample()
    plain = walls[False]
    tail = SPEC["tail_percentile"]
    tail_s = percentile(plain, tail)
    details = {
        "workload": args.workload, "seed": args.seed,
        "prep_s": prep_s, "setup_samples": setup,
        "raw": {"review_s.p50": statistics.median(raw_walls),
                "setup_s": statistics.median(setup_raw) if setup_raw else None},
        "review_s": {"p50": statistics.median(plain), f"p{tail}": tail_s,
                     "samples": len(plain),
                     f"beyond_p{tail}": sum(1 for w in plain if w > tail_s)},
        "failures": failures[:5],
    }
    if probes is None:
        usage = check.usage or {}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "review_s.p50": (statistics.median(plain), "s"),
            f"review_s.p{tail}": (tail_s, "s"),
            "pages_per_s": (pages / sum(plain), "1/s"),
            "tokens_in": (sum(u["tokens_in"] for u in usage.values()), "tokens"),
            "tokens_out": (sum(u["tokens_out"] for u in usage.values()), "tokens"),
            "agent_calls": (sum(u["calls"] for u in usage.values()), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "success_rate": ((attempted - len(failures)) / attempted, "ratio"),
        }
    else:
        layer = summarize_runs(probes)
        layer["pipeline.trace_overhead"] = (statistics.median(walls[True])
                                            - statistics.median(plain))
        details["review_s"]["traced_p50"] = statistics.median(walls[True])
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        if args.spans_out:
            probes.dump(args.spans_out)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "details": details,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("trace_overhead"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("tokens_in") or name.endswith("tokens_out"):
        return "tokens"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time what one CI invocation pays: a fresh ``python -m schemreview.cli``
process, and the benchmark's ``setup_s`` snippet, against a ``--before``
checkout, and write the result as JSON.

Two workspaces are laid out with the benchmark's own set-up
(``perfbench/measure.py``, imported read-only): the bundled demo in
full-analysis mode with mock delay 0 (datasheet cache emptied before
each run, as demo-latency does), and a board-wired-diff board
(``perfbench/boardgen.py``) in design-review mode with a warm cache.
Mock fixtures are generated once with this checkout's code; both
checkouts must print the same run report on them.

Each timing is one child process, timed from outside: its wall time
from spawn to exit, and its CPU time (``.cpu``, user plus system, which
other load on a shared host moves less); the setup snippet's own
printed time is kept as ``setup_s``. Each pair
runs both checkouts in both bytecode modes, in reverse order every
other pair, so each checkout runs first in half of the pairs. The modes:

* ``no_cache``: the child gets ``PYTHONDONTWRITEBYTECODE=1``, so it
  compiles every module of ``src/`` from source, as on a host that keeps
  no bytecode (the stdlib's installed ``.pyc`` files are still read);
* ``cached``: the child gets ``PYTHONPYCACHEPREFIX`` on a temporary
  directory, one per checkout, filled by one unmeasured run.

Neither variable is set anywhere but in the measuring child's
environment, and no ``__pycache__`` may exist under either ``src/``.
``bytecode_saves_ms`` is one checkout's median over pairs of its
no-cache minus its cached time: what compiling ``src/`` costs a process.

    python scripts/bench_cold.py --before OLD_CHECKOUT [--pairs 20] \
        [--seed 21] [--out BENCH_cold.json]
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import measure  # noqa: E402  (puts this checkout's src/ on sys.path)

SIDES = ("before", "after")
MODES = ("no_cache", "cached")
WORKLOADS = {
    "demo": {**measure.SPEC["workloads"]["demo-latency"], "mock_delay_s": 0.0},
    "board-wired-diff": measure.SPEC["workloads"]["board-wired-diff"],
}


def child_env(src: Path, pycache: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(src)
    if pycache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv: list[str], env: dict, ws: dict,
              cold_cache: bool) -> tuple[float, float, str]:
    """Wall and CPU seconds of one child, and its stdout; the run's
    outputs and, with ``cold_cache``, its datasheet cache are removed
    first."""
    shutil.rmtree(ws["out"], ignore_errors=True)
    if cold_cache:
        shutil.rmtree(ws["work"] / "cache", ignore_errors=True)
    cpu, start = child_cpu_s(), time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    wall, cpu = time.perf_counter() - start, child_cpu_s() - cpu
    if done.returncode != 0:
        raise SystemExit(f"{argv[:2]} exited {done.returncode}:\n{done.stderr}")
    return wall, cpu, done.stdout


def report_of(stdout: str) -> dict:
    doc = json.loads(stdout)
    doc.pop("wall_time_s")
    for entry in doc["usage"].values():
        entry.pop("latency_s")
    return doc


def summary(before: list[float], after: list[float]) -> dict:
    def ms(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": round(median * 1000, 1), "q1": round(q1 * 1000, 1),
                "q3": round(q3 * 1000, 1)}
    old, new = statistics.median(before), statistics.median(after)
    return {"before_ms": ms(before), "after_ms": ms(after),
            "change": f"{new / old - 1:+.1%}",
            "after_faster_pairs": f"{sum(a < b for b, a in zip(before, after))}/{len(before)}"}


def saved_ms(times: dict, side: str) -> float:
    """Median over pairs of the no-cache minus the cached time of one side."""
    return round(statistics.median([n - c for n, c in zip(times["no_cache", side],
                                                          times["cached", side])]) * 1000, 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="checkout of the old code")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--out", default=str(ROOT / "BENCH_cold.json"))
    args = parser.parse_args()

    srcs = dict(zip(SIDES, (Path(args.before).resolve() / "src", ROOT / "src")))
    stale = [str(p) for src in srcs.values() for p in src.rglob("__pycache__")]
    if stale:
        raise SystemExit(f"remove the bytecode caches first: {stale}")

    rows = {}
    with tempfile.TemporaryDirectory(prefix="bench_cold_") as tmp:
        tmp = Path(tmp)
        for name, workload in WORKLOADS.items():
            work = tmp / name
            ws = {**measure.prepare(workload, args.seed, work), "work": work}
            cold = workload["cold_cache"]
            measure.generate(ws, cold, work)
            kinds = {
                "cli": ["-m", "schemreview.cli", "--schematic", str(ws["schematic"]),
                        "--config", str(ws["config"])],
                "setup": ["-c", measure.SETUP_SNIPPET, str(ws["config"])],
            }
            reports = {side: report_of(run_child(kinds["cli"], child_env(src, None), ws, cold)[2])
                       for side, src in srcs.items()}
            if reports["before"] != reports["after"]:
                raise SystemExit(f"{name}: the two checkouts' run reports differ")
            rows[name] = {"pages_analyzed": reports["after"]["pages_analyzed"]}
            envs = {(mode, side): child_env(src, tmp / f"pyc-{side}" if mode == "cached" else None)
                    for mode in MODES for side, src in srcs.items()}
            for side in SIDES:  # fills the cached runs' prefixes; unmeasured
                run_child(kinds["cli"], envs["cached", side], ws, cold)
            for kind, argv in kinds.items():
                wall, cpu, inner = ({key: [] for key in envs} for _ in range(3))
                for i in range(args.pairs):
                    step = 1 if i % 2 == 0 else -1
                    for mode in MODES[::step]:
                        for side in SIDES[::step]:
                            seconds, cpu_s, stdout = run_child(argv, envs[mode, side], ws, cold)
                            wall[mode, side].append(seconds)
                            cpu[mode, side].append(cpu_s)
                            if kind == "setup":
                                inner[mode, side].append(float(stdout.split()[-1]))
                for label, times in ((kind, wall), (f"{kind}.cpu", cpu), ("setup_s", inner)):
                    if times["cached", "after"]:
                        rows[name][label] = {**{mode: summary(times[mode, "before"],
                                                              times[mode, "after"])
                                                for mode in MODES},
                                             "bytecode_saves_ms": {side: saved_ms(times, side)
                                                                   for side in SIDES}}
                        print(name, label, json.dumps(rows[name][label]), flush=True)

    report = {
        "what": "fresh-process cost of one invocation: `python -m schemreview.cli` "
                "and the benchmark's setup snippet, wall time from spawn to exit and "
                "(.cpu) the child's user plus system time; setup_s is the snippet's "
                "own printed time. This checkout (after) against --before, with and "
                "without a bytecode cache; bytecode_saves_ms is a checkout's median "
                "per-pair no-cache minus cached time",
        "command": f"python scripts/bench_cold.py --before OLD --pairs {args.pairs} "
                   f"--seed {args.seed}",
        "statistic": f"median and quartiles of {args.pairs} alternated pairs, milliseconds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "workloads": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

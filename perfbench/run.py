"""The schemreview benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Runs from the root of a source checkout and measures the ``schemreview``
package under ``src/`` in-process against the mock backend. Each workload
runs in its own subprocess (``measure.py``); ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. ``--workload all``
runs every workload both ways and prints every metric.

Prints each metric by name with its unit and the output-check result;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exits non-zero,
without that line, when the package is missing or a workload crashes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
CHILD_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh subprocess; returns its result object."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work)]
    if trace:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        cmd += ["--spans-out", str(ROOT / ".bench_out" / f"spans-{name}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {done.returncode}")
    return json.loads(lines[-1])


def report(name: str, result: dict) -> None:
    details = result["details"]
    latency = details["review_s"]
    tail = f"p{SPEC['tail_percentile']}"
    print(f"== {name} (seed {details['seed']}): "
          f"{'checks passed' if result['correct'] else 'CHECKS FAILED'}, "
          f"{result['attempted']} invocation(s), {result['failed']} failed")
    print(f"   review_s over {latency['samples']} untraced samples: p50 "
          f"{latency['p50']:.4f} s, {tail} {latency[tail]:.4f} s with "
          f"{latency[f'beyond_{tail}']} samples beyond it"
          + (f"; traced p50 {latency['traced_p50']:.4f} s" if "traced_p50" in latency
             else ""))
    if details["setup_samples"]:
        raw = details["raw"]
        print(f"   setup_s over {len(details['setup_samples'])} fresh interpreters; "
              f"unadjusted for host speed: review_s p50 {raw['review_s.p50']:.4f} s, "
              f"setup_s {raw['setup_s']:.4f} s")
    print(f"   fixture generation took {details['prep_s']:.2f} s (not measured)")
    for failure in details["failures"]:
        print(f"   {failure}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:38s} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schemreview" / "__init__.py").is_file():
        print(f"error: no schemreview package under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in SPEC["workloads"] for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    try:
        for name, trace in runs:
            result = run_workload(name, args.seed, args.seconds, trace)
            report(f"{name} {'per-layer' if trace else 'end-to-end'}", result)
            results.append((name, result))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0][1]["metrics"]
    else:
        metrics = {f"{name}:{metric}": entry for name, result in results
                   for metric, entry in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

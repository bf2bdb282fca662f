"""The repo benchmark: resumable large-n runs, cold local sweeps, fabric sweeps.

Each workload runs as a closed loop: one iteration at a time starts the
real ``repro`` CLI processes (at most two worker processes, never more
than the host has cores), waits for all of them, checks their outputs,
and starts the next iteration until ``--seconds`` have passed (at least
two iterations).  Timing is taken from outside, from each process's start.

* ``resumable-sim`` -- ``repro simulate --k 8 --snapshots DIR --observe
  jsonl:PATH`` on the agent backend (n=1e7), then on the count backend
  (n=1e6, the proxy-path ceiling).  Stresses engine, observe and
  snapshot; import is paid twice per iteration; bypasses runner, markov
  and fabric.
* ``sweep-local`` -- ``repro sweep E13 --grid seed=... --backends count
  --jobs 2 --cache DIR`` from a cold cache, then the identical command
  served from the cache.  Stresses import (paid by the parent and each
  spawned child), pool spawn, markov and cache I/O; bypasses snapshots
  and the fabric, and its engine share is small.
* ``sweep-fabric`` -- the same grid through ``repro serve --port 0
  --cache --checkpoint``, two ``repro worker``s and ``repro sweep
  --remote``, then resubmitted and served by the coordinator's cache.
  Stresses leasing, the wire, coordinator checkpoints and mid-task
  snapshot posts; a control for import and markov changes.

End-to-end metrics (``--trace 0``, medians over the iterations):
``setup_s`` (first process start to the first simulated interaction or
task), ``wall_s`` (first process start until every process of the
iteration has exited, its records on disk), ``throughput_per_s``
(interactions per second after set-up on ``resumable-sim``; tasks per
second of the cold pass on the sweeps) and ``peak_rss_mb`` (largest peak
RSS of any process).  The table also shows ``agent_interactions_per_s``,
``count_interactions_per_s``, ``tasks_per_s``, ``cached_wall_s`` and
``failed_ratio`` where they apply.

``--trace 1`` alternates untraced and traced iterations.  Traced ones put
``perfbench/trace_hook`` on ``PYTHONPATH``, whose start-up hook wraps the
public functions of every layer in every process; the run reports the
per-layer metrics of ``layers.LAYER_METRICS``, fresh-interpreter import
times, ``trace.coverage`` and ``trace.overhead_ratio``.

Every workload checks its outputs (see ``workloads.py``); a failed check
counts against ``failed`` and makes the exit code 1.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Usage::

    python3 perfbench/run.py --workload resumable-sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The benchmark writes only inside the checkout: byte-code under ``src/``
and scratch files under ``.perfbench_work/``, a fresh directory per
iteration.  It never writes ``BENCH_engine.json``, whose thresholds steer
``backend="auto"``; every workload pins its backend instead.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import LAYER_METRICS, import_probe, layer_metrics, load_traces
from procs import ROOT, SRC, child_env, now
from workloads import WORKLOADS

WORK = ROOT / ".perfbench_work"

#: (name, unit, better) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Further end-to-end figures shown where a workload has them.
DETAIL = [
    ("agent_interactions_per_s", "1/s"),
    ("count_interactions_per_s", "1/s"),
    ("tasks_per_s", "1/s"),
    ("cached_wall_s", "s"),
]

MIN_ITERATIONS = 2


def spread(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)`` of ``values``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':<32} {'unit':>6} {'n':>3} {'median':>14} {'spread':>8}")
    for name, unit, values in rows:
        median, q1, q3 = spread(values)
        relative = (q3 - q1) / median if median else 0.0
        print(f"  {name:<32} {unit:>6} {len(values):>3} {median:>14.6g} {relative:>8.2%}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, provenance) -> dict:
    """Run one workload for ``seconds``; returns its result object."""
    workload = WORKLOADS[name](seed, provenance)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    iterations, traced_layers = [], []
    try:
        start = now()
        while len(iterations) < MIN_ITERATIONS or now() - start < seconds:
            traced = trace and len(iterations) % 2 == 1
            work = run_dir / f"iteration-{len(iterations)}"
            work.mkdir()
            trace_dir = work / "trace" if traced else None
            if traced:
                trace_dir.mkdir()
            iteration = workload.iteration(work, trace_dir)
            iteration.traced = traced
            if traced:
                layers = layer_metrics(load_traces(trace_dir), iteration.start, iteration.end)
                expected = workload.INTERACTIONS
                if expected is not None:
                    executed = layers["engine.interactions"]
                    iteration.record(1, int(executed != expected),
                                     f"engine executed {executed} interactions, "
                                     f"{expected} asked")
                traced_layers.append(layers)
            iterations.append(iteration)
            shutil.rmtree(work)
            shown = " ".join(f"{k}={v:.6g}" for k, v in sorted(iteration.metrics.items()))
            print(f"  [{name}] iteration {len(iterations)}"
                  f"{' (traced)' if traced else ''}: {shown}", flush=True)
        check_dir = run_dir / "final-check"
        check_dir.mkdir()
        check = workload.final_check(check_dir)
        probe = import_probe(child_env(run_dir)) if trace else {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(it.attempted for it in iterations) + check.attempted
    failed = sum(it.failed for it in iterations) + check.failed
    for message in [m for it in (*iterations, check) for m in it.failures]:
        print(f"FAILED [{name}]: {message}")
    untraced = [it for it in iterations if not it.traced]

    def values(metric):
        return [it.metrics[metric] for it in untraced if metric in it.metrics]

    rows = [(metric, unit, values(metric)) for metric, unit, _ in END_TO_END]
    rows += [(metric, unit, values(metric)) for metric, unit in DETAIL if values(metric)]
    rows.append(("failed_ratio", "-", [failed / max(attempted, 1)]))
    print_table(f"{name}: end to end, {len(untraced)} untraced iteration(s)",
                [row for row in rows if row[2]])
    metrics = {}
    if trace:
        layer_values = {metric: [layers[metric] for layers in traced_layers]
                        for metric, _, _ in LAYER_METRICS if not metric.startswith(
                            ("import.", "trace."))}
        layer_values.update({metric: [value] for metric, value in probe.items()})
        layer_values["trace.coverage"] = [layers["trace.coverage"] for layers in traced_layers]
        walls = [it.metrics["wall_s"] for it in iterations if it.traced and "wall_s" in it.metrics]
        if walls and values("wall_s"):
            layer_values["trace.overhead_ratio"] = [
                statistics.median(walls) / statistics.median(values("wall_s"))]
        rows = [(metric, unit, layer_values.get(metric, []))
                for metric, unit, _ in LAYER_METRICS]
        print_table(f"{name}: per layer, {len(traced_layers)} traced iteration(s)",
                    [row for row in rows if row[2]])
        for metric, unit, samples in rows:
            if samples:
                metrics[metric] = {"value": statistics.median(samples), "unit": unit}
    else:
        for metric, unit, _ in END_TO_END:
            if values(metric):
                metrics[metric] = {"value": statistics.median(values(metric)), "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


_CONTEXT = (
    "import json, os, platform, numpy, scipy\n"
    "from repro.runner.plan import PROVENANCE_FIELDS\n"
    "print(json.dumps({'host': {'nproc': os.cpu_count(),\n"
    "    'python': platform.python_version(), 'numpy': numpy.__version__,\n"
    "    'scipy': scipy.__version__, 'machine': platform.machine()},\n"
    "    'provenance': PROVENANCE_FIELDS}))\n"
)


def program_context() -> dict:
    """Host data and the program's record provenance fields.

    Read in a helper process: the driver itself never imports ``repro``,
    NumPy or SciPy.  Linux carries a parent's RSS high-water mark into
    each forked child's ``ru_maxrss``, so a large driver would set the
    floor of every ``peak_rss_mb`` it measures.
    """
    completed = subprocess.run([sys.executable, "-c", _CONTEXT], env=child_env(WORK),
                               capture_output=True, text=True, timeout=120, check=True)
    return json.loads(completed.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload (at least two iterations)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once up front so no measured process pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
                   check=True, stdout=subprocess.DEVNULL)
    WORK.mkdir(exist_ok=True)
    context = program_context()
    print("host: " + json.dumps(context["host"], sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  tuple(context["provenance"]))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

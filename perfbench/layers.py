"""Per-layer metrics of a traced iteration, and the import probe.

The spans come from ``trace_hook/perfbench_trace.py``, one JSON file per
traced process.  Times are summed over every process of the iteration, so
on the two-process sweeps a layer's seconds can exceed the wall time.
``*_s`` metrics are inclusive of the layer's traced children unless named
``self``; a layer's self time is its spans minus their direct children.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("import.engine_s", "s", "lower"),
    ("import.runner_s", "s", "lower"),
    ("import.fabric_s", "s", "lower"),
    ("import.scipy_in_engine", "flag", "lower"),
    ("sim.construct_s", "s", "lower"),
    ("core.run_until_s", "s", "lower"),
    ("engine.run_calls", "count", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.run_self_s", "s", "lower"),
    ("engine.interactions", "count", "higher"),
    ("engine.apply_chunk_s", "s", "lower"),
    ("engine.apply_chunk_calls", "count", "lower"),
    ("engine.pair_block_s", "s", "lower"),
    ("engine.pair_block_calls", "count", "lower"),
    ("engine.begin_run_s", "s", "lower"),
    ("engine.sync_counts_s", "s", "lower"),
    ("observe.emit_s", "s", "lower"),
    ("observe.emit_calls", "count", "lower"),
    ("observe.flush_s", "s", "lower"),
    ("observe.bytes", "bytes", "lower"),
    ("snapshot.capture_s", "s", "lower"),
    ("snapshot.capture_calls", "count", "lower"),
    ("snapshot.encode_s", "s", "lower"),
    ("snapshot.save_s", "s", "lower"),
    ("snapshot.bytes", "bytes", "lower"),
    ("markov.mixing_curve_s", "s", "lower"),
    ("markov.mixing_curve_calls", "count", "lower"),
    ("markov.cutoff_profile_s", "s", "lower"),
    ("markov.exact_chain_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("runner.code_version_s", "s", "lower"),
    ("runner.plan_s", "s", "lower"),
    ("runner.pool_first_outcome_s", "s", "lower"),
    ("runner.task_s_p50", "s", "lower"),
    ("runner.task_count", "count", "higher"),
    ("runner.pool_idle_s", "s", "lower"),
    ("runner.cache_get_s", "s", "lower"),
    ("runner.cache_hits", "count", "higher"),
    ("runner.cache_misses", "count", "lower"),
    ("runner.cache_put_s", "s", "lower"),
    ("runner.cache_put_bytes", "bytes", "lower"),
    ("fabric.http_calls", "count", "lower"),
    ("fabric.http_s", "s", "lower"),
    ("fabric.http_retries", "count", "lower"),
    ("fabric.wire_bytes", "bytes", "lower"),
    ("fabric.coord.lease_s", "s", "lower"),
    ("fabric.coord.submit_result_s", "s", "lower"),
    ("fabric.coord.store_snapshot_s", "s", "lower"),
    ("fabric.coord.collect_s", "s", "lower"),
    ("fabric.snapshot_posts", "count", "lower"),
    ("fabric.empty_polls", "count", "lower"),
    ("fabric.queue_wait_s_p50", "s", "lower"),
    ("fabric.requeues", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

#: metric -> span name whose summed duration it reports.
_TOTALS = {
    "sim.construct_s": "sim.construct",
    "core.run_until_s": "core.run_until",
    "engine.run_s": "engine.run",
    "engine.apply_chunk_s": "engine.apply_chunk",
    "engine.pair_block_s": "engine.pair_block",
    "engine.begin_run_s": "engine.begin_run",
    "engine.sync_counts_s": "engine.sync_counts",
    "observe.emit_s": "observe.emit",
    "observe.flush_s": "observe.flush",
    "snapshot.capture_s": "snapshot.capture",
    "snapshot.encode_s": "snapshot.encode",
    "snapshot.save_s": "snapshot.save",
    "markov.mixing_curve_s": "markov.mixing_curve",
    "markov.cutoff_profile_s": "markov.cutoff_profile",
    "markov.exact_chain_s": "markov.exact_chain",
    "runner.code_version_s": "runner.code_version",
    "runner.plan_s": "runner.plan",
    "runner.pool_first_outcome_s": "runner.pool_first",
    "runner.cache_get_s": "runner.cache_get",
    "runner.cache_put_s": "runner.cache_put",
    "fabric.http_s": "fabric.http",
    "fabric.coord.lease_s": "fabric.coord.lease",
    "fabric.coord.submit_result_s": "fabric.coord.submit_result",
    "fabric.coord.store_snapshot_s": "fabric.coord.store_snapshot",
    "fabric.coord.collect_s": "fabric.coord.collect",
}

#: metric -> span name whose call count it reports.
_CALLS = {
    "engine.run_calls": "engine.run",
    "engine.apply_chunk_calls": "engine.apply_chunk",
    "engine.pair_block_calls": "engine.pair_block",
    "observe.emit_calls": "observe.emit",
    "snapshot.capture_calls": "snapshot.capture",
    "markov.mixing_curve_calls": "markov.mixing_curve",
    "runner.task_count": "runner.task",
    "fabric.http_calls": "fabric.http",
    "fabric.snapshot_posts": "fabric.coord.store_snapshot",
}

#: Counters recorded from call outcomes, reported under their own names.
_COUNTERS = (
    "engine.interactions",
    "observe.bytes",
    "snapshot.bytes",
    "runner.cache_hits",
    "runner.cache_misses",
    "runner.cache_put_bytes",
    "fabric.wire_bytes",
    "fabric.empty_polls",
    "fabric.requeues",
)


def load_traces(trace_dir: Path) -> list[dict]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(trace_dir.glob("*.json"))
    ]


def _union_length(intervals, start: float, end: float) -> float:
    covered, reach = 0.0, start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


def layer_metrics(processes: list[dict], start: float, end: float) -> dict:
    """Per-layer metrics of one traced iteration over ``[start, end]``."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    counters: dict[str, float] = {}
    samples: dict[str, list] = {}
    task_spans, pool_windows, intervals = [], [], []
    retries = 0
    for process in processes:
        spans = process["spans"]
        # A span still open when its process exited has no end: left out.
        closed = [(index, span) for index, span in enumerate(spans) if span[2] is not None]
        children = [0.0] * len(spans)
        http_children = [0] * len(spans)
        for _, (name, low, high, parent, _) in closed:
            if parent >= 0:
                children[parent] += high - low
                if name == "fabric.http":
                    http_children[parent] += 1
        for index, (name, low, high, _, _) in closed:
            totals[name] = totals.get(name, 0.0) + high - low
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + high - low - children[index]
            intervals.append((low, high))
            if name == "runner.task":
                task_spans.append((low, high))
            elif name == "runner.pool":
                pool_windows.append((low, high))
            elif name == "fabric.call":
                retries += max(0, http_children[index] - 1)
        for name, value in process["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, values in process["samples"].items():
            samples.setdefault(name, []).extend(values)

    metrics = {name: totals.get(span, 0.0) for name, span in _TOTALS.items()}
    metrics.update({name: calls.get(span, 0) for name, span in _CALLS.items()})
    metrics.update({name: counters.get(name, 0) for name in _COUNTERS})
    metrics["engine.run_self_s"] = self_time.get("engine.run", 0.0)
    metrics["experiments.self_s"] = self_time.get("experiments.run", 0.0)
    durations = [high - low for low, high in task_spans]
    metrics["runner.task_s_p50"] = statistics.median(durations) if durations else 0.0
    pooled = sum(
        high - low
        for low, high in task_spans
        if any(w_low <= low and high <= w_high for w_low, w_high in pool_windows)
    )
    capacity = counters.get("runner.pool_capacity_s", 0.0)
    metrics["runner.pool_idle_s"] = max(0.0, capacity - pooled)
    waits = samples.get("fabric.queue_wait_s", [])
    metrics["fabric.queue_wait_s_p50"] = statistics.median(waits) if waits else 0.0
    metrics["fabric.http_retries"] = retries
    metrics["trace.coverage"] = _union_length(intervals, start, end) / (end - start)
    return metrics


_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import {module}\n"
    "print(time.perf_counter() - start, int('scipy' in sys.modules))\n"
)


def import_probe(env: dict) -> dict:
    """Fresh-interpreter import times of the three entry packages."""
    metrics = {}
    for module in ("engine", "runner", "fabric"):
        completed = subprocess.run(
            [sys.executable, "-c", _PROBE.format(module=f"repro.{module}")],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, scipy_loaded = completed.stdout.split()
        metrics[f"import.{module}_s"] = float(seconds)
        if module == "engine":
            metrics["import.scipy_in_engine"] = int(scipy_loaded)
    return metrics

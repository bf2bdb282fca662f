"""In-process span recorder of the traced benchmark run.

:func:`install` puts an import hook in front of ``sys.meta_path``.  When a
module named in :data:`TARGETS` finishes executing, the hook replaces each
listed public function or method with a wrapper that records a span, so
later ``from module import name`` bindings receive the wrapper too.  Every
``repro`` module's execution is itself recorded as an ``import`` span.

A span is ``[name, start, end, parent, thread]``: ``start``/``end`` are
``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux, so spans of
different processes share one time axis) and ``parent`` is the index of
the enclosing span of the same thread, or -1.  A call made while a span of
the same name is already open on the thread (``super().run()``, a facade
method delegating to a backend method of the same layer) records nothing,
so a layer's time is never counted twice.  Spans, counters and samples stay
in memory and are written to ``<directory>/<pid>.json`` at interpreter
exit, where a span still open in another thread keeps ``end`` null;
``perfbench/run.py`` merges the files of one iteration.

Nothing under ``src/`` is modified: the wrappers live only in the traced
processes' memory.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import json
import os
import sys
import threading
import time

_now = time.perf_counter


class Recorder:
    """Spans, counters and samples of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.marks: dict[str, float] = {}
        self.seen: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], set())
        return state

    def open(self, name: str) -> int | None:
        """Open a span; ``None`` when one of this name is already open."""
        stack, active = self._thread_state()
        if name in active:
            return None
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, _now(), None, parent, threading.get_ident()])
        stack.append(index)
        active.add(name)
        return index

    def close(self, index: int) -> None:
        stack, active = self._thread_state()
        span = self.spans[index]
        span[2] = _now()
        stack.pop()
        active.discard(span[0])

    def interval(self, name: str, start: float, end: float) -> None:
        """A closed span measured outside the call stack (generators)."""
        stack, _ = self._thread_state()
        with self._lock:
            self.spans.append(
                [name, start, end, stack[-1] if stack else -1, threading.get_ident()]
            )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def dump(self, directory: str) -> None:
        with self._lock:  # server threads may still be recording
            document = {
                "pid": os.getpid(),
                "argv": sys.argv,
                "spans": [list(span) for span in self.spans],
                "counters": dict(self.counters),
                "samples": {name: list(values) for name, values in self.samples.items()},
            }
        path = os.path.join(directory, f"{os.getpid()}.json")
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(temp, path)


class Target:
    """One public callable to wrap: ``path`` inside its module.

    ``span`` names the recorded span (``None``: count only).  ``before``
    reads state from the call's arguments; ``after(recorder, args,
    result, state)`` records counters or samples from the outcome.
    ``generator`` marks a generator function: its span runs from the
    first ``next()`` to exhaustion and ``<span>_first`` to the first item.
    """

    def __init__(self, path, span=None, before=None, after=None, generator=False):
        self.path = path
        self.span = span
        self.before = before
        self.after = after
        self.generator = generator

    def apply(self, module, recorder: Recorder) -> None:
        owner = module
        *outer, name = self.path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        wrap = _wrap_generator if self.generator else _wrap
        setattr(owner, name, wrap(original, self, recorder))


def _wrap(function, target: Target, recorder: Recorder):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = None
        if target.span is not None:
            index = recorder.open(target.span)
            if index is None:
                return function(*args, **kwargs)
        state = target.before(args) if target.before is not None else None
        try:
            result = function(*args, **kwargs)
        finally:
            if index is not None:
                recorder.close(index)
        if target.after is not None:
            target.after(recorder, args, result, state)
        return result

    return traced


def _wrap_generator(function, target: Target, recorder: Recorder):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        start = _now()
        first = None
        try:
            for item in function(*args, **kwargs):
                if first is None:
                    first = _now()
                    recorder.interval(target.span + "_first", start, first)
                yield item
        finally:
            end = _now()
            recorder.interval(target.span, start, end)
            if target.after is not None:
                target.after(recorder, args, end - start, None)

    return traced


# ----------------------------------------------------------------------
# Counters and samples taken from call outcomes
# ----------------------------------------------------------------------
def _steps_before(args):
    return args[0].steps_run


def _interactions(recorder, args, result, before):
    recorder.count("engine.interactions", int(result.steps) - int(before))


def _size_counter(name):
    def after(recorder, args, result, state):
        recorder.count(name, len(result))

    return after


def _cache_lookup(recorder, args, result, state):
    recorder.count("runner.cache_misses" if result is None else "runner.cache_hits")


def _cache_put_bytes(recorder, args, result, state):
    cache, key = args[0], args[1]
    recorder.count("runner.cache_put_bytes", os.path.getsize(cache._path(key)))


def _pool_capacity(recorder, args, lifetime, state):
    """Worker-seconds the pool offered: its lifetime times its width."""
    pool, tasks = args[0], args[1]
    width = min(pool.jobs, len(tasks)) if pool.jobs > 1 and len(tasks) > 1 else 1
    recorder.count("runner.pool_capacity_s", lifetime * width)


def _submitted(recorder, args, result, state):
    now = _now()
    for key, cached in zip(result["keys"], result["cached"]):
        if not cached:
            recorder.marks.setdefault(key, now)


def _leased(recorder, args, result, state):
    lease = result.get("lease")
    if lease is None:
        recorder.count("fabric.empty_polls")
        return
    key = lease["key"]
    if key in recorder.seen:
        recorder.count("fabric.requeues")
    recorder.seen.add(key)
    if key in recorder.marks:
        recorder.sample("fabric.queue_wait_s", _now() - recorder.marks[key])


#: module -> the public callables wrapped in it.
TARGETS = {
    "repro.core.population_igt": [
        Target("IGTSimulation.__init__", "sim.construct"),
        Target("IGTSimulation.run", "core.run_until"),
        Target("IGTSimulation.run_until", "core.run_until"),
        Target("IGTSimulation.snapshot", "snapshot.capture"),
    ],
    "repro.engine.agent": [
        Target("AgentBackend.run", "engine.run", _steps_before, _interactions),
        Target("AgentBackend.snapshot", "snapshot.capture"),
    ],
    "repro.engine.count": [
        Target("CountBackend.run", "engine.run", _steps_before, _interactions),
        Target("CountBackend.snapshot", "snapshot.capture"),
    ],
    "repro.engine.weighted": [
        Target(
            "WeightedCountBackend.run", "engine.run", _steps_before, _interactions
        ),
        Target("WeightedCountBackend.snapshot", "snapshot.capture"),
    ],
    "repro.engine.vectorized": [
        Target("ConflictFreeKernel.apply_chunk", "engine.apply_chunk"),
        Target("ConflictFreeKernel.begin_run", "engine.begin_run"),
        Target("ConflictFreeKernel.sync_counts", "engine.sync_counts"),
    ],
    "repro.engine.sampling": [
        Target("UniformPairSampler.pair_block", "engine.pair_block"),
        Target("ordered_pair_block", "engine.pair_block"),
    ],
    "repro.engine.observe": [
        Target("JsonlSink.emit", "observe.emit"),
        Target("JsonlSink.flush", "observe.flush"),
        Target("encode_record", after=_size_counter("observe.bytes")),
    ],
    "repro.engine.snapshot": [
        Target(
            "SnapshotState.to_bytes",
            "snapshot.encode",
            after=_size_counter("snapshot.bytes"),
        ),
        Target("SnapshotState.to_wire", "snapshot.encode"),
        Target("SnapshotStore.save", "snapshot.save"),
    ],
    "repro.markov.mixing": [
        Target("distance_to_stationarity_curve", "markov.mixing_curve"),
    ],
    "repro.markov.cutoff": [Target("cutoff_profile", "markov.cutoff_profile")],
    "repro.markov.ehrenfest": [
        Target("EhrenfestProcess.exact_chain", "markov.exact_chain"),
    ],
    "repro.experiments.base": [Target("run_experiment", "experiments.run")],
    "repro.runner.cache": [
        Target("code_version", "runner.code_version"),
        Target("ResultCache.get", "runner.cache_get", after=_cache_lookup),
        Target("ResultCache.put", "runner.cache_put", after=_cache_put_bytes),
    ],
    "repro.runner.plan": [Target("grid_plan", "runner.plan")],
    "repro.runner.executor": [
        Target("execute", "runner.execute"),
        Target("LocalPool.run_iter", "runner.pool", after=_pool_capacity,
               generator=True),
        Target("run_task", "runner.task"),
    ],
    "repro.fabric.protocol": [
        Target("http_call", "fabric.http"),
        Target("call_with_retries", "fabric.call"),
        Target("encode", after=_size_counter("fabric.wire_bytes")),
    ],
    "repro.fabric.coordinator": [
        Target("Coordinator.submit", "fabric.coord.submit", after=_submitted),
        Target("Coordinator.lease", "fabric.coord.lease", after=_leased),
        Target("Coordinator.submit_result", "fabric.coord.submit_result"),
        Target("Coordinator.store_snapshot", "fabric.coord.store_snapshot"),
        Target("Coordinator.collect", "fabric.coord.collect"),
    ],
}


class _Finder(importlib.abc.MetaPathFinder):
    """Times every ``repro`` module's execution and patches its targets."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        for finder in sys.meta_path:
            find_spec = getattr(finder, "find_spec", None)
            if finder is self or find_spec is None:
                continue
            spec = find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        exec_module = loader.exec_module
        targets = TARGETS.get(fullname, ())
        recorder = self.recorder

        def traced_exec(module):
            index = recorder.open("import")
            try:
                exec_module(module)
            finally:
                if index is not None:
                    recorder.close(index)
            for wrapped in targets:
                wrapped.apply(module, recorder)

        loader.exec_module = traced_exec
        return spec


def install(directory: str) -> Recorder:
    """Record this process's spans; write them to ``directory`` at exit."""
    recorder = Recorder()
    sys.meta_path.insert(0, _Finder(recorder))
    atexit.register(recorder.dump, directory)
    return recorder

"""The three benchmark workloads, each one closed-loop iteration at a time.

An iteration starts real ``repro`` CLI processes in a fresh directory,
times them from the outside, checks their outputs and returns its metrics.
No iteration runs more worker processes than :data:`WORKERS`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from procs import Process, ProcessFailed, child_env, now, reap_all, repro_argv, watch

#: Fault-injection variable of ``repro.testing.faults`` and the exit code
#: of an injected crash.
FAULTS_ENV = "REPRO_FAULTS"
CRASH_EXIT_CODE = 86

#: Pool jobs and fabric workers per sweep: two, or fewer on a smaller host.
WORKERS = min(2, os.cpu_count() or 1)

#: Longest wait for a start-up line or a first record (seconds).
START_TIMEOUT = 120.0


@dataclass
class Iteration:
    """Outcome of one iteration: metrics by name, checked operations."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    traced: bool = False

    def record(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(message)


def read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def canonical(records: list[dict], provenance) -> list[str]:
    """Records as the byte strings the identity checks compare.

    ``provenance`` is the program's ``repro.runner.plan.PROVENANCE_FIELDS``;
    dropping them is what its ``strip_provenance`` does.
    """
    return [
        json.dumps({key: value for key, value in record.items() if key not in provenance},
                   sort_keys=True, allow_nan=False)
        for record in records
    ]


class ResumableSim:
    """Two checkpointed, streamed ``repro simulate`` runs, one after the other."""

    name = "resumable-sim"
    #: backend -> (n, steps, observe_every).  n=1e6 is the count backend's
    #: proxy-path ceiling (``PROXY_MAX_N``).
    RUNS = {
        "agent": (10_000_000, 1_000_000, 100_000),
        "count": (1_000_000, 400_000, 10_000),
    }
    #: Interactions the engine must execute per iteration (traced runs).
    INTERACTIONS = sum(steps for _, steps, _ in RUNS.values())
    K = 8

    def __init__(self, seed: int, provenance):
        self.seed = seed
        self.first_streams: dict[str, bytes] | None = None

    def _argv(self, backend: str, stream: Path, snapshots: Path | None) -> list[str]:
        n, steps, every = self.RUNS[backend]
        argv = repro_argv(
            "simulate", "--k", self.K, "--backend", backend, "--n", n,
            "--steps", steps, "--observe-every", every, "--seed", self.seed,
            "--observe", f"jsonl:{stream}",
        )
        if snapshots is not None:
            argv += ["--snapshots", str(snapshots)]
        return argv

    def iteration(self, work: Path, trace_dir: Path | None) -> Iteration:
        result = Iteration(start=now())
        env = child_env(work, trace_dir)
        runs = {}
        for backend, (n, steps, every) in self.RUNS.items():
            stream, snapshots = work / f"{backend}.jsonl", work / f"snapshots-{backend}"
            # ``work`` is new, so no stale snapshot can resume and skip
            # interactions.  Were one there, the fresh stream could not
            # resume (exit 2) or would lack its early records: both fail.
            process = Process(self._argv(backend, stream, snapshots),
                              work / f"{backend}.log", env)
            try:
                header, _ = watch([process.log], "k-IGT:", [process], START_TIMEOUT)
            except ProcessFailed:
                header = None
            process.wait()
            data = stream.read_bytes() if stream.exists() else b""
            records = [json.loads(line) for line in data.splitlines()]
            ok = (
                process.code == 0 and header is not None
                and [record["step"] for record in records] == list(range(0, steps + 1, every))
                and all(sum(record["counts"]) == n for record in records)
                and not any(snapshots.glob("*"))
            )
            result.record(1, 0 if ok else 1,
                          f"{backend}: exit {process.code}, {len(records)} stream records, "
                          f"snapshots left={sorted(snapshots.glob('*'))}\n"
                          + process.output()[-2000:])
            if ok:
                runs[backend] = (process, header, data)
        result.end = now()
        if len(runs) < len(self.RUNS):
            return result
        busy = {backend: process.end - header for backend, (process, header, _) in runs.items()}
        agent, agent_header, _ = runs["agent"]
        result.metrics.update(
            setup_s=agent_header - agent.start,
            wall_s=result.end - result.start,
            throughput_per_s=self.INTERACTIONS / sum(busy.values()),
            agent_interactions_per_s=self.RUNS["agent"][1] / busy["agent"],
            count_interactions_per_s=self.RUNS["count"][1] / busy["count"],
            peak_rss_mb=max(process.rss_mb for process, _, _ in runs.values()),
        )
        if self.first_streams is None:
            self.first_streams = {backend: data for backend, (_, _, data) in runs.items()}
        return result

    def final_check(self, work: Path) -> Iteration:
        """A run killed after its first snapshot and resumed streams the
        same bytes as the uninterrupted ``--snapshots`` run of the seed."""
        result = Iteration(start=now())
        for backend in self.RUNS:
            expected = (self.first_streams or {}).get(backend)
            stream, snapshots = work / f"resumed-{backend}.jsonl", work / f"snapshots-{backend}"
            argv = self._argv(backend, stream, snapshots)
            crashed = Process(argv, work / f"crashed-{backend}.log",
                              {**child_env(work), FAULTS_ENV: "snapshot.post-save:1"})
            crashed.wait()
            resumed = Process(argv, work / f"resumed-{backend}.log", child_env(work))
            resumed.wait()
            same = expected is not None and stream.exists() and stream.read_bytes() == expected
            ok = (crashed.code == CRASH_EXIT_CODE and resumed.code == 0 and same
                  and not any(snapshots.glob("*")))
            result.record(1, 0 if ok else 1,
                          f"{backend}: crash exit {crashed.code}, resume exit "
                          f"{resumed.code}, stream equal to the uninterrupted "
                          f"run's: {same}\n" + resumed.output()[-2000:])
        result.end = now()
        return result


class SweepLocal:
    """A cold ``repro sweep E13 --jobs 2`` and its identical cached rerun.

    Both sweeps run the same grid of :attr:`TASKS` task seeds derived from
    the benchmark seed, pinned to the count backend.
    """

    name = "sweep-local"
    TASKS = 12
    INTERACTIONS = None

    def __init__(self, seed: int, provenance):
        first = seed * 1000
        self.grid = f"seed={first}:{first + self.TASKS - 1}:{self.TASKS}"
        self.provenance = provenance
        #: Canonical cold records of the first iteration; later passes
        #: must reproduce them byte for byte.
        self.reference: list[str] | None = None

    def sweep_argv(self, output: Path, *extra) -> list[str]:
        return repro_argv("sweep", "E13", "--grid", self.grid, "--backends", "count",
                          "--output", output, *extra)

    def local_pass(self, work: Path, env: dict, tag: str) -> tuple[Process, Path, float | None]:
        """One local pass; returns (process, output, first task start)."""
        output = work / f"{tag}.jsonl"
        process = Process(self.sweep_argv(output, "--jobs", WORKERS, "--cache", work / "cache"),
                          work / f"{tag}.log", env)
        try:
            landed, line = watch([output], '"report"', [process], START_TIMEOUT)
            first_task = landed - json.loads(line)["seconds"]
        except ProcessFailed:
            first_task = None
        process.wait()
        return process, output, first_task

    def grade(self, result: Iteration, label: str, process: Process, output: Path,
              reference: list[str] | None, cached: bool = False) -> list[str]:
        """One operation per task; a pass that exits non-zero fails them all."""
        records = read_records(output)
        canon = canonical(records, self.provenance)
        if process.code != 0 or len(records) != self.TASKS:
            result.record(self.TASKS, self.TASKS,
                          f"{label}: exit {process.code}, {len(records)}/{self.TASKS} "
                          f"records\n" + process.output()[-2000:])
            return canon
        bad = [
            index for index, record in enumerate(records)
            if not all(record["report"]["checks"].values())
            or (reference is not None and canon[index] != reference[index])
            or (cached and record["source"] != "cache")
        ]
        result.record(self.TASKS, len(bad),
                      f"{label}: tasks {bad} failed a check, differ from the "
                      f"reference records or were not served from cache")
        return canon

    def keep_reference(self, result: Iteration, canon: list[str]) -> None:
        if self.reference is None and result.failed == 0:
            self.reference = canon

    def iteration(self, work: Path, trace_dir: Path | None) -> Iteration:
        result = Iteration(start=now())
        env = child_env(work, trace_dir)
        cold, cold_out, first_task = self.local_pass(work, env, "cold")
        warm, warm_out, _ = self.local_pass(work, env, "warm")
        result.end = now()
        canon = self.grade(result, "cold", cold, cold_out, self.reference)
        self.grade(result, "warm", warm, warm_out, canon, cached=True)
        self.keep_reference(result, canon)
        if result.failed == 0 and first_task is not None:
            result.metrics.update(
                setup_s=first_task - cold.start,
                wall_s=result.end - result.start,
                throughput_per_s=self.TASKS / (cold.end - cold.start),
                tasks_per_s=self.TASKS / (cold.end - cold.start),
                cached_wall_s=warm.end - warm.start,
                peak_rss_mb=max(cold.rss_mb, warm.rss_mb),
            )
        return result

    def final_check(self, work: Path) -> Iteration:
        """Checks run once after the timed loop (none for this workload)."""
        return Iteration(start=now(), end=now())


class SweepFabric(SweepLocal):
    """The same grid through ``repro serve`` and two ``repro worker``s."""

    name = "sweep-fabric"

    def iteration(self, work: Path, trace_dir: Path | None) -> Iteration:
        result = Iteration(start=now())
        env = child_env(work, trace_dir)
        cold_out, warm_out = work / "cold.jsonl", work / "warm.jsonl"
        processes = []
        try:
            coordinator = Process(
                repro_argv("serve", "--cache", work / "shared-cache",
                           "--checkpoint", work / "checkpoint.json", "--port", 0),
                work / "coordinator.log", env)
            processes.append(coordinator)
            _, line = watch([coordinator.log], "listening on ", processes, START_TIMEOUT)
            url = line.rsplit(" ", 1)[-1]
            workers = [
                Process(repro_argv("worker", "--remote", url, "--id", f"w{index}"),
                        work / f"worker{index}.log", env)
                for index in range(WORKERS)
            ]
            processes += workers
            cold = Process(self.sweep_argv(cold_out, "--remote", url), work / "cold.log", env)
            processes.append(cold)
            first_lease, _ = watch([w.log for w in workers], "] leased ", processes,
                                   START_TIMEOUT)
            cold.wait()
            warm = Process(self.sweep_argv(warm_out, "--remote", url, "--shutdown"),
                           work / "warm.log", env)
            processes.append(warm)
            for process in (warm, *workers, coordinator):
                process.wait()
        except ProcessFailed as error:
            result.record(2 * self.TASKS, 2 * self.TASKS, f"fabric did not start: {error}")
            return result
        finally:
            reap_all(processes)
        result.end = now()
        others = [p for p in processes if p not in (cold, warm) and p.code != 0]
        result.record(len(processes) - 2, len(others),
                      "".join(f"{p.log.name}: exit {p.code}\n{p.output()[-1000:]}"
                              for p in others))
        canon = self.grade(result, "cold", cold, cold_out, self.reference)
        self.grade(result, "resubmitted", warm, warm_out, canon, cached=True)
        self.keep_reference(result, canon)
        if result.failed == 0:
            result.metrics.update(
                setup_s=first_lease - coordinator.start,
                wall_s=result.end - result.start,
                throughput_per_s=self.TASKS / (cold.end - coordinator.start),
                tasks_per_s=self.TASKS / (cold.end - coordinator.start),
                cached_wall_s=warm.end - warm.start,
                peak_rss_mb=max(process.rss_mb for process in processes),
            )
        return result

    def final_check(self, work: Path) -> Iteration:
        """The fabric's records equal a local sweep's of the same grid."""
        result = Iteration(start=now())
        local, output, _ = self.local_pass(work, child_env(work), "local")
        result.end = now()
        if self.reference is None:
            result.record(1, 1, "no fabric iteration produced records to compare")
        else:
            self.grade(result, "local reference", local, output, self.reference)
        return result


WORKLOADS = {workload.name: workload for workload in (ResumableSim, SweepLocal, SweepFabric)}

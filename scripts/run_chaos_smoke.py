"""Multi-process chaos smoke: kill things mid-sweep, resume, byte-compare.

The crash-safety contract, exercised end to end with real SIGKILLs:

1. **Baseline** — ``repro sweep`` over a small E4 grid, records to
   JSONL.  E4's relaxation runs several snapshot segments at this
   size, so every task genuinely checkpoints.
2. **Local crash, twice** — the same sweep with ``--cache``/
   ``--resume`` and injected faults
   (:mod:`repro.testing.faults`): first
   ``snapshot.post-save:3:kill`` SIGKILLs the executor mid-task right
   after a checkpoint lands (nothing cached, checkpoints on disk),
   then the rerun resumes that task from its snapshot and dies again
   via ``executor.post-cache:2:kill`` — after exactly two cells were
   persisted to the cache.
3. **Local resume** — the third run must finish, serve both pre-crash
   cells from the cache (zero re-execution), execute the rest, clear
   the snapshot directory, and produce records **byte-identical** to
   the baseline once provenance (``seconds``/``from_cache``/
   ``source``/``worker``) is stripped.
4. **Streamed trajectory kill** — a ``repro simulate`` run streaming
   its trajectory to a JSONL observer sink with ``--snapshots`` is
   SIGKILLed right after a checkpoint lands, leaving a partial stream
   file on disk.  Rerunning the same command resumes from the
   snapshot, truncates the stream back to the checkpointed position,
   and finishes — the resulting JSONL must be **byte-identical** to an
   uninterrupted run's, and the snapshot directory cleared.  This runs
   on ``--backend count`` (the array-proxy path at n = 2e4), on its
   weighted lift (``--weights twoclass``), on the uniform birthday
   driver (n = 2e6, above ``PROXY_MAX_N``), and on ``--backend agent``,
   whose snapshots carry the per-agent state array.
5. **Fabric crash** — a coordinator plus two workers; the victim
   worker carries the same injected fault, posts checkpoints to
   ``/snapshot``, and SIGKILLs itself mid-task.  The replacement
   worker receives the latest checkpoint with the re-leased task and
   continues the trajectory.
6. **Fabric verdicts** — the remote sweep finishes despite the murder
   and its stripped records equal the baseline; the coordinator's
   snapshot store is empty once results land; the survivor and the
   coordinator drain with exit code 0.

Usage::

    python scripts/run_chaos_smoke.py [--keep DIR]

Exits non-zero (with a diagnostic) on the first violated contract.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: 4 tasks, each relaxing for several snapshot segments (n = 2e5 puts
#: the birthday run well past one 8-check segment) — long enough that a
#: mid-task kill leaves a meaningful checkpoint, short enough for CI.
GRID_ARGUMENTS = ["E4", "--grid", "n=2e5", "--grid", "seed=0:3:4"]

#: Record fields that legitimately differ between runs.
PROVENANCE_FIELDS = ("seconds", "from_cache", "source", "worker")

#: Fault specs injected into the processes that must die: SIGKILL self
#: right after the Nth snapshot save (mid-task) or the Nth cache write
#: (between tasks).
MID_TASK_FAULT = "snapshot.post-save:3:kill"
POST_CACHE_FAULT = "executor.post-cache:2:kill"
WORKER_FAULT = "snapshot.post-save:2:kill"
STREAM_FAULT = "snapshot.post-save:2:kill"

#: Engines of the streamed-trajectory scenario, by label: the count
#: chain's array proxy, its weighted lift and its uniform birthday
#: driver (n above ``PROXY_MAX_N``), and the agent backend, whose
#: snapshots carry one state per agent.
STREAM_CASES = {
    "count": ["--backend", "count", "--n", "20000"],
    "count-weighted": ["--backend", "count", "--n", "20000", "--weights", "twoclass"],
    "count-birthday": ["--backend", "count", "--n", "2000000"],
    "agent": ["--backend", "agent", "--n", "20000"],
}


#: The streamed-trajectory scenario: big enough that the run spans
#: several snapshot segments (so the kill lands mid-stream with rows
#: both before and after the last checkpoint), small enough for CI.
def stream_arguments(case: str, stream_path: pathlib.Path,
                     snapshots_dir: pathlib.Path) -> list[str]:
    return ["simulate", *STREAM_CASES[case], "--k", "3",
            "--steps", "240000", "--seed", "11",
            "--observe-every", "5000",
            "--observe", f"jsonl:{stream_path}",
            "--snapshots", str(snapshots_dir)]


def repro(*arguments: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *arguments]


def child_environment(faults: str | None = None) -> dict:
    environment = dict(os.environ)
    source = str(REPO_ROOT / "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        f"{source}{os.pathsep}{existing}" if existing else source
    )
    environment.pop("REPRO_FAULTS", None)
    if faults is not None:
        environment["REPRO_FAULTS"] = faults
    return environment


def read_until(stream, needle: str, deadline: float) -> str:
    """Echo ``stream`` lines until one contains ``needle``; return it."""
    while time.monotonic() < deadline:
        line = stream.readline()
        if not line:
            raise SystemExit(
                f"process stream closed before {needle!r} appeared"
            )
        print(f"    | {line.rstrip()}", flush=True)
        if needle in line:
            return line
    raise SystemExit(f"timed out waiting for {needle!r}")


def load_records(path: pathlib.Path) -> list[dict]:
    return [
        json.loads(line) for line in path.read_text().splitlines() if line
    ]


def stripped(records: list[dict]) -> list[dict]:
    return [
        {
            name: value
            for name, value in record.items()
            if name not in PROVENANCE_FIELDS
        }
        for record in records
    ]


def snapshot_files(root: pathlib.Path) -> list[str]:
    if not root.exists():
        return []
    return sorted(p.name for p in root.iterdir() if p.suffix != ".tmp")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"CHAOS SMOKE FAILED: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep",
        metavar="DIR",
        default=None,
        help="work under DIR and keep it (default: a temp dir, removed)",
    )
    args = parser.parse_args(argv)

    if args.keep is not None:
        work = pathlib.Path(args.keep)
        work.mkdir(parents=True, exist_ok=True)
    else:
        work = pathlib.Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    children: list[subprocess.Popen] = []

    def spawn(
        *arguments: str, faults: str | None = None, pipe: bool = False
    ) -> subprocess.Popen:
        process = subprocess.Popen(
            repro(*arguments),
            cwd=REPO_ROOT,
            env=child_environment(faults),
            stdout=subprocess.PIPE if pipe else None,
            stderr=subprocess.STDOUT if pipe else None,
            text=pipe or None,
        )
        children.append(process)
        return process

    try:
        print("[1/6] baseline sweep", flush=True)
        baseline_path = work / "baseline.jsonl"
        subprocess.run(
            repro("sweep", *GRID_ARGUMENTS, "--output", str(baseline_path)),
            cwd=REPO_ROOT,
            env=child_environment(),
            check=True,
        )
        baseline = load_records(baseline_path)
        check(len(baseline) == 4, f"expected 4 baseline records, "
                                  f"got {len(baseline)}")

        print(f"[2/6] resumable sweep dies mid-task ({MID_TASK_FAULT}), "
              f"its rerun dies between tasks ({POST_CACHE_FAULT})",
              flush=True)
        cache_dir = work / "cache"
        snapshots_dir = cache_dir / "snapshots"
        resumable = ["sweep", *GRID_ARGUMENTS, "--cache", str(cache_dir),
                     "--resume"]

        def cached_cells() -> int:
            return len(list(cache_dir.glob("*/*.json")))

        crashed = subprocess.run(
            repro(*resumable),
            cwd=REPO_ROOT,
            env=child_environment(MID_TASK_FAULT),
        )
        check(crashed.returncode != 0,
              "fault-injected sweep exited 0 — the kill never fired")
        leftovers = snapshot_files(snapshots_dir)
        check(len(leftovers) > 0,
              "the killed sweep left no snapshot behind")
        check(cached_cells() == 0,
              "the mid-task kill fired after a cell completed")
        print(f"    died mid-task (exit {crashed.returncode}) leaving "
              f"checkpoints {leftovers}", flush=True)

        crashed_again = subprocess.run(
            repro(*resumable),
            cwd=REPO_ROOT,
            env=child_environment(POST_CACHE_FAULT),
        )
        check(crashed_again.returncode != 0,
              "second fault-injected sweep exited 0 — the kill never "
              "fired")
        check(cached_cells() == 2,
              f"expected exactly 2 cached cells after the post-cache "
              f"kill, found {cached_cells()} — completed cells must be "
              f"persisted the moment they finish")
        print("    resumed the interrupted task, cached 2 cells, died "
              "again", flush=True)

        print("[3/6] third run must finish: cached cells stay cached, "
              "records match the baseline", flush=True)
        resumed_path = work / "resumed.jsonl"
        resumed = subprocess.run(
            repro(*resumable, "--output", str(resumed_path)),
            cwd=REPO_ROOT,
            env=child_environment(),
        )
        check(resumed.returncode == 0, "resumed sweep failed")
        records = load_records(resumed_path)
        check(stripped(records) == stripped(baseline),
              "resumed records differ from the baseline "
              "(beyond provenance)")
        from_cache = [r for r in records if r["source"] == "cache"]
        check(len(from_cache) == 2,
              f"2 cell(s) were cached before the kill but "
              f"{len(from_cache)} came from cache on resume — completed "
              f"cells must never re-execute")
        check(snapshot_files(snapshots_dir) == [],
              f"completed tasks left snapshots: "
              f"{snapshot_files(snapshots_dir)}")
        print(f"    byte-identical; {len(from_cache)} cached / "
              f"{len(records) - len(from_cache)} executed, snapshots "
              f"cleared", flush=True)

        for case in STREAM_CASES:
            print(f"[4/6] streamed {case} simulate killed "
                  f"mid-trajectory ({STREAM_FAULT}); rerun resumes "
                  f"byte-identically",
                  flush=True)
            reference_stream = work / f"stream-{case}-reference.jsonl"
            subprocess.run(
                repro(*stream_arguments(
                    case, reference_stream,
                    work / f"stream-{case}-snaps-ref")),
                cwd=REPO_ROOT,
                env=child_environment(),
                check=True,
            )
            victim_stream = work / f"stream-{case}-victim.jsonl"
            victim_snaps = work / f"stream-{case}-snaps"
            stream_args = stream_arguments(case, victim_stream,
                                           victim_snaps)
            killed = subprocess.run(
                repro(*stream_args),
                cwd=REPO_ROOT,
                env=child_environment(STREAM_FAULT),
            )
            check(killed.returncode != 0,
                  "fault-injected simulate exited 0 — the kill never "
                  "fired")
            check(victim_stream.exists()
                  and victim_stream.stat().st_size > 0,
                  "the killed run streamed nothing before dying")
            check(victim_stream.read_bytes()
                  != reference_stream.read_bytes(),
                  "the killed run's stream is already complete — the kill "
                  "fired too late to test resumption")
            check(len(snapshot_files(victim_snaps)) > 0,
                  "the killed streaming run left no snapshot behind")
            partial = victim_stream.stat().st_size
            print(f"    died mid-trajectory with {partial} bytes "
                  f"streamed", flush=True)
            resumed_stream = subprocess.run(
                repro(*stream_args),
                cwd=REPO_ROOT,
                env=child_environment(),
            )
            check(resumed_stream.returncode == 0,
                  "resumed streaming simulate failed")
            check(victim_stream.read_bytes()
                  == reference_stream.read_bytes(),
                  "resumed stream differs from the uninterrupted run — "
                  "crash-equals-uninterrupted violated for JSONL streams")
            check(snapshot_files(victim_snaps) == [],
                  f"completed streaming run left snapshots: "
                  f"{snapshot_files(victim_snaps)}")
            print(f"    resumed: stream byte-identical "
                  f"({victim_stream.stat().st_size} bytes), snapshots "
                  f"cleared", flush=True)

        print("[5/6] fabric: victim worker dies mid-task "
              f"({WORKER_FAULT}); replacement continues", flush=True)
        coordinator = spawn(
            "serve",
            "--cache", str(work / "shared-cache"),
            "--checkpoint", str(work / "fabric-checkpoint.json"),
            "--port", "0",
            "--lease-ttl", "2",
            pipe=True,
        )
        listening = read_until(
            coordinator.stdout,
            "fabric coordinator listening on ",
            time.monotonic() + 30,
        )
        url = listening.rsplit(" ", 1)[-1].strip()
        print(f"    coordinator at {url}", flush=True)

        victim = spawn(
            "worker", "--remote", url, "--id", "victim", "--poll", "0.1",
            faults=WORKER_FAULT,
        )
        remote_path = work / "remote.jsonl"
        sweep = spawn(
            "sweep", *GRID_ARGUMENTS, "--remote", url,
            "--output", str(remote_path),
        )
        check(victim.wait(timeout=120) != 0,
              "victim worker exited cleanly — the kill never fired")
        print("    victim worker died mid-task after posting a "
              "checkpoint", flush=True)
        fabric_snapshots = snapshot_files(work / "shared-cache" /
                                          "snapshots")
        check(len(fabric_snapshots) > 0,
              "no checkpoint reached the coordinator before the kill")
        survivor = spawn(
            "worker", "--remote", url, "--id", "survivor", "--poll", "0.1",
            "--max-idle", "5",
        )

        print("[6/6] remote sweep must finish and match the baseline",
              flush=True)
        check(sweep.wait(timeout=300) == 0,
              "remote sweep did not complete after the worker kill")
        remote_records = load_records(remote_path)
        check(stripped(remote_records) == stripped(baseline),
              "fabric records differ from the baseline "
              "(beyond provenance)")
        check(snapshot_files(work / "shared-cache" / "snapshots") == [],
              "the coordinator kept snapshots for completed tasks")
        subprocess.run(
            repro("sweep", *GRID_ARGUMENTS, "--remote", url, "--shutdown"),
            cwd=REPO_ROOT,
            env=child_environment(),
            check=True,
        )
        check(survivor.wait(timeout=30) == 0,
              f"surviving worker exited {survivor.returncode}")
        coordinator_exit = coordinator.wait(timeout=30)
        for line in coordinator.stdout:
            print(f"    | {line.rstrip()}", flush=True)
        check(coordinator_exit == 0,
              f"coordinator exited {coordinator_exit}")

        print("chaos smoke passed: local kill+resume byte-identity, "
              "zero re-execution, streamed-trajectory byte-identity, "
              "fabric mid-task continuation, clean drain")
        return 0
    finally:
        for process in children:
            if process.poll() is None:
                process.kill()
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Child processes of the benchmark: launch, watch, reap with rusage."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

now = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "trace_hook"

#: How often a watcher re-reads a file it waits on (seconds).
POLL = 0.005

#: Longest any single benchmark process may run before it is killed.
PROCESS_TIMEOUT = 150.0


class ProcessFailed(RuntimeError):
    """A child timed out or a file it should write never appeared."""


def child_env(tmp: Path, trace_dir: Path | None = None) -> dict:
    """The environment of every ``repro`` process the benchmark starts.

    Inherited ``REPRO_*`` variables (fault injection, snapshot and series
    scopes) are dropped so they cannot change what is measured; output is
    unbuffered so header lines land when printed; temp files stay in the
    run's own directory.  ``trace_dir`` adds the span recorder.
    """
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith(("REPRO_", "PYTHON", "PERFBENCH_"))
    }
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = str(SRC)
    if trace_dir is not None:
        env["PYTHONPATH"] += os.pathsep + str(HOOK)
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


def repro_argv(*arguments) -> list[str]:
    return [sys.executable, "-m", "repro", *map(str, arguments)]


class Process:
    """One child with its output in ``log``, reaped by :func:`os.wait4`.

    ``start`` is taken just before the fork, ``end`` when ``wait4``
    returns; ``rss_mb`` is the peak RSS of the child and of every
    descendant it reaped (``spawn`` pool children included).  Linux starts
    a forked child's ``ru_maxrss`` at its parent's RSS, so the driver keeps
    its own small: it never imports ``repro``, NumPy or SciPy.
    """

    def __init__(self, argv, log: Path, env: dict):
        self.log = log
        self._log_handle = open(log, "wb")
        self.start = now()
        self.popen = subprocess.Popen(
            argv, stdout=self._log_handle, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
        )
        self.end: float | None = None
        self.code: int | None = None
        self.rss_mb = 0.0

    def wait(self, timeout: float = PROCESS_TIMEOUT) -> int:
        """Block until exit (killing the child after ``timeout``)."""
        if self.code is not None:
            return self.code
        watchdog = threading.Timer(timeout, self.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.popen.pid, 0)
        finally:
            watchdog.cancel()
        self.end = now()
        self.code = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.code
        self.rss_mb = usage.ru_maxrss / 1024.0
        self._log_handle.close()
        return self.code

    def running(self) -> bool:
        """Whether the child has not exited yet (never reaps it)."""
        if self.code is not None:
            return False
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        try:
            return os.waitid(os.P_PID, self.popen.pid, flags) is None
        except ChildProcessError:  # reaped meanwhile by wait()
            return False

    def kill(self) -> None:
        if self.running():
            try:
                os.kill(self.popen.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def output(self) -> str:
        return self.log.read_text(encoding="utf-8", errors="replace")


def reap_all(processes) -> None:
    """Kill and reap every child still running (error paths)."""
    for process in processes:
        if process.code is None:
            process.kill()
            process.wait()


def watch(paths, needle: str, processes, timeout: float) -> tuple[float, str]:
    """``(time, line)`` of the first complete line holding ``needle``.

    Scans every file in ``paths``; gives up when every process in
    ``processes`` has exited or after ``timeout`` seconds.  The time is
    accurate to :data:`POLL`.
    """
    deadline = now() + timeout
    while True:
        stamp = now()
        for path in paths:
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue
            for line in data[: data.rfind(b"\n") + 1].decode("utf-8", "replace").splitlines():
                if needle in line:
                    return stamp, line
        if stamp > deadline or not any(p.running() for p in processes):
            names = ", ".join(path.name for path in paths)
            raise ProcessFailed(f"{needle!r} never appeared in {names}")
        time.sleep(POLL)

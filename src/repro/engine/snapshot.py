"""Engine snapshot/restore: exact mid-trajectory state capture.

Long simulations die — machines reboot, workers are preempted, sweeps
are killed mid-task.  This module is the substrate that makes such
deaths recoverable *without* changing a single byte of the trajectory:

* :class:`SnapshotState` — a versioned capture of everything a backend
  mutates between ``run()`` calls: the exact count (and, where
  applicable, per-agent state) arrays, the RNG bitstream position
  (``bit_generator.state``), the interaction-count cursor, and the
  conflict-resolution kernel's peel stamps when (and only when) they
  influence future randomness consumption.  Backends put owned ndarray
  copies in the payload; this module alone serializes them.
* :class:`SnapshotStore` — an on-disk store with atomic
  temp-file + ``os.replace`` writes, a per-frame SHA-256 digest, and a
  two-generation fallback ladder (``latest`` → ``previous`` → clean
  start) so a torn or truncated file is *detected*, never silently
  resumed from.
* :class:`SnapshotChannel` / :func:`use_snapshot_channel` — the ambient
  plumbing that lets the runner hand a persistence channel down to deep
  experiment code without threading a parameter through every layer.
* :func:`run_resumable` — the segmented execution law: the simulation
  is driven in deterministic fixed-size segments with a snapshot saved
  at every segment boundary.  Segment boundaries are the *only* clean
  RNG cut points (inside a ``run()`` call pair blocks and birthday
  batches are partially consumed), so segmentation is applied
  **unconditionally** — with or without a channel attached — which is
  what makes an uninterrupted run and a crashed-and-resumed run
  byte-identical at the same seed.

The frame
---------

:meth:`SnapshotState.to_bytes` writes one binary frame::

    magic (8 bytes, FRAME_MAGIC)
    SHA-256 digest (32 bytes) of everything after it
    header length (8 bytes, little-endian unsigned)
    header: canonical JSON {"version", "kind", "payload"}
    array buffers, back to back

The header holds the scalar payload as exact JSON — integers keep
arbitrary precision, so PCG64's 128-bit state words survive — and each
ndarray is replaced by a descriptor ``{"__ndarray__": {"offset",
"nbytes"}, "stored", "dtype", "shape"}`` locating its raw bytes in the
buffer section.  Integer arrays are stored in the narrowest dtype that
holds their observed min/max (:func:`narrow`: per-agent strategy
indices become ``uint8``) and decoded back to their original ``dtype``,
so the round trip is lossless and restores assign into the engine's
arrays exactly as before.  :meth:`SnapshotState.to_wire` carries the
same document as strict JSON for the fabric's ``/snapshot``, with each
array's narrowed bytes in base64 under ``"__ndarray__"``.

The bit-for-bit contract
------------------------

``engine.snapshot()`` is valid between ``run()`` calls.  Restoring the
result into a *freshly constructed* engine with identical constructor
arguments, then issuing any sequence of ``run()`` calls, produces
trajectories, observations, and generator states byte-identical to the
original engine continuing through the same calls.  The property suite
(``tests/property/test_snapshot_equivalence.py``) pins this down for
all three backends, including weighted and graph-topology schedulers
and kernel-proxy paths.
"""

from __future__ import annotations

import base64
import contextlib
import contextvars
import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine.observe import ObserverSink, as_sink
from repro.utils.errors import InvalidParameterError, ReproError

#: Bump when the snapshot layout changes incompatibly; restore refuses
#: other versions loudly instead of misinterpreting bytes.  Version 2 is
#: the binary frame; a version-1 JSON document fails verification.
SNAPSHOT_VERSION = 2

#: Default number of stop-check periods per resumable segment (the
#: snapshot cadence of :func:`run_resumable`).
SEGMENT_CHECKS = 8

#: The first bytes of every snapshot frame.
FRAME_MAGIC = b"REPROSNP"

_DIGEST = slice(len(FRAME_MAGIC), len(FRAME_MAGIC) + 32)
_LENGTH = struct.Struct("<Q")

#: Key marking an array leaf in a frame header or wire document.
_ARRAY = "__ndarray__"

#: dtype kinds stored as raw buffers: bool, integers, floats, complex.
_RAW_KINDS = "biufc"

#: Narrowing candidates, smallest first, by whether values go negative.
_NARROWER = {
    False: tuple(np.dtype(name) for name in ("u1", "u2", "u4")),
    True: tuple(np.dtype(name) for name in ("i1", "i2", "i4")),
}


class SnapshotError(ReproError, RuntimeError):
    """A snapshot is missing, torn, version-skewed, or incompatible."""


# ----------------------------------------------------------------------
# Array codec: dtype narrowing, descriptors, wire form
# ----------------------------------------------------------------------
def narrow(array: np.ndarray) -> np.ndarray:
    """``array`` C-contiguous in the narrowest dtype holding its values.

    Integer arrays move to the smallest unsigned (or, with negative
    values, signed) dtype that holds their observed min/max; other
    dtypes are kept.  Casting the result back to ``array.dtype`` is
    exact.
    """
    array = np.ascontiguousarray(array)
    if array.dtype.kind not in _RAW_KINDS:
        raise SnapshotError(
            f"a snapshot cannot store {array.dtype} arrays")
    if array.dtype.kind not in "iu" or array.size == 0:
        return array
    low, high = int(array.min()), int(array.max())
    for candidate in _NARROWER[low < 0]:
        if candidate.itemsize >= array.dtype.itemsize:
            break
        limits = np.iinfo(candidate)
        if limits.min <= low and high <= limits.max:
            return array.astype(candidate)
    return array


def _describe(array: np.ndarray, stored: np.ndarray) -> dict:
    return {"dtype": array.dtype.str, "stored": stored.dtype.str,
            "shape": [int(size) for size in array.shape]}


def _raw(stored: np.ndarray) -> np.ndarray:
    """The bytes of a contiguous array, as a flat ``uint8`` view."""
    return stored.reshape(-1).view(np.uint8)


def _array_spec(document: dict):
    """Validated ``(stored, dtype, shape, nbytes)`` of an array leaf."""
    try:
        names = document["stored"], document["dtype"]
        shape = tuple(document["shape"])
        if not all(isinstance(name, str) for name in names):
            raise TypeError("dtypes must be strings")
        stored, dtype = (np.dtype(name) for name in names)
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"malformed array payload: {error}") from error
    if (stored.kind not in _RAW_KINDS or dtype.kind not in _RAW_KINDS
            or not np.can_cast(stored, dtype, casting="safe")
            or not all(isinstance(size, int) and not isinstance(size, bool)
                       and size >= 0 for size in shape)):
        raise SnapshotError(
            f"malformed array payload: stored {stored} as {dtype} "
            f"with shape {list(shape)}")
    return stored, dtype, shape, math.prod(shape) * stored.itemsize


def _rebuild(raw, document: dict) -> np.ndarray:
    """An owned array of the leaf's original dtype from its raw bytes."""
    stored, dtype, shape, nbytes = _array_spec(document)
    if len(raw) != nbytes:
        raise SnapshotError(
            f"malformed array payload: {len(raw)} bytes for "
            f"{nbytes}-byte {stored} data")
    return np.frombuffer(raw, dtype=stored).astype(dtype).reshape(shape)


def encode_array(array: np.ndarray) -> dict:
    """Strict-JSON form of an ndarray: narrowed bytes in base64."""
    stored = narrow(array)
    return {_ARRAY: base64.b64encode(_raw(stored)).decode("ascii"),
            **_describe(array, stored)}


def decode_array(document: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` (returns a fresh writable array)."""
    try:
        raw = base64.b64decode(document[_ARRAY], validate=True)
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"malformed array payload: {error}") from error
    return _rebuild(raw, document)


def _encode_tree(value, leaf):
    """``value`` as JSON data, each ndarray replaced by ``leaf(array)``."""
    if isinstance(value, np.ndarray):
        return leaf(value)
    if isinstance(value, dict):
        return {str(key): _encode_tree(item, leaf)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_tree(item, leaf) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _decode_tree(value, leaf):
    """Inverse of :func:`_encode_tree`: array leaves via ``leaf(doc)``."""
    if isinstance(value, dict):
        if _ARRAY in value:
            return leaf(value)
        return {key: _decode_tree(item, leaf) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_tree(item, leaf) for item in value]
    return value


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Rewind ``rng`` to a captured bitstream position, in place."""
    name = type(rng.bit_generator).__name__
    if state.get("bit_generator") != name:
        raise SnapshotError(
            f"snapshot holds {state.get('bit_generator')!r} generator "
            f"state, engine uses {name!r}")
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"malformed generator state: {error}") from error


# ----------------------------------------------------------------------
# The snapshot document
# ----------------------------------------------------------------------
@dataclass
class SnapshotState:
    """A versioned, checksummed capture of one engine's mutable state.

    Attributes
    ----------
    kind:
        The producing backend family (``"agent"`` / ``"count"`` /
        ``"weighted"``); restore refuses a mismatched kind loudly.
    payload:
        Dict of the captured state: JSON scalars, lists and dicts, owned
        ndarrays, and the RNG position (``bit_generator.state``).
    version:
        Snapshot format version (:data:`SNAPSHOT_VERSION`).
    """

    kind: str
    payload: dict
    version: int = SNAPSHOT_VERSION

    @property
    def steps_run(self) -> int:
        """The captured interaction-count cursor."""
        return int(self.payload["steps_run"])

    def to_bytes(self) -> bytes:
        """The checksummed binary frame (the on-disk format)."""
        buffers = []
        offset = 0

        def leaf(array):
            nonlocal offset
            stored = narrow(array)
            raw = _raw(stored)
            buffers.append(raw)
            extent = {"offset": offset, "nbytes": raw.nbytes}
            offset += raw.nbytes
            return {_ARRAY: extent, **_describe(array, stored)}

        header = json.dumps(
            {"version": self.version, "kind": self.kind,
             "payload": _encode_tree(self.payload, leaf)},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        length = _LENGTH.pack(len(header))
        digest = hashlib.sha256(length)
        digest.update(header)
        for raw in buffers:
            digest.update(raw)
        return b"".join([FRAME_MAGIC, digest.digest(), length, header,
                         *buffers])

    @classmethod
    def from_bytes(cls, data: bytes) -> "SnapshotState":
        """Decode and verify a frame; torn/corrupt input raises."""
        view = memoryview(data)
        start = _DIGEST.stop + _LENGTH.size
        if len(view) < start or view[:_DIGEST.start] != FRAME_MAGIC:
            raise SnapshotError(
                "torn or malformed snapshot: not a version-2 frame")
        body = view[_DIGEST.stop:]
        if hashlib.sha256(body).digest() != view[_DIGEST]:
            raise SnapshotError(
                "snapshot checksum mismatch (torn or corrupted write)")
        (length,) = _LENGTH.unpack_from(body)
        buffers = view[start + length:]
        try:
            document = json.loads(bytes(view[start:start + length]))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotError(
                f"malformed snapshot header: {error}") from error

        def leaf(descriptor):
            try:
                offset = int(descriptor[_ARRAY]["offset"])
                nbytes = int(descriptor[_ARRAY]["nbytes"])
            except (KeyError, TypeError, ValueError) as error:
                raise SnapshotError(
                    f"malformed array descriptor: {error}") from error
            if offset < 0 or nbytes < 0 or offset + nbytes > len(buffers):
                raise SnapshotError(
                    "array descriptor points outside the frame")
            return _rebuild(buffers[offset:offset + nbytes], descriptor)

        return cls._from_document(document, leaf)

    def to_wire(self) -> dict:
        """Strict-JSON dict for HTTP transport (fabric ``/snapshot``)."""
        return {"version": self.version, "kind": self.kind,
                "payload": _encode_tree(self.payload, encode_array)}

    @classmethod
    def from_wire(cls, document: dict) -> "SnapshotState":
        """Decode and validate a :meth:`to_wire` document, arrays too."""
        return cls._from_document(document, decode_array)

    @classmethod
    def _from_document(cls, document, leaf) -> "SnapshotState":
        try:
            version = document["version"]
            kind = document["kind"]
            payload = document["payload"]
        except (KeyError, TypeError) as error:
            raise SnapshotError(
                f"malformed snapshot document: {error}") from error
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version!r} is not supported "
                f"(expected {SNAPSHOT_VERSION})")
        if not isinstance(kind, str) or not isinstance(payload, dict):
            raise SnapshotError(
                "malformed snapshot document: kind must be a string and "
                "payload an object")
        return cls(kind=kind, payload=_decode_tree(payload, leaf),
                   version=version)


def check_snapshot(snapshot: SnapshotState, kind: str, **expected) -> dict:
    """Validate a snapshot against the restoring engine's invariants.

    Checks the backend ``kind`` plus any ``name=value`` structural
    expectations recorded in the payload (``n``, ``n_states``, ...).
    Returns the payload for convenience.  Everything fails loudly — a
    snapshot restored into the wrong engine must never run.
    """
    if not isinstance(snapshot, SnapshotState):
        raise SnapshotError(
            f"expected a SnapshotState, got {type(snapshot).__name__}")
    if snapshot.kind != kind:
        raise SnapshotError(
            f"snapshot was taken by the {snapshot.kind!r} backend and "
            f"cannot restore into the {kind!r} backend")
    payload = snapshot.payload
    for name, value in expected.items():
        found = payload.get(name)
        if found != value:
            raise SnapshotError(
                f"snapshot {name}={found!r} does not match the restoring "
                f"engine's {name}={value!r} (restore requires an engine "
                f"constructed with identical arguments)")
    return payload


# ----------------------------------------------------------------------
# On-disk store: atomic writes, checksums, two-generation fallback
# ----------------------------------------------------------------------
class SnapshotStore:
    """Checksummed snapshot files keyed alongside canonical cache keys.

    Layout: ``<root>/<key>.snap`` is the latest generation and
    ``<root>/<key>.snap.prev`` the one before it.  ``save`` writes a
    temp file in the same directory, rotates latest → previous, then
    ``os.replace``s the temp into place — both renames are atomic, so a
    crash at any instant leaves at least one intact generation.
    ``load`` walks the fallback ladder latest → previous → ``None``
    (clean start), discarding any generation whose checksum fails.
    """

    def __init__(self, root):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        if not key or any(sep in key for sep in ("/", "\\", "..")):
            raise SnapshotError(f"invalid snapshot key {key!r}")
        return self.root / f"{key}.snap"

    def save(self, key: str, snapshot: SnapshotState) -> Path:
        """Persist ``snapshot`` atomically as the latest generation."""
        from repro.testing import faults

        path = self._path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        data = snapshot.to_bytes()
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            faults.crash_point("snapshot.mid-write", path=path, data=data)
            if path.exists():
                os.replace(path, self._previous(path))
            os.replace(temp_name, path)
        finally:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
        faults.crash_point("snapshot.post-save", path=path)
        return path

    @staticmethod
    def _previous(path: Path) -> Path:
        return path.with_suffix(path.suffix + ".prev")

    def load(self, key: str) -> SnapshotState | None:
        """Latest intact snapshot for ``key`` via the fallback ladder."""
        path = self._path(key)
        for candidate in (path, self._previous(path)):
            try:
                data = candidate.read_bytes()
            except OSError:
                continue
            try:
                return SnapshotState.from_bytes(data)
            except SnapshotError:
                continue  # torn generation: fall down the ladder
        return None

    def clear(self, key: str) -> None:
        """Drop every generation for ``key`` (task completed)."""
        path = self._path(key)
        for candidate in (path, self._previous(path)):
            with contextlib.suppress(OSError):
                os.unlink(candidate)


# ----------------------------------------------------------------------
# Persistence channels and the ambient binding
# ----------------------------------------------------------------------
class SnapshotChannel:
    """Where one task's snapshots go and come from.

    The runner binds a concrete channel (file-backed locally, HTTP to
    the fabric coordinator on workers) around task execution;
    :func:`run_resumable` only sees this three-method surface.
    """

    def load(self) -> SnapshotState | None:
        """The latest intact snapshot for this task, or ``None``."""
        raise NotImplementedError

    def save(self, snapshot: SnapshotState) -> None:
        """Persist a new latest generation."""
        raise NotImplementedError

    def clear(self) -> None:
        """Discard the task's snapshots (called on task completion)."""
        raise NotImplementedError


class FileSnapshotChannel(SnapshotChannel):
    """A :class:`SnapshotStore` scoped to one task's canonical key."""

    def __init__(self, store: SnapshotStore, key: str):
        self.store = store
        self.key = key

    def load(self) -> SnapshotState | None:
        return self.store.load(self.key)

    def save(self, snapshot: SnapshotState) -> None:
        self.store.save(self.key, snapshot)

    def clear(self) -> None:
        self.store.clear(self.key)


_CHANNEL: contextvars.ContextVar[SnapshotChannel | None] = \
    contextvars.ContextVar("repro_snapshot_channel", default=None)


def current_channel() -> SnapshotChannel | None:
    """The ambient snapshot channel bound by the runner, if any."""
    return _CHANNEL.get()


@contextlib.contextmanager
def use_snapshot_channel(channel: SnapshotChannel | None):
    """Bind ``channel`` as the ambient snapshot channel for a scope."""
    token = _CHANNEL.set(channel)
    try:
        yield channel
    finally:
        _CHANNEL.reset(token)


class ScopedSnapshotChannel(SnapshotChannel):
    """One named sub-run's view of a task-level channel.

    A task (one cache-key's worth of work) may drive *several*
    simulations in sequence — e.g. a relaxation-time experiment
    sweeping population sizes.  Each sub-run wraps the task channel
    with its own scope name: saves tag the payload, and a load only
    answers when the stored tag matches, so sub-run A can never resume
    from sub-run B's checkpoint (the engines would refuse anyway when
    shapes differ, but equal-shape sub-runs must be kept apart too).
    """

    def __init__(self, inner: SnapshotChannel, scope: str):
        self.inner = inner
        self.scope = str(scope)

    def load(self) -> SnapshotState | None:
        found = self.inner.load()
        if found is None or found.payload.get("scope") != self.scope:
            return None
        return found

    def save(self, snapshot: SnapshotState) -> None:
        self.inner.save(SnapshotState(
            kind=snapshot.kind,
            payload={**snapshot.payload, "scope": self.scope},
            version=snapshot.version))

    def clear(self) -> None:
        self.inner.clear()


def scoped_channel(scope: str,
                   channel: SnapshotChannel | None = None
                   ) -> SnapshotChannel | None:
    """Scope the given (or ambient) channel to a named sub-run.

    Returns ``None`` when no channel is in scope — callers pass the
    result straight to :func:`run_resumable`.
    """
    if channel is None:
        channel = current_channel()
    if channel is None:
        return None
    return ScopedSnapshotChannel(channel, scope)


# ----------------------------------------------------------------------
# The segmented (resumable) execution law
# ----------------------------------------------------------------------
class _SegmentStreamSink(ObserverSink):
    """Present one continuous observation stream across segments.

    Each ``run_until`` segment re-emits its entry state and counts its
    observation cadence from its own first step; stitched naively that
    would duplicate every segment boundary.  This wrapper keeps only
    the steps on the run-global cadence grid (anchored at the run's
    start step) and drops boundary re-emits, so the inner sink sees
    exactly the rows one unsegmented run would have produced.  Its
    ``position()`` token — the inner sink's position plus the filter
    state — rides inside the segment snapshots, which is what lets a
    resumed run truncate-then-continue a JSONL stream byte-identically.
    """

    def __init__(self, inner: ObserverSink, every: int, start: int):
        self._inner = inner
        self.wants_states = inner.wants_states
        self._every = int(every)
        self._start = int(start)
        self._last: int | None = None

    def emit(self, step, counts, states=None) -> None:
        step = int(step)
        if step == self._last or (step - self._start) % self._every:
            return
        self._last = step
        self._inner.emit(step, counts, states)

    def flush(self) -> None:
        self._inner.flush()

    def position(self):
        return {"inner": self._inner.position(), "last": self._last,
                "start": self._start}

    def seek(self, position) -> None:
        if position is None:
            self._last = None
            self._inner.seek(None)
            return
        self._last = position["last"]
        self._start = int(position["start"])
        self._inner.seek(position["inner"])

    @property
    def records(self) -> list:
        return self._inner.records


def run_resumable(simulation, max_steps: int, stop_when, *,
                  check_stop_every: int, segment_steps: int | None = None,
                  channel: SnapshotChannel | None = None,
                  observe_every: int | None = None, observe=None) -> bool:
    """Drive ``simulation.run_until`` in deterministic resumable segments.

    The simulation must expose ``steps_run``, ``run_until(max_steps,
    stop_when, check_stop_every=...)``, ``snapshot()`` and
    ``restore()`` (both engines and the :class:`~repro.core
    .population_igt.IGTSimulation` facade qualify).  Execution is split
    into segments of ``segment_steps`` interactions (default
    :data:`SEGMENT_CHECKS` stop-check periods); after every completed
    segment the current snapshot is saved to ``channel`` (or the
    ambient channel).  On entry, an existing channel snapshot is
    restored and the already-executed segments are skipped.

    Segmentation is applied whether or not a channel is bound — the
    segment boundaries are part of the execution law, so an
    uninterrupted run, a snapshotting run, and a crashed-and-resumed
    run all consume the generator identically and produce byte-equal
    trajectories.  Saving a snapshot is read-only with respect to the
    simulation state.

    ``observe_every``/``observe`` stream observations across the whole
    segmented run as if it were one call (the simulation's
    ``run_until`` must accept them): segment-boundary duplicates are
    filtered, the sink's resume token is carried inside every snapshot,
    and a resumed :class:`~repro.engine.observe.JsonlSink` truncates
    back to the last durable snapshot position and continues — so the
    streamed file is byte-identical to an uninterrupted run's.
    Segments are rounded up to a multiple of the observation cadence to
    keep boundaries on the cadence grid.
    """
    if channel is None:
        channel = current_channel()
    if observe is not None and observe_every is None:
        raise InvalidParameterError(
            "observe= needs observe_every — the observation cadence")
    if segment_steps is None:
        segment_steps = SEGMENT_CHECKS * int(check_stop_every)
    segment_steps = max(1, int(segment_steps))
    start = int(simulation.steps_run)
    stream = None
    if observe_every is not None:
        observe_every = int(observe_every)
        segment_steps = -(-segment_steps // observe_every) * observe_every
        stream = _SegmentStreamSink(as_sink(observe), observe_every, start)
    target = start + int(max_steps)
    if channel is not None:
        found = channel.load()
        if found is not None:
            simulation.restore(found)
            if stream is not None:
                stream.seek(found.payload.get("sink"))
    converged = False
    while simulation.steps_run < target and not converged:
        budget = min(segment_steps, target - int(simulation.steps_run))
        if stream is None:
            converged = simulation.run_until(
                budget, stop_when, check_stop_every=check_stop_every)
        else:
            converged = simulation.run_until(
                budget, stop_when, check_stop_every=check_stop_every,
                observe_every=observe_every, observe=stream)
        if (channel is not None and not converged
                and simulation.steps_run < target):
            snap = simulation.snapshot()
            if stream is not None:
                snap = SnapshotState(
                    kind=snap.kind,
                    payload={**snap.payload, "sink": stream.position()},
                    version=snap.version)
            channel.save(snap)
            # Drop the capture before the next one is taken: its owned
            # arrays are as large as the engine's (80 MB at n=1e7).
            del snap
    if stream is not None:
        stream.flush()
    return bool(converged)


@dataclass
class RecordingChannel(SnapshotChannel):
    """An in-memory channel (tests and the property suite)."""

    snapshots: list = field(default_factory=list)
    initial: SnapshotState | None = None
    cleared: int = 0

    def load(self) -> SnapshotState | None:
        return self.initial

    def save(self, snapshot: SnapshotState) -> None:
        self.snapshots.append(snapshot)

    def clear(self) -> None:
        self.cleared += 1

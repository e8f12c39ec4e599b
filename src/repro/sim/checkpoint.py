"""Deterministic checkpoint/restore for whole simulated systems.

A checkpoint is one atomic file holding the *complete* state of a
:class:`~repro.core.system.SocSystem` (or any picklable component
graph): event-engine clock, NoC buffers and in-flight flits, NI and
router state, DRAM bank FSMs and refresh counters, every derived RNG
stream, fault-injector schedules and resilience ledgers, and obs
counters.  The golden guarantee — enforced by the resume-identity test
suite — is that ``run(N)`` and ``run(k); save; load; run(N-k)`` produce
bit-identical metrics and trace events in both dispatch modes, with and
without fault injection.

Why whole-graph pickling: the simulator's components share live objects
(a packet sitting in a router buffer is the *same* object a watchdog
tracker holds).  Serializing per component would sever that aliasing;
one pickle of the root preserves it through the pickle memo, engine
wake handles included (see :mod:`repro.sim.engine`, "Serialization").
The only state excluded is process-local plumbing — telemetry callbacks
and open file handles — which the components holding it drop.

File format (version :data:`SCHEMA_VERSION`)::

    MAGIC (8 bytes) | header length (4 bytes LE) | header JSON | payload

The header carries the schema version, the payload's length and CRC-32,
the clock cycle, and free-form ``meta``.  Loading verifies magic, schema
and CRC before unpickling and raises :class:`CheckpointError` with a
precise reason otherwise — a truncated or bit-flipped snapshot is
*rejected*, never silently half-loaded.  Writes are crash-safe: payload
to a temp file in the target directory, ``fsync``, then atomic
``os.replace``, so a crash mid-save leaves the previous snapshot intact.

Schema versioning policy: bump :data:`SCHEMA_VERSION` whenever the
serialized component graph changes shape (renamed attributes, new
simulator state).  Pickles are not migrated across versions — a mismatch
is an immediate, explicit error telling the user to re-run from scratch.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

#: File magic: identifies a repro checkpoint regardless of extension.
MAGIC = b"REPROCKP"

#: Bump on any change to the serialized component-graph shape.
SCHEMA_VERSION = 12

_HEADER_STRUCT = struct.Struct("<I")

PathLike = Union[str, Path]


class CheckpointError(RuntimeError):
    """A snapshot could not be written, validated, or restored."""


def _cycle_of(system) -> Optional[int]:
    simulator = getattr(system, "simulator", system)
    cycle = getattr(simulator, "cycle", None)
    return int(cycle) if isinstance(cycle, int) else None


def _label_of(system) -> Optional[str]:
    config = getattr(system, "config", None)
    label = getattr(config, "label", None)
    return str(label) if label is not None else None


def save_checkpoint(
    path: PathLike,
    system,
    meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Atomically write a snapshot of ``system`` to ``path``.

    The write is crash-safe (temp file + ``fsync`` + ``os.replace``): at
    every instant ``path`` either holds the previous valid snapshot or
    the new one, never a torn mix.  Returns the final path.
    """
    path = Path(path)
    try:
        payload = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"system is not serializable: {type(exc).__name__}: {exc}"
        ) from exc
    header = {
        "schema": SCHEMA_VERSION,
        "crc32": zlib.crc32(payload),
        "payload_bytes": len(payload),
        "cycle": _cycle_of(system),
        "label": _label_of(system),
        "meta": dict(meta) if meta else {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(_HEADER_STRUCT.pack(len(header_bytes)))
            handle.write(header_bytes)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise CheckpointError(f"cannot write snapshot {path}: {exc}") from exc
    _fsync_directory(path.parent)
    return path


def _fsync_directory(directory: Path) -> None:
    """Best-effort durability for the rename itself."""
    try:
        fd = os.open(directory if str(directory) else ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def read_header(path: PathLike) -> Dict[str, object]:
    """Parse and validate a snapshot's header (magic + schema only).

    Cheap — reads a few hundred bytes, not the payload.  Raises
    :class:`CheckpointError` on malformed files or schema mismatches.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            header, _ = _read_header_stream(handle, path)
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path}: {exc}") from exc
    return header


def _read_header_stream(
    handle: io.BufferedReader, path: Path
) -> Tuple[Dict[str, object], int]:
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(
            f"{path} is not a repro checkpoint (bad magic "
            f"{magic!r}; expected {MAGIC!r})"
        )
    raw_len = handle.read(_HEADER_STRUCT.size)
    if len(raw_len) != _HEADER_STRUCT.size:
        raise CheckpointError(f"{path} is truncated (no header length)")
    (header_len,) = _HEADER_STRUCT.unpack(raw_len)
    header_bytes = handle.read(header_len)
    if len(header_bytes) != header_len:
        raise CheckpointError(f"{path} is truncated (incomplete header)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc
    schema = header.get("schema")
    if schema != SCHEMA_VERSION:
        raise CheckpointError(
            f"{path} was written with checkpoint schema v{schema}; this "
            f"build reads v{SCHEMA_VERSION}.  Snapshots are not migrated "
            "across schema versions — re-run from scratch."
        )
    return header, len(MAGIC) + _HEADER_STRUCT.size + header_len


def load_checkpoint(path: PathLike):
    """Load, verify, and restore the system snapshotted at ``path``.

    Verification order: magic → schema version → payload length →
    CRC-32 → unpickle.  Any failure raises :class:`CheckpointError`
    naming the failing stage; a valid snapshot returns the restored
    system, ready to ``run()`` or to be saved again.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            header, _ = _read_header_stream(handle, path)
            payload = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path}: {exc}") from exc
    expected = header.get("payload_bytes")
    if expected != len(payload):
        raise CheckpointError(
            f"{path} is truncated: header promises {expected} payload "
            f"byte(s), file holds {len(payload)}"
        )
    crc = zlib.crc32(payload)
    if crc != header.get("crc32"):
        raise CheckpointError(
            f"{path} failed its CRC check (stored {header.get('crc32')}, "
            f"computed {crc}) — the snapshot is corrupted"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"{path} passed validation but failed to unpickle "
            f"({type(exc).__name__}: {exc}) — was it written by a "
            "different code revision?"
        ) from exc

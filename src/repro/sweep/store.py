"""Content-addressed result store for sweep jobs.

Every sweep job is identified by a **cache key**: the SHA-256 digest of
the canonical JSON encoding of its kind, its fully-resolved parameters,
and the store schema version.  Two jobs with byte-identical resolved
configs share a key, so repeated points are never simulated twice — not
within one sweep (duplicates are collapsed), not across invocations
(the store persists), and not across exhibits (``repro all`` and
``repro sweep`` address the same store).

The persistent backend is an append-only JSON-Lines file: one record
per completed job, last write wins on key collisions (a deliberate
re-run supersedes the old row).  Only the orchestrating process writes;
worker processes return results to the parent, which serialises the
appends — no cross-process locking is needed.  A store created with
``path=None`` is memory-only, which the tests and one-shot sweeps use.

Bumping :data:`SCHEMA_VERSION` invalidates every cached result at once
(the version participates in the key), which is the escape hatch for
semantic changes to the simulator that keep configs identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Union

logger = logging.getLogger(__name__)

#: Bump when simulator semantics change without a config change; every
#: key — and therefore every cached result — is invalidated at once.
SCHEMA_VERSION = 1


def canonical_json(payload: object) -> str:
    """The canonical encoding hashed into a cache key.

    ``sort_keys`` makes dict insertion order irrelevant; the compact
    separators make the encoding unique; JSON float formatting uses
    ``repr`` round-tripping, which is stable across processes and
    Python versions (>= 3.1).
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def job_key(
    kind: str,
    params: Mapping[str, object],
    schema: int = SCHEMA_VERSION,
) -> str:
    """The content-addressed key of one fully-resolved job."""
    payload = {"kind": kind, "params": dict(params), "schema": schema}
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


def make_record(
    job,
    status: str,
    result: Optional[Mapping[str, object]],
    error: Optional[str] = None,
    elapsed_s: float = 0.0,
    traceback: Optional[str] = None,
) -> Dict[str, object]:
    """One store row: job identity plus outcome.

    ``traceback`` is the failure's formatted traceback (``None`` for ok
    rows), so a failed row is debuggable without re-running the job.
    """
    if status not in ("ok", "failed"):
        raise ValueError(f"unknown record status {status!r}")
    return {
        "key": job.key,
        "kind": job.kind,
        "label": job.label,
        "params": dict(job.params),
        "schema": SCHEMA_VERSION,
        "status": status,
        "result": dict(result) if result is not None else None,
        "error": error,
        "traceback": traceback,
        "elapsed_s": round(float(elapsed_s), 6),
        "stored_at": time.time(),
    }


class ResultStore:
    """Keyed result records, optionally persisted as JSON Lines.

    ``get`` / ``put`` maintain an in-memory index; with a ``path`` every
    ``put`` is also appended to the file immediately, so an interrupted
    sweep loses at most its in-flight jobs and a re-run resumes from the
    last completed point for free.

    ``fsync=True`` additionally fsyncs every append, shrinking the
    at-most-one-job loss window from "whatever the page cache held" to
    zero even across a power failure — at the cost of one disk flush per
    record.  A crash can still leave a *partial* final line (the append
    itself is not atomic); :meth:`repair` truncates such a tail
    explicitly instead of skipping it on every future load.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self._index: Dict[str, Dict[str, object]] = {}
        #: Lookup counters — `repro sweep` and `repro all` report these.
        self.hits = 0
        self.misses = 0
        #: Lines in the backing file that failed to parse (truncated
        #: tail of an interrupted append); skipped, never fatal.
        self.corrupt_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                except (ValueError, TypeError, KeyError):
                    self.corrupt_lines += 1
                    continue
                self._index[key] = record

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored record for ``key``, counting the hit or miss."""
        record = self._index.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def contains(self, key: str) -> bool:
        """Membership test that does not touch the hit/miss counters."""
        return key in self._index

    def put(self, record: Mapping[str, object]) -> None:
        record = dict(record)
        key = record["key"]
        self._index[key] = record
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())

    def repair(self) -> int:
        """Truncate a corrupt tail off the backing file; returns the
        number of bytes removed.

        A crash mid-append (or a torn filesystem) can leave a partial
        final line.  :meth:`_load` already *skips* unparsable lines, but
        skipping leaves the damage in place — every future load re-counts
        it and a resumed sweep appends after garbage.  ``repair`` scans
        the file, keeps the longest valid prefix (corruption anywhere
        invalidates that line and everything after it — an append-only
        log has no valid data past its first tear), truncates in place,
        and rebuilds the index from the surviving records.
        """
        if self.path is None or not self.path.exists():
            return 0
        valid_bytes = 0
        survivors: Dict[str, Dict[str, object]] = {}
        with self.path.open("rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break
                stripped = line.strip()
                if stripped:
                    try:
                        record = json.loads(stripped.decode("utf-8"))
                        key = record["key"]
                    except (ValueError, TypeError, KeyError,
                            UnicodeDecodeError):
                        break
                    survivors[key] = record
                valid_bytes += len(line)
        total = self.path.stat().st_size
        removed = total - valid_bytes
        if removed:
            with self.path.open("rb+") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            logger.warning(
                "repaired %s: truncated %d corrupt byte(s), "
                "%d record(s) survive", self.path, removed, len(survivors),
            )
        self._index = survivors
        self.corrupt_lines = 0
        return removed

    def records(self) -> List[Dict[str, object]]:
        return list(self._index.values())

    def keys(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

"""Persistent, content-addressed store of simulation results.

Entries are keyed by :attr:`JobSpec.key` and live as one JSON file per
job under a cache directory, with an in-memory layer in front so a
process never deserializes the same entry twice (and the experiment
layer keeps its historical share-one-object-per-cell behaviour).

Robustness rules:

* writes are atomic (temp file + ``os.replace``), so a killed sweep
  never leaves a half-written entry;
* a corrupted or stale entry (unparsable JSON, schema mismatch, wrong
  key) is treated as a miss, counted in :attr:`ResultStore.corrupt`, and
  unlinked so the next ``put`` starts clean.

``root=None`` gives a memory-only store — the default for the in-process
experiment cache, where persistence is opt-in via ``--cache-dir``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro import faults
from repro.runner.jobspec import JobSpec
from repro.sim.multi import CombinedRun
from repro.telemetry.metrics import JobMetrics

#: on-disk entry schema version; mismatches are treated as corrupt
STORE_FORMAT = 1

#: longest workload-derived filename prefix, in UTF-8 **bytes** (the
#: unit filesystem name limits are measured in — 255 bytes on the
#: common ones; a character cap would leak through for non-ASCII
#: names).  The slug exists purely for humans — the 16-hex-digit key
#: suffix is what identifies the entry — so it is capped well below
#: the limit: a ``trace:``/``import:`` workload naming a deep path
#: must not make ``put`` raise ``OSError(ENAMETOOLONG)``.
MAX_SLUG_BYTES = 80


def _reject_nonfinite(token: str) -> float:
    """``parse_constant`` hook for store reads: a bare ``NaN`` /
    ``Infinity`` token means the entry was written by a non-strict
    serializer — treat it as corruption (the caller's recovery path
    counts and unlinks it) rather than resurrecting a non-finite
    result value."""
    raise ValueError(f"non-finite JSON token {token!r} in store entry")


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory so the rename itself is durable;
    not all filesystems support opening directories, hence best-effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        return
    finally:
        os.close(fd)


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + fsync + rename),
    removing the temp file on *any* failure — a Ctrl-C mid-write must
    not strand ``.tmp<pid>`` litter next to the target.  Shared by the
    store and the file-queue backend: readers on other processes (or
    machines) see the old content or the new, never a torn write.  The
    temp file is fsynced before the rename (and the directory after,
    best-effort) so a power loss cannot surface the new name with torn
    or empty content."""
    faults.fire("atomic_write", path=str(path))
    tmp = path.parent / f"{path.name}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        faults.fire("atomic_write.rename", path=str(path), tmp=str(tmp),
                    text=text)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


class ResultStore:
    """Cache of :class:`CombinedRun` results keyed by job content."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root: Optional[Path] = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, CombinedRun] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0

    # -- paths ---------------------------------------------------------

    @staticmethod
    def _slug(workload: str) -> str:
        """Filename-safe form of a workload name (uncapped)."""
        return "".join(c if c.isalnum() or c in "._-" else "_"
                       for c in workload)

    def path_for(self, spec: JobSpec) -> Optional[Path]:
        """Where ``spec``'s entry lives on disk (None for memory-only).
        The workload name is kept in the filename purely for humans; the
        key alone identifies the entry, so the slug is truncated to its
        *last* :data:`MAX_SLUG_BYTES` UTF-8 bytes (the tail of a path is
        the recognizable part) rather than ever overflowing a filename.
        """
        if self.root is None:
            return None
        # trim by encoded size, dropping any multi-byte char the cut
        # split in half
        slug = self._slug(spec.workload).encode(
            "utf-8")[-MAX_SLUG_BYTES:].decode("utf-8", "ignore")
        slug = slug.lstrip(".") or "workload"  # never a dotfile
        return self.root / f"{slug}.{spec.key[:16]}.json"

    # -- lookup --------------------------------------------------------

    def get(self, spec: JobSpec) -> Optional[CombinedRun]:
        """The cached result for ``spec``, or None (a miss)."""
        key = spec.key
        faults.fire("store.get", key=key)
        cached = self._memory.get(key)
        if cached is None:
            cached = self._load(spec, key)
            if cached is not None:
                self._memory[key] = cached
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        return cached

    def _load(self, spec: JobSpec, key: str) -> Optional[CombinedRun]:
        path = self.path_for(spec)
        if path is None or not path.exists():
            return None
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            # transient I/O trouble: a miss, but the entry may well be
            # fine — leave it for the next reader
            return None
        try:
            entry = json.loads(text, parse_constant=_reject_nonfinite)
            if entry.get("format") != STORE_FORMAT:
                raise ValueError(f"entry format {entry.get('format')!r}")
            if entry.get("key") != key:
                raise ValueError("entry key does not match spec")
            run = CombinedRun.from_dict(entry["result"])
            metrics = entry.get("metrics")
            if isinstance(metrics, dict):
                # restore how the result was originally produced (a
                # cache hit reports the *recorded* cost, not zero)
                run.job_metrics = JobMetrics.from_dict(metrics)
            return run
        except Exception:
            # garbled/stale content: recover by quarantining the file
            self.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # -- insertion -----------------------------------------------------

    def put(self, spec: JobSpec, run: CombinedRun, *,
            overwrite: bool = True) -> Optional[Path]:
        """Record ``run`` as the result of ``spec``; returns the on-disk
        path (None for memory-only stores).

        ``overwrite=False`` is the claim-aware form used by queue
        workers: when the entry already exists on disk — a worker whose
        lease was reclaimed finishing second, or a concurrent sweep —
        the first writer's (identical) entry is kept, so late
        duplicates can neither double-write nor refresh the entry's
        LRU position.

        The write is atomic (temp file + rename) and the temp file is
        removed on *any* failure — a Ctrl-C mid-``put`` must not strand
        ``.json.tmp<pid>`` litter in the cache directory.
        """
        key = spec.key
        faults.fire("store.put", key=key, workload=spec.workload)
        path = self.path_for(spec)
        if path is None:
            self._memory[key] = run
            return None
        if not overwrite and path.exists():
            self._memory[key] = run
            return path
        serialize_started = time.perf_counter()
        entry = {
            "format": STORE_FORMAT,
            "key": key,
            "spec": spec.to_dict(),
            "result": run.to_dict(),
        }
        text = json.dumps(entry, allow_nan=False)
        metrics = getattr(run, "job_metrics", None)
        if metrics is not None:
            # the persisted store-write figure can only cover its own
            # serialization (measuring the rename would require writing
            # the measurement before taking it); callers that want the
            # rename included re-time the whole put() — see
            # SweepRunner.run
            if metrics.store_write_seconds is None:
                metrics.store_write_seconds = (
                    time.perf_counter() - serialize_started)
            entry["metrics"] = metrics.to_dict()
            text = json.dumps(entry, allow_nan=False)
        atomic_write_text(path, text)
        # the memory layer is only updated once the disk write landed: a
        # failed or torn write must stay a miss for this process, or a
        # retrying queue worker would "hit" an entry no other process can
        # read
        self._memory[key] = run
        self.writes += 1
        return path

    # -- maintenance ---------------------------------------------------

    def disk_entries(self) -> list:
        """Describe every on-disk entry (for ``repro cache list``):
        one dict per file with path, size, mtime, and — when the entry
        parses — its key, workload, instruction window, and engine.
        Unparsable files are reported with ``ok=False``, not deleted
        (that is :meth:`purge`'s job, or :meth:`get`'s on next lookup).
        """
        entries = []
        if self.root is None:
            return entries
        for path in sorted(self.root.glob("*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            record = {
                "path": path,
                "bytes": stat.st_size,
                "mtime": stat.st_mtime,
                "ok": False,
                "key": None,
                "workload": None,
                "instructions": None,
                "engine": None,
            }
            try:
                entry = json.loads(path.read_text(encoding="utf-8"),
                                   parse_constant=_reject_nonfinite)
                spec = entry.get("spec", {})
                record.update(
                    ok=entry.get("format") == STORE_FORMAT,
                    key=entry.get("key"),
                    workload=spec.get("workload"),
                    instructions=spec.get("instructions"),
                    engine=spec.get("engine"),
                )
            except (OSError, ValueError):
                pass
            entries.append(record)
        return entries

    def disk_stats(self) -> dict:
        """Aggregate view of the cache directory (for
        ``repro cache stats``)."""
        entries = self.disk_entries()
        by_workload: Dict[str, int] = {}
        for record in entries:
            name = record["workload"] or "<unreadable>"
            by_workload[name] = by_workload.get(name, 0) + 1
        tmp_files = (0 if self.root is None
                     else sum(1 for _ in self.root.glob("*.json.tmp*")))
        return {
            "root": None if self.root is None else str(self.root),
            "entries": len(entries),
            "bytes": sum(record["bytes"] for record in entries),
            "unreadable": sum(1 for r in entries if not r["ok"]),
            "orphaned_tmp_files": tmp_files,
            "by_workload": dict(sorted(by_workload.items())),
        }

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries survive)."""
        self._memory.clear()

    def purge(self) -> int:
        """Delete every on-disk entry — orphaned atomic-write temp files
        included; returns files removed."""
        self.clear()
        removed = 0
        if self.root is not None:
            for path in sorted(self.root.glob("*.json*")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def evict(self, keep_bytes: int) -> Tuple[int, int]:
        """Size-bound the cache directory with a strict LRU cutoff:
        walking entries newest-first — by mtime, equal mtimes broken
        deterministically by filename (``put`` rewrites an entry's
        file, refreshing its mtime) — keep them while the cumulative
        size fits ``keep_bytes``; the first entry that does not fit —
        and everything older than it — is deleted.  Survivors are
        always a recency prefix: nothing older than an evicted entry is
        ever kept.  Orphaned atomic-write temp files are always
        removed.  Returns ``(files_removed, bytes_freed)``; a
        memory-only store is a no-op."""
        if keep_bytes < 0:
            raise ValueError("keep_bytes must be >= 0")
        removed = 0
        freed = 0
        if self.root is None:
            return removed, freed
        for tmp in sorted(self.root.glob("*.json.tmp*")):
            try:
                size = tmp.stat().st_size
                tmp.unlink()
                removed += 1
                freed += size
            except OSError:
                pass
        # mtime alone is not a total order: filesystem timestamp
        # granularity makes same-instant writes tie, and a tie broken
        # arbitrarily can evict a just-written entry while keeping an
        # older one.  The filename is the deterministic tie-break.
        entries = sorted(self.disk_entries(),
                         key=lambda r: (r["mtime"], r["path"].name),
                         reverse=True)
        kept = 0
        evicting = False
        for record in entries:
            if not evicting and kept + record["bytes"] <= keep_bytes:
                kept += record["bytes"]
                continue
            evicting = True
            try:
                record["path"].unlink()
                removed += 1
                freed += record["bytes"]
            except OSError:
                continue
            if record["key"] is not None:
                self._memory.pop(record["key"], None)
        return removed, freed

    def __len__(self) -> int:
        return len(self._memory)

    def describe(self) -> str:
        where = "memory" if self.root is None else str(self.root)
        return (f"ResultStore({where}: {len(self._memory)} in memory, "
                f"{self.hits} hits / {self.misses} misses / "
                f"{self.corrupt} corrupt)")

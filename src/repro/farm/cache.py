"""Content-addressed result cache: never simulate the same point twice.

A *sweep point* is fully described by (SystemConfig, workload profiles,
time slice, multiprogramming level, warmup, instruction budget).  All of
that already serializes to plain dicts via :mod:`repro.core.serialization`,
so a point has a canonical JSON form and therefore a SHA-256 identity —
the cache key.  The simulator is deterministic (seeds live in the
profiles), which is what makes memoization sound: the same key always
denotes the same :class:`~repro.core.stats.SimStats`.

On-disk format, one JSON file per point under the cache root::

    {"magic": "repro-farm", "version": 1,
     "sha256": "<hex digest of the canonical payload JSON>",
     "payload": {"key": ..., "stats": {...}, "meta": {...}}}

Entries are written with :func:`repro.robust.atomic.atomic_write_text`
(temp file + fsync + rename), so concurrent writers of the same point
cannot clobber each other — the rename is atomic and both write identical
stats anyway.  Every way an entry can be wrong — unparsable, wrong magic or
version, checksum mismatch, key mismatch, malformed stats — is *detected
and treated as a miss* (the bad file is unlinked best-effort); a corrupt
cache can cost time, never correctness.

The same root holds the trace store (:mod:`repro.trace.store`) under
``traces/``: one ``.npy`` file per workload trace, out of the ``*.json``
glob, so it never reads as a result.  ``stats``/``gc``/``clear``/``scrub``
manage both kinds of entry.

The configuration's ``name`` field is deliberately excluded from the
canonical form: it is documentation, not simulation input, and excluding
it lets differently-labelled but physically identical machines (the
baseline that fig5/fig9/fig11 all re-run) share one entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.core.config import SystemConfig
from repro.core.engine import DEFAULT_ENGINE
from repro.core.serialization import config_to_dict, profile_to_dict
from repro.core.stats import SimStats
from repro.robust.atomic import atomic_write_text
from repro.trace.store import CorruptEntry, load_entry
from repro.trace.synthetic import BenchmarkProfile

PathLike = Union[str, os.PathLike]

CACHE_MAGIC = "repro-farm"
#: Bump when the canonical payload layout or the simulator's observable
#: behaviour changes; old entries then miss instead of lying.
#: Version 2 added the execution engine to the payload: engines are
#: bit-identical by contract, but a cached result must still record which
#: engine produced it so an equivalence bug can never hide behind a warm
#: cache.
#: Version 3 added the energy-model identity (``None`` or the technology
#: name plus the full derived cost vector) and the energy fields that
#: ride in every cached ``SimStats``; bumping makes pre-energy entries
#: miss instead of answering with stats that lack the new fields.
#: Version 4 added the scenario identity (``None`` or the resolved
#: scenario document's ``scenario_sha256``): points run under a declared
#: scenario are addressed under that scenario's digest, so a scenario
#: file is reproducible against the cache by content, and pre-scenario
#: entries miss instead of masquerading as scenario-verified results.
CACHE_SCHEMA_VERSION = 4

#: Age (days) past which ``gc`` removes a trace temp file: no recording
#: takes that long, so its recorder was killed.
STALE_TEMP_DAYS = 1.0

#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "REPRO_FARM_CACHE"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_FARM_CACHE`` or ``~/.cache/repro-farm``."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-farm").expanduser()


def point_payload(config: SystemConfig,
                  profiles: Sequence[BenchmarkProfile],
                  time_slice: int,
                  level: Optional[int],
                  warmup_instructions: int,
                  max_instructions: Optional[int],
                  engine: str = DEFAULT_ENGINE,
                  energy: Optional[str] = None,
                  scenario: Optional[str] = None) -> Dict[str, Any]:
    """The canonical, JSON-ready description of one sweep point.

    This dict is both the cache key's preimage and the exact payload a
    pool worker rebuilds the simulation from — the key can never drift
    from what actually ran.  The engine participates in the key even
    though engines are bit-identical: a result cached under one engine
    is never served to a request for the other, so the lockstep
    guarantee is checkable against production caches.

    The energy selection participates the same way, but as the *derived
    model* (technology name plus the full per-event cost vector), not
    just the name: stats cached with and without energy fields can never
    collide, and a change to the energy constants moves every affected
    key even without a schema bump.

    ``scenario`` is the resolved scenario document's ``scenario_sha256``
    (``None`` when the point was not launched from a scenario).  It is
    inert for execution but participates in the key: a scenario's points
    are content-addressed under the scenario's own identity, which is
    what lets the same scenario file replay bit-identically across
    ``--jobs``, ``--nodes``, and ``--journal`` resume.
    """
    config_dict = config_to_dict(config)
    config_dict.pop("name", None)  # label, not simulation input
    if energy is None:
        energy_desc = None
    else:
        from repro.energy import derive_energy_model

        energy_desc = derive_energy_model(config, energy).params()
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "config": config_dict,
        "profiles": [profile_to_dict(p) for p in profiles],
        "time_slice": time_slice,
        "level": level,
        "warmup_instructions": warmup_instructions,
        "max_instructions": max_instructions,
        "engine": engine,
        "energy": energy_desc,
        "scenario": scenario,
    }


def _canonical(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def payload_key(payload: Dict[str, Any]) -> str:
    """SHA-256 hex digest of a canonical point payload."""
    return hashlib.sha256(_canonical(payload)).hexdigest()


def point_key(config: SystemConfig,
              profiles: Sequence[BenchmarkProfile],
              time_slice: int,
              level: Optional[int] = None,
              warmup_instructions: int = 0,
              max_instructions: Optional[int] = None,
              engine: str = DEFAULT_ENGINE,
              energy: Optional[str] = None,
              scenario: Optional[str] = None) -> str:
    """The content address of one sweep point."""
    return payload_key(point_payload(config, profiles, time_slice, level,
                                     warmup_instructions, max_instructions,
                                     engine, energy, scenario))


class ResultCache:
    """A directory of content-addressed :class:`SimStats` results.

    Hit/miss/store/corrupt counts accumulate per instance (i.e. per
    process); :meth:`stats` combines them with on-disk totals.
    """

    def __init__(self, root: Optional[PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_dropped = 0

    # ------------------------------------------------------------------ paths

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @property
    def traces_root(self) -> Path:
        """The trace store's directory (:mod:`repro.trace.store`)."""
        return self.root / "traces"

    def _entry_paths(self) -> Iterator[Path]:
        return _glob(self.root, "*.json")

    def _trace_paths(self) -> Iterator[Path]:
        return _glob(self.traces_root, "*.npy")

    # ----------------------------------------------------------------- lookup

    def get(self, key: str) -> Optional[SimStats]:
        """The cached stats for ``key``, or ``None`` (miss).

        Any verification failure counts as ``corrupt_dropped`` and the
        offending file is removed so it cannot waste a read twice.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        payload = self._verify(blob, key, path)
        if payload is None:
            self.corrupt_dropped += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return SimStats.from_dict(payload["stats"])

    def _verify(self, blob: bytes, key: str, path: Path) -> Optional[dict]:
        try:
            envelope = json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("magic") != CACHE_MAGIC:
            return None
        if envelope.get("version") != CACHE_SCHEMA_VERSION:
            return None
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            return None
        digest = hashlib.sha256(_canonical(payload)).hexdigest()
        if digest != envelope.get("sha256"):
            return None
        if payload.get("key") != key:
            return None
        stats = payload.get("stats")
        if not isinstance(stats, dict):
            return None
        try:
            SimStats.from_dict(stats)
        except Exception:
            return None
        return payload

    # ------------------------------------------------------------------ store

    def put(self, key: str, stats: SimStats,
            meta: Optional[Dict[str, Any]] = None) -> Path:
        """Store one result atomically; returns the entry path."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "stats": stats.to_dict(),
            "meta": dict(meta or {}),
        }
        envelope = {
            "magic": CACHE_MAGIC,
            "version": CACHE_SCHEMA_VERSION,
            "sha256": hashlib.sha256(_canonical(payload)).hexdigest(),
            "payload": payload,
        }
        path = self.path_for(key)
        atomic_write_text(path, json.dumps(envelope, indent=1) + "\n")
        self.stores += 1
        return path

    # ------------------------------------------------------------- management

    @property
    def quarantine_dir(self) -> Path:
        """Where :meth:`scrub` moves corrupt entries (outside the
        ``*.json`` glob, so quarantined files can never be served)."""
        return self.root / "quarantine"

    def scrub(self, quarantine: bool = True) -> Dict[str, Any]:
        """Proactively verify every result and trace entry's checksum;
        corrupt entries are moved into ``quarantine/`` (or unlinked with
        ``quarantine=False``).

        ``get`` already detects corruption lazily — but only for keys
        that are asked for again, and it *deletes* the evidence.  A scrub
        walks the whole cache up front and preserves the bad bytes for a
        post-mortem.  Safe against concurrent readers/writers/collectors
        the same way :meth:`gc` is: a file vanishing mid-walk is skipped.

        Returns a summary dict: ``checked``, ``ok``, ``corrupt``,
        ``quarantined``, ``removed``, ``quarantine_dir``.
        """
        checked = ok = corrupt = quarantined = removed = 0
        for path in list(self._entry_paths()) + list(self._trace_paths()):
            try:
                valid = self._valid(path)
            except OSError:
                continue  # vanished under us (concurrent gc/clear): skip
            checked += 1
            if valid:
                ok += 1
                continue
            corrupt += 1
            self.corrupt_dropped += 1
            try:
                if quarantine:
                    self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                    os.replace(path, self.quarantine_dir / path.name)
                    quarantined += 1
                else:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return {
            "root": str(self.root),
            "checked": checked,
            "ok": ok,
            "corrupt": corrupt,
            "quarantined": quarantined,
            "removed": removed,
            "quarantine_dir": str(self.quarantine_dir),
        }

    def _valid(self, path: Path) -> bool:
        """Whether the result or trace entry at ``path`` verifies."""
        if path.suffix == ".npy":
            try:
                load_entry(path)
            except CorruptEntry:
                return False
            return True
        return self._verify(path.read_bytes(), path.stem, path) is not None

    def entries(self) -> Iterator[Tuple[Path, Dict[str, Any]]]:
        """Yield ``(path, meta)`` for every readable entry."""
        for path in self._entry_paths():
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
                meta = envelope["payload"].get("meta", {})
            except Exception:
                meta = {}
            yield path, meta

    def gc(self, max_age_days: Optional[float] = None,
           keep: Optional[int] = None) -> int:
        """Drop result entries older than ``max_age_days`` and/or all but
        the newest ``keep``, and the same for trace entries (a hit
        refreshes a trace's age); returns the number removed.

        Safe to run concurrently with readers, writers, and other
        collectors: every ``stat``/``unlink`` tolerates the file vanishing
        between the directory listing and the call (the classic TOCTOU) —
        a racing :meth:`get` then simply sees a miss and re-simulates.
        Trace temp files a killed recorder left behind go once they are
        :data:`STALE_TEMP_DAYS` old.
        """
        stale = _glob(self.traces_root, ".*.tmp")
        return (_prune(self._entry_paths(), max_age_days, keep)
                + _prune(self._trace_paths(), max_age_days, keep)
                + _prune(stale, STALE_TEMP_DAYS, None))

    def clear(self) -> int:
        """Remove every result and trace entry; returns the number
        removed."""
        removed = 0
        for path in [*self._entry_paths(), *self._trace_paths(),
                     *_glob(self.traces_root, ".*.tmp")]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, Any]:
        """On-disk totals plus this process's hit/miss accounting."""
        paths = list(self._entry_paths())
        total_bytes = _size(paths)
        traces = list(self._trace_paths())
        lookups = self.hits + self.misses
        return {
            "root": str(self.root),
            "entries": len(paths),
            "bytes": total_bytes,
            "trace_entries": len(traces),
            "trace_bytes": _size(traces),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_dropped": self.corrupt_dropped,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


def _glob(root: Path, pattern: str) -> Iterator[Path]:
    if not root.is_dir():
        return iter(())
    return iter(sorted(root.glob(pattern)))


def _size(paths) -> int:
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            pass  # vanished under us (concurrent gc/clear)
    return total


def _prune(paths: Iterator[Path], max_age_days: Optional[float],
           keep: Optional[int]) -> int:
    """Unlink the ``paths`` older than ``max_age_days`` and/or all but
    the newest ``keep``; returns the number removed."""
    ages: Dict[Path, float] = {}
    for path in paths:
        try:
            ages[path] = path.stat().st_mtime
        except OSError:
            continue  # vanished under us (concurrent gc/clear): skip
    by_age = sorted(ages, key=ages.get, reverse=True)
    doomed = set()
    if max_age_days is not None:
        cutoff = time.time() - max_age_days * 86400.0
        doomed.update(p for p, mtime in ages.items() if mtime < cutoff)
    if keep is not None:
        doomed.update(by_age[keep:])
    removed = 0
    for path in doomed:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed

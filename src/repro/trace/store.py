"""Content-addressed trace store: synthesize a workload once, replay it.

The paper produced its ``pixie`` traces once and fed the same trace to
every per-configuration simulator binary.  The virtual trace of a
:class:`~repro.trace.synthetic.SyntheticBenchmark` depends only on its
profile (seed and instruction count included), its batch size and the
generator itself, never on the machine under test, so a sweep's points
can share one recording of it.  Translation stays per point: frame
allocation follows each run's first-touch order.

Layout, one file per profile under the store root (``<farm cache>/traces``)::

    <key>.npy    uncompressed .npy of ``instructions`` packed records
                 (pc uint32, addr uint32, flags uint8 = kind | partial<<2
                 | syscall<<3), followed by a JSON trailer and a 24-byte
                 footer (record count, trailer length, magic)

The key is the SHA-256 of the canonical profile dict, the batch size and
:data:`~repro.trace.synthetic.GENERATOR_VERSION`, so a change to the trace
model misses instead of replaying a stale stream.  The trailer holds the
key, the generator's ``state_dict()`` before every batch and after the
last, and a SHA-256 over the records and the snapshots.  ``np.load``
reads the records (the trailer sits past the array); the store itself
checks the header against the footer's count and memory-maps them.

A miss hands out a :class:`RecordingBenchmark`: the ordinary generator,
which streams each batch into a preallocated temp file and publishes it
with an atomic rename once the last batch is drawn.  Racing recorders of
one key publish identical bytes, so whichever rename lands last is as
good as the first.  Nothing is fsynced: an entry torn by a power loss
fails its checksum, is removed, and is synthesized again.  A hit hands
out a :class:`ReplaySource`, whose batches, boundaries and snapshots equal
the generator's, so a checkpoint taken on either resumes on the other.

Each process keeps the entries it opened (:data:`KEEP_OPEN` of them), so
a warm worker verifies an entry once and then replays it from its
mapping; a retained entry is re-verified whenever the file's identity or
mtime moves.  Entries are only ever replaced by rename or unlinked, never
written in place.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import logging
import mmap
import os
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.trace.record import TraceBatch
from repro.trace.synthetic import (
    GENERATOR_VERSION,
    BenchmarkProfile,
    SyntheticBenchmark,
    _DEFAULT_BATCH,
)

#: One packed trace record.
RECORD = np.dtype([("pc", "<u4"), ("addr", "<u4"), ("flags", "u1")])
_KIND_MASK = 0x3
_PARTIAL = 0x4
_SYSCALL = 0x8
_U32_MAX = 0xFFFF_FFFF

_FOOTER = struct.Struct("<QQ8s")
_FOOTER_MAGIC = b"reprotrc"

#: Entries each process keeps open (verified and mapped) for reuse.
KEEP_OPEN = 64
#: A hit refreshes the entry's mtime (the ``gc`` age) when it is older
#: than this, so workers sharing an entry do not re-verify each other's
#: touches on every point.
TOUCH_AFTER_S = 3600.0

OUTCOMES = ("hit", "miss", "corrupt")

_log = logging.getLogger("repro.trace.store")
_TMP_IDS = itertools.count()


@functools.lru_cache(maxsize=256)
def trace_key(profile: BenchmarkProfile,
              batch_size: int = _DEFAULT_BATCH) -> str:
    """Content address of one profile's trace."""
    from repro.core.serialization import profile_to_dict

    return hashlib.sha256(_canonical({
        "profile": profile_to_dict(profile),
        "batch_size": batch_size,
        "generator_version": GENERATOR_VERSION,
    })).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class CorruptEntry(ValueError):
    """A stored trace failed verification."""


@dataclass
class _Entry:
    """One verified, memory-mapped store entry."""

    records: np.ndarray
    states: List[dict]
    batch_size: int
    #: Identity of the file it was read from (see :func:`_signature`).
    signature: Tuple


def _signature(st: os.stat_result) -> Tuple:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


@functools.lru_cache(maxsize=16)
def _header(n: int) -> bytes:
    """The .npy header of an ``n``-record entry (its data starts after)."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": np.lib.format.dtype_to_descr(RECORD),
        "fortran_order": False, "shape": (n,)})
    return out.getvalue()


def _mapped(fh, n: int) -> np.ndarray:
    """The ``n`` records of the open entry ``fh``, memory-mapped."""
    mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return np.frombuffer(mapping, dtype=RECORD, count=n,
                         offset=len(_header(n)))


def load_entry(path: Path, key: Optional[str] = None) -> _Entry:
    """Open and fully verify one entry (``key`` defaults to the file
    name).  Raises ``FileNotFoundError`` when absent and
    :class:`CorruptEntry` for anything unreadable, truncated, of the
    wrong length or failing its checksum."""
    key = path.stem if key is None else key
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            fh.seek(st.st_size - _FOOTER.size)
            n, length, magic = _FOOTER.unpack(fh.read(_FOOTER.size))
            if magic != _FOOTER_MAGIC or n <= 0:
                raise CorruptEntry("no trace footer")
            header = _header(n)
            end = len(header) + n * RECORD.itemsize
            if end + length + _FOOTER.size != st.st_size:
                raise CorruptEntry("truncated or wrong length")
            fh.seek(0)
            if fh.read(len(header)) != header:
                raise CorruptEntry("unexpected array header")
            fh.seek(end)
            trailer = json.loads(fh.read(length).decode("utf-8"))
            batch_size = int(trailer["batch_size"])
            states = trailer["states"]
            if trailer["key"] != key or batch_size <= 0 \
                    or len(states) != -(-n // batch_size) + 1:
                raise CorruptEntry("trailer does not match the entry")
            records = _mapped(fh, n)
            sha = hashlib.sha256(records.view(np.uint8))
            sha.update(_canonical(states))
            if sha.hexdigest() != trailer["sha256"]:
                raise CorruptEntry("checksum mismatch")
    except (CorruptEntry, FileNotFoundError):
        raise
    except (ValueError, OSError, KeyError, TypeError, struct.error) as exc:
        raise CorruptEntry(f"unreadable: {exc}") from exc
    return _Entry(records, states, batch_size, _signature(st))


#: This process's open entries, by path, least recently used first.  They
#: are per process, not per store, because a warm worker builds a new
#: store for every task and the entries must outlive it.
_OPEN: "OrderedDict[str, _Entry]" = OrderedDict()


def _retain(path: Path, entry: _Entry) -> None:
    _OPEN[str(path)] = entry
    while len(_OPEN) > KEEP_OPEN:
        try:
            _OPEN.popitem(last=False)
        except KeyError:  # another thread evicted it first
            break


class TraceStore:
    """A directory of stored traces.

    :meth:`source` returns the trace source for one profile and counts
    the lookup in :attr:`counts` (``hit``, ``miss`` or ``corrupt``; a
    corrupt entry is removed and synthesized again).  :meth:`close`
    discards recordings left unfinished, e.g. by an instruction budget.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.counts: Dict[str, int] = dict.fromkeys(OUTCOMES, 0)
        self._recorders: List["RecordingBenchmark"] = []

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npy"

    def source(self, profile: BenchmarkProfile,
               batch_size: int = _DEFAULT_BATCH):
        """A :class:`ReplaySource` on a hit, else a recording generator."""
        key = trace_key(profile, batch_size)
        path = self.path_for(key)
        entry, outcome = self._lookup(path, key)
        self.counts[outcome] += 1
        if entry is not None:
            return ReplaySource(profile, entry)
        recorder = RecordingBenchmark(profile, batch_size, path)
        self._recorders.append(recorder)
        return recorder

    def _lookup(self, path: Path, key: str):
        name = str(path)
        entry = _OPEN.pop(name, None)
        try:
            st = os.stat(path)
        except OSError:
            return None, "miss"
        if entry is None or entry.signature != _signature(st):
            try:
                entry = load_entry(path, key)
            except FileNotFoundError:
                return None, "miss"
            except CorruptEntry as exc:
                _log.warning("trace store: dropping %s (%s)", path, exc)
                try:
                    path.unlink()
                except OSError:
                    pass
                return None, "corrupt"
        if time.time() - st.st_mtime > TOUCH_AFTER_S:
            try:
                os.utime(path)
                entry.signature = _signature(os.stat(path))
            except OSError:
                pass
        _retain(path, entry)
        return entry, "hit"

    def close(self) -> None:
        """Discard every unfinished recording."""
        for recorder in self._recorders:
            recorder.abandon()
        self._recorders = []


def _encode(batch: TraceBatch) -> Optional[np.ndarray]:
    """The batch as packed records, or ``None`` if a value does not fit."""
    if len(batch) == 0 or min(batch.pc.min(), batch.addr.min()) < 0 \
            or max(batch.pc.max(), batch.addr.max()) > _U32_MAX \
            or batch.kind.max() > _KIND_MASK:
        return None
    records = np.empty(len(batch), dtype=RECORD)
    records["pc"] = batch.pc
    records["addr"] = batch.addr
    records["flags"] = (batch.kind
                        | (batch.partial.view(np.uint8) << 2)
                        | (batch.syscall.view(np.uint8) << 3))
    return records


def _decode(records: np.ndarray) -> TraceBatch:
    flags = records["flags"]
    return TraceBatch(pc=records["pc"], kind=flags & _KIND_MASK,
                      addr=records["addr"],
                      partial=(flags & _PARTIAL) != 0,
                      syscall=(flags & _SYSCALL) != 0)


class RecordingBenchmark(SyntheticBenchmark):
    """The generator, recording its batches into the store as it goes.

    Recording stops (and the temp file goes) if the trace leaves the
    default batch boundaries (``max_len``, ``load_state``, ``reset``), a
    value does not fit its narrowed dtype, or the disk write fails; the
    generator itself carries on either way.
    """

    def __init__(self, profile: BenchmarkProfile, batch_size: int,
                 path: Path):
        super().__init__(profile, batch_size)
        self._path = path
        self._recording = True
        self._tmp: Optional[Path] = None
        self._fh = None
        self._sha = hashlib.sha256()
        self._states: List[dict] = []

    def next_batch(self, max_len: Optional[int] = None
                   ) -> Optional[TraceBatch]:
        if not self._recording or self.done:
            return super().next_batch(max_len)
        state = self.state_dict()
        batch = super().next_batch(max_len)
        if len(batch) != min(self.batch_size,
                             self.profile.instructions - state["emitted"]):
            self.abandon()
            return batch
        records = _encode(batch)
        if records is None:
            _log.warning("trace store: %s does not fit the stored dtypes; "
                         "not recording it", self.profile.name)
            self.abandon()
            return batch
        try:
            self._write(state, records)
        except OSError as exc:
            _log.warning("trace store: cannot record %s (%s)",
                         self._path, exc)
            self.abandon()
        return batch

    def _write(self, state: dict, records: np.ndarray) -> None:
        n = self.profile.instructions
        if self._fh is None:
            self._tmp = self._path.with_name(
                f".{self._path.stem}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
            try:
                self._fh = open(self._tmp, "wb")
            except FileNotFoundError:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self._tmp, "wb")
            header = _header(n)
            self._fh.write(header)
            self._fh.truncate(len(header) + n * RECORD.itemsize)
        self._states.append(state)
        data = records.view(np.uint8)
        self._fh.write(data)
        self._sha.update(data)
        if not self.done:
            return
        self._states.append(self.state_dict())
        self._sha.update(_canonical(self._states))
        trailer = _canonical({
            "key": self._path.stem,
            "batch_size": self.batch_size,
            "states": self._states,
            "sha256": self._sha.hexdigest(),
        })
        self._fh.write(trailer)
        self._fh.write(_FOOTER.pack(n, len(trailer), _FOOTER_MAGIC))
        self._fh.close()
        self._fh = None
        os.replace(self._tmp, self._path)
        self._tmp = None
        self._recording = False
        # This process replays what it just wrote without verifying it.
        with open(self._path, "rb") as fh:
            _retain(self._path, _Entry(_mapped(fh, n), self._states,
                                       self.batch_size,
                                       _signature(os.fstat(fh.fileno()))))

    def abandon(self) -> None:
        """Stop recording and remove the unfinished temp file."""
        self._recording = False
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._tmp is not None:
            try:
                os.unlink(self._tmp)
            except OSError:
                pass
            self._tmp = None

    def load_state(self, state: dict) -> None:
        self.abandon()
        super().load_state(state)

    def reset(self) -> None:
        self.abandon()
        super().reset()


def _copied(state):
    """A copy of a snapshot's nested dicts (the values are immutable)."""
    if isinstance(state, dict):
        return {key: _copied(value) for key, value in state.items()}
    return state


class ReplaySource:
    """A stored trace, replayed: the same batches at the same boundaries
    as :class:`SyntheticBenchmark`, and the same ``state_dict`` snapshots.

    A request off the recorded boundaries (a ``max_len`` that cuts a
    batch, or a snapshot between them) hands the rest of the trace to a
    live generator restored from the nearest recorded state, so the
    source behaves exactly like the generator in every case.
    """

    def __init__(self, profile: BenchmarkProfile, entry: _Entry):
        self.profile = profile
        self.batch_size = entry.batch_size
        self._entry = entry
        self._index = 0
        self._live: Optional[SyntheticBenchmark] = None

    @property
    def instructions_remaining(self) -> int:
        if self._live is not None:
            return self._live.instructions_remaining
        return max(0, self.profile.instructions
                   - self._index * self.batch_size)

    @property
    def done(self) -> bool:
        return self.instructions_remaining == 0

    def next_batch(self, max_len: Optional[int] = None
                   ) -> Optional[TraceBatch]:
        if self._live is None:
            remaining = self.instructions_remaining
            if remaining == 0:
                return None
            want = min(self.batch_size, remaining)
            if max_len is None or min(max_len, remaining) == want:
                lo = self._index * self.batch_size
                self._index += 1
                return _decode(self._entry.records[lo:lo + want])
            self._go_live(self.state_dict())
        return self._live.next_batch(max_len)

    def _go_live(self, state: dict) -> None:
        self._live = SyntheticBenchmark(self.profile, self.batch_size)
        self._live.load_state(state)

    def reset(self) -> None:
        self._index = 0
        self._live = None

    def state_dict(self) -> dict:
        if self._live is not None:
            return self._live.state_dict()
        return _copied(self._entry.states[self._index])

    def load_state(self, state: dict) -> None:
        states = self._entry.states
        try:
            index = -(-int(state["emitted"]) // self.batch_size)
        except (KeyError, TypeError, ValueError):
            index = -1
        if 0 <= index < len(states) and states[index] == state:
            self._index = index
            self._live = None
        else:
            self._go_live(state)

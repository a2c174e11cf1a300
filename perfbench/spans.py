"""In-memory span recording around calls into the simulator's layers.

A :class:`Tracer` replaces a public function or method with a wrapper
that records one span per call: name, start, end, parent span, request
id, and one integer the layer counts (records generated, instructions
consumed, ...).  Spans live in per-thread ``array`` buffers, so recording
needs no lock and half a million spans cost a few tens of megabytes;
:meth:`Tracer.spans` merges them and :func:`write_spans` saves them when
the run ends.

Nothing here changes the program: wrappers are installed by
:meth:`Tracer.patch` and removed by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Columns of a span table (all int64): name id, parent row (-1 = root),
#: start/end in ``perf_counter_ns`` units, counted value, request id, and
#: the index of the thread that recorded it.
COLUMNS = ("name", "parent", "start", "end", "value", "rid", "thread")


class _Buffer:
    __slots__ = ("name", "parent", "start", "end", "value", "rid", "stack")

    def __init__(self) -> None:
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self.rid = array("q")
        self.stack: List[int] = []


class Tracer:
    """Records spans from wrapped callables, one buffer per thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[tuple] = []

    # ------------------------------------------------------------ recording

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            self._local.rid = 0
            return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def set_request(self, rid: int) -> None:
        """Tag spans this thread opens from now on with request ``rid``."""
        self._buffer()
        self._local.rid = rid

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.

        ``count(result, args)`` gives the span's value; without it the
        value is 0.
        """
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            row = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.value.append(0)
            buf.rid.append(tracer._local.rid)
            buf.end.append(0)
            stack.append(row)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[row] = clock()
                stack.pop()
            if count is not None:
                buf.value[row] = count(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def forget(self) -> None:
        """Drop every span and thread buffer recorded so far.  A forked
        child calls this first, so it keeps only the spans it records."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []

    # -------------------------------------------------------------- patching

    def patch(self, owner, attr: str, name: str,
              count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module function, method, or
        staticmethod) with a traced wrapper until :meth:`restore`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, name, count))
        else:
            wrapped = self.wrap(raw, name, count)
        self.substitute(owner, attr, wrapped, original=raw)

    def substitute(self, owner, attr: str, new, original=None) -> None:
        """Set ``owner.attr = new`` until :meth:`restore`."""
        if original is None:
            original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every original patched by this tracer."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ---------------------------------------------------------------- output

    def spans(self) -> Dict[str, np.ndarray]:
        """Every closed span as columns (see :data:`COLUMNS`)."""
        parts: Dict[str, List[np.ndarray]] = {c: [] for c in COLUMNS}
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for thread, buf in enumerate(buffers):
            n = len(buf.end)
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:n].copy()
            parent[parent >= 0] += offset
            parts["parent"].append(parent)
            for column in ("name", "start", "end", "value", "rid"):
                parts[column].append(np.frombuffer(
                    getattr(buf, column), dtype=np.int64)[:n].copy())
            parts["thread"].append(np.full(n, thread, dtype=np.int64))
            offset += n
        table = {c: (np.concatenate(v) if v else np.zeros(0, np.int64))
                 for c, v in parts.items()}
        open_rows = table["end"] == 0
        if open_rows.any():
            raise RuntimeError(f"{int(open_rows.sum())} spans never closed")
        return table


def self_times(spans: Dict[str, np.ndarray]) -> np.ndarray:
    """Exclusive seconds of every span.

    Within one thread a span's self time is its duration minus its
    children's durations.  Where spans of several threads (or processes)
    overlap, each instant is shared equally among the threads busy at
    that instant, so the self times of all spans never exceed the wall
    time they cover.  With one thread both rules agree.
    """
    parent = spans["parent"]
    n = len(parent)
    if n == 0:
        return np.zeros(0)
    origin = spans["start"].min()
    start, end = spans["start"] - origin, spans["end"] - origin
    # A thread is busy while one of its root spans is open, and its root
    # spans never overlap, so the root spans give the busy-thread count.
    # ``shared(t)`` is the integral of 1 / busy threads up to ``t``; it
    # is linear between root-span boundaries.
    roots = parent < 0
    times = np.unique(np.concatenate([start[roots], end[roots]]))
    busy = (np.searchsorted(np.sort(start[roots]), times[:-1], "right")
            - np.searchsorted(np.sort(end[roots]), times[:-1], "right"))
    weight = np.diff(times) / np.maximum(busy, 1) * (busy > 0)
    shared = np.concatenate([[0.0], np.cumsum(weight)])
    duration = np.interp(end, times, shared) - np.interp(start, times, shared)
    has_parent = ~roots
    child = np.bincount(parent[has_parent], weights=duration[has_parent],
                        minlength=n)
    return (duration - child) / 1e9


def layer_totals(spans: Dict[str, np.ndarray], names: List[str]
                 ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, summed ``self_s`` and ``total_s``, and
    the sum and maximum of ``value``."""
    own = self_times(spans)
    duration = (spans["end"] - spans["start"]) / 1e9
    out: Dict[str, Dict[str, float]] = {}
    for nid, name in enumerate(names):
        rows = spans["name"] == nid
        out[name] = {
            "calls": int(rows.sum()),
            "self_s": float(own[rows].sum()),
            "total_s": float(duration[rows].sum()),
            "value": int(spans["value"][rows].sum()),
            "max_value": int(spans["value"][rows].max(initial=0)),
        }
    return out


def write_spans(path, spans: Dict[str, np.ndarray], names: List[str]) -> None:
    """Save a span table and its name list as one ``.npz`` file."""
    np.savez(path, names=np.array(names), **spans)


def read_spans(path) -> Tuple[Dict[str, np.ndarray], List[str]]:
    """A span table and its name list saved by :func:`write_spans`."""
    with np.load(path) as saved:
        return ({c: saved[c] for c in COLUMNS},
                [str(name) for name in saved["names"]])


def merge_spans(spans: Dict[str, np.ndarray], names: List[str],
                others: Sequence[Tuple[Dict[str, np.ndarray], List[str]]]
                ) -> Dict[str, np.ndarray]:
    """``spans`` followed by span tables recorded in other processes.

    Their names are mapped onto ``names`` (which grows as needed) and
    their threads get indices of their own.
    """
    parts = [spans]
    offset = len(spans["start"])
    threads = int(spans["thread"].max(initial=-1)) + 1
    for table, their_names in others:
        for name in their_names:
            if name not in names:
                names.append(name)
        ids = np.array([names.index(name) for name in their_names],
                       dtype=np.int64)
        part = dict(table)
        part["name"] = ids[table["name"]]
        part["parent"] = np.where(table["parent"] >= 0,
                                  table["parent"] + offset, -1)
        part["thread"] = table["thread"] + threads
        parts.append(part)
        offset += len(table["start"])
        threads += int(table["thread"].max(initial=-1)) + 1
    return {c: np.concatenate([part[c] for part in parts]) for c in COLUMNS}

"""Virtual memory: per-process address spaces and page-coloring allocation.

The target machine translates a PID-prefixed virtual address to a physical
address using *page coloring* [TDF90]: a virtual page is always mapped to a
physical frame whose low-order frame-number bits (the "color") equal the
corresponding virtual page-number bits.  This keeps the index bits of
physically-indexed caches identical under translation, so the simulator can
study cache behaviour on physical addresses while the L1 caches remain
virtually indexed / physically tagged without inconsistent synonyms
(paper, Sections 2 and 3).

Frames are allocated on first touch and never reclaimed — the paper models no
paging activity, and at simulation scale physical memory is unbounded.

To keep distinct processes from piling onto the same cache sets (their
virtual layouts are all alike), the allocator offsets each process's colors
by a PID-dependent stride, the page-coloring equivalent of the "bin hopping"
real colored allocators use.  Within a process, sequential virtual pages
still receive sequential colors, so contiguous regions never self-conflict
within the color span — the property page coloring exists to provide.

Batch translation
-----------------

:meth:`PageTable.translate_batch` translates a whole trace column.  The
mapping itself lives only in ``_map`` (what ``state_dict`` saves); the
batch paths keep per-pid lookup caches over it, which ``reset`` and
``load_state`` drop.  Frames never move, so a cache can only lack entries,
never hold stale ones.  Which lookup runs follows the engine that drives
the memory system this table was told to :meth:`~PageTable.follow`:

* under the native engine, ``repro_translate`` in the engine's compiled
  library probes a per-pid open-addressing table (NumPy arrays of vpages
  and frames, starting at :data:`INITIAL_SLOTS` slots and doubling at
  half load) in one pass per column;
* otherwise (the reference engine, requested or fallen back to, or a
  table that follows nothing) a ``np.searchsorted`` over the pid's sorted
  known pages — the ground truth.

Either way, pages a batch touches for the first time are allocated
through :meth:`PageTable.translate_page`, one call per page in ascending
page order.  That first-touch rule makes frames a deterministic function
of the trace, makes the two paths allocate identically, and keeps
subclasses that override ``translate_page`` (the coloring ablation's
random allocator) working on both.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.params import MAX_PROCESSES, PAGE_WORDS, is_power_of_two, log2i

#: Default number of page colors.  256 colors x 4 KW pages = 1024 KW, enough
#: to keep index bits stable for every cache size the paper sweeps.
DEFAULT_COLORS = 256

#: PID stride for color bin-hopping (odd, so every color is reachable).
_PID_COLOR_STRIDE = 97

_NO_PAGES = np.zeros(0, dtype=np.int64)
_PAGE_SHIFT = log2i(PAGE_WORDS)

#: Slots of a new per-pid table of the compiled lookup (it doubles
#: whenever it would pass half load).
INITIAL_SLOTS = 1024
#: Key of an empty slot and frame of a listed, unallocated page
#: (``NO_PAGE`` and ``PENDING`` in ``native.c``).
_NO_PAGE = np.iinfo(np.int64).min
_PENDING = -1


class PageTable:
    """Global first-touch frame allocator with page coloring.

    Attributes:
        colors: number of page colors (power of two).
    """

    def __init__(self, colors: int = DEFAULT_COLORS):
        if not is_power_of_two(colors):
            raise ConfigurationError("page color count must be a power of two")
        self.colors = colors
        self._map: Dict[Tuple[int, int], int] = {}
        self._next_in_color = [0] * colors
        #: Per pid, the sorted vpages :meth:`translate_batch` has seen and
        #: their frames: a lookup cache over ``_map`` (frames never move,
        #: so it only ever lacks entries, never holds stale ones).
        self._known: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: Per pid, the compiled lookup's table: ``[keys, frames, used]``
        #: (another cache over ``_map``).
        self._tables: Dict[int, List] = {}
        self._memsys = None

    def follow(self, memsys) -> None:
        """Translate batches with the lookup of the engine driving
        ``memsys``, checked on every batch (a mid-run fallback to the
        reference engine switches too)."""
        self._memsys = memsys

    @property
    def compiled(self) -> bool:
        """Whether :meth:`translate_batch` uses the native library."""
        memsys = self._memsys
        return memsys is not None and memsys.engine.name == "native"

    def __len__(self) -> int:
        return len(self._map)

    @property
    def frames_allocated(self) -> int:
        """Total number of physical frames handed out."""
        return len(self._map)

    def translate_page(self, pid: int, vpage: int) -> int:
        """Map a (pid, virtual page) to its physical frame, allocating on miss."""
        if not 0 <= pid < MAX_PROCESSES:
            raise ConfigurationError(f"pid {pid} out of range")
        key = (pid, vpage)
        frame = self._map.get(key)
        if frame is None:
            color = (vpage + pid * _PID_COLOR_STRIDE) % self.colors
            frame = color + self.colors * self._next_in_color[color]
            self._next_in_color[color] += 1
            self._map[key] = frame
        return frame

    def translate(self, pid: int, word_addr: int) -> int:
        """Translate a single virtual word address to a physical word address."""
        vpage, offset = divmod(word_addr, PAGE_WORDS)
        return self.translate_page(pid, vpage) * PAGE_WORDS + offset

    def translate_batch(self, pid: int, word_addrs: np.ndarray) -> np.ndarray:
        """Vectorized translation of a batch of virtual word addresses.

        Pages this pid has translated before are looked up (compiled or
        NumPy, see the module docstring); only pages never seen go through
        :meth:`translate_page`, in ascending page order.
        """
        if self.compiled:
            return self._translate_compiled(pid, word_addrs)
        return self._translate_searchsorted(pid, word_addrs)

    def _translate_searchsorted(self, pid: int,
                                word_addrs: np.ndarray) -> np.ndarray:
        """The NumPy lookup: one ``np.searchsorted`` over the pid's
        sorted known pages."""
        vpages = word_addrs >> _PAGE_SHIFT  # floor division by PAGE_WORDS
        offsets = word_addrs & (PAGE_WORDS - 1)
        known_pages, known_frames = self._known.get(pid, (_NO_PAGES,
                                                          _NO_PAGES))
        positions = np.searchsorted(known_pages, vpages)
        if len(known_pages):
            found = known_pages[np.minimum(positions,
                                           len(known_pages) - 1)] == vpages
        else:
            found = np.zeros(len(vpages), dtype=bool)
        if not found.all():
            # Sort-based unique: np.unique's hash path keeps about 1 MB
            # allocated for the rest of the process.
            missing = np.sort(vpages[~found])
            first = np.ones(len(missing), dtype=bool)
            first[1:] = missing[1:] != missing[:-1]
            new_pages = missing[first]
            new_frames = np.array([self.translate_page(pid, int(vpage))
                                   for vpage in new_pages], dtype=np.int64)
            known_pages = np.concatenate([known_pages, new_pages])
            known_frames = np.concatenate([known_frames, new_frames])
            order = np.argsort(known_pages, kind="stable")
            known_pages = known_pages[order]
            known_frames = known_frames[order]
            self._known[pid] = (known_pages, known_frames)
            positions = np.searchsorted(known_pages, vpages)
        return (known_frames[positions] << _PAGE_SHIFT) | offsets

    def _translate_compiled(self, pid: int,
                            word_addrs: np.ndarray) -> np.ndarray:
        """The compiled lookup: ``repro_translate`` over the pid's table,
        then, if it listed new pages, their allocation and a second call."""
        from repro.core.engine.native import kernel

        translate = kernel().translate
        words = np.ascontiguousarray(word_addrs, dtype=np.int64)
        if words.ndim != 1:
            raise ValueError(f"translate_batch takes one column, not an "
                             f"array of shape {words.shape}")
        n = len(words)
        out = np.empty(n, dtype=np.int64)
        table = self._tables.get(pid)
        if table is None:
            table = self._tables[pid] = _empty_table(INITIAL_SLOTS)
        while True:
            keys, frames, used = table
            room = len(keys) // 2 - used
            missed = np.empty(room, dtype=np.int64)
            count = translate(keys.ctypes.data, frames.ctypes.data,
                              len(keys) - 1, room, words.ctypes.data, n,
                              _PAGE_SHIFT, out.ctypes.data,
                              missed.ctypes.data)
            if count >= 0:
                break
            table = self._tables[pid] = _grown(translate, keys, frames)
        if count:
            slots = missed[:count]
            slots = slots[np.argsort(keys[slots])]
            try:
                for slot, vpage in zip(slots.tolist(), keys[slots].tolist()):
                    frames[slot] = self.translate_page(pid, vpage)
            except BaseException:
                self._tables.pop(pid, None)  # drops the PENDING entries
                raise
            table[2] = used + count
            translate(keys.ctypes.data, frames.ctypes.data, len(keys) - 1,
                      0, words.ctypes.data, n, _PAGE_SHIFT,
                      out.ctypes.data, missed.ctypes.data)
        return out

    def color_of_frame(self, frame: int) -> int:
        """The color of a physical frame."""
        return frame % self.colors

    def reset(self) -> None:
        """Forget all mappings (fresh machine)."""
        self._map.clear()
        self._known.clear()
        self._tables.clear()
        self._next_in_color = [0] * self.colors

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of every mapping and allocator cursor."""
        return {
            "colors": self.colors,
            "map": [[pid, vpage, frame]
                    for (pid, vpage), frame in self._map.items()],
            "next_in_color": list(self._next_in_color),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.errors import CheckpointError

        try:
            if int(state["colors"]) != self.colors:
                raise CheckpointError(
                    f"page-table snapshot has {state['colors']} colors, "
                    f"expected {self.colors}"
                )
            next_in_color = [int(n) for n in state["next_in_color"]]
            if len(next_in_color) != self.colors:
                raise CheckpointError(
                    "page-table snapshot cursor length mismatch")
            self._map = {(int(pid), int(vpage)): int(frame)
                         for pid, vpage, frame in state["map"]}
            self._next_in_color = next_in_color
            self._known.clear()
            self._tables.clear()
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed page-table snapshot: {exc}") from exc


def _empty_table(slots: int) -> List:
    """A compiled-lookup table with ``slots`` empty slots."""
    return [np.full(slots, _NO_PAGE, dtype=np.int64),
            np.full(slots, _PENDING, dtype=np.int64), 0]


def _grown(translate, keys: np.ndarray, frames: np.ndarray) -> List:
    """``keys``/``frames`` rehashed into twice the slots, without the
    entries still PENDING; ``translate`` inserts the live pages."""
    live = frames >= 0
    pages, page_frames = keys[live], frames[live]
    table = _empty_table(2 * len(keys))
    new_keys, new_frames, _ = table
    slots = np.empty(len(pages), dtype=np.int64)
    junk = np.empty(len(pages), dtype=np.int64)  # rows of PENDING pages
    translate(new_keys.ctypes.data, new_frames.ctypes.data,
              len(new_keys) - 1, len(pages), pages.ctypes.data,
              len(pages), 0, junk.ctypes.data, slots.ctypes.data)
    new_frames[slots] = page_frames
    table[2] = len(pages)
    return table

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
"""

from __future__ import annotations

from typing import Dict, Tuple

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

        Pages this pid has translated before are found with one
        ``np.searchsorted`` over its sorted known pages; only pages never
        seen go through :meth:`translate_page`, in ascending page order —
        the order first-touch allocation has always used, so frames are
        deterministic for a deterministic trace.
        """
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

    def color_of_frame(self, frame: int) -> int:
        """The color of a physical frame."""
        return frame % self.colors

    def reset(self) -> None:
        """Forget all mappings (fresh machine)."""
        self._map.clear()
        self._known.clear()
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
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed page-table snapshot: {exc}") from exc

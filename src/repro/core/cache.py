"""A generic set-associative cache model.

Used directly for the secondary cache (1-way and 2-way in the paper) and for
standalone miss-ratio studies (e.g. the L1 size/associativity ablation of
Section 5).  The L1 hot path in :mod:`repro.core.hierarchy` keeps its own flat
tag arrays for speed; this class is the reference model those arrays must
agree with (checked by tests).

State is tracked per line: tag, dirty.  Addresses given to the cache are
*line* addresses (word address >> log2(line_words)); the caller owns that
shift so one cache object never mixes granularities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.obs import runtime as _obs
from repro.params import is_power_of_two, log2i

#: Tag value meaning "invalid line".
INVALID = -1


@dataclass
class FillResult:
    """Outcome of a line fill."""

    victim_tag: int
    victim_dirty: bool

    @property
    def evicted(self) -> bool:
        """True when a valid line was displaced."""
        return self.victim_tag != INVALID


class Cache:
    """A set-associative cache with true-LRU replacement.

    Args:
        size_words: capacity in words (power of two).
        line_words: line size in words (power of two).
        ways: associativity (power of two; 1 = direct-mapped).
    """

    def __init__(self, size_words: int, line_words: int, ways: int = 1):
        for name, value in (("size_words", size_words),
                            ("line_words", line_words), ("ways", ways)):
            if not is_power_of_two(value):
                raise ConfigurationError(f"{name} must be a power of two")
        if line_words * ways > size_words:
            raise ConfigurationError("cache smaller than one set")
        self.size_words = size_words
        self.line_words = line_words
        self.ways = ways
        self.lines = size_words // line_words
        self.sets = self.lines // ways
        self.index_mask = self.sets - 1
        self.line_shift = log2i(line_words)
        # One flat slot array for every associativity: set ``i`` owns slots
        # ``i*ways .. i*ways+ways-1``, most recently used first, empty
        # (INVALID) slots last.  Direct-mapped is the ``ways == 1`` case.
        # The native engine drives the same layout as NumPy arrays.
        self._tags: List[int] = [INVALID] * self.lines
        self._dirty: List[bool] = [False] * self.lines
        self.hits = 0
        self.misses = 0
        #: Optional observability tag: when set (e.g. ``"l2d"`` or an
        #: ablation label) and tracing is enabled, misses emit
        #: ``cache_miss`` events to the :mod:`repro.obs` sink.
        self.trace_name = None

    # ------------------------------------------------------------- inspection

    def set_index(self, line_addr: int) -> int:
        """The set a line address maps to."""
        return line_addr & self.index_mask

    def _slot(self, line_addr: int) -> int:
        """The slot holding ``line_addr``, or -1 when it is absent."""
        base = (line_addr & self.index_mask) * self.ways
        for slot in range(base, base + self.ways):
            if self._tags[slot] == line_addr:
                return slot
        return -1

    def contains(self, line_addr: int) -> bool:
        """Non-mutating presence check (no LRU update, no counters)."""
        return self._slot(line_addr) >= 0

    def is_dirty(self, line_addr: int) -> bool:
        """True when the line is present and dirty."""
        slot = self._slot(line_addr)
        return slot >= 0 and bool(self._dirty[slot])

    @property
    def valid_lines(self) -> int:
        """Number of valid lines currently resident."""
        return sum(1 for t in self._tags if t != INVALID)

    def _set_entries(self):
        """Per set, the resident ``(tag, dirty)`` pairs, MRU first."""
        tags = list(self._tags)
        dirty = list(self._dirty)
        ways = self.ways
        return [[(int(tags[slot]), bool(dirty[slot]))
                 for slot in range(base, base + ways)
                 if tags[slot] != INVALID]
                for base in range(0, self.lines, ways)]

    # ------------------------------------------------------------- operations

    def access(self, line_addr: int, write: bool = False
               ) -> Tuple[bool, FillResult]:
        """Reference a line, allocating on miss.

        Returns ``(hit, fill)``; ``fill`` describes the displaced victim
        (``FillResult(INVALID, False)`` on hits and on fills into empty ways).
        A ``write`` marks the line dirty (write-back, write-allocate).
        """
        index = line_addr & self.index_mask
        if self.ways == 1:
            tags = self._tags
            if tags[index] == line_addr:
                self.hits += 1
                if write:
                    self._dirty[index] = True
                return True, FillResult(INVALID, False)
            self.misses += 1
            victim_tag = tags[index]
            victim_dirty = self._dirty[index] if victim_tag != INVALID else False
            tags[index] = line_addr
            self._dirty[index] = write
            if _obs.enabled and self.trace_name is not None:
                _obs.tracer.emit("cache_miss", name=self.trace_name,
                                 line=line_addr, write=write,
                                 victim_dirty=victim_dirty)
            return False, FillResult(victim_tag, victim_dirty)

        tags = self._tags
        dirty = self._dirty
        base = index * self.ways
        last = base + self.ways - 1
        for slot in range(base, last + 1):
            if tags[slot] == line_addr:
                self.hits += 1
                was_dirty = dirty[slot] or write
                tags[base + 1:slot + 1] = tags[base:slot]
                dirty[base + 1:slot + 1] = dirty[base:slot]
                tags[base] = line_addr
                dirty[base] = was_dirty
                return True, FillResult(INVALID, False)
        self.misses += 1
        victim_tag = tags[last]
        victim_dirty = bool(dirty[last]) if victim_tag != INVALID else False
        tags[base + 1:last + 1] = tags[base:last]
        dirty[base + 1:last + 1] = dirty[base:last]
        tags[base] = line_addr
        dirty[base] = write
        if _obs.enabled and self.trace_name is not None:
            _obs.tracer.emit("cache_miss", name=self.trace_name,
                             line=line_addr, write=write,
                             victim_dirty=victim_dirty)
        return False, FillResult(victim_tag, victim_dirty)

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns True when something was dropped."""
        slot = self._slot(line_addr)
        if slot < 0:
            return False
        # Close the gap so empty slots stay last in the set.
        last = (line_addr & self.index_mask) * self.ways + self.ways - 1
        self._tags[slot:last] = self._tags[slot + 1:last + 1]
        self._dirty[slot:last] = self._dirty[slot + 1:last + 1]
        self._tags[last] = INVALID
        self._dirty[last] = False
        return True

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = sum(1 for t, d in zip(self._tags, self._dirty)
                    if t != INVALID and d)
        self._tags = [INVALID] * self.lines
        self._dirty = [False] * self.lines
        return dirty

    @property
    def accesses(self) -> int:
        """Total references."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses per reference."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_counters(self) -> None:
        """Zero hit/miss counters without touching contents."""
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of contents and counters (checkpointing)."""
        state = {
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.ways == 1:
            state["tags"] = [int(t) for t in self._tags]
            state["dirty"] = [bool(d) for d in self._dirty]
        else:
            state["sets"] = [[[tag, dirty] for tag, dirty in entries]
                             for entries in self._set_entries()]
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this cache.

        The cache geometry must match the snapshot; mismatches raise
        :class:`~repro.errors.CheckpointError`.
        """
        from repro.errors import CheckpointError

        try:
            if self.ways == 1:
                tags = [int(t) for t in state["tags"]]
                dirty = [bool(d) for d in state["dirty"]]
                if len(tags) != self.sets or len(dirty) != self.sets:
                    raise CheckpointError(
                        f"cache snapshot has {len(tags)} sets, "
                        f"expected {self.sets}"
                    )
            else:
                sets = state["sets"]
                if len(sets) != self.sets:
                    raise CheckpointError(
                        f"cache snapshot has {len(sets)} sets, "
                        f"expected {self.sets}"
                    )
                tags = [INVALID] * self.lines
                dirty = [False] * self.lines
                for index, entries in enumerate(sets):
                    if len(entries) > self.ways:
                        raise CheckpointError(
                            f"cache snapshot set {index} holds "
                            f"{len(entries)} lines, associativity is "
                            f"{self.ways}")
                    for k, (tag, is_dirty) in enumerate(entries):
                        tags[index * self.ways + k] = int(tag)
                        dirty[index * self.ways + k] = bool(is_dirty)
            self._tags = tags
            self._dirty = dirty
            self.hits = int(state["hits"])
            self.misses = int(state["misses"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed cache snapshot: {exc}") from exc

    def check_invariants(self, name: str = "cache") -> None:
        """Assert structural integrity; raises
        :class:`~repro.errors.StateCorruptionError` on violation.

        Checks that every stored tag maps back to the set holding it (which
        catches bit flips in the index range of a tag), that empty slots
        come last in their set, and that no set holds duplicate tags.
        """
        from repro.errors import StateCorruptionError

        tags = list(self._tags)
        for index in range(self.sets):
            seen = set()
            empty = False
            for slot in range(index * self.ways, (index + 1) * self.ways):
                tag = int(tags[slot])
                if tag == INVALID:
                    empty = True
                    continue
                if (tag & self.index_mask) != index:
                    raise StateCorruptionError(
                        f"{name}: tag {tag:#x} stored at set {index} does not "
                        f"map there",
                        details={"structure": name, "set": index, "tag": tag},
                    )
                if empty:
                    raise StateCorruptionError(
                        f"{name}: set {index} holds tag {tag:#x} behind an "
                        f"empty slot",
                        details={"structure": name, "set": index, "tag": tag},
                    )
                if tag in seen:
                    raise StateCorruptionError(
                        f"{name}: duplicate tag {tag:#x} in set {index}",
                        details={"structure": name, "set": index, "tag": tag},
                    )
                seen.add(tag)


def simulate_miss_ratio(cache: Cache, word_addrs, warmup: int = 0) -> float:
    """Convenience: run word addresses through a cache, return miss ratio.

    Args:
        cache: the cache to drive (line granularity handled here).
        word_addrs: iterable of word addresses.
        warmup: number of leading references excluded from the ratio.
    """
    shift = cache.line_shift
    for i, addr in enumerate(word_addrs):
        if i == warmup:
            cache.reset_counters()
        cache.access(int(addr) >> shift)
    return cache.miss_ratio

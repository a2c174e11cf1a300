"""Translation lookaside buffers.

The MMU chip holds a 2-way set-associative, 32-entry instruction TLB and a
2-way set-associative, 64-entry data TLB (paper, Section 2).  Entries are
tagged with the PID so the TLB — like the caches — need not be flushed on a
context switch (Section 3).

Replacement is LRU within a set.  The simulator consults the TLB only when an
access crosses a page boundary relative to the previous access of the same
kind; a TLB object therefore also tracks how many references each probe
covers, so miss ratios can be reported per probe or per reference.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.params import is_power_of_two

#: PID of an empty TLB slot.
EMPTY = -1


class TLB:
    """A PID-tagged set-associative TLB.

    Entries live in two flat slot arrays, ``_pids`` and ``_vpages``: set
    ``i`` owns slots ``i*ways .. i*ways+ways-1``, most recently used
    first, empty slots (pid ``-1``) last — the layout of
    :class:`repro.core.cache.Cache`, which the native engine drives as
    NumPy arrays.

    Args:
        entries: total entry count (power of two).
        ways: associativity (power of two, <= entries).
        miss_penalty: CPU cycles charged per refill.
    """

    def __init__(self, entries: int, ways: int = 2, miss_penalty: int = 20):
        if not is_power_of_two(entries):
            raise ConfigurationError("TLB entry count must be a power of two")
        if not is_power_of_two(ways) or ways > entries:
            raise ConfigurationError("TLB ways must be a power of two <= entries")
        if miss_penalty < 0:
            raise ConfigurationError("TLB miss penalty must be non-negative")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self.miss_penalty = miss_penalty
        self._pids: List[int] = [EMPTY] * entries
        self._vpages: List[int] = [EMPTY] * entries
        self.probes = 0
        self.misses = 0

    def access(self, pid: int, vpage: int) -> bool:
        """Probe for (pid, vpage); refill on miss.  Returns True on a hit."""
        self.probes += 1
        pids = self._pids
        vpages = self._vpages
        base = (vpage & (self.sets - 1)) * self.ways
        if vpages[base] == vpage and pids[base] == pid:
            return True
        last = base + self.ways - 1
        for slot in range(base + 1, last + 1):
            if vpages[slot] == vpage and pids[slot] == pid:
                vpages[base + 1:slot + 1] = vpages[base:slot]
                pids[base + 1:slot + 1] = pids[base:slot]
                vpages[base] = vpage
                pids[base] = pid
                return True
        self.misses += 1
        vpages[base + 1:last + 1] = vpages[base:last]
        pids[base + 1:last + 1] = pids[base:last]
        vpages[base] = vpage
        pids[base] = pid
        return False

    def _set_entries(self) -> List[List[Tuple[int, int]]]:
        """Per set, the resident ``(pid, vpage)`` tags, MRU first."""
        pids = list(self._pids)
        vpages = list(self._vpages)
        return [[(int(pids[slot]), int(vpages[slot]))
                 for slot in range(base, base + self.ways)
                 if pids[slot] != EMPTY]
                for base in range(0, self.entries, self.ways)]

    def contains(self, pid: int, vpage: int) -> bool:
        """Non-mutating lookup (no LRU update, no counters)."""
        base = (vpage & (self.sets - 1)) * self.ways
        return any(self._pids[slot] == pid and self._vpages[slot] == vpage
                   for slot in range(base, base + self.ways))

    @property
    def miss_ratio(self) -> float:
        """Misses per probe."""
        return self.misses / self.probes if self.probes else 0.0

    def _store_entries(self, sets: List[List[Tuple[int, int]]]) -> None:
        pids = [EMPTY] * self.entries
        vpages = [EMPTY] * self.entries
        for index, entry_set in enumerate(sets):
            for k, (pid, vpage) in enumerate(entry_set):
                pids[index * self.ways + k] = pid
                vpages[index * self.ways + k] = vpage
        self._pids = pids
        self._vpages = vpages

    def invalidate_pid(self, pid: int) -> int:
        """Drop all entries of one PID (process exit); returns entries dropped."""
        sets = self._set_entries()
        kept = [[tag for tag in entry_set if tag[0] != pid]
                for entry_set in sets]
        self._store_entries(kept)
        return sum(map(len, sets)) - sum(map(len, kept))

    def flush(self) -> None:
        """Invalidate every entry (counters retained)."""
        self._pids = [EMPTY] * self.entries
        self._vpages = [EMPTY] * self.entries

    def reset_counters(self) -> None:
        """Zero the probe/miss counters."""
        self.probes = 0
        self.misses = 0

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of entries (MRU order) and counters."""
        return {
            "sets": [[[pid, vpage] for pid, vpage in entry_set]
                     for entry_set in self._set_entries()],
            "probes": self.probes,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.errors import CheckpointError

        try:
            sets = [[(int(pid), int(vpage)) for pid, vpage in entry_set]
                    for entry_set in state["sets"]]
            if len(sets) != self.sets:
                raise CheckpointError(
                    f"TLB snapshot has {len(sets)} sets, expected {self.sets}"
                )
            for index, entry_set in enumerate(sets):
                if len(entry_set) > self.ways:
                    raise CheckpointError(
                        f"TLB snapshot set {index} holds {len(entry_set)} "
                        f"entries, associativity is {self.ways}")
            self._store_entries(sets)
            self.probes = int(state["probes"])
            self.misses = int(state["misses"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed TLB snapshot: {exc}") from exc

    def check_invariants(self, name: str = "tlb") -> None:
        """Assert structural integrity; raises
        :class:`~repro.errors.StateCorruptionError` on violation."""
        from repro.errors import StateCorruptionError

        pids = list(self._pids)
        vpages = list(self._vpages)
        for index in range(self.sets):
            slots = range(index * self.ways, (index + 1) * self.ways)
            tags = [(int(pids[slot]), int(vpages[slot])) for slot in slots]
            live = [tag for tag in tags if tag[0] != EMPTY]
            if tags[:len(live)] != live:
                raise StateCorruptionError(
                    f"{name}: set {index} holds an entry behind an empty "
                    f"slot",
                    details={"structure": name, "set": index},
                )
            if len(set(live)) != len(live):
                raise StateCorruptionError(
                    f"{name}: duplicate entry in set {index}",
                    details={"structure": name, "set": index},
                )
            for _, vpage in live:
                if (vpage & (self.sets - 1)) != index:
                    raise StateCorruptionError(
                        f"{name}: vpage {vpage:#x} stored in set {index} "
                        f"does not map there",
                        details={"structure": name, "set": index,
                                 "vpage": vpage},
                    )


def instruction_tlb(miss_penalty: int = 20) -> TLB:
    """The paper's instruction TLB: 2-way set-associative, 32 entries."""
    return TLB(entries=32, ways=2, miss_penalty=miss_penalty)


def data_tlb(miss_penalty: int = 20) -> TLB:
    """The paper's data TLB: 2-way set-associative, 64 entries."""
    return TLB(entries=64, ways=2, miss_penalty=miss_penalty)

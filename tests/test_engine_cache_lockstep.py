"""The MemorySystem's inlined L1 tag arrays against the reference
:class:`repro.core.cache.Cache` model.

``MemorySystem`` inlines its direct-mapped L1 lookups into flat arrays
(plain lists under the reference engine, the NumPy arrays the native
kernel writes in place under ``native``); ``Cache`` is the reference
model that behaviour must match.  These tests drive a ``run_slice`` with
a synthetic access stream while mirroring every reference into a shadow
``Cache``, then require the final resident lines, dirty bits, and miss
counts to agree — under both engines, so the equivalence chain
``Cache == reference == native`` is closed on the tag-array level, not
just on aggregate statistics.
"""

import random

import pytest

from repro.core.cache import INVALID, Cache
from repro.core.config import (
    WritePolicy,
    base_architecture,
    write_through_buffer,
)
from repro.core.engine import ENGINE_NAMES
from repro.core.hierarchy import MemorySystem

N = 6_000
DEADLINE = 10 ** 9


def synth_columns(seed, n=N):
    """A conflict-heavy instruction/data stream (plain physical words)."""
    rng = random.Random(seed)
    pcs, kinds, addrs = [], [], []
    pc = 0
    for _ in range(n):
        if rng.random() < 0.1:
            pc = rng.randrange(0, 3 * 4096) & ~3
        pcs.append(pc)
        pc += 1
        roll = rng.random()
        if roll < 0.25:
            kinds.append(1)
            addrs.append(rng.randrange(0, 2 * 4096))
        elif roll < 0.40:
            kinds.append(2)
            addrs.append(rng.randrange(0, 2 * 4096))
        else:
            kinds.append(0)
            addrs.append(0)
    partials = [False] * n
    syscalls = [False] * n
    return pcs, kinds, addrs, partials, syscalls


def shadow_replay(config, pcs, kinds, addrs):
    """Replay the stream through reference Cache models."""
    icache = Cache(config.icache.size_words, config.icache.line_words)
    dcache = Cache(config.dcache.size_words, config.dcache.line_words)
    il_shift = icache.line_shift
    dl_shift = dcache.line_shift
    invalidate_on_write_miss = (
        config.write_policy is WritePolicy.WRITE_MISS_INVALIDATE)
    for pc, kind, addr in zip(pcs, kinds, addrs):
        icache.access(pc >> il_shift)
        if kind == 1:
            dcache.access(addr >> dl_shift)
        elif kind == 2:
            dline = addr >> dl_shift
            if invalidate_on_write_miss:
                if dcache.contains(dline):
                    dcache.access(dline, write=True)
                else:
                    # The parallel data write corrupts whatever line
                    # occupies the written word's index.
                    resident = dcache._tags[dcache.set_index(dline)]
                    if resident != INVALID:
                        dcache.invalidate(resident)
            else:
                dcache.access(dline, write=True)
    return icache, dcache


def run_memsys(config, engine, columns):
    ms = MemorySystem(config, engine=engine)
    pcs, kinds, addrs, partials, syscalls = columns
    ms.run_slice(pcs, kinds, addrs, partials, syscalls,
                 start=0, deadline=DEADLINE)
    return ms


def assert_tags_match(ms, shadow, config):
    icache, dcache = shadow
    assert [int(t) for t in ms._itags] == icache._tags
    assert [int(t) for t in ms._dtags] == dcache._tags
    resident_dirty = [ms._dtags[i] != INVALID
                      and ms._ddirty[i] == ms._dirty_epoch
                      for i in range(len(ms._dtags))]
    shadow_dirty = [dcache._tags[i] != INVALID and dcache._dirty[i]
                    for i in range(dcache.sets)]
    assert resident_dirty == shadow_dirty


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("seed", (0, 1, 2))
class TestWriteBack:
    def test_fill_evict_dirty(self, engine, seed):
        config = base_architecture()
        columns = synth_columns(seed)
        ms = run_memsys(config, engine, columns)
        shadow = shadow_replay(config, *columns[:3])
        assert_tags_match(ms, shadow, config)
        # Every write-back miss allocates, so the counters line up too.
        assert ms.stats.l1i_misses == shadow[0].misses
        assert (ms.stats.l1d_read_misses + ms.stats.l1d_write_misses
                == shadow[1].misses)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("seed", (3, 4))
class TestWriteMissInvalidate:
    def test_fill_evict_invalidate(self, engine, seed):
        config = base_architecture().with_(
            name="wmi",
            write_policy=WritePolicy.WRITE_MISS_INVALIDATE,
            write_buffer=write_through_buffer())
        columns = synth_columns(seed)
        ms = run_memsys(config, engine, columns)
        shadow = shadow_replay(config, *columns[:3])
        assert_tags_match(ms, shadow, config)
        assert ms.stats.l1i_misses == shadow[0].misses

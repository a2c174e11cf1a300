"""Miss and refill timing of the reference engine.

These are the cycle-accounting rules of Sections 2, 6, 8 and 9 of the
paper, extracted from ``MemorySystem`` so the reference loop and the
write-policy handlers (:mod:`repro.core.engine.policies`) call one
implementation; the native engine's kernel (``native.c``) ports them
line for line.  Every function takes the memory system as its
first argument and returns the advanced cycle counter; the memory system
binds :func:`ifetch_miss` as a method at construction.
"""

from __future__ import annotations

from repro.core.cache import INVALID
from repro.core.config import BypassMode
from repro.obs import runtime as _obs


def ifetch_miss(ms, now: int, iline: int) -> int:
    """Handle an L1-I miss; returns the advanced cycle counter."""
    st = ms.stats
    st.l1i_misses += 1
    if ms._i_waits_for_wb:
        stall = ms.wb.wait_empty(now)
        if stall:
            st.stall_wb += stall
            now += stall
    st.l2i_accesses += 1
    hit, victim_dirty = ms.l2.access_instruction(iline >> ms._i_l2_delta)
    st.stall_l1i_miss += ms._i_refill_cycles
    now += ms._i_refill_cycles
    if not hit:
        st.l2i_misses += 1
        if victim_dirty:
            st.l2i_dirty_victims += 1
        penalty = l2_miss_penalty(ms, now, victim_dirty, data_side=False)
        st.stall_l2i_miss += penalty
        now += penalty
        if _obs.enabled:
            _obs.tracer.emit("l2_miss", cyc=now, side="i",
                             dirty=victim_dirty)
    if _obs.enabled:
        _obs.tracer.emit("l1i_miss", cyc=now, line=iline)
    ms._itags[iline & ms._i_mask] = iline
    return now


def wb_consistency_wait(ms, now: int, dline: int, index: int) -> int:
    """Apply the read-miss consistency discipline; returns advanced time."""
    bypass = ms._bypass
    if bypass is BypassMode.NONE:
        stall = ms.wb.wait_empty(now)
    elif bypass is BypassMode.DIRTY_BIT:
        ms.wb.expire(now)
        if len(ms.wb) == 0:
            # An empty buffer means L2 is consistent: flash-clear every
            # dirty bit (epoch bump) and proceed without waiting.
            ms._dirty_epoch += 1
            stall = 0
        elif (ms._dtags[index] != INVALID
                and ms._ddirty[index] == ms._dirty_epoch):
            stall = ms.wb.wait_empty(now)
            ms._dirty_epoch += 1
        else:
            stall = 0
    else:  # BypassMode.ASSOCIATIVE
        stall = ms.wb.flush_through(now, dline)
    if stall:
        ms.stats.stall_wb += stall
        now += stall
    return now


def l2_data_refill(ms, now: int, dline: int) -> int:
    """Fetch a line from L2-D into L1-D; returns advanced time."""
    st = ms.stats
    st.l2d_accesses += 1
    hit, victim_dirty = ms.l2.access_data_read(dline >> ms._d_l2_delta)
    st.stall_l1d_miss += ms._d_refill_cycles
    now += ms._d_refill_cycles
    if not hit:
        st.l2d_misses += 1
        if victim_dirty:
            st.l2d_dirty_victims += 1
        penalty = l2_miss_penalty(ms, now, victim_dirty, data_side=True)
        st.stall_l2d_miss += penalty
        now += penalty
        if _obs.enabled:
            _obs.tracer.emit("l2_miss", cyc=now, side="d",
                             dirty=victim_dirty)
    return now


def l2_miss_penalty(ms, now: int, victim_dirty: bool,
                    data_side: bool) -> int:
    """Main-memory penalty for an L2 miss, honoring the dirty buffer."""
    if not victim_dirty:
        return ms._l2_clean
    if data_side and ms._dirty_buffer:
        # Read the requested line first; write the victim back through the
        # one-line dirty buffer afterwards.  A back-to-back dirty miss
        # must wait for the buffer to free.
        wait = ms._dirty_buffer_free - now
        penalty = ms._l2_clean + (wait if wait > 0 else 0)
        ms._dirty_buffer_free = now + penalty + ms._l2_writeback_cost
        return penalty
    return ms._l2_dirty


def install_dline(ms, dline: int, index: int, dirty: bool) -> None:
    """Install a fully-valid line in L1-D."""
    ms._dtags[index] = dline
    ms._ddirty[index] = ms._dirty_epoch if dirty else 0
    ms._dwrite_only[index] = 0
    ms._dvalid[index] = ms._d_full_valid


def evict_victim_write_back(ms, now: int, index: int) -> int:
    """Push a dirty write-back victim line into the write buffer."""
    if (ms._dtags[index] == INVALID
            or ms._ddirty[index] != ms._dirty_epoch):
        return now
    victim_line = int(ms._dtags[index])
    if _obs.enabled:
        _obs.tracer.emit("victim_flush", cyc=now, line=victim_line)
    return push_write(ms, now, victim_line, ms._wb_victim_cost)


def push_write(ms, now: int, dline: int, cost: int) -> int:
    """Enqueue a write (word or victim line) and drain it into L2."""
    st = ms.stats
    st.l2_write_accesses += 1
    hit, victim_dirty = ms.l2.access_data_write(dline >> ms._d_l2_delta)
    if not hit:
        st.l2_write_misses += 1
        if victim_dirty:
            st.l2_write_dirty_victims += 1
        cost += ms._l2_dirty if victim_dirty else ms._l2_clean
        if _obs.enabled:
            _obs.tracer.emit("l2_miss", cyc=now, side="w",
                             dirty=victim_dirty)
    stall = ms.wb.push(now, dline, cost)
    if stall:
        st.stall_wb += stall
        now += stall
    return now

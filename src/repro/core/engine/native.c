/*
 * The native engine's kernel: the whole run_slice hot path in C, plus
 * the batch page lookup that prepares its input (repro_translate).
 *
 * A line-for-line port of the reference engine
 * (repro/core/engine/reference.py) and of the policy and timing handlers
 * it calls (policies.py, timing.py), the write buffer (write_buffer.py),
 * the L2 arrays (cache.py) and the TLBs (mmu/tlb.py).  No Python object
 * is touched here: every piece of state arrives as a flat int64/uint8
 * array whose size, dtype and contiguity the Python side validated, and
 * the slice's SimStats deltas leave through an int64 counter block.
 *
 * Build: one shared object, no Python headers, compiled on first use by
 * repro/core/engine/native.py.  Bump NATIVE_ABI whenever the argument
 * list or any block layout below changes; the loader refuses a library
 * whose ABI differs.
 */

#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint8_t u8;

#define NATIVE_ABI 2
#define INVALID (-1)

/* Parameter block (read-only). */
enum {
    P_IL_SHIFT, P_I_MASK, P_DL_SHIFT, P_D_MASK, P_DLINE_MASK,
    P_D_FULL_VALID, P_I_L2_DELTA, P_D_L2_DELTA,
    P_I_REFILL, P_D_REFILL, P_WB_WORD_COST, P_WB_VICTIM_COST,
    P_L2_CLEAN, P_L2_DIRTY, P_L2_WRITEBACK_COST,
    P_I_WAITS_FOR_WB, P_BYPASS, P_DIRTY_BUFFER, P_POLICY,
    P_TLB_ENABLED, P_TLB_PENALTY,
    P_L2I_SETS, P_L2I_WAYS, P_L2D_SETS, P_L2D_WAYS,
    P_WB_DEPTH, P_WB_OVERLAP,
    P_ITLB_SETS, P_ITLB_WAYS, P_DTLB_SETS, P_DTLB_WAYS, P_PAGE_SHIFT,
    P_COUNT
};

/* Scalar state block (read and written back). */
enum {
    S_NOW, S_DIRTY_EPOCH, S_DIRTY_BUFFER_FREE, S_LAST_IPAGE, S_LAST_DPAGE,
    S_WB_COUNT, S_WB_LAST_COMPLETION, S_WB_MAX_OCCUPANCY,
    S_REASON,
    S_COUNT
};

/* Counter block: deltas of this call, zeroed by the caller.  The first
 * C_STATS entries are SimStats fields (same order as
 * native.STAT_COUNTERS); the rest are sub-structure counters. */
enum {
    C_LOADS, C_STORES, C_L1I_MISSES, C_L1D_READ_MISSES,
    C_L1D_WRITE_ONLY_READ_MISSES, C_L1D_WRITE_MISSES,
    C_L2I_ACCESSES, C_L2I_MISSES, C_L2I_DIRTY_VICTIMS,
    C_L2D_ACCESSES, C_L2D_MISSES, C_L2D_DIRTY_VICTIMS,
    C_L2_WRITE_ACCESSES, C_L2_WRITE_MISSES, C_L2_WRITE_DIRTY_VICTIMS,
    C_STALL_L1I_MISS, C_STALL_L1D_MISS, C_STALL_L1_WRITES, C_STALL_WB,
    C_STALL_L2I_MISS, C_STALL_L2D_MISS, C_STALL_TLB,
    C_STATS,
    C_WB_PUSHES = C_STATS, C_WB_RETIRED, C_WB_FULL_STALL_CYCLES,
    C_L2I_HITS, C_L2I_CACHE_MISSES, C_L2D_HITS, C_L2D_CACHE_MISSES,
    C_ITLB_PROBES, C_ITLB_MISSES, C_DTLB_PROBES, C_DTLB_MISSES,
    C_COUNT
};

enum { REASON_END, REASON_SYSCALL, REASON_SLICE };
enum { BYPASS_NONE, BYPASS_DIRTY_BIT, BYPASS_ASSOCIATIVE };
enum { WRITE_BACK, WRITE_MISS_INVALIDATE, WRITE_ONLY, SUBBLOCK };

/* One L2 half: sets * ways slots, most recently used first in a set,
 * empty slots (INVALID) last. */
typedef struct {
    i64 *tags;
    u8 *dirty;
    i64 set_mask;
    i64 ways;
    i64 *hits;
    i64 *misses;
} cache_t;

/* A TLB: sets * ways (pid, vpage) slots, MRU first, empty pid = -1. */
typedef struct {
    i64 *pids;
    i64 *vpages;
    i64 set_mask;
    i64 ways;
    i64 *probes;
    i64 *misses;
} tlb_t;

typedef struct {
    const i64 *p;
    i64 *c;
    i64 epoch;
    i64 dirty_buffer_free;
    i64 *itags, *dtags, *ddirty, *dwo, *dvalid;
    cache_t l2i, l2d;
    /* Write buffer, oldest entry first. */
    i64 *wb_lines, *wb_completions;
    i64 wb_count, wb_last_completion, wb_max_occupancy;
    tlb_t itlb, dtlb;
} ctx_t;

/* ------------------------------------------------------------ L2 array */

static int cache_access(cache_t *cache, i64 line, int write,
                        int *victim_dirty)
{
    i64 index = line & cache->set_mask;
    i64 ways = cache->ways;
    i64 *tags = cache->tags;
    u8 *dirty = cache->dirty;
    if (ways == 1) {
        if (tags[index] == line) {
            (*cache->hits)++;
            if (write)
                dirty[index] = 1;
            *victim_dirty = 0;
            return 1;
        }
        (*cache->misses)++;
        *victim_dirty = tags[index] != INVALID ? dirty[index] != 0 : 0;
        tags[index] = line;
        dirty[index] = (u8)write;
        return 0;
    }
    i64 base = index * ways;
    for (i64 k = 0; k < ways; k++) {
        if (tags[base + k] == line) {
            (*cache->hits)++;
            u8 d = dirty[base + k] || write;
            for (i64 j = k; j > 0; j--) {
                tags[base + j] = tags[base + j - 1];
                dirty[base + j] = dirty[base + j - 1];
            }
            tags[base] = line;
            dirty[base] = d;
            *victim_dirty = 0;
            return 1;
        }
    }
    (*cache->misses)++;
    i64 last = base + ways - 1;
    *victim_dirty = tags[last] != INVALID ? dirty[last] != 0 : 0;
    for (i64 j = ways - 1; j > 0; j--) {
        tags[base + j] = tags[base + j - 1];
        dirty[base + j] = dirty[base + j - 1];
    }
    tags[base] = line;
    dirty[base] = (u8)write;
    return 0;
}

/* ----------------------------------------------------------------- TLB */

static int tlb_access(tlb_t *tlb, i64 pid, i64 vpage)
{
    (*tlb->probes)++;
    i64 ways = tlb->ways;
    i64 base = (vpage & tlb->set_mask) * ways;
    i64 *pids = tlb->pids;
    i64 *vpages = tlb->vpages;
    i64 k = 0;
    for (; k < ways; k++)
        if (pids[base + k] == pid && vpages[base + k] == vpage)
            break;
    int hit = k < ways;
    if (!hit) {
        (*tlb->misses)++;
        k = ways - 1;  /* the LRU slot (or an empty one) is dropped */
    }
    for (i64 j = k; j > 0; j--) {
        pids[base + j] = pids[base + j - 1];
        vpages[base + j] = vpages[base + j - 1];
    }
    pids[base] = pid;
    vpages[base] = vpage;
    return hit;
}

/* -------------------------------------------------------- write buffer */

static void wb_pop(ctx_t *x, i64 n)
{
    x->wb_count -= n;
    memmove(x->wb_lines, x->wb_lines + n, (size_t)x->wb_count * sizeof(i64));
    memmove(x->wb_completions, x->wb_completions + n,
            (size_t)x->wb_count * sizeof(i64));
    x->c[C_WB_RETIRED] += n;
}

static void wb_expire(ctx_t *x, i64 now)
{
    i64 n = 0;
    while (n < x->wb_count && x->wb_completions[n] <= now)
        n++;
    if (n)
        wb_pop(x, n);
}

static i64 wb_push(ctx_t *x, i64 now, i64 line, i64 cost)
{
    wb_expire(x, now);
    i64 stall = 0;
    if (x->wb_count >= x->p[P_WB_DEPTH]) {
        i64 head = x->wb_completions[0];
        stall = head - now;
        now = head;
        wb_expire(x, now);
    }
    i64 step = cost - x->p[P_WB_OVERLAP];
    if (step < 1)
        step = 1;
    i64 completion = now + cost;
    if (x->wb_last_completion + step > completion)
        completion = x->wb_last_completion + step;
    x->wb_last_completion = completion;
    x->wb_lines[x->wb_count] = line;
    x->wb_completions[x->wb_count] = completion;
    x->wb_count++;
    x->c[C_WB_PUSHES]++;
    x->c[C_WB_FULL_STALL_CYCLES] += stall;
    if (x->wb_count > x->wb_max_occupancy)
        x->wb_max_occupancy = x->wb_count;
    return stall;
}

static i64 wb_wait_empty(ctx_t *x, i64 now)
{
    wb_expire(x, now);
    if (!x->wb_count)
        return 0;
    i64 stall = x->wb_completions[x->wb_count - 1] - now;
    x->c[C_WB_RETIRED] += x->wb_count;
    x->wb_count = 0;
    return stall;
}

static i64 wb_flush_through(ctx_t *x, i64 now, i64 line)
{
    wb_expire(x, now);
    i64 match = -1;
    for (i64 k = 0; k < x->wb_count; k++)
        if (x->wb_lines[k] == line)
            match = x->wb_completions[k];
    if (match < 0)
        return 0;
    i64 n = 0;
    while (n < x->wb_count && x->wb_completions[n] <= match)
        n++;
    if (n)
        wb_pop(x, n);
    return match - now;
}

/* -------------------------------------------------------------- timing */

static i64 l2_miss_penalty(ctx_t *x, i64 now, int victim_dirty,
                           int data_side)
{
    if (!victim_dirty)
        return x->p[P_L2_CLEAN];
    if (data_side && x->p[P_DIRTY_BUFFER]) {
        i64 wait = x->dirty_buffer_free - now;
        i64 penalty = x->p[P_L2_CLEAN] + (wait > 0 ? wait : 0);
        x->dirty_buffer_free = now + penalty + x->p[P_L2_WRITEBACK_COST];
        return penalty;
    }
    return x->p[P_L2_DIRTY];
}

static i64 ifetch_miss(ctx_t *x, i64 now, i64 iline)
{
    i64 *c = x->c;
    c[C_L1I_MISSES]++;
    if (x->p[P_I_WAITS_FOR_WB]) {
        i64 stall = wb_wait_empty(x, now);
        if (stall) {
            c[C_STALL_WB] += stall;
            now += stall;
        }
    }
    c[C_L2I_ACCESSES]++;
    int victim_dirty;
    int hit = cache_access(&x->l2i, iline >> x->p[P_I_L2_DELTA], 0,
                           &victim_dirty);
    c[C_STALL_L1I_MISS] += x->p[P_I_REFILL];
    now += x->p[P_I_REFILL];
    if (!hit) {
        c[C_L2I_MISSES]++;
        if (victim_dirty)
            c[C_L2I_DIRTY_VICTIMS]++;
        i64 penalty = l2_miss_penalty(x, now, victim_dirty, 0);
        c[C_STALL_L2I_MISS] += penalty;
        now += penalty;
    }
    x->itags[iline & x->p[P_I_MASK]] = iline;
    return now;
}

static i64 wb_consistency_wait(ctx_t *x, i64 now, i64 dline, i64 index)
{
    i64 stall;
    switch (x->p[P_BYPASS]) {
    case BYPASS_NONE:
        stall = wb_wait_empty(x, now);
        break;
    case BYPASS_DIRTY_BIT:
        wb_expire(x, now);
        if (x->wb_count == 0) {
            x->epoch++;
            stall = 0;
        } else if (x->dtags[index] != INVALID
                   && x->ddirty[index] == x->epoch) {
            stall = wb_wait_empty(x, now);
            x->epoch++;
        } else {
            stall = 0;
        }
        break;
    default:
        stall = wb_flush_through(x, now, dline);
        break;
    }
    if (stall) {
        x->c[C_STALL_WB] += stall;
        now += stall;
    }
    return now;
}

static i64 l2_data_refill(ctx_t *x, i64 now, i64 dline)
{
    i64 *c = x->c;
    c[C_L2D_ACCESSES]++;
    int victim_dirty;
    int hit = cache_access(&x->l2d, dline >> x->p[P_D_L2_DELTA], 0,
                           &victim_dirty);
    c[C_STALL_L1D_MISS] += x->p[P_D_REFILL];
    now += x->p[P_D_REFILL];
    if (!hit) {
        c[C_L2D_MISSES]++;
        if (victim_dirty)
            c[C_L2D_DIRTY_VICTIMS]++;
        i64 penalty = l2_miss_penalty(x, now, victim_dirty, 1);
        c[C_STALL_L2D_MISS] += penalty;
        now += penalty;
    }
    return now;
}

static void install_dline(ctx_t *x, i64 dline, i64 index, int dirty)
{
    x->dtags[index] = dline;
    x->ddirty[index] = dirty ? x->epoch : 0;
    x->dwo[index] = 0;
    x->dvalid[index] = x->p[P_D_FULL_VALID];
}

static i64 push_write(ctx_t *x, i64 now, i64 dline, i64 cost)
{
    i64 *c = x->c;
    c[C_L2_WRITE_ACCESSES]++;
    int victim_dirty;
    int hit = cache_access(&x->l2d, dline >> x->p[P_D_L2_DELTA], 1,
                           &victim_dirty);
    if (!hit) {
        c[C_L2_WRITE_MISSES]++;
        if (victim_dirty)
            c[C_L2_WRITE_DIRTY_VICTIMS]++;
        cost += victim_dirty ? x->p[P_L2_DIRTY] : x->p[P_L2_CLEAN];
    }
    i64 stall = wb_push(x, now, dline, cost);
    if (stall) {
        c[C_STALL_WB] += stall;
        now += stall;
    }
    return now;
}

static i64 evict_victim_write_back(ctx_t *x, i64 now, i64 index)
{
    if (x->dtags[index] == INVALID || x->ddirty[index] != x->epoch)
        return now;
    return push_write(x, now, x->dtags[index], x->p[P_WB_VICTIM_COST]);
}

/* ------------------------------------------------------------ policies */

static i64 load_miss(ctx_t *x, i64 now, i64 dline, i64 index)
{
    x->c[C_L1D_READ_MISSES]++;
    if (x->p[P_POLICY] == WRITE_BACK) {
        now = wb_consistency_wait(x, now, dline, index);
        now = evict_victim_write_back(x, now, index);
    } else {
        if (x->dtags[index] == dline && x->dwo[index])
            x->c[C_L1D_WRITE_ONLY_READ_MISSES]++;
        now = wb_consistency_wait(x, now, dline, index);
    }
    now = l2_data_refill(x, now, dline);
    install_dline(x, dline, index, 0);
    return now;
}

static i64 store(ctx_t *x, i64 now, i64 addr, int partial)
{
    const i64 *p = x->p;
    i64 *c = x->c;
    i64 dline = addr >> p[P_DL_SHIFT];
    i64 index = dline & p[P_D_MASK];
    i64 policy = p[P_POLICY];
    if (policy == WRITE_BACK) {
        if (x->dtags[index] == dline) {
            c[C_STALL_L1_WRITES]++;
            x->ddirty[index] = x->epoch;
            return now + 1;
        }
        c[C_L1D_WRITE_MISSES]++;
        now = wb_consistency_wait(x, now, dline, index);
        now = evict_victim_write_back(x, now, index);
        now = l2_data_refill(x, now, dline);
        install_dline(x, dline, index, 1);
        return now;
    }
    now = push_write(x, now, dline, p[P_WB_WORD_COST]);
    i64 bit = (i64)1 << (addr & p[P_DLINE_MASK]);
    if (x->dtags[index] == dline) {
        if (policy == SUBBLOCK && !partial)
            x->dvalid[index] |= bit;
        x->ddirty[index] = x->epoch;
        return now;
    }
    c[C_L1D_WRITE_MISSES]++;
    c[C_STALL_L1_WRITES]++;
    if (policy == WRITE_MISS_INVALIDATE) {
        /* The parallel data write corrupted the resident line. */
        x->dtags[index] = INVALID;
        x->dvalid[index] = 0;
        x->dwo[index] = 0;
        x->ddirty[index] = 0;
    } else if (policy == WRITE_ONLY) {
        x->dtags[index] = dline;
        x->dwo[index] = 1;
        x->ddirty[index] = x->epoch;
        x->dvalid[index] = p[P_D_FULL_VALID];
    } else {
        x->dtags[index] = dline;
        x->dwo[index] = 0;
        x->dvalid[index] = partial ? 0 : bit;
        x->ddirty[index] = x->epoch;
    }
    return now + 1;
}

/* --------------------------------------------------------- page lookup */

#define NO_PAGE INT64_MIN
#define PENDING (-1)

/* Translate one column of virtual word addresses through one pid's page
 * lookup table (repro/mmu/page_table.py): keys/frames hold mask + 1
 * open-addressing slots, probed linearly; an empty slot's key is NO_PAGE,
 * and a page listed but not yet allocated has frame PENDING.
 *
 * Rows on pages with a frame get their physical word address in out.  A
 * page the table has never seen is inserted as PENDING and its slot is
 * appended to missed, once per page in first-touch order; its rows get
 * junk (the caller allocates the listed pages and calls again).
 * Returns the number of slots appended, or -1 when the column holds more
 * than `room` new pages (the caller grows the table without the PENDING
 * entries and calls again). */
int64_t repro_translate(i64 *keys, i64 *frames, i64 mask, i64 room,
                        const i64 *words, i64 n, i64 page_shift,
                        i64 *out, i64 *missed)
{
    const i64 offset_mask = ((i64)1 << page_shift) - 1;
    i64 count = 0;
    /* The two most recently used pages and their frames: a data column
     * alternates between page 0 (rows without an access) and the page
     * of the access, so both ways hit almost always, and choosing the
     * way costs no mispredicted branch. */
    i64 recent_page[2] = {NO_PAGE, NO_PAGE};
    i64 recent_frame[2] = {PENDING, PENDING};
    int mru = 0;
    for (i64 i = 0; i < n; i++) {
        i64 word = words[i];
        i64 page = word >> page_shift;
        int way = page == recent_page[1];
        if (recent_page[way] != page) {
            uint64_t hash = (uint64_t)page * 0x9E3779B97F4A7C15ull;
            i64 slot = (i64)(hash >> 32) & mask;
            while (keys[slot] != page && keys[slot] != NO_PAGE)
                slot = (slot + 1) & mask;
            if (keys[slot] == NO_PAGE) {
                if (count == room)
                    return -1;
                keys[slot] = page;
                frames[slot] = PENDING;
                missed[count++] = slot;
            }
            way = 1 - mru;
            recent_page[way] = page;
            recent_frame[way] = frames[slot];
        }
        mru = way;
        out[i] = (recent_frame[way] << page_shift) | (word & offset_mask);
    }
    return count;
}

/* ------------------------------------------------------------ hot loop */

int64_t repro_native_abi(void)
{
    return NATIVE_ABI;
}

/* Execute instructions start.. until the batch ends, a syscall executes,
 * or the cycle deadline is reached; returns the instructions consumed
 * and stores the reason in state[S_REASON]. */
int64_t repro_run_slice(const i64 *params, i64 *state, i64 *counters,
                        i64 *itags, i64 *dtags, i64 *ddirty, i64 *dwo,
                        i64 *dvalid,
                        i64 *itlb_pids, i64 *itlb_vpages,
                        i64 *dtlb_pids, i64 *dtlb_vpages,
                        i64 *l2i_tags, u8 *l2i_dirty,
                        i64 *l2d_tags, u8 *l2d_dirty,
                        i64 *wb_lines, i64 *wb_completions,
                        const i64 *pcs, const u8 *kinds, const i64 *addrs,
                        const u8 *partials, const u8 *syscalls,
                        i64 n, i64 start, i64 deadline)
{
    ctx_t x;
    const i64 *p = params;
    i64 *c = counters;
    x.p = params;
    x.c = counters;
    x.epoch = state[S_DIRTY_EPOCH];
    x.dirty_buffer_free = state[S_DIRTY_BUFFER_FREE];
    x.itags = itags;
    x.dtags = dtags;
    x.ddirty = ddirty;
    x.dwo = dwo;
    x.dvalid = dvalid;
    x.l2i = (cache_t){l2i_tags, l2i_dirty, p[P_L2I_SETS] - 1, p[P_L2I_WAYS],
                      &c[C_L2I_HITS], &c[C_L2I_CACHE_MISSES]};
    x.l2d = (cache_t){l2d_tags, l2d_dirty, p[P_L2D_SETS] - 1, p[P_L2D_WAYS],
                      &c[C_L2D_HITS], &c[C_L2D_CACHE_MISSES]};
    x.wb_lines = wb_lines;
    x.wb_completions = wb_completions;
    x.wb_count = state[S_WB_COUNT];
    x.wb_last_completion = state[S_WB_LAST_COMPLETION];
    x.wb_max_occupancy = state[S_WB_MAX_OCCUPANCY];
    x.itlb = (tlb_t){itlb_pids, itlb_vpages, p[P_ITLB_SETS] - 1,
                     p[P_ITLB_WAYS], &c[C_ITLB_PROBES], &c[C_ITLB_MISSES]};
    x.dtlb = (tlb_t){dtlb_pids, dtlb_vpages, p[P_DTLB_SETS] - 1,
                     p[P_DTLB_WAYS], &c[C_DTLB_PROBES], &c[C_DTLB_MISSES]};

    const int il_shift = (int)p[P_IL_SHIFT];
    const i64 i_mask = p[P_I_MASK];
    const int dl_shift = (int)p[P_DL_SHIFT];
    const i64 d_mask = p[P_D_MASK];
    const i64 dline_mask = p[P_DLINE_MASK];
    const int tlb_on = (int)p[P_TLB_ENABLED];
    const i64 tlb_penalty = p[P_TLB_PENALTY];
    const int page_shift = (int)p[P_PAGE_SHIFT];
    i64 now = state[S_NOW];
    i64 last_ipage = state[S_LAST_IPAGE];
    i64 last_dpage = state[S_LAST_DPAGE];
    i64 reason = REASON_END;
    i64 i = start;

    while (i < n) {
        i64 pc = pcs[i];
        now += 1;
        if (tlb_on) {
            i64 page = pc >> page_shift;
            if (page != last_ipage) {
                last_ipage = page;
                if (!tlb_access(&x.itlb, 0, page)) {
                    now += tlb_penalty;
                    c[C_STALL_TLB] += tlb_penalty;
                }
            }
        }
        i64 iline = pc >> il_shift;
        if (itags[iline & i_mask] != iline)
            now = ifetch_miss(&x, now, iline);
        u8 kind = kinds[i];
        if (kind) {
            i64 addr = addrs[i];
            if (tlb_on) {
                i64 page = addr >> page_shift;
                if (page != last_dpage) {
                    last_dpage = page;
                    if (!tlb_access(&x.dtlb, 0, page)) {
                        now += tlb_penalty;
                        c[C_STALL_TLB] += tlb_penalty;
                    }
                }
            }
            if (kind == 1) {
                c[C_LOADS]++;
                i64 dline = addr >> dl_shift;
                i64 index = dline & d_mask;
                if (!(dtags[index] == dline && !dwo[index]
                      && ((dvalid[index] >> (addr & dline_mask)) & 1)))
                    now = load_miss(&x, now, dline, index);
            } else {
                c[C_STORES]++;
                now = store(&x, now, addr, partials[i]);
            }
        }
        i++;
        if (syscalls[i - 1]) {
            reason = REASON_SYSCALL;
            break;
        }
        if (now >= deadline) {
            reason = REASON_SLICE;
            break;
        }
    }

    state[S_NOW] = now;
    state[S_DIRTY_EPOCH] = x.epoch;
    state[S_DIRTY_BUFFER_FREE] = x.dirty_buffer_free;
    state[S_LAST_IPAGE] = last_ipage;
    state[S_LAST_DPAGE] = last_dpage;
    state[S_WB_COUNT] = x.wb_count;
    state[S_WB_LAST_COMPLETION] = x.wb_last_completion;
    state[S_WB_MAX_OCCUPANCY] = x.wb_max_occupancy;
    state[S_REASON] = reason;
    return i - start;
}

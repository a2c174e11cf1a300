"""Unit tests for the page-coloring page table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mmu.page_table import PageTable
from repro.params import PAGE_WORDS


class TestTranslation:
    def test_mapping_is_stable(self):
        table = PageTable()
        first = table.translate(1, 12345)
        again = table.translate(1, 12345)
        assert first == again

    def test_offsets_preserved(self):
        table = PageTable()
        phys = table.translate(1, 5 * PAGE_WORDS + 99)
        assert phys % PAGE_WORDS == 99

    def test_distinct_pids_get_distinct_frames(self):
        table = PageTable()
        a = table.translate_page(1, 7)
        b = table.translate_page(2, 7)
        assert a != b

    def test_distinct_pages_get_distinct_frames(self):
        table = PageTable()
        frames = {table.translate_page(1, vpage) for vpage in range(1000)}
        assert len(frames) == 1000

    def test_sequential_pages_get_sequential_colors(self):
        # Page coloring: contiguous virtual pages must not collide within
        # the color span.
        table = PageTable(colors=64)
        colors = [table.translate_page(3, vpage) % 64 for vpage in range(64)]
        assert len(set(colors)) == 64

    def test_frame_color_is_deterministic_per_page(self):
        table = PageTable(colors=16)
        frame1 = table.translate_page(1, 100)
        # Allocate lots of other pages, then re-ask.
        for vpage in range(200, 300):
            table.translate_page(2, vpage)
        assert table.translate_page(1, 100) == frame1

    def test_pid_range_checked(self):
        table = PageTable()
        with pytest.raises(ConfigurationError):
            table.translate_page(-1, 0)
        with pytest.raises(ConfigurationError):
            table.translate_page(256, 0)

    def test_colors_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            PageTable(colors=100)


class TestBatchTranslation:
    def test_matches_scalar_translation(self):
        table_a = PageTable()
        table_b = PageTable()
        addrs = np.array([0, 5, PAGE_WORDS, 3 * PAGE_WORDS + 17, 5],
                         dtype=np.int64)
        batch = table_a.translate_batch(2, addrs)
        scalars = [table_b.translate(2, int(a)) for a in sorted(set(addrs))]
        # Allocation order differs (batch allocates in sorted-unique order),
        # but the set of (virtual, physical) pairs must be consistent within
        # each table; check the batch result is internally consistent:
        assert batch[1] - batch[0] == 5           # same page, offset delta
        assert batch[4] == batch[1]               # repeated address
        assert all(b % PAGE_WORDS == a % PAGE_WORDS
                   for a, b in zip(addrs.tolist(), batch.tolist()))

    def test_batch_then_scalar_consistent(self):
        table = PageTable()
        addrs = np.array([10, PAGE_WORDS + 10], dtype=np.int64)
        batch = table.translate_batch(1, addrs)
        assert table.translate(1, 10) == batch[0]
        assert table.translate(1, PAGE_WORDS + 10) == batch[1]

    def test_frames_allocated_counts(self):
        table = PageTable()
        table.translate_batch(1, np.arange(0, 5 * PAGE_WORDS, PAGE_WORDS,
                                           dtype=np.int64))
        assert table.frames_allocated == 5
        assert len(table) == 5

    def test_reset(self):
        table = PageTable()
        before = table.translate_page(1, 3)
        table.reset()
        assert table.frames_allocated == 0
        # After reset the allocator restarts; same page may get a new frame,
        # but translation must again be stable.
        after = table.translate_page(1, 3)
        assert table.translate_page(1, 3) == after


def unique_translate_batch(table, pid, word_addrs):
    """The previous ``translate_batch``: one ``np.unique`` over every page
    of the batch, each translated in ascending order.  Kept as the oracle
    the incremental lookup must match array for array and map for map."""
    vpages = word_addrs // PAGE_WORDS
    offsets = word_addrs - vpages * PAGE_WORDS
    unique_pages, inverse = np.unique(vpages, return_inverse=True)
    frames = np.empty(len(unique_pages), dtype=np.int64)
    for i, vpage in enumerate(unique_pages):
        frames[i] = table.translate_page(pid, int(vpage))
    return frames[inverse.reshape(-1)] * PAGE_WORDS + offsets


_batches = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),
              st.lists(st.integers(min_value=0, max_value=64 * PAGE_WORDS),
                       min_size=0, max_size=40)),
    min_size=1, max_size=12)


class TestIncrementalBatchTranslation:
    @settings(max_examples=80, deadline=None)
    @given(batches=_batches, colors=st.sampled_from([4, 16, 256]))
    def test_matches_the_unique_oracle(self, batches, colors):
        fast, oracle = PageTable(colors), PageTable(colors)
        for pid, addrs in batches:
            addrs = np.array(addrs, dtype=np.int64)
            np.testing.assert_array_equal(
                fast.translate_batch(pid, addrs),
                unique_translate_batch(oracle, pid, addrs))
            assert fast.state_dict() == oracle.state_dict()

    @settings(max_examples=40, deadline=None)
    @given(batches=_batches)
    def test_direct_translations_in_between(self, batches):
        # Pages first touched through translate() mid-run (no batch cache
        # entry yet) must come back with the frame they were given.
        fast, oracle = PageTable(), PageTable()
        for step, (pid, addrs) in enumerate(batches):
            probe = step * 3 * PAGE_WORDS + 7
            assert fast.translate(pid, probe) == oracle.translate(pid, probe)
            addrs = np.array(addrs, dtype=np.int64)
            np.testing.assert_array_equal(
                fast.translate_batch(pid, addrs),
                unique_translate_batch(oracle, pid, addrs))
        assert fast.state_dict() == oracle.state_dict()

    def test_reset_and_load_state_forget_the_lookup(self):
        table = PageTable()
        addrs = np.arange(0, 8 * PAGE_WORDS, 1000, dtype=np.int64)
        first = table.translate_batch(1, addrs)
        snapshot = table.state_dict()
        table.reset()
        other = table.translate_batch(2, addrs)  # takes the same colors
        table.load_state(snapshot)
        np.testing.assert_array_equal(table.translate_batch(1, addrs), first)
        assert not np.array_equal(other, first)

"""Unit tests for the page-coloring page table.

Batch translation has two lookups (see :mod:`repro.mmu.page_table`): the
native library's, used while the native engine runs, and the NumPy one.
Both are checked against the same oracle, which translates every page of
a batch through ``translate_page`` in ascending order.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineUnavailable
from repro.errors import ConfigurationError
from repro.mmu.page_table import INITIAL_SLOTS, PageTable
from repro.params import MAX_PROCESSES, PAGE_WORDS

PATHS = ("compiled", "numpy")


def _engine(name):
    """Stands in for the memory system a table follows."""
    return SimpleNamespace(engine=SimpleNamespace(name=name))


def lookup_table(path, colors=256, cls=PageTable):
    """A ``cls`` table whose batches take the ``path`` lookup."""
    table = cls(colors)
    if path == "compiled":
        from repro.core.engine.native import kernel

        try:
            kernel()
        except EngineUnavailable as exc:
            pytest.skip(f"native library unavailable: {exc}")
        table.follow(_engine("native"))
    else:
        table.follow(_engine("reference"))
    assert table.compiled == (path == "compiled")
    return table


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
    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=80, deadline=None)
    @given(batches=_batches, colors=st.sampled_from([4, 16, 256]))
    def test_matches_the_unique_oracle(self, path, batches, colors):
        fast, oracle = lookup_table(path, colors), PageTable(colors)
        for pid, addrs in batches:
            addrs = np.array(addrs, dtype=np.int64)
            np.testing.assert_array_equal(
                fast.translate_batch(pid, addrs),
                unique_translate_batch(oracle, pid, addrs))
            assert fast.state_dict() == oracle.state_dict()

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=40, deadline=None)
    @given(batches=_batches)
    def test_direct_translations_in_between(self, path, batches):
        # Pages first touched through translate() mid-run (no batch cache
        # entry yet) must come back with the frame they were given.
        fast, oracle = lookup_table(path), PageTable()
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


def _spread(first_page, pages, stride, offset, seed):
    """Word addresses touching ``pages`` pages, shuffled."""
    vpages = first_page + stride * np.arange(pages, dtype=np.int64)
    words = np.repeat(vpages * PAGE_WORDS + offset, 2)
    return np.random.default_rng(seed).permutation(words)


#: Batches over a few pids from the whole range, with more new pages,
#: alone or together, than a fresh compiled table has room for.
_wide_batches = st.tuples(
    st.lists(st.integers(min_value=0, max_value=MAX_PROCESSES - 1),
             min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                       st.integers(min_value=0, max_value=1 << 20),
                       st.integers(min_value=1, max_value=2 * INITIAL_SLOTS),
                       st.integers(min_value=1, max_value=97),
                       st.integers(min_value=0, max_value=PAGE_WORDS - 1),
                       st.integers(min_value=0, max_value=2 ** 32)),
             min_size=1, max_size=6))


class RandomPageTable(PageTable):
    """First-touch allocation ignoring colors, as in the coloring
    ablation: a ``translate_page`` override both lookups must honor."""

    def translate_page(self, pid: int, vpage: int) -> int:
        key = (pid, vpage)
        frame = self._map.get(key)
        if frame is None:
            color = (vpage * 2654435761 + pid * 40503) % self.colors
            frame = color + self.colors * self._next_in_color[color]
            self._next_in_color[color] += 1
            self._map[key] = frame
        return frame


class TestLookupPaths:
    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=25, deadline=None)
    @given(batches=_wide_batches)
    def test_growth_and_rehash_match_the_oracle(self, path, batches):
        pids, batches = batches
        fast, oracle = lookup_table(path), PageTable()
        for which, first, pages, stride, offset, seed in batches:
            pid = pids[which % len(pids)]
            words = _spread(first, pages, stride, offset, seed)
            np.testing.assert_array_equal(
                fast.translate_batch(pid, words),
                unique_translate_batch(oracle, pid, words))
            # Earlier pages are still found after the table grew.
            again = words[::7]
            np.testing.assert_array_equal(
                fast.translate_batch(pid, again),
                unique_translate_batch(oracle, pid, again))
        assert fast.state_dict() == oracle.state_dict()

    @pytest.mark.parametrize("path", PATHS)
    def test_growth_keeps_every_known_page(self, path):
        # Batches of 300 new pages each push one pid's table past half
        # load several times, each time with live entries to rehash.
        fast, oracle = lookup_table(path), PageTable()
        seen = np.zeros(0, dtype=np.int64)
        for step in range(8):
            words = _spread(300 * step, 300, 1, 11, step)
            seen = np.concatenate([seen, words])
            for batch in (words, seen):
                np.testing.assert_array_equal(
                    fast.translate_batch(MAX_PROCESSES - 1, batch),
                    unique_translate_batch(oracle, MAX_PROCESSES - 1, batch))
        assert fast.state_dict() == oracle.state_dict()

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=60, deadline=None)
    @given(pids=st.lists(st.integers(0, MAX_PROCESSES - 1), min_size=1,
                         max_size=2),
           steps=st.lists(st.one_of(
               st.tuples(st.just("batch"), st.integers(0, 1),
                         st.lists(st.integers(0, 40 * PAGE_WORDS),
                                  max_size=30)),
               st.tuples(st.just("snapshot")),
               st.tuples(st.just("load")),
               st.tuples(st.just("reset"))), min_size=1, max_size=14))
    def test_reset_and_load_state_between_batches(self, path, pids, steps):
        fast, oracle = lookup_table(path), PageTable()
        snapshot = fast.state_dict()
        for step in steps:
            if step[0] == "batch":
                pid = pids[step[1] % len(pids)]
                words = np.array(step[2], dtype=np.int64)
                np.testing.assert_array_equal(
                    fast.translate_batch(pid, words),
                    unique_translate_batch(oracle, pid, words))
            elif step[0] == "snapshot":
                snapshot = fast.state_dict()
            elif step[0] == "load":
                fast.load_state(snapshot)
                oracle.load_state(snapshot)
            else:
                fast.reset()
                oracle.reset()
            assert fast.state_dict() == oracle.state_dict()

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=40, deadline=None)
    @given(batches=_batches, colors=st.sampled_from([16, 256]))
    def test_translate_page_override_is_honored(self, path, batches, colors):
        fast = lookup_table(path, colors, cls=RandomPageTable)
        oracle = RandomPageTable(colors)
        for pid, addrs in batches:
            addrs = np.array(addrs, dtype=np.int64)
            np.testing.assert_array_equal(
                fast.translate_batch(pid, addrs),
                unique_translate_batch(oracle, pid, addrs))
        assert fast.state_dict() == oracle.state_dict()

    @pytest.mark.parametrize("path", PATHS)
    def test_failed_allocation_leaves_the_lookup_usable(self, path):
        class Flaky(PageTable):
            fail_on = 5

            def translate_page(self, pid, vpage):
                if vpage == self.fail_on:
                    self.fail_on = None
                    raise ConfigurationError("no frame today")
                return super().translate_page(pid, vpage)

        fast, oracle = lookup_table(path, cls=Flaky), PageTable()
        words = np.arange(0, 9 * PAGE_WORDS, 500, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            fast.translate_batch(1, words)
        with pytest.raises(ConfigurationError):
            fast.translate_batch(MAX_PROCESSES, words)
        np.testing.assert_array_equal(
            fast.translate_batch(1, words),
            unique_translate_batch(oracle, 1, words))
        assert fast.state_dict() == oracle.state_dict()

    def test_compiled_lookup_takes_one_column(self):
        table = lookup_table("compiled")
        with pytest.raises(ValueError, match="one column"):
            table.translate_batch(1, np.zeros((2, 3), dtype=np.int64))

    def test_a_table_that_follows_nothing_uses_numpy(self):
        assert not PageTable().compiled

    def test_the_lookup_follows_the_engine(self):
        memsys = _engine("native")
        table = PageTable()
        table.follow(memsys)
        assert table.compiled
        memsys.engine = SimpleNamespace(name="reference")  # a fallback
        assert not table.compiled


#: The coloring ablation's findings at this scale, recorded before the
#: compiled lookup existed (the NumPy lookup is the ground truth).
COLORING_FINDINGS = {"coloring_cpi": 2.983880596677335,
                     "random_cpi": 3.0430739532597526}


@pytest.mark.parametrize("path", PATHS)
def test_coloring_ablation_findings_are_unchanged(path, monkeypatch):
    from repro.experiments import ExperimentScale, run_experiment

    if path == "numpy":
        monkeypatch.setattr(PageTable, "compiled", property(lambda _: False))
    else:
        lookup_table(path)  # skips without the native library
    compiled_calls = []
    compiled = PageTable._translate_compiled

    def counted(self, pid, word_addrs):
        compiled_calls.append(type(self).__name__)
        return compiled(self, pid, word_addrs)

    monkeypatch.setattr(PageTable, "_translate_compiled", counted)
    scale = ExperimentScale(instructions_per_benchmark=30_000, level=4,
                            time_slice=10_000, warmup_fraction=0.25)
    result = run_experiment("coloring", scale)
    assert result.findings == COLORING_FINDINGS
    assert set(compiled_calls) == ({"PageTable", "RandomPageTable"}
                                   if path == "compiled" else set())

"""Result cache: key sensitivity, corruption detection, concurrent writers."""

import hashlib
import json
import multiprocessing
from dataclasses import replace

import pytest

from repro.core.config import (
    BypassMode,
    WritePolicy,
    base_architecture,
    write_through_buffer,
)
from repro.core.stats import SimStats
from repro.farm.cache import (
    CACHE_MAGIC,
    CACHE_SCHEMA_VERSION,
    ResultCache,
    point_key,
)
from repro.farm.pool import fork_available
from repro.robust.faults import FaultInjector
from repro.trace.benchmarks import default_suite

SUITE = tuple(default_suite(instructions_per_benchmark=5_000)[:2])


def key_of(config=None, profiles=SUITE, time_slice=4_000, level=None,
           warmup_instructions=0, max_instructions=None):
    return point_key(config if config is not None else base_architecture(),
                     profiles, time_slice, level, warmup_instructions,
                     max_instructions)


def sample_stats(instructions=1234):
    stats = SimStats()
    stats.instructions = instructions
    stats.loads = 300
    stats.cycles = 5000
    return stats


class TestKeySensitivity:
    def test_key_is_stable(self):
        assert key_of() == key_of()

    @pytest.mark.parametrize("mutate", [
        lambda c: c.with_(write_policy=WritePolicy.WRITE_ONLY,
                          write_buffer=write_through_buffer()),
        lambda c: c.with_(cpu_stall_cpi=c.cpu_stall_cpi + 0.01),
        lambda c: c.with_(icache=replace(c.icache,
                                         size_words=c.icache.size_words // 2)),
        lambda c: c.with_(dcache=replace(c.dcache,
                                         line_words=c.dcache.line_words // 2)),
        lambda c: c.with_(write_buffer=replace(c.write_buffer,
                                               depth=c.write_buffer.depth + 1)),
        lambda c: c.with_(l2=replace(c.l2, access_time=c.l2.access_time + 2)),
        lambda c: c.with_(l2=replace(c.l2, size_words=c.l2.size_words * 2)),
        lambda c: c.with_(tlb=replace(c.tlb, enabled=not c.tlb.enabled)),
    ], ids=["write_policy", "cpu_stall_cpi", "icache_size", "dcache_line",
            "wb_depth", "l2_access", "l2_size", "tlb"])
    def test_any_config_field_change_changes_key(self, mutate):
        assert key_of(mutate(base_architecture())) != key_of()

    def test_bypass_mode_changes_key(self):
        def write_only(bypass):
            base = base_architecture()
            return base.with_(
                write_policy=WritePolicy.WRITE_ONLY,
                write_buffer=write_through_buffer(),
                concurrency=replace(base.concurrency, bypass=bypass))

        assert key_of(write_only(BypassMode.DIRTY_BIT)) \
            != key_of(write_only(BypassMode.NONE))

    @pytest.mark.parametrize("kwargs", [
        {"time_slice": 8_000},
        {"level": 1},
        {"warmup_instructions": 100},
        {"max_instructions": 9_999},
    ], ids=["time_slice", "level", "warmup", "budget"])
    def test_run_parameter_change_changes_key(self, kwargs):
        assert key_of(**kwargs) != key_of()

    def test_workload_change_changes_key(self):
        reseeded = (replace(SUITE[0], seed=SUITE[0].seed + 1),) + SUITE[1:]
        longer = (replace(SUITE[0], instructions=7_000),) + SUITE[1:]
        assert key_of(profiles=reseeded) != key_of()
        assert key_of(profiles=longer) != key_of()
        assert key_of(profiles=SUITE[:1]) != key_of()
        assert key_of(profiles=SUITE[::-1]) != key_of()

    def test_config_name_is_excluded_from_key(self):
        # The label is documentation; identical machines share an entry.
        renamed = base_architecture().with_(name="something-else")
        assert key_of(renamed) == key_of()

    def test_schema_version_is_part_of_key(self):
        payload_a = {"schema": CACHE_SCHEMA_VERSION}
        payload_b = {"schema": CACHE_SCHEMA_VERSION + 1}
        from repro.farm.cache import payload_key

        assert payload_key(payload_a) != payload_key(payload_b)


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_of()
        cache.put(key, sample_stats(), meta={"label": "base"})
        got = cache.get(key)
        assert got is not None
        assert got.to_dict() == sample_stats().to_dict()
        assert cache.stats()["entries"] == 1
        assert cache.hits == 1 and cache.stores == 1

    def test_hit_decodes_stats_once(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        key = key_of()
        cache.put(key, sample_stats())
        decoded = []
        original = SimStats.from_dict.__func__

        def counting(cls, data):
            decoded.append(data)
            return original(cls, data)

        monkeypatch.setattr(SimStats, "from_dict", classmethod(counting))
        got = cache.get(key)
        assert got.to_dict() == sample_stats().to_dict()
        assert len(decoded) == 1  # verification's decode is the answer

    def test_absent_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(key_of()) is None
        assert cache.misses == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_of()
        cache.put(key, sample_stats())
        cache.put(key, sample_stats())  # overwrite path
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


class TestCorruptionIsAMiss:
    def _entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_of()
        path = cache.put(key, sample_stats())
        return cache, key, path

    def test_bit_flip_detected_by_checksum(self, tmp_path):
        cache, key, path = self._entry(tmp_path)
        # The same byte-flipper the checkpoint suite uses.
        FaultInjector().corrupt_checkpoint(path)
        assert cache.get(key) is None
        assert cache.corrupt_dropped == 1
        assert not path.exists()  # bad entry self-healed away

    def test_truncation_detected(self, tmp_path):
        cache, key, path = self._entry(tmp_path)
        path.write_text(path.read_text()[:40])
        assert cache.get(key) is None
        assert cache.corrupt_dropped == 1

    def test_garbage_detected(self, tmp_path):
        cache, key, path = self._entry(tmp_path)
        path.write_text("not json at all")
        assert cache.get(key) is None

    def test_wrong_magic_detected(self, tmp_path):
        cache, key, path = self._entry(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["magic"] = "not-a-farm-entry"
        path.write_text(json.dumps(envelope))
        assert cache.get(key) is None

    def test_wrong_version_detected(self, tmp_path):
        cache, key, path = self._entry(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["version"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(envelope))
        assert cache.get(key) is None

    def test_tampered_stats_fail_checksum(self, tmp_path):
        cache, key, path = self._entry(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["stats"]["instructions"] += 1
        path.write_text(json.dumps(envelope))
        assert cache.get(key) is None

    def test_undecodable_stats_are_dropped_and_unlinked(self, tmp_path):
        # A sound envelope (checksum re-sealed) whose stats do not decode:
        # the decode inside verification must still condemn the entry.
        from repro.farm.cache import _canonical

        cache, key, path = self._entry(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["stats"]["no_such_counter"] = 1
        envelope["sha256"] = hashlib.sha256(
            _canonical(envelope["payload"])).hexdigest()
        path.write_text(json.dumps(envelope))
        assert cache.get(key) is None
        assert cache.corrupt_dropped == 1 and cache.misses == 1
        assert not path.exists()

    def test_key_mismatch_detected(self, tmp_path):
        # An entry renamed (or hash-colliding) to the wrong address.
        cache, key, path = self._entry(tmp_path)
        other = key_of(time_slice=9_999)
        path.rename(tmp_path / f"{other}.json")
        assert cache.get(other) is None
        assert cache.corrupt_dropped == 1

    def test_miss_after_corruption_can_be_refilled(self, tmp_path):
        cache, key, path = self._entry(tmp_path)
        FaultInjector().corrupt_checkpoint(path)
        assert cache.get(key) is None
        cache.put(key, sample_stats())
        assert cache.get(key) is not None


def _hammer(args):
    root, key, worker_id = args
    cache = ResultCache(root)
    for i in range(25):
        cache.put(key, sample_stats(instructions=1234), meta={"w": worker_id})


@pytest.mark.skipif(not fork_available(), reason="platform cannot fork")
class TestConcurrentWriters:
    def test_parallel_puts_never_clobber(self, tmp_path):
        key = key_of()
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_hammer, args=((tmp_path, key, w),))
                 for w in range(4)]
        for proc in procs:
            proc.start()
        reader = ResultCache(tmp_path)
        # Read while the writers race; every observation must be either
        # a miss (not yet written) or a fully valid entry.
        for _ in range(200):
            got = reader.get(key)
            if got is not None:
                assert got.instructions == 1234
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        assert reader.corrupt_dropped == 0
        final = ResultCache(tmp_path).get(key)
        assert final is not None and final.instructions == 1234
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


def _gc_hammer(args):
    root, _key, _worker = args
    cache = ResultCache(root)
    for _ in range(60):
        cache.gc(keep=1)
        cache.gc(max_age_days=0.0)  # doom everything: maximal contention


@pytest.mark.skipif(not fork_available(), reason="platform cannot fork")
class TestGcRaces:
    def test_gc_racing_get_and_put_never_raises(self, tmp_path):
        """gc() unlinking entries while readers stat/open them is the
        classic TOCTOU; the contract is a valid hit or a clean miss on
        every side, never an exception."""
        keys = [key_of(time_slice=s) for s in (1_000, 2_000, 3_000)]
        for key in keys:
            ResultCache(tmp_path).put(key, sample_stats())
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_hammer, args=((tmp_path, key, w),))
                 for w, key in enumerate(keys)]
        procs += [ctx.Process(target=_gc_hammer, args=((tmp_path, None, g),))
                  for g in range(2)]
        for proc in procs:
            proc.start()
        reader = ResultCache(tmp_path)
        for i in range(300):
            got = reader.get(keys[i % len(keys)])
            if got is not None:
                assert got.instructions == 1234
            reader.stats()  # walks the same directory the gc is emptying
        for proc in procs:
            proc.join()
            # A raise inside a gc or put worker exits non-zero.
            assert proc.exitcode == 0
        # The cache still works after the fight.
        cache = ResultCache(tmp_path)
        cache.put(keys[0], sample_stats())
        assert cache.get(keys[0]) is not None


class TestManagement:
    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key_of(), sample_stats())
        cache.put(key_of(time_slice=8_000), sample_stats())
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_gc_keep(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        for i, slice_ in enumerate((1_000, 2_000, 3_000)):
            path = cache.put(key_of(time_slice=slice_), sample_stats())
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        assert cache.gc(keep=1) == 2
        assert cache.stats()["entries"] == 1

    def test_gc_max_age(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        old = cache.put(key_of(), sample_stats())
        os.utime(old, (1_000_000, 1_000_000))  # 1970s-old
        cache.put(key_of(time_slice=8_000), sample_stats())
        assert cache.gc(max_age_days=365) == 1
        assert cache.stats()["entries"] == 1

    def test_stats_counts_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key_of(), sample_stats())
        info = cache.stats()
        assert info["entries"] == 1 and info["bytes"] > 100

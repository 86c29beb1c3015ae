"""Unit tests for the cluster cache and MSHR."""

import random

import pytest

from repro.machine.config import CacheConfig
from repro.memory.cache import ClusterCache, LineState, MSHR


def _cache(size=1024, assoc=1, mshr=4):
    return ClusterCache(
        CacheConfig(size=size, line_size=32, associativity=assoc,
                    mshr_entries=mshr),
        cluster_id=0,
    )


class TestMSHR:
    def test_allocates_immediately_when_free(self):
        mshr = MSHR(2)
        assert mshr.allocate(10) == 10

    def test_waits_when_full(self):
        mshr = MSHR(2)
        mshr.allocate(0); mshr.hold(20)
        mshr.allocate(0); mshr.hold(30)
        grant = mshr.allocate(5)
        assert grant == 20  # waits for the earliest release
        assert mshr.total_wait_cycles == 15

    def test_frees_after_release_time(self):
        mshr = MSHR(1)
        mshr.allocate(0); mshr.hold(10)
        assert mshr.allocate(11) == 11

    def test_occupancy(self):
        mshr = MSHR(4)
        mshr.hold(10)
        mshr.hold(20)
        assert mshr.occupancy(5) == 2
        assert mshr.occupancy(15) == 1
        assert mshr.occupancy(25) == 0

    def test_peak_occupancy(self):
        mshr = MSHR(4)
        mshr.hold(10)
        mshr.hold(10)
        mshr.hold(10)
        assert mshr.peak_occupancy == 3

    def test_needs_one_entry(self):
        with pytest.raises(ValueError):
            MSHR(0)

    def test_reset_stats(self):
        mshr = MSHR(1)
        mshr.allocate(0); mshr.hold(10)
        mshr.allocate(0)
        mshr.reset_stats()
        assert mshr.total_wait_cycles == 0
        assert mshr.peak_occupancy == 0

    def test_sorted_list_matches_the_filter_and_append_semantics(self):
        """The in-place sorted release list grants, waits and peaks
        exactly like the original filter-sort-append MSHR, kept here as
        the reference."""
        rng = random.Random(17)
        for _trial in range(200):
            n_entries = rng.randrange(1, 5)
            mshr = MSHR(n_entries)
            release, wait, peak = [], 0, 0
            time = 0
            for _ in range(rng.randrange(1, 80)):
                time += rng.randrange(0, 4)
                if rng.random() < 0.1:
                    release = [t for t in release if t > time]
                    assert mshr.occupancy(time) == len(release)
                    continue
                release = sorted(t for t in release if t > time)
                grant = (
                    time if len(release) < n_entries
                    else release[len(release) - n_entries]
                )
                wait += grant - time
                assert mshr.allocate(time) == grant
                until = grant + rng.randrange(1, 30)
                release.append(until)
                peak = max(peak, len(release))
                mshr.hold(until)
                assert mshr._release_times == sorted(release)
            assert mshr.total_wait_cycles == wait
            assert mshr.peak_occupancy == peak

    def test_release_list_changes_in_place(self):
        mshr = MSHR(2)
        release = mshr._release_times
        for time in range(0, 40, 3):
            mshr.allocate(time)
            mshr.hold(time + 9 - time % 4)  # out of order now and then
            mshr.occupancy(time + 1)
        assert mshr._release_times is release
        assert release == sorted(release)


class TestClusterCacheStates:
    def test_starts_invalid(self):
        cache = _cache()
        assert cache.state_of(0) is LineState.INVALID

    def test_fill_shared(self):
        cache = _cache()
        cache.fill(0, LineState.SHARED)
        assert cache.state_of(0) is LineState.SHARED
        assert cache.state_of(31) is LineState.SHARED  # same line
        assert cache.state_of(32) is LineState.INVALID

    def test_read_hit_rules(self):
        cache = _cache()
        cache.fill(0, LineState.SHARED)
        assert cache.is_hit(0, is_store=False)
        assert not cache.is_hit(0, is_store=True)  # S cannot absorb a store
        cache.set_state(0, LineState.MODIFIED)
        assert cache.is_hit(0, is_store=True)

    def test_invalidate_reports_dirty(self):
        cache = _cache()
        cache.fill(0, LineState.MODIFIED)
        assert cache.invalidate(0) is True
        assert cache.state_of(0) is LineState.INVALID
        assert cache.invalidate(0) is False  # already gone

    def test_set_state_noop_when_absent(self):
        cache = _cache()
        cache.set_state(64, LineState.SHARED)
        assert cache.state_of(64) is LineState.INVALID


class TestEviction:
    def test_direct_mapped_conflict_evicts(self):
        cache = _cache(size=1024)
        cache.fill(0, LineState.SHARED)
        victim = cache.fill(1024, LineState.SHARED)  # same set
        assert victim == (0, LineState.SHARED)
        assert cache.state_of(0) is LineState.INVALID

    def test_dirty_victim_reported(self):
        cache = _cache(size=1024)
        cache.fill(0, LineState.MODIFIED)
        victim = cache.fill(1024, LineState.SHARED)
        assert victim == (0, LineState.MODIFIED)

    def test_refill_same_line_no_victim(self):
        cache = _cache()
        cache.fill(0, LineState.SHARED)
        assert cache.fill(0, LineState.MODIFIED) is None
        assert cache.state_of(0) is LineState.MODIFIED

    def test_associative_keeps_conflicting_lines(self):
        cache = _cache(size=1024, assoc=2)
        cache.fill(0, LineState.SHARED)
        victim = cache.fill(1024, LineState.SHARED)
        assert victim is None
        assert cache.state_of(0) is LineState.SHARED
        assert cache.state_of(1024) is LineState.SHARED

    def test_lru_eviction_order(self):
        cache = _cache(size=1024, assoc=2)
        cache.fill(0, LineState.SHARED)
        cache.fill(1024, LineState.SHARED)
        cache.touch(0)  # 1024 becomes LRU
        victim = cache.fill(2048, LineState.SHARED)
        assert victim[0] == 1024

    def test_victim_line_address_roundtrip(self):
        cache = _cache(size=1024)
        cache.fill(32 * 5 + 1024 * 3, LineState.SHARED)
        victim = cache.fill(32 * 5 + 1024 * 7, LineState.SHARED)
        assert victim[0] == 32 * 5 + 1024 * 3

    def test_resident_lines_and_clear(self):
        cache = _cache()
        cache.fill(0, LineState.SHARED)
        cache.fill(64, LineState.MODIFIED)
        assert cache.resident_lines() == 2
        cache.clear()
        assert cache.resident_lines() == 0

"""Equivalence and regression suite for the incremental CME engine.

The contract under test: :class:`repro.cme.IncrementalCME` answers every
probe *exactly* like the from-scratch sampled reference
(:meth:`repro.cme.SamplingCME._simulate`) — across generated kernels, op
subsets, cache geometries (associativity, line size), probe orders and
scheduler-style incremental growth — while memoizing on loop *content*
so entries survive GC id reuse, pickling and process fan-out.
"""

import gc
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cme import IncrementalCME, SamplingCME, loop_fingerprint
from repro.ir import LoopBuilder
from repro.machine.config import CacheConfig
from repro.workloads import random_kernel

_SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Geometry grid the suite sweeps: direct-mapped and set-associative,
#: small and large lines, including a tiny cache that forces heavy
#: replacement traffic.
GEOMETRIES = (
    CacheConfig(size=256, line_size=16),
    CacheConfig(size=512, line_size=32),
    CacheConfig(size=1024, line_size=32, associativity=2),
    CacheConfig(size=2048, line_size=64, associativity=4),
    CacheConfig(size=4096, line_size=32, associativity=1),
)


def _reference(loop, ops, cache, max_points):
    """From-scratch functional-cache sweep (no memo involved)."""
    return SamplingCME(max_points=max_points)._simulate(
        loop, tuple(op for op in ops if op.is_memory), cache
    )


def _streaming_kernel(n=64, stride=1, name="k"):
    b = LoopBuilder(name)
    i = b.dim("i", 0, n)
    a = b.array("A", (n * max(stride, 1),))
    b.load(a, [b.aff(i=stride)], name="ld")
    return b.build()


# ---------------------------------------------------------------------------
# Exact equivalence with the from-scratch reference
# ---------------------------------------------------------------------------
@_SLOW
@given(
    seed=st.integers(0, 10_000),
    order_seed=st.integers(0, 1_000),
    geometry=st.sampled_from(GEOMETRIES),
    max_points=st.sampled_from([64, 256]),
)
def test_incremental_equals_reference_across_probe_orders(
    seed, order_seed, geometry, max_points
):
    """Random subsets probed in random orders: every answer is exactly
    the from-scratch estimate, regardless of which snapshots exist."""
    kernel = random_kernel(seed)
    loop = kernel.loop
    mem_ops = list(loop.memory_operations)
    rng = random.Random(order_seed)
    analyzer = IncrementalCME(max_points=max_points)
    for _ in range(8):
        subset = rng.sample(mem_ops, rng.randint(0, len(mem_ops)))
        rng.shuffle(subset)
        got = analyzer.estimate(loop, subset, geometry)
        want = _reference(loop, subset, geometry, max_points)
        assert got == want


@_SLOW
@given(seed=st.integers(0, 10_000), geometry=st.sampled_from(GEOMETRIES))
def test_scheduler_growth_pattern_is_exact(seed, geometry):
    """The RMCA probe pattern: residents grow one op at a time, every
    ``resident + [candidate]`` probe answered incrementally is exact."""
    kernel = random_kernel(seed)
    loop = kernel.loop
    mem_ops = list(loop.memory_operations)
    analyzer = IncrementalCME(max_points=128)
    resident = []
    for candidate in mem_ops:
        for other in mem_ops:
            if other in resident:
                continue
            probed = resident + [other]
            got = analyzer.estimate(loop, probed, geometry)
            assert got == _reference(loop, probed, geometry, 128)
            ratio = analyzer.miss_ratio(loop, other, probed, geometry)
            assert ratio == got.miss_ratio(other.name)
        resident.append(candidate)
        count = analyzer.miss_count(loop, resident, geometry)
        assert count == float(
            _reference(loop, resident, geometry, 128).total_misses
        )


@_SLOW
@given(seed=st.integers(0, 10_000))
def test_probe_clusters_matches_per_cluster_reference(seed):
    """The batched sweep returns exactly the per-cluster estimates."""
    kernel = random_kernel(seed)
    loop = kernel.loop
    mem_ops = list(loop.memory_operations)
    if len(mem_ops) < 2:
        return
    candidate, rest = mem_ops[-1], mem_ops[:-1]
    half = len(rest) // 2
    residents = [rest[:half], rest[half:]]
    caches = [GEOMETRIES[1], GEOMETRIES[3]]
    analyzer = IncrementalCME(max_points=128)
    probes = analyzer.probe_clusters(loop, candidate, residents, caches)
    for resident, cache, probe in zip(residents, caches, probes):
        assert probe == _reference(loop, resident + [candidate], cache, 128)
    assert analyzer.telemetry()["batched_calls"] == 1


def test_estimate_is_memoized_and_batched_probes_warm_the_memo():
    kernel = _streaming_kernel()
    loop = kernel.loop
    cache = CacheConfig(size=512, line_size=32)
    analyzer = IncrementalCME(max_points=64)
    ops = list(loop.memory_operations)
    first = analyzer.estimate(loop, ops, cache)
    assert analyzer.estimate(loop, ops, cache) is first
    assert analyzer.telemetry()["memo_hits"] == 1
    # miss_ratio / miss_count over the same set are memo hits too.
    analyzer.miss_ratio(loop, ops[0], ops, cache)
    analyzer.miss_count(loop, ops, cache)
    assert analyzer.telemetry()["memo_hits"] == 3


def test_non_memory_ops_and_empty_sets_match_reference():
    b = LoopBuilder("k")
    i = b.dim("i", 0, 16)
    a = b.array("A", (16,))
    v = b.load(a, [b.aff(i=1)], name="ld")
    b.fadd(v, v, name="add")
    kernel = b.build()
    cache = CacheConfig(size=512, line_size=32)
    analyzer = IncrementalCME(max_points=32)
    est = analyzer.estimate(kernel.loop, kernel.loop.operations, cache)
    assert est == _reference(kernel.loop, kernel.loop.operations, cache, 32)
    assert set(est.accesses) == {"ld"}
    assert analyzer.estimate(kernel.loop, [], cache).total_accesses == 0
    assert analyzer.miss_count(kernel.loop, [], cache) == 0.0


def test_max_points_validation():
    with pytest.raises(ValueError):
        IncrementalCME(max_points=0)


# ---------------------------------------------------------------------------
# Content addressing: sharing, pickling, fan-out
# ---------------------------------------------------------------------------
def test_content_identical_loops_share_memo_entries():
    """Two distinct loop objects with equal content hit one memo entry."""
    cache = CacheConfig(size=512, line_size=32)
    analyzer = IncrementalCME(max_points=64)
    first = _streaming_kernel()
    second = _streaming_kernel()
    assert first.loop is not second.loop
    assert loop_fingerprint(first.loop) == loop_fingerprint(second.loop)
    a = analyzer.estimate(first.loop, first.loop.memory_operations, cache)
    b = analyzer.estimate(second.loop, second.loop.memory_operations, cache)
    assert a is b  # same memo entry, not merely equal


def test_loop_name_does_not_change_the_fingerprint_but_content_does():
    base = _streaming_kernel(name="one")
    renamed = _streaming_kernel(name="two")
    different = _streaming_kernel(stride=2, name="one")
    assert loop_fingerprint(base.loop) == loop_fingerprint(renamed.loop)
    assert loop_fingerprint(base.loop) != loop_fingerprint(different.loop)


def test_pickled_analyzer_ships_warm_traces_not_memos():
    """Grid fan-out pickles the analyzer into workers: the expensive
    content-addressed traces survive the round-trip (no re-walk of the
    iteration space), while the unbounded probe memos are dropped —
    workers rebuild snapshots from the traces."""
    cache = CacheConfig(size=512, line_size=32)
    analyzer = IncrementalCME(max_points=64)
    kernel = _streaming_kernel()
    want = analyzer.estimate(kernel.loop, kernel.loop.memory_operations, cache)
    clone = pickle.loads(pickle.dumps(analyzer))
    assert clone.telemetry()["address_traces"] >= 1
    assert clone.telemetry()["snapshots"] == 0
    builds_before = clone.traces.address_builds
    fresh = _streaming_kernel()  # a worker resolves its own loop objects
    got = clone.estimate(fresh.loop, fresh.loop.memory_operations, cache)
    assert got == want
    assert clone.traces.address_builds == builds_before  # trace reused


# ---------------------------------------------------------------------------
# The id(loop) aliasing regression (satellite fix)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "analyzer_factory", [SamplingCME, IncrementalCME], ids=["sampling", "incremental"]
)
def test_gc_id_reuse_cannot_alias_a_stale_estimate(analyzer_factory):
    """A GC'd loop's address recycled by a fresh, *different* loop must
    not serve the dead loop's estimate.

    The historical memo keyed on ``id(loop)``: allocate a loop whose
    single load always misses, drop it, and allocate a different loop
    (same op name, same geometry — the rest of the old key) until the
    allocator hands back the same address.  Content-fingerprint keys
    make the collision impossible; the id-keyed memo returned the stale
    always-miss estimate for the stride-1 loop.
    """
    cache = CacheConfig(size=512, line_size=32)
    analyzer = analyzer_factory(max_points=64)
    hot_ids = set()
    hot = [_streaming_kernel(stride=8) for _ in range(150)]  # always miss
    for kernel in hot:
        loop = kernel.loop
        est = analyzer.estimate(loop, loop.memory_operations, cache)
        assert est.miss_ratio("ld") == 1.0
        hot_ids.add(id(loop))
    del hot, kernel, loop, est
    gc.collect()
    cold = [_streaming_kernel(stride=1) for _ in range(150)]  # miss per line
    collisions = sum(1 for kernel in cold if id(kernel.loop) in hot_ids)
    for kernel in cold:
        got = analyzer.estimate(
            kernel.loop, kernel.loop.memory_operations, cache
        )
        # The id-keyed memo served the stale always-miss estimate here
        # whenever the allocator recycled a hot loop's address.
        assert got.miss_ratio("ld") < 1.0
    if collisions == 0:
        pytest.skip("allocator never recycled a loop address")

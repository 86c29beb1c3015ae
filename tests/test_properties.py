"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import invariants
from repro.cme.sampling import _FunctionalCache
from repro.ir.references import AffineExpr, Array, ArrayReference
from repro.machine import two_cluster, unified
from repro.machine.config import CacheConfig
from repro.memory.cache import ClusterCache, LineState
from repro.memory.coherence import BusOp, MSIController
from repro.scheduler import BaselineScheduler
from repro.scheduler.lifetimes import cluster_pressures
from repro.scheduler.mii import compute_mii
from repro.simulator import VectorizedSimulator
from repro.workloads import GeneratorConfig, random_kernel

_SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Affine expressions / references
# ---------------------------------------------------------------------------
@given(
    constant=st.integers(-100, 100),
    ci=st.integers(-5, 5),
    cj=st.integers(-5, 5),
    i=st.integers(-50, 50),
    j=st.integers(-50, 50),
)
def test_affine_evaluation_is_linear(constant, ci, cj, i, j):
    expr = AffineExpr.of(constant, i=ci, j=cj)
    assert expr.evaluate({"i": i, "j": j}) == constant + ci * i + cj * j


@given(
    constant=st.integers(-100, 100),
    delta=st.integers(-100, 100),
    ci=st.integers(-5, 5),
    i=st.integers(-50, 50),
)
def test_affine_shift_commutes_with_evaluation(constant, delta, ci, i):
    expr = AffineExpr.of(constant, i=ci)
    assert expr.shifted(delta).evaluate({"i": i}) == expr.evaluate({"i": i}) + delta


@given(
    shape=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    element_size=st.sampled_from([4, 8]),
    base=st.integers(0, 4096),
)
def test_array_addresses_within_footprint(shape, element_size, base):
    array = Array("A", tuple(shape), element_size, base)
    last = tuple(s - 1 for s in shape)
    assert array.address(last) == base + (array.n_elements - 1) * element_size
    assert array.address((0,) * len(shape)) == base


@given(
    offset_a=st.integers(0, 10),
    offset_b=st.integers(0, 10),
)
def test_uniform_generation_symmetric(offset_a, offset_b):
    array = Array("A", (64,))
    ref_a = ArrayReference(array, (AffineExpr.of(offset_a, i=1),))
    ref_b = ArrayReference(array, (AffineExpr.of(offset_b, i=1),))
    assert ref_a.is_uniformly_generated_with(ref_b)
    assert ref_b.is_uniformly_generated_with(ref_a)
    dist_ab = ref_a.constant_distance_to(ref_b)
    dist_ba = ref_b.constant_distance_to(ref_a)
    assert dist_ab == tuple(-d for d in dist_ba)


# ---------------------------------------------------------------------------
# Functional cache model
# ---------------------------------------------------------------------------
@given(
    addresses=st.lists(st.integers(0, 8192), min_size=1, max_size=200),
)
def test_functional_cache_repeat_access_hits(addresses):
    cache = _FunctionalCache(CacheConfig(size=1024, line_size=32))
    for address in addresses:
        cache.access(address)
        assert cache.access(address)  # immediate re-access always hits


@given(
    addresses=st.lists(st.integers(0, 4096), min_size=1, max_size=100),
    assoc=st.sampled_from([1, 2, 4]),
)
def test_higher_associativity_never_more_misses(addresses, assoc):
    direct = _FunctionalCache(CacheConfig(size=1024, line_size=32))
    assoc_cache = _FunctionalCache(
        CacheConfig(size=1024, line_size=32, associativity=assoc)
    )
    direct_misses = sum(not direct.access(a) for a in addresses)
    assoc_misses = sum(not assoc_cache.access(a) for a in addresses)
    # LRU with more ways on the same capacity cannot miss more on these
    # streams (set-partitioning inclusion holds for fixed capacity + LRU).
    assert assoc_misses <= direct_misses + len(addresses) // 10 + 1


# ---------------------------------------------------------------------------
# MSI coherence
# ---------------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 3),                  # requesting cluster
            st.sampled_from([0, 64, 1024]),     # line address
            st.booleans(),                      # is_store
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_msi_invariants_hold_under_random_traffic(ops):
    caches = [
        ClusterCache(CacheConfig(size=1024, line_size=32), cluster_id=k)
        for k in range(4)
    ]
    msi = MSIController(caches)
    for cluster, address, is_store in ops:
        op = BusOp.BUS_RDX if is_store else BusOp.BUS_RD
        msi.snoop(cluster, address, op)
        caches[cluster].fill(
            address, LineState.MODIFIED if is_store else LineState.SHARED
        )
        for line in (0, 64, 1024):
            msi.check_invariants(line)


# ---------------------------------------------------------------------------
# Scheduler invariants over random kernels
# ---------------------------------------------------------------------------
_GEN_CONFIG = GeneratorConfig(max_extent=24, min_extent=6, max_loads=4, max_arith=5)


@_SLOW
@given(seed=st.integers(0, 10_000))
def test_random_kernels_schedule_validates(seed):
    kernel = random_kernel(seed, _GEN_CONFIG)
    machine = two_cluster()
    schedule = BaselineScheduler().schedule(kernel, machine)
    schedule.validate()  # dependences, FU capacity, bus capacity
    assert schedule.ii >= compute_mii(kernel.ddg, machine)[0]


@_SLOW
@given(seed=st.integers(0, 10_000))
def test_random_kernels_pressure_within_register_files(seed):
    kernel = random_kernel(seed, _GEN_CONFIG)
    machine = two_cluster()
    schedule = BaselineScheduler().schedule(kernel, machine)
    for cluster, pressure in cluster_pressures(schedule).items():
        assert pressure <= machine.cluster(cluster).n_registers


@_SLOW
@given(seed=st.integers(0, 10_000))
def test_random_runs_keep_the_timing_invariants(seed):
    kernel = random_kernel(seed, _GEN_CONFIG)
    schedule = BaselineScheduler().schedule(kernel, unified())
    simulator = VectorizedSimulator(
        schedule, n_iterations=min(8, kernel.loop.n_iterations)
    )
    result = simulator.run()
    invariants.check_run(simulator, result)
    assert result.stall_cycles >= 0


@_SLOW
@given(seed=st.integers(0, 10_000))
def test_unified_machine_never_communicates(seed):
    kernel = random_kernel(seed, _GEN_CONFIG)
    schedule = BaselineScheduler().schedule(kernel, unified())
    assert schedule.communications == []


# ---------------------------------------------------------------------------
# ISA encoding, expansion, MVE and unrolling over random kernels
# ---------------------------------------------------------------------------
@_SLOW
@given(seed=st.integers(0, 10_000))
def test_random_kernels_encode_to_the_isa(seed):
    from repro.isa import encode_kernel

    kernel = random_kernel(seed, _GEN_CONFIG)
    schedule = BaselineScheduler().schedule(kernel, two_cluster())
    program = encode_kernel(schedule)
    program.validate()
    encoded = {
        f.op
        for i in program.instructions
        for c in i.clusters
        for f in c.fu_fields
        if f.op is not None
    }
    assert encoded == set(schedule.placements)


@_SLOW
@given(seed=st.integers(0, 10_000), niter=st.integers(8, 24))
def test_random_kernels_expand_consistently(seed, niter):
    from repro.scheduler import expand

    kernel = random_kernel(seed, _GEN_CONFIG)
    schedule = BaselineScheduler().schedule(kernel, unified())
    if niter < schedule.stage_count:
        niter = schedule.stage_count
    expanded = expand(schedule, niter)
    # The paper's (NITER + SC - 1) * II is exact when the last operation
    # occupies the final slot of its stage, otherwise an upper bound by
    # less than one II.
    bound = (niter + schedule.stage_count - 1) * schedule.ii
    assert bound - schedule.ii < expanded.total_cycles <= bound
    assert len(expanded.prolog) + len(expanded.kernel) + len(
        expanded.epilog
    ) == niter * len(schedule.placements)


@_SLOW
@given(seed=st.integers(0, 10_000))
def test_random_kernels_allocate_registers(seed):
    from repro.scheduler.mve import allocate_registers

    kernel = random_kernel(seed, _GEN_CONFIG)
    schedule = BaselineScheduler().schedule(kernel, two_cluster())
    assignment = allocate_registers(schedule)
    assert assignment.unroll_factor >= 1
    for cluster, used in assignment.used_per_cluster.items():
        assert used <= schedule.machine.cluster(cluster).n_registers


@_SLOW
@given(seed=st.integers(0, 10_000), factor=st.sampled_from([2, 3, 4]))
def test_unroll_preserves_touched_addresses(seed, factor):
    from repro.transform import UnrollError, unroll

    kernel = random_kernel(seed, _GEN_CONFIG)
    try:
        unrolled = unroll(kernel, factor)
    except UnrollError:
        return  # trip count not divisible: nothing to check

    def touched(k):
        out = set()
        for point in k.loop.iteration_points():
            for ref in k.loop.refs:
                out.add((ref.array.name, ref.address(point), ref.is_store))
        return out

    assert touched(kernel) == touched(unrolled)


@_SLOW
@given(seed=st.integers(0, 10_000))
def test_equations_match_simulation_on_random_kernels(seed):
    from repro.cme import EquationCME, SamplingCME
    from repro.machine.config import CacheConfig

    kernel = random_kernel(seed, _GEN_CONFIG)
    cache = CacheConfig(size=1024, line_size=32)
    equations = EquationCME(max_points=128)
    simulation = SamplingCME(max_points=128)
    ops = kernel.loop.memory_operations
    for op in ops:
        assert equations.miss_ratio(
            kernel.loop, op, ops, cache
        ) == simulation.miss_ratio(kernel.loop, op, ops, cache)


@_SLOW
@given(seed=st.integers(0, 10_000))
@example(seed=176)  # cross-cluster operands stall: needs the bus latency
def test_trace_stall_matches_simulation(seed):
    from repro.simulator import simulate
    from repro.simulator.trace import trace_schedule

    kernel = random_kernel(seed, _GEN_CONFIG)
    schedule = BaselineScheduler().schedule(kernel, two_cluster())
    niter = min(8, kernel.loop.n_iterations)
    trace = trace_schedule(schedule, n_iterations=niter, n_times=1)
    plain = simulate(schedule, n_iterations=niter, n_times=1)
    assert trace.total_stall == plain.stall_cycles

"""Timing-model invariants, for every run and schedule the differential
matrix (``tests/test_differential.py``) makes.

The reference and every fast path share the code these checks restate,
so a bug there moves both sides of a differential check alike: only an
invariant catches it.  Each check raises an ``AssertionError`` that
names its invariant, (a) to (e).
"""

from repro.memory.cache import LineState


def check_schedule(schedule) -> None:
    """(e) ``II ≥ MII``, and :meth:`Schedule.validate` passes."""
    assert schedule.ii >= schedule.mii, (
        f"(e) II {schedule.ii} < MII {schedule.mii}")
    try:
        schedule.validate()
    except AssertionError as exc:
        raise AssertionError(f"(e) {exc}") from None


def check_result(result) -> None:
    """(a) compute cycles are ``NTIMES × (NITER + SC − 1) × II``
    (Section 2.2); (b) every access is a local hit, a remote hit or a
    main-memory fill."""
    compute = result.n_times * result.ii * (
        result.n_iterations + result.stage_count - 1)
    assert result.compute_cycles == compute, (
        f"(a) compute cycles {result.compute_cycles}, formula {compute}")
    stats = result.memory
    served = stats.local_hits + stats.remote_hits + stats.main_memory
    assert stats.accesses == served, (
        f"(b) {stats.accesses} accesses, {served} served")


def check_run(simulator, result) -> None:
    """(a) and (b), then on the final memory state: (c) MSI single writer
    over every resident line, and (d) the memory buses busy ``latency``
    cycles per transaction."""
    check_result(result)
    memory = simulator.memory
    try:
        memory.check_coherence(sorted({
            cache._line_address(index, line.tag)
            for cache in memory.caches
            for index, ways in cache._sets.items()
            for line in ways if line.state is not LineState.INVALID}))
    except AssertionError as exc:
        raise AssertionError(f"(c) {exc}") from None
    bus = memory.bus
    assert bus.total_busy_cycles == bus.total_transactions * bus.latency, (
        f"(d) bus busy {bus.total_busy_cycles} cycles over "
        f"{bus.total_transactions} transactions of {bus.latency}")

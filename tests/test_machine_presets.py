"""Unit tests for the Table 1 machine presets."""

import pytest

from repro.machine import (
    ALL_PRESETS,
    TOTAL_CACHE_BYTES,
    TOTAL_REGISTERS,
    BusConfig,
    four_cluster,
    preset,
    two_cluster,
    unified,
)


class TestTable1Invariants:
    """The properties Table 1 fixes across all three configurations."""

    @pytest.mark.parametrize("factory", [unified, two_cluster, four_cluster])
    def test_twelve_way_issue(self, factory):
        assert factory().issue_width == 12

    @pytest.mark.parametrize("factory", [unified, two_cluster, four_cluster])
    def test_total_registers(self, factory):
        assert factory().total_registers == TOTAL_REGISTERS

    @pytest.mark.parametrize("factory", [unified, two_cluster, four_cluster])
    def test_total_cache(self, factory):
        assert factory().total_cache_size == TOTAL_CACHE_BYTES

    @pytest.mark.parametrize("factory", [unified, two_cluster, four_cluster])
    def test_caches_direct_mapped_non_blocking(self, factory):
        for cluster in factory().clusters:
            assert cluster.cache.associativity == 1
            assert cluster.cache.mshr_entries == 10
            assert cluster.cache.hit_latency == 2

    @pytest.mark.parametrize("factory", [unified, two_cluster, four_cluster])
    def test_main_memory_ten_cycles(self, factory):
        assert factory().main_memory_latency == 10

    @pytest.mark.parametrize("factory", [unified, two_cluster, four_cluster])
    def test_homogeneous_clusters(self, factory):
        machine = factory()
        first = machine.clusters[0]
        for cluster in machine.clusters:
            assert cluster == first


class TestPerConfiguration:
    def test_unified_shape(self):
        machine = unified()
        assert machine.n_clusters == 1
        cluster = machine.clusters[0]
        assert cluster.n_integer == cluster.n_fp == cluster.n_memory == 4
        assert cluster.n_registers == 64
        assert cluster.cache.size == 8 * 1024

    def test_two_cluster_shape(self):
        machine = two_cluster()
        assert machine.n_clusters == 2
        cluster = machine.clusters[0]
        assert cluster.n_integer == cluster.n_fp == cluster.n_memory == 2
        assert cluster.n_registers == 32
        assert cluster.cache.size == 4 * 1024

    def test_four_cluster_shape(self):
        machine = four_cluster()
        assert machine.n_clusters == 4
        cluster = machine.clusters[0]
        assert cluster.n_integer == cluster.n_fp == cluster.n_memory == 1
        assert cluster.n_registers == 16
        assert cluster.cache.size == 2 * 1024

    def test_default_buses_realistic(self):
        machine = two_cluster()
        assert machine.register_bus == BusConfig(count=2, latency=1)
        assert machine.memory_bus == BusConfig(count=1, latency=1)

    def test_bus_override(self):
        machine = four_cluster(register_bus=BusConfig(count=None, latency=4))
        assert machine.register_bus.unbounded
        assert machine.register_bus.latency == 4


class TestPresetLookup:
    def test_known_names(self):
        for name in ("unified", "2-cluster", "4-cluster"):
            assert preset(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset("16-cluster")

    def test_all_presets_registry(self):
        assert set(ALL_PRESETS) == {
            "unified", "2-cluster", "4-cluster", "heterogeneous",
        }


class TestHeterogeneous:
    def test_shares_table1_totals(self):
        from repro.machine import heterogeneous

        machine = heterogeneous()
        assert machine.issue_width == 12
        assert machine.total_registers == 64
        assert machine.total_cache_size == 8 * 1024

    def test_asymmetric_clusters(self):
        from repro.machine import heterogeneous

        machine = heterogeneous()
        big, small = machine.clusters
        assert big.issue_width == 9
        assert small.issue_width == 3
        assert big.cache.size == 3 * small.cache.size

    def test_schedulable(self):
        from repro.machine import heterogeneous
        from repro.scheduler import BaselineScheduler
        from repro.workloads import kernel_by_name

        kernel = kernel_by_name("hydro2d")
        schedule = BaselineScheduler().schedule(kernel, heterogeneous())
        schedule.validate()

    def test_big_cluster_takes_more_work(self):
        from repro.machine import heterogeneous
        from repro.scheduler import BaselineScheduler
        from repro.workloads import kernel_by_name

        kernel = kernel_by_name("tomcatv")
        schedule = BaselineScheduler().schedule(kernel, heterogeneous())
        counts = [len(schedule.ops_in_cluster(c)) for c in range(2)]
        assert counts[0] > counts[1]

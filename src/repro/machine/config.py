"""Machine configuration for the multiVLIWprocessor.

The configuration mirrors Section 2.1 and Table 1 of the paper:

* N homogeneous clusters, each with integer / FP / memory functional
  units, a local register file, and a local L1 data cache,
* a set of *register buses* shared by all clusters (compiler-managed,
  reservation-table resources),
* a set of *memory buses* connecting the local caches and main memory
  (hardware-arbitrated, timing-simulator resources),
* per-operation-class latencies.

``count=None`` on a :class:`BusConfig` means *unbounded* (the Section 5.2
study); the scheduler then never fails bus allocation and the timing
simulator never queues.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

from ..ir.operations import FUType, OpClass

__all__ = [
    "CacheConfig",
    "BusConfig",
    "ClusterConfig",
    "MachineConfig",
    "DEFAULT_LATENCIES",
]


#: Operation latencies used throughout the evaluation.  The motivating
#: example (Section 3) uses 2-cycle arithmetic and 2-cycle local-cache
#: hits; main memory is 10 cycles (Section 5.1).
DEFAULT_LATENCIES: Mapping[OpClass, int] = {
    OpClass.IADD: 1,
    OpClass.ISUB: 1,
    OpClass.IMUL: 2,
    OpClass.ICMP: 1,
    OpClass.SHIFT: 1,
    OpClass.FADD: 2,
    OpClass.FSUB: 2,
    OpClass.FMUL: 2,
    OpClass.FDIV: 8,
    OpClass.FNEG: 1,
    OpClass.LOAD: 2,  # local-cache hit latency (optimistic assumption)
    OpClass.STORE: 1,
}


@dataclass(frozen=True)
class CacheConfig:
    """One cluster's local L1 data cache.

    The paper's caches are direct-mapped, non-blocking, with a 10-entry
    MSHR; total capacity 8KB split evenly among clusters.
    """

    size: int
    line_size: int = 32
    associativity: int = 1
    mshr_entries: int = 10
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size <= 0 or self.line_size <= 0:
            raise ValueError("cache size and line size must be positive")
        if self.size % self.line_size != 0:
            raise ValueError("cache size must be a multiple of line size")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        n_lines = self.size // self.line_size
        if n_lines % self.associativity != 0:
            raise ValueError("line count must be divisible by associativity")
        if self.mshr_entries < 1:
            raise ValueError("MSHR needs at least one entry")

    # cached_property (not property): set_index/tag/line_address sit on
    # the simulators' per-access path, and the divisions add up over
    # hundreds of thousands of calls.  Works on a frozen dataclass
    # because the cache writes straight into __dict__.
    @cached_property
    def n_lines(self) -> int:
        return self.size // self.line_size

    @cached_property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity

    def set_index(self, address: int) -> int:
        """Cache set an address maps to."""
        return (address // self.line_size) % self.n_sets

    def tag(self, address: int) -> int:
        return address // self.line_size // self.n_sets

    def line_address(self, address: int) -> int:
        """Address of the first byte of the enclosing cache line."""
        return address - (address % self.line_size)


@dataclass(frozen=True)
class BusConfig:
    """A pool of identical shared buses.

    ``count=None`` models the unbounded-bus study of Section 5.2.
    """

    count: Optional[int]
    latency: int

    def __post_init__(self) -> None:
        if self.count is not None and self.count < 1:
            raise ValueError("bus count must be >= 1 (or None for unbounded)")
        if self.latency < 1:
            raise ValueError("bus latency must be >= 1")

    @property
    def unbounded(self) -> bool:
        return self.count is None


@dataclass(frozen=True)
class ClusterConfig:
    """Per-cluster resources: FUs, register file, local cache."""

    n_integer: int
    n_fp: int
    n_memory: int
    n_registers: int
    cache: CacheConfig

    def __post_init__(self) -> None:
        for label, n in (
            ("integer", self.n_integer),
            ("fp", self.n_fp),
            ("memory", self.n_memory),
        ):
            if n < 0:
                raise ValueError(f"negative {label} FU count")
        if self.n_integer + self.n_fp + self.n_memory == 0:
            raise ValueError("cluster needs at least one functional unit")
        if self.n_registers < 1:
            raise ValueError("cluster needs at least one register")

    def n_units(self, fu: FUType) -> int:
        """Number of functional units of a given kind."""
        return {
            FUType.INTEGER: self.n_integer,
            FUType.FP: self.n_fp,
            FUType.MEMORY: self.n_memory,
        }[fu]

    @property
    def issue_width(self) -> int:
        return self.n_integer + self.n_fp + self.n_memory


@dataclass(frozen=True)
class MachineConfig:
    """Full multiVLIWprocessor description."""

    name: str
    clusters: Tuple[ClusterConfig, ...]
    register_bus: BusConfig
    memory_bus: BusConfig
    main_memory_latency: int = 10
    latencies: Mapping[OpClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCIES)
    )

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("machine needs at least one cluster")
        if self.main_memory_latency < 1:
            raise ValueError("main-memory latency must be >= 1")
        missing = [oc for oc in OpClass if oc not in self.latencies]
        if missing:
            raise ValueError(f"latencies missing for {missing}")

    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def is_unified(self) -> bool:
        """True for the single-cluster baseline configuration."""
        return self.n_clusters == 1

    @property
    def issue_width(self) -> int:
        """Total operations issued per cycle across all clusters."""
        return sum(c.issue_width for c in self.clusters)

    @property
    def total_registers(self) -> int:
        return sum(c.n_registers for c in self.clusters)

    @property
    def total_cache_size(self) -> int:
        return sum(c.cache.size for c in self.clusters)

    def cluster(self, index: int) -> ClusterConfig:
        return self.clusters[index]

    def latency(self, opclass: OpClass) -> int:
        """Static (scheduler-assumed) latency of an operation class."""
        return self.latencies[opclass]

    @property
    def miss_latency(self) -> int:
        """Latency assumed when binding-prefetching a likely-missing load.

        Per Section 4.3 this is ``LAT_cache + LAT_memory_bus +
        LAT_main_memory`` (bus contention is not known statically).
        """
        return (
            self.latencies[OpClass.LOAD]
            + self.memory_bus.latency
            + self.main_memory_latency
        )

    # cached_property, as canonical_json: the execution planner asks
    # every cell's machine for its view.
    @cached_property
    def scheduling_view(self) -> "MachineConfig":
        """This machine as the schedulers see it: the memory-bus count
        set to ``None`` and every other field kept.

        Schedulers read the memory bus only through :attr:`miss_latency`
        (bus contention is not known statically), so machines that
        differ only in the number of memory buses share one view, and
        one schedule.  An unbounded machine is its own view.
        """
        if self.memory_bus.count is None:
            return self
        return self.with_buses(
            memory_bus=BusConfig(count=None, latency=self.memory_bus.latency)
        )

    def with_buses(
        self,
        register_bus: Optional[BusConfig] = None,
        memory_bus: Optional[BusConfig] = None,
    ) -> "MachineConfig":
        """Copy with different bus parameters (for sweep harnesses).

        Explicit is-None tests: ``None`` means "keep mine", and a passed
        bus must be used as given — never coerced through truthiness.
        """
        return replace(
            self,
            register_bus=(
                self.register_bus if register_bus is None else register_bus
            ),
            memory_bus=(
                self.memory_bus if memory_bus is None else memory_bus
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        """Lossless, JSON-able description (see :meth:`from_dict`).

        The sweep grid uses this as the machine part of its cache key, so
        the encoding must be canonical: latencies are emitted sorted by
        operation-class name.
        """
        return {
            "name": self.name,
            "clusters": [
                {
                    "n_integer": c.n_integer,
                    "n_fp": c.n_fp,
                    "n_memory": c.n_memory,
                    "n_registers": c.n_registers,
                    "cache": {
                        "size": c.cache.size,
                        "line_size": c.cache.line_size,
                        "associativity": c.cache.associativity,
                        "mshr_entries": c.cache.mshr_entries,
                        "hit_latency": c.cache.hit_latency,
                    },
                }
                for c in self.clusters
            ],
            "register_bus": {
                "count": self.register_bus.count,
                "latency": self.register_bus.latency,
            },
            "memory_bus": {
                "count": self.memory_bus.count,
                "latency": self.memory_bus.latency,
            },
            "main_memory_latency": self.main_memory_latency,
            "latencies": {
                oc.value: self.latencies[oc]
                for oc in sorted(self.latencies, key=lambda o: o.value)
            },
        }

    # cached_property, as on CacheConfig: the experiment grid keys
    # every cell on this encoding.  A ``dataclasses.replace`` copy is a
    # new instance and encodes itself.
    @cached_property
    def canonical_json(self) -> str:
        """:meth:`to_dict` as compact, key-sorted JSON, encoded once per
        instance (the grid's ``machine_key``)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MachineConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        clusters = tuple(
            ClusterConfig(
                n_integer=c["n_integer"],
                n_fp=c["n_fp"],
                n_memory=c["n_memory"],
                n_registers=c["n_registers"],
                cache=CacheConfig(**c["cache"]),
            )
            for c in data["clusters"]
        )
        return cls(
            name=data["name"],
            clusters=clusters,
            register_bus=BusConfig(**data["register_bus"]),
            memory_bus=BusConfig(**data["memory_bus"]),
            main_memory_latency=data["main_memory_latency"],
            latencies={
                OpClass(name): lat
                for name, lat in data["latencies"].items()
            },
        )

    def describe(self) -> Dict[str, object]:
        """Summary dictionary used by Table 1 rendering."""
        first = self.clusters[0]
        return {
            "name": self.name,
            "clusters": self.n_clusters,
            "int_units_per_cluster": first.n_integer,
            "fp_units_per_cluster": first.n_fp,
            "mem_units_per_cluster": first.n_memory,
            "registers_per_cluster": first.n_registers,
            "cache_per_cluster": first.cache.size,
            "issue_width": self.issue_width,
            "total_registers": self.total_registers,
            "total_cache": self.total_cache_size,
        }

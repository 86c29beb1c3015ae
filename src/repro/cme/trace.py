"""Content-addressed address traces for the CME engines.

The sampled CME sweeps a reference set over a (possibly truncated) prefix
of the iteration space.  The *addresses* each memory operation touches in
that window are a pure function of the loop content — independent of
which other operations share the cache and of the cache geometry.  This
module precomputes them once per ``(loop content, window)`` and derives,
per cache geometry, the per-set access streams the incremental engine
replays:

* :func:`loop_fingerprint` — content hash of a loop (dims, operations,
  reference table), cached on the loop object so repeated queries are a
  dictionary lookup.  It replaces the fragile ``id(loop)`` memo keys: an
  id can be recycled by the allocator after a loop is garbage-collected,
  aliasing a stale estimate onto a fresh, different loop.
* :class:`AddressTrace` — per-operation byte-address arrays over the
  first ``max_points`` iteration points, plus each operation's program
  position (the interleaving key).
* :class:`GeometryTrace` — per-operation, per-cache-set access streams
  ``set -> (points, lines)``, two typed arrays, for one ``(line_size,
  n_sets)`` geometry, derived from an :class:`AddressTrace`.
* :class:`TraceStore` — the content-addressed cache of both.  Every key
  is derived from loop content, so a store is safe to pickle and ship to
  grid worker processes (unlike the historical id-keyed memos, which had
  to be dropped on every pickle).
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir.loop import Loop
from ..machine.config import CacheConfig

__all__ = [
    "loop_fingerprint",
    "AddressTrace",
    "GeometryTrace",
    "TraceStore",
]

#: Attribute used to cache a loop's content fingerprint on the object
#: itself — the fingerprint dies with the loop, so id reuse can never
#: resurrect a stale one.  Loops are de-facto immutable (tuples of
#: frozen dataclasses), which is what makes the caching sound.
_FINGERPRINT_ATTR = "_cme_content_fingerprint"


def loop_fingerprint(loop: Loop) -> str:
    """Content hash of everything the CME estimators read from a loop.

    Covers the loop dims (trip counts and steps), the operation table
    (names, classes, reference indices, program order) and the memory
    reference table (arrays, bases, subscripts).  Two loops with equal
    fingerprints produce identical address streams, so estimates keyed
    on the fingerprint are shareable across loop objects, pickling and
    process fan-out.
    """
    cached = loop.__dict__.get(_FINGERPRINT_ATTR)
    if cached is None:
        digest = hashlib.sha256()
        digest.update(repr(loop.dims).encode())
        digest.update(repr(loop.operations).encode())
        digest.update(repr(loop.refs).encode())
        cached = digest.hexdigest()[:16]
        loop.__dict__[_FINGERPRINT_ATTR] = cached
    return cached


@dataclass
class AddressTrace:
    """Byte addresses each memory operation touches, per iteration point.

    ``positions`` maps operation names to their program position — the
    intra-point interleaving key: the global access order of any
    operation subset is ``(point, position)``-ascending.
    """

    loop_fp: str
    max_points: int
    n_points: int
    positions: Dict[str, int]
    addresses: Dict[str, List[int]]

    @classmethod
    def build(cls, loop: Loop, max_points: int) -> "AddressTrace":
        mem_ops = [
            (index, op)
            for index, op in enumerate(loop.operations)
            if op.is_memory
        ]
        positions = {op.name: index for index, op in mem_ops}
        refs = [(op.name, loop.ref_of(op)) for _, op in mem_ops]
        addresses: Dict[str, List[int]] = {name: [] for name, _ in refs}
        n_points = 0
        for point in loop.iteration_points(limit=max_points):
            for name, ref in refs:
                addresses[name].append(ref.address(point))
            n_points += 1
        return cls(
            loop_fp=loop_fingerprint(loop),
            max_points=max_points,
            n_points=n_points,
            positions=positions,
            addresses=addresses,
        )


#: One operation's accesses to one cache set: its iteration points
#: (ascending) and the line each access touches, as typed arrays.
Stream = Tuple[array, array]


@dataclass
class GeometryTrace:
    """Per-set access streams of one address trace under one geometry.

    ``streams[op][s]`` is the :data:`Stream` of the accesses operation
    ``op`` makes to cache set ``s``: ``(points, lines)``, two typed
    arrays of one length in point order.  Every access of one stream
    has the same program position and op name, so neither is stored per
    access: both come from ``trace`` and the key.  The global access
    order of any op subset within a set is ``(point, position)``-
    ascending.  ``line`` is the global line number (``address //
    line_size``); within one set, distinct lines correspond to distinct
    tags, so LRU over lines is exactly LRU over tags.
    """

    line_size: int
    n_sets: int
    trace: AddressTrace
    streams: Dict[str, Dict[int, Stream]] = field(default_factory=dict)

    @classmethod
    def build(
        cls, trace: AddressTrace, line_size: int, n_sets: int
    ) -> "GeometryTrace":
        streams: Dict[str, Dict[int, Stream]] = {}
        for name, addresses in trace.addresses.items():
            per_set: Dict[int, Stream] = {}
            for point, address in enumerate(addresses):
                line = address // line_size
                cache_set = line % n_sets
                stream = per_set.get(cache_set)
                if stream is None:
                    stream = per_set[cache_set] = (array("I"), array("q"))
                stream[0].append(point)
                stream[1].append(line)
            streams[name] = per_set
        return cls(
            line_size=line_size, n_sets=n_sets, trace=trace, streams=streams
        )

    def sets_of(self, op_name: str) -> Dict[int, Stream]:
        """The per-set streams of one operation ({} for unknown names)."""
        return self.streams.get(op_name, {})


class TraceStore:
    """Content-addressed cache of address and geometry traces.

    Both layers key on the loop fingerprint (plus the sampling window
    and, for geometry traces, the cache shape), so a store can survive
    pickling and ship to worker processes pre-warmed.
    """

    def __init__(self) -> None:
        self._addresses: Dict[Tuple[str, int], AddressTrace] = {}
        self._geometries: Dict[Tuple[str, int, int, int], GeometryTrace] = {}
        self.address_builds = 0
        self.geometry_builds = 0

    def __len__(self) -> int:
        return len(self._addresses)

    def address_trace(self, loop: Loop, max_points: int) -> AddressTrace:
        key = (loop_fingerprint(loop), max_points)
        trace = self._addresses.get(key)
        if trace is None:
            trace = AddressTrace.build(loop, max_points)
            self._addresses[key] = trace
            self.address_builds += 1
        return trace

    def geometry_trace(
        self, loop: Loop, max_points: int, cache: CacheConfig
    ) -> GeometryTrace:
        key = (
            loop_fingerprint(loop),
            max_points,
            cache.line_size,
            cache.n_sets,
        )
        geometry = self._geometries.get(key)
        if geometry is None:
            geometry = GeometryTrace.build(
                self.address_trace(loop, max_points),
                cache.line_size,
                cache.n_sets,
            )
            self._geometries[key] = geometry
            self.geometry_builds += 1
        return geometry

"""What a cold grid keeps in its analysis layers.

The analyzer keeps one snapshot per estimated reference set and runs
every per-set replay directly, the trace store keeps each operation's
per-set stream as two typed arrays, and a warm record keeps its memory
snapshot encoded.  This test holds a cold ``fig6-smoke`` grid's three
layers to their measured sizes, so putting back a set-replay memo,
one tuple per traced access or decoded snapshots in warm records fails.

The pass itself runs untraced: ``tracemalloc`` slows its
allocation-heavy simulate stage by more than an order of magnitude.
Each layer is then rebuilt from a pickle under ``tracemalloc``, which
reads the traced size of the same object graph.  The analyzer is
pickled as its attribute dict without the trace store, since its own
pickle leaves its memos out.  ``benchmarks/analysis_memory.py`` reads
the layers of a traced pass instead.
"""

import gc
import pickle
import tracemalloc

from repro.harness.scenarios import run_scenario

#: KiB each layer's copy reads after a cold fig6-smoke grid (CPython
#: 3.11).  With a set-replay memo, one ``(point, position, line,
#: op_name)`` tuple per traced access and decoded warm snapshots, the
#: same layers read 12,315, 9,133 and 2,506 KiB.
READ_KIB = {"analyzer": 4516, "trace store": 6184, "warm store": 382}

#: Headroom over the reading for other interpreter versions and small
#: changes to what the layers hold.
MARGIN = 1.25


def _traced_kib(layer) -> float:
    """Traced KiB of a copy of ``layer`` rebuilt by pickle."""
    data = pickle.dumps(layer, protocol=pickle.HIGHEST_PROTOCOL)
    gc.collect()
    tracemalloc.start()
    try:
        copy = pickle.loads(data)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del copy
    return size / 1024


def test_cold_grid_keeps_compact_analysis_layers():
    grid = run_scenario("fig6-smoke").grid
    analyzer = grid.locality
    assert analyzer.telemetry()["snapshots"] > 0
    assert grid.warm_store.stores > 0
    layers = {
        "analyzer": {
            name: value
            for name, value in vars(analyzer).items()
            if name != "traces"
        },
        "trace store": analyzer.traces,
        "warm store": grid.warm_store,
    }
    read = {name: _traced_kib(layer) for name, layer in layers.items()}
    over = {
        name: f"{kib:.0f} KiB > {READ_KIB[name] * MARGIN:.0f}"
        for name, kib in read.items()
        if kib > READ_KIB[name] * MARGIN
    }
    assert not over, over

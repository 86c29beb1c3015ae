"""The disk layer the stores share (``repro.store``), driven through the
stage store and the warm-state store alike, and ``atomic_write`` under
the service's job records.  Layers are used as classes, never
instantiated, so their functions need no ``self``."""

import pickle

import pytest

from repro.engine.stagestore import STAGE_STORE_VERSION, StageStore
from repro.service import DiskBackend
from repro.simulator import WARM_STATE_VERSION, WarmRecord, WarmStateStore
from repro.simulator.stats import SimulationResult
from repro.store import atomic_write


class StageLayer:
    """The stage store, through its simulate layer."""

    make, entries = StageStore, "*/*/*.pkl"
    key = StageStore.simulate_key("fp", "auto", None, None)
    stale = key.replace(f"s{STAGE_STORE_VERSION}|", "s0|")
    lookup = lambda store, key: store.lookup("simulate", key)
    put = lambda store, key, value: store.store("simulate", key, value)
    counts = lambda store: store.counts("simulate")

    def value():
        return SimulationResult(
            kernel="applu", machine="2-cluster", scheduler="rmca",
            threshold=1.0, ii=4, stage_count=2, n_times=1, n_iterations=16,
            compute_cycles=68, stall_cycles=5,
        )

    def old_layout(key, value):
        return {"version": STAGE_STORE_VERSION, "stage": "simulate",
                "key": key, "value": value}


class WarmLayer:
    make, entries = WarmStateStore, "*/*.pkl"
    key = WarmStateStore.key("fp", "auto", None, None)
    stale = key.replace(f"w{WARM_STATE_VERSION}|", "w0|")
    lookup, put = WarmStateStore.lookup, WarmStateStore.store
    counts = WarmStateStore.counts

    def value():
        return WarmRecord(entries_simulated=2, records=((3, {"hits": 1}),) * 2,
                          match_start=0,
                          snapshot=WarmRecord.encode({"caches": []}))

    def old_layout(key, value):
        return value


@pytest.fixture(params=[StageLayer, WarmLayer], ids=["stage", "warm"])
def layer(request):
    return request.param


def _filled(layer, directory, key=None):
    """A store holding the layer's value under ``key``, and its file."""
    store = layer.make(directory)
    before = set(directory.glob(layer.entries))
    layer.put(store, key or layer.key, layer.value())
    (path,) = set(directory.glob(layer.entries)) - before
    return store, path


def test_round_trip_through_a_fresh_store(layer, tmp_path):
    _filled(layer, tmp_path)
    fresh = layer.make(tmp_path)
    assert layer.lookup(fresh, layer.key) == layer.value()
    assert layer.lookup(fresh, layer.stale) is None
    assert layer.counts(fresh) == {"hits": 1, "misses": 1, "stores": 0}


@pytest.mark.parametrize("rot", ["garbage", "truncated", "foreign",
                                 "misplaced", "wrong-type", "old-layout"])
def test_rot_is_a_miss_and_unlinked(layer, tmp_path, rot):
    _store, path = _filled(layer, tmp_path)
    _store, stale = _filled(layer, tmp_path, layer.stale)
    path.write_bytes({
        "garbage": b"not a pickle",
        "truncated": path.read_bytes()[: path.stat().st_size // 2],
        "foreign": pickle.dumps({"foreign": "object"}),
        "misplaced": stale.read_bytes(),  # the entry of another key
        "wrong-type": pickle.dumps((layer.key, "not a value")),
        "old-layout": pickle.dumps(layer.old_layout(layer.key, layer.value())),
    }[rot])
    assert layer.lookup(layer.make(tmp_path), layer.key) is None
    assert not path.exists()  # rot dropped, slot reusable


def test_failed_writes_cost_only_the_write(layer, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("an ordinary file where the store's directory goes")
    _store, path = _filled(layer, tmp_path)
    path.unlink()
    path.mkdir()  # renaming onto the entry's path now fails
    for directory in (blocker, tmp_path):
        store = layer.make(directory)
        layer.put(store, layer.key, layer.value())
        assert layer.lookup(store, layer.key) == layer.value()
        assert layer.lookup(layer.make(directory), layer.key) is None
    with pytest.raises(IsADirectoryError):
        atomic_write(path, b"data")
    (tmp_path / "jobs" / "job.json").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        DiskBackend(tmp_path / "jobs").save({"id": "job", "sequence": 1})
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_clear_removes_entries_and_orphaned_temporaries(layer, tmp_path):
    store, path = _filled(layer, tmp_path)
    path.with_suffix(".tmp.1.deadbeef").write_bytes(b"interrupted")
    store.clear()
    assert len(store) == 0
    assert not list(path.parent.iterdir())
    assert layer.lookup(store, layer.key) is None


def test_pickled_store_keeps_entries_and_gets_a_fresh_lock(layer):
    store = layer.make(None)
    layer.put(store, layer.key, layer.value())
    copy = pickle.loads(pickle.dumps(store))
    assert layer.lookup(copy, layer.key) == layer.value()
    layer.put(copy, layer.stale, layer.value())  # takes the copy's lock
    assert layer.counts(copy)["stores"] == 2
    assert layer.counts(store)["stores"] == 1

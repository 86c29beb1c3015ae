"""Tests of the benchmark's own checks and tracing: the golden-figure
parser and bar check, the per-cell digest, the percentile rule, span
self time, wrapper install/removal and the reference-speed scaling.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import layers
from reference import (
    GOLDEN_FIG6,
    Tally,
    bar_problems,
    cell_digest,
    parse_figure_text,
    percentile,
    samples_beyond,
)
from spans import Patches, Tracer, wrap_attribute
from speed import REFERENCE_S, Scaler, reference_loop

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def golden():
    return parse_figure_text((ROOT / GOLDEN_FIG6).read_text())


def bars_of(golden):
    """Figure-payload bars that reproduce a parsed recording exactly."""
    return [
        {"group": group, "threshold": thr, "norm_compute": c, "norm_stall": s}
        for group, bars in golden.items()
        for thr, (c, s) in bars.items()
    ]


def test_parser_reads_every_group_and_bar(golden):
    assert len(golden) == 9
    assert list(golden)[:2] == ["unified", "NMB=1,LMB=1 baseline"]
    assert all(sorted(bars) == [0.0, 0.25, 0.75, 1.0] for bars in golden.values())
    assert golden["unified"][1.0] == (0.292, 1.036)
    assert golden["NMB=1,LMB=4 baseline"][0.0] == (0.359, 1.424)


def test_parser_rejects_a_bar_without_a_group():
    with pytest.raises(ValueError):
        parse_figure_text("  thr=1.00 |###   | 1.327 (0.292+1.036)\n")


def test_bar_check_holds_bars_to_the_rounding_tolerance(golden):
    bars = bars_of(golden)
    assert bar_problems(bars, golden) == []
    bars[5]["norm_stall"] += 0.001
    assert bar_problems(bars, golden) == []
    bars[5]["norm_stall"] += 0.001
    problems = bar_problems(bars, golden)
    assert len(problems) == 1 and problems[0].startswith(bars[5]["group"])
    del bars[0]
    assert any("bar missing" in p for p in bar_problems(bars, golden))
    assert bar_problems(bars, golden, ["no such group"]) == [
        "group 'no such group' is not in the recording"
    ]
    # A subset of groups ignores disagreements outside it.
    assert bar_problems(bars, golden, [bars[20]["group"]]) == []


def test_cell_digest_covers_cycles_memory_counters_and_order():
    records = [
        {"group": "g", "kernel": k, "machine": "m", "scheduler": "s",
         "threshold": 1.0, "total_cycles": 100, "stall_cycles": 10,
         "mem_l1_hits": 5, "label": "ignored"}
        for k in ("a", "b")
    ]
    digest = cell_digest(records)
    assert cell_digest([dict(r, label="other") for r in records]) == digest
    assert cell_digest([dict(records[0], mem_l1_hits=6), records[1]]) != digest
    assert cell_digest([dict(records[0], stall_cycles=11), records[1]]) != digest
    assert cell_digest(records[::-1]) != digest


def test_percentile_is_nearest_rank_with_ten_beyond_at_100():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert samples_beyond(100, 90) == 10
    assert sum(v > percentile(values, 90) for v in values) == 10
    assert samples_beyond(99, 90) == 9
    assert percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_tally_counts_failed_operations_with_reasons():
    tally = Tally()
    assert tally.record("a", [])
    assert not tally.record("b", ["wrong", "slow"])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.problems == ["b: wrong", "b: slow"]


class _Target:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def build(cls, n):
        return (cls, n)

    def stream(self, n):
        yield from range(n)


def test_wrappers_keep_results_and_split_self_time():
    tracer = Tracer()
    with Patches() as patches:
        for attr in ("outer", "inner", "build", "stream"):
            wrap_attribute(patches, tracer, _Target, attr, attr)
        assert isinstance(vars(_Target)["build"], classmethod)
        target = _Target()
        with tracer.span("root"):
            assert target.outer(3) == 7
            assert _Target.build(4) == (_Target, 4)
            assert target.build(5) == (_Target, 5)
            assert list(target.stream(3)) == [0, 1, 2]
    assert patches.leftovers() == []
    assert vars(_Target)["outer"].__name__ == "outer"
    assert not hasattr(vars(_Target)["outer"], "__wrapped__")
    assert (tracer.calls("outer"), tracer.calls("inner"), tracer.calls("build"),
            tracer.calls("stream")) == (1, 1, 2, 1)
    inner = tracer.seconds("inner")
    assert tracer.self_seconds("outer") == pytest.approx(tracer.seconds("outer") - inner)
    name, wall, covered = tracer.roots[-1]
    assert name == "root"
    assert covered == pytest.approx(
        sum(tracer.seconds(n) for n in ("outer", "build", "stream"))
    )
    assert covered <= wall


def test_patches_notice_an_attribute_swapped_back_wrongly():
    patches = Patches()
    patches.replace(_Target, "inner", lambda self, n: n)
    patches.restore()
    assert patches.leftovers() == []
    original = vars(_Target)["inner"]
    patches = Patches()
    patches.replace(_Target, "inner", lambda self, n: n)
    patches.restore()
    _Target.inner = lambda self, n: n
    try:
        assert patches.leftovers() == ["inner"]
    finally:
        _Target.inner = original


def _layer_attributes():
    """Every attribute the traced run patches, as it is now."""
    grid_module, pool_attr = layers.resolve(layers.GRID, "ProcessPoolExecutor")
    found = [(grid_module, pool_attr, vars(grid_module)[pool_attr])]
    for _name, owner, attr, _options in layers.targets():
        found.append((owner, attr, vars(owner).get(attr)))
    return found


def test_install_wraps_every_layer_and_restore_removes_it():
    before = _layer_attributes()
    names = {name for name, *_ in layers.targets()}
    # One target per layer the issue names, resolved in the program.
    for name in ("plan.schedule", "plan.simulate", "plan.analyze", "pool.wait",
                 "plan.plan", "plan.assemble", "stagestore.lookup",
                 "cme.probe_clusters", "scheduler.sms_order",
                 "scheduler.mrt.reserve_fu", "simulator.run",
                 "simulator.run_batch", "warmstate.lookup",
                 "memory.access_batch", "steady.boundary"):
        assert name in names
    patches = layers.install(Tracer())
    try:
        during = _layer_attributes()
        for (owner, attr, original), (_o, _a, wrapped) in zip(before, during):
            assert wrapped is not original, f"{owner.__name__}.{attr} is not wrapped"
        from repro.simulator.vectorized import VectorizedSimulator

        assert isinstance(vars(VectorizedSimulator)["run_batch"], classmethod)
    finally:
        patches.restore()
    assert patches.leftovers() == []
    after = _layer_attributes()
    assert all(a[2] is b[2] for a, b in zip(before, after))


def test_parent_only_install_leaves_the_compute_layers_alone():
    parent = {name for name, *_ in layers.targets(parent_only=True)}
    assert "pool.wait" in parent and "plan.analyze" in parent
    assert not parent & {"plan.schedule", "plan.simulate", "memory.access_batch",
                         "steady.boundary", "scheduler.schedule"}


def test_scaler_uses_the_loops_on_either_side_of_each_operation():
    loops = iter([0.01, 0.02, 0.04, 0.04])
    scaler = Scaler(lambda: next(loops))
    assert scaler.factor() == pytest.approx(REFERENCE_S / 0.015)
    assert scaler.factor() == pytest.approx(REFERENCE_S / 0.03)
    assert scaler.factor() == pytest.approx(REFERENCE_S / 0.04)
    assert scaler.references == [0.01, 0.02, 0.04, 0.04]
    assert 0 < reference_loop() < 1


def test_benchmark_json_names_each_metric_once():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

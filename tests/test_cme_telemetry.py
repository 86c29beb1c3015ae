"""Schedule telemetry: the batched CME path is observably exercised.

The CI ``cme-equivalence`` job runs this as its perf smoke — no timing
assertions (CI machines vary), but hard assertions that scheduling
actually went through the incremental engine's batched probes, which is
what the recorded speedups rely on.
"""

from repro.cme import IncrementalCME, default_analyzer, locality_fingerprint
from repro.engine import schedule_kernel
from repro.machine.presets import two_cluster
from repro.workloads import kernel_by_name


def _schedule_telemetry(analyzer):
    """The analyzer's telemetry deltas over one tomcatv scheduling run."""
    before = analyzer.telemetry()
    schedule_kernel(
        kernel_by_name("tomcatv"), two_cluster(), "rmca", 0.25, analyzer
    )
    return {
        key: value - before.get(key, 0)
        for key, value in analyzer.telemetry().items()
    }


def test_schedule_reports_batched_cme_telemetry():
    analyzer = IncrementalCME(max_points=512)
    stats = _schedule_telemetry(analyzer)
    # The batched cluster sweep fired, and it did real incremental work.
    assert stats["batched_calls"] > 0
    assert stats["probes"] > 0
    assert stats["extensions"] > 0
    assert stats["address_traces"] >= 1
    # A second run on the same analyzer is served from warm state:
    # no new traces, probes answered from the memo.
    warm = _schedule_telemetry(analyzer)
    assert warm["address_traces"] == 0
    assert warm["memo_hits"] > 0
    assert warm["probes"] == 0


def test_default_analyzer_is_the_incremental_engine():
    analyzer = default_analyzer()
    assert isinstance(analyzer, IncrementalCME)
    assert locality_fingerprint(analyzer).startswith("sampling:")
    assert _schedule_telemetry(analyzer)["batched_calls"] > 0

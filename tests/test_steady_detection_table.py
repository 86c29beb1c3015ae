"""Detection regression: every cell of each recorded scenario detects
where its table says (see ``tests/steady_detection.py``).

The equivalence suites prove that detection never changes a result;
this test proves that detection still *happens*, at the same boundary
with the same period and the same number of replayed units, so a probe
change that silently stops (or moves) detection fails here instead of
showing up only as a slower benchmark.
"""

import pytest

from steady_detection import SCENARIOS, collect, recorded


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_detection_matches_table(scenario):
    rows = collect(scenario)
    table = recorded(scenario)
    assert len(rows) == len(table)
    for row, expected in zip(rows, table):
        assert row == expected

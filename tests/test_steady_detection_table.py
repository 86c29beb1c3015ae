"""Detection regression: every ``fig6-smoke`` cell detects where the
recorded table says (see ``tests/steady_detection.py``).

The equivalence suites prove that detection never changes a result;
this test proves that detection still *happens*, at the same boundary
with the same period and the same number of replayed units, so a probe
change that silently stops (or moves) detection fails here instead of
showing up only as a slower benchmark.
"""

from steady_detection import collect, recorded


def test_fig6_smoke_detection_matches_table():
    rows = collect()
    table = recorded()
    assert len(rows) == len(table)
    for row, expected in zip(rows, table):
        assert row == expected

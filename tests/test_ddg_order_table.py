"""Order regression: every graph walks in the order the recorded table
says (see ``tests/ddg_orders.py``).

The golden figures and the scheduler-equivalence suite cover the suite
kernels, whose graphs almost never hold two recurrence components; this
test also pins the SCC discovery order, the RecMII tie-break and the edge
sequences on a thousand random graphs with extra loop-carried edges, so
a graph change that reorders any of them fails here.
"""

from ddg_orders import collect, recorded


def test_graph_orders_match_table():
    rows = collect()
    table = recorded()
    assert len(rows) == len(table)
    for row, expected in zip(rows, table):
        assert row == expected

"""Golden outputs of the class-complex commands.

``golden/cases.json`` lists CLI calls (``rank-table``, ``relate``,
``hyperplanes``, ``phi``, ``embed-check``, ``decompose``, ``squier`` and
``euler``) on the presentation and diagram files beside it, each with its
exit code; ``golden/<name>.out`` is the standard output of that call.  The
crossing-order outputs were captured from the implementation that
recomputed every comparison pair by pair, and the ``decompose``, ``squier``
and ``euler`` outputs from the one in which decomposition rebuilt its own
edges and squares, so these tests pin both refactors to the same bytes.  The
table itself is checked pair by pair against ``relate``.
"""

import itertools
import json
from pathlib import Path

import pytest

from conftest import COMM, DEFAULT_CAPS, PADPAIR, PADPAIR_CAPS, W
from diagram_groups.cli import main
from diagram_groups.squier import build_ball, crossing_order, relate

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()


@pytest.mark.parametrize(
    "pres, base, caps",
    [(COMM, "a b c a b", DEFAULT_CAPS), (PADPAIR, "a1 b1", PADPAIR_CAPS)],
    ids=["comm", "padpair"],
)
def test_table_equals_fresh_relate(pres, base, caps):
    ball = build_ball(pres, W(base), caps)
    order = crossing_order(ball)
    ids = ball.catalog.ids
    pairs = list(itertools.combinations(range(len(ids)), 2))
    assert list(order.relations) == pairs
    for i, j in pairs:
        assert order.relations[i, j] == relate(ids[i], ids[j], ball), (i, j)


@pytest.mark.parametrize(
    "pres, base, caps",
    [(COMM, "a b c a b", DEFAULT_CAPS), (PADPAIR, "a1 b1", PADPAIR_CAPS)],
    ids=["comm", "padpair"],
)
def test_square_witness_is_first_dual_square(pres, base, caps):
    ball = build_ball(pres, W(base), caps)
    order = crossing_order(ball)
    ids = ball.catalog.ids
    dual = {e: h for h, es in ball.catalog.edges_of for e in es}
    squares = 0
    for (i, j), rel in order.relations.items():
        first = next(
            (
                sq
                for sq in ball.squares
                if {dual[sq.edge_at(0)], dual[sq.edge_at(1)]} == {ids[i], ids[j]}
            ),
            None,
        )
        if first is None:
            continue
        squares += 1
        left_first = dual[first.edge_at(0)] == ids[i]
        assert rel.witness is first
        assert rel.value == ("first_prec_second" if left_first else "second_prec_first")
    assert squares > 0

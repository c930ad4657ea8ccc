"""Golden outputs of the class-complex commands.

``golden/cases.json`` lists CLI calls (``rank-table``, ``relate``,
``hyperplanes``, ``phi``, ``embed-check``, ``decompose``, ``squier``,
``euler``, ``farley`` and ``special``) on the presentation and diagram files
beside it, each with its exit code; ``golden/<name>.out`` is the standard
output of that call.  The crossing-order outputs were captured from the
implementation that recomputed every comparison pair by pair, the
``decompose``, ``squier --format dot`` and ``euler`` outputs from the one in
which decomposition rebuilt its own edges and squares, and the ``farley``
and radius-7 ``embed-check`` outputs from the one that reduced and re-keyed
every ``A . atom`` in general, the ``--max-class-size 1`` ``embed-check``
and ``--max-bfs-depth 1`` ``phi`` outputs from the one that named each
edge's hyperplane by shortlex representatives before looking it up, and the
``special`` outputs (DIRTY ``a b`` with its 121 self-intersections in square
order, OSC_PLAIN ``x k h k h k y``) and the ``squier`` JSON outputs (DIRTY
``a b`` truncated with cubes up to dimension 6, CYC3 ``a b c a``) from the
one in which the Squier ball replayed every subset of moves to find its
cubes, so these tests pin all five refactors to the same bytes; the ``dot``
ball pins vertex numbering and edge order.  The table itself is checked
pair by pair against ``relate``.

The cases for ``class``, ``equal``, ``reduce``, ``compose``, ``dim``,
``propb``, ``interval`` and ``verify-raag`` in every format each renders,
the ``--format text`` cases for ``hyperplanes``, ``special``, ``farley``,
``embed-check`` and ``euler``, and the exit-3 ``class --format dot`` case
(empty standard output) were captured from the frontend in which every
command re-read its own flags and inputs and rejected ``dot`` at run time,
so they pin the move of flag checks and input loading into ``main``.  The
extra input files are ``dipole.diag`` (a one-cell diagram padded with a
dipole), ``back.diag`` (its inverse), ``f2.int`` (two meeting intervals)
and ``c4.graph`` (a 4-cycle).  Every subcommand of the parser has at least
one case.

The ``verify-raag`` cases on ``five.int`` (a copy of the benchmark's
five-interval collection, past the default element bound at length 4, in
JSON and text) and on ``four.int`` (four intervals under
``--max-class-size 100000``), and the length-4 ``propb`` case, were captured
from the implementation that composed and reduced whole diagrams for every
product, so they pin the move of those balls onto the cancel-or-append step.
The ``farley`` (JSON, text and dot) and ``embed-check`` outputs also predate
the Farley ball built from bottom words and up/down index tables, so they
pin that move too: vertex numbering, edge order and cube counts.  The
``farley`` case on CYC3 ``a b a b`` at radius 6 (cubes up to dimension 4)
was captured from the implementation that listed every Farley cube with its
corners, so it pins, with the PADPAIR and DIRTY cases, the move to counting
sets of disjoint moves on a third presentation.

The ``reduce`` cases on ``far.diag`` (PADPAIR ``a1 b1``: pad the ``a1``,
turn ``b1`` into ``b2``, unpad; JSON and text) and every other ``reduce``,
``compose`` and ``verify-raag`` case were captured from the implementation
that bubbled each move back past independent cells to find a dipole, so
they pin the move of ``reduce_diagram`` onto folding ``extend_reduced``.
In ``far.diag`` the dipole is not adjacent, and the surviving cell's offset
falls from 2 to 1.

The ``special`` cases on GROW ``x``, OSC_EMPTY ``x k k k y`` and INTEROSC
``c u v w d`` at the tight caps (``grow.pres``, ``osc_empty.pres`` and
``interosc.pres`` are copies of the benchmark's inputs) and the
``rank-table`` case on GROW ``x`` at ``--max-class-size 100`` were captured
from the implementation in which every equality probe ran a bidirectional
search from both words and the ≺ search looped over both part classes, so
they pin the move to probes that read the run's known classes and to one
extension search; these jobs make the most probes, and every derivation
they print is measured in ``evidence_lengths``.

The ``special`` outputs on DIRTY ``a b`` at ``--max-word-len 6``, OSC_PLAIN
``x k h k h k y`` and OSC_EMPTY ``x k k k y`` were regenerated when the
self-crossings read off absorbing splits began to keep the derivations of
their two equations, which the conversion from a split used to discard.
Their 59, 24 and 235 witnesses that printed ``"evidence_lengths": []`` now
print two lengths each; with ``evidence_lengths`` dropped from every
witness, each output equals the one captured before, so they still pin the
witnesses, their order and the verdicts.  The DIRTY and OSC_EMPTY ones
were regenerated again when a self-intersection whose middle is empty, and
is printed as ``b = p``, began to derive the printed equations rather than
the empty-middle ones: 18 witnesses in each print longer
``evidence_lengths``, and with those dropped each output equals the one
before.

The ``relate`` cases on GROW ``x`` at the tight caps (JSON and text) are
the only ``relate`` cases whose order is not exact (exit 2).  They were
captured from the implementation in which a transversality-graph record
and a label-table record each re-read the crossing order and worked out
its ``exact`` flag again, so they pin the move of the crossing pairs,
``exact`` and the odd-cycle check onto ``ball.order``.

The ``interval`` case on ``copath10.graph`` (the complement of the path on
ten vertices, whose complement has nine maximal cliques) was captured when
the realization began to be read off the transitive orientation; the
implementation that searched the orderings of at most eight maximal
cliques exits 3 on it.  The ``interval_c4`` output is unchanged by that
move.

The ``decompose`` outputs on CYC3 ``a b a b`` and COMM ``a a b b c c c``
were regenerated when factors presented from a complete ball began to keep
that ball, so that edge-group loops are written in their generators.  Only
``fundamental_group`` changed: it had skipped the conjugation relators of
those factors and ended in ``…``, and it is now exact, abelianizing to
ranks 4 and 12, the first Betti numbers of the two class complexes.  The
``decompose`` case on ``five_gamma.pres`` (the presentation P(Γ) of
``five.int``) was captured then too: it presents the right-angled Artin
group of the complement of the interval graph, with five generators and
six commutators.

The ``dim``, ``hyperplanes`` and ``special`` cases on ``thompson.pres``
(``x = x x``, whose diagram group at ``x`` is Thompson's group F) were
captured from the implementation in which the hyperplane catalog named the
edges of a complete ball by the class representatives of their parts, so
they pin, with every ``hyperplanes``, ``relate`` and ``rank-table`` case, the
move to grouping every edge by equality probes.
"""

import argparse
import itertools
import json
from pathlib import Path

import pytest

from conftest import COMM, DEFAULT_CAPS, PADPAIR, PADPAIR_CAPS, W
from diagram_groups.cli import _build_parser, main
from diagram_groups.rewriting import ClassSearch
from diagram_groups.squier import BallEdge, build_ball, crossing_order, relate

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()


def test_every_output_has_a_case():
    names = [c["name"] for c in CASES]
    assert len(set(names)) == len(names)
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(names)


def test_every_command_has_a_golden_case():
    sub = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(sub.choices) <= {c["argv"][0] for c in CASES}


@pytest.mark.parametrize(
    "pres, base, caps",
    [(COMM, "a b c a b", DEFAULT_CAPS), (PADPAIR, "a1 b1", PADPAIR_CAPS)],
    ids=["comm", "padpair"],
)
def test_table_equals_fresh_relate(pres, base, caps):
    ball = build_ball(ClassSearch(pres, caps), W(base))
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
    ball = build_ball(ClassSearch(pres, caps), W(base))
    order = crossing_order(ball)
    ids = ball.catalog.ids
    dual = {e: h for h, es in ball.catalog.edges_of for e in es}

    def dual_of(square, i):
        return dual[BallEdge(square.corner, square.moves[i])]

    squares = 0
    for (i, j), rel in order.relations.items():
        first = next(
            (
                sq
                for sq in ball.squares
                if {dual_of(sq, 0), dual_of(sq, 1)} == {ids[i], ids[j]}
            ),
            None,
        )
        if first is None:
            continue
        squares += 1
        left_first = dual_of(first, 0) == ids[i]
        assert rel.witness is first
        assert rel.value == ("first_prec_second" if left_first else "second_prec_first")
    assert squares > 0

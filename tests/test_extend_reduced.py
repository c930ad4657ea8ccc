"""The cancel-or-append step and canonical wires against general reduction.

``diagrams.Wires.extend_reduced`` is the one reduction step of the
group-ball searches over reduced diagrams: ``interval.diagram_ball_sizes``
and ``farley.property_b_scan``.  Each check here compares it with the
general route it replaces, kept below as the brute-force reference: stack
the whole diagram with ``compose``, cancel dipoles with
``conftest.reference_reduce`` (not ``reduce_diagram``, which folds
``extend_reduced``) and key the result with ``canonical_key``.

The balls tell elements apart by their bottom tuples in one ``Wires``
table.  The checks of that identity fire every diagram through one table:
each ordering of a swap orbit ends on one bottom, different orbits end on
different bottoms, and along random walks two reduced states share a
bottom exactly when their canonical keys agree.

``cayley_ball`` tables each generator's action on the window of wires it
touches; the same ball without that table, folding ``extend_reduced``
over every move on the whole bottom, must yield the same rows in order.
"""

import random
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COMM,
    CYC3,
    DIRTY,
    PADPAIR,
    SQUARES,
    W,
    random_walk_diagram,
    reference_reduce,
    swap_orbit,
)
from diagram_groups import diagrams, interval
from diagram_groups.cli import main
from diagram_groups.diagrams import (
    Wires,
    canonical_key,
    cayley_ball,
    compose,
    dsum,
    eps,
    layered_key,
    parse_diagram,
    reduce_diagram,
)
from diagram_groups.farley import property_b_scan
from diagram_groups.interval import (
    ElementBoundError,
    IntervalCollection,
    base_word,
    diagram_ball_sizes,
    parse_intervals,
    presentation_for,
)
from diagram_groups.rewriting import Diagram, Move, inverse, one_step_rewrites
from test_interval import delta_diagram


def loop_generators(coll):
    """The interval loops and their inverses, as whole diagrams."""
    gens = []
    for name in coll.names():
        d = delta_diagram(name, coll)
        gens += [d, inverse(d)]
    return gens


def reference_ball(coll, length, max_elements=100_000):
    """``(word length, cells)`` of each new element in breadth-first order,
    by composing whole diagrams and reducing them in general."""
    pres = presentation_for(coll)
    gens = loop_generators(coll)
    start = eps(pres, base_word(coll))
    seen = {canonical_key(start)}
    frontier = [start]
    rows = [(0, 0)]
    for depth in range(1, length + 1):
        grown = []
        for d in frontier:
            for step in gens:
                product = compose(d, step)
                nd = reference_reduce(product)
                key = canonical_key(nd)
                if key not in seen:
                    if len(seen) >= max_elements:
                        raise ElementBoundError(
                            f"ball exceeded the element bound {max_elements}"
                        )
                    seen.add(key)
                    grown.append(nd)
                    cells = len(reduce_diagram(product).moves)
                    assert cells == nd.cells
                    rows.append((depth, cells))
        frontier = grown
    return rows


def reference_ball_sizes(coll, length, max_elements=100_000):
    """Ball sizes by composing whole diagrams and reducing them in general."""
    sizes = [0] * (length + 1)
    for depth, _ in reference_ball(coll, length, max_elements):
        sizes[depth] += 1
    return tuple(accumulate(sizes))


def reference_property_b(pres, w, generators, length):
    """``(sizes, sorted (word length, cells) rows)`` by general reduction."""
    sym = list(generators) + [inverse(g) for g in generators]
    identity = eps(pres, w)
    seen = {canonical_key(identity)}
    rows = [(0, 0)]
    sizes = [1]
    level = [identity]
    for depth in range(1, length + 1):
        nxt = []
        for cur in level:
            for g in sym:
                nd = reference_reduce(compose(cur, g))
                nk = canonical_key(nd)
                if nk not in seen:
                    seen.add(nk)
                    rows.append((depth, nd.cells))
                    nxt.append(nd)
        sizes.append(len(nxt))
        level = nxt
    return tuple(sizes), tuple(sorted(rows))


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ElementBoundError as e:
        return ("bound", str(e))


def random_collection(rng):
    ground = rng.randint(3, 6)
    spans = set()
    for _ in range(rng.randint(3, 5)):
        lo = rng.randint(1, ground)
        spans.add((lo, rng.randint(lo, ground)))
    return IntervalCollection(
        ground, tuple((f"I{k}", lo, hi) for k, (lo, hi) in enumerate(sorted(spans)))
    )


@pytest.mark.parametrize("seed", range(30))
def test_diagram_ball_sizes_match_reference(seed):
    coll = random_collection(random.Random(seed))
    rows = reference_ball(coll, 3)
    # the ball carries each element's cell count through its steps
    gens = [g.moves for g in loop_generators(coll)]
    ball = cayley_ball(presentation_for(coll), base_word(coll), gens, 3)
    assert list(ball) == rows
    sizes = reference_ball_sizes(coll, 3)
    assert diagram_ball_sizes(coll, 3, max_elements=100_000) == sizes
    # small bounds stop both routes inside the search, with one message
    for bound in (sizes[1], sizes[2] - 1, sizes[2]):
        expected = outcome(reference_ball_sizes, coll, 3, max_elements=bound)
        assert outcome(diagram_ball_sizes, coll, 3, max_elements=bound) == expected
    # the bound fires exactly when a new element arrives once the ball is full
    assert diagram_ball_sizes(coll, 3, max_elements=sizes[3]) == sizes
    with pytest.raises(ElementBoundError, match=f"bound {sizes[3] - 1}$"):
        diagram_ball_sizes(coll, 3, max_elements=sizes[3] - 1)


A1B1 = W("a1 b1")
LOOP_A = Diagram(PADPAIR, A1B1, (Move(0, 0, True), Move(0, 1, True), Move(0, 2, True)))
LOOP_B = Diagram(PADPAIR, A1B1, (Move(1, 3, True), Move(1, 4, True), Move(1, 5, True)))
PAD_LOOP = reduce_diagram(
    Diagram(PADPAIR, A1B1, (Move(0, 6, True), Move(1, 7, False)))
)

AB = W("a b")
CYC_A = Diagram(CYC3, AB, (Move(0, 0, True), Move(0, 1, True), Move(0, 2, True)))
CYC_B = Diagram(CYC3, AB, (Move(1, 1, True), Move(1, 2, True), Move(1, 0, True)))
# a third generator that the others cancel only in part, and often below
# cells appended later at the other letter
CYC_A2B = compose(compose(CYC_A, CYC_A), CYC_B)


@pytest.mark.parametrize(
    "pres, w, gens, length",
    [
        (PADPAIR, A1B1, (LOOP_A, LOOP_B, PAD_LOOP), 4),
        (CYC3, W("a"), (Diagram(CYC3, W("a"), CYC_A.moves),), 5),
        (CYC3, AB, (CYC_A, CYC_B, CYC_A2B), 4),
    ],
    ids=["padpair", "cyc3-a", "cyc3-ab"],
)
def test_property_b_scan_matches_reference(pres, w, gens, length):
    sizes, table = reference_property_b(pres, w, gens, length)
    scan = property_b_scan(pres, w, gens, length)
    assert (scan.sizes, scan.table) == (sizes, table)
    ratios = [Fraction(cells, wl) for wl, cells in table if wl > 0]
    assert (scan.min_ratio, scan.max_ratio) == (min(ratios), max(ratios))


GOLDEN = Path(__file__).parent / "golden"


def test_ball_needs_no_keys(monkeypatch):
    # the balls know an element by its bottom tuple alone
    def refuse(*args):
        raise AssertionError("a ball asked for a layered key")

    monkeypatch.setattr(diagrams, "layered_key", refuse)
    monkeypatch.setattr(diagrams, "canonical_key", refuse)
    five = parse_intervals((GOLDEN / "five.int").read_text())
    assert diagram_ball_sizes(five, 3, max_elements=100_000) == (1, 11, 77, 463)
    # LOOP_A, LOOP_B and PAD_LOOP are the golden files d1-d3
    scan = property_b_scan(PADPAIR, A1B1, (LOOP_A, LOOP_B, PAD_LOOP), 4)
    assert scan.sizes == (1, 6, 26, 110, 458)
    assert (scan.min_ratio, scan.max_ratio) == (Fraction(5, 3), 3)
    assert sum(cells for _, cells in scan.table) == 5664


def unwindowed_ball(pres, w, generators, length):
    """``cayley_ball`` without its window table: each product folds
    ``Wires.extend_reduced`` over every move of the generator on the whole
    bottom.  Returns the rows and the number of steps taken."""
    wires = Wires(pres, w)
    seen = {wires.top}
    level = [(wires.top, 0)]
    rows = [(0, 0)]
    steps = 0
    for depth in range(1, length + 1):
        grown = []
        for bottom, cells in level:
            for moves in generators:
                nb, nc = bottom, cells
                for move in moves:
                    nb, _, cancelled = wires.extend_reduced(nb, move)
                    nc += -1 if cancelled else 1
                steps += len(moves)
                if nb not in seen:
                    seen.add(nb)
                    grown.append((nb, nc))
                    rows.append((depth, nc))
        level = grown
    return rows, steps


def windowed_ball(monkeypatch, pres, w, generators, length):
    """The rows of ``cayley_ball`` and the ``extend_reduced`` steps it took."""
    calls = []
    step = Wires.extend_reduced

    def counted(self, bottom, move):
        calls.append(move)
        return step(self, bottom, move)

    with monkeypatch.context() as m:
        m.setattr(Wires, "extend_reduced", counted)
        rows = list(cayley_ball(pres, w, generators, length))
    return rows, len(calls)


def golden_diagrams():
    """The PADPAIR ``propb`` generators d1-d4 on ``a1 b1``; d3 and d4 change
    the word's length between their first and last move."""
    return [
        parse_diagram((GOLDEN / f"d{k}.diag").read_text(), PADPAIR)
        for k in range(1, 5)
    ]


def has_disjoint_intervals(coll):
    """Whether two loops act on disjoint windows: a loop's window is its
    interval."""
    spans = [coll.span(name) for name in coll.names()]
    return any(a[1] < b[0] for a in spans for b in spans)


def window_cases():
    """``(id, pres, w, generator moves, length, saves)``.  Every list but
    the full-width one holds the identity generator ``()``.  ``saves`` says
    that two generators act on disjoint windows, so that at length 2 one of
    them meets, beside the other, a window it met at the identity."""
    for seed in range(12):
        coll = random_collection(random.Random(1000 + seed))
        gens = [g.moves for g in loop_generators(coll)] + [()]
        yield (
            f"intervals-{seed}", presentation_for(coll), base_word(coll), gens, 3,
            has_disjoint_intervals(coll),
        )
    ds = golden_diagrams()
    gens = [g.moves for d in ds for g in (d, inverse(d))] + [()]
    yield "padpair-d1-d4", PADPAIR, A1B1, gens, 4, True
    # the same generators on either half of a longer word, so the windows
    # that change length sit strictly inside it
    pad = eps(PADPAIR, A1B1)
    halves = [h for d in ds for h in (dsum(d, pad), dsum(pad, d))]
    gens = [g.moves for h in halves for g in (h, inverse(h))] + [()]
    yield "padpair-halves", PADPAIR, A1B1 + A1B1, gens, 3, True
    # one letter, so every window spans the whole word and nothing is tabled
    yield "cyc3-full-width", CYC3, W("a"), [CYC_A.moves, inverse(CYC_A).moves], 5, False


@pytest.mark.parametrize(
    "pres, w, gens, length, saves",
    [case[1:] for case in window_cases()],
    ids=[case[0] for case in window_cases()],
)
def test_window_table_matches_unwindowed_ball(monkeypatch, pres, w, gens, length, saves):
    rows, steps = windowed_ball(monkeypatch, pres, w, gens, length)
    expected, expected_steps = unwindowed_ball(pres, w, gens, length)
    # the same elements in the same order, with the same cell counts
    assert rows == expected
    assert steps <= expected_steps
    if saves:
        assert steps < expected_steps
    if len(w) == 1:
        assert steps == expected_steps


# six intervals on six points: the template of the largest seeded
# collection of the perfbench ``raag`` workload (5,497 elements at length 4)
SIX = IntervalCollection(
    6,
    (("I0", 1, 1), ("I1", 2, 3), ("I2", 3, 5), ("I3", 6, 6), ("I4", 1, 4), ("I5", 5, 6)),
)


def test_wires_hold_each_cell_once():
    wires = Wires(presentation_for(SIX), base_word(SIX))
    gens = loop_generators(SIX)

    def fire_pairs():
        cells = []
        for g in gens:
            for h in gens:
                bottom = wires.top
                for move in g.moves + h.moves:
                    bottom, cell = wires.fire(bottom, move)
                    cells.append(cell)
        return cells

    first = fire_pairs()
    size = len(wires.producer)
    again = fire_pairs()
    # a name that has a cell gets that very cell back, and no new wires
    assert len(again) == len(first)
    assert all(a is b for a, b in zip(first, again))
    assert len(wires.producer) == size
    # each cell is held once, and its name only inside it
    named = [cell for table in wires._named.values() for cell in table.values()]
    assert len(named) == len({id(cell) for cell in wires.producer if cell is not None})
    for (relation, forward), table in wires._named.items():
        for consumed, cell in table.items():
            assert cell[:3] == (relation, forward, consumed) and cell[2] is consumed


def test_ball_of_six_intervals_matches_unwindowed_ball():
    pres, w = presentation_for(SIX), base_word(SIX)
    gens = [g.moves for g in loop_generators(SIX)]
    rows = list(cayley_ball(pres, w, gens, 4))
    assert rows == unwindowed_ball(pres, w, gens, 4)[0]
    assert len(rows) == 5497


def test_element_bound_fires_at_the_same_element(monkeypatch, capsys):
    five = parse_intervals((GOLDEN / "five.int").read_text())
    yielded = []

    def recorded(*args):
        for row in cayley_ball(*args):
            yielded.append(row)
            yield row

    with monkeypatch.context() as m:
        m.setattr(interval, "cayley_ball", recorded)
        with pytest.raises(ElementBoundError, match="bound 1000$"):
            diagram_ball_sizes(five, 4, max_elements=1000)
    # the ball held 1000 elements when the next one arrived, and the rows up
    # to that one are those of the search without a window table
    assert len(yielded) == 1001
    gens = [g.moves for g in loop_generators(five)]
    rows, _ = unwindowed_ball(presentation_for(five), base_word(five), gens, 4)
    assert yielded == rows[:1001]
    # the CLI's default bound is 1000
    code = main(["verify-raag", "-i", str(GOLDEN / "five.int"), "--length", "4"])
    assert code == 2
    assert "element bound 1000" in capsys.readouterr().out


def fired_bottom(wires, moves):
    """The bottom tuple after firing ``moves``, cancelling nothing."""
    bottom = wires.top
    for move in moves:
        bottom, _ = wires.fire(bottom, move)
    return bottom


def reduced_bottom(wires, moves):
    """The bottom tuple of the reduced form, one step per move."""
    bottom = wires.top
    for move in moves:
        bottom, _, _ = wires.extend_reduced(bottom, move)
    return bottom


def assert_orbit_ends_on_one_bottom(d):
    wires = Wires(d.pres, d.top)
    orbit = swap_orbit(d)
    assert len({fired_bottom(wires, seq) for seq in orbit}) == 1
    assert len({reduced_bottom(wires, seq) for seq in orbit}) == 1


words3 = st.lists(st.sampled_from("abc"), min_size=1, max_size=5).map(tuple)
wordskt = st.lists(st.sampled_from("kt"), min_size=1, max_size=5).map(tuple)
picks5 = st.lists(st.integers(0, 1000), min_size=0, max_size=5)


@given(words3, picks5)
@settings(max_examples=60, deadline=None)
def test_bottom_constant_on_swap_orbit(start, picks):
    assert_orbit_ends_on_one_bottom(random_walk_diagram(COMM, start, picks))


@given(wordskt, picks5)
@settings(max_examples=60, deadline=None)
def test_bottom_constant_on_swap_orbit_with_length_change(start, picks):
    assert_orbit_ends_on_one_bottom(random_walk_diagram(SQUARES, start, picks))


@given(picks5)
@settings(max_examples=60, deadline=None)
def test_bottom_constant_on_swap_orbit_padded_letters(picks):
    assert_orbit_ends_on_one_bottom(random_walk_diagram(PADPAIR, A1B1, picks))


@given(words3, picks5, picks5)
@settings(max_examples=60, deadline=None)
def test_bottoms_separate_orbits(start, p1, p2):
    d1 = random_walk_diagram(COMM, start, p1)
    d2 = random_walk_diagram(COMM, start, p2)
    wires = Wires(COMM, start)
    same_orbit = d2.moves in swap_orbit(d1)
    assert (fired_bottom(wires, d1.moves) == fired_bottom(wires, d2.moves)) == same_orbit
    same_reduced = canonical_key(reference_reduce(d1)) == canonical_key(reference_reduce(d2))
    assert (
        reduced_bottom(wires, d1.moves) == reduced_bottom(wires, d2.moves)
    ) == same_reduced


@pytest.mark.parametrize(
    "pres, w", [(PADPAIR, A1B1), (DIRTY, AB)], ids=["padpair", "dirty"]
)
def test_every_step_keys_like_general_reduction(pres, w):
    # random walks of atoms, all fired through one table; every step's
    # diagram must key like the whole composed diagram reduced in general,
    # and cancel exactly when the reduced diagram loses a cell
    wires = Wires(pres, w)
    states = {(wires.top, canonical_key(eps(pres, w)))}
    cancels = buried = 0
    for seed in range(20):
        rng = random.Random(seed)
        bottom = wires.top
        # the cells of the reduced diagram in the order they fired
        fired = []
        moves = ()
        for _ in range(40):
            word = Diagram(pres, w, moves).bot
            options = [m for m, _ in one_step_rewrites(word, pres)]
            # a uniform choice rarely undoes an earlier cell or removes a
            # padding letter, so a third of the steps prefer each
            r = rng.random()
            if r < 1 / 3:
                options = [m for m in options if m.inverted() in moves] or options
            elif r < 2 / 3:
                options = [m for m in options if m.delta(pres) < 0] or options
            move = rng.choice(options)
            before = len(fired)
            bottom, cell, cancelled = wires.extend_reduced(bottom, move)
            moves += (move,)
            reduced = reference_reduce(Diagram(pres, w, moves))
            key = canonical_key(reduced)
            assert layered_key(w, wires.cells(bottom)) == key
            assert cancelled == (reduced.cells < before)
            assert len(bottom) == len(reduced.bot)
            cancels += cancelled
            buried += cancelled and cell != fired[-1]
            if cancelled:
                fired.remove(cell)
            else:
                fired.append(cell)
            assert sorted(fired) == sorted(wires.cells(bottom))
            states.add((bottom, key))
    # both kinds of cancellation occur: of the last cell and of an earlier one
    assert cancels > buried > 0
    # two visited states share a bottom exactly when they share a key
    assert len({b for b, _ in states}) == len({k for _, k in states}) == len(states)

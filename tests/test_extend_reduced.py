"""The cancel-or-append step against general dipole reduction.

``diagrams.extend_reduced`` is the one reduction step of the group-ball
searches over reduced diagrams: ``interval.diagram_ball_sizes`` and
``farley.property_b_scan``.  Each check here compares it with the general
route it replaces, kept below as the brute-force reference: stack the whole
diagram with ``compose``, cancel dipoles with ``conftest.reference_reduce``
(not ``reduce_diagram``, which folds ``extend_reduced``) and key the result
with ``canonical_key``.
"""

import random
from fractions import Fraction

import pytest

from conftest import CYC3, DIRTY, PADPAIR, W, reference_reduce
from diagram_groups.diagrams import (
    Diagram,
    canonical_key,
    compose,
    eps,
    extend_reduced,
    inverse,
    layered_key,
    reduce_diagram,
    wire_form,
)
from diagram_groups.farley import property_b_scan
from diagram_groups.interval import (
    ElementBoundError,
    IntervalCollection,
    base_word,
    delta_diagram,
    diagram_ball_sizes,
    presentation_for,
)
from diagram_groups.rewriting import Move, one_step_rewrites


def reference_ball_sizes(coll, length, max_elements=100_000):
    """Ball sizes by composing whole diagrams and reducing them in general."""
    pres = presentation_for(coll)
    gens = []
    for name in coll.names():
        d = delta_diagram(name, coll)
        gens += [d, inverse(d)]
    start = eps(pres, base_word(coll))
    seen = {canonical_key(start)}
    frontier = [start]
    sizes = [1]
    for _ in range(length):
        grown = []
        for d in frontier:
            for step in gens:
                nd = reference_reduce(compose(d, step))
                key = canonical_key(nd)
                if key not in seen:
                    if len(seen) >= max_elements:
                        raise ElementBoundError(
                            f"ball exceeded the element bound {max_elements}"
                        )
                    seen.add(key)
                    grown.append(nd)
        frontier = grown
        sizes.append(len(seen))
    return tuple(sizes)


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
    sizes = reference_ball_sizes(coll, 3)
    assert diagram_ball_sizes(coll, 3) == sizes
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


@pytest.mark.parametrize(
    "pres, w", [(PADPAIR, A1B1), (DIRTY, AB)], ids=["padpair", "dirty"]
)
def test_every_step_keys_like_general_reduction(pres, w):
    # random walks of atoms; every step's form must key like the whole
    # composed diagram reduced in general, and cancel exactly when the
    # reduced diagram loses a cell
    cancels = buried = 0
    for seed in range(20):
        rng = random.Random(seed)
        form = wire_form(w)
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
            cells = form[0]
            form, cancelled = extend_reduced(form, move, pres)
            moves += (move,)
            reduced = reference_reduce(Diagram(pres, w, moves))
            assert layered_key(w, form[0]) == canonical_key(reduced)
            assert cancelled == (reduced.cells < len(cells))
            assert len(form[1]) == len(reduced.bot)
            cancels += cancelled
            buried += cancelled and form[0] != cells[:-1]
    # both kinds of cancellation occur: of the last cell and of an earlier one
    assert cancels > buried > 0

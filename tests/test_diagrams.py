"""Tests for the diagram algebra.

The independent oracle for trace-class identity is the full swap orbit: BFS
over move sequences using single adjacent independent swaps.  Canonical keys
must be constant on each orbit and separate distinct orbits.  The oracle for
dipole reduction is ``conftest.reference_reduce``, which bubbles each move
back through independent cells until it meets its mirror.
"""

import random
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COMM,
    CYC3,
    DIRTY,
    GROW,
    HALFPAD,
    INTEROSC,
    OSC_EMPTY,
    OSC_PLAIN,
    PADPAIR,
    SQUARES,
    W,
    random_walk_diagram,
    reference_reduce,
    swap_adjacent,
    swap_orbit,
)
from diagram_groups.diagrams import (
    CanonicalKey,
    canonical_key,
    compose,
    dsum,
    eps,
    is_reduced,
    parse_diagram,
    reduce_diagram,
    serialize_diagram,
)
from diagram_groups.rewriting import (
    Diagram,
    Move,
    Presentation,
    Relation,
    Word,
    inverse,
    one_step_rewrites,
)


def atom(pres, a: Word, relation: int, forward: bool, b: Word) -> Diagram:
    """The one-cell diagram ``a (lhs -> rhs) b`` (or backward)."""
    src, _ = pres.relations[relation].sides(forward)
    return Diagram(pres, a + src + b, (Move(len(a), relation, forward),))


def replay_key(key: CanonicalKey, pres) -> Word:
    """Replay a layered form back into its bottom word (validates it too)."""
    return key_diagram(key, pres).bot


def key_diagram(key: CanonicalKey, pres) -> Diagram:
    """A representative diagram of a layered form."""
    moves: List[Move] = []
    w = key.top
    for layer in key.layers:
        shift = 0
        for o, r, f in layer:
            mv = Move(o + shift, r, f)
            w = mv.apply(w, pres)
            shift += mv.delta(pres)
            moves.append(mv)
    return Diagram(pres, key.top, tuple(moves))


words3 = st.lists(st.sampled_from("abc"), min_size=1, max_size=5).map(tuple)
picks5 = st.lists(st.integers(0, 1000), min_size=0, max_size=5)


# the hexagon loop at abc: six edges of the commuting complex, no squares,
# so it is a nontrivial reduced spherical diagram
HEX = Diagram(
    COMM,
    tuple("abc"),
    (
        Move(0, 0, True),   # abc -> bac
        Move(1, 1, True),   # bac -> bca
        Move(0, 2, True),   # bca -> cba
        Move(1, 0, False),  # cba -> cab
        Move(0, 1, False),  # cab -> acb
        Move(1, 2, False),  # acb -> abc
    ),
)


# ---------------------------------------------------------------------------
# constructors and basic algebra
# ---------------------------------------------------------------------------


def test_atom_frozen():
    d = atom(COMM, ("a",), 0, True, ("c",))
    assert d.top == tuple("aabc")
    assert d.moves == (Move(1, 0, True),)
    assert d.bot == tuple("abac")
    assert d.cells == 1


def test_eps_identity():
    e = eps(COMM, tuple("abc"))
    assert e.cells == 0 and e.is_spherical
    assert compose(e, HEX).moves == HEX.moves
    assert compose(HEX, e).moves == HEX.moves


def test_diagram_validates_moves():
    with pytest.raises(ValueError):
        Diagram(COMM, tuple("abc"), (Move(0, 1, True),))  # "a c" not at offset 0


def test_compose_frozen_chain():
    d = atom(COMM, ("a",), 0, True, ("c",))                 # aabc -> abac
    d = compose(d, atom(COMM, tuple("ab"), 1, True, ()))     # abac -> abca
    d = compose(d, atom(COMM, ("a",), 2, True, ("a",)))      # abca -> acba
    d = compose(d, atom(COMM, (), 1, True, tuple("ba")))     # acba -> caba
    assert d.top == tuple("aabc") and d.bot == tuple("caba") and d.cells == 4


def test_compose_mismatch_raises():
    with pytest.raises(ValueError):
        compose(atom(COMM, (), 0, True, ()), atom(COMM, (), 1, True, ()))


def test_dsum_shifts_second_block():
    left = atom(SQUARES, (), 0, True, ())  # kk -> t, bottom has length 1
    right = atom(SQUARES, (), 0, True, ())
    s = dsum(left, right)
    assert s.top == tuple("kkkk")
    assert s.moves == (Move(0, 0, True), Move(1, 0, True))
    assert s.bot == tuple("tt")


def test_inverse_frozen():
    inv = inverse(HEX)
    assert inv.top == HEX.bot and inv.bot == HEX.top
    assert inv.moves[0] == Move(1, 2, True)
    assert inv.moves[-1] == Move(0, 0, False)
    assert inverse(inv).moves == HEX.moves


# ---------------------------------------------------------------------------
# swaps
# ---------------------------------------------------------------------------


def test_swap_left_case_with_length_change():
    # on kkkk: (0,kk->t) then (1,kk->t); the second acts right of the first's
    # output, so swapping moves it to offset 2 in top coordinates
    m1, m2 = Move(0, 0, True), Move(1, 0, True)
    assert swap_adjacent(m1, m2, SQUARES) == (Move(2, 0, True), Move(0, 0, True))
    d = Diagram(SQUARES, tuple("kkkk"), (m1, m2))
    e = Diagram(SQUARES, tuple("kkkk"), (Move(2, 0, True), Move(0, 0, True)))
    assert d.bot == e.bot == tuple("tt")


def test_swap_dependent_returns_none():
    # on abc: ab at 0 then (on bac) ac at 1 overlaps the output block [0,2)
    assert swap_adjacent(Move(0, 0, True), Move(1, 1, True), COMM) is None


@given(words3, picks5)
@settings(max_examples=60, deadline=None)
def test_swap_preserves_replay(start, picks):
    d = random_walk_diagram(COMM, start, picks)
    for i in range(len(d.moves) - 1):
        sw = swap_adjacent(d.moves[i], d.moves[i + 1], COMM)
        if sw is not None:
            other = Diagram(COMM, d.top, d.moves[:i] + sw + d.moves[i + 2 :])
            assert other.bot == d.bot


# ---------------------------------------------------------------------------
# canonical keys
# ---------------------------------------------------------------------------


def test_canonical_key_staircase_frozen():
    d = Diagram(
        COMM,
        tuple("aabc"),
        (Move(1, 0, True), Move(2, 1, True), Move(1, 2, True), Move(0, 1, True)),
    )
    key = canonical_key(d)
    assert key.layers == (
        ((1, 0, True),),
        ((2, 1, True),),
        ((1, 2, True),),
        ((0, 1, True),),
    )
    assert replay_key(key, COMM) == tuple("caba")


def test_canonical_key_merges_parallel_moves():
    a = Diagram(SQUARES, tuple("kkkk"), (Move(0, 0, True), Move(1, 0, True)))
    b = Diagram(SQUARES, tuple("kkkk"), (Move(2, 0, True), Move(0, 0, True)))
    key = canonical_key(a)
    assert key == canonical_key(b)
    assert key.layers == (((0, 0, True), (2, 0, True)),)
    assert replay_key(key, SQUARES) == tuple("tt")


@given(words3, picks5)
@settings(max_examples=60, deadline=None)
def test_canonical_key_constant_on_swap_orbit(start, picks):
    d = random_walk_diagram(COMM, start, picks)
    key = canonical_key(d)
    for seq in swap_orbit(d):
        assert canonical_key(Diagram(COMM, d.top, seq)) == key
    assert replay_key(key, COMM) == d.bot
    assert canonical_key(key_diagram(key, COMM)) == key


@given(words3, picks5, picks5)
@settings(max_examples=60, deadline=None)
def test_canonical_key_separates_orbits(start, p1, p2):
    d1 = random_walk_diagram(COMM, start, p1)
    d2 = random_walk_diagram(COMM, start, p2)
    same_orbit = d2.moves in swap_orbit(d1)
    assert (canonical_key(d1) == canonical_key(d2)) == same_orbit


wordskt = st.lists(st.sampled_from("kt"), min_size=1, max_size=5).map(tuple)


@given(wordskt, picks5)
@settings(max_examples=60, deadline=None)
def test_canonical_key_orbit_with_length_change(start, picks):
    # length-changing relations shift later offsets when moves swap; the key
    # must still be constant across the orbit
    d = random_walk_diagram(SQUARES, start, picks)
    key = canonical_key(d)
    for seq in swap_orbit(d):
        assert canonical_key(Diagram(SQUARES, d.top, seq)) == key
    assert replay_key(key, SQUARES) == d.bot


@given(picks5)
@settings(max_examples=60, deadline=None)
def test_canonical_key_orbit_padded_letters(picks):
    d = random_walk_diagram(PADPAIR, W("a1 b1"), picks)
    key = canonical_key(d)
    for seq in swap_orbit(d):
        assert canonical_key(Diagram(PADPAIR, d.top, seq)) == key
    assert replay_key(key, PADPAIR) == d.bot


def test_canonical_key_regression_sunk_move_shifts_laters():
    # a padding move (delta +1) commutes below two b-moves; the b-moves'
    # stored offsets must shift with it.  Frozen from a hand-checked pair
    # that an earlier layering missed.
    top = W("a1 b1")
    d1 = Diagram(PADPAIR, top, (Move(1, 3, True), Move(1, 4, True), Move(0, 6, True)))
    d2 = Diagram(PADPAIR, top, (Move(0, 6, True), Move(2, 3, True), Move(2, 4, True)))
    assert d2.moves in swap_orbit(d1)
    k1, k2 = canonical_key(d1), canonical_key(d2)
    assert k1 == k2
    assert k1.layers == (((0, 6, True), (1, 3, True)), ((2, 4, True),))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_reduce_adjacent_dipole():
    d = Diagram(COMM, tuple("aabc"), (Move(1, 0, True), Move(1, 0, False)))
    r = reduce_diagram(d)
    assert r.cells == 0 and r.top == r.bot == tuple("aabc")


def test_reduce_separated_dipole_frozen():
    # dipole around an independent middle move keeps the middle move
    top = tuple("abcabc")
    d = Diagram(COMM, top, (Move(0, 0, True), Move(3, 0, True), Move(0, 0, False)))
    r = reduce_diagram(d)
    assert r.moves == (Move(3, 0, True),)
    assert r.bot == d.bot == tuple("abcbac")


def test_hexagon_is_reduced_and_nontrivial():
    assert HEX.is_spherical
    assert is_reduced(HEX)
    assert reduce_diagram(HEX).cells == 6


def test_reduce_of_loop_times_inverse_is_trivial():
    s = compose(HEX, inverse(HEX))
    assert s.cells == 12
    assert reduce_diagram(s).cells == 0


@given(words3, picks5)
@settings(max_examples=60, deadline=None)
def test_reduce_idempotent_and_parity(start, picks):
    d = random_walk_diagram(COMM, start, picks)
    r = reduce_diagram(d)
    assert is_reduced(r)
    assert r.top == d.top and r.bot == d.bot
    assert (d.cells - r.cells) % 2 == 0
    assert reduce_diagram(r).moves == r.moves


@given(words3, picks5, st.integers(0, 1000), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_reduce_unaffected_by_dipole_insertion(start, picks, where, which):
    d = random_walk_diagram(COMM, start, picks)
    words = d.words()
    i = where % len(words)
    options = one_step_rewrites(words[i], COMM)
    if not options:
        return
    m, _ = options[which % len(options)]
    padded = Diagram(
        COMM, d.top, d.moves[:i] + (m, m.inverted()) + d.moves[i:]
    )
    assert canonical_key(reduce_diagram(padded)) == canonical_key(reduce_diagram(d))


def test_reduce_distributes_over_dsum():
    d1 = compose(HEX, inverse(HEX))
    d2 = HEX
    lhs = canonical_key(reduce_diagram(dsum(d1, d2)))
    rhs = canonical_key(dsum(reduce_diagram(d1), reduce_diagram(d2)))
    assert lhs == rhs


def test_sum_with_identity_keeps_diagram_nontrivial():
    # evidence that appending a trivial block is injective on reduced diagrams
    padded = dsum(eps(COMM, W("a a")), HEX)
    r = reduce_diagram(padded)
    assert r.cells == HEX.cells
    assert canonical_key(r) != canonical_key(eps(COMM, W("a a") + HEX.top))


def seeded_walk(pres, top, rng, steps) -> Diagram:
    """A derivation of up to ``steps`` moves; a third of them undo an
    earlier cell's site where one is exposed, so dipoles are common."""
    moves: List[Move] = []
    word = top
    for _ in range(steps):
        options = one_step_rewrites(word, pres)
        if rng.random() < 1 / 3:
            options = [o for o in options if o[0].inverted() in moves] or options
        if not options:
            break
        move, word = rng.choice(options)
        moves.append(move)
    return Diagram(pres, top, tuple(moves))


def overlapping_presentation(rng):
    """Two or three relations whose sides are factors of one short stem, so
    they overlap and are prefixes of one another."""
    stem = tuple(rng.choice("ab") for _ in range(3)) * 2
    factors = sorted(
        {stem[i:j] for i in range(len(stem)) for j in range(i + 1, min(i + 4, len(stem) + 1))}
    )
    relations = {}
    for _ in range(20):
        lhs, rhs = rng.sample(factors, 2)
        relations.setdefault(frozenset((lhs, rhs)), Relation(lhs, rhs))
        if len(relations) == 3:
            break
    return Presentation(("a", "b", "c"), tuple(relations.values()))


CORPUS = [
    (COMM, W("a b c a")),
    (CYC3, W("a b")),
    (PADPAIR, W("a1 b1")),
    (HALFPAD, W("a b")),
    (DIRTY, W("a b")),
    (OSC_EMPTY, W("x k k k y")),
    (OSC_PLAIN, W("x k h k h k y")),
    (GROW, W("x")),
    (INTEROSC, W("c u v w d")),
    (SQUARES, W("k k k k t")),
]


def reduction_cases():
    """Seeded diagrams over the corpus, ``k k = t`` and random overlapping
    presentations, and spherical products ``D . D'^-1`` of walks that end
    on the same word, so that dipoles sit far apart and interleave."""
    rng = random.Random(19970101)
    places = list(CORPUS)
    for _ in range(40):
        pres = overlapping_presentation(rng)
        places.append((pres, tuple(rng.choice("abc") for _ in range(rng.randint(3, 5)))))
    for pres, top in places:
        walks = [seeded_walk(pres, top, rng, rng.randint(0, 12)) for _ in range(30)]
        yield from walks
        by_bottom = {}
        for d in walks:
            by_bottom.setdefault(d.bot, []).append(d)
        for same in by_bottom.values():
            for d, e in zip(same, same[1:]):
                yield compose(d, inverse(e))


def test_reduce_diagram_matches_reference():
    cases = spherical = far = kept = 0
    for d in reduction_cases():
        expected = reference_reduce(d)
        assert reduce_diagram(d).moves == expected.moves, d
        assert is_reduced(d) == (expected.cells == d.cells), d
        cases += 1
        spherical += d.is_spherical and d.cells > 0
        kept += d.is_spherical and expected.cells > 0
        # a surviving cell whose offset moved: a dipole that was not adjacent
        far += any(m not in d.moves for m in expected.moves)
    assert cases > 2000 and spherical > 500 and kept > 200 and far > 50


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_roundtrip():
    text = serialize_diagram(HEX)
    assert text.splitlines()[0] == "a b c"
    assert parse_diagram(text, COMM).moves == HEX.moves


def test_parse_diagram_rejects_garbage():
    with pytest.raises(ValueError):
        parse_diagram("a b c\n0 0 sideways", COMM)
    with pytest.raises(ValueError):
        parse_diagram("", COMM)

"""Tests for the complex of reduced diagrams and its rank trees.

Ball shapes are frozen from an independent brute-force enumerator: every move
sequence of bounded length from the base, reduced and deduplicated by
canonical key, with edges recovered from pairwise diagram distance and squares
from disjoint rewrite pairs.  The breadth-first construction must reproduce
them exactly; a live (smaller) instance of the same oracle runs in-test.

``farley_ball`` keys its vertices by bottom tuples in one ``Wires`` table.
``reference_ball`` below is its ``layered_key`` twin: the same
``Wires.extend_reduced`` steps, with repeats recognised by the layered
normal form of each vertex's cells; the ball must match it vertex for vertex.
"""

import copy
import dataclasses
import itertools
import random
from collections import Counter, deque
from typing import Dict, List, NamedTuple, Tuple

import pytest
from fractions import Fraction

from conftest import (
    COMM,
    CYC3,
    DEFAULT_CAPS,
    DIRTY,
    GROW,
    HALFPAD,
    INTEROSC,
    OSC_PLAIN,
    PADPAIR,
    PADPAIR_CAPS,
    TIGHT_CAPS,
    W,
    reference_reduce,
)
from diagram_groups import farley
from diagram_groups.diagrams import (
    CanonicalKey,
    Wires,
    canonical_key,
    compose,
    eps,
    layered_key,
    reduce_diagram,
)
from diagram_groups.farley import (
    FarleyEdge,
    check_isometric_embedding,
    edge_ranks,
    farley_ball,
    guarded_pairs,
    property_b_scan,
    rank_partition,
    tree_quotients,
)
from diagram_groups.rewriting import (
    ClassSearch,
    Diagram,
    Move,
    Presentation,
    Relation,
    SearchCaps,
    inverse,
    one_step_rewrites,
    parse_presentation,
)
from diagram_groups.squier import (
    BallEdge,
    HyperplaneId,
    OutsideCatalogError,
    build_ball,
    disjoint_cubes,
    hyperplane_id,
)

ZPAIR = parse_presentation("letters: a b\nrel: a = b")

A1B1 = W("a1 b1")

# three independent spherical loops at a1 b1: the two label 3-cycles and the
# reduced two-cell pad loop (pad the a, unpad before the b)
LOOP_A = Diagram(PADPAIR, A1B1, (Move(0, 0, True), Move(0, 1, True), Move(0, 2, True)))
LOOP_B = Diagram(PADPAIR, A1B1, (Move(1, 3, True), Move(1, 4, True), Move(1, 5, True)))
PAD_LOOP = reduce_diagram(
    Diagram(PADPAIR, A1B1, (Move(0, 6, True), Move(1, 7, False)))
)

LOOP3 = Diagram(CYC3, W("a"), (Move(0, 0, True), Move(0, 1, True), Move(0, 2, True)))


def shape(ball):
    counts = {}
    for d in ball.depths:
        counts[d] = counts.get(d, 0) + 1
    return (
        len(ball.depths),
        len(ball.edges),
        ball.cube_counts.get(2, 0),
        tuple(counts[i] for i in sorted(counts)),
    )


class FarleyCube(NamedTuple):
    """A cube of a Farley ball, at its corner with the fewest cells.

    ``moves`` are pairwise disjoint rewrites of that corner's bottom word in
    ascending offset order; ``corners[mask]`` is the vertex reached by the
    moves whose bits are set in ``mask``.
    """

    corner: int
    moves: Tuple[Move, ...]
    corners: Tuple[int, ...]


def farley_cubes(ball, pres):
    """The cubes of a Farley ball over ``pres`` by dimension, as
    ``squier.disjoint_cubes`` lists them from the ball's up tables; the ball
    itself only counts them."""
    return {
        dim: tuple(FarleyCube(*cube) for cube in cs)
        for dim, cs in disjoint_cubes(ball.up, pres)
    }


def farley_squares(ball, pres):
    return farley_cubes(ball, pres).get(2, ())


def listed_cube_counts(up, pres):
    return {dim: len(cs) for dim, cs in disjoint_cubes(up, pres)}


def vertex_diagrams(ball, pres, base):
    """The reduced diagram of each vertex of the ball of ``base`` over
    ``pres``, replayed along the first edge into it in ``ball.edges``: the
    edge that discovered the vertex, whose lower end was discovered before
    it."""
    ds = [eps(pres, base)] + [None] * (len(ball.depths) - 1)
    for e in ball.edges:
        if ds[e.high] is None:
            ds[e.high] = Diagram(pres, base, ds[e.low].moves + (e.move,))
    return ds


def vertex_index(ball, pres, base):
    return {canonical_key(d): i for i, d in enumerate(vertex_diagrams(ball, pres, base))}


def adjacency(ball):
    adj = [[] for _ in ball.depths]
    for ei, e in enumerate(ball.edges):
        adj[e.low].append((e.high, ei))
        adj[e.high].append((e.low, ei))
    return adj


def distance(a, b):
    """Cells of ``reduce(inverse(a) . b)``: the combinatorial distance,
    computed by general reduction, independently of the ball's cell sets."""
    if a.pres != b.pres or a.top != b.top:
        raise ValueError("distance needs two diagrams with a common top")
    return reduce_diagram(compose(inverse(a), b)).cells


def index_of(ball, d):
    """Vertex index of a reduced diagram; raises if outside the ball."""
    index = vertex_index(ball, d.pres, d.top)
    k = canonical_key(d)
    if k not in index:
        raise ValueError(
            f"diagram {d} is not a vertex of the radius-{ball.radius} ball"
        )
    return index[k]


# ---------------------------------------------------------------------------
# the keyed reference search
# ---------------------------------------------------------------------------


def reference_ball(pres, w, radius):
    """The keyed search: ``(keys, diagrams, depths, edges, up)``.

    A vertex ``A`` on the frontier is held by its bottom wires and extended
    by ``Wires.extend_reduced``: a cancelling step leads one level down, to
    a vertex already recorded, and any other step one level up, so edges
    join consecutive levels.  Cancellations are counted, not keyed: distinct
    exposed cells cancel to distinct lower neighbours, so their number must
    equal the number of edges recorded into ``A`` from below.
    """
    pres.check_word(w)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    wires = Wires(pres, w)
    keys: List[CanonicalKey] = [layered_key(w, ())]
    diagrams: List[Diagram] = [eps(pres, w)]
    depths: List[int] = [0]
    index: Dict[CanonicalKey, int] = {keys[0]: 0}
    edges: List[FarleyEdge] = []
    # up[i] maps each rewrite of bot(diagrams[i]) that gains a cell to the
    # vertex it reaches; cube corners are recovered from these tables
    up: List[Dict[Move, int]] = [{}]
    # down[i] counts the recorded edges into i from one level below
    down: Dict[int, int] = Counter()
    frontier = {0: wires.top}

    qi = 0
    while qi < len(keys):
        i = qi
        qi += 1
        d = depths[i]
        if d == radius:
            # extensions upward would leave the ball, and every edge down
            # to level radius-1 was recorded when that endpoint was processed
            continue
        bottom = frontier.pop(i)
        di = diagrams[i]
        u = di.bot
        cancels = 0
        for move, _ in one_step_rewrites(u, pres):
            grown, _, cancelled = wires.extend_reduced(bottom, move)
            if cancelled:
                # the other endpoint sits one level down and was processed
                # first, so the edge already exists in that orientation
                cancels += 1
                continue
            nk = layered_key(w, wires.cells(grown))
            j = index.get(nk)
            if j is None:
                j = len(keys)
                index[nk] = j
                keys.append(nk)
                diagrams.append(Diagram(pres, w, di.moves + (move,)))
                depths.append(d + 1)
                up.append({})
                if d + 1 < radius:
                    frontier[j] = grown
            edges.append(FarleyEdge(i, j, u, move))
            up[i][move] = j
            down[j] += 1
        if cancels != down[i]:
            raise RuntimeError(f"vertex {i}: {cancels} cancellations, {down[i]} edges below")

    return tuple(keys), tuple(diagrams), tuple(depths), tuple(edges), tuple(up)


def assert_matches_reference(pres, w, radius):
    ball = farley_ball(ClassSearch(pres, DEFAULT_CAPS), w, radius)
    _, diagrams, depths, edges, up = reference_ball(pres, w, radius)
    assert ball.depths == depths
    assert ball.edges == edges
    assert ball.up == up
    assert ball.cube_counts == listed_cube_counts(up, pres)
    replayed = [d.moves for d in vertex_diagrams(ball, pres, w)]
    assert replayed == [d.moves for d in diagrams]
    for key, moves in zip(ball.keys, replayed):
        bottom = ball.wires.top
        for move in moves:
            bottom, _, _ = ball.wires.extend_reduced(bottom, move)
        assert bottom == key
    return len(depths)


CORPUS_BALLS = pytest.mark.parametrize(
    "pres,w,radius",
    [
        (PADPAIR, A1B1, 6),
        (DIRTY, W("a b"), 7),
        (CYC3, W("a b c a"), 5),
        (GROW, W("x"), 6),
        (COMM, W("a b c"), 6),
        (HALFPAD, W("a b"), 7),
        (OSC_PLAIN, W("x k h k h k y"), 4),
        (INTEROSC, W("c u v w d"), 4),
    ],
    ids=["padpair", "dirty", "cyc3-abca", "grow", "comm", "halfpad", "osc-plain", "interosc"],
)


@CORPUS_BALLS
def test_ball_matches_keyed_reference(pres, w, radius):
    assert assert_matches_reference(pres, w, radius) > 1


@CORPUS_BALLS
def test_cubes_are_found_on_first_read(pres, w, radius):
    # every radius up to the listed one: a k-set of disjoint moves at depth
    # d spans a cube of the ball exactly when d + k <= radius; building a
    # ball counts nothing, and the first read of ``cube_counts`` counts once
    search = ClassSearch(pres, DEFAULT_CAPS)
    for r in range(radius + 1):
        ball = farley_ball(search, w, r)
        expected = listed_cube_counts(ball.up, pres)
        assert "cube_counts" not in vars(ball)
        counts = ball.cube_counts
        assert counts == expected, r
        # a second read touches no table
        ball.up = ball.depths = ball.wires = None
        assert ball.cube_counts is counts


def random_presentation(rng):
    """Two or three relations on ``a b c`` with sides of one or two letters,
    and a base word of two letters."""
    letters = ("a", "b", "c")
    relations = {}
    count = rng.randint(2, 3)
    while len(relations) < count:
        lhs = tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
        rhs = tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
        if lhs != rhs:
            relations.setdefault(frozenset((lhs, rhs)), Relation(lhs, rhs))
    pres = Presentation(letters, tuple(relations.values()))
    return pres, (rng.choice(letters), rng.choice(letters))


def test_ball_matches_keyed_reference_on_random_presentations():
    rng = random.Random(20150707)
    vertices = 0
    for _ in range(120):
        pres, base = random_presentation(rng)
        vertices += assert_matches_reference(pres, base, 5)
    assert vertices > 1000


def test_cube_counts_match_enumerator_on_random_presentations():
    rng = random.Random(2003)
    cubes = 0
    for n in range(240):
        pres, base = random_presentation(rng)
        ball = farley_ball(ClassSearch(pres, DEFAULT_CAPS), base, 2 + n % 4)
        assert ball.cube_counts == listed_cube_counts(ball.up, pres), n
        cubes += sum(ball.cube_counts.values())
    assert cubes > 5000


def test_cube_counts_need_the_depth_bound():
    # counted without the radius - depth bound, disjoint moves near the rim
    # would span cubes whose far corners leave the ball
    ball = farley_ball(ClassSearch(DIRTY, DEFAULT_CAPS), W("a b"), 5)
    unbounded = copy.copy(ball)
    unbounded.radius = ball.radius + max(len(e.word) for e in ball.edges)
    assert unbounded.cube_counts != listed_cube_counts(ball.up, DIRTY)
    assert ball.cube_counts == listed_cube_counts(ball.up, DIRTY)


# ---------------------------------------------------------------------------
# ball construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "pres,w,radius,expected",
    [
        (COMM, W("a b c"), 0, (1, 0, 0, (1,))),
        (COMM, W("a b c"), 1, (3, 2, 0, (1, 2))),
        (COMM, W("a b c"), 3, (7, 6, 0, (1, 2, 2, 2))),
        (COMM, W("a a b c"), 2, (6, 5, 0, (1, 2, 3))),
        (COMM, W("a a b c"), 3, (10, 10, 1, (1, 2, 3, 4))),
        (CYC3, W("a"), 3, (7, 6, 0, (1, 2, 2, 2))),
        (ZPAIR, W("a"), 4, (2, 1, 0, (1, 1))),
        (PADPAIR, A1B1, 1, (7, 6, 0, (1, 6))),
        (PADPAIR, A1B1, 2, (28, 36, 9, (1, 6, 21))),
        (PADPAIR, A1B1, 3, (82, 126, 45, (1, 6, 21, 54))),
    ],
    ids=[
        "comm-abc-r0",
        "comm-abc-r1",
        "comm-abc-r3",
        "comm-aabc-r2",
        "comm-aabc-r3",
        "cyc3-r3",
        "zpair-r4",
        "padpair-r1",
        "padpair-r2",
        "padpair-r3",
    ],
)
def test_ball_shape_frozen(pres, w, radius, expected):
    assert shape(farley_ball(ClassSearch(pres, DEFAULT_CAPS), w, radius)) == expected


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        farley_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"), -1)


def test_ball_vertices_match_brute_force():
    # independent enumeration: every reduced diagram with <= r cells is a
    # sequence of <= r moves, so walking all sequences and reducing finds
    # the whole ball
    for pres, w, r in [(COMM, W("a a b c"), 2), (PADPAIR, A1B1, 2)]:
        found = {canonical_key(eps(pres, w)): eps(pres, w)}
        level = [eps(pres, w)]
        seen_raw = {canonical_key(level[0])}
        for _ in range(r):
            nxt = []
            for d in level:
                for move, _ in one_step_rewrites(d.bot, pres):
                    nd = Diagram(pres, w, d.moves + (move,))
                    k = canonical_key(nd)
                    if k in seen_raw:
                        continue
                    seen_raw.add(k)
                    nxt.append(nd)
                    rd = reference_reduce(nd)
                    if rd.cells <= r:
                        found.setdefault(canonical_key(rd), rd)
            level = nxt
        ball = farley_ball(ClassSearch(pres, DEFAULT_CAPS), w, r)
        assert set(vertex_index(ball, pres, w)) == set(found)
        # edges: exactly the pairs at diagram distance one
        expect_edges = sum(
            1
            for d1, d2 in itertools.combinations(found.values(), 2)
            if distance(d1, d2) == 1
        )
        assert len(ball.edges) == expect_edges


@pytest.mark.parametrize(
    "pres,w,radius",
    [
        (PADPAIR, A1B1, 4),
        (DIRTY, W("a b"), 5),
        (CYC3, W("a b c a"), 4),
        (GROW, W("x"), 5),
    ],
    ids=["padpair-r4", "dirty-r5", "cyc3-abca-r4", "grow-r5"],
)
def test_extensions_match_general_reduction(pres, w, radius):
    # the ball cancels or appends one cell at the bottom instead of reducing;
    # every A . atom, reduced in general, must land on a recorded neighbour,
    # and every recorded edge must come from some A . atom; the ball skips
    # its cancellations, whose edges were recorded from below, and here each
    # one is keyed: it must reach a neighbour one level down
    ball = farley_ball(ClassSearch(pres, DEFAULT_CAPS), w, radius)
    ds = vertex_diagrams(ball, pres, w)
    index = vertex_index(ball, pres, w)
    adj = adjacency(ball)
    produced = set()
    wires = Wires(pres, w)
    for i, a in enumerate(ds):
        bottom = wires.top
        for move in a.moves:
            bottom, _, _ = wires.extend_reduced(bottom, move)
        for move, _ in one_step_rewrites(a.bot, pres):
            lower, _, cancelled = wires.extend_reduced(bottom, move)
            if cancelled:
                j = index[layered_key(w, wires.cells(lower))]
                assert ball.depths[j] == a.cells - 1 and j in dict(adj[i])
            nd = reference_reduce(Diagram(pres, w, a.moves + (move,)))
            assert nd.cells in (a.cells - 1, a.cells + 1)
            if nd.cells > radius:
                continue
            hits = [
                ei
                for j, ei in adj[i]
                if ball.depths[j] == nd.cells
                and distance(ds[j], nd) == 0
            ]
            assert len(hits) == 1, (i, move)
            produced.add(hits[0])
    assert produced == set(range(len(ball.edges)))


@pytest.mark.parametrize(
    "pres, w, radius",
    [(PADPAIR, A1B1, 4), (DIRTY, W("a b"), 5)],
    ids=["padpair-r4", "dirty-r5"],
)
def test_cube_corners_match_general_reduction(pres, w, radius):
    # cube corners are read off up-edge tables; each must be the vertex of
    # the corner diagram composed with the selected atoms, reduced in general
    ball = farley_ball(ClassSearch(pres, DEFAULT_CAPS), w, radius)
    index = vertex_index(ball, pres, w)
    ds = vertex_diagrams(ball, pres, w)
    cubes_by_dim = farley_cubes(ball, pres)
    assert cubes_by_dim
    for cubes in cubes_by_dim.values():
        for cube in cubes:
            a = ds[cube.corner]
            for mask, vertex in enumerate(cube.corners):
                chosen = [m for t, m in enumerate(cube.moves) if mask >> t & 1]
                # right to left, so every offset still refers to ``a.bot``
                atoms = Diagram(pres, a.bot, tuple(reversed(chosen)))
                assert index[canonical_key(reference_reduce(compose(a, atoms)))] == vertex


def test_ball_replays_diagrams_only_when_asked(monkeypatch):
    # the ball holds bottom tuples and tables and builds no diagram, and
    # ``guarded_pairs`` reads cell sets instead of replaying or reducing
    # anything; a vertex's diagram is replayed only by a caller that asks,
    # as ``vertex_diagrams`` does
    def refused(*args):
        raise AssertionError("the ball or guarded_pairs ran the diagram algebra")

    # farley imports ``Diagram`` and ``inverse``; ``compose`` and
    # ``reduce_diagram`` could only be reached through the diagrams module
    from diagram_groups import diagrams as algebra

    for name in ("Diagram", "inverse"):
        monkeypatch.setattr(farley, name, refused)
    for name in ("compose", "reduce_diagram"):
        monkeypatch.setattr(algebra, name, refused)
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 6)
    assert guarded_pairs(ball)


def test_depth_equals_cell_count():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 3)
    for d, depth in zip(vertex_diagrams(ball, PADPAIR, A1B1), ball.depths):
        assert d.cells == depth
        assert reference_reduce(d).moves == d.moves  # vertices are reduced


def test_index_round_trip_and_rejection():
    # the bottom tuples tell the vertices apart, and canonical keys find
    # each one again
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 2)
    assert len(set(ball.keys)) == len(ball.depths)
    for i, d in enumerate(vertex_diagrams(ball, PADPAIR, A1B1)):
        assert index_of(ball, d) == i
    outside = reduce_diagram(compose(LOOP_A, LOOP_A))  # 6 cells
    with pytest.raises(ValueError):
        index_of(ball, outside)


def test_edges_join_consecutive_levels_at_distance_one():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 2)
    ds = vertex_diagrams(ball, PADPAIR, A1B1)
    for e in ball.edges:
        assert ball.depths[e.high] == ball.depths[e.low] + 1
        assert distance(ds[e.low], ds[e.high]) == 1
        assert e.word == ds[e.low].bot


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------


def test_distance_from_identity_is_cell_count():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 3)
    base = eps(PADPAIR, A1B1)
    for d in vertex_diagrams(ball, PADPAIR, A1B1):
        assert distance(base, d) == d.cells


def test_distance_symmetric_zero_on_diagonal():
    ball = farley_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"), 3)
    ds = vertex_diagrams(ball, COMM, W("a a b c"))[:6]
    for a in ds:
        assert distance(a, a) == 0
        for b in ds:
            assert distance(a, b) == distance(b, a)


def test_distance_triangle_inequality():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 2)
    ds = vertex_diagrams(ball, PADPAIR, A1B1)[:10]
    for a, b, c in itertools.combinations(ds, 3):
        assert distance(a, c) <= distance(a, b) + distance(b, c)


def test_distance_needs_common_top():
    with pytest.raises(ValueError):
        distance(eps(PADPAIR, A1B1), eps(PADPAIR, W("a1")))


def test_distance_agrees_with_bfs_on_guarded_pairs():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 6)
    pairs = guarded_pairs(ball)
    assert pairs  # depth-2 vertices are guarded at radius 6
    ds = vertex_diagrams(ball, PADPAIR, A1B1)
    for i, j, dist in pairs:
        assert distance(ds[i], ds[j]) == dist


def cell_set_mismatches(ball, pres, base, cells):
    """Vertex pairs whose cell sets, as ``cells(i)`` names them, differ in
    size from the general-reduction distance of their diagrams."""
    ds = vertex_diagrams(ball, pres, base)
    sets = [cells(i) for i in range(len(ds))]
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(ds)), 2)
        if len(sets[i] ^ sets[j]) != distance(ds[i], ds[j])
    ]


@pytest.mark.parametrize(
    "pres, w, radius",
    [
        (PADPAIR, A1B1, 4),
        (DIRTY, W("a b"), 5),
        (CYC3, W("a b c a"), 4),
        (GROW, W("x"), 5),
        (COMM, W("a b c"), 5),
    ],
    ids=["padpair-r4", "dirty-r5", "cyc3-abca-r4", "grow-r5", "comm-abc-r5"],
)
def test_cell_sets_measure_distance(pres, w, radius):
    # every pair, not only the guarded ones: the symmetric difference of the
    # cell sets is the distance that general reduction computes
    ball = farley_ball(ClassSearch(pres, DEFAULT_CAPS), w, radius)
    assert cell_set_mismatches(ball, pres, w, ball.cells) == []


def test_cell_sets_measure_distance_on_random_presentations():
    rng = random.Random(1507)
    pairs = 0
    for _ in range(40):
        pres, base = random_presentation(rng)
        ball = farley_ball(ClassSearch(pres, DEFAULT_CAPS), base, 4)
        assert cell_set_mismatches(ball, pres, base, ball.cells) == []
        pairs += len(ball.depths) * (len(ball.depths) - 1) // 2
    assert pairs > 10000


def test_cell_sets_need_the_consumed_wires():
    # naming a cell by its relation and direction alone, without the wires
    # it consumes, merges distinct cells and must be caught
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 4)

    def forgetful(i):
        return frozenset(cell[:2] for cell in ball.wires.cells(ball.keys[i]))

    assert cell_set_mismatches(ball, PADPAIR, A1B1, forgetful)


# ---------------------------------------------------------------------------
# cubes
# ---------------------------------------------------------------------------


def test_squares_have_consistent_corners():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 3)
    edge_set = {(e.low, e.high) for e in ball.edges}
    for sq in farley_squares(ball, PADPAIR):
        c = sq.corners
        assert c[0] == sq.corner
        d = ball.depths[c[0]]
        assert [ball.depths[x] for x in c] == [d, d + 1, d + 1, d + 2]
        for lo, hi in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert (c[lo], c[hi]) in edge_set
        m1, m2 = sq.moves
        assert m1.offset + len(m1.sides(PADPAIR)[0]) <= m2.offset


def test_no_three_cubes_over_two_letter_base():
    # only two disjoint rewrites fit on a two-letter word, so dimension
    # stops at two
    assert list(farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 4).cube_counts) == [2]


# ---------------------------------------------------------------------------
# rank pullback
# ---------------------------------------------------------------------------


def hid(left, relation, right):
    return HyperplaneId(W(left), relation, W(right))


def families(part):
    """The cataloged hyperplanes of a crossing order, grouped by rank."""
    out = {}
    for h, r in zip(part.ball.catalog.ids, part.ranks):
        out.setdefault(r.value, []).append(h)
    return {k: tuple(v) for k, v in out.items()}


def test_rank_partition_padpair_frozen():
    part = rank_partition(ClassSearch(PADPAIR, PADPAIR_CAPS), A1B1)
    assert part.ranks_exact
    fams = families(part)
    assert set(fams) == {0, 1}
    assert set(fams[0]) == {
        hid("", 0, "b1"),
        hid("", 1, "b1"),
        hid("", 2, "b1"),
        hid("", 6, "b1"),
    }
    assert set(fams[1]) == {
        hid("a1", 3, ""),
        hid("a1", 4, ""),
        hid("a1", 5, ""),
        hid("a1", 7, ""),
    }


def test_rank_partition_comm_frozen():
    part = rank_partition(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
    assert part.ranks_exact
    assert set(families(part)) == {0}
    part = rank_partition(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"))
    assert part.ranks_exact
    fams = families(part)
    assert set(fams[1]) == {hid("a b", 1, ""), hid("a c", 0, "")}
    assert len(fams[0]) == 9


def test_hyperplane_index_outside_catalog_raises():
    squier = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
    with pytest.raises(OutsideCatalogError) as info:
        squier.hyperplane_index(W("a b c a b"), Move(3, 0, True))
    assert info.value.hyperplane == hid("a b c", 0, "")


@pytest.mark.parametrize(
    "pres, base, caps, radius",
    [
        (PADPAIR, "a1 b1", PADPAIR_CAPS, 6),
        (DIRTY, "a b", TIGHT_CAPS, 5),
        (COMM, "a a b c", DEFAULT_CAPS, 4),
        # edges leave the depth-2 class ball and are matched by equality
        (PADPAIR, "a1 b1", SearchCaps(max_bfs_depth=2), 4),
    ],
    ids=["padpair", "dirty", "comm", "padpair-depth2"],
)
def test_hyperplane_index_agrees_with_hyperplane_id(pres, base, caps, radius):
    # every Farley edge resolves, in both orientations, to the catalog
    # position its shortlex hyperplane id names, wherever that id is cataloged
    ball = farley_ball(ClassSearch(pres, DEFAULT_CAPS), W(base), radius)
    squier = build_ball(ClassSearch(pres, caps), W(base))
    named = 0
    for e in ball.edges:
        i = squier.hyperplane_index(e.word, e.move)
        target = e.move.apply(e.word, pres)
        assert squier.hyperplane_index(target, e.move.inverted()) == i
        ref = squier.catalog.index.get(hyperplane_id(squier.search, e.word, e.move))
        if ref is not None:
            assert i == ref
            named += 1
    assert named > 0


def test_edges_cover_class_complex_edges():
    # the covering sends each ball edge to an edge of the complex downstairs
    ball = farley_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"), 3)
    squier = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"))
    assert squier.complete
    for e in ball.edges:
        forth = BallEdge(e.word, e.move)
        back = BallEdge(e.move.apply(e.word, COMM), e.move.inverted())
        assert forth in squier.edges or back in squier.edges

    # the pad class is infinite, so downstairs is necessarily truncated;
    # check the edges whose endpoints the truncated ball did reach
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 2)
    squier = build_ball(ClassSearch(PADPAIR, PADPAIR_CAPS), A1B1)
    assert not squier.complete
    checked = 0
    for e in ball.edges:
        target = e.move.apply(e.word, PADPAIR)
        if e.word in squier.vertices and target in squier.vertices:
            forth = BallEdge(e.word, e.move)
            back = BallEdge(target, e.move.inverted())
            assert forth in squier.edges or back in squier.edges
            checked += 1
    assert checked >= len(ball.edges) // 2


def test_square_edges_pull_back_to_different_ranks():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 4)
    part = rank_partition(ClassSearch(PADPAIR, PADPAIR_CAPS), A1B1)
    ranks = edge_ranks(ball, part)
    by_pair = {
        (e.low, e.high): r for e, r in zip(ball.edges, ranks)
    }
    for sq in farley_squares(ball, PADPAIR):
        c = sq.corners
        assert by_pair[(c[0], c[1])] != by_pair[(c[0], c[2])]


@dataclasses.dataclass(frozen=True)
class BallHyperplane:
    """A parallelism class of ball edges (opposite edges of shared squares).

    All member edges cover a single hyperplane downstairs — that is the
    well-definedness of the pullback, and it is checked, not assumed.
    """

    index: int
    edges: tuple
    squier: HyperplaneId
    rank: int


def ball_hyperplanes(ball, partition):
    """Group the ball's edges into hyperplanes by square-parallelism."""
    parent = list(range(len(ball.edges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    eidx = {(e.low, e.high): i for i, e in enumerate(ball.edges)}
    for sq in farley_squares(ball, partition.ball.pres):
        c = sq.corners
        union(eidx[(c[0], c[1])], eidx[(c[2], c[3])])
        union(eidx[(c[0], c[2])], eidx[(c[1], c[3])])

    classes = {}
    for i in range(len(ball.edges)):
        classes.setdefault(find(i), []).append(i)

    index = partition.ball.hyperplane_index
    ids = partition.ball.catalog.ids
    out = []
    for n, root in enumerate(sorted(classes)):
        members = tuple(sorted(classes[root]))
        found = {index(ball.edges[i].word, ball.edges[i].move) for i in members}
        if len(found) != 1:
            raise ValueError(
                "parallel edges pulled back to distinct hyperplanes "
                f"({', '.join(str(ids[h]) for h in sorted(found))}); "
                "the covering data is too truncated to be trusted"
            )
        h = found.pop()
        out.append(BallHyperplane(n, members, ids[h], partition.ranks[h].value))
    return tuple(out)


def test_ball_hyperplanes_well_defined_and_split():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 4)
    part = rank_partition(ClassSearch(PADPAIR, PADPAIR_CAPS), A1B1)
    hyps = ball_hyperplanes(ball, part)
    assert len(hyps) == 64
    assert sorted(h.rank for h in hyps).count(0) == 32
    covered = sorted(i for h in hyps for i in h.edges)
    assert covered == list(range(len(ball.edges)))
    ids = part.ball.catalog.ids
    for h in hyps:
        assert {
            ids[part.ball.hyperplane_index(ball.edges[i].word, ball.edges[i].move)]
            for i in h.edges
        } == {h.squier}


# ---------------------------------------------------------------------------
# tree quotients
# ---------------------------------------------------------------------------


def test_hexagon_cover_quotient_is_a_path():
    ball = farley_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"), 3)
    part = rank_partition(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
    (q,) = tree_quotients(ball, part)
    assert q.rank == 0
    assert q.node_count == 7 and len(q.edges) == 6
    degrees = sorted(len(q.neighbors[i]) for i in range(q.node_count))
    assert degrees == [1, 1, 2, 2, 2, 2, 2]
    ends = [i for i in range(q.node_count) if len(q.neighbors[i]) == 1]
    assert q.distance(ends[0], ends[1]) == 6


def test_quotients_comm_aabc_frozen():
    ball = farley_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"), 3)
    part = rank_partition(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"))
    quots = tree_quotients(ball, part)
    assert [(q.rank, q.node_count, len(q.edges)) for q in quots] == [
        (0, 7, 6),
        (1, 3, 2),
    ]


def test_quotients_padpair_r4_are_trees():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 4)
    part = rank_partition(ClassSearch(PADPAIR, PADPAIR_CAPS), A1B1)
    quots = tree_quotients(ball, part)
    assert [(q.rank, q.node_count, len(q.edges)) for q in quots] == [
        (0, 33, 32),
        (1, 33, 32),
    ]
    for q in quots:
        assert len(q.edges) == q.node_count - 1  # connected + this = tree


def test_quotients_refuse_inexact_partition():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 2)
    part = rank_partition(ClassSearch(PADPAIR, PADPAIR_CAPS), A1B1)
    assert part.ranks_exact
    # one doubted rank is enough: the order's ranks are cached per instance
    doubted = copy.copy(part)
    doubted.ranks = (part.ranks[0]._replace(exact=False),) + part.ranks[1:]
    assert not doubted.ranks_exact
    with pytest.raises(ValueError):
        tree_quotients(ball, doubted)


# ---------------------------------------------------------------------------
# separating hyperplanes and the embedding check
# ---------------------------------------------------------------------------


def shortest_path_edges(ball, i, j):
    """Edge indices along one BFS-shortest path from ``i`` to ``j``."""
    if i == j:
        return []
    adj = adjacency(ball)
    prev = {i: (-1, -1)}
    queue = deque([i])
    while queue:
        x = queue.popleft()
        for y, ei in adj[x]:
            if y not in prev:
                prev[y] = (x, ei)
                if y == j:
                    queue.clear()
                    break
                queue.append(y)
    path = []
    x = j
    while x != i:
        x, ei = prev[x]
        path.append(ei)
    return path


def separating_counts(a, b, ball, partition):
    """How many hyperplanes of each rank separate two guarded vertices.

    Under the guard a BFS path inside the ball is a genuine geodesic, and a
    geodesic crosses exactly the separating hyperplanes, once each; so the
    counts are read off the path's edges.  Ranks with count zero are omitted.
    """
    ia, ib = index_of(ball, a), index_of(ball, b)
    ds = vertex_diagrams(ball, a.pres, a.top)
    dist = distance(ds[ia], ds[ib])
    if (
        3 * dist > ball.radius
        or 3 * ball.depths[ia] > ball.radius
        or 3 * ball.depths[ib] > ball.radius
    ):
        raise ValueError(
            "interval-escape guard violated: endpoints must lie within "
            "radius/3 of the base and of each other"
        )
    path = shortest_path_edges(ball, ia, ib)
    assert len(path) == dist, "BFS disagrees with the diagram-algebra distance"
    counts = {}
    for ei in path:
        e = ball.edges[ei]
        r = partition.ranks[partition.ball.hyperplane_index(e.word, e.move)].value
        counts[r] = counts.get(r, 0) + 1
    return counts


def test_separating_counts_pad_loop():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 6)
    part = rank_partition(ClassSearch(PADPAIR, PADPAIR_CAPS), A1B1)
    base = eps(PADPAIR, A1B1)
    assert separating_counts(base, PAD_LOOP, ball, part) == {
        0: 1,
        1: 1,
    }
    assert separating_counts(base, base, ball, part) == {}
    one = reduce_diagram(Diagram(PADPAIR, A1B1, (Move(0, 0, True),)))
    assert separating_counts(base, one, ball, part) == {0: 1}


def test_separating_counts_guard():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 4)
    part = rank_partition(ClassSearch(PADPAIR, PADPAIR_CAPS), A1B1)
    with pytest.raises(ValueError):
        # distance 2 needs radius >= 6 for the interval to provably stay in
        separating_counts(
            eps(PADPAIR, A1B1), PAD_LOOP, ball, part
        )


def test_embedding_reports():
    # one search serves the rank partition and the ball, as in embed-check,
    # which counts no cube of the ball
    search = ClassSearch(PADPAIR, PADPAIR_CAPS)
    part = rank_partition(search, A1B1)
    ball = farley_ball(search, A1B1, 4)
    rep = check_isometric_embedding(ball, part)
    assert rep.ok and rep.exact
    assert "cube_counts" not in vars(ball)
    assert rep.ranks == (0, 1)
    assert rep.pairs_checked == 6  # the seven depth<=1 vertices, distance 1 apart

    part = rank_partition(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"))
    rep = check_isometric_embedding(
        farley_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"), 3), part
    )
    assert rep.ok and rep.exact and rep.ranks == (0, 1)


def test_embedding_radius_six_regression():
    # regression pin: cross-checked against the brute-force enumerator at
    # smaller radii, then frozen at the radius the embedding check needs
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 6)
    assert (len(ball.depths), len(ball.edges)) == (962, 1696)
    part = rank_partition(ClassSearch(PADPAIR, PADPAIR_CAPS), A1B1)
    rep = check_isometric_embedding(ball, part)
    assert rep.ok
    assert rep.pairs_checked == 138


# ---------------------------------------------------------------------------
# the group action and cell-count growth
# ---------------------------------------------------------------------------


def test_left_multiplication_acts_freely():
    ball = farley_ball(ClassSearch(PADPAIR, DEFAULT_CAPS), A1B1, 3)
    for g in (LOOP_A, LOOP_B, PAD_LOOP):
        for d in vertex_diagrams(ball, PADPAIR, A1B1):
            moved = reference_reduce(compose(g, d))
            assert canonical_key(moved) != canonical_key(d)


def within(scan, lo, hi):
    """Do all cell/length ratios of ``scan`` lie in ``[lo, hi]``?  (Exact
    rational comparison; the identity, of length 0, is skipped.)"""
    return all(
        lo * wl <= cells and cells <= hi * wl for wl, cells in scan.table if wl > 0
    )


def test_property_b_scan_cyc3_loop_ratio_exactly_three():
    scan = property_b_scan(CYC3, W("a"), (LOOP3,), 4)
    assert scan.sizes == (1, 2, 2, 2, 2)
    assert scan.min_ratio == scan.max_ratio == Fraction(3)
    assert scan.table == (
        (0, 0), (1, 3), (1, 3), (2, 6), (2, 6), (3, 9), (3, 9), (4, 12), (4, 12),
    )


def test_property_b_scan_padpair_frozen():
    scan = property_b_scan(PADPAIR, A1B1, (LOOP_A, LOOP_B, PAD_LOOP), 4)
    assert scan.sizes == (1, 6, 26, 110, 458)
    assert scan.min_ratio == Fraction(5, 3)
    assert scan.max_ratio == Fraction(3)
    assert within(scan, Fraction(1, 2), Fraction(3))
    assert not within(scan, Fraction(2), Fraction(3))


def test_property_b_scan_rejects_bad_generators():
    lone = reduce_diagram(Diagram(PADPAIR, A1B1, (Move(0, 0, True),)))
    with pytest.raises(ValueError):
        property_b_scan(PADPAIR, A1B1, (lone,), 2)  # not spherical
    fat = Diagram(
        PADPAIR, A1B1, LOOP_A.moves + tuple(m for m in inverse(LOOP_A).moves)
    )
    with pytest.raises(ValueError):
        property_b_scan(PADPAIR, A1B1, (fat,), 2)  # spherical but not reduced
    with pytest.raises(ValueError):
        property_b_scan(PADPAIR, W("a1"), (LOOP_A,), 2)  # wrong base

"""Tests for the complex of reduced diagrams and its rank trees.

Ball shapes are frozen from an independent brute-force enumerator: every move
sequence of bounded length from the base, reduced and deduplicated by
canonical key, with edges recovered from pairwise diagram distance and squares
from disjoint rewrite pairs.  The breadth-first construction must reproduce
them exactly; a live (smaller) instance of the same oracle runs in-test.
"""

import dataclasses
import itertools

import pytest
from fractions import Fraction

from conftest import COMM, CYC3, DEFAULT_CAPS, PADPAIR, PADPAIR_CAPS, W
from diagram_groups.diagrams import (
    Diagram,
    canonical_key,
    compose,
    eps,
    inverse,
    reduce_diagram,
)
from diagram_groups.farley import (
    ball_hyperplanes,
    check_isometric_embedding,
    distance,
    edge_ranks,
    farley_ball,
    guarded_pairs,
    property_b_scan,
    pullback_id,
    rank_partition,
    separating_counts,
    tree_quotients,
)
from diagram_groups.rewriting import Move, one_step_rewrites, parse_presentation
from diagram_groups.squier import BallEdge, HyperplaneId, build_ball

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
        len(ball.keys),
        len(ball.edges),
        len(ball.squares),
        tuple(counts[i] for i in sorted(counts)),
    )


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
    assert shape(farley_ball(pres, w, radius)) == expected


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        farley_ball(COMM, W("a b c"), -1)


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
                    rd = reduce_diagram(nd)
                    if rd.cells <= r:
                        found.setdefault(canonical_key(rd), rd)
            level = nxt
        ball = farley_ball(pres, w, r)
        assert set(ball.keys) == set(found)
        # edges: exactly the pairs at diagram distance one
        expect_edges = sum(
            1
            for d1, d2 in itertools.combinations(found.values(), 2)
            if distance(d1, d2) == 1
        )
        assert len(ball.edges) == expect_edges


def test_depth_equals_cell_count():
    ball = farley_ball(PADPAIR, A1B1, 3)
    for d, depth in zip(ball.diagrams, ball.depths):
        assert d.cells == depth
        assert reduce_diagram(d).moves == d.moves  # vertices are reduced


def test_index_round_trip_and_rejection():
    ball = farley_ball(PADPAIR, A1B1, 2)
    for i, d in enumerate(ball.diagrams):
        assert ball.index_of(d) == i
    outside = reduce_diagram(compose(LOOP_A, LOOP_A))  # 6 cells
    with pytest.raises(ValueError):
        ball.index_of(outside)


def test_edges_join_consecutive_levels_at_distance_one():
    ball = farley_ball(PADPAIR, A1B1, 2)
    for e in ball.edges:
        assert ball.depths[e.high] == ball.depths[e.low] + 1
        assert distance(ball.diagrams[e.low], ball.diagrams[e.high]) == 1
        assert e.word == ball.diagrams[e.low].bot


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------


def test_distance_from_identity_is_cell_count():
    ball = farley_ball(PADPAIR, A1B1, 3)
    base = eps(PADPAIR, A1B1)
    for d in ball.diagrams:
        assert distance(base, d) == d.cells


def test_distance_symmetric_zero_on_diagonal():
    ball = farley_ball(COMM, W("a a b c"), 3)
    ds = ball.diagrams[:6]
    for a in ds:
        assert distance(a, a) == 0
        for b in ds:
            assert distance(a, b) == distance(b, a)


def test_distance_triangle_inequality():
    ds = farley_ball(PADPAIR, A1B1, 2).diagrams[:10]
    for a, b, c in itertools.combinations(ds, 3):
        assert distance(a, c) <= distance(a, b) + distance(b, c)


def test_distance_needs_common_top():
    with pytest.raises(ValueError):
        distance(eps(PADPAIR, A1B1), eps(PADPAIR, W("a1")))


def test_distance_agrees_with_bfs_on_guarded_pairs():
    ball = farley_ball(PADPAIR, A1B1, 6)
    pairs = guarded_pairs(ball)
    assert pairs  # depth-2 vertices are guarded at radius 6
    for i, j, dist in pairs:
        assert distance(ball.diagrams[i], ball.diagrams[j]) == dist


# ---------------------------------------------------------------------------
# cubes
# ---------------------------------------------------------------------------


def test_squares_have_consistent_corners():
    ball = farley_ball(PADPAIR, A1B1, 3)
    edge_set = {(e.low, e.high) for e in ball.edges}
    for sq in ball.squares:
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
    assert farley_ball(PADPAIR, A1B1, 4).cube_dims() == (2,)


# ---------------------------------------------------------------------------
# rank pullback
# ---------------------------------------------------------------------------


def hid(left, relation, right):
    return HyperplaneId(W(left), relation, None, W(right))


def test_rank_partition_padpair_frozen():
    part = rank_partition(PADPAIR, A1B1, PADPAIR_CAPS)
    assert part.exact
    fams = part.families()
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
    part = rank_partition(COMM, W("a b c"), DEFAULT_CAPS)
    assert part.exact
    assert set(part.families()) == {0}
    part = rank_partition(COMM, W("a a b c"), DEFAULT_CAPS)
    assert part.exact
    fams = part.families()
    assert set(fams[1]) == {hid("a b", 1, ""), hid("a c", 0, "")}
    assert len(fams[0]) == 9


def test_rank_of_unknown_hyperplane_raises():
    part = rank_partition(COMM, W("a b c"), DEFAULT_CAPS)
    with pytest.raises(KeyError):
        part.rank_of(hid("a b c", 0, ""))


def test_pullback_same_for_both_orientations():
    ball = farley_ball(PADPAIR, A1B1, 2)
    for e in ball.edges:
        back = pullback_id(e, PADPAIR, PADPAIR_CAPS)
        target_word = e.move.apply(e.word, PADPAIR)
        flipped = dataclasses.replace(e, word=target_word, move=e.move.inverted())
        assert pullback_id(flipped, PADPAIR, PADPAIR_CAPS) == back


def test_edges_cover_class_complex_edges():
    # the covering sends each ball edge to an edge of the complex downstairs
    ball = farley_ball(COMM, W("a a b c"), 3)
    squier = build_ball(COMM, W("a a b c"), DEFAULT_CAPS)
    assert squier.complete
    for e in ball.edges:
        forth = BallEdge(e.word, e.move)
        back = BallEdge(e.move.apply(e.word, COMM), e.move.inverted())
        assert forth in squier.edges or back in squier.edges

    # the pad class is infinite, so downstairs is necessarily truncated;
    # check the edges whose endpoints the truncated ball did reach
    ball = farley_ball(PADPAIR, A1B1, 2)
    squier = build_ball(PADPAIR, A1B1, PADPAIR_CAPS)
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
    ball = farley_ball(PADPAIR, A1B1, 4)
    part = rank_partition(PADPAIR, A1B1, PADPAIR_CAPS)
    ranks = edge_ranks(ball, part)
    by_pair = {
        (e.low, e.high): r for e, r in zip(ball.edges, ranks)
    }
    for sq in ball.squares:
        c = sq.corners
        assert by_pair[(c[0], c[1])] != by_pair[(c[0], c[2])]


def test_ball_hyperplanes_well_defined_and_split():
    ball = farley_ball(PADPAIR, A1B1, 4)
    part = rank_partition(PADPAIR, A1B1, PADPAIR_CAPS)
    hyps = ball_hyperplanes(ball, PADPAIR_CAPS, part)
    assert len(hyps) == 64
    assert sorted(h.rank for h in hyps).count(0) == 32
    covered = sorted(i for h in hyps for i in h.edges)
    assert covered == list(range(len(ball.edges)))
    for h in hyps:
        assert {
            pullback_id(ball.edges[i], PADPAIR, PADPAIR_CAPS) for i in h.edges
        } == {h.squier}


# ---------------------------------------------------------------------------
# tree quotients
# ---------------------------------------------------------------------------


def test_hexagon_cover_quotient_is_a_path():
    ball = farley_ball(COMM, W("a b c"), 3)
    part = rank_partition(COMM, W("a b c"), DEFAULT_CAPS)
    (q,) = tree_quotients(ball, part)
    assert q.rank == 0
    assert q.node_count == 7 and len(q.edges) == 6
    degrees = sorted(len(q.neighbors[i]) for i in range(q.node_count))
    assert degrees == [1, 1, 2, 2, 2, 2, 2]
    ends = [i for i in range(q.node_count) if len(q.neighbors[i]) == 1]
    assert q.distance(ends[0], ends[1]) == 6


def test_quotients_comm_aabc_frozen():
    ball = farley_ball(COMM, W("a a b c"), 3)
    part = rank_partition(COMM, W("a a b c"), DEFAULT_CAPS)
    quots = tree_quotients(ball, part)
    assert [(q.rank, q.node_count, len(q.edges)) for q in quots] == [
        (0, 7, 6),
        (1, 3, 2),
    ]


def test_quotients_padpair_r4_are_trees():
    ball = farley_ball(PADPAIR, A1B1, 4)
    part = rank_partition(PADPAIR, A1B1, PADPAIR_CAPS)
    quots = tree_quotients(ball, part)
    assert [(q.rank, q.node_count, len(q.edges)) for q in quots] == [
        (0, 33, 32),
        (1, 33, 32),
    ]
    for q in quots:
        assert len(q.edges) == q.node_count - 1  # connected + this = tree


def test_quotients_refuse_inexact_partition():
    ball = farley_ball(PADPAIR, A1B1, 2)
    part = rank_partition(PADPAIR, A1B1, PADPAIR_CAPS)
    doubted = dataclasses.replace(part, exact=False)
    with pytest.raises(ValueError):
        tree_quotients(ball, doubted)


# ---------------------------------------------------------------------------
# separating hyperplanes and the embedding check
# ---------------------------------------------------------------------------


def test_separating_counts_pad_loop():
    ball = farley_ball(PADPAIR, A1B1, 6)
    part = rank_partition(PADPAIR, A1B1, PADPAIR_CAPS)
    base = eps(PADPAIR, A1B1)
    assert separating_counts(base, PAD_LOOP, ball, part) == {
        0: 1,
        1: 1,
    }
    assert separating_counts(base, base, ball, part) == {}
    one = reduce_diagram(Diagram(PADPAIR, A1B1, (Move(0, 0, True),)))
    assert separating_counts(base, one, ball, part) == {0: 1}


def test_separating_counts_guard():
    ball = farley_ball(PADPAIR, A1B1, 4)
    part = rank_partition(PADPAIR, A1B1, PADPAIR_CAPS)
    with pytest.raises(ValueError):
        # distance 2 needs radius >= 6 for the interval to provably stay in
        separating_counts(
            eps(PADPAIR, A1B1), PAD_LOOP, ball, part
        )


def test_embedding_reports():
    part = rank_partition(PADPAIR, A1B1, PADPAIR_CAPS)
    rep = check_isometric_embedding(farley_ball(PADPAIR, A1B1, 4), part)
    assert rep.ok and rep.exact
    assert rep.ranks == (0, 1)
    assert rep.pairs_checked == 6  # the seven depth<=1 vertices, distance 1 apart

    part = rank_partition(COMM, W("a a b c"), DEFAULT_CAPS)
    rep = check_isometric_embedding(
        farley_ball(COMM, W("a a b c"), 3), part
    )
    assert rep.ok and rep.exact and rep.ranks == (0, 1)


def test_embedding_radius_six_regression():
    # regression pin: cross-checked against the brute-force enumerator at
    # smaller radii, then frozen at the radius the embedding check needs
    ball = farley_ball(PADPAIR, A1B1, 6)
    assert (len(ball.keys), len(ball.edges)) == (962, 1696)
    part = rank_partition(PADPAIR, A1B1, PADPAIR_CAPS)
    rep = check_isometric_embedding(ball, part)
    assert rep.ok
    assert rep.pairs_checked == 138


# ---------------------------------------------------------------------------
# the group action and cell-count growth
# ---------------------------------------------------------------------------


def test_left_multiplication_acts_freely():
    ball = farley_ball(PADPAIR, A1B1, 3)
    for g in (LOOP_A, LOOP_B, PAD_LOOP):
        for i, d in enumerate(ball.diagrams):
            moved = reduce_diagram(compose(g, d))
            assert canonical_key(moved) != ball.keys[i]


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
    assert scan.within(Fraction(1, 2), Fraction(3))
    assert not scan.within(Fraction(2), Fraction(3))


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

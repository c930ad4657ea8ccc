"""Oracle-first tests for the class complex and its hyperplanes.

Expected ball sizes, hyperplane identities and crossing graphs are derived
by hand and frozen as literals.  For the commuting presentation the class
complex is exactly computable (classes are finite multiset-permutation
sets), giving an independent route for counts and exhaustiveness flags.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COMM,
    DEFAULT_CAPS,
    DIRTY,
    GROW,
    INTEROSC,
    OSC_EMPTY,
    OSC_PLAIN,
    PADPAIR,
    PADPAIR_CAPS,
    TIGHT_CAPS,
    W,
)
from diagram_groups.rewriting import Move
from diagram_groups.squier import (
    BallCube,
    BallEdge,
    HyperplaneId,
    build_ball,
    dimension_at_least,
    find_absorbing_splits,
    find_induced_odd_cycle,
    find_inter_osculations,
    find_self_intersections,
    find_self_osculations,
    hyperplane_catalog,
    hyperplane_id,
    inter_osculation_config,
    rank,
    refute_absorbing_splits,
    refute_inter_osculations,
    relate,
    scan_self_intersections,
    scan_self_osculations,
    self_intersection_square,
    self_osculation_config,
    specialness_report,
    split_to_self_intersection,
    transversality_graph,
)


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------


class TestHexagonBall:
    """[abc] over COMM: six vertices in a single hexagonal loop."""

    def setup_method(self):
        self.ball = build_ball(COMM, W("a b c"), DEFAULT_CAPS)

    def test_vertices_frozen(self):
        assert self.ball.vertices == (
            W("a b c"), W("a c b"), W("b a c"),
            W("b c a"), W("c a b"), W("c b a"),
        )
        assert self.ball.complete

    def test_edges_frozen(self):
        assert self.ball.edges == (
            BallEdge(W("a b c"), Move(0, 0, True)),
            BallEdge(W("a b c"), Move(1, 2, True)),
            BallEdge(W("a c b"), Move(0, 1, True)),
            BallEdge(W("b a c"), Move(1, 1, True)),
            BallEdge(W("b c a"), Move(0, 2, True)),
            BallEdge(W("c a b"), Move(1, 0, True)),
        )

    def test_no_squares(self):
        # two rewrites in a length-3 word always overlap
        assert self.ball.squares == ()
        assert self.ball.cube_dims() == ()

    def test_edge_targets(self):
        targets = {e.target(COMM) for e in self.ball.edges}
        # every vertex except abc (the shortlex least, all-forward source
        # pattern differs) appears as a target; frozen set:
        assert targets == {
            W("b a c"), W("a c b"), W("c a b"),
            W("b c a"), W("c b a"),
        }


class TestPadpairBall:
    """[a1 b1]: the infinite family a_i p^n b_j truncated at word length 10."""

    def setup_method(self):
        self.ball = build_ball(PADPAIR, W("a1 b1"), PADPAIR_CAPS)

    def test_counts_frozen(self):
        assert len(self.ball.vertices) == 81  # 3 * 3 * 9
        assert len(self.ball.edges) == 210  # 81 + 81 + 24 + 24
        assert len(self.ball.squares) == 136  # 81 + 24 + 24 + 7
        assert self.ball.cube_dims() == (2,)
        assert not self.ball.complete

    def test_vertex_shape(self):
        for w in self.ball.vertices:
            assert w[0] in ("a1", "a2", "a3")
            assert w[-1] in ("b1", "b2", "b3")
            assert all(x == "p" for x in w[1:-1])

    def test_square_corners_inside(self):
        members = set(self.ball.vertices)
        for sq in self.ball.squares:
            m1, m2 = sq.moves
            assert m1.offset < m2.offset
            for moves in ((m1,), (m2,), (m1, m2)):
                w = sq.corner
                for m in sorted(moves, key=lambda m: -m.offset):
                    w = m.apply(w, PADPAIR)
                assert w in members


class TestCubes:
    def test_three_cube_in_commuting_class(self):
        # a b a b a b admits three disjoint ab -> ba rewrites
        ball = build_ball(COMM, W("a b a b a b"), DEFAULT_CAPS)
        assert ball.complete
        assert 3 in ball.cube_dims()
        corners = {c.corner for c in ball.cubes_of(3)}
        assert W("a b a b a b") in corners
        cube = next(
            c for c in ball.cubes_of(3) if c.corner == W("a b a b a b")
        )
        assert cube.moves == (
            Move(0, 0, True), Move(2, 0, True), Move(4, 0, True),
        )

    def test_square_in_four_letter_class(self):
        ball = build_ball(COMM, W("a b b c"), DEFAULT_CAPS)
        assert ball.complete
        assert any(
            sq.corner == W("a b b c")
            and sq.moves == (Move(0, 0, True), Move(2, 2, True))
            for sq in ball.squares
        )


# ---------------------------------------------------------------------------
# hyperplane identity
# ---------------------------------------------------------------------------


class TestHyperplaneId:
    def test_oriented_id_of_hexagon_edge(self):
        hid = hyperplane_id(W("a b c"), Move(0, 0, True), COMM, DEFAULT_CAPS)
        assert hid == HyperplaneId(W(""), 0, True, W("c"))
        assert hid.exact
        assert hid.unoriented() == HyperplaneId(W(""), 0, None, W("c"))

    def test_parts_are_canonical_reps(self):
        # left part a2 p of a b-edge collapses to the class rep a1
        hid = hyperplane_id(
            W("a2 p b1"), Move(2, 3, True), PADPAIR, PADPAIR_CAPS
        )
        assert hid.left == W("a1")
        assert hid.right == W("")
        assert not hid.exact  # the left class is infinite, enumeration capped

    def test_hexagon_catalog_frozen(self):
        ball = build_ball(COMM, W("a b c"), DEFAULT_CAPS)
        catalog = hyperplane_catalog(ball)
        assert catalog.exact
        assert catalog.ids == (
            HyperplaneId(W(""), 0, None, W("c")),
            HyperplaneId(W("c"), 0, None, W("")),
            HyperplaneId(W(""), 1, None, W("b")),
            HyperplaneId(W("b"), 1, None, W("")),
            HyperplaneId(W(""), 2, None, W("a")),
            HyperplaneId(W("a"), 2, None, W("")),
        )
        # each hyperplane of the hexagon is dual to exactly one edge
        assert all(len(es) == 1 for _, es in catalog.edges_of)

    def test_padpair_catalog_frozen(self):
        ball = build_ball(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
        catalog = hyperplane_catalog(ball)
        assert catalog.exact
        assert catalog.ids == (
            HyperplaneId(W(""), 0, None, W("b1")),
            HyperplaneId(W(""), 1, None, W("b1")),
            HyperplaneId(W(""), 2, None, W("b1")),
            HyperplaneId(W("a1"), 3, None, W("")),
            HyperplaneId(W("a1"), 4, None, W("")),
            HyperplaneId(W("a1"), 5, None, W("")),
            HyperplaneId(W(""), 6, None, W("b1")),
            HyperplaneId(W("a1"), 7, None, W("")),
        )
        assert [len(es) for _, es in catalog.edges_of] == [
            27, 27, 27, 27, 27, 27, 24, 24,
        ]

    def test_catalog_partitions_edges(self):
        ball = build_ball(COMM, W("a a b c"), DEFAULT_CAPS)
        catalog = hyperplane_catalog(ball)
        assert catalog.exact
        all_edges = [e for _, es in catalog.edges_of for e in es]
        assert sorted(all_edges, key=str) == sorted(ball.edges, key=str)
        for hid, es in catalog.edges_of:
            for e in es:
                assert catalog.ids[catalog.edge_index[e]] == hid


# ---------------------------------------------------------------------------
# relate / transversality
# ---------------------------------------------------------------------------


A1 = HyperplaneId(W(""), 0, None, W("b1"))
A2 = HyperplaneId(W(""), 1, None, W("b1"))
B1 = HyperplaneId(W("a1"), 3, None, W(""))
B2 = HyperplaneId(W("a1"), 4, None, W(""))
C = HyperplaneId(W(""), 6, None, W("b1"))
D = HyperplaneId(W("a1"), 7, None, W(""))


class TestRelate:
    def setup_method(self):
        self.ball = build_ball(PADPAIR, W("a1 b1"), PADPAIR_CAPS)

    def test_a_before_b_via_square(self):
        rel = relate(A1, B1, self.ball)
        assert rel.value == "first_prec_second"
        assert isinstance(rel.witness, BallCube)

    def test_order_is_positional_not_argument_order(self):
        rel = relate(B1, A1, self.ball)
        assert rel.value == "second_prec_first"

    def test_c_before_d(self):
        assert relate(C, D, self.ball).value == "first_prec_second"

    def test_parallel_hyperplanes_disjoint(self):
        for j1, j2 in [(A1, A2), (B1, B2), (A1, C), (B1, D)]:
            rel = relate(j1, j2, self.ball)
            assert rel.value == "disjoint", (j1, j2)

    def test_hexagon_all_disjoint(self):
        ball = build_ball(COMM, W("a b c"), DEFAULT_CAPS)
        catalog = hyperplane_catalog(ball)
        for j1, j2 in itertools.combinations(catalog.ids, 2):
            assert relate(j1, j2, ball).value == "disjoint"


class TestTransversality:
    def test_padpair_is_k44(self):
        ball = build_ball(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
        graph = transversality_graph(ball)
        assert graph.exact
        assert graph.odd_cycle is None
        assert len(graph.edges) == 16
        left = {0, 1, 2, 6}   # A1 A2 A3 C
        right = {3, 4, 5, 7}  # B1 B2 B3 D
        pairs = {(i, j) for i, j, _ in graph.edges}
        assert pairs == {(i, j) for i in left for j in right if i < j} | {
            (i, j) for i in right for j in left if i < j
        }
        # the a-side always sits left of the b-side in the squares
        for i, j, value in graph.edges:
            if i in left:
                assert value == "first_prec_second"
            else:
                assert value == "second_prec_first"

    def test_hexagon_graph_empty(self):
        ball = build_ball(COMM, W("a b c"), DEFAULT_CAPS)
        graph = transversality_graph(ball)
        assert graph.exact
        assert graph.edges == ()
        assert graph.odd_cycle is None

    def test_complete_commuting_ball_graph_exact(self):
        ball = build_ball(COMM, W("a a b c"), DEFAULT_CAPS)
        graph = transversality_graph(ball)
        assert graph.exact
        assert graph.odd_cycle is None
        assert len(graph.edges) > 0


class TestInducedOddCycle:
    def _cycle_adj(self, n):
        return [set(((i - 1) % n, (i + 1) % n)) for i in range(n)]

    def test_c5_found(self):
        assert find_induced_odd_cycle(self._cycle_adj(5)) == (0, 1, 2, 3, 4)

    def test_c7_found(self):
        assert find_induced_odd_cycle(self._cycle_adj(7)) == (0, 1, 2, 3, 4, 5, 6)

    def test_c9_found(self):
        assert find_induced_odd_cycle(self._cycle_adj(9)) is not None

    def test_even_cycle_ignored(self):
        assert find_induced_odd_cycle(self._cycle_adj(6)) is None
        assert find_induced_odd_cycle(self._cycle_adj(8)) is None

    def test_chord_kills_inducedness(self):
        adj = self._cycle_adj(5)
        adj[0].add(2)
        adj[2].add(0)
        assert find_induced_odd_cycle(adj) is None

    def test_bound_respected(self):
        assert find_induced_odd_cycle(self._cycle_adj(11), max_len=9) is None
        assert find_induced_odd_cycle(self._cycle_adj(11), max_len=11) is not None

    def test_triangle_is_not_reported(self):
        assert find_induced_odd_cycle(self._cycle_adj(3)) is None


# ---------------------------------------------------------------------------
# dimension and rank
# ---------------------------------------------------------------------------


class TestDimension:
    def test_padpair_dim_two_yes(self):
        verdict = dimension_at_least(PADPAIR, W("a1 b1"), 2, PADPAIR_CAPS)
        assert verdict.is_yes
        wit = verdict.witness
        assert wit.member == W("a1 b1")
        assert wit.factors() == (W("a1"), W("b1"))

    def test_padpair_dim_three_no_by_certificate(self):
        verdict = dimension_at_least(PADPAIR, W("a1 b1"), 3, PADPAIR_CAPS)
        assert verdict.is_no
        assert "letter-count" in verdict.witness

    def test_short_commuting_word_dim_two_no(self):
        verdict = dimension_at_least(COMM, W("a b c"), 2, DEFAULT_CAPS)
        assert verdict.is_no

    def test_four_letter_commuting_word_dim_two_yes(self):
        verdict = dimension_at_least(COMM, W("a a b c"), 2, DEFAULT_CAPS)
        assert verdict.is_yes
        for factor in verdict.witness.factors():
            assert len(factor) >= 1

    def test_six_letter_commuting_word_dims(self):
        w = W("a b a b a b")
        assert dimension_at_least(COMM, w, 3, DEFAULT_CAPS).is_yes
        verdict = dimension_at_least(COMM, w, 4, DEFAULT_CAPS)
        assert verdict.is_no
        assert "letter-count" in verdict.witness

    def test_growing_class_has_every_dimension(self):
        for n in (1, 2, 3, 4, 5):
            assert dimension_at_least(GROW, W("x"), n, DEFAULT_CAPS).is_yes

    def test_zero_always_yes(self):
        assert dimension_at_least(COMM, W("a"), 0, DEFAULT_CAPS).is_yes


class TestRank:
    def setup_method(self):
        self.ball = build_ball(PADPAIR, W("a1 b1"), PADPAIR_CAPS)

    def test_left_family_rank_zero_exact(self):
        for j in (A1, A2, C):
            result = rank(j, self.ball)
            assert result.value == 0
            assert result.exact
            assert result.chain == ()

    def test_right_family_rank_one_exact(self):
        for j in (B1, B2, D):
            result = rank(j, self.ball)
            assert result.value == 1, j
            assert result.exact, j
            assert len(result.chain) == 1
            assert result.chain[0] in (A1, A2, HyperplaneId(W(""), 2, None, W("b1")), C)

    def test_squeeze_note_present_on_truncated_ball(self):
        result = rank(B1, self.ball)
        assert any("dimension" in note for note in result.notes)

    def test_hexagon_ranks_all_zero(self):
        ball = build_ball(COMM, W("a b c"), DEFAULT_CAPS)
        catalog = hyperplane_catalog(ball)
        for j in catalog.ids:
            result = rank(j, ball)
            assert result.value == 0
            assert result.exact


# ---------------------------------------------------------------------------
# pathologies: self-intersection
# ---------------------------------------------------------------------------


class TestSelfIntersection:
    def test_dirty_splits_found(self):
        splits, _ = find_absorbing_splits(DIRTY, W("a b"), TIGHT_CAPS)
        assert any(
            s.a == W("a") and s.b == W("b") and s.p == W("p") for s in splits
        )
        split = next(s for s in splits if s.p == W("p"))
        # all four evidence derivations replay
        for deriv in split.evidence:
            deriv.replay(DIRTY)

    def test_dirty_split_converts_to_self_intersection(self):
        splits, _ = find_absorbing_splits(DIRTY, W("a b"), TIGHT_CAPS)
        split = next(s for s in splits if s.p == W("p"))
        wit = split_to_self_intersection(split, DIRTY, TIGHT_CAPS)
        assert wit.p == W("p") and wit.q == W("q")
        assert wit.b == W("p")  # empty middle replaced by the side itself

    def test_dirty_witness_round_trips_to_square(self):
        splits, _ = find_absorbing_splits(DIRTY, W("a b"), TIGHT_CAPS)
        wit = split_to_self_intersection(
            next(s for s in splits if s.p == W("p")), DIRTY, TIGHT_CAPS
        )
        square = self_intersection_square(wit, DIRTY, W("a b"), TIGHT_CAPS)
        m1, m2 = square.moves
        assert m1.relation == m2.relation == 2  # p = q
        assert m1.forward and m2.forward
        assert m2.offset >= m1.offset + 1  # disjoint occurrences
        # both rewrites apply at the square's corner
        m2.apply(m1.apply(square.corner, DIRTY), DIRTY)

    def test_dirty_report_clean_no(self):
        report = specialness_report(DIRTY, W("a b"), TIGHT_CAPS)
        assert report.clean.is_no
        assert report.special.is_no
        assert report.self_intersections

    def test_commuting_presentation_refutes_splits(self):
        assert refute_absorbing_splits(COMM) is not None
        assert refute_absorbing_splits(PADPAIR) is not None
        assert refute_absorbing_splits(DIRTY) is None

    def test_no_false_positives_on_commuting_class(self):
        ball = build_ball(COMM, W("a a b c"), DEFAULT_CAPS)
        scan, scan_def = scan_self_intersections(ball)
        found, found_def = find_self_intersections(ball)
        assert scan == () and found == ()
        assert scan_def and found_def


# ---------------------------------------------------------------------------
# pathologies: self-osculation
# ---------------------------------------------------------------------------


class TestSelfOsculation:
    def test_empty_leftover_witness(self):
        """Periodic side k k with period 1: the leftover k is empty and the
        overlap is carried by the exponent (n = 2)."""
        ball = build_ball(OSC_EMPTY, W("x k k y"), TIGHT_CAPS)
        found, _ = find_self_osculations(ball)
        assert any(
            w.n == 2 and w.k == W("") and w.h == W("k")
            and w.a == W("x") and w.b == W("y")
            for w in found
        )

    def test_empty_leftover_scan_agrees(self):
        ball = build_ball(OSC_EMPTY, W("x k k y"), TIGHT_CAPS)
        found, _ = scan_self_osculations(ball)
        assert any(
            w.n == 2 and w.k == W("") and w.h == W("k") for w in found
        )

    def test_empty_leftover_config_round_trip(self):
        ball = build_ball(OSC_EMPTY, W("x k k y"), TIGHT_CAPS)
        found, _ = find_self_osculations(ball)
        wit = next(w for w in found if w.a == W("x") and w.b == W("y"))
        word, m1, m2 = self_osculation_config(
            wit, OSC_EMPTY, W("x k k y"), TIGHT_CAPS
        )
        assert word == W("x k k k y")
        assert (m1.offset, m2.offset) == (1, 2)
        assert m1.relation == m2.relation == 2

    def test_plain_witness(self):
        ball = build_ball(OSC_PLAIN, W("x k h k y"), TIGHT_CAPS)
        found, _ = find_self_osculations(ball)
        assert any(
            w.n == 1 and w.k == W("k") and w.h == W("h")
            and w.a == W("x") and w.b == W("y") and w.p == W("p")
            for w in found
        )

    def test_plain_scan_agrees(self):
        ball = build_ball(OSC_PLAIN, W("x k h k y"), TIGHT_CAPS)
        found, _ = scan_self_osculations(ball)
        assert any(w.n == 1 and w.k == W("k") and w.h == W("h") for w in found)

    def test_plain_config_round_trip(self):
        ball = build_ball(OSC_PLAIN, W("x k h k y"), TIGHT_CAPS)
        found, _ = find_self_osculations(ball)
        wit = next(w for w in found if w.a == W("x") and w.b == W("y"))
        word, m1, m2 = self_osculation_config(
            wit, OSC_PLAIN, W("x k h k y"), TIGHT_CAPS
        )
        assert word == W("x k h k h k y")
        assert (m1.offset, m2.offset) == (1, 3)

    def test_reports_flag_special_no(self):
        report = specialness_report(OSC_EMPTY, W("x k k y"), TIGHT_CAPS)
        assert report.self_osculations
        assert report.special.is_no

    def test_commuting_classes_have_none(self):
        ball = build_ball(COMM, W("a a b c"), DEFAULT_CAPS)
        found, found_def = find_self_osculations(ball)
        scan, scan_def = scan_self_osculations(ball)
        assert found == () and scan == ()
        assert found_def and scan_def


# ---------------------------------------------------------------------------
# pathologies: inter-osculation
# ---------------------------------------------------------------------------


class TestInterOsculation:
    def test_witness_found(self):
        found, _ = find_inter_osculations(INTEROSC, W("c u v w d"), TIGHT_CAPS)
        assert any(
            w.a == W("c") and w.u == W("u") and w.v == W("v")
            and w.w == W("w") and w.b == W("d") and w.xi == W("v")
            for w in found
        )

    def test_config_round_trip(self):
        found, _ = find_inter_osculations(INTEROSC, W("c u v w d"), TIGHT_CAPS)
        wit = next(w for w in found if w.xi == W("v"))
        (word, m1, m2), square = inter_osculation_config(
            wit, INTEROSC, W("c u v w d"), TIGHT_CAPS
        )
        assert word == W("c u v w d")
        # overlapping occurrences of u v and v w at the osculation vertex
        assert (m1.offset, m2.offset) == (1, 2)
        assert m1.relation == 2 and m2.relation == 3
        # the crossing square lives at the xi-padded word
        assert square.corner == W("c u v v v w d")
        s1, s2 = square.moves
        assert s2.offset >= s1.offset + 2  # now disjoint

    def test_report_special_no(self):
        report = specialness_report(INTEROSC, W("c u v w d"), TIGHT_CAPS)
        assert report.inter_osculations
        assert report.special.is_no
        assert report.clean.is_yes  # crossing without self-crossing

    def test_padpair_pattern_refuted(self):
        assert refute_inter_osculations(PADPAIR, W("a1 b1")) is not None

    def test_commuting_patterns_refuted(self):
        assert refute_inter_osculations(COMM, W("a b c")) is not None

    def test_interosc_not_refuted(self):
        assert refute_inter_osculations(INTEROSC, W("c u v w d")) is None


# ---------------------------------------------------------------------------
# specialness reports
# ---------------------------------------------------------------------------


class TestSpecialness:
    def test_padpair_special_yes(self):
        report = specialness_report(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
        assert report.clean.is_yes
        assert report.special.is_yes
        assert report.self_intersections == ()
        assert report.self_osculations == ()
        assert report.inter_osculations == ()
        assert any("clean" in note for note in report.notes)
        assert any("special" in note for note in report.notes)

    def test_commuting_special_yes(self):
        report = specialness_report(COMM, W("a b c"), DEFAULT_CAPS)
        assert report.clean.is_yes
        assert report.special.is_yes

    def test_commuting_bigger_class_special_yes(self):
        report = specialness_report(COMM, W("a a b c"), DEFAULT_CAPS)
        assert report.special.is_yes


# ---------------------------------------------------------------------------
# properties on the exactly-checkable commuting presentation
# ---------------------------------------------------------------------------


small_comm_words = st.lists(
    st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5
).map(tuple)


class TestProperties:
    @given(small_comm_words)
    @settings(max_examples=60, deadline=None)
    def test_balls_complete_and_consistent(self, w):
        ball = build_ball(COMM, w, DEFAULT_CAPS)
        assert ball.complete
        members = set(ball.vertices)
        assert sorted(members) == sorted(
            set(itertools.permutations(w))
        )  # multiset-permutation oracle
        for e in ball.edges:
            assert e.source in members
            assert e.target(COMM) in members

    @given(small_comm_words)
    @settings(max_examples=40, deadline=None)
    def test_catalog_exact_and_partitions(self, w):
        ball = build_ball(COMM, w, DEFAULT_CAPS)
        catalog = hyperplane_catalog(ball)
        assert catalog.exact
        assert sum(len(es) for _, es in catalog.edges_of) == len(ball.edges)
        for hid in catalog.ids:
            assert hid.exact

    @given(small_comm_words)
    @settings(max_examples=20, deadline=None)
    def test_no_pathologies_on_commuting_classes(self, w):
        report = specialness_report(COMM, w, DEFAULT_CAPS)
        assert report.clean.is_yes
        assert report.special.is_yes
        assert not report.self_intersections
        assert not report.self_osculations
        assert not report.inter_osculations

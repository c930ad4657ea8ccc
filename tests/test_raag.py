"""Artin-group normal form (validated against a brute-force shuffle orbit)
and the hyperplane morphism on the worked examples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMM, DEFAULT_CAPS, PADPAIR, PADPAIR_CAPS, W
from diagram_groups.diagrams import compose, eps, reduce_diagram
from diagram_groups.raag import (
    format_raag_word,
    hyperplane_graph,
    multiply_syllable,
    phi,
    positive_direction,
    raag_graph,
    raag_normal_form,
)
from diagram_groups.rewriting import (
    ClassSearch,
    Diagram,
    Move,
    inverse,
    parse_presentation,
)
from diagram_groups.squier import build_ball

EMPTY_WORD = ()


def raag_inverse(word):
    """The formal inverse: syllables reversed, exponents negated."""
    return tuple((g, -e) for g, e in reversed(word))


def raag_equal(w1, w2, graph):
    return raag_normal_form(w1, graph) == raag_normal_form(w2, graph)


P3 = raag_graph("abc", [("a", "b"), ("b", "c")])
K3 = raag_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
FREE3 = raag_graph("abc", [])
K22 = raag_graph(["a", "b", "x", "y"], [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])


def parse_raag_word(text, graph):
    """Parse whitespace-separated ``gen`` / ``gen^-1`` tokens."""
    sylls = []
    known = set(graph.vertices)
    for token in text.split():
        if token == "1":
            continue
        if token.endswith("^-1"):
            gen, exp = token[:-3], -1
        else:
            gen, exp = token, 1
        if gen not in known:
            raise ValueError(f"unknown generator {gen!r}")
        sylls.append((gen, exp))
    return tuple(sylls)


def w(text, graph=K22):
    return parse_raag_word(text, graph)


class TestGraph:
    def test_adjacency(self):
        assert P3.adjacent("a", "b") and P3.adjacent("b", "a")
        assert not P3.adjacent("a", "c")

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            raag_graph("ab", [("a", "a")])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            raag_graph("ab", [("a", "c")])

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            raag_graph("aa", [])


class TestParseFormat:
    def test_round_trip(self):
        word = w("a x^-1 a b^-1")
        assert word == (("a", 1), ("x", -1), ("a", 1), ("b", -1))
        assert format_raag_word(word) == "a x^-1 a b^-1"

    def test_empty(self):
        assert parse_raag_word("", K22) == EMPTY_WORD
        assert parse_raag_word("1", K22) == EMPTY_WORD
        assert format_raag_word(EMPTY_WORD) == "1"

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            parse_raag_word("q", K22)
        with pytest.raises(ValueError):
            raag_normal_form((("q", 1),), K22)

    def test_inverse_and_product(self):
        word = w("a b^-1")
        assert raag_inverse(word) == (("b", 1), ("a", -1))
        assert word + raag_inverse(word) == (
            ("a", 1), ("b", -1), ("b", 1), ("a", -1),
        )


class TestNormalForm:
    def test_free_cancellation(self):
        assert raag_normal_form(w("a a^-1"), FREE3) == EMPTY_WORD
        assert raag_normal_form(w("a b b^-1 c", P3), P3) == (
            ("a", 1), ("c", 1),
        )

    def test_commutator_of_adjacent_pair_vanishes(self):
        assert raag_normal_form(w("a x a^-1 x^-1"), K22) == EMPTY_WORD

    def test_commutator_of_non_adjacent_pair_survives(self):
        nf = raag_normal_form(w("a b a^-1 b^-1"), K22)
        assert len(nf) == 4

    def test_shuffle_enables_distant_cancellation(self):
        # a and a^-1 separated by two commuting letters
        nf = raag_normal_form(w("a x y a^-1"), K22)
        assert nf == (("x", 1), ("y", 1))

    def test_lex_least_shuffle(self):
        # x commutes with both a and b, so it floats leftward... but a < x
        assert raag_normal_form(w("x a"), K22) == (("a", 1), ("x", 1))
        assert raag_normal_form(w("b a"), K22) == (("b", 1), ("a", 1))

    def test_cancellation_through_commuting_letter(self):
        assert raag_normal_form(w("a^-1 x a"), K22) == (("x", 1),)

    def test_lex_prefers_smaller_label(self):
        assert raag_normal_form(w("x^-1 a"), K22) == (
            ("a", 1), ("x", -1),
        )

    def test_idempotent(self):
        word = w("a x y a^-1 b x")
        nf = raag_normal_form(word, K22)
        assert raag_normal_form(nf, K22) == nf

    def test_equal(self):
        assert raag_equal(w("a x"), w("x a"), K22)
        assert not raag_equal(w("a b"), w("b a"), K22)


# brute-force oracle: closure of a word under adjacent commuting swaps and
# adjacent inverse cancellations; the normal form must be the key-least
# member of minimal length
def _orbit_normal_form(word, graph):
    def key(u):
        return tuple((g, 0 if e == 1 else 1) for g, e in u)

    seen = {word}
    frontier = [word]
    while frontier:
        new = []
        for u in frontier:
            for i in range(len(u) - 1):
                (g1, e1), (g2, e2) = u[i], u[i + 1]
                if g1 == g2 and e1 == -e2:
                    v = u[:i] + u[i + 2:]
                    if v not in seen:
                        seen.add(v)
                        new.append(v)
                if g1 != g2 and graph.adjacent(g1, g2):
                    v = u[:i] + (u[i + 1], u[i]) + u[i + 2:]
                    if v not in seen:
                        seen.add(v)
                        new.append(v)
        frontier = new
    shortest = min(len(u) for u in seen)
    return min((u for u in seen if len(u) == shortest), key=key)


syllables_abc = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
    min_size=0,
    max_size=8,
).map(tuple)


@st.composite
def graph_word_syllable(draw):
    """A graph on at most four vertices, a word and one syllable over it."""
    verts = "abcd"[: draw(st.integers(1, 4))]
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
    graph = raag_graph(verts, [p for p in pairs if draw(st.booleans())])
    syllable = st.tuples(st.sampled_from(verts), st.sampled_from((1, -1)))
    word = draw(st.lists(syllable, max_size=7).map(tuple))
    return graph, word, draw(syllable)


class TestNormalFormOracle:
    @given(graph_word_syllable())
    @settings(max_examples=150, deadline=None)
    def test_one_step_matches_orbit(self, case):
        graph, sylls, s = case
        nf = raag_normal_form(sylls, graph)
        expected = _orbit_normal_form(sylls + (s,), graph)
        assert multiply_syllable(nf, s, graph) == expected

    @given(syllables_abc, st.sampled_from([P3, K3, FREE3]))
    @settings(max_examples=120, deadline=None)
    def test_matches_orbit(self, sylls, graph):
        assert raag_normal_form(sylls, graph) == _orbit_normal_form(sylls, graph)

    @given(syllables_abc, st.sampled_from([P3, K3, FREE3]))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_single_rewrites(self, sylls, graph):
        nf = raag_normal_form(sylls, graph)
        for i in range(len(sylls) - 1):
            (g1, e1), (g2, e2) = sylls[i], sylls[i + 1]
            if g1 != g2 and graph.adjacent(g1, g2):
                swapped = sylls[:i] + (sylls[i + 1], sylls[i]) + sylls[i + 2:]
                assert raag_normal_form(swapped, graph) == nf
            if g1 == g2 and e1 == -e2:
                cancelled = sylls[:i] + sylls[i + 2:]
                assert raag_normal_form(cancelled, graph) == nf

    @given(syllables_abc, st.sampled_from([P3, K3, FREE3]))
    @settings(max_examples=60, deadline=None)
    def test_word_times_inverse_vanishes(self, sylls, graph):
        assert raag_normal_form(sylls + raag_inverse(sylls), graph) == EMPTY_WORD


# ---------------------------------------------------------------------------
# the hyperplane group
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def padpair_ball():
    return build_ball(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))


class TestBuildApw:
    def test_padpair_is_k44(self, padpair_ball):
        graph = hyperplane_graph(padpair_ball)
        assert graph.vertices == tuple(f"H{i}" for i in range(8))
        left = {"H0", "H1", "H2", "H6"}
        right = {"H3", "H4", "H5", "H7"}
        assert graph.edges == frozenset(
            tuple(sorted((u, v))) for u in left for v in right
        )
        assert padpair_ball.order.exact

    def test_padpair_vertex_and_edge_counts(self):
        graph = hyperplane_graph(
            build_ball(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
        )
        assert len(graph.vertices) == 8
        assert len(graph.edges) == 16

    def test_hexagon_edgeless(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
        graph = hyperplane_graph(ball)
        assert len(graph.vertices) == 6
        assert graph.edges == frozenset()

    def test_single_relation_single_vertex(self):
        pres = parse_presentation("letters: a b\nrel: a = b")
        ball = build_ball(ClassSearch(pres, DEFAULT_CAPS), W("a"))
        graph = hyperplane_graph(ball)
        assert graph.vertices == ("H0",)
        assert graph.edges == frozenset()


# ---------------------------------------------------------------------------
# the morphism
# ---------------------------------------------------------------------------


def delta(i):
    """The three standard loops at a1 b1: a-cycle, b-cycle, pad in/out."""
    moves = {
        1: (Move(0, 0, True), Move(0, 1, True), Move(0, 2, True)),
        2: (Move(1, 3, True), Move(1, 4, True), Move(1, 5, True)),
        3: (Move(0, 6, True), Move(1, 7, False)),
    }[i]
    return Diagram(PADPAIR, W("a1 b1"), moves)


class TestPhi:
    def test_orientation_convention(self):
        # relation 0 rewrites a1 -> a2 (shortlex increasing): forward positive
        assert positive_direction(Move(0, 0, True), PADPAIR)
        # relation 2 rewrites a3 -> a1 (decreasing): forward negative
        assert not positive_direction(Move(0, 2, True), PADPAIR)
        assert positive_direction(Move(0, 2, False), PADPAIR)

    def test_empty_diagram(self, padpair_ball):
        image = phi(eps(PADPAIR, W("a1 b1")), padpair_ball)
        assert image == EMPTY_WORD

    def test_images_of_the_three_loops(self, padpair_ball):
        assert phi(delta(1), padpair_ball) == (
            ("H0", 1), ("H1", 1), ("H2", -1),
        )
        assert phi(delta(2), padpair_ball) == (
            ("H3", 1), ("H4", 1), ("H5", -1),
        )
        assert phi(delta(3), padpair_ball) == (
            ("H6", 1), ("H7", -1),
        )

    def test_crossing_loops_commute(self, padpair_ball):
        image12 = phi(compose(delta(1), delta(2)), padpair_ball)
        image21 = phi(compose(delta(2), delta(1)), padpair_ball)
        assert image12 == image21
        assert image12 == (
            ("H0", 1), ("H1", 1), ("H2", -1),
            ("H3", 1), ("H4", 1), ("H5", -1),
        )

    def test_homomorphism_law(self, padpair_ball):
        pairs = [
            (delta(1), delta(2)),
            (delta(1), delta(3)),
            (delta(3), inverse(delta(3))),
            (delta(2), delta(2)),
        ]
        for g, h in pairs:
            lhs = phi(reduce_diagram(compose(g, h)), padpair_ball)
            gh = phi(g, padpair_ball) + phi(h, padpair_ball)
            assert lhs == raag_normal_form(gh, hyperplane_graph(padpair_ball))

    def test_inverse_law(self, padpair_ball):
        for g in (delta(1), delta(2), delta(3), compose(delta(1), delta(3))):
            img = phi(g, padpair_ball)
            img_inv = phi(inverse(g), padpair_ball)
            assert img_inv == raag_normal_form(raag_inverse(img), hyperplane_graph(padpair_ball))

    def test_injectivity_evidence(self, padpair_ball):
        # the complex is special here, so a trivial image forces a trivial
        # diagram; check the contrapositive pairs we can build by hand
        trivial = [
            compose(delta(1), inverse(delta(1))),
            compose(delta(3), inverse(delta(3))),
            compose(
                compose(compose(delta(1), delta(2)), inverse(delta(2))),
                inverse(delta(1)),
            ),
        ]
        for g in trivial:
            assert phi(g, padpair_ball) == EMPTY_WORD
            assert reduce_diagram(g).cells == 0
        nontrivial = [delta(1), delta(2), delta(3), compose(delta(1), delta(2))]
        for g in nontrivial:
            assert phi(g, padpair_ball) != EMPTY_WORD
            assert reduce_diagram(g).cells > 0

    def test_hexagon_loop(self):
        moves = (
            Move(0, 0, True),   # abc -> bac
            Move(1, 1, True),   # bac -> bca
            Move(0, 2, True),   # bca -> cba
            Move(1, 0, False),  # cba -> cab
            Move(0, 1, False),  # cab -> acb
            Move(1, 2, False),  # acb -> abc
        )
        loop = Diagram(COMM, W("a b c"), moves)
        assert loop.is_spherical
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
        image = phi(loop, ball)
        assert image == (
            ("H0", 1), ("H3", 1), ("H4", 1),
            ("H1", -1), ("H2", -1), ("H5", -1),
        )

    def test_rejects_non_spherical(self, padpair_ball):
        d = Diagram(PADPAIR, W("a1 b1"), (Move(0, 0, True),))
        with pytest.raises(ValueError):
            phi(d, padpair_ball)

    def test_rejects_wrong_base(self, padpair_ball):
        d = Diagram(
            PADPAIR, W("a2 b1"), (Move(0, 1, True), Move(0, 2, True), Move(0, 0, True))
        )
        assert d.is_spherical
        with pytest.raises(ValueError):
            phi(d, padpair_ball)

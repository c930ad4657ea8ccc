"""Artin-group normal form (validated against a brute-force shuffle orbit)
and the hyperplane morphism on the worked examples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMM, DEFAULT_CAPS, PADPAIR, PADPAIR_CAPS, W
from diagram_groups.diagrams import (
    eps,
    from_derivation,
    inverse,
    reduce_diagram,
)
from diagram_groups.raag import (
    EMPTY_WORD,
    RaagWord,
    build_apw,
    format_raag_word,
    hyperplane_generators,
    parse_raag_word,
    phi,
    positive_direction,
    raag_equal,
    raag_graph,
    raag_normal_form,
)
from diagram_groups.rewriting import (
    Derivation,
    Move,
    parse_presentation,
)
from diagram_groups.squier import build_ball


P3 = raag_graph("abc", [("a", "b"), ("b", "c")])
K3 = raag_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
FREE3 = raag_graph("abc", [])
K22 = raag_graph(["a", "b", "x", "y"], [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])


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
        assert word.syllables == (("a", 1), ("x", -1), ("a", 1), ("b", -1))
        assert format_raag_word(word) == "a x^-1 a b^-1"

    def test_empty(self):
        assert parse_raag_word("", K22) == EMPTY_WORD
        assert parse_raag_word("1", K22) == EMPTY_WORD
        assert format_raag_word(EMPTY_WORD) == "1"

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            parse_raag_word("q", K22)
        with pytest.raises(ValueError):
            raag_normal_form(RaagWord((("q", 1),)), K22)

    def test_inverse_and_product(self):
        word = w("a b^-1")
        assert word.inverse().syllables == (("b", 1), ("a", -1))
        assert (word * word.inverse()).syllables == (
            ("a", 1), ("b", -1), ("b", 1), ("a", -1),
        )


class TestNormalForm:
    def test_free_cancellation(self):
        assert raag_normal_form(w("a a^-1"), FREE3) == EMPTY_WORD
        assert raag_normal_form(w("a b b^-1 c", P3), P3).syllables == (
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
        assert nf.syllables == (("x", 1), ("y", 1))

    def test_lex_least_shuffle(self):
        # x commutes with both a and b, so it floats leftward... but a < x
        assert raag_normal_form(w("x a"), K22).syllables == (("a", 1), ("x", 1))
        assert raag_normal_form(w("b a"), K22).syllables == (("b", 1), ("a", 1))

    def test_cancellation_through_commuting_letter(self):
        assert raag_normal_form(w("a^-1 x a"), K22).syllables == (("x", 1),)

    def test_lex_prefers_smaller_label(self):
        assert raag_normal_form(w("x^-1 a"), K22).syllables == (
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

    seen = {word.syllables}
    frontier = [word.syllables]
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
    return RaagWord(min((u for u in seen if len(u) == shortest), key=key))


syllables_abc = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
    min_size=0,
    max_size=8,
).map(tuple)


class TestNormalFormOracle:
    @given(syllables_abc, st.sampled_from([P3, K3, FREE3]))
    @settings(max_examples=120, deadline=None)
    def test_matches_orbit(self, sylls, graph):
        word = RaagWord(sylls)
        assert raag_normal_form(word, graph) == _orbit_normal_form(word, graph)

    @given(syllables_abc, st.sampled_from([P3, K3, FREE3]))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_single_rewrites(self, sylls, graph):
        word = RaagWord(sylls)
        nf = raag_normal_form(word, graph)
        for i in range(len(sylls) - 1):
            (g1, e1), (g2, e2) = sylls[i], sylls[i + 1]
            if g1 != g2 and graph.adjacent(g1, g2):
                swapped = sylls[:i] + (sylls[i + 1], sylls[i]) + sylls[i + 2:]
                assert raag_normal_form(RaagWord(swapped), graph) == nf
            if g1 == g2 and e1 == -e2:
                cancelled = sylls[:i] + sylls[i + 2:]
                assert raag_normal_form(RaagWord(cancelled), graph) == nf

    @given(syllables_abc, st.sampled_from([P3, K3, FREE3]))
    @settings(max_examples=60, deadline=None)
    def test_word_times_inverse_vanishes(self, sylls, graph):
        word = RaagWord(sylls)
        assert raag_normal_form(word * word.inverse(), graph) == EMPTY_WORD


# ---------------------------------------------------------------------------
# the hyperplane group
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def padpair_gens():
    ball = build_ball(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
    return hyperplane_generators(ball)


class TestBuildApw:
    def test_padpair_is_k44(self, padpair_gens):
        graph = padpair_gens.graph
        assert graph.vertices == tuple(f"H{i}" for i in range(8))
        left = {"H0", "H1", "H2", "H6"}
        right = {"H3", "H4", "H5", "H7"}
        assert graph.edges == frozenset(
            tuple(sorted((u, v))) for u in left for v in right
        )
        assert padpair_gens.exact

    def test_build_apw_wrapper(self):
        graph = build_apw(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
        assert len(graph.vertices) == 8
        assert len(graph.edges) == 16

    def test_hexagon_edgeless(self):
        graph = build_apw(COMM, W("a b c"), DEFAULT_CAPS)
        assert len(graph.vertices) == 6
        assert graph.edges == frozenset()

    def test_single_relation_single_vertex(self):
        pres = parse_presentation("letters: a b\nrel: a = b")
        graph = build_apw(pres, W("a"), DEFAULT_CAPS)
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
    return from_derivation(Derivation(W("a1 b1"), moves), PADPAIR)


class TestPhi:
    def test_orientation_convention(self):
        # relation 0 rewrites a1 -> a2 (shortlex increasing): forward positive
        assert positive_direction(Move(0, 0, True), PADPAIR)
        # relation 2 rewrites a3 -> a1 (decreasing): forward negative
        assert not positive_direction(Move(0, 2, True), PADPAIR)
        assert positive_direction(Move(0, 2, False), PADPAIR)

    def test_empty_diagram(self, padpair_gens):
        image = phi(
            eps(PADPAIR, W("a1 b1")), PADPAIR, W("a1 b1"), PADPAIR_CAPS,
            padpair_gens,
        )
        assert image == EMPTY_WORD

    def test_images_of_the_three_loops(self, padpair_gens):
        caps = PADPAIR_CAPS
        base = W("a1 b1")
        assert phi(delta(1), PADPAIR, base, caps, padpair_gens).syllables == (
            ("H0", 1), ("H1", 1), ("H2", -1),
        )
        assert phi(delta(2), PADPAIR, base, caps, padpair_gens).syllables == (
            ("H3", 1), ("H4", 1), ("H5", -1),
        )
        assert phi(delta(3), PADPAIR, base, caps, padpair_gens).syllables == (
            ("H6", 1), ("H7", -1),
        )

    def test_crossing_loops_commute(self, padpair_gens):
        base = W("a1 b1")
        image12 = phi(delta(1) * delta(2), PADPAIR, base, PADPAIR_CAPS, padpair_gens)
        image21 = phi(delta(2) * delta(1), PADPAIR, base, PADPAIR_CAPS, padpair_gens)
        assert image12 == image21
        assert image12.syllables == (
            ("H0", 1), ("H1", 1), ("H2", -1),
            ("H3", 1), ("H4", 1), ("H5", -1),
        )

    def test_homomorphism_law(self, padpair_gens):
        base = W("a1 b1")
        pairs = [
            (delta(1), delta(2)),
            (delta(1), delta(3)),
            (delta(3), inverse(delta(3))),
            (delta(2), delta(2)),
        ]
        for g, h in pairs:
            lhs = phi(
                reduce_diagram(g * h), PADPAIR, base, PADPAIR_CAPS, padpair_gens
            )
            gh = phi(g, PADPAIR, base, PADPAIR_CAPS, padpair_gens) * phi(
                h, PADPAIR, base, PADPAIR_CAPS, padpair_gens
            )
            assert lhs == raag_normal_form(gh, padpair_gens.graph)

    def test_inverse_law(self, padpair_gens):
        base = W("a1 b1")
        for g in (delta(1), delta(2), delta(3), delta(1) * delta(3)):
            img = phi(g, PADPAIR, base, PADPAIR_CAPS, padpair_gens)
            img_inv = phi(inverse(g), PADPAIR, base, PADPAIR_CAPS, padpair_gens)
            assert img_inv == raag_normal_form(img.inverse(), padpair_gens.graph)

    def test_injectivity_evidence(self, padpair_gens):
        # the complex is special here, so a trivial image forces a trivial
        # diagram; check the contrapositive pairs we can build by hand
        base = W("a1 b1")
        trivial = [
            delta(1) * inverse(delta(1)),
            delta(3) * inverse(delta(3)),
            delta(1) * delta(2) * inverse(delta(2)) * inverse(delta(1)),
        ]
        for g in trivial:
            assert phi(g, PADPAIR, base, PADPAIR_CAPS, padpair_gens) == EMPTY_WORD
            assert reduce_diagram(g).cells == 0
        nontrivial = [delta(1), delta(2), delta(3), delta(1) * delta(2)]
        for g in nontrivial:
            assert phi(g, PADPAIR, base, PADPAIR_CAPS, padpair_gens) != EMPTY_WORD
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
        loop = from_derivation(Derivation(W("a b c"), moves), COMM)
        assert loop.is_spherical
        image = phi(loop, COMM, W("a b c"), DEFAULT_CAPS)
        assert image.syllables == (
            ("H0", 1), ("H3", 1), ("H4", 1),
            ("H1", -1), ("H2", -1), ("H5", -1),
        )

    def test_rejects_non_spherical(self, padpair_gens):
        d = from_derivation(
            Derivation(W("a1 b1"), (Move(0, 0, True),)), PADPAIR
        )
        with pytest.raises(ValueError):
            phi(d, PADPAIR, W("a1 b1"), PADPAIR_CAPS, padpair_gens)

    def test_rejects_wrong_base(self, padpair_gens):
        d = from_derivation(
            Derivation(
                W("a2 b1"), (Move(0, 1, True), Move(0, 2, True), Move(0, 0, True))
            ),
            PADPAIR,
        )
        assert d.is_spherical
        with pytest.raises(ValueError):
            phi(d, PADPAIR, W("a1 b1"), PADPAIR_CAPS, padpair_gens)

"""Interval collections, recognition certificates, and the Artin-group
corroboration suite.

Ball-size oracles: a free group of rank r has spheres of size
|S(0)| = 1 and |S(L)| = 2r(2r−1)^(L−1) for L ≥ 1, so rank 1 gives balls
1,3,5,7 and rank 2 gives 1,5,17,53, while the free abelian groups give
1,5,13,25 (rank 2) and 1,7,25,63 (rank 3).  These literals were computed by
hand from the standard counting formulas and are frozen below; both search
routes (normal forms and reduced diagrams) must reproduce them.  On random
graphs the normal-form route must reproduce the growth series
1/C_Γ(−2t/(1+t)) of the right-angled Artin group, C_Γ being the clique
polynomial.
"""

import json
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagram_groups.diagrams import compose, is_reduced, reduce_diagram
from diagram_groups.interval import (
    _loop_moves,
    IntervalCollection,
    base_word,
    collection_to_json,
    complement,
    diagram_ball_sizes,
    disjointness_graph,
    evaluate_raag_word,
    evidence_to_json,
    independent_edge_pair,
    intersects,
    interval_graph,
    is_complement_of_interval,
    parse_intervals,
    presentation_for,
    raag_ball_sizes,
    recognition_to_json,
    transitive_orientation,
    verify_raag_iso,
)
from diagram_groups.raag import raag_graph, raag_normal_form
from diagram_groups.rewriting import Diagram, inverse


def path_graph(length, prefix="v"):
    """The path with ``length`` edges (so ``length + 1`` vertices)."""
    verts = [f"{prefix}{i}" for i in range(length + 1)]
    return raag_graph(verts, [(verts[i], verts[i + 1]) for i in range(length)])


def cycle_graph(n, prefix="v"):
    assert n >= 3
    verts = [f"{prefix}{i}" for i in range(n)]
    return raag_graph(verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


def complete_graph(n, prefix="v"):
    verts = [f"{prefix}{i}" for i in range(n)]
    return raag_graph(verts, list(combinations(verts, 2)))


def edgeless_graph(n, prefix="v"):
    return raag_graph([f"{prefix}{i}" for i in range(n)], [])


def induced_subgraph(g, verts):
    keep = set(verts)
    assert keep <= set(g.vertices)
    return raag_graph(
        tuple(verts), [e for e in sorted(g.edges) if set(e) <= keep]
    )


def orientation_is_transitive(g, arcs):
    """Independent validation of an orientation certificate."""
    arcset = set(arcs)
    if {tuple(sorted(a)) for a in arcs} != set(g.edges):
        return False
    for t1, h1 in arcs:
        for t2, h2 in arcs:
            if h1 == t2 and t1 != h2 and (t1, h2) not in arcset:
                return False
    return True


Z1 = IntervalCollection(1, (("I", 1, 1),))
Z2 = IntervalCollection(2, (("I", 1, 1), ("J", 2, 2)))
F2 = IntervalCollection(3, (("I", 1, 2), ("J", 2, 3)))

# the square of the 6-cycle: edges at circular distance 1 or 2; its
# complement is the perfect matching of antipodes, an interval graph
P26_VERTS = tuple(f"p{i}" for i in range(6))
P26 = raag_graph(
    P26_VERTS,
    [
        (P26_VERTS[i], P26_VERTS[j])
        for i in range(6)
        for j in range(i + 1, 6)
        if min(abs(i - j), 6 - abs(i - j)) in (1, 2)
    ],
)

# K7 joined to the 5-cycle: no induced pair of independent edges, and no
# transitive orientation because the 5-cycle has none
K7_JOIN_C5 = raag_graph(
    [f"a{i}" for i in range(1, 8)] + [f"z{i}" for i in range(5)],
    list(combinations([f"a{i}" for i in range(1, 8)], 2))
    + [(f"a{i}", f"z{j}") for i in range(1, 8) for j in range(5)]
    + [(f"z{j}", f"z{(j + 1) % 5}") for j in range(5)],
)


# ---------------------------------------------------------------------------
# collections and parsing
# ---------------------------------------------------------------------------


def test_collection_validation():
    with pytest.raises(ValueError, match="ground"):
        IntervalCollection(0, ())
    with pytest.raises(ValueError, match="duplicate"):
        IntervalCollection(3, (("I", 1, 1), ("I", 2, 2)))
    with pytest.raises(ValueError, match="illegal"):
        IntervalCollection(3, (("a b", 1, 1),))
    with pytest.raises(ValueError, match="inside"):
        IntervalCollection(3, (("I", 2, 4),))
    with pytest.raises(ValueError, match="inside"):
        IntervalCollection(3, (("I", 3, 2),))


def test_parse_intervals_both_separators():
    slash = parse_intervals("n=7 / I1: 1 3 / I2: 2 5")
    lines = parse_intervals("n=7\nI1: 1 3\nI2: 2 5")
    assert slash == lines
    assert slash.ground == 7
    assert slash.span("I2") == (2, 5)
    assert slash.names() == ("I1", "I2")
    with pytest.raises(ValueError, match="n="):
        parse_intervals("I1: 1 3")
    with pytest.raises(ValueError, match="name"):
        parse_intervals("n=3 / I1 1 3")


def test_intersects_is_closed_interval_overlap():
    assert intersects((1, 3), (3, 5))
    assert intersects((2, 2), (1, 4))
    assert not intersects((1, 2), (3, 4))


# ---------------------------------------------------------------------------
# interval graphs
# ---------------------------------------------------------------------------


def test_staircase_realizes_the_length_five_path():
    stair = IntervalCollection(
        7, tuple((f"I{k}", k, k + 1) for k in range(1, 7))
    )
    g = interval_graph(stair)
    assert len(g.vertices) == 6
    assert sorted(g.edges) == [(f"I{k}", f"I{k+1}") for k in range(1, 6)]


def test_disjoint_collection_gives_edgeless_graph():
    coll = IntervalCollection(6, (("A", 1, 1), ("B", 3, 3), ("C", 5, 6)))
    assert interval_graph(coll).edges == frozenset()


def test_common_point_gives_complete_graph():
    coll = IntervalCollection(5, (("A", 1, 5), ("B", 2, 4), ("C", 3, 3)))
    assert len(interval_graph(coll).edges) == 3


def test_complement_is_an_involution():
    g = path_graph(4)
    assert complement(complement(g)) == g
    assert disjointness_graph(F2).edges == frozenset()
    assert sorted(disjointness_graph(Z2).edges) == [("I", "J")]


def test_graph_constructors():
    assert len(path_graph(5).vertices) == 6 and len(path_graph(5).edges) == 5
    assert len(cycle_graph(5).edges) == 5
    assert len(complete_graph(4).edges) == 6
    assert edgeless_graph(3).edges == frozenset()
    sub = induced_subgraph(cycle_graph(5), ("v0", "v1", "v3"))
    assert sorted(sub.edges) == [("v0", "v1")]


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------


def test_independent_edge_pair_frozen():
    # the two end edges of a five-vertex path are induced and independent
    assert independent_edge_pair(path_graph(4)) == ("v0", "v1", "v3", "v4")
    assert independent_edge_pair(cycle_graph(5)) is None
    assert independent_edge_pair(path_graph(3)) is None


@pytest.mark.parametrize("n,expect", [(4, True), (5, False), (6, True), (7, False)])
def test_cycles_orientable_iff_even(n, expect):
    arcs = transitive_orientation(cycle_graph(n))
    assert (arcs is not None) == expect
    if arcs is not None:
        assert orientation_is_transitive(cycle_graph(n), arcs)


def test_complete_graphs_are_transitively_orientable():
    for n in (2, 3, 4, 5):
        arcs = transitive_orientation(complete_graph(n))
        assert arcs is not None and orientation_is_transitive(complete_graph(n), arcs)


def test_orientation_checker_rejects_bad_certificates():
    p2 = path_graph(2)
    assert not orientation_is_transitive(p2, [("v0", "v1"), ("v1", "v2")])
    assert orientation_is_transitive(p2, [("v0", "v1"), ("v2", "v1")])
    # wrong edge set
    assert not orientation_is_transitive(p2, [("v0", "v1")])


def test_realize_interval_graph_roundtrips_paths():
    # the realization read off the orientation of the complement
    # reproduces each path
    for length in (1, 3, 7):
        g = path_graph(length)
        rec = is_complement_of_interval(complement(g))
        assert rec.verdict
        assert interval_graph(rec.realization).edges == g.edges


def test_realize_interval_graph_rejects_cycles():
    # a chordless 4-cycle is the classic non-interval graph: its complement
    # is a pair of independent edges; the 5-cycle is its own complement
    rec = is_complement_of_interval(complement(cycle_graph(4)))
    assert rec.obstruction == "induced independent edges v0-v2 and v1-v3"
    rec = is_complement_of_interval(complement(cycle_graph(5)))
    assert rec.obstruction == "no transitive orientation exists"


def test_empty_graph_is_realized_on_one_point():
    rec = is_complement_of_interval(raag_graph((), []))
    assert rec.verdict
    assert rec.realization == IntervalCollection(1, ())


def test_verdict_matches_all_interval_collections_up_to_four_vertices():
    # an independent oracle: an interval graph on k <= 4 vertices has a
    # realization with endpoints among the positions of its at most k
    # maximal cliques, so the collections of k intervals on [1, 4] give
    # every one of them
    spans = [(lo, hi) for lo in range(1, 5) for hi in range(lo, 5)]
    for n in range(5):
        verts = [f"v{i}" for i in range(n)]
        realizable = {
            interval_graph(IntervalCollection(4, tuple(
                (v, lo, hi) for v, (lo, hi) in zip(verts, choice)
            ))).edges
            for choice in product(spans, repeat=n)
        }
        pairs = list(combinations(verts, 2))
        for mask in range(2 ** len(pairs)):
            g = raag_graph(verts, [p for k, p in enumerate(pairs) if mask >> k & 1])
            rec = is_complement_of_interval(g)
            assert rec.verdict == (complement(g).edges in realizable), sorted(g.edges)
            if rec.verdict:
                assert interval_graph(rec.realization).edges == complement(g).edges


def test_recognize_c5_rejected_by_orientation():
    rec = is_complement_of_interval(cycle_graph(5))
    assert not rec.verdict
    assert rec.obstruction == "no transitive orientation exists"
    assert rec.orientation is None and rec.realization is None


def test_recognize_long_path_rejected_by_independent_edges():
    rec = is_complement_of_interval(path_graph(4))
    assert not rec.verdict
    assert rec.obstruction == "induced independent edges v0-v1 and v3-v4"


def test_recognize_k3():
    rec = is_complement_of_interval(complete_graph(3))
    assert rec.verdict
    assert orientation_is_transitive(rec.graph, rec.orientation)
    # complement is edgeless: three pairwise disjoint unit intervals
    assert interval_graph(rec.realization).edges == frozenset()
    assert len(rec.realization) == 3


def test_recognize_p26_with_certificates():
    rec = is_complement_of_interval(P26)
    assert rec.verdict
    assert orientation_is_transitive(P26, rec.orientation)
    assert interval_graph(rec.realization).edges == complement(P26).edges
    # the complement is the antipodal matching
    assert sorted(complement(P26).edges) == [
        ("p0", "p3"), ("p1", "p4"), ("p2", "p5"),
    ]


def test_recognize_c4_and_short_path():
    # K9, K12 and the complement of the ten-vertex path have complements
    # with nine to twelve maximal cliques
    for g in (
        cycle_graph(4),
        path_graph(3),
        complete_graph(9),
        complete_graph(12),
        complement(path_graph(9)),
    ):
        rec = is_complement_of_interval(g)
        assert rec.verdict
        assert orientation_is_transitive(g, rec.orientation)
        assert interval_graph(rec.realization).edges == complement(g).edges


def test_recognition_has_no_vertex_bound():
    copath = complement(path_graph(12))
    rec = is_complement_of_interval(copath)
    assert rec.verdict
    assert orientation_is_transitive(copath, rec.orientation)
    assert interval_graph(rec.realization).edges == path_graph(12).edges
    rec = is_complement_of_interval(K7_JOIN_C5)
    assert rec.obstruction == "no transitive orientation exists"


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def _consistent(g, assigned, arc):
    """Can ``arc`` join ``assigned`` without an immediate transitivity
    violation?  Checks every chain the new arc participates in as a leg and
    every already-assigned chain it would have to close."""
    t, h = arc
    for t2, h2 in assigned.values():
        if h == t2 and t != h2:  # t -> h -> h2
            if not g.adjacent(t, h2):
                return False
            closer = assigned.get(_pair(t, h2))
            if closer is not None and closer != (t, h2):
                return False
        if h2 == t and t2 != h:  # t2 -> t -> h
            if not g.adjacent(t2, h):
                return False
            closer = assigned.get(_pair(t2, h))
            if closer is not None and closer != (t2, h):
                return False
        if t2 == h:  # h -> h2 -> t would force h -> t, contradicting arc
            if assigned.get(_pair(h2, t)) == (h2, t):
                return False
    return True


def reference_transitive_orientation(g):
    """The least transitive orientation in sorted-edge order, forward
    before backward, found by plain backtracking over the sorted edges."""
    edges = sorted(g.edges)
    assigned = {}

    def solve(i):
        if i == len(edges):
            return True
        u, v = edges[i]
        for arc in ((u, v), (v, u)):
            if _consistent(g, assigned, arc):
                assigned[edges[i]] = arc
                if solve(i + 1):
                    return True
                del assigned[edges[i]]
        return False

    if not solve(0):
        return None
    return tuple(assigned[e] for e in edges)


def agreement_graphs():
    """Every labelled graph on at most five vertices, then 300 seeded random
    graphs on 7-10 vertices and 300 more with no induced pair of independent
    edges, grown by joining one cross pair of such a pair at a time."""
    for n in range(6):
        verts = [f"v{i}" for i in range(n)]
        pairs = list(combinations(verts, 2))
        for mask in range(2 ** len(pairs)):
            yield raag_graph(verts, [p for k, p in enumerate(pairs) if mask >> k & 1])
    rng = random.Random(7)
    for k in range(600):
        verts = [f"v{i}" for i in range(rng.randint(7, 10))]
        rng.shuffle(verts)
        edges = {p for p in combinations(verts, 2) if rng.random() < 0.6}
        g = raag_graph(verts, edges)
        while k >= 300 and (bad := independent_edge_pair(g)) is not None:
            a, b, c, d = bad
            edges.add(rng.choice([(a, c), (a, d), (b, c), (b, d)]))
            g = raag_graph(verts, edges)
        yield g


def test_orientation_is_the_least_the_search_finds(monkeypatch):
    graphs = list(agreement_graphs())
    assert len(graphs) == 1700
    found = [
        (transitive_orientation(g), recognition_to_json(is_complement_of_interval(g)))
        for g in graphs
    ]
    monkeypatch.setattr(
        "diagram_groups.interval.transitive_orientation",
        reference_transitive_orientation,
    )
    for g, (arcs, blob) in zip(graphs, found):
        assert arcs == reference_transitive_orientation(g)
        assert blob == recognition_to_json(is_complement_of_interval(g))


def test_recognition_json():
    rec = is_complement_of_interval(complete_graph(3))
    blob = recognition_to_json(rec)
    assert blob["verdict"] is True
    assert blob["realization"]["n"] == 3
    again = recognition_to_json(is_complement_of_interval(complete_graph(3)))
    assert json.dumps(blob, sort_keys=True) == json.dumps(again, sort_keys=True)
    bad = recognition_to_json(is_complement_of_interval(cycle_graph(5)))
    assert "obstruction" in bad and "orientation" not in bad


@st.composite
def collections(draw, max_ground=5, max_intervals=4):
    n = draw(st.integers(1, max_ground))
    spans = [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
    chosen = draw(
        st.lists(st.sampled_from(spans), max_size=max_intervals, unique=True)
    )
    return IntervalCollection(
        n, tuple((f"I{k}", lo, hi) for k, (lo, hi) in enumerate(chosen))
    )


@given(collections(max_ground=12, max_intervals=12))
@example(IntervalCollection(9, tuple((f"I{k}", k, k) for k in range(1, 10))))
@settings(max_examples=60, deadline=None)
def test_complements_of_generated_interval_graphs_are_recognized(coll):
    # one direction of the recognition theorem, with the realization
    # reproducing the intersection pattern exactly
    g = interval_graph(coll)
    rec = is_complement_of_interval(complement(g))
    assert rec.verdict
    assert orientation_is_transitive(complement(g), rec.orientation)
    assert interval_graph(rec.realization).edges == g.edges


# ---------------------------------------------------------------------------
# presentations and generator loops
# ---------------------------------------------------------------------------


def test_single_interval_presentation_frozen():
    pres = presentation_for(Z1)
    assert str(pres) == "< x1 aI bI cI | x1 = aI, aI = bI, bI = cI, cI = aI >"
    assert base_word(Z1) == ("x1",)


def test_two_interval_presentation_shape():
    pres = presentation_for(F2)
    assert pres.letters == ("x1", "x2", "x3", "aI", "bI", "cI", "aJ", "bJ", "cJ")
    assert len(pres.relations) == 8
    assert pres.relations[0].lhs == ("x1", "x2") and pres.relations[0].rhs == ("aI",)
    assert pres.relations[4].lhs == ("x2", "x3")
    assert base_word(F2) == ("x1", "x2", "x3")


def test_empty_collection_presents_a_point():
    coll = IntervalCollection(2, ())
    pres = presentation_for(coll)
    assert pres.relations == ()
    assert diagram_ball_sizes(coll, 3, max_elements=100_000) == (1, 1, 1, 1)


def delta_diagram(name, coll):
    """The five-cell spherical loop of one interval at the base word.
    Reduced, because no two consecutive cells use the same relation in
    opposite directions."""
    return Diagram(presentation_for(coll), base_word(coll), _loop_moves(name, 1, coll))


def test_delta_diagram_is_a_five_cell_reduced_loop():
    for coll, name in ((Z1, "I"), (F2, "J"), (Z2, "J")):
        d = delta_diagram(name, coll)
        assert d.cells == 5
        assert d.is_spherical
        assert is_reduced(d)
        assert d.top == base_word(coll)


def test_delta_diagram_offset_respects_the_prefix():
    d = delta_diagram("J", F2)  # J spans [2, 3], so the loop starts after x1
    assert d.moves[0].offset == 1
    assert d.moves[0].relation == 4


def test_delta_squared_reduces_across_the_seam():
    d = delta_diagram("I", Z1)
    square = reduce_diagram(compose(d, d))
    # the reopening cell of the first loop cancels the collapsing cell of
    # the second: ten cells become eight
    assert square.cells == 8
    assert reduce_diagram(compose(d, inverse(d))).cells == 0


def test_commutators_follow_disjointness():
    comm = (("I", 1), ("J", 1), ("I", -1), ("J", -1))
    assert evaluate_raag_word(comm, Z2).cells == 0
    assert evaluate_raag_word(comm, F2).cells != 0
    nested = IntervalCollection(3, (("I", 1, 3), ("J", 2, 2)))
    assert evaluate_raag_word(comm, nested).cells != 0


words_ij = st.lists(
    st.tuples(st.sampled_from(["I", "J"]), st.sampled_from([1, -1])),
    max_size=6,
).map(tuple)


@given(words_ij)
@settings(max_examples=60, deadline=None)
def test_loop_image_trivial_iff_raag_word_trivial_f2(w):
    # faithfulness evidence on random words: the image diagram reduces to
    # the empty loop exactly when the abstract word is trivial
    graph = disjointness_graph(F2)
    expected = raag_normal_form(w, graph) == ()
    assert (evaluate_raag_word(w, F2).cells == 0) == expected


@given(words_ij)
@settings(max_examples=60, deadline=None)
def test_loop_image_trivial_iff_raag_word_trivial_z2(w):
    graph = disjointness_graph(Z2)
    expected = raag_normal_form(w, graph) == ()
    assert (evaluate_raag_word(w, Z2).cells == 0) == expected


# ---------------------------------------------------------------------------
# ball growth
# ---------------------------------------------------------------------------


def test_raag_ball_sizes_frozen():
    assert raag_ball_sizes(edgeless_graph(1), 3) == (1, 3, 5, 7)
    assert raag_ball_sizes(path_graph(1), 3) == (1, 5, 13, 25)  # Z x Z
    assert raag_ball_sizes(edgeless_graph(2), 3) == (1, 5, 17, 53)  # free rank 2
    assert raag_ball_sizes(complete_graph(3), 3) == (1, 7, 25, 63)  # Z^3
    assert raag_ball_sizes(edgeless_graph(3), 2) == (1, 7, 37)  # free rank 3


def growth_ball_sizes(graph, length):
    """Partial sums of the growth series 1/C(−2t/(1+t)), C the clique
    polynomial Σ c_k x^k, in integer power series: multiplied through by
    (1+t)^n, n the clique number, the series is (1+t)^n / N(t) with
    N(t) = Σ c_k (−2t)^k (1+t)^(n−k), and N(0) = 1."""
    verts = graph.vertices
    counts = [
        sum(
            1
            for clique in combinations(verts, k)
            if all(tuple(sorted(p)) in graph.edges for p in combinations(clique, 2))
        )
        for k in range(len(verts) + 1)
    ]
    while counts[-1] == 0:
        counts.pop()
    n = len(counts) - 1

    def times(f, g):
        h = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                h[i + j] += a * b
        return h

    def power(f, k):
        out = [1]
        for _ in range(k):
            out = times(out, f)
        return out

    denom = [0] * (n + 1)
    for k, c in enumerate(counts):
        for i, a in enumerate(times(power([0, -2], k), power([1, 1], n - k))):
            denom[i] += c * a
    assert denom[0] == 1
    numer = power([1, 1], n) + [0] * length
    series = []
    for m in range(length + 1):
        series.append(
            numer[m] - sum(denom[i] * series[m - i] for i in range(1, min(m, n) + 1))
        )
    sums, total = [], 0
    for a in series:
        total += a
        sums.append(total)
    return tuple(sums)


def test_growth_series_matches_free_and_abelian_literals():
    assert growth_ball_sizes(edgeless_graph(2), 3) == (1, 5, 17, 53)
    assert growth_ball_sizes(complete_graph(3), 3) == (1, 7, 25, 63)


@pytest.mark.parametrize("seed", range(12))
def test_raag_ball_sizes_follow_growth_series(seed):
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(1 + seed % 6)]
    graph = raag_graph(
        verts, [e for e in combinations(verts, 2) if rng.random() < 0.5]
    )
    assert raag_ball_sizes(graph, 4) == growth_ball_sizes(graph, 4)


@pytest.mark.parametrize(
    "coll,sizes",
    [
        (Z1, (1, 3, 5, 7)),
        (Z2, (1, 5, 13, 25)),
        (F2, (1, 5, 17, 53)),
    ],
    ids=["z", "z2", "f2"],
)
def test_diagram_ball_sizes_frozen(coll, sizes):
    assert diagram_ball_sizes(coll, 3, max_elements=100_000) == sizes


def test_diagram_ball_sizes_three_generators():
    z3 = IntervalCollection(3, (("A", 1, 1), ("B", 2, 2), ("C", 3, 3)))
    assert diagram_ball_sizes(z3, 3, max_elements=100_000) == (1, 7, 25, 63)
    chain = IntervalCollection(
        4, (("A", 1, 2), ("B", 2, 3), ("C", 3, 4))
    )  # only A and C commute
    assert diagram_ball_sizes(chain, 3, max_elements=100_000) == raag_ball_sizes(
        disjointness_graph(chain), 3
    )


def test_diagram_ball_bound():
    with pytest.raises(ValueError, match="bound"):
        diagram_ball_sizes(F2, 3, max_elements=10)


# ---------------------------------------------------------------------------
# the evidence suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("coll", [Z1, Z2, F2], ids=["z", "z2", "f2"])
def test_verify_raag_iso_passes(coll):
    ev = verify_raag_iso(coll, length=3)
    assert ev.ok
    assert ev.commutation_ok and ev.relators_ok and ev.balls_ok
    assert ev.diagram_balls == ev.raag_balls


def test_verify_raag_iso_report_details():
    ev = verify_raag_iso(F2, length=2)
    assert ev.commutation == (("I", "J", False, False),)
    assert ev.relators_checked == 0  # no commuting pair, no relator
    ev2 = verify_raag_iso(Z2, length=2)
    assert ev2.commutation == (("I", "J", True, True),)
    assert ev2.relators_checked == 1 and ev2.relators_ok


def test_verify_small_sweep():
    # every collection with at most 2 intervals on at most 3 points
    from itertools import combinations as _comb

    spans = lambda n: [
        (lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)
    ]
    for n in (1, 2, 3):
        for size in (0, 1, 2):
            for chosen in _comb(spans(n), size):
                coll = IntervalCollection(
                    n,
                    tuple(
                        (f"I{k}", lo, hi) for k, (lo, hi) in enumerate(chosen)
                    ),
                )
                assert verify_raag_iso(coll, length=2).ok


def test_evidence_json_deterministic():
    blob = evidence_to_json(verify_raag_iso(Z2, length=2))
    again = evidence_to_json(verify_raag_iso(Z2, length=2))
    assert json.dumps(blob, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert blob["ok"] is True
    assert blob["balls"]["diagram"] == [1, 5, 13]
    assert blob["collection"] == collection_to_json(Z2)

"""Oracle-first tests for the class complex and its hyperplanes.

Expected ball sizes, hyperplane identities and crossing graphs are derived
by hand and frozen as literals.  For the commuting presentation the class
complex is exactly computable (classes are finite multiset-permutation
sets), giving an independent route for counts and exhaustiveness flags.
"""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COMM,
    CYC3,
    DEFAULT_CAPS,
    DIRTY,
    GROW,
    HALFPAD,
    INTEROSC,
    OSC_EMPTY,
    OSC_PLAIN,
    PADPAIR,
    PADPAIR_CAPS,
    TIGHT_CAPS,
    W,
)
from diagram_groups import rewriting, special, squier
from diagram_groups.cli import main
from diagram_groups.farley import rank_partition
from diagram_groups.rewriting import (
    ClassSearch,
    Move,
    SearchCaps,
    dimension_at_least,
    enumerate_class,
    format_word,
    one_step_rewrites,
    parse_presentation,
)
from diagram_groups.special import (
    SelfIntersection,
    SelfOsculation,
    find_absorbing_splits,
    find_inter_osculations,
    find_self_intersections,
    find_self_osculations,
    refute_absorbing_splits,
    refute_inter_osculations,
    scan_self_intersections,
    scan_self_osculations,
    specialness_report,
)
from diagram_groups.squier import (
    BallCube,
    BallEdge,
    HyperplaneId,
    build_ball,
    find_induced_odd_cycle,
    hyperplane_catalog,
    hyperplane_id,
    rank,
    relate,
)


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------


def cube_dims(ball):
    """The dimensions of the ball's cubes, ascending."""
    return tuple(dim for dim, _ in ball.cubes)


def cubes_of(ball, n):
    """The ball's ``n``-cubes."""
    return dict(ball.cubes).get(n, ())


class TestHexagonBall:
    """[abc] over COMM: six vertices in a single hexagonal loop."""

    def setup_method(self):
        self.ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))

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
        assert cube_dims(self.ball) == ()

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
        self.ball = build_ball(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))

    def test_counts_frozen(self):
        assert len(self.ball.vertices) == 81  # 3 * 3 * 9
        assert len(self.ball.edges) == 210  # 81 + 81 + 24 + 24
        assert len(self.ball.squares) == 136  # 81 + 24 + 24 + 7
        assert cube_dims(self.ball) == (2,)
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
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b a b a b"))
        assert ball.complete
        assert 3 in cube_dims(ball)
        corners = {c.corner for c in cubes_of(ball, 3)}
        assert W("a b a b a b") in corners
        cube = next(
            c for c in cubes_of(ball, 3) if c.corner == W("a b a b a b")
        )
        assert cube.moves == (
            Move(0, 0, True), Move(2, 0, True), Move(4, 0, True),
        )

    def test_square_in_four_letter_class(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b b c"))
        assert ball.complete
        assert any(
            sq.corner == W("a b b c")
            and sq.moves == (Move(0, 0, True), Move(2, 2, True))
            for sq in ball.squares
        )


def _end(move, pres):
    return move.offset + len(move.sides(pres)[0])


def _brute_force_cubes(ball):
    """Every subset of at least two pairwise-disjoint forward moves whose
    corners all lie in the ball, per vertex in member order, subsets in
    lexicographic order of the moves sorted by span."""
    pres, members = ball.pres, set(ball.vertices)
    cubes = {}
    for w in ball.vertices:
        fwd = sorted(
            (m for m, r in one_step_rewrites(w, pres) if m.forward and r in members),
            key=lambda m: (m.offset, _end(m, pres)),
        )
        for n in range(2, len(fwd) + 1):
            for sub in itertools.combinations(fwd, n):
                pairs = itertools.combinations(sub, 2)
                if any(_end(a, pres) > b.offset for a, b in pairs):
                    continue
                corners = set()
                for r in range(1, n + 1):
                    for part in itertools.combinations(sub, r):
                        c = w
                        for m in reversed(part):  # right to left keeps offsets valid
                            c = m.apply(c, pres)
                        corners.add(c)
                if corners <= members:
                    cubes.setdefault(n, []).append(BallCube(w, sub))
    return tuple((n, tuple(cubes[n])) for n in sorted(cubes))


def _random_presentation(rng):
    letters = ("a", "b", "c")
    count, rels = rng.randint(1, 3), set()
    while len(rels) < count:
        lhs = tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
        rhs = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        if lhs != rhs and (rhs, lhs) not in rels:
            rels.add((lhs, rhs))
    return parse_presentation(
        "letters: a b c\n"
        + "".join(f"rel: {' '.join(l)} = {' '.join(r)}\n" for l, r in sorted(rels))
    )


@pytest.mark.parametrize(
    "pres, base, caps",
    [
        (COMM, "a b c a b c", DEFAULT_CAPS),
        (CYC3, "a b c a", DEFAULT_CAPS),
        (DIRTY, "a b", TIGHT_CAPS),
        (GROW, "x", TIGHT_CAPS),
    ],
    ids=["comm", "cyc3", "dirty", "grow"],
)
def test_cubes_match_brute_force(pres, base, caps):
    ball = build_ball(ClassSearch(pres, caps), W(base))
    assert ball.cubes == _brute_force_cubes(ball)
    assert cube_dims(ball)


def test_cubes_match_brute_force_on_random_presentations():
    caps = SearchCaps(max_word_len=7, max_class_size=80, max_bfs_depth=16)
    cubes = 0
    for seed in range(40):
        rng = random.Random(seed)
        pres = _random_presentation(rng)
        base = tuple(rng.choice("abc") for _ in range(rng.randint(2, 4)))
        ball = build_ball(ClassSearch(pres, caps), base)
        assert ball.cubes == _brute_force_cubes(ball), seed
        cubes += sum(len(cs) for _, cs in ball.cubes)
    assert cubes > 0


# ---------------------------------------------------------------------------
# hyperplane identity
# ---------------------------------------------------------------------------


class TestHyperplaneId:
    def test_both_directions_of_a_hexagon_edge_get_one_id(self):
        search = ClassSearch(COMM, DEFAULT_CAPS)
        move = Move(0, 0, True)
        hid = hyperplane_id(search, W("a b c"), move)
        assert hid == HyperplaneId(W(""), 0, W("c"))
        assert hid.exact
        back = move.apply(W("a b c"), COMM)
        assert hyperplane_id(search, back, move.inverted()) == hid
        assert str(hid) == "[1 | r0 | c]"

    def test_parts_are_canonical_reps(self):
        # left part a2 p of a b-edge collapses to the class rep a1
        search = ClassSearch(PADPAIR, PADPAIR_CAPS)
        hid = hyperplane_id(search, W("a2 p b1"), Move(2, 3, True))
        assert hid.left == W("a1")
        assert hid.right == W("")
        assert not hid.exact  # the left class is infinite, enumeration capped

    def test_hexagon_catalog_frozen(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
        catalog = hyperplane_catalog(ball)
        assert catalog.exact
        assert catalog.ids == (
            HyperplaneId(W(""), 0, W("c")),
            HyperplaneId(W("c"), 0, W("")),
            HyperplaneId(W(""), 1, W("b")),
            HyperplaneId(W("b"), 1, W("")),
            HyperplaneId(W(""), 2, W("a")),
            HyperplaneId(W("a"), 2, W("")),
        )
        # each hyperplane of the hexagon is dual to exactly one edge
        assert all(len(es) == 1 for _, es in catalog.edges_of)

    def test_padpair_catalog_frozen(self):
        ball = build_ball(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
        catalog = hyperplane_catalog(ball)
        assert catalog.exact
        assert catalog.ids == (
            HyperplaneId(W(""), 0, W("b1")),
            HyperplaneId(W(""), 1, W("b1")),
            HyperplaneId(W(""), 2, W("b1")),
            HyperplaneId(W("a1"), 3, W("")),
            HyperplaneId(W("a1"), 4, W("")),
            HyperplaneId(W("a1"), 5, W("")),
            HyperplaneId(W(""), 6, W("b1")),
            HyperplaneId(W("a1"), 7, W("")),
        )
        assert [len(es) for _, es in catalog.edges_of] == [
            27, 27, 27, 27, 27, 27, 24, 24,
        ]

    def test_catalog_partitions_edges(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"))
        catalog = hyperplane_catalog(ball)
        assert catalog.exact
        all_edges = [e for _, es in catalog.edges_of for e in es]
        assert sorted(all_edges, key=str) == sorted(ball.edges, key=str)
        for hid, es in catalog.edges_of:
            for e in es:
                assert catalog.ids[catalog.edge_index[e]] == hid

    def test_exactness_takes_no_part_in_equality(self):
        exact = HyperplaneId(W("a"), 2, W(""), True)
        doubted = HyperplaneId(W("a"), 2, W(""), False)
        assert exact == doubted and hash(exact) == hash(doubted)
        assert exact != HyperplaneId(W("a"), 1, W(""))
        assert exact != HyperplaneId(W(""), 2, W("a"))

    def test_separately_built_values_find_one_entry(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
        catalog = ball.catalog
        # keys rebuilt from plain tuples, not the objects the catalog holds
        edge = BallEdge(W("a b c"), Move(0, 0, True))
        assert edge == ball.edges[0] and edge is not ball.edges[0]
        assert catalog.edge_index[edge] == 0
        hid = HyperplaneId(W(""), 0, W("c"), False)
        assert catalog.index[hid] == 0
        assert {Move(0, 0, True): 1}[ball.edges[0].move] == 1


def reference_hyperplane_catalog(ball):
    """The catalog by pairwise probes alone: each edge against every earlier
    group of its relation, an unknown probe clearing ``exact``."""
    pres, equal = ball.pres, ball.search.equal
    exact = True
    groups, by_relation = [], {}
    for edge in ball.edges:
        a, b = edge.parts(pres)
        placed = False
        for gi in by_relation.get(edge.move.relation, []):
            (ga, gb), members = groups[gi]
            va, vb = equal(a, ga), equal(b, gb)
            if va.is_yes and vb.is_yes:
                members.append(edge)
                placed = True
                break
            if va.is_unknown or vb.is_unknown:
                exact = False
        if not placed:
            groups.append(((a, b), [edge]))
            by_relation.setdefault(edge.move.relation, []).append(len(groups) - 1)
    packed = []
    for (a, b), members in groups:
        la, xa = ball.search.rep(a)
        rb, xb = ball.search.rep(b)
        packed.append((HyperplaneId(la, members[0].move.relation, rb, xa and xb),
                       tuple(members)))
    packed.sort(key=lambda hp: (hp[0].relation, pres.shortlex_key(hp[0].left),
                                pres.shortlex_key(hp[0].right)))
    return tuple(h for h, _ in packed), tuple(packed), exact


def _catalog_paths(ball):
    """(edges named by class representatives, edges that probe)."""
    search = ball.search
    keyed = sum(
        ball.complete and all(search.rep(x)[1] for x in e.parts(ball.pres))
        for e in ball.edges
    )
    return keyed, len(ball.edges) - keyed


def _assert_catalog_matches_reference(pres, base, caps):
    # separate searches, so neither side reads answers the other computed
    ball = build_ball(ClassSearch(pres, caps), base)
    want = reference_hyperplane_catalog(build_ball(ClassSearch(pres, caps), base))
    catalog = hyperplane_catalog(ball)
    assert (catalog.ids, catalog.edges_of, catalog.exact) == want
    assert [h.exact for h in catalog.ids] == [h.exact for h in want[0]]
    return ball


CATALOG_CORPUS = [
    (COMM, "a b c a b"),
    (COMM, "a a b c c"),
    (CYC3, "a b c a"),
    (PADPAIR, "a1 b1"),
    (HALFPAD, "a b"),
    (OSC_PLAIN, "x k h k h k y"),
    (INTEROSC, "c u v w d"),
]
# these absorbing classes fill any class-size cap with thousands of edges,
# all of which probe; conftest pairs them with TIGHT caps
ABSORBING = [(DIRTY, "a b"), (GROW, "x"), (OSC_EMPTY, "x k k k y")]


@pytest.mark.parametrize(
    "caps, corpus",
    [
        (DEFAULT_CAPS, CATALOG_CORPUS),
        (TIGHT_CAPS, CATALOG_CORPUS + ABSORBING),
        (PADPAIR_CAPS, CATALOG_CORPUS),
    ],
    ids=["default", "tight", "padpair"],
)
def test_catalog_matches_pairwise_probes_on_corpus(caps, corpus):
    keyed = probing = 0
    for pres, base in corpus:
        ball = _assert_catalog_matches_reference(pres, W(base), caps)
        k, p = _catalog_paths(ball)
        keyed, probing = keyed + k, probing + p
    assert keyed and probing


def _reference_loops(ball):
    """The rule ``ball.loops`` replaced: the ball's edges whose (source,
    move) is not a tree edge of the enumeration turned forward."""
    tree = set()
    for parent, move, child in ball.enum.edges:
        tree.add((parent, move) if move.forward else (child, move.inverted()))
    return tuple(e for e in ball.edges if (e.source, e.move) not in tree)


def test_ball_is_built_once_per_run():
    search = ClassSearch(COMM, DEFAULT_CAPS)
    ball = build_ball(search, W("a b c"))
    assert build_ball(search, W("a b c")) is ball
    assert build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c")) is not ball


@pytest.mark.parametrize(
    "caps, corpus",
    [
        (DEFAULT_CAPS, CATALOG_CORPUS),
        (TIGHT_CAPS, CATALOG_CORPUS + ABSORBING),
        (PADPAIR_CAPS, CATALOG_CORPUS),
    ],
    ids=["default", "tight", "padpair"],
)
def test_loops_are_the_edges_off_the_tree_on_corpus(caps, corpus):
    loops = truncated = 0
    for pres, base in corpus:
        ball = build_ball(ClassSearch(pres, caps), W(base))
        assert ball.loops == _reference_loops(ball)
        assert len(ball.tree) == len(ball.vertices) - 1
        assert len(ball.tree) + len(ball.loops) == len(ball.edges)
        loops += len(ball.loops)
        truncated += not ball.complete
    assert loops and truncated


def _bfs_depth(pres, base, caps):
    """Largest number of rewrites from ``base`` to a member of its class, or
    None when the class does not close under ``caps``."""
    enum = enumerate_class(ClassSearch(pres, caps), base)
    if not enum.complete:
        return None
    depth = {base: 0}
    for parent, _, child in enum.edges:
        depth[child] = depth[parent] + 1
    return max(depth.values())


def test_catalog_matches_pairwise_probes_on_random_presentations():
    # every edge of a capped ball probes, each probe against a capped class:
    # small caps keep those balls cheap
    caps = SearchCaps(max_word_len=6, max_class_size=30, max_bfs_depth=12)
    complete = 0
    for seed in range(80):
        rng = random.Random(seed)
        pres = _random_presentation(rng)
        base = tuple(rng.choice("abc") for _ in range(rng.randint(2, 5)))
        complete += _assert_catalog_matches_reference(pres, base, caps).complete
    assert complete


# ``a a b b c d`` reaches ``b b a a d c`` in one step, so every member of its
# class lies within 3 rewrites of it; the left part ``a a b b`` of the
# ``c d`` edge needs 4 rewrites to reach ``b b a a``
SHORTCUT = parse_presentation(
    """
    letters: a b c d
    rel: a b = b a
    rel: c d = d c
    rel: a a b b c d = b b a a d c
    """
)


def test_catalog_probes_parts_capped_from_their_own_seed():
    """At a depth cap equal to the base's BFS depth the ball is complete,
    but a part class can be capped from its own seed: those edges probe,
    the rest are named by representatives, and the catalog is unchanged."""
    wide = SearchCaps(max_word_len=10, max_class_size=200, max_bfs_depth=100)
    cases = [(SHORTCUT, W("a a b b c d"))]
    for seed in range(300):
        rng = random.Random(seed)
        pres = _random_presentation(rng)
        cases.append((pres, tuple(rng.choice("abc") for _ in range(rng.randint(2, 6)))))
    mixed = []
    for pres, base in cases:
        depth = _bfs_depth(pres, base, wide)
        if not depth:
            continue
        caps = SearchCaps(wide.max_word_len, wide.max_class_size, depth)
        ball = _assert_catalog_matches_reference(pres, base, caps)
        assert ball.complete
        keyed, probing = _catalog_paths(ball)
        if keyed and probing:
            mixed.append(pres)
    assert mixed[0] is SHORTCUT and len(mixed) >= 2


# ---------------------------------------------------------------------------
# relate / transversality
# ---------------------------------------------------------------------------


A1 = HyperplaneId(W(""), 0, W("b1"))
A2 = HyperplaneId(W(""), 1, W("b1"))
B1 = HyperplaneId(W("a1"), 3, W(""))
B2 = HyperplaneId(W("a1"), 4, W(""))
C = HyperplaneId(W(""), 6, W("b1"))
D = HyperplaneId(W("a1"), 7, W(""))


class TestRelate:
    def setup_method(self):
        self.ball = build_ball(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))

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
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
        catalog = hyperplane_catalog(ball)
        for j1, j2 in itertools.combinations(catalog.ids, 2):
            assert relate(j1, j2, ball).value == "disjoint"


def reference_extensions(search, base, middle, head=None):
    """The candidate lists as the searches built them before they shared
    ``squier._extensions``: with ``head`` the ≺ search's loop over
    ``[base]`` times ``[head]``, both in shortlex order; without it the
    members of ``[base]`` that start with ``base`` and ``middle``."""
    heads = (base,) if head is None else search.enum(head).members
    out, seen = [], set()
    for z in search.enum(base).members:
        for alpha in heads:
            k = len(alpha)
            if len(z) < k + len(middle) or z[:k] != alpha or z[k: k + len(middle)] != middle:
                continue
            t = z[k + len(middle):]
            if t not in seen:
                seen.add(t)
                out.append((t, z))
    return tuple(out)


CAPPED = SearchCaps(max_word_len=6, max_class_size=40, max_bfs_depth=12)


@pytest.mark.parametrize(
    "pres, base, caps",
    [
        (GROW, "x", CAPPED),
        (DIRTY, "a b", CAPPED),
        (PADPAIR, "a1 b1", PADPAIR_CAPS),
        (OSC_PLAIN, "x k h k h k y", CAPPED),
        (COMM, "a b c a b", DEFAULT_CAPS),
    ],
)
def test_extensions_match_the_loops_they_replace(pres, base, caps):
    search = ClassSearch(pres, caps)
    catalog = build_ball(search, W(base)).catalog
    found = 0
    for j1, j2 in itertools.permutations(catalog.ids, 2):
        u = pres.relations[j1.relation].lhs
        got = search.once(squier._extensions, j2.left, u, j1.left)
        assert got == reference_extensions(search, j2.left, u, j1.left), (j1, j2)
        found += bool(got)
    for hid in catalog.ids:
        rel = pres.relations[hid.relation]
        for middle in (rel.lhs, rel.rhs, ()):
            got = search.once(squier._extensions, hid.left, middle)
            assert got == reference_extensions(search, hid.left, middle)
            found += bool(got)
    assert found


def test_each_probe_pair_runs_one_equality_search(monkeypatch):
    """Every pair asked of ``ClassSearch.equal`` is decided by exactly one
    ``rewriting.equal_mod_p`` call, looked up through the module, so a
    tracer that wraps that name times all of a run's equality work."""
    asked, computed = set(), Counter()
    equal, equal_mod_p = ClassSearch.equal, rewriting.equal_mod_p

    def asking(search, w1, w2):
        asked.add((w1, w2))
        return equal(search, w1, w2)

    def counted(search, w1, w2):
        computed[w1, w2] += 1
        return equal_mod_p(search, w1, w2)

    monkeypatch.setattr(ClassSearch, "equal", asking)
    monkeypatch.setattr(rewriting, "equal_mod_p", counted)
    search = ClassSearch(GROW, TIGHT_CAPS)
    specialness_report(search, W("x"))
    build_ball(search, W("x")).order
    assert asked and set(computed) == asked
    assert set(computed.values()) == {1}


class TestTransversality:
    def test_padpair_is_k44(self):
        ball = build_ball(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
        order = ball.order
        assert order.exact
        assert order.odd_cycle is None
        assert len(order.crossings) == 16
        left = {0, 1, 2, 6}   # A1 A2 A3 C
        right = {3, 4, 5, 7}  # B1 B2 B3 D
        pairs = {(i, j) for i, j, _ in order.crossings}
        assert pairs == {(i, j) for i in left for j in right if i < j} | {
            (i, j) for i in right for j in left if i < j
        }
        # the a-side always sits left of the b-side in the squares
        for i, j, value in order.crossings:
            if i in left:
                assert value == "first_prec_second"
            else:
                assert value == "second_prec_first"

    def test_hexagon_graph_empty(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
        order = ball.order
        assert order.exact
        assert order.crossings == ()
        assert order.odd_cycle is None

    def test_complete_commuting_ball_graph_exact(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"))
        order = ball.order
        assert order.exact
        assert order.odd_cycle is None
        assert len(order.crossings) > 0


class _OddCycleSearched(Exception):
    pass


def test_only_relate_runs_the_odd_cycle_check(monkeypatch, capsys):
    # the odd-cycle search has no budget, so the commands that read the
    # crossing order without printing the check must never start it
    def refuse(adj):
        raise _OddCycleSearched

    monkeypatch.setattr(squier, "find_induced_odd_cycle", refuse)
    monkeypatch.chdir(Path(__file__).parent / "golden")
    pad = ["-p", "padpair.pres", "-w", "a1 b1", "--max-word-len", "10",
           "--max-class-size", "500", "--max-bfs-depth", "48"]
    assert main(["phi", *pad, "-d", "d1.diag", "--format", "text"]) == 0
    assert capsys.readouterr().out == "H0 H1 H2^-1\n"
    partition = rank_partition(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
    assert partition.ranks_exact
    assert [r.value for r in partition.ranks] == [0, 0, 0, 1, 1, 1, 0, 1]
    with pytest.raises(_OddCycleSearched):
        main(["relate", *pad])

    searched = []

    def counted(adj):
        searched.append(len(adj))
        return None

    monkeypatch.setattr(squier, "find_induced_odd_cycle", counted)
    order = partition.ball.order
    assert order.odd_cycle is None
    assert order.odd_cycle is None
    assert searched == [8]


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

    def test_bound_respected(self, monkeypatch):
        assert find_induced_odd_cycle(self._cycle_adj(11)) is None
        monkeypatch.setattr(squier, "_ODD_CYCLE_MAX_LEN", 11)
        assert find_induced_odd_cycle(self._cycle_adj(11)) is not None

    def test_triangle_is_not_reported(self):
        assert find_induced_odd_cycle(self._cycle_adj(3)) is None


# ---------------------------------------------------------------------------
# dimension and rank
# ---------------------------------------------------------------------------


class TestDimension:
    def test_padpair_dim_two_yes(self):
        verdict = dimension_at_least(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"), 2)
        assert verdict.is_yes
        wit = verdict.witness
        assert wit.member == W("a1 b1")
        assert wit.factors() == (W("a1"), W("b1"))

    def test_padpair_dim_three_no_by_certificate(self):
        verdict = dimension_at_least(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"), 3)
        assert verdict.is_no
        assert "letter-count" in verdict.witness

    def test_short_commuting_word_dim_two_no(self):
        verdict = dimension_at_least(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"), 2)
        assert verdict.is_no

    def test_four_letter_commuting_word_dim_two_yes(self):
        verdict = dimension_at_least(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"), 2)
        assert verdict.is_yes
        for factor in verdict.witness.factors():
            assert len(factor) >= 1

    def test_six_letter_commuting_word_dims(self):
        w = W("a b a b a b")
        assert dimension_at_least(ClassSearch(COMM, DEFAULT_CAPS), w, 3).is_yes
        verdict = dimension_at_least(ClassSearch(COMM, DEFAULT_CAPS), w, 4)
        assert verdict.is_no
        assert "letter-count" in verdict.witness

    def test_growing_class_has_every_dimension(self):
        for n in (1, 2, 3, 4, 5):
            assert dimension_at_least(ClassSearch(GROW, DEFAULT_CAPS), W("x"), n).is_yes

    def test_zero_always_yes(self):
        assert dimension_at_least(ClassSearch(COMM, DEFAULT_CAPS), W("a"), 0).is_yes


class TestRank:
    def setup_method(self):
        self.ball = build_ball(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))

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
            assert result.chain[0] in (A1, A2, HyperplaneId(W(""), 2, W("b1")), C)

    def test_squeeze_note_present_on_truncated_ball(self):
        result = rank(B1, self.ball)
        assert any("dimension" in note for note in result.notes)

    def test_hexagon_ranks_all_zero(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
        catalog = hyperplane_catalog(ball)
        for j in catalog.ids:
            result = rank(j, ball)
            assert result.value == 0
            assert result.exact


# ---------------------------------------------------------------------------
# pathologies: self-intersection
# ---------------------------------------------------------------------------


def self_intersection_square(search, wit, w0):
    """Rebuild and verify the geometric square a·p·b·p·c from a witness.

    Checks that the square's word lies in the base class and that both dual
    edges have the same hyperplane identity; raises ValueError otherwise.
    """
    word = wit.a + wit.p + wit.b + wit.p + wit.c
    if not search.equal(word, w0).is_yes:
        raise ValueError("witness square does not lie in the base class")
    rel_index = None
    for i, rel in enumerate(search.pres.relations):
        if (rel.lhs, rel.rhs) in ((wit.p, wit.q), (wit.q, wit.p)):
            rel_index = i
            forward = rel.lhs == wit.p
            break
    if rel_index is None:
        raise ValueError("witness side is not a relation side")
    o1, o2 = len(wit.a), len(wit.a) + len(wit.p) + len(wit.b)
    m1 = Move(o1, rel_index, forward)
    m2 = Move(o2, rel_index, forward)
    if not search.equal(wit.a, wit.a + wit.p + wit.b).is_yes:
        raise ValueError("left absorption equation fails")
    if not search.equal(wit.c, wit.b + wit.p + wit.c).is_yes:
        raise ValueError("right absorption equation fails")
    return BallCube(word, (m1, m2))


def dirty_split_witness(search):
    """The self-crossing that ``find_absorbing_splits`` reads off the DIRTY
    split ``a|b`` with absorbed middle ``p``."""
    found, _ = find_absorbing_splits(search, W("a b"))
    hits = [wit for wit in found if (wit.a, wit.p, wit.c) == (W("a"), W("p"), W("b"))]
    assert hits
    return hits[0]


class TestSelfIntersection:
    def test_witness_equality_ignores_evidence(self):
        search = ClassSearch(DIRTY, TIGHT_CAPS)
        wit = dirty_split_witness(search)
        bare = wit._replace(evidence=())
        assert wit.evidence and bare != wit
        # the report lists each parts tuple once, with the first evidence
        assert special._with_new([bare], [wit]) == [bare]
        assert special._with_new([], [wit, bare, wit]) == [wit]
        other = wit._replace(c=wit.c + W("a"))
        assert special._with_new([wit], [other]) == [wit, other]

    def test_dirty_splits_found(self):
        wit = dirty_split_witness(ClassSearch(DIRTY, TIGHT_CAPS))
        # both equation derivations replay
        assert len(wit.evidence) == 2
        for deriv in wit.evidence:
            deriv.replay(DIRTY)

    def test_dirty_split_converts_to_self_intersection(self):
        wit = dirty_split_witness(ClassSearch(DIRTY, TIGHT_CAPS))
        assert wit.p == W("p") and wit.q == W("q")
        assert wit.b == W("p")  # empty middle replaced by the side itself

    def test_dirty_witness_round_trips_to_square(self):
        search = ClassSearch(DIRTY, TIGHT_CAPS)
        wit = dirty_split_witness(search)
        square = self_intersection_square(search, wit, W("a b"))
        m1, m2 = square.moves
        assert m1.relation == m2.relation == 2  # p = q
        assert m1.forward and m2.forward
        assert m2.offset >= m1.offset + 1  # disjoint occurrences
        # both rewrites apply at the square's corner
        m2.apply(m1.apply(square.corner, DIRTY), DIRTY)

    def test_dirty_report_clean_no(self):
        report = specialness_report(ClassSearch(DIRTY, TIGHT_CAPS), W("a b"))
        assert report.clean.is_no
        assert report.special.is_no
        assert report.self_intersections

    def test_commuting_presentation_refutes_splits(self):
        assert refute_absorbing_splits(COMM) is not None
        assert refute_absorbing_splits(PADPAIR) is not None
        assert refute_absorbing_splits(DIRTY) is None

    def test_no_false_positives_on_commuting_class(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"))
        scan, scan_def = scan_self_intersections(ball)
        found, found_def = find_self_intersections(ball)
        assert scan == () and found == ()
        assert scan_def and found_def


# ---------------------------------------------------------------------------
# pathologies: self-osculation
# ---------------------------------------------------------------------------


def self_osculation_config(search, wit, w0):
    """Rebuild the geometric configuration: the word a (kh)^{n+1} k b carries
    two overlapping co-initial rewrites dual to one oriented hyperplane."""
    sigma = (wit.k + wit.h) * wit.n + wit.k
    word = wit.a + wit.k + wit.h + sigma + wit.b
    if not search.equal(word, w0).is_yes:
        raise ValueError("osculation word does not lie in the base class")
    rel_index = forward = None
    for i, rel in enumerate(search.pres.relations):
        if rel.lhs == sigma:
            rel_index, forward = i, True
            break
        if rel.rhs == sigma:
            rel_index, forward = i, False
            break
    if rel_index is None:
        raise ValueError("periodic side is not a relation side")
    delta = len(wit.k) + len(wit.h)
    m1 = Move(len(wit.a), rel_index, forward)
    m2 = Move(len(wit.a) + delta, rel_index, forward)
    if delta >= len(sigma):
        raise ValueError("occurrences do not overlap")
    if not search.equal(word[: m1.offset], word[: m2.offset]).is_yes:
        raise ValueError("left parts differ; not one hyperplane")
    if not search.equal(
        word[m1.offset + len(sigma):], word[m2.offset + len(sigma):]
    ).is_yes:
        raise ValueError("right parts differ; not one hyperplane")
    return word, m1, m2


class TestSelfOsculation:
    def test_empty_leftover_witness(self):
        """Periodic side k k with period 1: the leftover k is empty and the
        overlap is carried by the exponent (n = 2)."""
        ball = build_ball(ClassSearch(OSC_EMPTY, TIGHT_CAPS), W("x k k y"))
        found, _ = find_self_osculations(ball)
        assert any(
            w.n == 2 and w.k == W("") and w.h == W("k")
            and w.a == W("x") and w.b == W("y")
            for w in found
        )

    def test_empty_leftover_scan_agrees(self):
        ball = build_ball(ClassSearch(OSC_EMPTY, TIGHT_CAPS), W("x k k y"))
        found, _ = scan_self_osculations(ball)
        assert any(
            w.n == 2 and w.k == W("") and w.h == W("k") for w in found
        )

    def test_empty_leftover_config_round_trip(self):
        ball = build_ball(ClassSearch(OSC_EMPTY, TIGHT_CAPS), W("x k k y"))
        found, _ = find_self_osculations(ball)
        wit = next(w for w in found if w.a == W("x") and w.b == W("y"))
        word, m1, m2 = self_osculation_config(ball.search, wit, W("x k k y"))
        assert word == W("x k k k y")
        assert (m1.offset, m2.offset) == (1, 2)
        assert m1.relation == m2.relation == 2

    def test_plain_witness(self):
        ball = build_ball(ClassSearch(OSC_PLAIN, TIGHT_CAPS), W("x k h k y"))
        found, _ = find_self_osculations(ball)
        assert any(
            w.n == 1 and w.k == W("k") and w.h == W("h")
            and w.a == W("x") and w.b == W("y") and w.p == W("p")
            for w in found
        )

    def test_plain_scan_agrees(self):
        ball = build_ball(ClassSearch(OSC_PLAIN, TIGHT_CAPS), W("x k h k y"))
        found, _ = scan_self_osculations(ball)
        assert any(w.n == 1 and w.k == W("k") and w.h == W("h") for w in found)

    def test_plain_config_round_trip(self):
        ball = build_ball(ClassSearch(OSC_PLAIN, TIGHT_CAPS), W("x k h k y"))
        found, _ = find_self_osculations(ball)
        wit = next(w for w in found if w.a == W("x") and w.b == W("y"))
        word, m1, m2 = self_osculation_config(ball.search, wit, W("x k h k y"))
        assert word == W("x k h k h k y")
        assert (m1.offset, m2.offset) == (1, 3)

    def test_reports_flag_special_no(self):
        report = specialness_report(ClassSearch(OSC_EMPTY, TIGHT_CAPS), W("x k k y"))
        assert report.self_osculations
        assert report.special.is_no

    def test_commuting_classes_have_none(self):
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"))
        found, found_def = find_self_osculations(ball)
        scan, scan_def = scan_self_osculations(ball)
        assert found == () and scan == ()
        assert found_def and scan_def


# ---------------------------------------------------------------------------
# pathologies: inter-osculation
# ---------------------------------------------------------------------------


def inter_osculation_config(search, wit, w0):
    """Rebuild the osculation vertex and the separate crossing square."""

    def side_move(word, offset, side):
        for i, rel in enumerate(search.pres.relations):
            if rel.lhs == side and word[offset: offset + len(side)] == side:
                return Move(offset, i, True)
            if rel.rhs == side and word[offset: offset + len(side)] == side:
                return Move(offset, i, False)
        raise ValueError(f"{format_word(side)} is not a relation side here")

    word = wit.a + wit.u + wit.v + wit.w + wit.b
    if not search.equal(word, w0).is_yes:
        raise ValueError("osculation word not in the base class")
    m1 = side_move(word, len(wit.a), wit.p)
    m2 = side_move(word, len(wit.a) + len(wit.u), wit.q)
    if m2.offset >= m1.offset + len(wit.p):
        raise ValueError("occurrences do not overlap")
    square_word = wit.a + wit.u + wit.v + wit.xi + wit.v + wit.w + wit.b
    if not search.equal(square_word, w0).is_yes:
        raise ValueError("crossing square word not in the base class")
    s1 = side_move(square_word, len(wit.a), wit.p)
    s2 = side_move(square_word, len(wit.a + wit.u + wit.v + wit.xi), wit.q)
    # the two square edges must be dual to the same hyperplanes as the
    # osculating pair
    if not search.equal(square_word[: s2.offset], word[: m2.offset]).is_yes:
        raise ValueError("second hyperplane mismatch between square and vertex")
    if not search.equal(
        square_word[s1.offset + len(wit.p):], word[m1.offset + len(wit.p):]
    ).is_yes:
        raise ValueError("first hyperplane mismatch between square and vertex")
    return (word, m1, m2), BallCube(square_word, (s1, s2))


class TestInterOsculation:
    def test_witness_found(self):
        search = ClassSearch(INTEROSC, TIGHT_CAPS)
        found, _ = find_inter_osculations(search, W("c u v w d"))
        assert any(
            w.a == W("c") and w.u == W("u") and w.v == W("v")
            and w.w == W("w") and w.b == W("d") and w.xi == W("v")
            for w in found
        )

    def test_config_round_trip(self):
        search = ClassSearch(INTEROSC, TIGHT_CAPS)
        found, _ = find_inter_osculations(search, W("c u v w d"))
        wit = next(w for w in found if w.xi == W("v"))
        (word, m1, m2), square = inter_osculation_config(search, wit, W("c u v w d"))
        assert word == W("c u v w d")
        # overlapping occurrences of u v and v w at the osculation vertex
        assert (m1.offset, m2.offset) == (1, 2)
        assert m1.relation == 2 and m2.relation == 3
        # the crossing square lives at the xi-padded word
        assert square.corner == W("c u v v v w d")
        s1, s2 = square.moves
        assert s2.offset >= s1.offset + 2  # now disjoint

    def test_report_special_no(self):
        report = specialness_report(ClassSearch(INTEROSC, TIGHT_CAPS), W("c u v w d"))
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
        report = specialness_report(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
        assert report.clean.is_yes
        assert report.special.is_yes
        assert report.self_intersections == ()
        assert report.self_osculations == ()
        assert report.inter_osculations == ()
        assert any("clean" in note for note in report.notes)
        assert any("special" in note for note in report.notes)

    def test_commuting_special_yes(self):
        report = specialness_report(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
        assert report.clean.is_yes
        assert report.special.is_yes

    def test_commuting_bigger_class_special_yes(self):
        report = specialness_report(ClassSearch(COMM, DEFAULT_CAPS), W("a a b c"))
        assert report.special.is_yes

    def test_report_scans_each_word_once(self, monkeypatch):
        """Every class search of a run reads its neighbours from the run's
        table, so no word is scanned twice however often it is probed."""
        scanned = []

        def counted(w, pres):
            scanned.append(w)
            return one_step_rewrites(w, pres)

        monkeypatch.setattr(rewriting, "one_step_rewrites", counted)
        specialness_report(ClassSearch(GROW, TIGHT_CAPS), W("x"))
        assert scanned and len(scanned) == len(set(scanned))


def stated_equations(wit):
    """The equations a pathology witness states, in its docstring's order."""
    if isinstance(wit, SelfIntersection):
        return [(wit.a, wit.a + wit.p + wit.b), (wit.c, wit.b + wit.p + wit.c)]
    if isinstance(wit, SelfOsculation):
        return [(wit.a, wit.a + wit.k + wit.h), (wit.b, wit.h + wit.k + wit.b)]
    au, wb = wit.a + wit.u, wit.w + wit.b
    return [(au, au + wit.v + wit.xi), (wb, wit.xi + wit.v + wb)]


@pytest.mark.parametrize(
    "pres, base, from_splits",
    [
        (DIRTY, "a b", True),
        (OSC_PLAIN, "x k h k h k y", True),
        (OSC_EMPTY, "x k k k y", True),
        (INTEROSC, "c u v w d", False),
    ],
    ids=["dirty", "osc_plain", "osc_empty", "interosc"],
)
def test_every_witness_carries_evidence_that_replays(pres, base, from_splits):
    """Every witness of the report derives the equations it states in
    ``evidence``, one derivation per equation, in order, each ending at
    the equation's two sides (an empty middle printed as ``b = p``
    included); those read off absorbing splits run a → a·p·b and
    c → b·p·c."""
    search = ClassSearch(pres, TIGHT_CAPS)
    report = specialness_report(search, W(base))
    witnesses = (
        report.self_intersections + report.self_osculations + report.inter_osculations
    )
    assert witnesses
    for wit in witnesses:
        assert wit.evidence, wit
        equations = stated_equations(wit)
        assert len(wit.evidence) == len(equations), wit
        for deriv, sides in zip(wit.evidence, equations):
            deriv.replay(pres)
            assert {deriv.start, deriv.end(pres)} == set(sides), wit
    splits, _ = find_absorbing_splits(search, W(base))
    assert bool(splits) == from_splits
    for wit in splits:
        first, second = wit.evidence
        assert (first.start, first.end(pres)) == (wit.a, wit.a + wit.p + wit.b)
        assert (second.start, second.end(pres)) == (wit.c, wit.b + wit.p + wit.c)


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
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), w)
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
        ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), w)
        catalog = hyperplane_catalog(ball)
        assert catalog.exact
        assert sum(len(es) for _, es in catalog.edges_of) == len(ball.edges)
        for hid in catalog.ids:
            assert hid.exact

    @given(small_comm_words)
    @settings(max_examples=20, deadline=None)
    def test_no_pathologies_on_commuting_classes(self, w):
        report = specialness_report(ClassSearch(COMM, DEFAULT_CAPS), w)
        assert report.clean.is_yes
        assert report.special.is_yes
        assert not report.self_intersections
        assert not report.self_osculations
        assert not report.inter_osculations

"""Left hyperplanes, triviality, and the graph-of-groups decomposition.

Frozen expectations come from two independent sources: the multiset word
family a b^m c^n obeys closed-form counting laws (left hyperplanes
2mn+m+n-1, merged vertices mn+m+n, free rank mn), and the small instances
(hexagon, torus product of two triangles, padded pair) were worked out by
hand.  Euler characteristics of complete balls give a second, independent
route to every free rank.
"""

import json
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COMM,
    CYC3,
    DEFAULT_CAPS,
    GROW,
    HALFPAD,
    PADPAIR,
    PADPAIR_CAPS,
    SMALL_CAPS,
    TIGHT_CAPS,
    W,
)
from diagram_groups.decomposition import (
    complete_ball_presentation,
    decompose,
    euler_characteristic,
    factor_group,
    free_rank,
    fundamental_group_presentation,
    gog_to_dot,
    gog_to_json,
    is_trivial_group,
    left_hyperplanes,
    simplify_presentation,
)
from diagram_groups import decomposition, squier
from diagram_groups.diagrams import is_reduced
from diagram_groups.rewriting import (
    ClassSearch,
    Presentation,
    Relation,
    enumerate_class,
    parse_presentation,
)
from diagram_groups.special import scan_self_intersections, scan_self_osculations
from diagram_groups.squier import build_ball, hyperplane_catalog, hyperplane_id

# product of two identified triples: the class of a1 b1 is a torus, so the
# group is Z x Z — the smallest complete instance with squares and a
# nontrivial group
TORUS = parse_presentation(
    """
    letters: a1 a2 a3 b1 b2 b3
    rel: a1 = a2
    rel: a2 = a3
    rel: a3 = a1
    rel: b1 = b2
    rel: b2 = b3
    rel: b3 = b1
    """
)


def ubase(m: int, n: int) -> tuple:
    return ("a",) + ("b",) * m + ("c",) * n


UPAIRS = [(m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5]


# ---------------------------------------------------------------------------
# relator shape oracle (independent of the module's internal normal form)
# ---------------------------------------------------------------------------


def cyc_reduce(word):
    out = []
    for g, e in word:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    while len(out) >= 2 and out[0][0] == out[-1][0] and out[0][1] == -out[-1][1]:
        out = out[1:-1]
    return tuple(out)


def cyclic_key(word):
    word = cyc_reduce(word)
    inv = tuple((g, -e) for g, e in reversed(word))
    rotations = [
        base[i:] + base[:i] for base in (word, inv) for i in range(max(1, len(base)))
    ]
    return min(rotations)


def conjugate(core, h, power):
    if power >= 0:
        return ((h, -1),) * power + core + ((h, 1),) * power
    return ((h, 1),) * (-power) + core + ((h, -1),) * (-power)


def commutator_family_size(doc):
    """K if the relators are {[t, h^-i a h^i] : 0 <= i < K} under some
    assignment of the three generators (either sign of h), else None."""
    if len(doc.generators) != 3:
        return None
    keys = {cyclic_key(r) for r in doc.relators}
    n = len(doc.relators)
    for a, t, h in permutations(range(3)):
        for sgn in (1, -1):
            want = set()
            for i in range(n):
                core_inv = conjugate(((a, -1),), h, sgn * i)
                core = conjugate(((a, 1),), h, sgn * i)
                rel = ((t, -1),) + core_inv + ((t, 1),) + core
                want.add(cyclic_key(rel))
            if want == keys:
                return n
    return None


def test_cyclic_key_oracle_basics():
    assert cyclic_key(((0, 1), (0, -1))) == ()
    # a commutator equals its own inverse up to rotation
    comm = ((0, -1), (1, -1), (0, 1), (1, 1))
    inv = ((1, -1), (0, -1), (1, 1), (0, 1))
    assert cyclic_key(comm) == cyclic_key(inv)


# ---------------------------------------------------------------------------
# triviality
# ---------------------------------------------------------------------------


def test_trivial_verdicts_on_corpus():
    assert is_trivial_group(ClassSearch(COMM, DEFAULT_CAPS), W("a")).is_yes
    assert is_trivial_group(ClassSearch(COMM, DEFAULT_CAPS), W("a b")).is_yes
    assert is_trivial_group(ClassSearch(COMM, DEFAULT_CAPS), W("a a b b")).is_yes
    assert is_trivial_group(ClassSearch(COMM, DEFAULT_CAPS), W("a b c")).is_no
    assert is_trivial_group(ClassSearch(CYC3, DEFAULT_CAPS), W("a")).is_no
    assert is_trivial_group(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1")).is_no
    # absorbing chain without loops: no certificate either way within caps
    assert is_trivial_group(ClassSearch(HALFPAD, TIGHT_CAPS), W("a")).is_unknown


def test_trivial_no_witness_is_reduced_spherical_loop():
    verdict = is_trivial_group(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1"))
    loop = verdict.witness
    assert loop.is_spherical and loop.cells > 0
    assert is_reduced(loop)
    # the witness lives in the class it talks about
    assert loop.top in enumerate_class(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1"))


def test_triviality_is_a_class_invariant():
    for u, v in [(W("a1"), W("a3")), (W("a1"), W("a1 p p"))]:
        a = is_trivial_group(ClassSearch(PADPAIR, PADPAIR_CAPS), u)
        b = is_trivial_group(ClassSearch(PADPAIR, PADPAIR_CAPS), v)
        assert a.value == b.value
    assert is_trivial_group(ClassSearch(COMM, DEFAULT_CAPS), W("b a")).is_yes


def test_trivial_empty_word_convention():
    assert is_trivial_group(ClassSearch(COMM, DEFAULT_CAPS), ()).is_yes


def test_trivial_singleton_class():
    # no relation applies to the bare padding letter at all
    assert is_trivial_group(ClassSearch(PADPAIR, PADPAIR_CAPS), W("p")).is_yes


# ---------------------------------------------------------------------------
# left hyperplane scans
# ---------------------------------------------------------------------------


def padpair_scan():
    return left_hyperplanes(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))


def test_left_scan_padpair_frozen():
    scan = padpair_scan()
    ids = [str(h.id) for h in scan.hyperplanes]
    assert ids == [
        "[1 | r0 | b1]",
        "[1 | r1 | b1]",
        "[1 | r2 | b1]",
        "[1 | r6 | b1]",
    ]
    assert [str(h) for h in scan.rejected] == [
        "[a1 | r3 | 1]",
        "[a1 | r4 | 1]",
        "[a1 | r5 | 1]",
        "[a1 | r7 | 1]",
    ]
    assert scan.undecided == ()
    # the base class is infinite, so the catalog cannot be exact
    assert not scan.exact


def test_left_scan_padpair_splits_frozen():
    scan = padpair_scan()
    splits = {
        str(h.id): (
            h.source_split.prefix, h.source_split.letter, h.source_split.suffix,
            h.target_split.prefix, h.target_split.letter, h.target_split.suffix,
        )
        for h in scan.hyperplanes
    }
    assert splits == {
        "[1 | r0 | b1]": ((), "a1", (), (), "a2", ()),
        "[1 | r1 | b1]": ((), "a2", (), (), "a3", ()),
        "[1 | r2 | b1]": ((), "a3", (), (), "a1", ()),
        "[1 | r6 | b1]": ((), "a1", (), (), "a1", ("p",)),
    }


def test_left_scan_hexagon_frozen():
    scan = left_hyperplanes(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
    assert sorted(str(h.id) for h in scan.hyperplanes) == [
        "[a | r2 | 1]",
        "[b | r1 | 1]",
        "[c | r0 | 1]",
    ]
    assert scan.exact and scan.undecided == ()


def test_left_scan_undecidable_contexts():
    # every hyperplane of the absorbing chain has an unknown left context
    scan = left_hyperplanes(ClassSearch(HALFPAD, TIGHT_CAPS), W("a"))
    assert scan.hyperplanes == ()
    assert len(scan.undecided) == 7  # [1 | r0 | p^k] for k = 0..6 at these caps
    assert all(h.relation == 0 and h.left == () for h in scan.undecided)
    assert not scan.exact


@pytest.mark.parametrize(
    "pres,base,caps",
    [
        (COMM, W("a b c"), DEFAULT_CAPS),
        (COMM, W("a b b c c"), DEFAULT_CAPS),
        (PADPAIR, W("a1 b1"), PADPAIR_CAPS),
    ],
    ids=["hexagon", "u22", "padpair"],
)
def test_leftness_is_orientation_independent(pres, base, caps):
    # u ~ v modulo the presentation, so extending the left context through
    # either side of the rewrite reaches the same congruence class
    ball = build_ball(ClassSearch(pres, caps), base)
    catalog = hyperplane_catalog(ball)
    for hid in catalog.ids:
        rel = pres.relations[hid.relation]
        via_u = is_trivial_group(ball.search, hid.left + rel.lhs)
        via_v = is_trivial_group(ball.search, hid.left + rel.rhs)
        assert via_u.value == via_v.value


@pytest.mark.parametrize(
    "pres,base,caps",
    [
        (COMM, W("a b c"), DEFAULT_CAPS),
        (COMM, W("a b b c c"), DEFAULT_CAPS),
        (PADPAIR, W("a1 b1"), PADPAIR_CAPS),
    ],
    ids=["hexagon", "u22", "padpair"],
)
def test_split_boundaries_audit(pres, base, caps):
    # the split is the *maximal* trivial prefix: trivial up to the cut
    # letter, nontrivial the moment it is included, remainder matches
    search = ClassSearch(pres, caps)
    scan = left_hyperplanes(search, base)
    assert scan.hyperplanes
    for h in scan.hyperplanes:
        rel = pres.relations[h.id.relation]
        for split, side in ((h.source_split, rel.lhs), (h.target_split, rel.rhs)):
            assert split.prefix + (split.letter,) + split.suffix == side
            grown = h.id.left + split.prefix
            assert is_trivial_group(search, grown).is_yes
            assert is_trivial_group(search, grown + (split.letter,)).is_no


@pytest.mark.parametrize(
    "pres,base,caps",
    [
        (COMM, W("a b b c c"), DEFAULT_CAPS),
        (PADPAIR, W("a1 b1"), PADPAIR_CAPS),
    ],
    ids=["u22", "padpair"],
)
def test_left_hyperplanes_clean_and_pairwise_disjoint(pres, base, caps):
    # left hyperplanes neither self-intersect nor self-osculate, and no two
    # of them cross: on these balls nothing pathological exists at all, and
    # the crossing graph never joins two left ids
    ball = build_ball(ClassSearch(pres, caps), base)
    catalog = hyperplane_catalog(ball)
    hits, _ = scan_self_intersections(ball)
    assert hits == ()
    osc, _ = scan_self_osculations(ball)
    assert osc == ()
    scan = left_hyperplanes(ball.search, base)
    left_ids = {h.id for h in scan.hyperplanes}
    ids = ball.catalog.ids
    for i, j, _ in ball.order.crossings:
        assert not (ids[i] in left_ids and ids[j] in left_ids)


@pytest.mark.parametrize(
    "base", [W("a b c"), W("a b b c c")], ids=["hexagon", "u22"]
)
def test_positional_leftness_on_carrier_words(base):
    # on a word a·u·b carrying a left hyperplane, a rewrite site is dual to
    # a non-left hyperplane exactly when it stays inside a·p or inside s·b;
    # sites straddling the cut letter are dual to left hyperplanes
    search = ClassSearch(COMM, DEFAULT_CAPS)
    scan = left_hyperplanes(search, base)
    from diagram_groups.rewriting import one_step_rewrites

    for h in scan.hyperplanes:
        rel = COMM.relations[h.id.relation]
        word = h.id.left + rel.lhs + h.id.right
        cut = len(h.id.left) + len(h.source_split.prefix)
        for move, _ in one_step_rewrites(word, COMM):
            src, _ = move.sides(COMM)
            inside = (move.offset + len(src) <= cut) or (move.offset >= cut + 1)
            hid = hyperplane_id(search, word, move)
            ctx = hid.left
            lrel = COMM.relations[hid.relation]
            is_left = (
                is_trivial_group(search, ctx).is_yes
                and is_trivial_group(search, ctx + lrel.lhs).is_no
            )
            assert is_left == (not inside)


@pytest.mark.parametrize(
    "base", [W("a b c"), W("a b b c")], ids=["hexagon", "u21"]
)
def test_vertex_space_is_cut_component(base):
    # cutting the 1-skeleton along all left-dual edges leaves, around the
    # carrier word of each left hyperplane, exactly the product of the two
    # split classes
    ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), base)
    assert ball.complete
    catalog = hyperplane_catalog(ball)
    scan = left_hyperplanes(ball.search, base)
    left_ids = {h.id for h in scan.hyperplanes}
    adj = {v: set() for v in ball.vertices}
    for e in ball.edges:
        if catalog.ids[catalog.edge_index[e]] in left_ids:
            continue
        t = e.target(COMM)
        adj[e.source].add(t)
        adj[t].add(e.source)
    for h in scan.hyperplanes:
        rel = COMM.relations[h.id.relation]
        carrier = h.id.left + rel.lhs + h.id.right
        seen = {carrier}
        queue = [carrier]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        lefts = enumerate_class(ball.search, h.id.left + h.source_split.prefix)
        rights = enumerate_class(ball.search, h.source_split.suffix + h.id.right)
        assert lefts.complete and rights.complete
        product = {
            x + (h.source_split.letter,) + y
            for x in lefts.members
            for y in rights.members
        }
        assert seen == product


# ---------------------------------------------------------------------------
# decompose: counting laws and frozen shapes
# ---------------------------------------------------------------------------


def test_decompose_hexagon_frozen():
    g = decompose(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
    assert sorted(v.descriptor() for v in g.vertices) == [
        "S(a b) · c",
        "S(a c) · b",
        "S(b c) · a",
    ]
    assert len(g.edges) == 3
    assert g.exact
    assert {(e.minus_vertex, e.plus_vertex) for e in g.edges} == {
        (0, 1), (2, 1), (2, 0)
    }
    assert free_rank(g) == 1


@pytest.mark.parametrize("m,n", UPAIRS, ids=[f"u{m}{n}" for m, n in UPAIRS])
def test_decompose_counting_law(m, n):
    g = decompose(ClassSearch(COMM, DEFAULT_CAPS), ubase(m, n))
    assert len(g.edges) == 2 * m * n + m + n - 1
    assert len(g.vertices) == m * n + m + n
    assert g.exact
    assert free_rank(g) == m * n


@pytest.mark.parametrize("m,n", UPAIRS, ids=[f"u{m}{n}" for m, n in UPAIRS])
def test_rank_equals_one_minus_euler(m, n):
    ball = build_ball(ClassSearch(COMM, DEFAULT_CAPS), ubase(m, n))
    g = decompose(ball.search, ubase(m, n))
    assert free_rank(g) == 1 - euler_characteristic(ball)


def test_decompose_padpair_frozen():
    g = decompose(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
    assert [v.descriptor() for v in g.vertices] == [
        "a1 · S(b1)",
        "a2 · S(b1)",
        "a3 · S(b1)",
    ]
    assert len(g.edges) == 4
    loops = [e for e in g.edges if e.minus_vertex == e.plus_vertex]
    assert len(loops) == 1
    assert str(loops[0].hyperplane.id) == "[1 | r6 | b1]"
    assert loops[0].minus_vertex == 0  # based at a1 · S(b1)
    for v in g.vertices:
        assert v.left_group.is_trivial
        assert v.right_group.kind == "free"
        assert len(v.right_group.ball.loops) == 10  # p-depth within caps
        assert not v.right_group.exact
    for e in g.edges:
        assert e.left_group.is_trivial
        assert e.right_group.kind == "free"
    assert not g.exact
    with pytest.raises(ValueError, match="trivial"):
        free_rank(g)


def test_decompose_merges_by_class_not_by_spelling():
    # the loop hyperplane's target split has suffix p, and rep(p b1) = b1,
    # so both ends land on the same merged vertex — spelling differs, class
    # agrees
    g = decompose(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
    loop = next(e for e in g.edges if e.minus_vertex == e.plus_vertex)
    assert loop.hyperplane.target_split.suffix == W("p")
    assert g.vertices[loop.plus_vertex].right == W("b1")


def test_degenerate_decomposition_single_vertex():
    g = decompose(ClassSearch(COMM, DEFAULT_CAPS), W("a"))
    assert len(g.vertices) == 1 and g.edges == ()
    assert g.vertices[0].letter is None
    assert free_rank(g) == 0


def test_degenerate_decomposition_unknown_group():
    g = decompose(ClassSearch(HALFPAD, TIGHT_CAPS), W("a"))
    assert len(g.vertices) == 1 and g.edges == ()
    assert len(g.undecided) == 7
    assert not g.exact
    with pytest.raises(ValueError, match="trivial"):
        free_rank(g)


# ---------------------------------------------------------------------------
# euler characteristic
# ---------------------------------------------------------------------------


def test_euler_frozen_values():
    search = ClassSearch(COMM, DEFAULT_CAPS)
    assert euler_characteristic(build_ball(search, W("a b c"))) == 0
    assert euler_characteristic(build_ball(search, W("a"))) == 1
    assert euler_characteristic(build_ball(search, W("a a b b"))) == 1
    assert euler_characteristic(build_ball(search, W("a b b c c"))) == -3


def test_euler_requires_complete_ball():
    ball = build_ball(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
    assert not ball.complete
    with pytest.raises(ValueError, match="complete"):
        euler_characteristic(ball)


words5 = st.lists(st.sampled_from("abc"), min_size=1, max_size=5).map(tuple)


@given(words5)
@settings(max_examples=60, deadline=None)
def test_rank_euler_law_on_random_short_words(w):
    # short words over three pairwise-commuting letters always decompose
    # with all-trivial groups, so both rank routes must agree
    search = ClassSearch(COMM, DEFAULT_CAPS)
    g = decompose(search, w)
    assert g.exact
    ball = build_ball(search, w)
    assert free_rank(g) == 1 - euler_characteristic(ball)


# ---------------------------------------------------------------------------
# factor groups and free bases
# ---------------------------------------------------------------------------


def test_factor_group_kinds():
    assert factor_group(ClassSearch(COMM, DEFAULT_CAPS), W("a b")).kind == "trivial"
    assert factor_group(ClassSearch(COMM, DEFAULT_CAPS), ()).kind == "trivial"
    fg = factor_group(ClassSearch(CYC3, DEFAULT_CAPS), W("a"))
    assert fg.kind == "free" and len(fg.ball.loops) == 1 and fg.exact
    fb1 = factor_group(ClassSearch(PADPAIR, PADPAIR_CAPS), W("b1"))
    assert fb1.kind == "free" and len(fb1.ball.loops) == 10 and not fb1.exact
    ftor = factor_group(ClassSearch(TORUS, DEFAULT_CAPS), W("a1 b1"))
    assert ftor.kind == "presented" and ftor.exact


def free_basis(search, w):
    """The ball of ``w``, whose loops are a free basis of its group when its
    enumerated piece is a graph; None as soon as a square shows up (the
    group need not be free then)."""
    search.pres.check_word(w)
    ball = build_ball(search, search.rep(w)[0])
    return None if ball.squares else ball


def test_free_basis_shapes():
    assert len(free_basis(ClassSearch(CYC3, DEFAULT_CAPS), W("a")).loops) == 1
    assert len(free_basis(ClassSearch(COMM, DEFAULT_CAPS), W("a b")).loops) == 0
    # squares kill the graph shortcut
    assert free_basis(ClassSearch(COMM, DEFAULT_CAPS), W("a a b b")) is None
    fb = free_basis(ClassSearch(PADPAIR, PADPAIR_CAPS), W("b1"))
    assert len(fb.loops) == 10 and not fb.complete


def test_free_basis_express_basis_loops():
    from diagram_groups.decomposition import _loop_diagram

    fb = free_basis(ClassSearch(CYC3, DEFAULT_CAPS), W("a"))
    loop = _loop_diagram(fb, fb.loops[0])
    assert fb.express(loop) == ((0, 1),)
    from diagram_groups.diagrams import inverse

    assert fb.express(inverse(loop)) == ((0, -1),)


@pytest.mark.parametrize("pres, base", [(COMM, "a a b b c c c"), (CYC3, "a b a b")])
def test_decompose_builds_each_ball_once(monkeypatch, pres, base):
    # the scan, triviality tests and free bases ask for some bases again;
    # every ask after the first reads the ball the run already holds
    asks, builds = [], []

    def counted(calls, fn):
        def call(search, w):
            calls.append(w)
            return fn(search, w)
        return call

    monkeypatch.setattr(squier, "_build_ball", counted(builds, squier._build_ball))
    monkeypatch.setattr(decomposition, "build_ball", counted(asks, squier.build_ball))
    decompose(ClassSearch(pres, DEFAULT_CAPS), W(base))
    assert len(asks) > len(builds) == len(set(builds))
    assert set(builds) == set(asks)


def test_factor_group_reads_one_ball(monkeypatch):
    # under depth caps the representative is not idempotent: GROW x c c has
    # rep x a, whose own rep is x; the triviality verdict and the factor
    # must both describe the ball of x a
    search = ClassSearch(GROW, SMALL_CAPS)
    assert search.rep(W("x c c"))[0] == W("x a")
    assert search.rep(W("x a"))[0] == W("x")
    builds = []
    real = squier._build_ball

    def counted(search, w):
        builds.append(w)
        return real(search, w)

    monkeypatch.setattr(squier, "_build_ball", counted)
    fg = factor_group(search, W("x c c"), depth=0)
    assert fg.seed == W("x a")
    assert builds == [W("x a")]


def test_free_basis_express_rejects_foreign_top():
    fb = free_basis(ClassSearch(PADPAIR, PADPAIR_CAPS), W("b1"))
    from diagram_groups.diagrams import eps

    assert fb.express(eps(PADPAIR, W("a1"))) is None


# ---------------------------------------------------------------------------
# fundamental group presentations
# ---------------------------------------------------------------------------


def test_pi1_hexagon_is_free_of_rank_one():
    gog = decompose(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
    doc = fundamental_group_presentation(gog)
    assert len(doc.generators) == 1 and doc.relators == ()
    assert doc.exact and not doc.truncated


def test_pi1_u22_is_free_of_rank_four():
    doc = fundamental_group_presentation(
        decompose(ClassSearch(COMM, DEFAULT_CAPS), W("a b b c c"))
    )
    assert len(doc.generators) == 4 and doc.relators == ()
    assert doc.exact


def test_pi1_padpair_commutator_family():
    doc = fundamental_group_presentation(
        decompose(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
    )
    assert doc.truncated and not doc.exact
    assert len(doc.generators) == 3
    # [t, a^{h^i}] for i = 0..9: ten conjugation depths fit under the caps
    assert commutator_family_size(doc) == 10


def test_pi1_torus_decompose_route():
    gog = decompose(ClassSearch(TORUS, DEFAULT_CAPS), W("a1 b1"))
    doc = fundamental_group_presentation(gog)
    assert doc.exact and not doc.truncated
    assert len(doc.generators) == 2
    assert [cyclic_key(r) for r in doc.relators] == [
        cyclic_key(((0, -1), (1, -1), (0, 1), (1, 1)))
    ]


def test_pi1_torus_direct_route_agrees():
    doc = simplify_presentation(
        complete_ball_presentation(ClassSearch(TORUS, DEFAULT_CAPS), W("a1 b1"))
    )
    assert len(doc.generators) == 2
    assert [cyclic_key(r) for r in doc.relators] == [
        cyclic_key(((0, -1), (1, -1), (0, 1), (1, 1)))
    ]
    assert doc.exact


def test_direct_route_trivial_group_collapses():
    doc = simplify_presentation(
        complete_ball_presentation(ClassSearch(COMM, DEFAULT_CAPS), W("a a b b"))
    )
    assert doc.generators == () and doc.relators == ()


def test_direct_route_requires_complete_class():
    with pytest.raises(ValueError, match="completely"):
        complete_ball_presentation(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))


def test_simplify_kills_defined_generators():
    from diagram_groups.decomposition import GroupPresentation

    # the first relator identifies x and y; one of them must disappear and
    # the commutator survives on the remaining pair
    doc = GroupPresentation(
        ("x", "y", "z"),
        (
            ((1, 1), (0, -1)),  # y x^-1
            ((1, -1), (2, -1), (1, 1), (2, 1)),  # [y, z]
        ),
        False,
        True,
    )
    out = simplify_presentation(doc)
    # x has the lower index, so the defining relator eliminates it
    assert out.generators == ("y", "z")
    assert len(out.relators) == 1
    assert cyclic_key(out.relators[0]) == cyclic_key(
        ((0, -1), (1, -1), (0, 1), (1, 1))
    )


def test_simplify_is_idempotent_and_deterministic(monkeypatch):
    # the presentation as built, before its cleanup
    monkeypatch.setattr(decomposition, "simplify_presentation", lambda doc: doc)
    doc = fundamental_group_presentation(
        decompose(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
    )
    once = simplify_presentation(doc)
    assert simplify_presentation(once).relators == once.relators
    again = simplify_presentation(doc)
    assert once.generators == again.generators and once.relators == again.relators


def test_presentation_str_rendering():
    from diagram_groups.decomposition import GroupPresentation

    doc = GroupPresentation(("x", "t"), (((0, -1), (1, 1), (0, 1), (1, -1)),), True, False)
    text = str(doc)
    assert text.startswith("⟨ x, t |") and text.endswith("… ⟩")
    assert "x^-1 t x t^-1" in text


# ---------------------------------------------------------------------------
# mirroring: the right-handed decomposition
# ---------------------------------------------------------------------------


def mirror_word(w):
    return tuple(reversed(w))


def mirror_presentation(pres):
    """Reverse every relation side; mirroring words then swaps the roles of
    left and right contexts, so the right-handed decomposition of a word is
    the left-handed one of its mirror."""
    return Presentation(
        pres.letters,
        tuple(Relation(mirror_word(r.lhs), mirror_word(r.rhs)) for r in pres.relations),
    )


def test_mirror_is_an_involution():
    for pres in (GROW, PADPAIR, COMM):
        assert mirror_presentation(mirror_presentation(pres)) == pres
    assert mirror_word(mirror_word(W("a b c"))) == W("a b c")


def test_right_decomposition_of_absorbing_chain():
    # the left scan of x over x=xa drowns in truncated context classes, but
    # the mirrored (right-handed) scan cuts cleanly: one hyperplane per
    # letter relation plus the absorption itself
    mg = mirror_presentation(GROW)
    base = mirror_word(W("x"))
    scan = left_hyperplanes(ClassSearch(mg, TIGHT_CAPS), base)
    assert sorted(str(h.id) for h in scan.hyperplanes) == [
        "[1 | r0 | 1]",
        "[1 | r1 | x]",
        "[1 | r2 | x]",
        "[1 | r3 | x]",
    ]
    g = decompose(ClassSearch(mg, TIGHT_CAPS), base, depth=0)
    assert sorted(v.descriptor() for v in g.vertices) == [
        "a · S(x)",
        "b · S(x)",
        "c · S(x)",
        "x",
    ]
    assert len(g.edges) == 4
    kinds = {v.descriptor(): v.right_group.kind for v in g.vertices}
    assert kinds["x"] == "trivial"
    assert kinds["a · S(x)"] == "unknown"  # depth exhausted, class truncated
    with pytest.raises(ValueError, match="trivial"):
        free_rank(g)


def test_right_decomposition_recursion_fills_in_presentations():
    mg = mirror_presentation(GROW)
    g = decompose(ClassSearch(mg, TIGHT_CAPS), mirror_word(W("x")), depth=1)
    kinds = {v.descriptor(): v.right_group.kind for v in g.vertices}
    assert kinds["a · S(x)"] == "presented"
    sub = next(
        v.right_group.presentation
        for v in g.vertices
        if v.descriptor() == "a · S(x)"
    )
    assert sub.truncated and not sub.exact  # honest about the caps


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_shape_and_determinism():
    g = decompose(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1"))
    blob = gog_to_json(g)
    assert sorted(blob.keys()) == [
        "base", "edges", "exact", "notes", "undecided", "vertices",
    ]
    assert len(blob["vertices"]) == 3 and len(blob["edges"]) == 4
    assert blob["edges"][3]["target_split"]["suffix"] == ["p"]
    assert blob["vertices"][0]["right_group"]["rank"] == 10
    again = gog_to_json(decompose(ClassSearch(PADPAIR, PADPAIR_CAPS), W("a1 b1")))
    assert json.dumps(blob, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_dot_output():
    g = decompose(ClassSearch(COMM, DEFAULT_CAPS), W("a b c"))
    dot = gog_to_dot(g)
    assert dot.startswith("graph decomposition {")
    assert dot.count(" -- ") == 3
    assert 'label="S(a b) · c"' in dot

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
    TIGHT_CAPS,
    W,
)
from diagram_groups.decomposition import (
    complete_ball_presentation,
    decompose,
    euler_characteristic,
    factor_group,
    free_basis,
    free_rank,
    fundamental_group_presentation,
    gog_to_dot,
    gog_to_json,
    is_trivial_group,
    left_hyperplanes,
    mirror_presentation,
    mirror_word,
    simplify_presentation,
)
from diagram_groups.diagrams import is_reduced
from diagram_groups.rewriting import enumerate_class, parse_presentation
from diagram_groups.squier import (
    build_ball,
    hyperplane_catalog,
    hyperplane_id,
    scan_self_intersections,
    scan_self_osculations,
    transversality_graph,
)

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
    assert is_trivial_group(COMM, W("a"), DEFAULT_CAPS).is_yes
    assert is_trivial_group(COMM, W("a b"), DEFAULT_CAPS).is_yes
    assert is_trivial_group(COMM, W("a a b b"), DEFAULT_CAPS).is_yes
    assert is_trivial_group(COMM, W("a b c"), DEFAULT_CAPS).is_no
    assert is_trivial_group(CYC3, W("a"), DEFAULT_CAPS).is_no
    assert is_trivial_group(PADPAIR, W("a1"), PADPAIR_CAPS).is_no
    # absorbing chain without loops: no certificate either way within caps
    assert is_trivial_group(HALFPAD, W("a"), TIGHT_CAPS).is_unknown


def test_trivial_no_witness_is_reduced_spherical_loop():
    verdict = is_trivial_group(PADPAIR, W("a1"), PADPAIR_CAPS)
    loop = verdict.witness
    assert loop.is_spherical and loop.cells > 0
    assert is_reduced(loop)
    # the witness lives in the class it talks about
    assert loop.top in enumerate_class(W("a1"), PADPAIR, PADPAIR_CAPS)


def test_triviality_is_a_class_invariant():
    for u, v in [(W("a1"), W("a3")), (W("a1"), W("a1 p p"))]:
        a = is_trivial_group(PADPAIR, u, PADPAIR_CAPS)
        b = is_trivial_group(PADPAIR, v, PADPAIR_CAPS)
        assert a.value == b.value
    assert is_trivial_group(COMM, W("b a"), DEFAULT_CAPS).is_yes


def test_trivial_empty_word_convention():
    assert is_trivial_group(COMM, (), DEFAULT_CAPS).is_yes


def test_trivial_singleton_class():
    # no relation applies to the bare padding letter at all
    assert is_trivial_group(PADPAIR, W("p"), PADPAIR_CAPS).is_yes


# ---------------------------------------------------------------------------
# left hyperplane scans
# ---------------------------------------------------------------------------


def padpair_scan():
    return left_hyperplanes(PADPAIR, W("a1 b1"), PADPAIR_CAPS)


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
    assert all(h.source_split.exact and h.target_split.exact
               for h in scan.hyperplanes)


def test_left_scan_hexagon_frozen():
    scan = left_hyperplanes(COMM, W("a b c"), DEFAULT_CAPS)
    assert sorted(str(h.id) for h in scan.hyperplanes) == [
        "[a | r2 | 1]",
        "[b | r1 | 1]",
        "[c | r0 | 1]",
    ]
    assert scan.exact and scan.undecided == ()


def test_left_scan_undecidable_contexts():
    # every hyperplane of the absorbing chain has an unknown left context
    scan = left_hyperplanes(HALFPAD, W("a"), TIGHT_CAPS)
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
    ball = build_ball(pres, base, caps)
    catalog = hyperplane_catalog(ball)
    for hid in catalog.ids:
        rel = pres.relations[hid.relation]
        via_u = is_trivial_group(pres, hid.left + rel.lhs, caps)
        via_v = is_trivial_group(pres, hid.left + rel.rhs, caps)
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
    scan = left_hyperplanes(pres, base, caps)
    assert scan.hyperplanes
    for h in scan.hyperplanes:
        rel = pres.relations[h.id.relation]
        for split, side in ((h.source_split, rel.lhs), (h.target_split, rel.rhs)):
            assert split.prefix + (split.letter,) + split.suffix == side
            grown = h.id.left + split.prefix
            assert is_trivial_group(pres, grown, caps).is_yes
            assert is_trivial_group(pres, grown + (split.letter,), caps).is_no


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
    # the transversality graph never joins two left ids
    ball = build_ball(pres, base, caps)
    catalog = hyperplane_catalog(ball)
    hits, _ = scan_self_intersections(ball)
    assert hits == ()
    osc, _ = scan_self_osculations(ball)
    assert osc == ()
    scan = left_hyperplanes(pres, base, caps)
    left_ids = {h.id for h in scan.hyperplanes}
    graph = transversality_graph(ball)
    for i, j, _ in graph.edges:
        assert not (graph.ids[i] in left_ids and graph.ids[j] in left_ids)


@pytest.mark.parametrize(
    "base", [W("a b c"), W("a b b c c")], ids=["hexagon", "u22"]
)
def test_positional_leftness_on_carrier_words(base):
    # on a word a·u·b carrying a left hyperplane, a rewrite site is dual to
    # a non-left hyperplane exactly when it stays inside a·p or inside s·b;
    # sites straddling the cut letter are dual to left hyperplanes
    caps = DEFAULT_CAPS
    scan = left_hyperplanes(COMM, base, caps)
    from diagram_groups.rewriting import one_step_rewrites

    for h in scan.hyperplanes:
        rel = COMM.relations[h.id.relation]
        word = h.id.left + rel.lhs + h.id.right
        cut = len(h.id.left) + len(h.source_split.prefix)
        for move, _ in one_step_rewrites(word, COMM):
            src, _ = move.sides(COMM)
            inside = (move.offset + len(src) <= cut) or (move.offset >= cut + 1)
            hid = hyperplane_id(word, move, COMM, caps, oriented=False)
            ctx = hid.left
            lrel = COMM.relations[hid.relation]
            is_left = (
                is_trivial_group(COMM, ctx, caps).is_yes
                and is_trivial_group(COMM, ctx + lrel.lhs, caps).is_no
            )
            assert is_left == (not inside)


@pytest.mark.parametrize(
    "base", [W("a b c"), W("a b b c")], ids=["hexagon", "u21"]
)
def test_vertex_space_is_cut_component(base):
    # cutting the 1-skeleton along all left-dual edges leaves, around the
    # carrier word of each left hyperplane, exactly the product of the two
    # split classes
    caps = DEFAULT_CAPS
    ball = build_ball(COMM, base, caps)
    assert ball.complete
    catalog = hyperplane_catalog(ball)
    scan = left_hyperplanes(COMM, base, caps)
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
        lefts = enumerate_class(h.id.left + h.source_split.prefix, COMM, caps)
        rights = enumerate_class(
            h.source_split.suffix + h.id.right, COMM, caps
        )
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
    g = decompose(COMM, W("a b c"), DEFAULT_CAPS)
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
    assert g.component_count() == 1


@pytest.mark.parametrize("m,n", UPAIRS, ids=[f"u{m}{n}" for m, n in UPAIRS])
def test_decompose_counting_law(m, n):
    g = decompose(COMM, ubase(m, n), DEFAULT_CAPS)
    assert len(g.edges) == 2 * m * n + m + n - 1
    assert len(g.vertices) == m * n + m + n
    assert g.exact
    assert free_rank(g) == m * n


@pytest.mark.parametrize("m,n", UPAIRS, ids=[f"u{m}{n}" for m, n in UPAIRS])
def test_rank_equals_one_minus_euler(m, n):
    ball = build_ball(COMM, ubase(m, n), DEFAULT_CAPS)
    g = decompose(COMM, ubase(m, n), DEFAULT_CAPS)
    assert free_rank(g) == 1 - euler_characteristic(ball)


def test_decompose_padpair_frozen():
    g = decompose(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
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
        assert v.right_group.generator_count == 10  # p-depth within caps
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
    g = decompose(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
    loop = next(e for e in g.edges if e.minus_vertex == e.plus_vertex)
    assert loop.hyperplane.target_split.suffix == W("p")
    assert g.vertices[loop.plus_vertex].right == W("b1")


def test_degenerate_decomposition_single_vertex():
    g = decompose(COMM, W("a"), DEFAULT_CAPS)
    assert len(g.vertices) == 1 and g.edges == ()
    assert g.vertices[0].letter is None
    assert free_rank(g) == 0


def test_degenerate_decomposition_unknown_group():
    g = decompose(HALFPAD, W("a"), TIGHT_CAPS)
    assert len(g.vertices) == 1 and g.edges == ()
    assert len(g.undecided) == 7
    assert not g.exact
    with pytest.raises(ValueError, match="trivial"):
        free_rank(g)


# ---------------------------------------------------------------------------
# euler characteristic
# ---------------------------------------------------------------------------


def test_euler_frozen_values():
    assert euler_characteristic(build_ball(COMM, W("a b c"), DEFAULT_CAPS)) == 0
    assert euler_characteristic(build_ball(COMM, W("a"), DEFAULT_CAPS)) == 1
    assert euler_characteristic(build_ball(COMM, W("a a b b"), DEFAULT_CAPS)) == 1
    assert euler_characteristic(build_ball(COMM, W("a b b c c"), DEFAULT_CAPS)) == -3


def test_euler_requires_complete_ball():
    ball = build_ball(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
    assert not ball.complete
    with pytest.raises(ValueError, match="complete"):
        euler_characteristic(ball)


words5 = st.lists(st.sampled_from("abc"), min_size=1, max_size=5).map(tuple)


@given(words5)
@settings(max_examples=60, deadline=None)
def test_rank_euler_law_on_random_short_words(w):
    # short words over three pairwise-commuting letters always decompose
    # with all-trivial groups, so both rank routes must agree
    g = decompose(COMM, w, DEFAULT_CAPS)
    assert g.exact
    ball = build_ball(COMM, w, DEFAULT_CAPS)
    assert free_rank(g) == 1 - euler_characteristic(ball)


# ---------------------------------------------------------------------------
# factor groups and free bases
# ---------------------------------------------------------------------------


def test_factor_group_kinds():
    assert factor_group(COMM, W("a b"), DEFAULT_CAPS).kind == "trivial"
    assert factor_group(COMM, (), DEFAULT_CAPS).kind == "trivial"
    fg = factor_group(CYC3, W("a"), DEFAULT_CAPS)
    assert fg.kind == "free" and fg.generator_count == 1 and fg.exact
    fb1 = factor_group(PADPAIR, W("b1"), PADPAIR_CAPS)
    assert fb1.kind == "free" and fb1.generator_count == 10 and not fb1.exact
    ftor = factor_group(TORUS, W("a1 b1"), DEFAULT_CAPS)
    assert ftor.kind == "presented" and ftor.exact


def test_free_basis_shapes():
    assert free_basis(CYC3, W("a"), DEFAULT_CAPS).rank == 1
    assert free_basis(COMM, W("a b"), DEFAULT_CAPS).rank == 0
    # squares kill the graph shortcut
    assert free_basis(COMM, W("a a b b"), DEFAULT_CAPS) is None
    fb = free_basis(PADPAIR, W("b1"), PADPAIR_CAPS)
    assert fb.rank == 10 and not fb.exact


def test_free_basis_express_basis_loops():
    from diagram_groups.decomposition import _loop_diagram

    fb = free_basis(CYC3, W("a"), DEFAULT_CAPS)
    src, move = fb.edges[0]
    loop = _loop_diagram(fb.enum, CYC3, src, move)
    assert fb.express(loop) == ((0, 1),)
    from diagram_groups.diagrams import inverse

    assert fb.express(inverse(loop)) == ((0, -1),)


def test_free_basis_express_rejects_foreign_top():
    fb = free_basis(PADPAIR, W("b1"), PADPAIR_CAPS)
    from diagram_groups.diagrams import eps

    assert fb.express(eps(PADPAIR, W("a1"))) is None


# ---------------------------------------------------------------------------
# fundamental group presentations
# ---------------------------------------------------------------------------


def test_pi1_hexagon_is_free_of_rank_one():
    doc = fundamental_group_presentation(decompose(COMM, W("a b c"), DEFAULT_CAPS))
    assert len(doc.generators) == 1 and doc.relators == ()
    assert doc.exact and not doc.truncated


def test_pi1_u22_is_free_of_rank_four():
    doc = fundamental_group_presentation(
        decompose(COMM, W("a b b c c"), DEFAULT_CAPS)
    )
    assert len(doc.generators) == 4 and doc.relators == ()
    assert doc.exact


def test_pi1_padpair_commutator_family():
    doc = fundamental_group_presentation(
        decompose(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
    )
    assert doc.truncated and not doc.exact
    assert len(doc.generators) == 3
    # [t, a^{h^i}] for i = 0..9: ten conjugation depths fit under the caps
    assert commutator_family_size(doc) == 10


def test_pi1_torus_decompose_route():
    doc = fundamental_group_presentation(decompose(TORUS, W("a1 b1"), DEFAULT_CAPS))
    assert doc.exact and not doc.truncated
    assert len(doc.generators) == 2
    assert [cyclic_key(r) for r in doc.relators] == [
        cyclic_key(((0, -1), (1, -1), (0, 1), (1, 1)))
    ]


def test_pi1_torus_direct_route_agrees():
    doc = simplify_presentation(
        complete_ball_presentation(TORUS, W("a1 b1"), DEFAULT_CAPS)
    )
    assert len(doc.generators) == 2
    assert [cyclic_key(r) for r in doc.relators] == [
        cyclic_key(((0, -1), (1, -1), (0, 1), (1, 1)))
    ]
    assert doc.exact


def test_direct_route_trivial_group_collapses():
    doc = simplify_presentation(
        complete_ball_presentation(COMM, W("a a b b"), DEFAULT_CAPS)
    )
    assert doc.generators == () and doc.relators == ()


def test_direct_route_requires_complete_class():
    with pytest.raises(ValueError, match="completely"):
        complete_ball_presentation(PADPAIR, W("a1 b1"), PADPAIR_CAPS)


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


def test_simplify_is_idempotent_and_deterministic():
    doc = fundamental_group_presentation(
        decompose(PADPAIR, W("a1 b1"), PADPAIR_CAPS), simplify=False
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
    scan = left_hyperplanes(mg, base, TIGHT_CAPS)
    assert sorted(str(h.id) for h in scan.hyperplanes) == [
        "[1 | r0 | 1]",
        "[1 | r1 | x]",
        "[1 | r2 | x]",
        "[1 | r3 | x]",
    ]
    g = decompose(mg, base, TIGHT_CAPS, depth=0)
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
    g = decompose(mg, mirror_word(W("x")), TIGHT_CAPS, depth=1)
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
    g = decompose(PADPAIR, W("a1 b1"), PADPAIR_CAPS)
    blob = gog_to_json(g)
    assert sorted(blob.keys()) == [
        "base", "edges", "exact", "notes", "undecided", "vertices",
    ]
    assert len(blob["vertices"]) == 3 and len(blob["edges"]) == 4
    assert blob["edges"][3]["target_split"]["suffix"] == ["p"]
    assert blob["vertices"][0]["right_group"]["rank"] == 10
    again = gog_to_json(decompose(PADPAIR, W("a1 b1"), PADPAIR_CAPS))
    assert json.dumps(blob, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_dot_output():
    g = decompose(COMM, W("a b c"), DEFAULT_CAPS)
    dot = gog_to_dot(g)
    assert dot.startswith("graph decomposition {")
    assert dot.count(" -- ") == 3
    assert 'label="S(a b) · c"' in dot

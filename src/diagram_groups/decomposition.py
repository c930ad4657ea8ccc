"""Left hyperplanes and the induced graph-of-groups decomposition.

A hyperplane of a class complex, written ``[a, u -> v, b]``, is *left* when
the group of the left context is trivial while the group of the context
extended through the rewrite source is not.  Left hyperplanes never cross
each other or themselves, so cutting the complex along all of them splits it
into product-like vertex spaces glued along product edge spaces: a graph of
spaces, hence a graph-of-groups decomposition of the diagram group with edge
groups of the form ``D(a) x D(b)``.

The only genuinely undecidable ingredient is triviality of ``D(P, w)``.  On a
completely enumerated class it is decidable: the loops closing the spanning
tree generate the fundamental group, and an element is trivial exactly when
its reduced diagram is empty, so reducing every generator loop settles the
question.  On truncated data a nontrivial reduced spherical loop is still a
valid "No" certificate; otherwise the verdict is Unknown.

A free factor holds the ball of its class (``FactorGroup.ball``): the
ball's ``loops`` are its basis, and ``SquierBall.express`` writes the
images of edge-group loops in that basis when the fundamental group of the
decomposition is presented.
"""

import heapq
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .diagrams import Diagram, dsum, eps, reduce_diagram
from .rewriting import (
    ClassSearch,
    Letter,
    Move,
    Presentation,
    TriBool,
    Word,
    format_word,
)
from .squier import BallEdge, HyperplaneId, SquierBall, build_ball


# ---------------------------------------------------------------------------
# triviality of diagram groups
# ---------------------------------------------------------------------------


def _loop_diagram(ball: SquierBall, edge: BallEdge) -> Diagram:
    """The spherical diagram tracing tree-path, edge, reverse tree-path."""
    enum, pres = ball.enum, ball.pres
    to_source = enum.derivation(edge.source)
    back = enum.derivation(edge.target(pres)).inverted(pres)
    return Diagram(pres, enum.seed, to_source.steps + (edge.move,) + back.steps)


def _triviality(search: ClassSearch, w: Word) -> TriBool:
    ball = build_ball(search, w)
    for edge in ball.loops:
        loop = reduce_diagram(_loop_diagram(ball, edge))
        if loop.cells:
            return TriBool.no(loop)
    if ball.complete:
        return TriBool.yes(ball.enum)
    return TriBool.unknown(
        f"every loop inside the truncated ball of {format_word(w)} is trivial,"
        " but the enumeration was capped"
    )


def is_trivial_group(search: ClassSearch, w: Word) -> TriBool:
    """Is the diagram group at ``w`` trivial?

    Yes only on a complete enumeration all of whose tree-closing loops reduce
    to the empty diagram (that set generates the whole group, and reduced
    diagrams are canonical forms, so this is an exact decision).  No carries
    a nontrivial reduced spherical diagram as witness, which is valid even on
    truncated data.  Triviality is an invariant of the congruence class, so
    it is computed once per run for each class representative found.
    The empty word counts as trivial: it names the empty context.
    """
    search.pres.check_word(w)
    if not w:
        return TriBool.yes("the empty context has a one-point complex")
    return search.once(_triviality, search.rep(w)[0])


# ---------------------------------------------------------------------------
# left hyperplanes
# ---------------------------------------------------------------------------


class LetterSplit(NamedTuple):
    """A context side cut as prefix . letter . suffix at the triviality edge.

    The prefix is the maximal one whose extension of the outer context still
    carries a trivial group; the letter is where triviality first fails.  A
    cut is made only after a definite ``no`` with every verdict before it
    definite, so it is unique.
    """

    prefix: Word
    letter: Letter
    suffix: Word


class LeftHyperplane(NamedTuple):
    """A hyperplane whose left context group is trivial but stops being so
    when extended through the rewrite, together with the splits of both
    rewrite sides used by the decomposition."""

    id: HyperplaneId
    source_split: LetterSplit
    target_split: LetterSplit

    def __str__(self) -> str:
        return str(self.id)


def _split_side(
    search: ClassSearch, context: Word, side: Word
) -> Tuple[Optional[LetterSplit], Tuple[str, ...]]:
    """Cut ``side`` at the maximal prefix keeping ``context + prefix`` trivial."""
    for i, letter in enumerate(side):
        verdict = is_trivial_group(search, context + side[: i + 1])
        if verdict.is_unknown:
            return None, (
                f"cannot place the cut in {format_word(side)}: triviality of"
                f" {format_word(context + side[: i + 1])} is unknown",
            )
        if verdict.is_no:
            return LetterSplit(side[:i], letter, side[i + 1 :]), ()
    return None, (
        f"no cut in {format_word(side)}: the whole side keeps the context"
        " trivial, which contradicts the hyperplane being left",
    )


class LeftHyperplaneScan(NamedTuple):
    """All hyperplanes of a ball classified by leftness.

    ``undecided`` collects hyperplanes whose leftness (or split) could not be
    settled within caps; ``exact`` asserts the catalog covered the whole
    class complex and every verdict was definite.
    """

    pres: Presentation
    base: Word
    hyperplanes: Tuple[LeftHyperplane, ...]
    rejected: Tuple[HyperplaneId, ...]
    undecided: Tuple[HyperplaneId, ...]
    exact: bool
    notes: Tuple[str, ...]


def left_hyperplanes(search: ClassSearch, w: Word) -> LeftHyperplaneScan:
    """Scan the (possibly truncated) hyperplane catalog of ``w`` for left ones.

    Leftness does not depend on the side of the rewrite used to extend the
    context — the two extensions are equal modulo the presentation, hence
    share one diagram group — so each unoriented hyperplane is tested once.
    """
    pres = search.pres
    catalog = build_ball(search, w).catalog
    found: List[LeftHyperplane] = []
    rejected: List[HyperplaneId] = []
    undecided: List[HyperplaneId] = []
    notes: List[str] = []
    for hid in catalog.ids:
        a = hid.left
        relation = pres.relations[hid.relation]
        u, v = relation.lhs, relation.rhs
        left_ok = is_trivial_group(search, a)
        if left_ok.is_no:
            rejected.append(hid)
            continue
        grown = is_trivial_group(search, a + u)
        if left_ok.is_unknown or grown.is_unknown:
            undecided.append(hid)
            continue
        if grown.is_yes:
            rejected.append(hid)
            continue
        source_split, src_notes = _split_side(search, a, u)
        target_split, tgt_notes = _split_side(search, a, v)
        notes.extend(src_notes)
        notes.extend(tgt_notes)
        if source_split is None or target_split is None:
            undecided.append(hid)
            continue
        found.append(LeftHyperplane(hid, source_split, target_split))
    exact = (
        catalog.exact
        and not undecided
        and all(h.id.exact for h in found)
    )
    return LeftHyperplaneScan(
        pres, w, tuple(found), tuple(rejected), tuple(undecided), exact,
        tuple(notes),
    )


# ---------------------------------------------------------------------------
# group presentations
# ---------------------------------------------------------------------------

# a relator: its letters ``(generator, ±1)``
Relator = Tuple[Tuple[int, int], ...]


def _free_reduce(word: Sequence[Tuple[int, int]]) -> Relator:
    out: List[Tuple[int, int]] = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def _cyclic_reduce(word: Relator) -> Relator:
    word = _free_reduce(word)
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = _free_reduce(word[1:-1])
    return word


def _invert(word: Relator) -> Relator:
    return tuple((g, -e) for g, e in reversed(word))


def _relator_key(word: Relator) -> Relator:
    """Least cyclic rotation of the relator or its inverse (for dedup)."""
    candidates = []
    for base in (word, _invert(word)):
        for i in range(max(1, len(base))):
            candidates.append(base[i:] + base[:i])
    return min(candidates) if candidates else ()


class GroupPresentation(NamedTuple):
    """A finite presentation with honesty markers.

    ``truncated`` warns that relators (or generators) belonging to an
    infinite family were cut off at a cap; ``exact`` asserts that everything
    printed is a faithful presentation of the group, not just of a bounded
    approximation.
    """

    generators: Tuple[str, ...]
    relators: Tuple[Relator, ...]
    truncated: bool
    exact: bool
    notes: Tuple[str, ...] = ()

    def relator_str(self, word: Relator) -> str:
        if not word:
            return "1"
        parts = []
        for g, e in word:
            name = self.generators[g]
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)

    def __str__(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(self.relator_str(r) for r in self.relators)
        marker = " …" if self.truncated else ""
        return f"⟨ {gens} | {rels}{marker} ⟩"


# bounds of simplify_presentation: passes, each of which removes one
# generator, and the total relator length a substitution may grow the
# presentation to
_SIMPLIFY_PASSES = 200
_SIMPLIFY_SIZE_CAP = 4000


def simplify_presentation(pres: GroupPresentation) -> GroupPresentation:
    """Bounded cleanup: free/cyclic reduction, killing generators that some
    relator declares trivial, and substituting generators a relator defines.

    One pass removes one generator: the least one that a length-one
    relator kills, or, when no relator has length one, the one the first
    relator in ``(length, relator)`` order that holds some generator once
    defines.  ``_SIMPLIFY_PASSES`` bounds the passes.  A kill changes only
    the relators that hold its generator, so consecutive kills re-key just
    those, and the relators are keyed and sorted again once the kills stop.

    Every step is a plain rewriting of the presentation, so the result
    presents the same group; the bounds only stop the search, never change
    the answer.
    """
    gens = list(pres.generators)
    rels = [_cyclic_reduce(r) for r in pres.relators]
    alive = list(range(len(gens)))

    def total_size() -> int:
        return sum(len(r) for r in rels)

    # a relator a pass leaves alone is the same tuple in the next pass, and
    # a key is its own key, so each distinct relator is keyed once per call
    keys: Dict[Relator, Relator] = {}

    def key(r: Relator) -> Relator:
        k = keys.get(r)
        if k is None:
            k = keys[r] = keys[k] = _relator_key(_cyclic_reduce(r))
        return k

    passes = 0
    while passes < _SIMPLIFY_PASSES:
        rels = [r for r in {key(r) for r in rels} if r]
        rels.sort(key=lambda r: (len(r), r))
        # a length-one relator kills its generator outright; the sorted keys
        # of length one name their generators in ascending order, a heap
        dying = [r[0][0] for r in rels if len(r) == 1]
        if dying:
            live = set(rels)
            while dying and passes < _SIMPLIFY_PASSES:
                dead = heapq.heappop(dying)
                if dead not in alive:
                    continue
                touched = [r for r in live if (dead, 1) in r or (dead, -1) in r]
                live.difference_update(touched)
                cut = [tuple((g, e) for g, e in r if g != dead) for r in touched]
                alive.remove(dead)
                passes += 1
                if passes == _SIMPLIFY_PASSES:
                    # the next pass would key what this one cut; there is none
                    live.update(cut)
                    break
                for k in map(key, cut):
                    if k:
                        live.add(k)
                        if len(k) == 1:
                            heapq.heappush(dying, k[0][0])
            rels = list(live)
            continue
        passes += 1
        changed = False
        # a relator in which some generator appears exactly once defines it
        for ri, r in enumerate(rels):
            counts: Dict[int, int] = {}
            for g, _ in r:
                counts[g] = counts.get(g, 0) + 1
            once = [g for g, c in counts.items() if c == 1]
            if not once:
                continue
            dead = min(once)
            k = next(i for i, (g, _) in enumerate(r) if g == dead)
            g, e = r[k]
            # r = prefix . dead^e . suffix = 1  =>  dead^e = (suffix.prefix)^-1
            replacement = _invert(r[k + 1 :] + r[:k])
            if e == -1:
                replacement = _invert(replacement)
            uses = sum(
                sum(1 for gg, _ in rr if gg == dead)
                for rj, rr in enumerate(rels)
                if rj != ri
            )
            if total_size() + uses * len(replacement) > _SIMPLIFY_SIZE_CAP:
                continue
            new_rels = []
            for rj, rr in enumerate(rels):
                if rj == ri:
                    continue
                out: List[Tuple[int, int]] = []
                for gg, ee in rr:
                    if gg != dead:
                        out.append((gg, ee))
                    elif ee == 1:
                        out.extend(replacement)
                    else:
                        out.extend(_invert(replacement))
                new_rels.append(_free_reduce(out))
            rels = new_rels
            alive = [g for g in alive if g != dead]
            changed = True
            break
        if not changed:
            break
    remap = {g: i for i, g in enumerate(alive)}
    packed = tuple(
        sorted(
            {
                _relator_key(tuple((remap[g], e) for g, e in r))
                for r in rels
                if r
            }
        )
    )
    return GroupPresentation(
        tuple(pres.generators[g] for g in alive),
        packed,
        pres.truncated,
        pres.exact,
        pres.notes,
    )


def complete_ball_presentation(search: ClassSearch, w: Word) -> GroupPresentation:
    """Direct presentation of the group of a completely enumerated class:
    one generator per non-tree edge, one relator per square boundary."""
    pres = search.pres
    ball = build_ball(search, search.rep(w)[0])
    if not ball.complete:
        raise ValueError(
            f"the class of {format_word(w)} was not completely enumerated"
        )
    relators: List[Relator] = []
    for sq in ball.squares:
        m1, m2 = sq.moves
        shifted = Move(m2.offset + m1.delta(pres), m2.relation, m2.forward)
        loop = Diagram(pres, sq.corner, (m1, shifted, m1.inverted(), m2.inverted()))
        folded = ball.express(loop)
        if folded is None:
            raise RuntimeError("square boundary left the complete ball")
        relators.append(_cyclic_reduce(folded))
    names = tuple(f"g{i}" for i in range(len(ball.loops)))
    return GroupPresentation(
        names,
        tuple(sorted({_relator_key(r) for r in relators if r})),
        False,
        True,
    )


# ---------------------------------------------------------------------------
# factor groups of product pieces
# ---------------------------------------------------------------------------


class FactorGroup(NamedTuple):
    """The group of one factor of a product piece, as well as we can tell.

    ``kind`` is one of trivial / free / presented / unknown, in decreasing
    order of how much structure the emission downstream can use: free factors
    hold their ball, whose ``loops`` are a basis that ``express`` writes
    loops in, presented ones a presentation only, unknown ones just a marker.
    A ball is equal only to itself, so two free factors are equal when they
    come from the ball of one run.
    """

    kind: str
    seed: Word
    exact: bool
    ball: Optional[SquierBall] = None
    presentation: Optional[GroupPresentation] = None
    note: str = ""

    @property
    def is_trivial(self) -> bool:
        return self.kind == "trivial"


def factor_group(search: ClassSearch, w: Word, depth: int = 1) -> FactorGroup:
    """Classify the group at ``w``: trivial, free graph piece, directly
    presentable (complete ball), recursively decomposable, or unknown."""
    if not w:
        return FactorGroup("trivial", (), True)
    return search.once(_factor_group_of, search.rep(w)[0], depth)


def _factor_group_of(search: ClassSearch, rep: Word, depth: int) -> FactorGroup:
    # both verdicts read the ball of ``rep``: under depth caps the search's
    # representative of ``rep`` may be yet another word
    verdict = search.once(_triviality, rep)
    if verdict.is_yes:
        return FactorGroup("trivial", rep, True)
    ball = build_ball(search, rep)
    if not ball.squares:
        note = "" if ball.complete else (
            "free on the loops seen so far; the class was truncated"
        )
        return FactorGroup("free", rep, ball.complete, ball, None, note)
    if ball.complete:
        return FactorGroup(
            "presented", rep, True, None, complete_ball_presentation(search, rep)
        )
    if depth > 0:
        sub = decompose(search, rep, depth - 1)
        doc = fundamental_group_presentation(sub)
        return FactorGroup(
            "presented", rep, doc.exact, None, doc,
            "presentation from a recursive decomposition",
        )
    return FactorGroup(
        "unknown", rep, False, None, None,
        "truncated class with squares and no recursion budget left",
    )


# ---------------------------------------------------------------------------
# the decomposition graph
# ---------------------------------------------------------------------------


class VertexSpace(NamedTuple):
    """A vertex of the decomposition: the subcomplex of words x·letter·y with
    x in the class of ``left`` and y in the class of ``right`` (either side
    may be empty), which is a product of two class complexes."""

    left: Word
    letter: Optional[Letter]
    right: Word
    left_group: FactorGroup
    right_group: FactorGroup

    def descriptor(self) -> str:
        parts = []
        if self.left:
            parts.append(f"S({format_word(self.left)})")
        if self.letter is not None:
            parts.append(self.letter)
        if self.right:
            parts.append(f"S({format_word(self.right)})")
        return " · ".join(parts) if parts else "S(1)"


class DecompositionEdge(NamedTuple):
    """An edge of the decomposition: one left hyperplane, its two endpoint
    vertices, and the groups of the two product factors of its edge space."""

    hyperplane: LeftHyperplane
    minus_vertex: int
    plus_vertex: int
    left_group: FactorGroup
    right_group: FactorGroup


class GraphOfGroups(NamedTuple):
    """The graph-of-groups decomposition induced by the left hyperplanes.

    Identical vertex descriptors merge into one vertex; identical edge spaces
    never merge — each left hyperplane contributes its own edge.
    """

    pres: Presentation
    base: Word
    vertices: Tuple[VertexSpace, ...]
    edges: Tuple[DecompositionEdge, ...]
    undecided: Tuple[HyperplaneId, ...]
    exact: bool
    notes: Tuple[str, ...] = ()


def decompose(search: ClassSearch, w: Word, depth: int = 1) -> GraphOfGroups:
    """Cut the class complex of ``w`` along its left hyperplanes.

    Each left hyperplane ``[a, u -> v, b]`` with splits ``u = p·ℓ·s`` and
    ``v = q·m·r`` contributes the vertices ``S(a p) ℓ S(s b)`` and
    ``S(a q) m S(r b)`` (merged by class-representative equality of the
    descriptors) and one edge with edge space ``S(a) x S(b)``; the inclusion
    of the edge space into its endpoints pads the factors by the split
    remainders.  With no left hyperplanes the whole complex is one vertex.
    """
    pres = search.pres
    pres.check_word(w)
    scan = left_hyperplanes(search, w)
    index: Dict[Tuple[Word, Letter, Word], int] = {}
    vertices: List[VertexSpace] = []
    if not scan.hyperplanes:
        vertices.append(
            VertexSpace(
                (), None, search.rep(w)[0],
                FactorGroup("trivial", (), True),
                factor_group(search, w, depth),
            )
        )

    def vertex_for(context: Word, split: LetterSplit, right_ctx: Word) -> int:
        lw = search.rep(context + split.prefix)[0]
        rw = search.rep(split.suffix + right_ctx)[0]
        key = (lw, split.letter, rw)
        if key not in index:
            index[key] = len(vertices)
            vertices.append(
                VertexSpace(
                    lw, split.letter, rw,
                    factor_group(search, lw, depth),
                    factor_group(search, rw, depth),
                )
            )
        return index[key]

    edges: List[DecompositionEdge] = []
    for hyp in scan.hyperplanes:
        a, b = hyp.id.left, hyp.id.right
        minus = vertex_for(a, hyp.source_split, b)
        plus = vertex_for(a, hyp.target_split, b)
        edges.append(
            DecompositionEdge(
                hyp, minus, plus,
                factor_group(search, a, depth),
                factor_group(search, b, depth),
            )
        )
    exact = (
        scan.exact
        and all(
            v.left_group.exact and v.right_group.exact for v in vertices
        )
        and all(e.left_group.exact and e.right_group.exact for e in edges)
    )
    return GraphOfGroups(
        pres, w, tuple(vertices), tuple(edges), scan.undecided, exact, scan.notes
    )


def free_rank(gog: GraphOfGroups) -> int:
    """Rank of the fundamental group when every group label is trivial:
    the edges of the underlying graph outside a spanning forest, which is
    edges − vertices + components (each forest edge reaches one new vertex)."""
    offenders = []
    for i, v in enumerate(gog.vertices):
        if not (v.left_group.is_trivial and v.right_group.is_trivial):
            offenders.append(f"vertex {i} ({v.descriptor()})")
    for i, e in enumerate(gog.edges):
        if not (e.left_group.is_trivial and e.right_group.is_trivial):
            offenders.append(f"edge {i} ({e.hyperplane})")
    if offenders:
        raise ValueError(
            "free_rank needs every vertex and edge group trivial; not so for "
            + ", ".join(offenders)
        )
    return len(gog.edges) - len(_spanning_forest(gog))


def euler_characteristic(ball: SquierBall) -> int:
    """Alternating cube count of a complete ball.

    The complexes are aspherical, so for a free fundamental group this is an
    independent oracle: rank = 1 − χ.
    """
    if not ball.complete:
        raise ValueError(
            "Euler characteristic is only honest on a complete ball"
        )
    chi = len(ball.vertices) - len(ball.edges)
    for dim, cubes in ball.cubes:
        chi += (-1) ** dim * len(cubes)
    return chi


# ---------------------------------------------------------------------------
# fundamental group of the decomposition
# ---------------------------------------------------------------------------


def _spanning_forest(gog: GraphOfGroups) -> Set[int]:
    seen: Set[int] = set()
    forest: Set[int] = set()
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    for i, e in enumerate(gog.edges):
        adjacency.setdefault(e.minus_vertex, []).append((e.plus_vertex, i))
        adjacency.setdefault(e.plus_vertex, []).append((e.minus_vertex, i))
    for root in range(len(gog.vertices)):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            x = queue.pop(0)
            for y, ei in adjacency.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    forest.add(ei)
                    queue.append(y)
    return forest


def _pad_loop(
    pres: Presentation, loop: Diagram, before: Word, after: Word
) -> Diagram:
    out = loop
    if before:
        out = dsum(eps(pres, before), out)
    if after:
        out = dsum(out, eps(pres, after))
    return out


def fundamental_group_presentation(gog: GraphOfGroups) -> GroupPresentation:
    """Present the fundamental group of the decomposition.

    Generators: the generators of every vertex group plus one letter per
    non-forest edge.  Relators: product commutation inside each vertex,
    vertex-group relators, and, for each edge and each edge-group generator,
    the conjugation relator identifying its two padded images.  Images that
    cannot be expressed inside truncated vertex data are skipped and flagged
    rather than guessed.  The result is cleaned up by
    ``simplify_presentation``.
    """
    pres = gog.pres
    names: List[str] = []
    relators: List[Relator] = []
    notes = list(gog.notes)
    truncated = not gog.exact
    exact = gog.exact

    # vertex generators: (vertex, side) -> list of generator ids
    vgens: Dict[Tuple[int, str], List[int]] = {}
    for vi, v in enumerate(gog.vertices):
        for side, fg in (("L", v.left_group), ("R", v.right_group)):
            ids: List[int] = []
            if fg.kind == "free":
                for k in range(len(fg.ball.loops)):
                    ids.append(len(names))
                    names.append(f"v{vi}{side}{k}")
            elif fg.kind == "presented":
                base = len(names)
                for g in fg.presentation.generators:
                    ids.append(len(names))
                    names.append(f"v{vi}{side}_{g}")
                for r in fg.presentation.relators:
                    relators.append(tuple((base + g, e) for g, e in r))
                truncated = truncated or fg.presentation.truncated
            elif fg.kind == "unknown":
                notes.append(
                    f"vertex {vi} {side} group unknown; its generators and"
                    " relators are missing from this presentation"
                )
                exact = False
                truncated = True
            vgens[(vi, side)] = ids
        for gl in vgens[(vi, "L")]:
            for gr in vgens[(vi, "R")]:
                relators.append(((gl, 1), (gr, 1), (gl, -1), (gr, -1)))

    forest = _spanning_forest(gog)
    edge_letter: Dict[int, Optional[int]] = {}
    for ei in range(len(gog.edges)):
        if ei in forest:
            edge_letter[ei] = None
        else:
            edge_letter[ei] = len(names)
            names.append(f"t{ei}")

    def express_image(
        fg_edge: FactorGroup, k: int, side: str, vertex_idx: int, split: LetterSplit
    ) -> Optional[List[Tuple[int, int]]]:
        """Loop ``k`` of an edge group, padded by ``split`` into the ``side``
        group of one end vertex, in that group's generators; None unless
        that group is free and contains it.  The split's prefix pads a left
        image after, its suffix a right one before."""
        vertex = gog.vertices[vertex_idx]
        vfg = vertex.left_group if side == "L" else vertex.right_group
        if vfg.kind != "free":
            return None
        ball = fg_edge.ball
        loop = _loop_diagram(ball, ball.loops[k])
        if side == "L":
            image = _pad_loop(pres, loop, (), split.prefix)
        else:
            image = _pad_loop(pres, loop, split.suffix, ())
        word = vfg.ball.express(image)
        if word is None:
            return None
        base = vgens[(vertex_idx, side)]
        return [(base[g], e) for g, e in word]

    for ei, e in enumerate(gog.edges):
        hyp = e.hyperplane
        t = edge_letter[ei]
        for side, fg in (("L", e.left_group), ("R", e.right_group)):
            if fg.is_trivial:
                continue
            if fg.kind != "free":
                notes.append(
                    f"edge {ei} {side} group is {fg.kind}; its conjugation"
                    " relators are not expressible and were skipped"
                )
                exact = False
                truncated = True
                continue
            for k in range(len(fg.ball.loops)):
                minus_img = express_image(fg, k, side, e.minus_vertex, hyp.source_split)
                plus_img = express_image(fg, k, side, e.plus_vertex, hyp.target_split)
                if minus_img is None or plus_img is None:
                    notes.append(
                        f"edge {ei} {side} generator {k}: image escapes the"
                        " truncated vertex data; relator skipped"
                    )
                    truncated = True
                    exact = False
                    continue
                word: List[Tuple[int, int]] = [(g, -eexp) for g, eexp in
                                               reversed(minus_img)]
                if t is not None:
                    word.append((t, 1))
                word.extend(plus_img)
                if t is not None:
                    word.append((t, -1))
                relators.append(_cyclic_reduce(tuple(word)))

    doc = GroupPresentation(
        tuple(names),
        tuple(r for r in relators if r),
        truncated,
        exact,
        tuple(notes),
    )
    return simplify_presentation(doc)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _factor_json(fg: FactorGroup) -> Dict[str, object]:
    out: Dict[str, object] = {
        "exact": fg.exact,
        "kind": fg.kind,
        "seed": list(fg.seed),
    }
    if fg.kind == "free":
        out["rank"] = len(fg.ball.loops)
    if fg.presentation is not None:
        out["presentation"] = str(fg.presentation)
    if fg.note:
        out["note"] = fg.note
    return out


def gog_to_json(gog: GraphOfGroups) -> Dict[str, object]:
    """Plain-data rendering of the decomposition (deterministic field order
    is the caller's concern; keys here are stable)."""
    return {
        "base": list(gog.base),
        "edges": [
            {
                "hyperplane": str(e.hyperplane.id),
                "left_group": _factor_json(e.left_group),
                "minus": e.minus_vertex,
                "plus": e.plus_vertex,
                "right_group": _factor_json(e.right_group),
                "source_split": {
                    "prefix": list(e.hyperplane.source_split.prefix),
                    "letter": e.hyperplane.source_split.letter,
                    "suffix": list(e.hyperplane.source_split.suffix),
                },
                "target_split": {
                    "prefix": list(e.hyperplane.target_split.prefix),
                    "letter": e.hyperplane.target_split.letter,
                    "suffix": list(e.hyperplane.target_split.suffix),
                },
            }
            for e in gog.edges
        ],
        "exact": gog.exact,
        "notes": list(gog.notes),
        "undecided": [str(h) for h in gog.undecided],
        "vertices": [
            {
                "descriptor": v.descriptor(),
                "left": list(v.left),
                "left_group": _factor_json(v.left_group),
                "letter": v.letter,
                "right": list(v.right),
                "right_group": _factor_json(v.right_group),
            }
            for v in gog.vertices
        ],
    }


def gog_to_dot(gog: GraphOfGroups) -> str:
    lines = ["graph decomposition {"]
    for i, v in enumerate(gog.vertices):
        label = v.descriptor().replace('"', "'")
        lines.append(f'  v{i} [label="{label}"];')
    for e in gog.edges:
        label = str(e.hyperplane.id).replace('"', "'")
        lines.append(
            f'  v{e.minus_vertex} -- v{e.plus_vertex} [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines)


__all__ = [
    "DecompositionEdge",
    "FactorGroup",
    "GraphOfGroups",
    "GroupPresentation",
    "LeftHyperplane",
    "LeftHyperplaneScan",
    "LetterSplit",
    "VertexSpace",
    "complete_ball_presentation",
    "decompose",
    "euler_characteristic",
    "factor_group",
    "free_rank",
    "fundamental_group_presentation",
    "gog_to_dot",
    "gog_to_json",
    "is_trivial_group",
    "left_hyperplanes",
    "simplify_presentation",
]

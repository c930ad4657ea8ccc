"""Left hyperplanes and the induced graph-of-groups decomposition.

A hyperplane of a class complex, written ``[a, u -> v, b]``, is *left* when
the group of the left context is trivial while the group of the context
extended through the rewrite source is not.  Left hyperplanes never cross
each other or themselves, so cutting the complex along all of them splits it
into product-like vertex spaces glued along product edge spaces: a graph of
spaces, hence a graph-of-groups decomposition of the diagram group.  Each
split of a rewrite side ``u = p·ℓ·s`` stops at the last prefix ``p`` that
keeps ``D(a·p)`` trivial, so the left factor of every edge space
``S(a) x S(b)`` and of every vertex space ``S(a·p)·ℓ·S(s·b)`` is trivial:
the edge group is ``D(b)`` and the vertex group ``D(s·b)``.

The only genuinely undecidable ingredient is triviality of ``D(P, w)``.  On a
completely enumerated class it is decidable: the loops closing the spanning
tree generate the fundamental group, and an element is trivial exactly when
its reduced diagram is empty, so reducing every generator loop settles the
question.  On truncated data a nontrivial reduced spherical loop is still a
valid "No" certificate; otherwise the verdict is Unknown.

A factor that is free, or presented from its complete class, holds the
ball of its class (``FactorGroup.ball``): the ball's ``loops`` are its
generators, and ``SquierBall.express`` writes the images of edge-group
loops in them when the fundamental group of the decomposition is
presented.  On the interval presentations P(Γ) this recovers the paper's
example: the group of P(Γ) is presented as the right-angled Artin group of
the complement of Γ.
"""

import heapq
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .diagrams import dsum, eps, reduce_diagram
from .rewriting import (
    ClassSearch,
    Diagram,
    Letter,
    Move,
    Presentation,
    TriBool,
    Word,
    format_word,
    inverse,
)
from .squier import BallEdge, HyperplaneId, SquierBall, build_ball


# ---------------------------------------------------------------------------
# triviality of diagram groups
# ---------------------------------------------------------------------------


def _loop_diagram(ball: SquierBall, edge: BallEdge) -> Diagram:
    """The spherical diagram tracing tree-path, edge, reverse tree-path."""
    enum, pres = ball.enum, ball.pres
    to_source = enum.derivation(edge.source)
    back = inverse(enum.derivation(edge.target(pres)))
    return Diagram(pres, enum.seed, to_source.moves + (edge.move,) + back.moves)


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

    ``hyperplanes`` holds the left ones, ``undecided`` those whose leftness
    (or split) could not be settled within caps, and a cataloged hyperplane
    in neither was decided not left; ``exact`` asserts the catalog covered
    the whole class complex and every verdict was definite.
    """

    hyperplanes: Tuple[LeftHyperplane, ...]
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
    undecided: List[HyperplaneId] = []
    notes: List[str] = []
    for hid in catalog.ids:
        a = hid.left
        relation = pres.relations[hid.relation]
        u, v = relation.lhs, relation.rhs
        left_ok = is_trivial_group(search, a)
        if left_ok.is_no:
            continue
        grown = is_trivial_group(search, a + u)
        if left_ok.is_unknown or grown.is_unknown:
            undecided.append(hid)
            continue
        if grown.is_yes:
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
    return LeftHyperplaneScan(tuple(found), tuple(undecided), exact, tuple(notes))


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
    """A finite presentation with an honesty marker.

    ``exact`` asserts that everything printed is a faithful presentation of
    the group, not just of a bounded approximation; when it does not hold,
    relators (or generators) were cut off at a cap or skipped, and the
    presentation prints with a trailing ``…``.
    """

    generators: Tuple[str, ...]
    relators: Tuple[Relator, ...]
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
        marker = "" if self.exact else " …"
        return f"⟨ {gens} | {rels}{marker} ⟩"


# bounds of simplify_presentation: the eliminations, and the total relator
# length a substitution may grow the presentation to
_SIMPLIFY_PASSES = 200
_SIMPLIFY_SIZE_CAP = 4000


def simplify_presentation(pres: GroupPresentation) -> GroupPresentation:
    """Bounded Tietze cleanup by one rule: the first relator in
    ``(length, relator)`` order in which some generator occurs once defines
    the least such generator, and that generator is substituted away.

    A length-one relator defines its generator as the empty word, and is
    never blocked; any other substitution is skipped while it would grow
    the total relator length past ``_SIMPLIFY_SIZE_CAP``.
    ``_SIMPLIFY_PASSES`` bounds the eliminations.  The relators are a set of
    cyclically reduced keys, indexed by the generators they hold and
    ordered by a heap, so an elimination re-keys only the relators that
    hold its generator, and the relators are reduced and deduplicated even
    when the bound stops the search.

    Every step is a plain rewriting of the presentation, so the result
    presents the same group; the bounds only stop the search, never change
    the answer.
    """
    live: Set[Relator] = set()
    holders: List[Set[Relator]] = [set() for _ in pres.generators]
    heap: List[Tuple[int, Relator]] = []
    size = 0

    def add(word: Sequence[Tuple[int, int]]) -> None:
        nonlocal size
        r = _relator_key(_cyclic_reduce(word))
        if r and r not in live:
            live.add(r)
            size += len(r)
            for g, _ in r:
                holders[g].add(r)
            heapq.heappush(heap, (len(r), r))

    def definition(r: Relator) -> Optional[Tuple[int, Relator]]:
        """The least generator occurring once in ``r`` and the word ``r``
        defines it as, unless that substitution would pass the size cap."""
        counts: Dict[int, int] = {}
        for g, _ in r:
            counts[g] = counts.get(g, 0) + 1
        once = [g for g, c in counts.items() if c == 1]
        if not once:
            return None
        dead = min(once)
        k = next(i for i, (g, _) in enumerate(r) if g == dead)
        # r = prefix . dead^e . suffix = 1  =>  dead^e = (suffix.prefix)^-1
        replacement = _invert(r[k + 1 :] + r[:k])
        if r[k][1] == -1:
            replacement = _invert(replacement)
        uses = sum(g == dead for rr in holders[dead] if rr != r for g, _ in rr)
        if replacement and size + uses * len(replacement) > _SIMPLIFY_SIZE_CAP:
            return None
        return dead, replacement

    for r in pres.relators:
        add(r)
    dead_gens: Set[int] = set()
    while len(dead_gens) < _SIMPLIFY_PASSES:
        skipped: Set[Relator] = set()
        chosen, found = (), None
        while heap and found is None:
            _, chosen = heapq.heappop(heap)
            if chosen in live and chosen not in skipped:
                found = definition(chosen)
                if found is None:
                    skipped.add(chosen)
        for r in skipped:
            heapq.heappush(heap, (len(r), r))
        if found is None:
            break
        dead, replacement = found
        dead_gens.add(dead)
        touched, holders[dead] = holders[dead], set()
        live.difference_update(touched)
        size -= sum(map(len, touched))
        for r in touched:
            for g, _ in r:
                holders[g].discard(r)
        inverted = _invert(replacement)
        for r in touched - {chosen}:
            word: List[Tuple[int, int]] = []
            for g, e in r:
                if g != dead:
                    word.append((g, e))
                else:
                    word.extend(replacement if e == 1 else inverted)
            add(word)
    alive = [g for g in range(len(pres.generators)) if g not in dead_gens]
    remap = {g: i for i, g in enumerate(alive)}
    return GroupPresentation(
        tuple(pres.generators[g] for g in alive),
        tuple(sorted(tuple((remap[g], e) for g, e in r) for r in live)),
        pres.exact,
        pres.notes,
    )


def complete_ball_presentation(ball: SquierBall) -> GroupPresentation:
    """Direct presentation of the group of a completely enumerated class:
    generator ``g<i>`` is ``ball.loops[i]``, and there is one relator per
    square boundary."""
    pres = ball.pres
    if not ball.complete:
        raise ValueError(
            f"the class of {format_word(ball.base)} was not completely enumerated"
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
        True,
    )


# ---------------------------------------------------------------------------
# factor groups of product pieces
# ---------------------------------------------------------------------------


class FactorGroup(NamedTuple):
    """The group of one factor of a product piece, as well as we can tell.

    ``kind`` is one of trivial / free / presented / unknown.  Free factors
    and factors presented from a complete ball hold that ball, whose
    ``loops`` are the generators and which ``express`` writes loops in;
    factors presented by a recursive decomposition hold a presentation
    only, unknown ones just a marker.  A ball is equal only to itself, so
    two factors with balls are equal when they come from the ball of one
    run.
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
            "presented", rep, True, ball, complete_ball_presentation(ball)
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
    may be empty), which is a product of two class complexes.  The group of
    ``left`` is trivial by the choice of the split, so ``right_group`` is
    the vertex group."""

    left: Word
    letter: Optional[Letter]
    right: Word
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
    vertices, and the edge group, the group of the right context of the
    hyperplane (the left context's group is trivial, as the hyperplane is
    left)."""

    hyperplane: LeftHyperplane
    minus_vertex: int
    plus_vertex: int
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
    of the edge space into its endpoints pads the right factor by the split
    suffix.  Only the right factors are classified: ``D(a)``, ``D(a p)`` and
    ``D(a q)`` are trivial by the choice of the splits.  With no left
    hyperplanes the whole complex is one vertex.
    """
    pres = search.pres
    pres.check_word(w)
    scan = left_hyperplanes(search, w)
    index: Dict[Tuple[Word, Letter, Word], int] = {}
    vertices: List[VertexSpace] = []
    if not scan.hyperplanes:
        vertices.append(
            VertexSpace((), None, search.rep(w)[0], factor_group(search, w, depth))
        )

    def vertex_for(context: Word, split: LetterSplit, right_ctx: Word) -> int:
        lw = search.rep(context + split.prefix)[0]
        rw = search.rep(split.suffix + right_ctx)[0]
        key = (lw, split.letter, rw)
        if key not in index:
            index[key] = len(vertices)
            vertices.append(
                VertexSpace(lw, split.letter, rw, factor_group(search, rw, depth))
            )
        return index[key]

    edges: List[DecompositionEdge] = []
    for hyp in scan.hyperplanes:
        a, b = hyp.id.left, hyp.id.right
        minus = vertex_for(a, hyp.source_split, b)
        plus = vertex_for(a, hyp.target_split, b)
        edges.append(
            DecompositionEdge(hyp, minus, plus, factor_group(search, b, depth))
        )
    exact = scan.exact and all(
        x.right_group.exact for x in (*vertices, *edges)
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
        if not v.right_group.is_trivial:
            offenders.append(f"vertex {i} ({v.descriptor()})")
    for i, e in enumerate(gog.edges):
        if not e.right_group.is_trivial:
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


def fundamental_group_presentation(gog: GraphOfGroups) -> GroupPresentation:
    """Present the fundamental group of the decomposition.

    Generators: the generators of every vertex group plus one letter per
    non-forest edge.  Relators: the vertex-group relators and, for each
    edge and each loop of an edge group with a ball, the conjugation
    relator identifying its two images in the end vertex groups with balls,
    each image the loop padded on the left by the split suffix.  Every
    left factor is trivial, so the vertex and edge groups are the right
    factors alone.  Edge groups without a ball, and images that cannot be
    expressed inside truncated vertex data, are skipped and flagged rather
    than guessed.  The result is cleaned up by ``simplify_presentation``.
    """
    pres = gog.pres
    names: List[str] = []
    relators: List[Relator] = []
    notes = list(gog.notes)
    exact = gog.exact

    # the id of each vertex group's first generator; the rest follow it
    vbase: List[int] = []
    for vi, v in enumerate(gog.vertices):
        fg = v.right_group
        vbase.append(len(names))
        if fg.kind == "free":
            names.extend(f"v{vi}R{k}" for k in range(len(fg.ball.loops)))
        elif fg.kind == "presented":
            names.extend(f"v{vi}R_{g}" for g in fg.presentation.generators)
            relators.extend(
                tuple((vbase[vi] + g, e) for g, e in r)
                for r in fg.presentation.relators
            )
        elif fg.kind == "unknown":
            notes.append(
                f"vertex {vi} R group unknown; its generators and"
                " relators are missing from this presentation"
            )
            exact = False

    forest = _spanning_forest(gog)
    edge_letter: Dict[int, int] = {}
    for ei in range(len(gog.edges)):
        if ei not in forest:
            edge_letter[ei] = len(names)
            names.append(f"t{ei}")

    def express_image(
        loop: Diagram, vertex_idx: int, split: LetterSplit
    ) -> Optional[Relator]:
        """An edge-group loop, padded on the left by the split's suffix, in
        the generators of one end vertex's group; None unless that group
        holds a ball that contains the image."""
        vfg = gog.vertices[vertex_idx].right_group
        if vfg.ball is None:
            return None
        image = dsum(eps(pres, split.suffix), loop) if split.suffix else loop
        word = vfg.ball.express(image)
        if word is None:
            return None
        return tuple((vbase[vertex_idx] + g, e) for g, e in word)

    for ei, e in enumerate(gog.edges):
        hyp, fg = e.hyperplane, e.right_group
        # the stable letter of a non-forest edge, as a relator
        t: Relator = ((edge_letter[ei], 1),) if ei in edge_letter else ()
        if fg.is_trivial:
            continue
        if fg.ball is None:
            notes.append(
                f"edge {ei} R group is {fg.kind}; its conjugation"
                " relators are not expressible and were skipped"
            )
            exact = False
            continue
        for k, edge in enumerate(fg.ball.loops):
            loop = _loop_diagram(fg.ball, edge)
            minus_img = express_image(loop, e.minus_vertex, hyp.source_split)
            plus_img = express_image(loop, e.plus_vertex, hyp.target_split)
            if minus_img is None or plus_img is None:
                notes.append(
                    f"edge {ei} R generator {k}: image escapes the"
                    " truncated vertex data; relator skipped"
                )
                exact = False
                continue
            relators.append(
                _cyclic_reduce(_invert(minus_img) + t + plus_img + _invert(t))
            )

    doc = GroupPresentation(
        tuple(names),
        tuple(r for r in relators if r),
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


def _trivial_json(seed: Word) -> Dict[str, object]:
    return {"exact": True, "kind": "trivial", "seed": list(seed)}


def gog_to_json(gog: GraphOfGroups) -> Dict[str, object]:
    """Plain-data rendering of the decomposition (deterministic field order
    is the caller's concern; keys here are stable).  Every left factor is
    trivial, and prints as such with its context as the seed."""
    return {
        "base": list(gog.base),
        "edges": [
            {
                "hyperplane": str(e.hyperplane.id),
                "left_group": _trivial_json(e.hyperplane.id.left),
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
                "left_group": _trivial_json(v.left),
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

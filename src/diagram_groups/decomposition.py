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
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .diagrams import Diagram, dsum, eps, reduce_diagram
from .rewriting import (
    ClassEnumeration,
    Letter,
    Move,
    Presentation,
    SearchCaps,
    TriBool,
    Word,
    format_word,
)
from .squier import HyperplaneId, SquierBall, _enum, build_ball


def _rep(pres: Presentation, w: Word, caps: SearchCaps) -> Word:
    """Shortlex representative of [w] within caps (deterministic, maybe inexact)."""
    if not w:
        return w
    return _enum(pres, w, caps).members[0]


# ---------------------------------------------------------------------------
# triviality of diagram groups
# ---------------------------------------------------------------------------


def _tree_pairs(enum: ClassEnumeration, pres: Presentation) -> Set[Tuple[Word, Move]]:
    """BFS-tree edges of the enumeration, normalized to forward orientation."""
    pairs = set()
    for parent, move, child in enum.edges:
        if move.forward:
            pairs.add((parent, move))
        else:
            pairs.add((child, move.inverted()))
    return pairs


def _loop_diagram(
    enum: ClassEnumeration, pres: Presentation, source: Word, move: Move
) -> Diagram:
    """The spherical diagram tracing tree-path, edge, reverse tree-path."""
    to_source = enum.derivation(source)
    back = enum.derivation(move.apply(source, pres)).inverted(pres)
    return Diagram(pres, enum.seed, to_source.steps + (move,) + back.steps)


def _non_tree_edges(ball: SquierBall) -> Tuple[Tuple[Word, Move], ...]:
    """The ball's forward edges off the BFS tree of its enumeration."""
    tree = _tree_pairs(ball.enum, ball.pres)
    edges = ((e.source, e.move) for e in ball.edges)
    return tuple(e for e in edges if e not in tree)


@lru_cache(maxsize=4096)
def _trivial_rep(pres: Presentation, w: Word, caps: SearchCaps) -> TriBool:
    ball = build_ball(pres, w, caps)
    enum = ball.enum
    for source, move in _non_tree_edges(ball):
        loop = reduce_diagram(_loop_diagram(enum, pres, source, move))
        if loop.cells:
            return TriBool.no(loop)
    if enum.complete:
        return TriBool.yes(enum)
    return TriBool.unknown(
        f"every loop inside the truncated ball of {format_word(w)} is trivial,"
        " but the enumeration was capped"
    )


def is_trivial_group(pres: Presentation, w: Word, caps: SearchCaps) -> TriBool:
    """Is the diagram group at ``w`` trivial?

    Yes only on a complete enumeration all of whose tree-closing loops reduce
    to the empty diagram (that set generates the whole group, and reduced
    diagrams are canonical forms, so this is an exact decision).  No carries
    a nontrivial reduced spherical diagram as witness, which is valid even on
    truncated data.  Triviality is an invariant of the congruence class, so
    the computation is shared across all words with one representative.
    The empty word counts as trivial: it names the empty context.
    """
    pres.check_word(w)
    if not w:
        return TriBool.yes("the empty context has a one-point complex")
    return _trivial_rep(pres, _rep(pres, w, caps), caps)


# ---------------------------------------------------------------------------
# left hyperplanes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LetterSplit:
    """A context side cut as prefix . letter . suffix at the triviality edge.

    The prefix is the maximal one whose extension of the outer context still
    carries a trivial group; the letter is where triviality first fails, so
    the cut is unique whenever the underlying verdicts are definite.
    """

    prefix: Word
    letter: Letter
    suffix: Word
    exact: bool


@dataclass(frozen=True)
class LeftHyperplane:
    """A hyperplane whose left context group is trivial but stops being so
    when extended through the rewrite, together with the splits of both
    rewrite sides used by the decomposition."""

    id: HyperplaneId
    source_split: LetterSplit
    target_split: LetterSplit
    exact: bool

    def __str__(self) -> str:
        return str(self.id)


def _split_side(
    pres: Presentation, context: Word, side: Word, caps: SearchCaps
) -> Tuple[Optional[LetterSplit], Tuple[str, ...]]:
    """Cut ``side`` at the maximal prefix keeping ``context + prefix`` trivial."""
    exact = True
    for i, letter in enumerate(side):
        verdict = is_trivial_group(pres, context + side[: i + 1], caps)
        if verdict.is_unknown:
            return None, (
                f"cannot place the cut in {format_word(side)}: triviality of"
                f" {format_word(context + side[: i + 1])} is unknown",
            )
        if verdict.is_no:
            return (
                LetterSplit(side[:i], letter, side[i + 1 :], exact),
                (),
            )
    return None, (
        f"no cut in {format_word(side)}: the whole side keeps the context"
        " trivial, which contradicts the hyperplane being left",
    )


@dataclass(frozen=True)
class LeftHyperplaneScan:
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


def left_hyperplanes(
    pres: Presentation, w: Word, caps: SearchCaps
) -> LeftHyperplaneScan:
    """Scan the (possibly truncated) hyperplane catalog of ``w`` for left ones.

    Leftness does not depend on the side of the rewrite used to extend the
    context — the two extensions are equal modulo the presentation, hence
    share one diagram group — so each unoriented hyperplane is tested once.
    """
    catalog = build_ball(pres, w, caps).catalog
    found: List[LeftHyperplane] = []
    rejected: List[HyperplaneId] = []
    undecided: List[HyperplaneId] = []
    notes: List[str] = []
    for hid in catalog.ids:
        a = hid.left
        relation = pres.relations[hid.relation]
        u, v = relation.lhs, relation.rhs
        left_ok = is_trivial_group(pres, a, caps)
        if left_ok.is_no:
            rejected.append(hid)
            continue
        grown = is_trivial_group(pres, a + u, caps)
        if left_ok.is_unknown or grown.is_unknown:
            undecided.append(hid)
            continue
        if grown.is_yes:
            rejected.append(hid)
            continue
        source_split, src_notes = _split_side(pres, a, u, caps)
        target_split, tgt_notes = _split_side(pres, a, v, caps)
        notes.extend(src_notes)
        notes.extend(tgt_notes)
        if source_split is None or target_split is None:
            undecided.append(hid)
            continue
        exact = (
            hid.exact
            and source_split.exact
            and target_split.exact
        )
        found.append(LeftHyperplane(hid, source_split, target_split, exact))
    exact = (
        catalog.exact
        and not undecided
        and all(h.exact for h in found)
    )
    return LeftHyperplaneScan(
        pres, w, tuple(found), tuple(rejected), tuple(undecided), exact,
        tuple(notes),
    )


# ---------------------------------------------------------------------------
# fundamental groups of class pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeBasis:
    """Free generating loops of the fundamental group of a class *graph*.

    Valid when the enumerated piece has no squares: the non-tree edges then
    freely generate.  ``express`` folds any spherical diagram over a word of
    the class into the basis by walking its derivation edge by edge — tree
    edges vanish, so no base-point transport is ever needed.
    """

    pres: Presentation
    seed: Word
    enum: ClassEnumeration = field(repr=False, compare=False)
    edges: Tuple[Tuple[Word, Move], ...] = ()
    exact: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {e: i for i, e in enumerate(self.edges)}
        )
        object.__setattr__(self, "_tree", _tree_pairs(self.enum, self.pres))

    @property
    def rank(self) -> int:
        return len(self.edges)

    def express(self, d: Diagram) -> Optional[Tuple[Tuple[int, int], ...]]:
        """Word in the basis representing the loop ``d``, or None if the walk
        leaves the enumerated piece (truncation)."""
        assert d.is_spherical, "only loops have a class in the fundamental group"
        if d.top not in self.enum:
            return None
        out: List[Tuple[int, int]] = []
        words = d.words()
        for w, move in zip(words, d.moves):
            if move.forward:
                key, sign = (w, move), 1
            else:
                key, sign = (move.apply(w, self.pres), move.inverted()), -1
            if key[0] not in self.enum or move.apply(w, self.pres) not in self.enum:
                return None
            if key in self._tree:
                continue
            idx = self._index.get(key)
            if idx is None:
                return None
            if out and out[-1] == (idx, -sign):
                out.pop()
            else:
                out.append((idx, sign))
        return tuple(out)


@lru_cache(maxsize=1024)
def _free_basis_rep(
    pres: Presentation, w: Word, caps: SearchCaps
) -> Optional[FreeBasis]:
    ball = build_ball(pres, w, caps)
    if ball.squares:
        return None
    return FreeBasis(pres, w, ball.enum, _non_tree_edges(ball), ball.complete)


def free_basis(
    pres: Presentation, w: Word, caps: SearchCaps
) -> Optional[FreeBasis]:
    """Free basis of the group at ``w`` when its enumerated piece is a graph;
    None as soon as a square shows up (the group need not be free then)."""
    pres.check_word(w)
    return _free_basis_rep(pres, _rep(pres, w, caps), caps)


# ---------------------------------------------------------------------------
# group presentations
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class GroupPresentation:
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


def simplify_presentation(
    pres: GroupPresentation, max_passes: int = 200, size_cap: int = 4000
) -> GroupPresentation:
    """Bounded cleanup: free/cyclic reduction, killing generators that some
    relator declares trivial, and substituting generators a relator defines.

    Every step is a plain rewriting of the presentation, so the result
    presents the same group; the bounds only stop the search, never change
    the answer.
    """
    gens = list(pres.generators)
    rels = [_cyclic_reduce(r) for r in pres.relators]
    alive = list(range(len(gens)))

    def total_size() -> int:
        return sum(len(r) for r in rels)

    for _ in range(max_passes):
        rels = [r for r in {_relator_key(_cyclic_reduce(r)) for r in rels} if r]
        rels.sort(key=lambda r: (len(r), r))
        changed = False
        # a length-one relator kills its generator outright
        for r in rels:
            if len(r) == 1:
                dead = r[0][0]
                rels = [
                    tuple((g, e) for g, e in rr if g != dead)
                    for rr in rels
                    if rr != r
                ]
                alive = [g for g in alive if g != dead]
                changed = True
                break
        if changed:
            continue
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
            if total_size() + uses * len(replacement) > size_cap:
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


def _fold_steps(
    basis: FreeBasis, steps: Sequence[Tuple[Word, Move, int]]
) -> Optional[List[Tuple[int, int]]]:
    """Fold an edge walk through the basis.

    Each step is a *forward-normalized* edge (source word, forward move)
    together with the direction it is traversed in.
    """
    out: List[Tuple[int, int]] = []
    for w, move, sign in steps:
        key = (w, move)
        if key in basis._tree:
            continue
        idx = basis._index.get(key)
        if idx is None:
            return None
        out.append((idx, sign))
    return list(_free_reduce(out))


def complete_ball_presentation(
    pres: Presentation, w: Word, caps: SearchCaps
) -> GroupPresentation:
    """Direct presentation of the group of a completely enumerated class:
    one generator per non-tree edge, one relator per square boundary."""
    rep = _rep(pres, w, caps)
    ball = build_ball(pres, rep, caps)
    if not ball.complete:
        raise ValueError(
            f"the class of {format_word(w)} was not completely enumerated"
        )
    basis = FreeBasis(pres, rep, ball.enum, _non_tree_edges(ball), True)
    relators: List[Relator] = []
    for sq in ball.squares:
        m1, m2 = sq.moves
        c = sq.corner
        a_corner = m1.apply(c, pres)
        b_corner = m2.apply(c, pres)
        shifted = Move(m2.offset + m1.delta(pres), m2.relation, m2.forward)
        walk = [
            (c, m1, 1),
            (a_corner, shifted, 1),
            (b_corner, m1, -1),
            (c, m2, -1),
        ]
        folded = _fold_steps(basis, walk)
        assert folded is not None, "square boundary left the complete ball"
        relators.append(_cyclic_reduce(tuple(folded)))
    names = tuple(f"g{i}" for i in range(basis.rank))
    return GroupPresentation(
        names,
        tuple(sorted({_relator_key(r) for r in relators if r})),
        False,
        True,
    )


# ---------------------------------------------------------------------------
# factor groups of product pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorGroup:
    """The group of one factor of a product piece, as well as we can tell.

    ``kind`` is one of trivial / free / presented / unknown, in decreasing
    order of how much structure the emission downstream can use: free factors
    carry an expressible basis, presented ones a presentation only, unknown
    ones just a marker.
    """

    kind: str
    seed: Word
    exact: bool
    basis: Optional[FreeBasis] = field(default=None, compare=False, repr=False)
    presentation: Optional[GroupPresentation] = None
    note: str = ""

    @property
    def is_trivial(self) -> bool:
        return self.kind == "trivial"

    @property
    def generator_count(self) -> int:
        if self.kind == "trivial":
            return 0
        if self.kind == "free":
            return self.basis.rank
        if self.kind == "presented":
            return len(self.presentation.generators)
        return 0


def factor_group(
    pres: Presentation, w: Word, caps: SearchCaps, depth: int = 1
) -> FactorGroup:
    """Classify the group at ``w``: trivial, free graph piece, directly
    presentable (complete ball), recursively decomposable, or unknown."""
    if not w:
        return FactorGroup("trivial", (), True)
    return _factor_rep(pres, _rep(pres, w, caps), caps, depth)


@lru_cache(maxsize=2048)
def _factor_rep(
    pres: Presentation, rep: Word, caps: SearchCaps, depth: int
) -> FactorGroup:
    verdict = is_trivial_group(pres, rep, caps)
    if verdict.is_yes:
        return FactorGroup("trivial", rep, True)
    basis = _free_basis_rep(pres, rep, caps)
    if basis is not None:
        note = "" if basis.exact else (
            "free on the loops seen so far; the class was truncated"
        )
        return FactorGroup("free", rep, basis.exact, basis, None, note)
    enum = _enum(pres, rep, caps)
    if enum.complete:
        return FactorGroup(
            "presented", rep, True, None,
            complete_ball_presentation(pres, rep, caps),
        )
    if depth > 0:
        sub = decompose(pres, rep, caps, depth - 1)
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


@dataclass(frozen=True)
class VertexSpace:
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


@dataclass(frozen=True)
class DecompositionEdge:
    """An edge of the decomposition: one left hyperplane, its two endpoint
    vertices, and the groups of the two product factors of its edge space."""

    hyperplane: LeftHyperplane
    minus_vertex: int
    plus_vertex: int
    left_group: FactorGroup
    right_group: FactorGroup


@dataclass(frozen=True)
class GraphOfGroups:
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

    def component_count(self) -> int:
        parent = list(range(len(self.vertices)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            ra, rb = find(e.minus_vertex), find(e.plus_vertex)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        return len({find(i) for i in range(len(self.vertices))})


def decompose(
    pres: Presentation, w: Word, caps: SearchCaps, depth: int = 1
) -> GraphOfGroups:
    """Cut the class complex of ``w`` along its left hyperplanes.

    Each left hyperplane ``[a, u -> v, b]`` with splits ``u = p·ℓ·s`` and
    ``v = q·m·r`` contributes the vertices ``S(a p) ℓ S(s b)`` and
    ``S(a q) m S(r b)`` (merged by class-representative equality of the
    descriptors) and one edge with edge space ``S(a) x S(b)``; the inclusion
    of the edge space into its endpoints pads the factors by the split
    remainders.  With no left hyperplanes the whole complex is one vertex.
    """
    pres.check_word(w)
    scan = left_hyperplanes(pres, w, caps)
    notes = list(scan.notes)
    if not scan.hyperplanes:
        vertex = VertexSpace(
            (), None, _rep(pres, w, caps),
            FactorGroup("trivial", (), True),
            factor_group(pres, w, caps, depth),
        )
        return GraphOfGroups(
            pres, w, (vertex,), (), scan.undecided, scan.exact, tuple(notes)
        )
    index: Dict[Tuple[Word, Letter, Word], int] = {}
    vertices: List[VertexSpace] = []

    def vertex_for(context: Word, split: LetterSplit, right_ctx: Word) -> int:
        lw = _rep(pres, context + split.prefix, caps)
        rw = _rep(pres, split.suffix + right_ctx, caps)
        key = (lw, split.letter, rw)
        if key not in index:
            index[key] = len(vertices)
            vertices.append(
                VertexSpace(
                    lw, split.letter, rw,
                    factor_group(pres, lw, caps, depth),
                    factor_group(pres, rw, caps, depth),
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
                factor_group(pres, a, caps, depth),
                factor_group(pres, b, caps, depth),
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
        pres, w, tuple(vertices), tuple(edges), scan.undecided, exact,
        tuple(notes),
    )


def free_rank(gog: GraphOfGroups) -> int:
    """Rank of the fundamental group when every group label is trivial:
    edges − vertices + components of the underlying graph."""
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
    return len(gog.edges) - len(gog.vertices) + gog.component_count()


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


def fundamental_group_presentation(
    gog: GraphOfGroups, simplify: bool = True
) -> GroupPresentation:
    """Present the fundamental group of the decomposition.

    Generators: the generators of every vertex group plus one letter per
    non-forest edge.  Relators: product commutation inside each vertex,
    vertex-group relators, and, for each edge and each edge-group generator,
    the conjugation relator identifying its two padded images.  Images that
    cannot be expressed inside truncated vertex data are skipped and flagged
    rather than guessed.
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
                for k in range(fg.basis.rank):
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
        fg_edge: FactorGroup,
        loop_index: int,
        vertex: VertexSpace,
        side: str,
        vertex_idx: int,
        pad_before: Word,
        pad_after: Word,
    ) -> Optional[List[Tuple[int, int]]]:
        vfg = vertex.left_group if side == "L" else vertex.right_group
        if vfg.kind == "trivial":
            return None
        if vfg.kind != "free":
            return None
        src, move = fg_edge.basis.edges[loop_index]
        loop = _loop_diagram(fg_edge.basis.enum, pres, src, move)
        image = _pad_loop(pres, loop, pad_before, pad_after)
        word = vfg.basis.express(image)
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
            for k in range(fg.basis.rank):
                if side == "L":
                    minus_img = express_image(
                        fg, k, gog.vertices[e.minus_vertex], "L",
                        e.minus_vertex, (), hyp.source_split.prefix,
                    )
                    plus_img = express_image(
                        fg, k, gog.vertices[e.plus_vertex], "L",
                        e.plus_vertex, (), hyp.target_split.prefix,
                    )
                else:
                    minus_img = express_image(
                        fg, k, gog.vertices[e.minus_vertex], "R",
                        e.minus_vertex, hyp.source_split.suffix, (),
                    )
                    plus_img = express_image(
                        fg, k, gog.vertices[e.plus_vertex], "R",
                        e.plus_vertex, hyp.target_split.suffix, (),
                    )
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
    return simplify_presentation(doc) if simplify else doc


# ---------------------------------------------------------------------------
# mirroring (the right-handed theory)
# ---------------------------------------------------------------------------


def mirror_word(w: Word) -> Word:
    return tuple(reversed(w))


def mirror_presentation(pres: Presentation) -> Presentation:
    """Reverse every relation side; mirroring words then swaps the roles of
    left and right contexts, so the right-handed decomposition of a word is
    the left-handed one of its mirror."""
    from .rewriting import Relation

    return Presentation(
        pres.letters,
        tuple(
            Relation(mirror_word(r.lhs), mirror_word(r.rhs))
            for r in pres.relations
        ),
    )


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
        out["rank"] = fg.basis.rank
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
    "FreeBasis",
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
    "free_basis",
    "free_rank",
    "fundamental_group_presentation",
    "gog_to_dot",
    "gog_to_json",
    "is_trivial_group",
    "left_hyperplanes",
    "mirror_presentation",
    "mirror_word",
    "simplify_presentation",
]

"""Right-angled Artin group words and the hyperplane morphism.

The crossing graph of a ball's hyperplanes, read off its crossing order
``ball.order``, induces a right-angled Artin group
(:func:`hyperplane_graph`): one generator ``H<i>`` per cataloged
hyperplane, one commutation relation per crossing pair.  A spherical
diagram replays as a loop of ball edges, each dual to an oriented
hyperplane; reading off the corresponding generators (signed against a
fixed orientation of each hyperplane) is a morphism from the diagram group
into that Artin group (:func:`phi`).  Over a special complex the
morphism is injective, which is what makes the image worth computing: the
Artin side has a fast normal form.

A word is a plain tuple of syllables ``(label, +1 | -1)``, read left to
right, with ``()`` the identity: :func:`raag_normal_form`,
:func:`multiply_syllable` and :func:`phi` return such tuples, and
:func:`format_raag_word` prints one.

Normal form here: the lexicographically least geodesic, ``g`` before
``g^-1`` before any later label.  Geodesics in a partially commutative
group form a single shuffle class, so two words are equal in the group iff
their normal forms coincide.  :func:`multiply_syllable` updates a normal
form by one syllable ``s`` in one backward scan over the syllables that
commute with ``s`` (Anisimov and Knuth, "Inhomogeneous sorting", 1979).
It rests on two facts.  A reduced word times ``s`` fails to be reduced iff
``s^-1`` can be shuffled to its end, and then deleting that ``s^-1`` is
the product.  And the lex-least shuffle is greedy, so a syllable that can
be shuffled to the end (one added or one removed) leaves the order of the
others unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Set, Tuple

from .rewriting import Diagram, Move, Presentation, format_word

if TYPE_CHECKING:
    # only the hyperplane morphism reaches the class complex; ``verify-raag``
    # loads this module for the Artin groups alone
    from .squier import SquierBall


# ---------------------------------------------------------------------------
# graphs and words
# ---------------------------------------------------------------------------


Syllable = Tuple[str, int]  # (generator label, +1 | -1)


class RaagGraph:
    """A finite simple graph; vertices generate, edges commute."""

    __slots__ = ("vertices", "edges", "neighbours")

    def __init__(
        self, vertices: Tuple[str, ...], edges: FrozenSet[Tuple[str, str]]
    ) -> None:
        neighbours: Dict[str, Set[str]] = {v: set() for v in vertices}
        if len(neighbours) != len(vertices):
            raise ValueError("duplicate vertex labels")
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            if (u, v) != tuple(sorted((u, v))):
                raise ValueError("edge pairs must be stored sorted")
            if u not in neighbours or v not in neighbours:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertices")
            neighbours[u].add(v)
            neighbours[v].add(u)
        self.vertices = vertices
        self.edges = edges  # pairs stored sorted
        self.neighbours = neighbours  # the vertices each vertex commutes with

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RaagGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def adjacent(self, u: str, v: str) -> bool:
        return v in self.neighbours[u]


def raag_graph(vertices: Sequence[str], edges: Sequence[Tuple[str, str]]) -> RaagGraph:
    """Build a graph, normalizing edge order and dropping duplicates."""
    return RaagGraph(
        tuple(vertices),
        frozenset(tuple(sorted(e)) for e in edges),
    )


def format_raag_word(w: Tuple[Syllable, ...]) -> str:
    if not w:
        return "1"
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in w)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


def multiply_syllable(
    nf: Tuple[Syllable, ...], s: Syllable, graph: RaagGraph
) -> Tuple[Syllable, ...]:
    """The normal form of ``nf · s``, for a normal form ``nf`` over ``graph``.

    Scans back from the end over the syllables that commute with ``s`` and
    stops at the first that does not, or that has the generator of ``s``.
    If that syllable is ``s^-1``, it cancels against ``s``.  Otherwise ``s``
    is inserted at the first later position whose generator is larger than
    its own, or appended; the syllables it passes all commute with it and
    have other generators, so their keys differ from its key only by label.
    """
    g, e = s
    commuting = graph.neighbours[g]
    i = len(nf) - 1
    while i >= 0 and nf[i][0] in commuting:
        i -= 1
    if i >= 0 and nf[i] == (g, -e):
        return nf[:i] + nf[i + 1:]
    j = i + 1
    while j < len(nf) and nf[j][0] < g:
        j += 1
    return nf[:j] + (s,) + nf[j:]


def raag_normal_form(w: Tuple[Syllable, ...], graph: RaagGraph) -> Tuple[Syllable, ...]:
    """Canonical representative; identical normal forms <=> equal elements.

    Folds :func:`multiply_syllable` over ``w``, starting from the empty
    word.  Each step is exact by the two facts in the module docstring:
    ``nf · s`` either cancels an ``s^-1`` that shuffles to the end of ``nf``
    or is reduced, and adding or removing a syllable that shuffles to the
    end leaves the greedy lex-least order of the others as it was.  A word
    of ``n`` syllables costs ``n`` linear steps.
    """
    for gen, _ in w:
        if gen not in graph.neighbours:
            raise ValueError(f"unknown generator {gen!r}")
    nf: Tuple[Syllable, ...] = ()
    for s in w:
        nf = multiply_syllable(nf, s, graph)
    return nf


# ---------------------------------------------------------------------------
# the hyperplane group A(P, w)
# ---------------------------------------------------------------------------


def hyperplane_graph(ball: SquierBall) -> RaagGraph:
    """The crossing graph of ``ball.order`` as an Artin graph: vertex
    ``H<i>`` is ``ball.catalog.ids[i]``, so labels follow catalog order
    (sorted by relation, then parts) and are stable across runs, and each
    crossing pair is one edge."""
    labels = tuple(f"H{i}" for i in range(len(ball.catalog.ids)))
    return raag_graph(labels, [(labels[i], labels[j]) for i, j, _ in ball.order.crossings])


# ---------------------------------------------------------------------------
# the morphism
# ---------------------------------------------------------------------------


def positive_direction(move: Move, pres: Presentation) -> bool:
    """Fixed orientation: rewriting the shortlex-smaller side toward the
    larger one counts as positive.  Any convention works; this one is
    deterministic and presentation-intrinsic."""
    rel = pres.relations[move.relation]
    lhs_first = pres.shortlex_key(rel.lhs) < pres.shortlex_key(rel.rhs)
    return move.forward == lhs_first


def phi(d: Diagram, ball: SquierBall) -> Tuple[Syllable, ...]:
    """Image of a spherical diagram in the hyperplane Artin group of
    ``ball``, over :func:`hyperplane_graph`.

    Replays the diagram as a loop of edges; each edge contributes its
    hyperplane's generator, inverted when the edge runs against the fixed
    orientation.  The result is returned in normal form.  An edge whose
    hyperplane is not cataloged raises ``squier.OutsideCatalogError``.
    """
    graph = hyperplane_graph(ball)
    if d.pres != ball.pres:
        raise ValueError("diagram is over a different presentation")
    if not d.is_spherical:
        raise ValueError("phi is defined on spherical diagrams only")
    if d.top != ball.base:
        raise ValueError(
            f"diagram base {format_word(d.top)} differs from {format_word(ball.base)}"
        )
    sylls: List[Syllable] = []
    for word, move in zip(d.words(), d.moves):
        label = graph.vertices[ball.hyperplane_index(word, move)]
        sign = 1 if positive_direction(move, ball.pres) else -1
        sylls.append((label, sign))
    return raag_normal_form(tuple(sylls), graph)


__all__ = [
    "RaagGraph",
    "Syllable",
    "format_raag_word",
    "hyperplane_graph",
    "multiply_syllable",
    "phi",
    "positive_direction",
    "raag_graph",
    "raag_normal_form",
]

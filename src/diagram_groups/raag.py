"""Right-angled Artin group words and the hyperplane morphism.

The transversality graph of a ball induces a right-angled Artin group:
one generator per unoriented hyperplane, one commutation relation per
crossing pair.  A spherical diagram replays as a loop of ball edges, each
dual to an oriented hyperplane; reading off the corresponding generators
(signed against a fixed orientation of each hyperplane) is a morphism from
the diagram group into that Artin group.  Over a special complex the
morphism is injective, which is what makes the image worth computing: the
Artin side has a fast normal form.

Normal form here: cancel ``g g^-1`` pairs whenever the syllables between
them commute with ``g``, repeat to a geodesic, then emit the
lexicographically least shuffle of the survivors.  Two words are equal in
the group iff their normal forms coincide (geodesics in a partially
commutative group form a single shuffle class).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .rewriting import Move, Presentation, format_word

if TYPE_CHECKING:
    # only the hyperplane morphism reaches the class complex; ``verify-raag``
    # loads this module for the Artin groups alone
    from .diagrams import Diagram
    from .squier import SquierBall


# ---------------------------------------------------------------------------
# graphs and words
# ---------------------------------------------------------------------------


Syllable = Tuple[str, int]  # (generator label, +1 | -1)


class RaagGraph:
    """A finite simple graph; vertices generate, edges commute."""

    __slots__ = ("vertices", "edges")

    def __init__(
        self, vertices: Tuple[str, ...], edges: FrozenSet[Tuple[str, str]]
    ) -> None:
        seen = set(vertices)
        if len(seen) != len(vertices):
            raise ValueError("duplicate vertex labels")
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            if (u, v) != tuple(sorted((u, v))):
                raise ValueError("edge pairs must be stored sorted")
            if u not in seen or v not in seen:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertices")
        self.vertices = vertices
        self.edges = edges  # pairs stored sorted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RaagGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def adjacent(self, u: str, v: str) -> bool:
        return tuple(sorted((u, v))) in self.edges


def raag_graph(vertices: Sequence[str], edges: Sequence[Tuple[str, str]]) -> RaagGraph:
    """Build a graph, normalizing edge order and dropping duplicates."""
    return RaagGraph(
        tuple(vertices),
        frozenset(tuple(sorted(e)) for e in edges),
    )


class RaagWord:
    """A word in generators and their inverses."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Tuple[Syllable, ...]) -> None:
        for gen, exp in syllables:
            if exp not in (1, -1):
                raise ValueError(f"exponent {exp} is not +1 or -1")
            assert isinstance(gen, str)
        self.syllables = syllables

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RaagWord):
            return NotImplemented
        return self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __mul__(self, other: "RaagWord") -> "RaagWord":
        return RaagWord(self.syllables + other.syllables)

    def inverse(self) -> "RaagWord":
        return RaagWord(
            tuple((g, -e) for g, e in reversed(self.syllables))
        )

    def __len__(self) -> int:
        return len(self.syllables)

    def __str__(self) -> str:
        return format_raag_word(self)


EMPTY_WORD = RaagWord(())


def format_raag_word(w: RaagWord) -> str:
    if not w.syllables:
        return "1"
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in w.syllables)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


def _syllable_key(s: Syllable) -> Tuple[str, int]:
    # positive before negative for the same generator
    return (s[0], 0 if s[1] == 1 else 1)


def _cancel_to_geodesic(sylls: List[Syllable], graph: RaagGraph) -> None:
    """Delete shuffle-adjacent inverse pairs in place until none remain.

    A pair (i, j) cancels when the generators match with opposite signs and
    every syllable strictly between commutes with that generator; the scan
    stops at the first same-generator syllable either way, because equal
    generators never shuffle past each other.
    """
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(sylls) and not changed:
            gi, ei = sylls[i]
            for j in range(i + 1, len(sylls)):
                gj, ej = sylls[j]
                if gj == gi:
                    if ej == -ei:
                        del sylls[j]
                        del sylls[i]
                        changed = True
                    break
                if not graph.adjacent(gi, gj):
                    break
            i += 1


def _lex_least_shuffle(sylls: Sequence[Syllable], graph: RaagGraph) -> List[Syllable]:
    """Greedy lexicographically least linearization of the shuffle class.

    A syllable may move to the front iff everything before it commutes with
    it (and shares no generator); among the movable ones the least key wins.
    Greedy choice is optimal because prefixes of lex-least words are
    lex-least.
    """
    remaining = list(sylls)
    out: List[Syllable] = []
    while remaining:
        best_i: Optional[int] = None
        for i, s in enumerate(remaining):
            if any(
                remaining[j][0] == s[0] or not graph.adjacent(remaining[j][0], s[0])
                for j in range(i)
            ):
                continue
            if best_i is None or _syllable_key(s) < _syllable_key(remaining[best_i]):
                best_i = i
        assert best_i is not None  # index 0 is always movable
        out.append(remaining.pop(best_i))
    return out


def raag_normal_form(w: RaagWord, graph: RaagGraph) -> RaagWord:
    """Canonical representative; identical normal forms <=> equal elements."""
    known = set(graph.vertices)
    for gen, _ in w.syllables:
        if gen not in known:
            raise ValueError(f"unknown generator {gen!r}")
    sylls = list(w.syllables)
    _cancel_to_geodesic(sylls, graph)
    return RaagWord(tuple(_lex_least_shuffle(sylls, graph)))


# ---------------------------------------------------------------------------
# the hyperplane group A(P, w)
# ---------------------------------------------------------------------------


class HyperplaneGenerators(NamedTuple):
    """Label table pairing the ball's catalog hyperplanes with Artin
    generators.

    Labels are ``H0``, ``H1``, ... in catalog order (sorted by relation,
    then parts), so they are stable across runs.
    """

    ball: SquierBall
    labels: Tuple[str, ...]
    graph: RaagGraph
    exact: bool


def hyperplane_generators(ball: SquierBall) -> HyperplaneGenerators:
    from .squier import transversality_graph

    labels = tuple(f"H{i}" for i in range(len(ball.catalog.ids)))
    tg = transversality_graph(ball)
    edges = []
    for i, j, _value in tg.edges:
        edges.append(tuple(sorted((labels[i], labels[j]))))
    # tg.exact already requires an exact catalog
    return HyperplaneGenerators(ball, labels, raag_graph(labels, edges), tg.exact)


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


def phi(d: Diagram, gens: HyperplaneGenerators) -> RaagWord:
    """Image of a spherical diagram in the hyperplane Artin group of
    ``gens.ball``.

    Replays the diagram as a loop of edges; each edge contributes its
    hyperplane's generator, inverted when the edge runs against the fixed
    orientation.  The result is returned in normal form.  An edge whose
    hyperplane is not cataloged raises ``squier.OutsideCatalogError``.
    """
    ball = gens.ball
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
        label = gens.labels[ball.hyperplane_index(word, move)]
        sign = 1 if positive_direction(move, ball.pres) else -1
        sylls.append((label, sign))
    return raag_normal_form(RaagWord(tuple(sylls)), gens.graph)


__all__ = [
    "EMPTY_WORD",
    "HyperplaneGenerators",
    "RaagGraph",
    "RaagWord",
    "Syllable",
    "format_raag_word",
    "hyperplane_generators",
    "phi",
    "positive_direction",
    "raag_graph",
    "raag_normal_form",
]

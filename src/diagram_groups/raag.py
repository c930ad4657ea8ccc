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

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .diagrams import Diagram
from .rewriting import (
    Move,
    Presentation,
    SearchCaps,
    Word,
    format_word,
)
from .squier import (
    HyperplaneCatalog,
    HyperplaneId,
    SquierBall,
    build_ball,
    hyperplane_id,
    transversality_graph,
)


# ---------------------------------------------------------------------------
# graphs and words
# ---------------------------------------------------------------------------


Syllable = Tuple[str, int]  # (generator label, +1 | -1)


@dataclass(frozen=True)
class RaagGraph:
    """A finite simple graph; vertices generate, edges commute."""

    vertices: Tuple[str, ...]
    edges: FrozenSet[Tuple[str, str]]  # pairs stored sorted

    def __post_init__(self) -> None:
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            if (u, v) != tuple(sorted((u, v))):
                raise ValueError("edge pairs must be stored sorted")
            if u not in seen or v not in seen:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertices")

    def adjacent(self, u: str, v: str) -> bool:
        return tuple(sorted((u, v))) in self.edges


def raag_graph(vertices: Sequence[str], edges: Sequence[Tuple[str, str]]) -> RaagGraph:
    """Build a graph, normalizing edge order and dropping duplicates."""
    return RaagGraph(
        tuple(vertices),
        frozenset(tuple(sorted(e)) for e in edges),
    )


@dataclass(frozen=True)
class RaagWord:
    """A word in generators and their inverses."""

    syllables: Tuple[Syllable, ...]

    def __post_init__(self) -> None:
        for gen, exp in self.syllables:
            if exp not in (1, -1):
                raise ValueError(f"exponent {exp} is not +1 or -1")
            assert isinstance(gen, str)

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


def parse_raag_word(text: str, graph: RaagGraph) -> RaagWord:
    """Parse whitespace-separated ``gen`` / ``gen^-1`` tokens."""
    sylls: List[Syllable] = []
    known = set(graph.vertices)
    for token in text.split():
        if token == "1":
            continue
        if token.endswith("^-1"):
            gen, exp = token[:-3], -1
        else:
            gen, exp = token, 1
        if gen not in known:
            raise ValueError(f"unknown generator {gen!r}")
        sylls.append((gen, exp))
    return RaagWord(tuple(sylls))


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


def raag_equal(w1: RaagWord, w2: RaagWord, graph: RaagGraph) -> bool:
    return raag_normal_form(w1, graph) == raag_normal_form(w2, graph)


# ---------------------------------------------------------------------------
# the hyperplane group A(P, w)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperplaneGenerators:
    """Label table pairing catalog hyperplanes with Artin generators.

    Labels are ``H0``, ``H1``, ... in catalog order (sorted by relation,
    then parts), so they are stable across runs.
    """

    catalog: HyperplaneCatalog
    labels: Tuple[str, ...]
    graph: RaagGraph
    exact: bool

    def label_of(self, hid: HyperplaneId) -> str:
        i = self.catalog.index.get(hid.unoriented())
        if i is None:
            raise ValueError(f"hyperplane {hid} is outside the truncated catalog")
        return self.labels[i]


def hyperplane_generators(ball: SquierBall) -> HyperplaneGenerators:
    catalog = ball.catalog
    labels = tuple(f"H{i}" for i in range(len(catalog.ids)))
    tg = transversality_graph(ball)
    edges = []
    for i, j, _value in tg.edges:
        edges.append(tuple(sorted((labels[i], labels[j]))))
    # tg.exact already requires an exact catalog
    return HyperplaneGenerators(catalog, labels, raag_graph(labels, edges), tg.exact)


def build_apw(pres: Presentation, w: Word, caps: SearchCaps) -> RaagGraph:
    """The Artin group presentation graph of the ball at ``w``."""
    return hyperplane_generators(build_ball(pres, w, caps)).graph


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


def phi(
    d: Diagram,
    pres: Presentation,
    w: Word,
    caps: SearchCaps,
    gens: Optional[HyperplaneGenerators] = None,
) -> RaagWord:
    """Image of a spherical diagram in the hyperplane Artin group.

    Replays the diagram as a loop of edges; each edge contributes its
    hyperplane's generator, inverted when the edge runs against the fixed
    orientation.  The result is returned in normal form.
    """
    if d.pres != pres:
        raise ValueError("diagram is over a different presentation")
    if not d.is_spherical:
        raise ValueError("phi is defined on spherical diagrams only")
    if d.top != w:
        raise ValueError(
            f"diagram base {format_word(d.top)} differs from {format_word(w)}"
        )
    if gens is None:
        gens = hyperplane_generators(build_ball(pres, w, caps))
    sylls: List[Syllable] = []
    for word, move in zip(d.words(), d.moves):
        hid = hyperplane_id(word, move, pres, caps)
        label = gens.label_of(hid)
        sign = 1 if positive_direction(move, pres) else -1
        sylls.append((label, sign))
    return raag_normal_form(RaagWord(tuple(sylls)), gens.graph)


__all__ = [
    "EMPTY_WORD",
    "HyperplaneGenerators",
    "RaagGraph",
    "RaagWord",
    "Syllable",
    "build_apw",
    "format_raag_word",
    "hyperplane_generators",
    "parse_raag_word",
    "phi",
    "positive_direction",
    "raag_equal",
    "raag_graph",
    "raag_normal_form",
]

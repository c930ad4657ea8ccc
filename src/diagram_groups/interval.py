"""Interval collections and the letter-cycle presentations they define.

A finite collection of integer intervals has an intersection graph
(vertices = intervals, edges = intersecting pairs).  Its *complement* — the
disjointness graph — governs a family of diagram groups: give every point
``i`` of the ground set a letter ``x_i`` and every interval ``I`` a cycle of
letters ``a_I = b_I = c_I = a_I`` glued to the base by ``x_I = a_I``, where
``x_I`` is the factor of ``x_1 … x_n`` spanned by ``I``.  Each interval then
contributes a five-cell spherical loop at the base word, two loops commute
exactly when the intervals are disjoint, and together they generate the
whole group: the group of the base word is the right-angled Artin group of
the disjointness graph.

This module builds the collections, their graphs, the presentations, and
the generator loops, plus two decision helpers:

* recognizing when a given graph is the complement of an interval graph
  (no induced pair of independent edges, and a transitive orientation
  exists — both decided, with certificates), and
* corroborating the isomorphism on concrete instances by comparing the
  commutation pattern, the relator images, and ball growth on both sides.

The orientation comes from Golumbic's implication classes (*Algorithmic
Graph Theory and Perfect Graphs*, 1980, ch. 5) in polynomial time, so
recognition takes graphs of any size.  The realization costs no search of
its own: once no induced pair of independent edges exists, the
orientation is an interval order, its down-sets form a chain, and the
positions in that chain are the interval endpoints.
"""

from itertools import accumulate, combinations
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .diagrams import Diagram, cayley_ball, reduce_diagram
from .raag import RaagGraph, Syllable, multiply_syllable, raag_graph
from .rewriting import (
    Move,
    Presentation,
    Relation,
    SearchCaps,
    Word,
)

Span = Tuple[int, int]

_BAD_NAME_CHARS = set("#=:|")


def check_interval_name(name: str) -> None:
    """Raise ValueError unless ``name`` can name an interval: it is not
    empty and holds no whitespace and none of ``#=:|``, the separators of
    the interval and graph file formats."""
    if not name or any(c in _BAD_NAME_CHARS or c.isspace() for c in name):
        raise ValueError(f"illegal interval name {name!r}")


# ---------------------------------------------------------------------------
# collections of intervals
# ---------------------------------------------------------------------------


class IntervalCollection:
    """Named closed integer intervals on the ground set ``{1, …, ground}``."""

    __slots__ = ("ground", "intervals")

    def __init__(self, ground: int, intervals: Tuple[Tuple[str, int, int], ...]) -> None:
        if ground < 1:
            raise ValueError("ground set must contain at least one point")
        seen = set()
        for name, lo, hi in intervals:
            check_interval_name(name)
            if name in seen:
                raise ValueError(f"duplicate interval name {name!r}")
            seen.add(name)
            if not (1 <= lo <= hi <= ground):
                raise ValueError(
                    f"interval {name}: [{lo}, {hi}] is not inside [1, {ground}]"
                )
        self.ground = ground
        self.intervals = intervals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalCollection):
            return NotImplemented
        return self.ground == other.ground and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash((self.ground, self.intervals))

    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _, _ in self.intervals)

    def span(self, name: str) -> Span:
        for n, lo, hi in self.intervals:
            if n == name:
                return (lo, hi)
        raise KeyError(f"no interval named {name!r}")

    def __len__(self) -> int:
        return len(self.intervals)


def intersects(a: Span, b: Span) -> bool:
    return max(a[0], b[0]) <= min(a[1], b[1])


def parse_intervals(text: str) -> IntervalCollection:
    """Parse ``n=7 / I1: 1 3 / I2: 2 5``; newlines and ``/`` both separate.
    A bad chunk is reported with its text."""
    chunks = [
        c.strip() for line in text.splitlines() for c in line.split("/")
    ]
    chunks = [c for c in chunks if c]
    if not chunks or "=" not in chunks[0]:
        raise ValueError("interval text must start with n=<ground size>")
    key, _, val = chunks[0].partition("=")
    if key.strip() != "n":
        raise ValueError(f"expected n=<ground size>, got {chunks[0]!r}")
    try:
        ground = int(val)
    except ValueError:
        raise ValueError(f"bad ground size in {chunks[0]!r}") from None
    intervals: List[Tuple[str, int, int]] = []
    for chunk in chunks[1:]:
        name, sep, rest = chunk.partition(":")
        if not sep:
            raise ValueError(f"expected 'name: lo hi', got {chunk!r}")
        parts = rest.split()
        if len(parts) != 2:
            raise ValueError(f"expected two endpoints in {chunk!r}")
        try:
            intervals.append((name.strip(), int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"bad endpoint in {chunk!r}") from None
    return IntervalCollection(ground, tuple(intervals))


def collection_to_json(coll: IntervalCollection) -> Dict[str, object]:
    return {
        "n": coll.ground,
        "intervals": [[name, lo, hi] for name, lo, hi in coll.intervals],
    }


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def interval_graph(coll: IntervalCollection) -> RaagGraph:
    """Vertices are the interval names; edges join intersecting intervals."""
    edges = [
        (n1, n2)
        for (n1, l1, h1), (n2, l2, h2) in combinations(coll.intervals, 2)
        if intersects((l1, h1), (l2, h2))
    ]
    return raag_graph(coll.names(), edges)


def complement(g: RaagGraph) -> RaagGraph:
    edges = [
        (u, v) for u, v in combinations(g.vertices, 2) if not g.adjacent(u, v)
    ]
    return raag_graph(g.vertices, edges)


def disjointness_graph(coll: IntervalCollection) -> RaagGraph:
    """The commutation graph of the interval loops: edges join disjoint
    intervals (the complement of the intersection graph)."""
    return complement(interval_graph(coll))


# ---------------------------------------------------------------------------
# recognizing complements of interval graphs
# ---------------------------------------------------------------------------


def independent_edge_pair(
    g: RaagGraph,
) -> Optional[Tuple[str, str, str, str]]:
    """An induced pair of independent edges (a, b, c, d), if one exists.

    Two vertex-disjoint edges with none of the four cross connections form
    the complement of a four-cycle; a graph containing one can never be the
    complement of an interval graph.
    """
    for (a, b), (c, d) in combinations(sorted(g.edges), 2):
        if len({a, b, c, d}) < 4:
            continue
        if not (
            g.adjacent(a, c)
            or g.adjacent(a, d)
            or g.adjacent(b, c)
            or g.adjacent(b, d)
        ):
            return (a, b, c, d)
    return None


def transitive_orientation(
    g: RaagGraph,
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """A direction for every edge such that u→v→w always has the shortcut
    u→w, in the order of the sorted edges; None when no such direction
    exists.

    Golumbic's implication classes (*Algorithmic Graph Theory and Perfect
    Graphs*, 1980, ch. 5): the least edge not yet directed is directed
    forward, and the direction spreads over the edges that were undirected
    when it was chosen.  ``t→h`` forces ``t→c`` when ``t–c`` is one of those
    edges and ``h–c`` is not, and ``c→h`` when ``c–h`` is one of them and
    ``t–c`` is not.  The forced arcs form one class of the decomposition; an
    edge forced both ways shows that no orientation exists, and otherwise
    the classes together are a transitive orientation.  The result is the
    least one in sorted-edge order with forward before backward, the one a
    backtracking search over the sorted edges finds; the tests check this
    against such a search.
    """
    free = {v: set(adjacent) for v, adjacent in g.neighbours.items()}
    directed: Set[Tuple[str, str]] = set()
    edges = sorted(g.edges)
    for u, v in edges:
        if v not in free[u]:
            continue
        forced = {(u, v)}
        stack = [(u, v)]
        while stack:
            t, h = stack.pop()
            for arc in [(t, c) for c in free[t] - free[h] if c != h] + [
                (c, h) for c in free[h] - free[t] if c != t
            ]:
                if arc[::-1] in forced:
                    return None
                if arc not in forced:
                    forced.add(arc)
                    stack.append(arc)
        for t, h in forced:
            free[t].discard(h)
            free[h].discard(t)
        directed |= forced
    return tuple(e if e in directed else e[::-1] for e in edges)


class IntervalRecognition(NamedTuple):
    """Outcome of the complement-of-interval-graph test, with certificates.

    On yes: ``orientation`` is a transitive orientation of the graph and
    ``realization`` satisfies ``interval_graph(realization) =
    complement(graph)``.  The realization is read off the orientation: the
    distinct down-sets (sets of predecessors) form a chain, and each vertex
    spans the positions from its own down-set up to the last one that
    does not contain it.  On no: ``obstruction`` names the reason.
    """

    graph: RaagGraph
    verdict: bool
    orientation: Optional[Tuple[Tuple[str, str], ...]] = None
    obstruction: Optional[str] = None
    realization: Optional[IntervalCollection] = None


def is_complement_of_interval(g: RaagGraph) -> IntervalRecognition:
    """Decide whether ``g`` is the complement of an interval graph.

    The two obstructions are exhaustive: a graph is a complement of an
    interval graph if and only if it has no induced pair of independent
    edges and admits a transitive orientation (Gilmore and Hoffman, 1964).
    With no induced pair, any transitive orientation is an interval order:
    an order without two disjoint chains ``a<b``, ``c<d`` that are
    incomparable across (Fishburn, 1970).  Its down-sets are then nested:
    ``u`` in ``D(v)`` but not ``D(w)`` and ``u'`` in ``D(w)`` but not
    ``D(v)`` would make ``u<v``, ``u'<w`` such a pair.  Sorted by size
    they form a chain ``D_1 ⊂ … ⊂ D_m``, and ``v`` gets
    ``[pos D(v), j - 1]``, where ``D_j`` is the first down-set holding
    ``v`` (or ``j = m + 1``).  If ``u<v`` then ``u ∈ D(v)``, so ``u`` ends
    before ``v`` starts; if neither precedes the other, neither interval
    ends before the other starts, so they meet.
    """
    bad = independent_edge_pair(g)
    if bad is not None:
        a, b, c, d = bad
        return IntervalRecognition(
            g,
            False,
            obstruction=f"induced independent edges {a}-{b} and {c}-{d}",
        )
    arcs = transitive_orientation(g)
    if arcs is None:
        return IntervalRecognition(
            g, False, obstruction="no transitive orientation exists"
        )
    down = {v: frozenset(t for t, h in arcs if h == v) for v in g.vertices}
    chain = sorted(set(down.values()), key=len)
    pos = {d: p for p, d in enumerate(chain, 1)}
    intervals = tuple(
        (v, pos[down[v]], next((pos[d] - 1 for d in chain if v in d), len(chain)))
        for v in g.vertices
    )
    realization = IntervalCollection(max(1, len(chain)), intervals)
    return IntervalRecognition(g, True, orientation=arcs, realization=realization)


def recognition_to_json(rec: IntervalRecognition) -> Dict[str, object]:
    out: Dict[str, object] = {
        "vertices": list(rec.graph.vertices),
        "edges": [list(e) for e in sorted(rec.graph.edges)],
        "verdict": rec.verdict,
    }
    if rec.orientation is not None:
        out["orientation"] = [list(a) for a in rec.orientation]
    if rec.obstruction is not None:
        out["obstruction"] = rec.obstruction
    if rec.realization is not None:
        out["realization"] = collection_to_json(rec.realization)
    return out


# ---------------------------------------------------------------------------
# the presentation of a collection and its generator loops
# ---------------------------------------------------------------------------


def base_word(coll: IntervalCollection) -> Word:
    return tuple(f"x{i}" for i in range(1, coll.ground + 1))


def _x_factor(lo: int, hi: int) -> Word:
    return tuple(f"x{i}" for i in range(lo, hi + 1))


def presentation_for(coll: IntervalCollection) -> Presentation:
    """One point letter ``x_i`` per ground point and, per interval, a cycle
    ``x_I = a_I, a_I = b_I, b_I = c_I, c_I = a_I`` where ``x_I`` is the
    factor of the base word spanned by the interval."""
    letters = [f"x{i}" for i in range(1, coll.ground + 1)]
    relations: List[Relation] = []
    for name, lo, hi in coll.intervals:
        a, b, c = f"a{name}", f"b{name}", f"c{name}"
        letters += [a, b, c]
        relations += [
            Relation(_x_factor(lo, hi), (a,)),
            Relation((a,), (b,)),
            Relation((b,), (c,)),
            Relation((c,), (a,)),
        ]
    return Presentation(tuple(letters), tuple(relations))


def _loop_moves(name: str, exp: int, coll: IntervalCollection) -> Tuple[Move, ...]:
    """The moves of the loop of interval ``name`` at the base word, or of
    its inverse when ``exp`` is -1: collapse ``x_I`` to ``a_I``, run the
    letter cycle ``a → b → c → a``, then reopen ``a_I`` back to ``x_I``."""
    k = coll.names().index(name)
    off = coll.span(name)[0] - 1
    moves = (
        Move(off, 4 * k, True),
        Move(off, 4 * k + 1, True),
        Move(off, 4 * k + 2, True),
        Move(off, 4 * k + 3, True),
        Move(off, 4 * k, False),
    )
    return moves if exp == 1 else tuple(m.inverted() for m in reversed(moves))


def evaluate_raag_word(w: Tuple[Syllable, ...], coll: IntervalCollection) -> Diagram:
    """Image of an abstract word in the interval generators: the named
    loops (or their inverses) one after another, reduced."""
    moves = tuple(m for gen, exp in w for m in _loop_moves(gen, exp, coll))
    return reduce_diagram(Diagram(presentation_for(coll), base_word(coll), moves))


# ---------------------------------------------------------------------------
# corroborating the Artin-group isomorphism
# ---------------------------------------------------------------------------


def raag_ball_sizes(graph: RaagGraph, length: int) -> Tuple[int, ...]:
    """Ball sizes |B(0)|, …, |B(length)| in the right-angled Artin group of
    ``graph``, counted by breadth-first search over normal-form tuples.

    A product with a generator or its inverse is one
    :func:`raag.multiply_syllable` step on the normal form: it cancels a
    syllable that shuffles to the end or inserts one, and the lex-least
    order of the other syllables stays as it was."""
    steps = [(gen, exp) for gen in graph.vertices for exp in (1, -1)]
    seen: Set[Tuple[Syllable, ...]] = {()}
    frontier: List[Tuple[Syllable, ...]] = [()]
    sizes = [1]
    for _ in range(length):
        grown = []
        for nf in frontier:
            for s in steps:
                product = multiply_syllable(nf, s, graph)
                if product not in seen:
                    seen.add(product)
                    grown.append(product)
        frontier = grown
        sizes.append(len(seen))
    return tuple(sizes)


class ElementBoundError(ValueError):
    """A concrete ball search passed its element bound before its radius."""


def diagram_ball_sizes(
    coll: IntervalCollection, length: int, max_elements: int
) -> Tuple[int, ...]:
    """The same count on the concrete side: ``diagrams.cayley_ball`` over
    the interval loops and their inverses, on reduced diagrams that the
    ball knows by their bottom words in canonical wire ids.  A loop
    rewrites only the wires under its interval, so a product is a table
    lookup on that window once the loop has met those wires.  Raises
    :class:`ElementBoundError` once the ball would hold more than
    ``max_elements`` diagrams."""
    gens = [_loop_moves(name, exp, coll) for name in coll.names() for exp in (1, -1)]
    sizes = [0] * (length + 1)
    ball = cayley_ball(presentation_for(coll), base_word(coll), gens, length)
    for n, (depth, _) in enumerate(ball):
        if n >= max_elements:
            raise ElementBoundError(f"ball exceeded the element bound {max_elements}")
        sizes[depth] += 1
    return tuple(accumulate(sizes))


class RaagEvidence(NamedTuple):
    """Corroboration report for one collection.

    ``commutation`` rows are (I, J, disjoint, loops commute): the pattern
    matches the disjointness graph exactly when the two booleans agree on
    every row.  ``relators_ok`` says every defining commutator of the Artin
    group maps to the trivial diagram.  The ball-size tuples compare growth
    over radii 0..L on both sides.
    """

    collection: IntervalCollection
    graph: RaagGraph
    commutation: Tuple[Tuple[str, str, bool, bool], ...]
    relators_checked: int
    relators_ok: bool
    diagram_balls: Tuple[int, ...]
    raag_balls: Tuple[int, ...]

    @property
    def commutation_ok(self) -> bool:
        return all(disjoint == commutes for _, _, disjoint, commutes in self.commutation)

    @property
    def balls_ok(self) -> bool:
        return self.diagram_balls == self.raag_balls

    @property
    def ok(self) -> bool:
        return self.commutation_ok and self.relators_ok and self.balls_ok


def verify_raag_iso(
    coll: IntervalCollection, length: int, caps: SearchCaps = SearchCaps()
) -> RaagEvidence:
    """Evidence (not proof) that the loop subgroup is the right-angled
    Artin group of the disjointness graph: the pairwise commutation pattern,
    the images of all defining relators, and ball growth up to ``length``.
    The element bound for the concrete ball search is
    ``max(1000, caps.max_class_size)``.
    """
    graph = disjointness_graph(coll)
    rows: List[Tuple[str, str, bool, bool]] = []
    for (n1, l1, h1), (n2, l2, h2) in combinations(coll.intervals, 2):
        disjoint = not intersects((l1, h1), (l2, h2))
        img = evaluate_raag_word(((n1, 1), (n2, 1), (n1, -1), (n2, -1)), coll)
        rows.append((n1, n2, disjoint, img.cells == 0))
    # the defining relators are the commutators of the disjoint pairs, whose
    # rows are already evaluated: [v, u] is the inverse of [u, v]
    relators = [commutes for _, _, disjoint, commutes in rows if disjoint]
    bound = max(1000, caps.max_class_size)
    return RaagEvidence(
        coll,
        graph,
        tuple(rows),
        len(relators),
        all(relators),
        diagram_ball_sizes(coll, length, max_elements=bound),
        raag_ball_sizes(graph, length),
    )


def evidence_to_json(ev: RaagEvidence) -> Dict[str, object]:
    return {
        "collection": collection_to_json(ev.collection),
        "graph": {
            "vertices": list(ev.graph.vertices),
            "edges": [list(e) for e in sorted(ev.graph.edges)],
        },
        "commutation": [list(row) for row in ev.commutation],
        "commutation_ok": ev.commutation_ok,
        "relators_checked": ev.relators_checked,
        "relators_ok": ev.relators_ok,
        "balls": {
            "diagram": list(ev.diagram_balls),
            "raag": list(ev.raag_balls),
            "ok": ev.balls_ok,
        },
        "ok": ev.ok,
    }


__all__ = [
    "ElementBoundError",
    "IntervalCollection",
    "IntervalRecognition",
    "RaagEvidence",
    "base_word",
    "check_interval_name",
    "collection_to_json",
    "complement",
    "diagram_ball_sizes",
    "disjointness_graph",
    "evaluate_raag_word",
    "evidence_to_json",
    "independent_edge_pair",
    "intersects",
    "interval_graph",
    "is_complement_of_interval",
    "parse_intervals",
    "presentation_for",
    "raag_ball_sizes",
    "recognition_to_json",
    "transitive_orientation",
    "verify_raag_iso",
]

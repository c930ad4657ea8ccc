"""Balls of the reduced-diagram complex, tree quotients, and length bounds.

The reduced diagrams with a fixed top word are the vertices of a cube
complex: an edge joins ``A`` to ``reduce(A . atom)`` for a single rewrite
applied at the bottom, and ``n`` rewrites at pairwise-disjoint intervals of
the bottom word span an ``n``-cube.  The diagram group of the base word acts
on this complex freely; the cell count ``#(A)`` is exactly the combinatorial
distance from the trivial diagram, and more generally

    distance(A, B) = #(reduce(inverse(A) . B)).

A vertex ``A`` is already reduced, so ``A . atom`` has at most one dipole:
the new cell against a cell of ``A`` exposed on the bottom boundary (the
dipole normal form of Guba and Sapir).  ``farley_ball`` fires every vertex
through one ``diagrams.Wires`` table on the base word, one
``Wires.extend_reduced`` step per move, and keys each vertex by its bottom
tuple of wire ids, which means nothing outside that table (the ball keeps
it as ``ball.wires``).  The same table names every cell, so a vertex is also
the set of its cells, and the cells two vertices share are closed under
ancestors; a dipole of ``inverse(A) . B`` would be a shared cell, hence

    distance(A, B) = |cells(A) △ cells(B)|,

which ``guarded_pairs`` measures without replaying a diagram.
``property_b_scan``, like ``interval.diagram_ball_sizes``, multiplies group
elements through ``diagrams.cayley_ball``, which rewrites only the window of
the bottom word a generator touches and tables each window's image, and
tells them apart by their bottom words in canonical wire ids.

Mapping a vertex to its bottom word is a covering onto the class complex of
the base word (``squier``), so every edge upstairs inherits the identity of
a hyperplane downstairs, whose catalog position the Squier ball's
``ball.hyperplane_index`` gives, and with it that hyperplane's rank (the
longest chain of crossings strictly below it).  ``rank_partition``
returns that ball's crossing order with its ranks read, and ``edge_ranks``
pulls them back to the edges upstairs.  The payoff of the rank grading:
removing all rank-``k`` edges from a ball cuts it into pieces whose contact
graph is a tree, and summing the per-rank tree distances recovers the
combinatorial distance.  ``check_isometric_embedding`` verifies that
identity pair by pair, on ranks the order calls exact
(``order.ranks_exact``); ``property_b_scan`` compares cell count against
word length over a chosen generating set, the other length comparison the
group carries.

Balls are exact objects — building one reads only the neighbour table of
the run's class search, which no search cap touches.  Caps enter only
where the Squier side is consulted (hyperplane identities and ranks), and
every such result carries its own exactness flag.  Pair checks are
guarded: only when two vertices sit within ``radius/3`` of the base and of
each other is their combinatorial interval provably inside the ball, so
only such pairs are judged.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .diagrams import (
    Diagram,
    Wires,
    cayley_ball,
    inverse,
    is_reduced,
)
from .rewriting import (
    ClassSearch,
    Move,
    Presentation,
    Word,
    format_word,
)

if TYPE_CHECKING:
    # ``rank_partition`` imports ``squier`` itself and ``property_b_scan``
    # imports ``Fraction`` itself: building a ball needs neither, so the
    # ``farley`` command compiles no Squier code and only ``propb`` loads
    # ``fractions``
    from fractions import Fraction

    from .squier import CrossingOrder


# ---------------------------------------------------------------------------
# the ball
# ---------------------------------------------------------------------------


class FarleyEdge(NamedTuple):
    """An edge of the ball, oriented from the endpoint with fewer cells.

    ``word`` is the bottom word of the ``low`` endpoint and ``move`` the
    rewrite whose atom extends it to ``high``; ``(word, move)`` is also the
    edge's image under the covering onto the class complex, which
    ``SquierBall.hyperplane_index`` maps to its hyperplane.
    """

    low: int
    high: int
    word: Word
    move: Move


class FarleyBall:
    """All reduced diagrams with the given top and at most ``radius`` cells.

    Vertices are indexed in breadth-first order from the trivial diagram;
    ``depths[i]`` equals both the BFS level and the cell count of vertex
    ``i`` (an atomic extension changes the cell count by exactly one, so the
    sublevel sets are connected and the search exhausts them), ``words[i]``
    is its bottom word and ``parents[i]`` the first edge into it (``-1`` at
    the base), whose chain :meth:`diagram` replays.  ``keys[i]`` is its
    bottom tuple of wire ids, which identifies it only against ``wires``,
    the table the ball was fired through.  ``up[i]`` maps each move that
    appends a cell at ``i`` to the vertex it reaches.

    The ``k``-cubes at a vertex of Farley's complex are its sets of ``k``
    pairwise disjoint moves that append cells.  Such moves consume wires
    the others leave alone, so no subset of them cancels, and the corner a
    subset of ``k`` of them reaches holds ``k`` more cells.  A cube is thus
    in the ball exactly when its lowest corner has at least ``k`` cells to
    spare, and ``cube_counts`` (dimension to count, from dimension two up,
    computed on first read) counts sets of disjoint moves, listing no cube.
    """

    def __init__(
        self,
        pres: Presentation,
        base: Word,
        radius: int,
        words: Tuple[Word, ...],
        depths: Tuple[int, ...],
        parents: Tuple[int, ...],
        edges: Tuple[FarleyEdge, ...],
        up: Tuple[Dict[Move, int], ...],
        keys: Tuple[Tuple[int, ...], ...],
        wires: Wires,
    ) -> None:
        self.pres = pres
        self.base = base
        self.radius = radius
        self.words = words
        self.depths = depths
        self.parents = parents
        self.edges = edges
        self.up = up
        self.keys = keys
        self.wires = wires

    @cached_property
    def cube_counts(self) -> Dict[int, int]:
        lengths = self.wires.lengths
        totals = [0] * (self.radius + 1)
        for moves, depth in zip(self.up, self.depths):
            # no more than len(moves) of them are disjoint
            spare = min(self.radius - depth, len(moves))
            if spare < 2:
                continue
            # (end, offset) intervals, sorted by end: the ones ending at or
            # before an offset are a prefix, and ``prefix[m][k]`` counts the
            # k-sets of pairwise disjoint intervals among the first m
            spans = sorted(
                (o + lengths[r, f][0], o) for o, r, f in moves
            )
            ends = [end for end, _ in spans]
            prefix = [[1] + [0] * spare]
            for _, o in spans:
                last, before = prefix[-1], prefix[bisect_right(ends, o)]
                prefix.append(
                    [1] + [a + b for a, b in zip(last[1:], before)]
                )
            for k in range(2, spare + 1):
                totals[k] += prefix[-1][k]
        return {k: n for k, n in enumerate(totals) if n}

    def diagram(self, i: int) -> Diagram:
        """The reduced diagram of vertex ``i``, replayed from its first parents."""
        moves: List[Move] = []
        while self.parents[i] >= 0:
            e = self.edges[self.parents[i]]
            moves.append(e.move)
            i = e.low
        return Diagram(self.pres, self.base, tuple(reversed(moves)))

    def cells(self, i: int) -> FrozenSet[int]:
        """The cells of vertex ``i``, each named by its first produced wire."""
        return frozenset(cell[3][0] for cell in self.wires.cells(self.keys[i]))


def farley_ball(search: ClassSearch, w: Word, radius: int) -> FarleyBall:
    """Breadth-first enumeration of reduced diagrams by atomic extension.

    Every vertex is held by its bottom tuple in one :class:`Wires` table and
    extended by ``Wires.extend_reduced`` along the rewrites of its bottom
    word, read from ``search.rewrites``.  A cancelling step leads one level
    down, to a vertex processed earlier that recorded the edge already; any
    other step leads one level up, to the vertex of its bottom tuple, new or
    recorded.  ``up[i]`` maps each move that appends a cell at ``i`` to the
    vertex it reaches; the ball counts its cubes from those tables when
    ``cube_counts`` is first read.
    """
    pres = search.pres
    pres.check_word(w)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    wires = Wires(pres, w)
    keys: List[Tuple[int, ...]] = [wires.top]
    index: Dict[Tuple[int, ...], int] = {wires.top: 0}
    words: List[Word] = [w]
    depths: List[int] = [0]
    parents: List[int] = [-1]
    edges: List[FarleyEdge] = []
    up: List[Dict[Move, int]] = [{}]

    i = 0
    while i < len(words) and depths[i] < radius:
        u, bottom = words[i], keys[i]
        for move, v in search.rewrites(u):
            grown, _, cancelled = wires.extend_reduced(bottom, move)
            if cancelled:
                continue
            j = index.get(grown)
            if j is None:
                j = index[grown] = len(words)
                keys.append(grown)
                words.append(v)
                depths.append(depths[i] + 1)
                parents.append(len(edges))
                up.append({})
            up[i][move] = j
            edges.append(FarleyEdge(i, j, u, move))
        i += 1

    return FarleyBall(
        pres, w, radius, tuple(words), tuple(depths), tuple(parents),
        tuple(edges), tuple(up), tuple(keys), wires,
    )


# ---------------------------------------------------------------------------
# rank pullback
# ---------------------------------------------------------------------------


def rank_partition(search: ClassSearch, w: Word) -> CrossingOrder:
    """Catalog the hyperplanes around ``w`` downstairs and rank each one:
    the crossing order of the Squier ball of ``w``, its ``ranks`` read.
    ``embed-check`` is its one caller; ``rank-table`` reads the ball's
    order itself."""
    from .squier import build_ball

    order = build_ball(search, w).order
    order.ranks  # ranked here, so that this call's time holds the ranking
    return order


def edge_ranks(ball: FarleyBall, order: CrossingOrder) -> Tuple[int, ...]:
    """Rank of every ball edge, via the covering onto the class complex.

    Edges with the same image ``(word, move)`` downstairs share a
    hyperplane, so each image is looked up once."""
    index, ranks = order.ball.hyperplane_index, order.ranks
    rank_of: Dict[Tuple[Word, Move], int] = {}
    out = []
    for e in ball.edges:
        image = (e.word, e.move)
        r = rank_of.get(image)
        if r is None:
            r = rank_of[image] = ranks[index(e.word, e.move)].value
        out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------
# tree quotients
# ---------------------------------------------------------------------------


class TreeQuotient:
    """Contact graph of the pieces left after deleting one rank's edges.

    ``node_of[i]`` is the piece containing vertex ``i`` (the quotient map on
    vertices); ``edges`` joins two pieces whenever a deleted edge of this
    rank runs between them.  Construction fails loudly if the result is not
    a tree — on exact rank data it always is, so a cycle means the data was
    not exact after all.
    """

    __slots__ = ("rank", "node_of", "node_count", "edges", "neighbors")

    def __init__(
        self,
        rank: int,
        node_of: Tuple[int, ...],
        node_count: int,
        edges: Tuple[Tuple[int, int], ...],
    ) -> None:
        self.rank = rank
        self.node_of = node_of
        self.node_count = node_count
        self.edges = edges
        adj: List[List[int]] = [[] for _ in range(node_count)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        self.neighbors = tuple(tuple(a) for a in adj)

    def distance(self, a: int, b: int) -> int:
        """Edge distance between two pieces (BFS; the graph is a tree)."""
        if a == b:
            return 0
        seen = {a: 0}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for y in self.neighbors[x]:
                if y not in seen:
                    seen[y] = seen[x] + 1
                    if y == b:
                        return seen[y]
                    queue.append(y)
        raise ValueError(f"nodes {a} and {b} are not connected")


def tree_quotients(
    ball: FarleyBall, order: CrossingOrder
) -> Tuple[TreeQuotient, ...]:
    """One quotient per rank present among the ball's edges.

    Requires exact ranks (``order.ranks_exact``): with a wrong rank even one
    mislabeled edge can manufacture or destroy cycles, and the whole point
    of the quotient is that it is a tree.
    """
    if not order.ranks_exact:
        raise ValueError(
            "rank partition is not exact; tree quotients need definite ranks"
        )
    ranks = edge_ranks(ball, order)
    out: List[TreeQuotient] = []
    for k in sorted(set(ranks)):
        parent = list(range(len(ball.depths)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e, r in zip(ball.edges, ranks):
            if r != k:
                ra, rb = find(e.low), find(e.high)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        roots = sorted({find(i) for i in range(len(ball.depths))})
        node_id = {root: n for n, root in enumerate(roots)}
        node_of = tuple(node_id[find(i)] for i in range(len(ball.depths)))
        qedges: Set[Tuple[int, int]] = set()
        for e, r in zip(ball.edges, ranks):
            if r == k:
                a, b = node_of[e.low], node_of[e.high]
                if a == b:
                    raise ValueError(
                        f"rank-{k} quotient has a loop: an edge of this rank "
                        "closes a cycle avoiding its own rank — inexact data"
                    )
                qedges.add((min(a, b), max(a, b)))
        # the ball is connected, hence so is the quotient; a connected
        # graph is a tree iff it has exactly nodes - 1 edges
        if len(qedges) != len(roots) - 1:
            raise ValueError(
                f"rank-{k} quotient has {len(qedges)} adjacencies on "
                f"{len(roots)} pieces — a cycle, so the data is inexact"
            )
        out.append(TreeQuotient(k, node_of, len(roots), tuple(sorted(qedges))))
    return tuple(out)


# ---------------------------------------------------------------------------
# guarded pair checks
# ---------------------------------------------------------------------------


def guarded_pairs(ball: FarleyBall) -> Tuple[Tuple[int, int, int], ...]:
    """Vertex pairs whose combinatorial interval provably stays in the ball.

    Both endpoints within ``radius/3`` of the base and of each other: any
    vertex on a geodesic between them is then within ``2 radius/3`` of the
    base by the triangle inequality, so the interval cannot escape.  Returns
    ``(i, j, distance)`` triples with ``i < j``, the distance being the size
    of the symmetric difference of the two cell sets (``FarleyBall.cells``):
    the shared cells are closed under ancestors, so no dipole is left
    between the rest.
    """
    near = [
        (i, ball.cells(i))
        for i, d in enumerate(ball.depths) if 3 * d <= ball.radius
    ]
    out = []
    for ai, (i, a) in enumerate(near):
        for j, b in near[ai + 1:]:
            dist = len(a ^ b)
            if 3 * dist <= ball.radius:
                out.append((i, j, dist))
    return tuple(out)


class EmbeddingReport(NamedTuple):
    """Outcome of checking distance = sum of tree distances on guarded pairs."""

    radius: int
    ranks: Tuple[int, ...]
    quotient_nodes: Tuple[int, ...]
    pairs_checked: int
    failures: Tuple[Tuple[int, int, int, int], ...]
    exact: bool

    @property
    def ok(self) -> bool:
        return not self.failures


def check_isometric_embedding(
    ball: FarleyBall, order: CrossingOrder
) -> EmbeddingReport:
    """Verify, pair by guarded pair, that the rank trees see every step.

    For each guarded pair ``(x, y)`` the sum over ranks ``k`` of the tree
    distance between the pieces of ``x`` and ``y`` in the rank-``k``
    quotient must equal ``#(inverse(x) . y)``.  Failures are collected as
    ``(i, j, tree_sum, distance)`` rather than raised: a non-empty list is a
    finding about the data, not a crash.
    """
    quotients = tree_quotients(ball, order)
    failures = []
    pairs = guarded_pairs(ball)
    for i, j, dist in pairs:
        total = sum(
            q.distance(q.node_of[i], q.node_of[j]) for q in quotients
        )
        if total != dist:
            failures.append((i, j, total, dist))
    return EmbeddingReport(
        ball.radius,
        tuple(q.rank for q in quotients),
        tuple(q.node_count for q in quotients),
        len(pairs),
        tuple(failures),
        order.ranks_exact,
    )


# ---------------------------------------------------------------------------
# cell count versus word length
# ---------------------------------------------------------------------------


class PropertyBScan(NamedTuple):
    """Cell counts tabulated against word length over a generating set.

    ``table`` holds one ``(word_length, cells)`` row per group element
    enumerated; ``sizes[n]`` counts the elements of word length exactly
    ``n``.  Ratios ``cells / word_length`` skip the identity (length 0).
    """

    base: Word
    length: int
    sizes: Tuple[int, ...]
    table: Tuple[Tuple[int, int], ...]
    min_ratio: Optional[Fraction]
    max_ratio: Optional[Fraction]


def property_b_scan(
    pres: Presentation,
    w: Word,
    generators: Sequence[Diagram],
    length: int,
) -> PropertyBScan:
    """Enumerate the group ball of word length ``length`` and tabulate cells.

    ``diagrams.cayley_ball`` searches breadth first over right
    multiplication by the generators and their inverses, so word length is
    the genuine Cayley distance for that generating set, not an estimate.
    The ball yields each element's cell count with its word length; a
    product is one table lookup once a generator has met the wires under
    its window.
    """
    from fractions import Fraction

    for g in generators:
        if g.pres != pres or g.top != w or not g.is_spherical:
            raise ValueError(
                f"generator {g} is not a spherical diagram over {format_word(w)}"
            )
        if not is_reduced(g):
            raise ValueError(f"generator {g} is not reduced")
    sym = [g.moves for g in generators] + [inverse(g).moves for g in generators]
    rows = list(cayley_ball(pres, w, sym, length))
    sizes = [0] * (length + 1)
    for depth, _ in rows:
        sizes[depth] += 1
    ratios = [Fraction(cells, wl) for wl, cells in rows if wl > 0]
    return PropertyBScan(
        w,
        length,
        tuple(sizes),
        tuple(sorted(rows)),
        min(ratios) if ratios else None,
        max(ratios) if ratios else None,
    )


__all__ = [
    "EmbeddingReport",
    "FarleyBall",
    "FarleyEdge",
    "PropertyBScan",
    "TreeQuotient",
    "check_isometric_embedding",
    "edge_ranks",
    "farley_ball",
    "guarded_pairs",
    "property_b_scan",
    "rank_partition",
    "tree_quotients",
]

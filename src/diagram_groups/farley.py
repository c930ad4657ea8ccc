"""Balls of the reduced-diagram complex, tree quotients, and length bounds.

The reduced diagrams with a fixed top word are the vertices of a cube
complex: an edge joins ``A`` to ``reduce(A . atom)`` for a single rewrite
applied at the bottom, and ``n`` rewrites at pairwise-disjoint intervals of
the bottom word span an ``n``-cube.  The diagram group of the base word acts
on this complex freely; the cell count ``#(A)`` is exactly the combinatorial
distance from the trivial diagram, and more generally

    distance(A, B) = #(reduce(inverse(A) . B)).

Mapping a vertex to its bottom word is a covering onto the class complex of
the base word (``squier``), so every edge upstairs inherits the identity of
a hyperplane downstairs, and with it that hyperplane's rank (the longest
chain of crossings strictly below it).  The payoff of the rank grading:
removing all rank-``k`` edges from a ball cuts it into pieces whose contact
graph is a tree, and summing the per-rank tree distances recovers the
combinatorial distance.  ``check_isometric_embedding`` verifies that
identity pair by pair; ``property_b_scan`` compares cell count against word
length over a chosen generating set, the other length comparison the group
carries.

Balls are exact objects — no search caps are involved in building them.
Caps enter only where the Squier side is consulted (hyperplane identities
and ranks), and every such result carries its own exactness flag.  Pair
checks are guarded: only when two vertices sit within ``radius/3`` of the
base and of each other is their combinatorial interval provably inside the
ball, so only such pairs are judged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .diagrams import (
    CanonicalKey,
    Diagram,
    canonical_key,
    compose,
    eps,
    inverse,
    is_reduced,
    reduce_diagram,
)
from .rewriting import (
    Move,
    Presentation,
    SearchCaps,
    Word,
    format_word,
    one_step_rewrites,
)
from .squier import (
    HyperplaneId,
    RankResult,
    SquierBall,
    build_ball,
    hyperplane_id,
)


# ---------------------------------------------------------------------------
# the ball
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FarleyEdge:
    """An edge of the ball, oriented from the endpoint with fewer cells.

    ``word`` is the bottom word of the ``low`` endpoint and ``move`` the
    rewrite whose atom extends it to ``high``; ``(word, move)`` is also the
    edge's image under the covering onto the class complex, which is how the
    edge learns its hyperplane identity.
    """

    low: int
    high: int
    word: Word
    move: Move


@dataclass(frozen=True)
class FarleyCube:
    """An ``n``-cube, stored at the corner with the fewest cells.

    ``moves`` are pairwise disjoint rewrites of that corner's bottom word in
    ascending offset order; ``corners[mask]`` is the vertex reached by
    applying the subset of ``moves`` selected by the bits of ``mask``.
    """

    corner: int
    moves: Tuple[Move, ...]
    corners: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.moves)


@dataclass(frozen=True)
class FarleyBall:
    """All reduced diagrams with the given top and at most ``radius`` cells.

    Vertices are indexed in breadth-first order from the trivial diagram;
    ``depths[i]`` equals both the BFS level and the cell count of
    ``diagrams[i]`` (an atomic extension changes the cell count by exactly
    one, so the sublevel sets are connected and the search exhausts them).
    """

    pres: Presentation
    base: Word
    radius: int
    keys: Tuple[CanonicalKey, ...]
    diagrams: Tuple[Diagram, ...]
    depths: Tuple[int, ...]
    edges: Tuple[FarleyEdge, ...]
    cubes: Tuple[Tuple[int, Tuple[FarleyCube, ...]], ...]
    index: Dict[CanonicalKey, int] = field(init=False, repr=False, compare=False)
    adjacency: Tuple[Tuple[Tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "index", {k: i for i, k in enumerate(self.keys)}
        )
        adj: List[List[Tuple[int, int]]] = [[] for _ in self.keys]
        for ei, e in enumerate(self.edges):
            adj[e.low].append((e.high, ei))
            adj[e.high].append((e.low, ei))
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))

    @property
    def squares(self) -> Tuple[FarleyCube, ...]:
        return self.cubes_of(2)

    def cubes_of(self, n: int) -> Tuple[FarleyCube, ...]:
        for dim, cs in self.cubes:
            if dim == n:
                return cs
        return ()

    def cube_dims(self) -> Tuple[int, ...]:
        return tuple(dim for dim, _ in self.cubes)

    def index_of(self, d: Diagram) -> int:
        """Vertex index of a reduced diagram; raises if outside the ball."""
        k = canonical_key(d)
        if k not in self.index:
            raise ValueError(
                f"diagram {d} is not a vertex of the radius-{self.radius} ball"
            )
        return self.index[k]


def _span(move: Move, pres: Presentation) -> Tuple[int, int]:
    src, _ = move.sides(pres)
    return move.offset, move.offset + len(src)


def farley_ball(pres: Presentation, w: Word, radius: int) -> FarleyBall:
    """Breadth-first enumeration of reduced diagrams by atomic extension.

    Each candidate ``reduce(A . atom)`` either gains or loses one cell; new
    vertices therefore always appear one level up and edges always join
    consecutive levels.  Cubes are collected afterwards from their minimal
    corner: the remaining corners are looked up by following recorded
    up-edges, so no diagram algebra is repeated.
    """
    pres.check_word(w)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    base = eps(pres, w)
    keys: List[CanonicalKey] = [canonical_key(base)]
    diagrams: List[Diagram] = [base]
    depths: List[int] = [0]
    index: Dict[CanonicalKey, int] = {keys[0]: 0}
    edges: List[FarleyEdge] = []
    edge_set: Set[Tuple[int, int]] = set()
    # up[i] maps each rewrite of bot(diagrams[i]) that gains a cell to the
    # vertex it reaches; cube corners are recovered from these tables
    up: List[Dict[Move, int]] = [{}]

    qi = 0
    while qi < len(keys):
        i = qi
        qi += 1
        d = depths[i]
        if d == radius:
            # extensions upward would leave the ball, and every edge down
            # to level radius-1 was recorded when that endpoint was processed
            continue
        di = diagrams[i]
        u = di.bot
        for move, _ in one_step_rewrites(u, pres):
            nd = reduce_diagram(Diagram(pres, w, di.moves + (move,)))
            nk = canonical_key(nd)
            j = index.get(nk)
            if j is None:
                assert nd.cells == d + 1, "atomic extension must step by one"
                j = len(keys)
                index[nk] = j
                keys.append(nk)
                diagrams.append(nd)
                depths.append(d + 1)
                up.append({})
                edges.append(FarleyEdge(i, j, u, move))
                edge_set.add((i, j))
                up[i][move] = j
            elif depths[j] == d + 1:
                if (i, j) not in edge_set:
                    edges.append(FarleyEdge(i, j, u, move))
                    edge_set.add((i, j))
                    up[i][move] = j
            else:
                # the other endpoint sits one level down and was processed
                # first, so the edge already exists in that orientation
                assert depths[j] == d - 1 and (j, i) in edge_set

    cubes: Dict[int, List[FarleyCube]] = {}

    def grow(i: int, ups: List[Tuple[Move, int]], start: int,
             chosen: List[Move], corners: Dict[int, int]) -> None:
        if len(chosen) >= 2:
            full = tuple(corners[m] for m in range(1 << len(chosen)))
            cubes.setdefault(len(chosen), []).append(
                FarleyCube(i, tuple(chosen), full)
            )
        for t in range(start, len(ups)):
            move, j = ups[t]
            if chosen and any(
                _span(prev, pres)[1] > move.offset for prev in chosen
            ):
                continue
            bit = 1 << len(chosen)
            extended = dict(corners)
            extended[bit] = j
            ok = True
            for mask in range(1, 1 << len(chosen)):
                shift = sum(
                    chosen[t2].delta(pres)
                    for t2 in range(len(chosen))
                    if mask & (1 << t2)
                )
                shifted = Move(move.offset + shift, move.relation, move.forward)
                target = up[corners[mask]].get(shifted)
                if target is None:
                    ok = False
                    break
                extended[mask | bit] = target
            if ok:
                chosen.append(move)
                grow(i, ups, t + 1, chosen, extended)
                chosen.pop()

    for i in range(len(keys)):
        if up[i]:
            ups = sorted(
                up[i].items(),
                key=lambda mj: (mj[0].offset, mj[0].relation, mj[0].forward),
            )
            grow(i, ups, 0, [], {0: i})

    packed = tuple(
        (dim, tuple(cubes[dim])) for dim in sorted(cubes)
    )
    return FarleyBall(
        pres, w, radius, tuple(keys), tuple(diagrams), tuple(depths),
        tuple(edges), packed,
    )


def distance(a: Diagram, b: Diagram) -> int:
    """Cells of ``reduce(inverse(a) . b)`` — the combinatorial distance."""
    if a.pres != b.pres or a.top != b.top:
        raise ValueError("distance needs two diagrams with a common top")
    return reduce_diagram(compose(inverse(a), b)).cells


# ---------------------------------------------------------------------------
# rank pullback
# ---------------------------------------------------------------------------


class OutsideCatalogError(KeyError):
    """A hyperplane outside the cataloged, possibly truncated, class complex
    has no rank."""

    def __init__(self, hyperplane: HyperplaneId) -> None:
        super().__init__(
            f"hyperplane {hyperplane} is outside the cataloged ball (truncation?)"
        )
        self.hyperplane = hyperplane


@dataclass(frozen=True)
class RankPartition:
    """Ranks of the unoriented hyperplanes of the class complex downstairs.

    ``ranks[i]`` is the rank of ``ball.catalog.ids[i]``.  ``exact`` asserts
    both that the catalog's edge partition is certified and that every
    individual rank came back definite; the tree-quotient construction
    refuses to run on anything less.
    """

    ball: SquierBall
    ranks: Tuple[RankResult, ...]
    exact: bool

    def rank_of(self, hid: HyperplaneId) -> RankResult:
        hid = hid.unoriented()
        i = self.ball.catalog.index.get(hid)
        if i is None:
            raise OutsideCatalogError(hid)
        return self.ranks[i]

    def families(self) -> Dict[int, Tuple[HyperplaneId, ...]]:
        out: Dict[int, List[HyperplaneId]] = {}
        for h, r in zip(self.ball.catalog.ids, self.ranks):
            out.setdefault(r.value, []).append(h)
        return {k: tuple(v) for k, v in out.items()}


def rank_partition(pres: Presentation, w: Word, caps: SearchCaps) -> RankPartition:
    """Catalog the hyperplanes around ``w`` downstairs and rank each one."""
    ball = build_ball(pres, w, caps)
    ranks = tuple(ball.order.rank(h) for h in ball.catalog.ids)
    exact = ball.catalog.exact and all(r.exact for r in ranks)
    return RankPartition(ball, ranks, exact)


def pullback_id(edge: FarleyEdge, pres: Presentation, caps: SearchCaps) -> HyperplaneId:
    """Unoriented hyperplane downstairs that a ball edge is dual to."""
    return hyperplane_id(edge.word, edge.move, pres, caps, oriented=False)


def edge_ranks(ball: FarleyBall, partition: RankPartition) -> Tuple[int, ...]:
    """Rank of every ball edge, via the covering onto the class complex."""
    caps = partition.ball.caps
    out = []
    for e in ball.edges:
        out.append(partition.rank_of(pullback_id(e, ball.pres, caps)).value)
    return tuple(out)


@dataclass(frozen=True)
class BallHyperplane:
    """A parallelism class of ball edges (opposite edges of shared squares).

    All member edges cover a single hyperplane downstairs — that is the
    well-definedness of the pullback, and it is checked, not assumed.
    """

    index: int
    edges: Tuple[int, ...]
    squier: HyperplaneId
    rank: Optional[int]


def ball_hyperplanes(
    ball: FarleyBall,
    caps: SearchCaps,
    partition: Optional[RankPartition] = None,
) -> Tuple[BallHyperplane, ...]:
    """Group the ball's edges into hyperplanes by square-parallelism."""
    parent = list(range(len(ball.edges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    eidx = {(e.low, e.high): i for i, e in enumerate(ball.edges)}
    for sq in ball.squares:
        c = sq.corners
        union(eidx[(c[0], c[1])], eidx[(c[2], c[3])])
        union(eidx[(c[0], c[2])], eidx[(c[1], c[3])])

    classes: Dict[int, List[int]] = {}
    for i in range(len(ball.edges)):
        classes.setdefault(find(i), []).append(i)

    out = []
    for n, root in enumerate(sorted(classes)):
        members = tuple(sorted(classes[root]))
        ids = {
            pullback_id(ball.edges[i], ball.pres, caps) for i in members
        }
        if len(ids) != 1:
            raise ValueError(
                "parallel edges pulled back to distinct hyperplanes "
                f"({', '.join(str(h) for h in sorted(map(str, ids)))}); "
                "the covering data is too truncated to be trusted"
            )
        hid = ids.pop()
        rk = partition.rank_of(hid).value if partition is not None else None
        out.append(BallHyperplane(n, members, hid, rk))
    return tuple(out)


# ---------------------------------------------------------------------------
# tree quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeQuotient:
    """Contact graph of the pieces left after deleting one rank's edges.

    ``node_of[i]`` is the piece containing vertex ``i`` (the quotient map on
    vertices); ``edges`` joins two pieces whenever a deleted edge of this
    rank runs between them.  Construction fails loudly if the result is not
    a tree — on exact rank data it always is, so a cycle means the data was
    not exact after all.
    """

    rank: int
    node_of: Tuple[int, ...]
    node_count: int
    edges: Tuple[Tuple[int, int], ...]
    neighbors: Tuple[Tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        adj: List[List[int]] = [[] for _ in range(self.node_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "neighbors", tuple(tuple(a) for a in adj))

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
    ball: FarleyBall, partition: RankPartition
) -> Tuple[TreeQuotient, ...]:
    """One quotient per rank present among the ball's edges.

    Requires an exact partition: with a wrong rank even one mislabeled edge
    can manufacture or destroy cycles, and the whole point of the quotient
    is that it is a tree.
    """
    if not partition.exact:
        raise ValueError(
            "rank partition is not exact; tree quotients need definite ranks"
        )
    ranks = edge_ranks(ball, partition)
    out: List[TreeQuotient] = []
    for k in sorted(set(ranks)):
        parent = list(range(len(ball.keys)))

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
        roots = sorted({find(i) for i in range(len(ball.keys))})
        node_id = {root: n for n, root in enumerate(roots)}
        node_of = tuple(node_id[find(i)] for i in range(len(ball.keys)))
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
    ``(i, j, distance)`` triples with ``i < j``.
    """
    near = [
        i for i, d in enumerate(ball.depths) if 3 * d <= ball.radius
    ]
    out = []
    for ai in range(len(near)):
        for bi in range(ai + 1, len(near)):
            i, j = near[ai], near[bi]
            dist = distance(ball.diagrams[i], ball.diagrams[j])
            if 3 * dist <= ball.radius:
                out.append((i, j, dist))
    return tuple(out)


def _shortest_path_edges(ball: FarleyBall, i: int, j: int) -> List[int]:
    """Edge indices along one BFS-shortest path from ``i`` to ``j``."""
    if i == j:
        return []
    prev: Dict[int, Tuple[int, int]] = {i: (-1, -1)}
    queue = deque([i])
    while queue:
        x = queue.popleft()
        for y, ei in ball.adjacency[x]:
            if y not in prev:
                prev[y] = (x, ei)
                if y == j:
                    queue.clear()
                    break
                queue.append(y)
    path = []
    x = j
    while x != i:
        x, ei = prev[x]
        path.append(ei)
    return path


def separating_counts(
    a: Diagram,
    b: Diagram,
    ball: FarleyBall,
    partition: RankPartition,
) -> Dict[int, int]:
    """How many hyperplanes of each rank separate two guarded vertices.

    Under the guard a BFS path inside the ball is a genuine geodesic, and a
    geodesic crosses exactly the separating hyperplanes, once each; so the
    counts are read off the path's edges.  Ranks with count zero are omitted.
    """
    ia, ib = ball.index_of(a), ball.index_of(b)
    dist = distance(ball.diagrams[ia], ball.diagrams[ib])
    if (
        3 * dist > ball.radius
        or 3 * ball.depths[ia] > ball.radius
        or 3 * ball.depths[ib] > ball.radius
    ):
        raise ValueError(
            "interval-escape guard violated: endpoints must lie within "
            "radius/3 of the base and of each other"
        )
    path = _shortest_path_edges(ball, ia, ib)
    assert len(path) == dist, "BFS disagrees with the diagram-algebra distance"
    caps = partition.ball.caps
    counts: Dict[int, int] = {}
    for ei in path:
        r = partition.rank_of(pullback_id(ball.edges[ei], ball.pres, caps)).value
        counts[r] = counts.get(r, 0) + 1
    return counts


@dataclass(frozen=True)
class EmbeddingReport:
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
    ball: FarleyBall, partition: RankPartition
) -> EmbeddingReport:
    """Verify, pair by guarded pair, that the rank trees see every step.

    For each guarded pair ``(x, y)`` the sum over ranks ``k`` of the tree
    distance between the pieces of ``x`` and ``y`` in the rank-``k``
    quotient must equal ``#(inverse(x) . y)``.  Failures are collected as
    ``(i, j, tree_sum, distance)`` rather than raised: a non-empty list is a
    finding about the data, not a crash.
    """
    quotients = tree_quotients(ball, partition)
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
        partition.exact,
    )


# ---------------------------------------------------------------------------
# cell count versus word length
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyBScan:
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

    def within(self, lo: Fraction, hi: Fraction) -> bool:
        """Do all ratios lie in ``[lo, hi]``?  (Exact rational comparison.)"""
        return all(
            lo * wl <= cells and cells <= hi * wl
            for wl, cells in self.table
            if wl > 0
        )


def property_b_scan(
    pres: Presentation,
    w: Word,
    generators: Sequence[Diagram],
    length: int,
) -> PropertyBScan:
    """Enumerate the group ball of word length ``length`` and tabulate cells.

    Word length is measured by breadth-first search over right
    multiplication by the given generators and their inverses, with
    elements identified by the canonical key of their reduced form — so it
    is the genuine Cayley distance for that generating set, not an estimate.
    """
    for g in generators:
        if g.pres != pres or g.top != w or not g.is_spherical:
            raise ValueError(
                f"generator {g} is not a spherical diagram over {format_word(w)}"
            )
        if not is_reduced(g):
            raise ValueError(f"generator {g} is not reduced")
    sym = list(generators) + [inverse(g) for g in generators]
    identity = eps(pres, w)
    seen: Dict[CanonicalKey, int] = {canonical_key(identity): 0}
    rows: List[Tuple[int, int]] = [(0, 0)]
    sizes = [1]
    level = [identity]
    for depth in range(1, length + 1):
        nxt: List[Diagram] = []
        for cur in level:
            for g in sym:
                nd = reduce_diagram(compose(cur, g))
                nk = canonical_key(nd)
                if nk not in seen:
                    seen[nk] = depth
                    rows.append((depth, nd.cells))
                    nxt.append(nd)
        sizes.append(len(nxt))
        level = nxt
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
    "BallHyperplane",
    "EmbeddingReport",
    "FarleyBall",
    "FarleyCube",
    "FarleyEdge",
    "OutsideCatalogError",
    "PropertyBScan",
    "RankPartition",
    "TreeQuotient",
    "ball_hyperplanes",
    "check_isometric_embedding",
    "distance",
    "edge_ranks",
    "farley_ball",
    "guarded_pairs",
    "property_b_scan",
    "pullback_id",
    "rank_partition",
    "separating_counts",
    "tree_quotients",
]

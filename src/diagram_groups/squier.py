"""The class complex of a base word, its hyperplanes, and their pathologies.

The words congruent to a base word form the vertices of a cube complex: edges
are elementary rewrites, and ``n`` rewrites applicable at pairwise-disjoint
intervals of a word span an ``n``-cube.  A *hyperplane* is what a single
relation application looks like from far away: two edges ``(a, u -> v, b)``
and ``(c, u -> v, d)`` are dual to the same oriented hyperplane exactly when
they use the same relation in the same direction and ``a = c``, ``b = d``
modulo the presentation.

This module builds bounded balls of that complex and answers the geometric
questions that control the diagram group of the base word:

* ``crossing_order`` — do two hyperplanes cross, and in which left/right
  order (the order ≺), for every pair of the ball's hyperplanes;
* ``rank`` — the longest chain of crossings strictly below a hyperplane;
* ``dimension_at_least`` — does the complex contain an ``n``-cube;
* ``specialness_report`` — certificates for cleanliness (no hyperplane
  crosses itself) and specialness (additionally, no two crossing
  hyperplanes also touch at a vertex away from their crossings).

Most classes are infinite, so definite verdicts come from three sources:
exhaustive enumeration when a class is finite, replayable witnesses for
positives, and letter-counting certificates (see ``rewriting``) that remain
sound on infinite classes.  Anything else is reported as unknown.

A :class:`SquierBall` is the one object these questions are read from.  It
carries its search caps, and it owns its hyperplane ``catalog`` and its
crossing ``order``: each is built on first use, once per ball, and
``rank``, ``relate``, ``transversality_graph``, the rank partition, the RAAG
generators and the left-hyperplane decomposition all read them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .rewriting import (
    ClassEnumeration,
    Derivation,
    Move,
    Presentation,
    SearchCaps,
    TriBool,
    Word,
    enumerate_class,
    equal_mod_p,
    first_letter_closure,
    forced_support,
    format_word,
    has_singleton_class,
    invariant_letter_subsets,
    last_letter_closure,
    letter_count,
    one_step_rewrites,
)

# ---------------------------------------------------------------------------
# caching: class searches recur constantly over the same few part words
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16384)
def _enum(pres: Presentation, w: Word, caps: SearchCaps) -> ClassEnumeration:
    return enumerate_class(w, pres, caps)


@lru_cache(maxsize=65536)
def _equal(pres: Presentation, w1: Word, w2: Word, caps: SearchCaps) -> TriBool:
    return equal_mod_p(w1, w2, pres, caps)


def _rep(pres: Presentation, w: Word, caps: SearchCaps) -> Tuple[Word, bool]:
    enum = _enum(pres, w, caps)
    return enum.members[0], enum.complete


# ---------------------------------------------------------------------------
# balls of the class complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallEdge:
    """An edge in canonical orientation: a forward move applied at ``source``."""

    source: Word
    move: Move

    def target(self, pres: Presentation) -> Word:
        return self.move.apply(self.source, pres)

    def parts(self, pres: Presentation) -> Tuple[Word, Word]:
        src, _ = self.move.sides(pres)
        o = self.move.offset
        return self.source[:o], self.source[o + len(src):]


@dataclass(frozen=True)
class BallCube:
    """An ``n``-cube, encoded at the corner where all moves apply forward.

    ``moves`` are pairwise disjoint forward moves, ascending offsets.
    """

    corner: Word
    moves: Tuple[Move, ...]

    @property
    def dim(self) -> int:
        return len(self.moves)

    def edge_at(self, i: int) -> BallEdge:
        return BallEdge(self.corner, self.moves[i])


def _apply_disjoint(w: Word, moves: Sequence[Move], pres: Presentation) -> Word:
    for m in sorted(moves, key=lambda m: -m.offset):
        w = m.apply(w, pres)
    return w


@dataclass(frozen=True)
class SquierBall:
    """A bounded piece of the class complex around ``base``, within ``caps``.

    ``edges`` lists each edge once, forward, in the order of
    ``enum.members``.  ``catalog`` and ``order`` are computed on first use
    and kept with the ball.
    """

    pres: Presentation
    base: Word
    caps: SearchCaps
    enum: ClassEnumeration
    edges: Tuple[BallEdge, ...]
    cubes: Tuple[Tuple[int, Tuple[BallCube, ...]], ...]

    @property
    def vertices(self) -> Tuple[Word, ...]:
        return self.enum.members

    @property
    def complete(self) -> bool:
        return self.enum.complete

    @cached_property
    def catalog(self) -> "HyperplaneCatalog":
        return hyperplane_catalog(self)

    @cached_property
    def order(self) -> "CrossingOrder":
        return crossing_order(self)

    @property
    def squares(self) -> Tuple[BallCube, ...]:
        return self.cubes_of(2)

    def cubes_of(self, n: int) -> Tuple[BallCube, ...]:
        for dim, cs in self.cubes:
            if dim == n:
                return cs
        return ()

    def cube_dims(self) -> Tuple[int, ...]:
        return tuple(dim for dim, _ in self.cubes)


def build_ball(pres: Presentation, base: Word, caps: SearchCaps) -> SquierBall:
    """Enumerate the class of ``base`` and assemble vertices, edges and cubes.

    Cubes are included only when *all* of their corners lie inside the ball,
    so Euler-characteristic style counts are honest on truncated data.
    """
    enum = _enum(pres, base, caps)
    vset = frozenset(enum.members)
    edges: List[BallEdge] = []
    cubes: Dict[int, List[BallCube]] = {}
    for w in enum.members:
        fwd: List[Tuple[Move, Word]] = []
        for move, result in one_step_rewrites(w, pres):
            if move.forward and result in vset:
                edges.append(BallEdge(w, move))
                fwd.append((move, result))
        # all pairwise-disjoint subsets of forward moves, size >= 2
        spans = []
        for move, _ in fwd:
            src, _dst = move.sides(pres)
            spans.append((move.offset, move.offset + len(src), move))
        spans.sort(key=lambda t: (t[0], t[1]))

        # Good subsets (all corners inside the ball) are downward closed:
        # a corner of a sub-cube is a corner of the cube.  So we may grow
        # subsets one move at a time, verifying only the corners that use
        # the new move, and prune the whole branch on the first miss.
        def extend(start_idx: int, chosen: List[Move]) -> None:
            if len(chosen) >= 2:
                cubes.setdefault(len(chosen), []).append(
                    BallCube(w, tuple(chosen))
                )
            for i in range(start_idx, len(spans)):
                lo, _hi, move = spans[i]
                if chosen and lo < max(
                    mo.offset + len(mo.sides(pres)[0]) for mo in chosen
                ):
                    continue
                new_ok = True
                for r in range(0, len(chosen) + 1):
                    for sub in itertools.combinations(chosen, r):
                        if _apply_disjoint(w, sub + (move,), pres) not in vset:
                            new_ok = False
                            break
                    if not new_ok:
                        break
                if new_ok:
                    chosen.append(move)
                    extend(i + 1, chosen)
                    chosen.pop()

        extend(0, [])
    packed = tuple(
        (dim, tuple(cubes[dim])) for dim in sorted(cubes)
    )
    return SquierBall(pres, base, caps, enum, tuple(edges), packed)


# ---------------------------------------------------------------------------
# hyperplane identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperplaneId:
    """Identity of a (possibly oriented) hyperplane.

    ``left`` and ``right`` are canonical representatives of the congruence
    classes of the parts; ``forward`` is None for the unoriented hyperplane.
    ``exact`` records whether both part classes were completely enumerated
    (two ids with equal fields denote one hyperplane regardless, since the
    representatives are reached by replayable derivations).
    """

    left: Word
    relation: int
    forward: Optional[bool]
    right: Word
    exact: bool = field(compare=False, default=True)

    def unoriented(self) -> "HyperplaneId":
        return HyperplaneId(self.left, self.relation, None, self.right, self.exact)

    def __str__(self) -> str:
        direction = "" if self.forward is None else (" fwd" if self.forward else " bwd")
        return (
            f"[{format_word(self.left)} | r{self.relation}{direction} | "
            f"{format_word(self.right)}]"
        )


def hyperplane_id(
    source: Word,
    move: Move,
    pres: Presentation,
    caps: SearchCaps,
    oriented: bool = True,
) -> HyperplaneId:
    """Identity of the hyperplane dual to the rewrite ``move`` applied at
    ``source``; the orientation is the direction of that crossing."""
    src, _ = move.sides(pres)
    o = move.offset
    left, lx = _rep(pres, source[:o], caps)
    right, rx = _rep(pres, source[o + len(src):], caps)
    return HyperplaneId(
        left, move.relation, move.forward if oriented else None, right, lx and rx
    )


@dataclass(frozen=True)
class HyperplaneCatalog:
    """The distinct unoriented hyperplanes of a ball.

    ``exact`` means the partition of edges into hyperplanes is provably
    correct: merges are always backed by derivations, and every split
    (same relation, different class parts) was certified by a definite
    inequality.  ``index`` maps each hyperplane, and ``edge_index`` each
    ball edge, to the position of its hyperplane in ``ids``.
    """

    ids: Tuple[HyperplaneId, ...]
    edges_of: Tuple[Tuple[HyperplaneId, Tuple[BallEdge, ...]], ...]
    exact: bool
    index: Dict[HyperplaneId, int] = field(init=False, repr=False, compare=False)
    edge_index: Dict[BallEdge, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {h: i for i, h in enumerate(self.ids)})
        object.__setattr__(
            self,
            "edge_index",
            {e: i for i, (_, es) in enumerate(self.edges_of) for e in es},
        )


def hyperplane_catalog(ball: SquierBall) -> HyperplaneCatalog:
    """Partition the ball's edges into hyperplanes; read it as ``ball.catalog``,
    which builds it once per ball."""
    pres, caps = ball.pres, ball.caps
    exact = True
    groups: List[Tuple[Tuple[Word, Word], List[BallEdge]]] = []
    by_relation: Dict[int, List[int]] = {}
    for edge in ball.edges:
        a, b = edge.parts(pres)
        placed = False
        for gi in by_relation.get(edge.move.relation, []):
            (ga, gb), members = groups[gi]
            va = _equal(pres, a, ga, caps)
            vb = _equal(pres, b, gb, caps)
            if va.is_yes and vb.is_yes:
                members.append(edge)
                placed = True
                break
            if va.is_unknown or vb.is_unknown:
                exact = False
        if not placed:
            groups.append(((a, b), [edge]))
            by_relation.setdefault(edge.move.relation, []).append(len(groups) - 1)
    packed: List[Tuple[HyperplaneId, Tuple[BallEdge, ...]]] = []
    for (a, b), members in groups:
        la, xa = _rep(pres, a, caps)
        rb, xb = _rep(pres, b, caps)
        hid = HyperplaneId(la, members[0].move.relation, None, rb, xa and xb)
        packed.append((hid, tuple(members)))
    packed.sort(
        key=lambda hp: (
            hp[0].relation,
            pres.shortlex_key(hp[0].left),
            pres.shortlex_key(hp[0].right),
        )
    )
    return HyperplaneCatalog(tuple(h for h, _ in packed), tuple(packed), exact)


# ---------------------------------------------------------------------------
# the crossing order on hyperplanes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HyperplaneRelation:
    """Outcome of comparing two hyperplanes.

    ``value`` is one of ``disjoint``, ``first_prec_second``,
    ``second_prec_first``, ``unknown``; comparable hyperplanes are exactly
    the crossing ones.  The witness is a square (as a :class:`BallCube`) or
    a connecting word ``y`` for positives, and a pair of refutation notes
    for ``disjoint``.
    """

    value: str
    witness: object = None


def _direction_impossible(
    pres: Presentation,
    invariants: Tuple[Tuple[FrozenSet[str], str], ...],
    j1: HyperplaneId,
    j2: HyperplaneId,
) -> Optional[str]:
    """Certificate that no word ``y`` solves ``left2 = left1 u y`` and
    ``right1 = y p right2`` (i.e. j1 never sits left of j2 in a square).

    ``invariants`` pairs each letter-count invariant of ``pres`` with the
    certificate that cites it."""
    u = pres.relations[j1.relation].lhs
    p = pres.relations[j2.relation].lhs
    if not j2.left:
        # left2 is the empty word, whose class is {empty}; left1 u y is nonempty
        return "left part of the second hyperplane is empty"
    if not j1.right:
        return "right part of the first hyperplane is empty"
    for s, certificate in invariants:
        n1 = letter_count(j2.left, s) - letter_count(j1.left, s) - letter_count(u, s)
        n2 = letter_count(j1.right, s) - letter_count(p, s) - letter_count(j2.right, s)
        if n1 < 0 or n2 < 0 or n1 != n2:
            return certificate
    return None


def _search_prec_witness(
    pres: Presentation,
    caps: SearchCaps,
    j1: HyperplaneId,
    j2: HyperplaneId,
) -> Tuple[Optional[Word], bool]:
    """Bounded search for ``y`` with ``left2 = left1 u y`` and
    ``right1 = y p right2``; returns (witness or None, search-was-exhaustive)."""
    u = pres.relations[j1.relation].lhs
    p = pres.relations[j2.relation].lhs
    left2_enum = _enum(pres, j2.left, caps)
    left1_enum = _enum(pres, j1.left, caps)
    exhaustive = left2_enum.complete
    seen: Set[Word] = set()
    for z in left2_enum.members:
        for alpha in left1_enum.members:
            if len(alpha) + len(u) > len(z):
                continue
            if z[: len(alpha)] != alpha:
                continue
            if z[len(alpha): len(alpha) + len(u)] != u:
                continue
            y = z[len(alpha) + len(u):]
            if y in seen:
                continue
            seen.add(y)
            verdict = _equal(pres, j1.right, y + p + j2.right, caps)
            if verdict.is_yes:
                return y, exhaustive
            if verdict.is_unknown:
                exhaustive = False
    return None, exhaustive


_Comparer = Callable[[HyperplaneId, HyperplaneId], HyperplaneRelation]


def _comparer(ball: SquierBall) -> _Comparer:
    """Compare two unoriented hyperplanes of the ball.

    What every comparison shares is built once: the first square (in
    ``ball.squares`` order) dual to each pair of cataloged hyperplanes, and
    the letter-count invariants of the presentation.  A square settles a
    pair immediately; otherwise a bounded witness search and the structural
    certificates decide, and anything left over is unknown.
    """
    pres, caps = ball.pres, ball.caps
    index, edge_index = ball.catalog.index, ball.catalog.edge_index
    # pair (low, high) of catalog indices -> (index of the left dual, square)
    first_square: Dict[Tuple[int, int], Tuple[int, BallCube]] = {}
    for square in ball.squares:
        left = edge_index[square.edge_at(0)]
        right = edge_index[square.edge_at(1)]
        first_square.setdefault((min(left, right), max(left, right)), (left, square))
    # one certificate string per invariant, shared by every pair it refutes
    invariants = tuple(
        (s, f"letter-count invariant {sorted(s)} rules it out")
        for s in invariant_letter_subsets(pres)
    )

    # most pairs are disjoint for one of a few reasons: one shared relation
    # object per pair of reasons keeps a table of all pairs small
    disjoint: Dict[Tuple[object, object], HyperplaneRelation] = {}

    def one_direction(a: HyperplaneId, b: HyperplaneId) -> Tuple[str, object]:
        cert = _direction_impossible(pres, invariants, a, b)
        if cert is not None:
            return "no", cert
        y, exhaustive = _search_prec_witness(pres, caps, a, b)
        if y is not None:
            return "yes", y
        return ("no", "exhaustive search") if exhaustive else ("unknown", None)

    def compare(j1: HyperplaneId, j2: HyperplaneId) -> HyperplaneRelation:
        i1, i2 = index.get(j1), index.get(j2)
        if i1 is not None and i2 is not None:
            hit = first_square.get((min(i1, i2), max(i1, i2)))
            if hit is not None:
                left, square = hit
                value = "first_prec_second" if left == i1 else "second_prec_first"
                return HyperplaneRelation(value, square)
        first, w_first = one_direction(j1, j2)
        if first == "yes":
            return HyperplaneRelation("first_prec_second", w_first)
        second, w_second = one_direction(j2, j1)
        if second == "yes":
            return HyperplaneRelation("second_prec_first", w_second)
        if first == "no" and second == "no":
            reasons = (w_first, w_second)
            if reasons not in disjoint:
                disjoint[reasons] = HyperplaneRelation("disjoint", reasons)
            return disjoint[reasons]
        return HyperplaneRelation("unknown")

    return compare


def relate(j1: HyperplaneId, j2: HyperplaneId, ball: SquierBall) -> HyperplaneRelation:
    """Compare two (unoriented) hyperplanes of the ball with the comparison
    behind ``ball.order``.

    The package itself reads ``ball.order``.  This name stays because the
    per-layer benchmark tracer (``perfbench/tracer.py``) wraps
    ``squier.relate`` by name; it can go once the tracer stops naming it.
    """
    return ball.order.compare(j1.unoriented(), j2.unoriented())


# ---------------------------------------------------------------------------
# transversality graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransversalityGraph:
    """Crossing graph of the ball's unoriented hyperplanes.

    ``edges`` holds (i, j, value) with i < j and the relate value that
    established the crossing; ``odd_cycle`` reports an induced odd cycle of
    length 5..9 if one exists (None otherwise).
    """

    ids: Tuple[HyperplaneId, ...]
    edges: Tuple[Tuple[int, int, str], ...]
    exact: bool
    odd_cycle: Optional[Tuple[int, ...]]

    def adjacency(self) -> List[Set[int]]:
        adj: List[Set[int]] = [set() for _ in self.ids]
        for i, j, _ in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


def find_induced_odd_cycle(
    adj: List[Set[int]], max_len: int = 9
) -> Optional[Tuple[int, ...]]:
    """Smallest-start induced odd cycle of length 5..max_len, or None.

    DFS over induced paths: every extension vertex may be adjacent only to
    the path's last vertex (the start is allowed again only when closing).
    """
    n = len(adj)

    def dfs(path: List[int]) -> Optional[Tuple[int, ...]]:
        s, last = path[0], path[-1]
        for nxt in sorted(adj[last]):
            if nxt < s or nxt in path:
                continue
            # closing the cycle?
            if s in adj[nxt] and len(path) + 1 >= 5 and (len(path) + 1) % 2 == 1:
                if all(nxt not in adj[v] for v in path[1:-1]):
                    return tuple(path + [nxt])
            if len(path) + 1 < max_len:
                if all(nxt not in adj[v] for v in path[:-1]):
                    path.append(nxt)
                    found = dfs(path)
                    path.pop()
                    if found:
                        return found
        return None

    for s in range(n):
        found = dfs([s])
        if found:
            return found
    return None


def transversality_graph(ball: SquierBall) -> TransversalityGraph:
    order = ball.order
    ids = ball.catalog.ids
    edges = tuple(
        (i, j, rel.value)
        for (i, j), rel in order.relations.items()
        if rel.value in ("first_prec_second", "second_prec_first")
    )
    exact = ball.catalog.exact and all(
        rel.value != "unknown" for rel in order.relations.values()
    )
    adjacency = TransversalityGraph(ids, edges, exact, None).adjacency()
    cycle = find_induced_odd_cycle(adjacency)
    return TransversalityGraph(ids, edges, exact, cycle)


# ---------------------------------------------------------------------------
# dimension and rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionWitness:
    """A class member split into factors, each with a nontrivial class."""

    member: Word
    splits: Tuple[int, ...]  # cut positions, strictly increasing, excluding 0 and len

    def factors(self) -> Tuple[Word, ...]:
        cuts = (0,) + self.splits + (len(self.member),)
        return tuple(self.member[cuts[i]: cuts[i + 1]] for i in range(len(cuts) - 1))


def _max_rewritable_parts(w: Word, pres: Presentation) -> Tuple[int, List[int]]:
    """DP: max number of factors each containing a relation-side occurrence.

    Returns (count, best cut positions).  A factor has a nontrivial class
    exactly when some relation side occurs in it, so this computes the
    largest cube dimension visible at this word.
    """
    n = len(w)
    occ: List[Tuple[int, int]] = []
    for o in range(n):
        for rel in pres.relations:
            for side in (rel.lhs, rel.rhs):
                if w[o: o + len(side)] == side:
                    occ.append((o, o + len(side)))
    best = [-1] * (n + 1)
    prev = [-1] * (n + 1)
    best[0] = 0
    for i in range(1, n + 1):
        for j in range(i):
            if best[j] < 0:
                continue
            if any(j <= s and e <= i for s, e in occ):
                if best[j] + 1 > best[i]:
                    best[i] = best[j] + 1
                    prev[i] = j
    if best[n] <= 0:
        return 0, []
    cuts = []
    i = n
    while i > 0:
        cuts.append(i)
        i = prev[i]
    cuts.reverse()
    return best[n], cuts  # cuts include n itself


def dimension_at_least(
    pres: Presentation, w: Word, n: int, caps: SearchCaps
) -> TriBool:
    """Does the class complex of ``w`` contain an ``n``-cube?

    Yes iff some member of ``[w]`` factors into ``n`` nonempty parts each
    with a nontrivial class.  Letter-count certificates refute impossible
    ``n`` even when the class is infinite.
    """
    if n <= 0:
        return TriBool.yes(DimensionWitness(w, ()))
    sides = [s for rel in pres.relations for s in (rel.lhs, rel.rhs)]
    for s in invariant_letter_subsets(pres):
        m = min(letter_count(side, s) for side in sides)
        if n * m > letter_count(w, s):
            return TriBool.no(
                f"letter-count invariant {sorted(s)}: {n} factors need at least "
                f"{n * m} such letters, the class carries {letter_count(w, s)}"
            )
    enum = _enum(pres, w, caps)
    for member in enum.members:
        count, cuts = _max_rewritable_parts(member, pres)
        if count >= n:
            # merge surplus parts from the left (a superset of a rewritable
            # factor is rewritable)
            cuts_full = cuts[:]  # ends at len(member)
            while len(cuts_full) > n:
                cuts_full.pop(0)
            splits = tuple(cuts_full[:-1])
            witness = DimensionWitness(member, splits)
            assert len(witness.factors()) == n
            return TriBool.yes(witness)
    if enum.complete:
        return TriBool.no("no member of the complete class factors")
    return TriBool.unknown()


@dataclass(frozen=True)
class RankResult:
    """Longest crossing chain strictly below a hyperplane."""

    value: int
    exact: bool
    chain: Tuple[HyperplaneId, ...]
    notes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CrossingOrder:
    """The crossing order on the cataloged hyperplanes of one ball.

    ``relations[i, j]`` (``i < j``) compares ``ball.catalog.ids[i]`` with
    ``ball.catalog.ids[j]``.  The pairs were compared in that order, row by
    row, so the search caches fill the same way whichever consumer reads
    them.  ``compare`` settles a pair involving a hyperplane outside the
    catalog.
    """

    ball: SquierBall
    relations: Dict[Tuple[int, int], HyperplaneRelation]
    compare: _Comparer = field(repr=False)

    def rank(self, j: HyperplaneId) -> RankResult:
        """Longest chain J_1 < ... < J_k < J found below ``j``, with exactness.

        Exact when the ball's order data is definite and complete, or when a
        dimension certificate squeezes the upper bound to the found value.
        """
        j = j.unoriented()
        if not j.left:
            # anything below j would need its own left part, a relation side
            # and a connector to equal the empty word — impossible
            return RankResult(
                0, True, (), ("nothing fits left of an empty left part",)
            )
        ids = list(self.ball.catalog.ids)
        cataloged = len(ids)
        target = self.ball.catalog.index.get(j)
        if target is None:
            target = len(ids)
            ids.append(j)
        prec: Dict[int, Set[int]] = {i: set() for i in range(len(ids))}
        all_definite = True
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                if b < cataloged:
                    rel = self.relations[a, b]
                else:
                    rel = self.compare(ids[a], ids[b])
                if rel.value == "first_prec_second":
                    prec[b].add(a)
                elif rel.value == "second_prec_first":
                    prec[a].add(b)
                elif rel.value == "unknown":
                    all_definite = False
        notes: List[str] = []

        depth_memo: Dict[int, int] = {}
        parent: Dict[int, Optional[int]] = {}

        def depth(v: int, stack: Tuple[int, ...]) -> int:
            if v in stack:
                notes.append("cycle detected in the crossing order (inexact data)")
                return 0
            if v in depth_memo:
                return depth_memo[v]
            best, arg = 0, None
            for u in prec[v]:
                d = depth(u, stack + (v,)) + 1
                if d > best:
                    best, arg = d, u
            depth_memo[v] = best
            parent[v] = arg
            return best

        value = depth(target, ())
        chain: List[HyperplaneId] = []
        cur = parent.get(target)
        while cur is not None:
            chain.append(ids[cur])
            cur = parent.get(cur)
        chain.reverse()
        ball = self.ball
        exact = all_definite and ball.complete and not notes
        if not exact:
            squeeze = dimension_at_least(ball.pres, ball.base, value + 2, ball.caps)
            if squeeze.is_no:
                exact = not notes
                notes.append(
                    f"upper bound from dimension: no {value + 2}-cube exists"
                )
        return RankResult(value, exact, tuple(chain), tuple(notes))


def crossing_order(ball: SquierBall) -> CrossingOrder:
    """Compare every pair of cataloged hyperplanes once, in catalog order;
    read it as ``ball.order``, which builds it once per ball."""
    compare = _comparer(ball)
    ids = ball.catalog.ids
    relations = {
        (i, j): compare(ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    }
    return CrossingOrder(ball, relations, compare)


def rank(j: HyperplaneId, ball: SquierBall) -> RankResult:
    """Longest chain J_1 < ... < J_k < J found below ``j``; see
    :meth:`CrossingOrder.rank`.

    The package itself calls ``ball.order.rank``.  This name stays because
    the per-layer benchmark tracer (``perfbench/tracer.py``) wraps
    ``squier.rank`` by name; it can go once the tracer stops naming it.
    """
    return ball.order.rank(j)


# ---------------------------------------------------------------------------
# pathology witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfIntersection:
    """Witness that [a, p -> q, c] crosses itself: a = a p b and c = b p c
    modulo the presentation (with a p c in the base class)."""

    a: Word
    p: Word
    q: Word
    b: Word
    c: Word
    evidence: Tuple[Derivation, ...] = field(compare=False, default=())


@dataclass(frozen=True)
class SelfOsculation:
    """Witness that [a, (kh)^n k -> p, b] touches itself at a vertex:
    a = a k h and b = h k b modulo the presentation.  ``k`` may be empty
    when the side is a proper power (then n >= 2)."""

    n: int
    a: Word
    k: Word
    h: Word
    p: Word
    b: Word
    evidence: Tuple[Derivation, ...] = field(compare=False, default=())


@dataclass(frozen=True)
class InterOsculation:
    """Witness for two crossing hyperplanes touching at an extra vertex.

    The sides ``p = u v`` and ``q = v w`` overlap in ``v`` inside the class
    word ``a u v w b`` (all parts nonempty), and ``xi`` certifies the
    crossing square: a u = a u v xi and w b = xi v w b modulo the
    presentation.
    """

    a: Word
    u: Word
    v: Word
    w: Word
    b: Word
    p: Word
    q: Word
    xi: Word
    evidence: Tuple[Derivation, ...] = field(compare=False, default=())


@dataclass(frozen=True)
class AbsorbingSplit:
    """A split of the base class: w0 = a b with a = a p, b = p b modulo the
    presentation and [p] nontrivial — the word-level form of a
    self-crossing."""

    a: Word
    b: Word
    p: Word
    evidence: Tuple[Derivation, ...] = field(compare=False, default=())


# -- self-intersections ------------------------------------------------------


def _probe_budget(caps: SearchCaps) -> int:
    """Total oracle probes a single witness search may spend.

    Searches over truncated classes multiply members, split points and
    candidate extensions; the budget keeps them answerable.  Running out
    clears the exhaustive flag, exactly like any other cap.
    """
    return caps.max_class_size * 4


def _prefix_extensions(
    pres: Presentation, caps: SearchCaps, base: Word, middle: Word
) -> List[Tuple[Word, Derivation]]:
    """All t with base·middle·t found inside [base], with a derivation."""
    out: List[Tuple[Word, Derivation]] = []
    enum = _enum(pres, base, caps)
    seen: Set[Word] = set()
    for z in enum.members:
        if len(z) < len(base) + len(middle):
            continue
        if z[: len(base)] != base or z[len(base): len(base) + len(middle)] != middle:
            continue
        t = z[len(base) + len(middle):]
        if t not in seen:
            seen.add(t)
            out.append((t, enum.derivation(z)))
    return out


def find_self_intersections(
    ball: SquierBall,
) -> Tuple[Tuple[SelfIntersection, ...], bool]:
    """Equation-search route: for each hyperplane [a, r, c] of the ball look
    for b with a = a·p·b and c = b·p·c.  Returns (witnesses,
    search-was-exhaustive)."""
    pres, caps = ball.pres, ball.caps
    found: List[SelfIntersection] = []
    exhaustive = True
    budget = _probe_budget(caps)
    for hid in ball.catalog.ids:
        rel = pres.relations[hid.relation]
        for p, q in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            enum_left = _enum(pres, hid.left, caps)
            if not enum_left.complete:
                exhaustive = False
            candidates: List[Tuple[Word, Derivation]] = _prefix_extensions(
                pres, caps, hid.left, p
            )
            for b, deriv_a in candidates:
                for b_eff in ((b,) if b else ((), p)):
                    if not b_eff:
                        continue  # witness parts must be nonempty; empty b uses p
                    if budget <= 0:
                        return tuple(found), False
                    budget -= 1
                    verdict = _equal(pres, hid.right, b_eff + p + hid.right, caps)
                    if verdict.is_yes:
                        found.append(
                            SelfIntersection(
                                hid.left, p, q, b_eff, hid.right,
                                evidence=(deriv_a, verdict.witness),
                            )
                        )
                        break
                    if verdict.is_unknown:
                        exhaustive = False
    return tuple(found), exhaustive


def scan_self_intersections(
    ball: SquierBall,
) -> Tuple[Tuple[SelfIntersection, ...], bool]:
    """Geometric route: squares of the ball whose two dual hyperplanes agree."""
    pres, caps = ball.pres, ball.caps
    found: List[SelfIntersection] = []
    definite = True
    for square in ball.squares:
        m1, m2 = square.moves
        if m1.relation != m2.relation:
            continue
        a1, b1 = BallEdge(square.corner, m1).parts(pres)
        a2, b2 = BallEdge(square.corner, m2).parts(pres)
        va = _equal(pres, a1, a2, caps)
        vb = _equal(pres, b1, b2, caps)
        if va.is_unknown or vb.is_unknown:
            definite = False
        if not (va.is_yes and vb.is_yes):
            continue
        rel = pres.relations[m1.relation]
        p, q = rel.lhs, rel.rhs
        src1 = len(rel.lhs)
        a = square.corner[: m1.offset]
        b = square.corner[m1.offset + src1: m2.offset]
        c = square.corner[m2.offset + src1:]
        if not b:
            b = p
        found.append(
            SelfIntersection(a, p, q, b, c, evidence=(va.witness, vb.witness))
        )
    return tuple(found), definite


def self_intersection_square(
    wit: SelfIntersection, pres: Presentation, w0: Word, caps: SearchCaps
) -> BallCube:
    """Rebuild and verify the geometric square a·p·b·p·c from a witness.

    Checks that the square's word lies in the base class and that both dual
    edges have the same hyperplane identity; raises ValueError otherwise.
    """
    word = wit.a + wit.p + wit.b + wit.p + wit.c
    if not _equal(pres, word, w0, caps).is_yes:
        raise ValueError("witness square does not lie in the base class")
    rel_index = None
    for i, rel in enumerate(pres.relations):
        if (rel.lhs, rel.rhs) in ((wit.p, wit.q), (wit.q, wit.p)):
            rel_index = i
            forward = rel.lhs == wit.p
            break
    if rel_index is None:
        raise ValueError("witness side is not a relation side")
    o1, o2 = len(wit.a), len(wit.a) + len(wit.p) + len(wit.b)
    m1 = Move(o1, rel_index, forward)
    m2 = Move(o2, rel_index, forward)
    if not _equal(pres, wit.a, wit.a + wit.p + wit.b, caps).is_yes:
        raise ValueError("left absorption equation fails")
    if not _equal(pres, wit.c, wit.b + wit.p + wit.c, caps).is_yes:
        raise ValueError("right absorption equation fails")
    return BallCube(word, (m1, m2))


# -- absorbing splits (word-level self-crossing witnesses) -------------------


def refute_absorbing_splits(pres: Presentation) -> Optional[str]:
    """Certificate that no absorbing split can exist for any base word.

    An absorbed ``p`` must have zero count under every letter-count
    invariant, confining it to the invariant-free letters; a nontrivial
    class additionally requires a relation side inside ``p``.  If no side
    fits in the invariant-free support, splits are impossible.
    """
    z = forced_support(pres)
    for rel in pres.relations:
        for side in (rel.lhs, rel.rhs):
            if set(side) <= z:
                return None
    return (
        "no relation side fits in the invariant-free letter support "
        f"{sorted(z)}; absorbed middles always have trivial classes"
    )


def find_absorbing_splits(
    pres: Presentation, w0: Word, caps: SearchCaps
) -> Tuple[Tuple[AbsorbingSplit, ...], bool]:
    """Search members of [w0] for splits a|b with a = a p, b = p b, [p] != {p}."""
    found: List[AbsorbingSplit] = []
    enum = _enum(pres, w0, caps)
    exhaustive = enum.complete
    budget = _probe_budget(caps)
    for member in enum.members:
        for cut in range(1, len(member)):
            if budget <= 0:
                return tuple(found), False
            budget -= 1  # the prefix-class enumeration below counts too
            a, b = member[:cut], member[cut:]
            a_enum = _enum(pres, a, caps)
            if not a_enum.complete:
                exhaustive = False
            for p, deriv_a in _prefix_extensions(pres, caps, a, ()):
                if not p or has_singleton_class(p, pres):
                    continue
                if budget <= 0:
                    return tuple(found), False
                budget -= 1
                verdict = _equal(pres, b, p + b, caps)
                if verdict.is_unknown:
                    exhaustive = False
                if verdict.is_yes:
                    # [p] is nontrivial because a relation side occurs in it;
                    # exhibit the rewrite directly
                    p_move, _ = one_step_rewrites(p, pres)[0]
                    found.append(
                        AbsorbingSplit(
                            a, b, p,
                            evidence=(
                                enum.derivation(member),
                                deriv_a,
                                verdict.witness,
                                Derivation(p, (p_move,)),
                            ),
                        )
                    )
                    break  # one witness per split point is enough
    return tuple(found), exhaustive


def split_to_self_intersection(
    split: AbsorbingSplit, pres: Presentation, caps: SearchCaps
) -> SelfIntersection:
    """Convert a = a p, b = p b into a bona-fide self-crossing witness.

    With p = e·sigma·f for a relation side sigma: the hyperplane
    [a e, sigma -> tau, f b] crosses itself with middle f·e (or sigma when
    that middle is empty).
    """
    for o in range(len(split.p)):
        for rel in pres.relations:
            for sigma, tau in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
                if split.p[o: o + len(sigma)] == sigma:
                    e, f = split.p[:o], split.p[o + len(sigma):]
                    mid = f + e if f + e else sigma
                    wit = SelfIntersection(
                        split.a + e, sigma, tau, mid, f + split.b
                    )
                    ok1 = _equal(
                        pres, wit.a, wit.a + wit.p + wit.b, caps
                    ).is_yes
                    ok2 = _equal(
                        pres, wit.c, wit.b + wit.p + wit.c, caps
                    ).is_yes
                    if ok1 and ok2:
                        return wit
    raise ValueError("split has no rewritable middle; not convertible")


# -- self-osculations --------------------------------------------------------


def _periodic_factorizations(side: Word) -> List[Tuple[int, Word, Word]]:
    """All (n, k, h) with side = (k h)^n k, h nonempty, n >= 1.

    Every period delta < len(side) yields one factorization; the overlap
    condition (k nonempty or n >= 2) holds automatically because
    delta <= len(side) - 1.
    """
    out = []
    L = len(side)
    for delta in range(1, L):
        if all(side[i] == side[i + delta] for i in range(L - delta)):
            rem = L % delta
            n = L // delta
            k, h = side[:rem], side[rem:delta]
            out.append((n, k, h))
    return out


def find_self_osculations(
    ball: SquierBall,
) -> Tuple[Tuple[SelfOsculation, ...], bool]:
    """Equation route: periodic relation sides whose parts absorb the period,
    on the hyperplanes of the ball."""
    pres, caps = ball.pres, ball.caps
    found: List[SelfOsculation] = []
    exhaustive = True
    for hid in ball.catalog.ids:
        rel = pres.relations[hid.relation]
        for sigma, other in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            for n, k, h in _periodic_factorizations(sigma):
                va = _equal(pres, hid.left, hid.left + k + h, caps)
                if va.is_unknown:
                    exhaustive = False
                    continue
                if not va.is_yes:
                    continue
                vb = _equal(pres, hid.right, h + k + hid.right, caps)
                if vb.is_unknown:
                    exhaustive = False
                    continue
                if vb.is_yes:
                    found.append(
                        SelfOsculation(
                            n, hid.left, k, h, other, hid.right,
                            evidence=(va.witness, vb.witness),
                        )
                    )
    return tuple(found), exhaustive


def scan_self_osculations(
    ball: SquierBall,
) -> Tuple[Tuple[SelfOsculation, ...], bool]:
    """Geometric route: two overlapping co-initial (or, symmetrically at the
    common target, co-terminal) rewrites crossing one oriented hyperplane."""
    pres, caps = ball.pres, ball.caps
    found: List[SelfOsculation] = []
    definite = True
    seen: Set[Tuple] = set()
    for w in ball.vertices:
        for (m1, _), (m2, _) in itertools.combinations(one_step_rewrites(w, pres), 2):
            if m1.relation != m2.relation or m1.forward != m2.forward:
                continue
            if m1.offset == m2.offset:
                continue
            if m2.offset < m1.offset:
                m1, m2 = m2, m1
            sigma = m1.sides(pres)[0]
            delta = m2.offset - m1.offset
            if delta >= len(sigma):
                continue  # disjoint: they span a square instead
            va = _equal(pres, w[: m1.offset], w[: m2.offset], caps)
            vb = _equal(
                pres, w[m1.offset + len(sigma):], w[m2.offset + len(sigma):], caps
            )
            if va.is_unknown or vb.is_unknown:
                definite = False
                continue
            if not (va.is_yes and vb.is_yes):
                continue
            rem = len(sigma) % delta
            n = len(sigma) // delta
            k, h = sigma[:rem], sigma[rem:delta]
            a = w[: m1.offset]
            b = w[m2.offset + len(sigma):]
            key = (n, a, k, h, b, m1.relation, m1.forward)
            if key in seen:
                continue
            seen.add(key)
            found.append(
                SelfOsculation(
                    n, a, k, h, m1.sides(pres)[1], b,
                    evidence=(va.witness, vb.witness),
                )
            )
    return tuple(found), definite


def self_osculation_config(
    wit: SelfOsculation, pres: Presentation, w0: Word, caps: SearchCaps
) -> Tuple[Word, Move, Move]:
    """Rebuild the geometric configuration: the word a (kh)^{n+1} k b carries
    two overlapping co-initial rewrites dual to one oriented hyperplane."""
    sigma = (wit.k + wit.h) * wit.n + wit.k
    word = wit.a + wit.k + wit.h + sigma + wit.b
    if not _equal(pres, word, w0, caps).is_yes:
        raise ValueError("osculation word does not lie in the base class")
    rel_index = forward = None
    for i, rel in enumerate(pres.relations):
        if rel.lhs == sigma:
            rel_index, forward = i, True
            break
        if rel.rhs == sigma:
            rel_index, forward = i, False
            break
    if rel_index is None:
        raise ValueError("periodic side is not a relation side")
    delta = len(wit.k) + len(wit.h)
    m1 = Move(len(wit.a), rel_index, forward)
    m2 = Move(len(wit.a) + delta, rel_index, forward)
    if delta >= len(sigma):
        raise ValueError("occurrences do not overlap")
    if not _equal(pres, word[: m1.offset], word[: m2.offset], caps).is_yes:
        raise ValueError("left parts differ; not one hyperplane")
    if not _equal(
        pres, word[m1.offset + len(sigma):], word[m2.offset + len(sigma):], caps
    ).is_yes:
        raise ValueError("right parts differ; not one hyperplane")
    return word, m1, m2


# -- inter-osculations -------------------------------------------------------


def _side_overlaps(pres: Presentation) -> List[Tuple[Word, Word, Word, Word, Word]]:
    """All (u, v, w, p, q): p = u v and q = v w relation sides, u, v, w nonempty."""
    sides = []
    for rel in pres.relations:
        sides.extend([rel.lhs, rel.rhs])
    out = []
    for p in sides:
        for q in sides:
            for cut in range(1, len(p)):
                v = p[cut:]
                if len(v) < len(q) and q[: len(v)] == v:
                    u, w = p[:cut], q[len(v):]
                    out.append((u, v, w, p, q))
    return out


def refute_inter_osculations(pres: Presentation, w0: Word) -> Optional[str]:
    """Certificate that no overlap pattern can occur with nonempty outer parts.

    For each side overlap u·v·w: the absorbed ``v xi`` must avoid every
    letter-count invariant; the pattern must fit into the class's counts;
    and the nonempty outer parts a, b must start/end with letters that are
    both allowed by the counts and reachable as first/last letters.
    """
    subsets = invariant_letter_subsets(pres)
    z = forced_support(pres)
    first = first_letter_closure(pres, w0)
    last = last_letter_closure(pres, w0)
    letters = set(pres.letters)
    for u, v, w, p, q in _side_overlaps(pres):
        m = u + v + w
        if any(letter_count(m, s) > letter_count(w0, s) for s in subsets):
            continue
        if not set(v) <= z:
            continue
        blocked: Set[str] = set()
        for s in subsets:
            if letter_count(m, s) == letter_count(w0, s):
                blocked |= set(s)
        allowed = letters - blocked
        if not (allowed & first):
            continue
        if not (allowed & last):
            continue
        return None
    return (
        "every overlap pattern of relation sides is ruled out by "
        "letter-count and boundary-letter certificates"
    )


def find_inter_osculations(
    pres: Presentation, w0: Word, caps: SearchCaps
) -> Tuple[Tuple[InterOsculation, ...], bool]:
    """Search class members for overlapping side pairs with nonempty outer
    parts, then confirm the crossing via the xi equations."""
    found: List[InterOsculation] = []
    enum = _enum(pres, w0, caps)
    exhaustive = enum.complete
    seen: Set[Tuple] = set()
    patterns = _side_overlaps(pres)
    for member in enum.members:
        for u, v, w, p, q in patterns:
            m = u + v + w
            for o in range(1, len(member) - len(m)):
                if member[o: o + len(m)] != m:
                    continue
                a, b = member[:o], member[o + len(m):]
                if not a or not b:
                    continue
                au = a + u
                au_enum = _enum(pres, au, caps)
                if not au_enum.complete:
                    exhaustive = False
                xi_found = False
                for xi, deriv in _prefix_extensions(pres, caps, au, v):
                    if not xi:
                        continue
                    verdict = _equal(pres, w + b, xi + v + w + b, caps)
                    if verdict.is_unknown:
                        exhaustive = False
                        continue
                    if verdict.is_yes:
                        key = (a, u, v, w, b, p, q)
                        if key not in seen:
                            seen.add(key)
                            found.append(
                                InterOsculation(
                                    a, u, v, w, b, p, q, xi,
                                    evidence=(deriv, verdict.witness),
                                )
                            )
                        xi_found = True
                        break
                if xi_found:
                    continue
    return tuple(found), exhaustive


def inter_osculation_config(
    wit: InterOsculation, pres: Presentation, w0: Word, caps: SearchCaps
) -> Tuple[Tuple[Word, Move, Move], BallCube]:
    """Rebuild the osculation vertex and the separate crossing square."""

    def side_move(word: Word, offset: int, side: Word) -> Move:
        for i, rel in enumerate(pres.relations):
            if rel.lhs == side and word[offset: offset + len(side)] == side:
                return Move(offset, i, True)
            if rel.rhs == side and word[offset: offset + len(side)] == side:
                return Move(offset, i, False)
        raise ValueError(f"{format_word(side)} is not a relation side here")

    word = wit.a + wit.u + wit.v + wit.w + wit.b
    if not _equal(pres, word, w0, caps).is_yes:
        raise ValueError("osculation word not in the base class")
    m1 = side_move(word, len(wit.a), wit.p)
    m2 = side_move(word, len(wit.a) + len(wit.u), wit.q)
    if m2.offset >= m1.offset + len(wit.p):
        raise ValueError("occurrences do not overlap")
    square_word = wit.a + wit.u + wit.v + wit.xi + wit.v + wit.w + wit.b
    if not _equal(pres, square_word, w0, caps).is_yes:
        raise ValueError("crossing square word not in the base class")
    s1 = side_move(square_word, len(wit.a), wit.p)
    s2 = side_move(square_word, len(wit.a + wit.u + wit.v + wit.xi), wit.q)
    # the two square edges must be dual to the same hyperplanes as the
    # osculating pair
    if not _equal(
        pres, square_word[: s2.offset], word[: m2.offset], caps
    ).is_yes:
        raise ValueError("second hyperplane mismatch between square and vertex")
    if not _equal(
        pres,
        square_word[s1.offset + len(wit.p):],
        word[m1.offset + len(wit.p):],
        caps,
    ).is_yes:
        raise ValueError("first hyperplane mismatch between square and vertex")
    return (word, m1, m2), BallCube(square_word, (s1, s2))


# ---------------------------------------------------------------------------
# the specialness report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialnessReport:
    clean: TriBool
    special: TriBool
    self_intersections: Tuple[SelfIntersection, ...]
    self_osculations: Tuple[SelfOsculation, ...]
    inter_osculations: Tuple[InterOsculation, ...]
    notes: Tuple[str, ...]


def specialness_report(
    pres: Presentation, w0: Word, caps: SearchCaps
) -> SpecialnessReport:
    """Decide cleanliness and specialness of the class complex of ``w0``.

    Positive pathology reports carry replayable witnesses; clean/special
    verdicts of ``yes`` carry either an exhaustiveness argument (complete
    class, definite comparisons) or a letter-counting certificate that
    remains sound on infinite classes.
    """
    ball = build_ball(pres, w0, caps)
    notes: List[str] = []

    scan_si, scan_si_def = scan_self_intersections(ball)
    find_si, find_si_def = find_self_intersections(ball)
    splits, splits_def = find_absorbing_splits(pres, w0, caps)
    self_ints = list(scan_si)
    for wit in find_si:
        if wit not in self_ints:
            self_ints.append(wit)
    for split in splits:
        try:
            wit = split_to_self_intersection(split, pres, caps)
        except ValueError:
            continue
        if wit not in self_ints:
            self_ints.append(wit)

    osc, osc_def = scan_self_osculations(ball)
    find_osc, find_osc_def = find_self_osculations(ball)
    self_oscs = list(osc)
    for wit in find_osc:
        if wit not in self_oscs:
            self_oscs.append(wit)

    inter, inter_def = find_inter_osculations(pres, w0, caps)
    # an exhaustive scan settles a verdict only on the whole complex
    whole = ball.complete and ball.catalog.exact

    if self_ints:
        clean = TriBool.no(tuple(self_ints))
    else:
        cert = refute_absorbing_splits(pres)
        if cert is not None:
            clean = TriBool.yes(cert)
            notes.append(f"clean: {cert}")
        elif whole and scan_si_def and find_si_def and splits_def:
            clean = TriBool.yes("exhaustive over the complete class")
            notes.append("clean: exhaustive scan of the complete class")
        else:
            clean = TriBool.unknown()

    if clean.is_no or inter or self_oscs:
        special = TriBool.no(
            tuple(inter) if inter else (clean.witness if clean.is_no else tuple(self_oscs))
        )
    elif clean.is_yes:
        cert = refute_inter_osculations(pres, w0)
        if cert is not None:
            special = TriBool.yes(cert)
            notes.append(f"special: {cert}")
        elif whole and inter_def and osc_def and find_osc_def:
            special = TriBool.yes("exhaustive over the complete class")
            notes.append("special: exhaustive scan of the complete class")
        else:
            special = TriBool.unknown()
    else:
        special = TriBool.unknown()

    return SpecialnessReport(
        clean=clean,
        special=special,
        self_intersections=tuple(self_ints),
        self_osculations=tuple(self_oscs),
        inter_osculations=tuple(inter),
        notes=tuple(notes),
    )


__all__ = [
    "BallEdge",
    "BallCube",
    "SquierBall",
    "build_ball",
    "HyperplaneId",
    "hyperplane_id",
    "HyperplaneCatalog",
    "hyperplane_catalog",
    "HyperplaneRelation",
    "relate",
    "CrossingOrder",
    "crossing_order",
    "TransversalityGraph",
    "transversality_graph",
    "find_induced_odd_cycle",
    "DimensionWitness",
    "dimension_at_least",
    "RankResult",
    "rank",
    "SelfIntersection",
    "SelfOsculation",
    "InterOsculation",
    "AbsorbingSplit",
    "find_self_intersections",
    "scan_self_intersections",
    "self_intersection_square",
    "refute_absorbing_splits",
    "find_absorbing_splits",
    "split_to_self_intersection",
    "find_self_osculations",
    "scan_self_osculations",
    "self_osculation_config",
    "refute_inter_osculations",
    "find_inter_osculations",
    "inter_osculation_config",
    "SpecialnessReport",
    "specialness_report",
]

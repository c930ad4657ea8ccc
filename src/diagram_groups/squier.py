"""The class complex of a base word, its hyperplanes, and their pathologies.

The words congruent to a base word form the vertices of a cube complex: edges
are elementary rewrites, and ``n`` rewrites applicable at pairwise-disjoint
intervals of a word span an ``n``-cube.  A *hyperplane* is what a single
relation application looks like from far away: two edges ``(a, u -> v, b)``
and ``(c, u -> v, d)`` are dual to the same hyperplane exactly when they use
the same relation and ``a = c``, ``b = d`` modulo the presentation.  An edge
crossed in either direction has one hyperplane, so a :class:`HyperplaneId`
carries no orientation.

This module builds bounded balls of that complex and answers the geometric
questions that control the diagram group of the base word:

* ``crossing_order`` — do two hyperplanes cross, and in which left/right
  order (the order ≺), for every pair of the ball's hyperplanes, with the
  rank of each: the longest chain of crossings strictly below it;
* ``specialness_report`` — certificates for cleanliness (no hyperplane
  crosses itself) and specialness (additionally, no two crossing
  hyperplanes also touch at a vertex away from their crossings).

Most classes are infinite, so definite verdicts come from three sources:
exhaustive enumeration when a class is finite, replayable witnesses for
positives, and letter-counting certificates (see ``rewriting``) that remain
sound on infinite classes.  A rank found on a truncated ball is squeezed
exact by ``rewriting.dimension_at_least``, which asks whether the complex
contains an ``n``-cube from factorizations of members and letter counts
alone; it lives there, beside the certificates it uses, so that the ``dim``
command loads no ball code.  Anything else is reported as unknown.

Every class search goes through the run's :class:`~.rewriting.ClassSearch`,
which holds the presentation and the caps and answers each search once per
run; the functions here take it, or a ball that carries it.

A :class:`SquierBall` is the one object these questions are read from, and
``build_ball`` builds one per base word per run.  It carries the run's
search and owns its generating ``loops``, its hyperplane ``catalog`` and its
crossing ``order``, each built on first use.  ``express`` writes any loop
of the class in the loops, which is how ``decomposition``, whose free
factors hold their ball, presents groups; the Farley ranks
(``farley.rank_partition`` returns the order), the RAAG of the crossing
graph and the left hyperplanes read the rest.  The order is one table over
catalog positions that holds ≺, the ranks with ``ranks_exact``, the
crossing pairs and the odd-cycle check of the crossing graph; ``relate``
and ``rank`` only look a cataloged hyperplane up in ``ball.order``.  An
edge, in or out of the ball, learns its hyperplane through
``ball.hyperplane_index``, the one map from edges to catalog positions.

The ball's cubes come from ``disjoint_cubes``, over tables of the moves
out of each vertex, and the ball keeps them as ``cubes`` (``(dim, cubes)``
pairs of ascending dimension), whose dimension-2 entry is ``squares``.
Farley's complex of reduced diagrams, which covers this one, only counts its
cubes (``farley.FarleyBall.cube_counts``).

A pathology witness is a named tuple whose last field, ``evidence``, holds
one derivation, run either way, per equation its docstring states, in that
order.  The witnesses of ``find_absorbing_splits`` run ``a → a·p·b`` and
``c → b·p·c``.
"""

from __future__ import annotations

import itertools
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

from .rewriting import (
    ClassEnumeration,
    ClassSearch,
    Derivation,
    Move,
    Presentation,
    SearchCaps,
    TriBool,
    Word,
    dimension_at_least,
    end_letter_closure,
    forced_support,
    format_word,
    has_singleton_class,
    invariant_letter_subsets,
    letter_count,
)

if TYPE_CHECKING:
    # only ``express`` names diagrams, and it is handed them: the commands
    # that never build one load no ``diagrams``
    from .diagrams import Diagram

# ---------------------------------------------------------------------------
# balls of the class complex
# ---------------------------------------------------------------------------


class BallEdge(NamedTuple):
    """An edge in canonical orientation: a forward move applied at ``source``."""

    source: Word
    move: Move

    @staticmethod
    def of(word: Word, move: Move, pres: Presentation) -> "BallEdge":
        """The edge that ``move`` crosses at ``word``, turned forward."""
        if move.forward:
            return BallEdge(word, move)
        return BallEdge(move.apply(word, pres), move.inverted())

    def target(self, pres: Presentation) -> Word:
        return self.move.apply(self.source, pres)

    def parts(self, pres: Presentation) -> Tuple[Word, Word]:
        src, _ = self.move.sides(pres)
        o = self.move.offset
        return self.source[:o], self.source[o + len(src):]


class BallCube(NamedTuple):
    """An ``n``-cube, encoded at the corner where all moves apply forward.

    ``moves`` are pairwise disjoint forward moves, ascending offsets.
    """

    corner: Word
    moves: Tuple[Move, ...]


def disjoint_cubes(
    up: Sequence[Dict[Move, int]], pres: Presentation
) -> Tuple[Tuple[int, tuple], ...]:
    """The cubes of dimension at least two spanned by recorded moves.

    ``up[i]`` maps each cube-direction move out of vertex ``i`` to the
    vertex it reaches.  Pairwise-disjoint moves at ``i`` span a cube when
    every corner is reached through recorded moves: a move right of the
    others is shifted by their length changes at the corners they lead to.
    Good subsets are downward closed, so subsets grow one move at a time and
    a branch is pruned on its first missing corner.  Moves are tried in
    ``(offset, end, relation, forward)`` order; each cube is returned as
    ``(corner, moves, corners)``, where ``corners[mask]`` is reached by the
    moves whose bits are set in ``mask``, grouped by ascending dimension.
    The Squier ball (``_build_ball``) is its one caller; Farley balls only
    count their cubes, and the tests check that count against this list.
    """

    def end(move: Move) -> int:
        return move.offset + len(move.sides(pres)[0])

    cubes: Dict[int, list] = {}

    def grow(i: int, ups: list, start: int, chosen: List[Move],
             corners: List[int], shifts: List[int]) -> None:
        if len(chosen) >= 2:
            cubes.setdefault(len(chosen), []).append(
                (i, tuple(chosen), tuple(corners))
            )
        for t in range(start, len(ups)):
            move, j = ups[t]
            # chosen moves are disjoint and ascending, so the last ends last
            if chosen and end(chosen[-1]) > move.offset:
                continue
            reached = [j]
            for corner, shift in zip(corners[1:], shifts[1:]):
                target = up[corner].get(
                    Move(move.offset + shift, move.relation, move.forward)
                )
                if target is None:
                    break
                reached.append(target)
            else:
                delta = move.delta(pres)
                chosen.append(move)
                grow(i, ups, t + 1, chosen, corners + reached,
                     shifts + [s + delta for s in shifts])
                chosen.pop()

    for i, moves in enumerate(up):
        ups = sorted(
            moves.items(),
            key=lambda mj: (mj[0].offset, end(mj[0]), mj[0].relation, mj[0].forward),
        )
        grow(i, ups, 0, [], [i], [0])
    return tuple((dim, tuple(cubes[dim])) for dim in sorted(cubes))


class SquierBall:
    """A bounded piece of the class complex around ``base``, within the caps
    of ``search``, the run's class search that every question about the ball
    goes through.

    ``edges`` lists each edge once, forward, in the order of
    ``enum.members``; ``tree`` holds those of the enumeration's spanning
    tree, and ``loops`` the others, each closing one generating loop;
    ``express`` writes any loop of the class in them.  They, ``catalog``
    and ``order`` are computed on first use and kept.  A ball is
    built once per run and base word, so it is equal only to itself.
    """

    def __init__(
        self,
        search: ClassSearch,
        base: Word,
        enum: ClassEnumeration,
        edges: Tuple[BallEdge, ...],
        cubes: Tuple[Tuple[int, Tuple[BallCube, ...]], ...],
    ) -> None:
        self.search = search
        self.base = base
        self.enum = enum
        self.edges = edges
        self.cubes = cubes

    @property
    def pres(self) -> Presentation:
        return self.search.pres

    @property
    def squares(self) -> Tuple[BallCube, ...]:
        return dict(self.cubes).get(2, ())

    @property
    def vertices(self) -> Tuple[Word, ...]:
        return self.enum.members

    @property
    def complete(self) -> bool:
        return self.enum.complete

    @cached_property
    def tree(self) -> FrozenSet[BallEdge]:
        pres = self.pres
        return frozenset(BallEdge.of(p, m, pres) for p, m in self.enum.parent.values())

    @cached_property
    def loops(self) -> Tuple[BallEdge, ...]:
        tree = self.tree
        return tuple(e for e in self.edges if e not in tree)

    @cached_property
    def _loop_index(self) -> Dict[BallEdge, int]:
        return {e: i for i, e in enumerate(self.loops)}

    def express(self, d: Diagram) -> Optional[Tuple[Tuple[int, int], ...]]:
        """Word in the ``loops`` representing the loop ``d``, as
        ``(loop index, ±1)`` pairs, or None if the walk leaves the ball
        (truncation).

        The walk follows the derivation of ``d`` edge by edge: tree edges
        vanish, so no base-point transport is ever needed.  The loops
        generate the fundamental group of the ball, freely when it has no
        squares.
        """
        assert d.is_spherical, "only loops have a class in the fundamental group"
        pres = self.pres
        if d.top not in self.enum:
            return None
        out: List[Tuple[int, int]] = []
        for w, move in zip(d.words(), d.moves):
            nxt = move.apply(w, pres)
            if nxt not in self.enum:
                return None
            edge, sign = BallEdge.of(w, move, pres), 1 if move.forward else -1
            if edge in self.tree:
                continue
            idx = self._loop_index.get(edge)
            if idx is None:
                return None
            if out and out[-1] == (idx, -sign):
                out.pop()
            else:
                out.append((idx, sign))
        return tuple(out)

    @cached_property
    def catalog(self) -> "HyperplaneCatalog":
        return hyperplane_catalog(self)

    @cached_property
    def order(self) -> "CrossingOrder":
        return crossing_order(self)

    def hyperplane_index(self, word: Word, move: Move) -> int:
        """Catalog position of the hyperplane dual to ``move`` applied at
        ``word``, in either direction.

        A ball edge is read off ``catalog.edge_index``.  Any other edge is
        matched part by part against the cataloged hyperplanes of its
        relation, by the equality the catalog groups edges with; the first
        match in catalog order wins.  Raises :class:`OutsideCatalogError`
        when nothing matches.
        """
        edge = BallEdge.of(word, move, self.pres)
        catalog = self.catalog
        i = catalog.edge_index.get(edge)
        if i is not None:
            return i
        a, b = edge.parts(self.pres)
        equal = self.search.equal
        for i, hid in enumerate(catalog.ids):
            if (
                hid.relation == move.relation
                and equal(a, hid.left).is_yes
                and equal(b, hid.right).is_yes
            ):
                return i
        raise OutsideCatalogError(hyperplane_id(self.search, word, move))


def build_ball(search: ClassSearch, base: Word) -> SquierBall:
    """The ball of ``base``, built once per run of ``search``: the class of
    ``base`` with its edges and cubes.

    The forward moves between members are the up tables of
    :func:`disjoint_cubes`, so a cube is included only when *all* of its
    corners lie inside the ball and Euler-characteristic style counts are
    honest on truncated data.
    """
    return search.once(_build_ball, base)


def _build_ball(search: ClassSearch, base: Word) -> SquierBall:
    pres = search.pres
    enum = search.enum(base)
    position = {w: i for i, w in enumerate(enum.members)}
    edges: List[BallEdge] = []
    up: List[Dict[Move, int]] = []
    for w in enum.members:
        up.append({})
        for move, result in search.rewrites(w):
            j = position.get(result)
            if move.forward and j is not None:
                edges.append(BallEdge(w, move))
                up[-1][move] = j
    packed = tuple(
        (dim, tuple(BallCube(enum.members[i], moves) for i, moves, _ in cs))
        for dim, cs in disjoint_cubes(up, pres)
    )
    return SquierBall(search, base, enum, tuple(edges), packed)


# ---------------------------------------------------------------------------
# hyperplane identity
# ---------------------------------------------------------------------------


class HyperplaneId:
    """Identity of a hyperplane; hyperplanes carry no orientation.

    ``left`` and ``right`` are canonical representatives of the congruence
    classes of the parts.  ``exact`` records whether both part classes were
    completely enumerated; it takes no part in equality, since two ids with
    equal parts and relation denote one hyperplane regardless (the
    representatives are reached by replayable derivations).
    """

    __slots__ = ("left", "relation", "right", "exact")

    def __init__(self, left: Word, relation: int, right: Word, exact: bool = True) -> None:
        self.left = left
        self.relation = relation
        self.right = right
        self.exact = exact

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperplaneId):
            return NotImplemented
        return (self.left, self.relation, self.right) == (
            other.left, other.relation, other.right
        )

    def __hash__(self) -> int:
        return hash((self.left, self.relation, self.right))

    def __str__(self) -> str:
        return (
            f"[{format_word(self.left)} | r{self.relation} | "
            f"{format_word(self.right)}]"
        )


def hyperplane_id(search: ClassSearch, source: Word, move: Move) -> HyperplaneId:
    """Identity of the hyperplane dual to the rewrite ``move`` applied at
    ``source``; both directions of one edge get the same id."""
    src, _ = move.sides(search.pres)
    o = move.offset
    left, lx = search.rep(source[:o])
    right, rx = search.rep(source[o + len(src):])
    return HyperplaneId(left, move.relation, right, lx and rx)


class OutsideCatalogError(KeyError):
    """A hyperplane outside the cataloged, possibly truncated, class complex
    has no catalog position."""

    def __init__(self, hyperplane: HyperplaneId) -> None:
        super().__init__(
            f"hyperplane {hyperplane} is outside the cataloged ball (truncation?)"
        )
        self.hyperplane = hyperplane


class HyperplaneCatalog:
    """The distinct unoriented hyperplanes of a ball.

    ``exact`` means the partition of edges into hyperplanes is provably
    correct: merges are always backed by derivations, and every split
    (same relation, different class parts) was certified by a definite
    inequality.  ``index`` maps each hyperplane, and ``edge_index`` each
    ball edge, to the position of its hyperplane in ``ids``.

    :func:`hyperplane_catalog` groups the edges of a complete ball by class
    representatives where both part classes enumerate completely, and by
    pairwise probes elsewhere.  The groups are those of probing every edge,
    and ``exact`` is the same: a representative is taken only from a
    complete enumeration, and a probe from such a word is never unknown.
    """

    __slots__ = ("ids", "edges_of", "exact", "index", "edge_index")

    def __init__(
        self,
        ids: Tuple[HyperplaneId, ...],
        edges_of: Tuple[Tuple[HyperplaneId, Tuple[BallEdge, ...]], ...],
        exact: bool,
    ) -> None:
        self.ids = ids
        self.edges_of = edges_of
        self.exact = exact
        self.index: Dict[HyperplaneId, int] = {h: i for i, h in enumerate(ids)}
        self.edge_index: Dict[BallEdge, int] = {
            e: i for i, (_, es) in enumerate(edges_of) for e in es
        }


def hyperplane_catalog(ball: SquierBall) -> HyperplaneCatalog:
    """Partition the ball's edges into hyperplanes; read it as ``ball.catalog``,
    which builds it once per ball.

    Edges are taken in ball order.  Each joins the first earlier group of its
    relation whose first edge has congruent left and right parts, or opens a
    new group.  On a complete ball, an edge whose part classes both
    enumerate completely is named by its class representatives
    ``(rep(a), relation, rep(b))``, and a dict keyed on them finds its group.
    Two such edges belong together exactly when their keys are equal, so a
    key that misses needs probing only against the groups opened by the other
    edges, in order; it is registered either way.  Every other edge probes
    each earlier group of its relation, and an unknown probe clears ``exact``.
    An edge named by its key would never clear it: a probe from a word whose
    class enumerates completely under the caps exhausts that side, so it is
    never unknown.  The groups, and so ``exact``, are those of probing every
    edge.  Capped balls probe every edge, because enumerating each part word
    costs more there than the probes it saves, even though a probe from an
    enumerated word searches from the other word alone.
    """
    pres, search = ball.pres, ball.search
    equal = search.equal
    exact = True
    groups: List[Tuple[Tuple[Word, Word], List[BallEdge]]] = []
    by_relation: Dict[int, List[int]] = {}
    # groups opened by edges without a key, per relation
    probed: Dict[int, List[int]] = {}
    by_key: Dict[Tuple[Word, int, Word], int] = {}
    for edge in ball.edges:
        a, b = edge.parts(pres)
        relation = edge.move.relation
        key = None
        if ball.complete:
            (ra, xa), (rb, xb) = search.rep(a), search.rep(b)
            if xa and xb:
                key = (ra, relation, rb)
        gi = by_key.get(key)
        if gi is None:
            # a key that misses can belong only to a group opened without one
            for g in (by_relation if key is None else probed).get(relation, ()):
                (ga, gb), _ = groups[g]
                va = equal(a, ga)
                vb = equal(b, gb)
                if va.is_yes and vb.is_yes:
                    gi = g
                    break
                if va.is_unknown or vb.is_unknown:
                    exact = False
        if gi is None:
            gi = len(groups)
            groups.append(((a, b), []))
            by_relation.setdefault(relation, []).append(gi)
            if key is None:
                probed.setdefault(relation, []).append(gi)
        groups[gi][1].append(edge)
        if key is not None:
            by_key[key] = gi
    packed: List[Tuple[HyperplaneId, Tuple[BallEdge, ...]]] = []
    for (a, b), members in groups:
        la, xa = search.rep(a)
        rb, xb = search.rep(b)
        hid = HyperplaneId(la, members[0].move.relation, rb, xa and xb)
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


class HyperplaneRelation(NamedTuple):
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
    search: ClassSearch, j1: HyperplaneId, j2: HyperplaneId
) -> Tuple[Optional[Word], bool]:
    """Bounded search for ``y`` with ``left2 = left1 u y`` and
    ``right1 = y p right2``; returns (witness or None, search-was-exhaustive).

    The candidates ``y`` are the extensions of ``[left2]`` past a member of
    ``[left1]`` and ``u``, each probed once, in shortlex order."""
    u = search.pres.relations[j1.relation].lhs
    p = search.pres.relations[j2.relation].lhs
    exhaustive = search.enum(j2.left).complete
    for y, _ in search.once(_extensions, j2.left, u, j1.left):
        verdict = search.equal(j1.right, y + p + j2.right)
        if verdict.is_yes:
            return y, exhaustive
        if verdict.is_unknown:
            exhaustive = False
    return None, exhaustive


def crossing_order(ball: SquierBall) -> CrossingOrder:
    """Compare every pair of cataloged hyperplanes once, in catalog order;
    read it as ``ball.order``, which builds it once per ball.

    What every comparison shares is built once: the first square (in
    ``ball.squares`` order) dual to each pair of catalog positions, and the
    letter-count invariants of the presentation.  A square settles a pair
    immediately; otherwise a bounded witness search and the structural
    certificates decide, and anything left over is unknown.
    """
    pres, ids = ball.pres, ball.catalog.ids
    hyperplane = ball.hyperplane_index
    # pair (low, high) of catalog positions -> (position of the left dual, square)
    first_square: Dict[Tuple[int, int], Tuple[int, BallCube]] = {}
    for square in ball.squares:
        left = hyperplane(square.corner, square.moves[0])
        right = hyperplane(square.corner, square.moves[1])
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
        y, exhaustive = _search_prec_witness(ball.search, a, b)
        if y is not None:
            return "yes", y
        return ("no", "exhaustive search") if exhaustive else ("unknown", None)

    def compare(i: int, j: int) -> HyperplaneRelation:
        hit = first_square.get((i, j))
        if hit is not None:
            left, square = hit
            value = "first_prec_second" if left == i else "second_prec_first"
            return HyperplaneRelation(value, square)
        first, w_first = one_direction(ids[i], ids[j])
        if first == "yes":
            return HyperplaneRelation("first_prec_second", w_first)
        second, w_second = one_direction(ids[j], ids[i])
        if second == "yes":
            return HyperplaneRelation("second_prec_first", w_second)
        if first == "no" and second == "no":
            reasons = (w_first, w_second)
            if reasons not in disjoint:
                disjoint[reasons] = HyperplaneRelation("disjoint", reasons)
            return disjoint[reasons]
        return HyperplaneRelation("unknown")

    relations = {
        (i, j): compare(i, j)
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    }
    definite = all(rel.value != "unknown" for rel in relations.values())
    return CrossingOrder(ball, relations, definite)


_FLIPPED = {
    "first_prec_second": "second_prec_first",
    "second_prec_first": "first_prec_second",
}


def relate(j1: HyperplaneId, j2: HyperplaneId, ball: SquierBall) -> HyperplaneRelation:
    """How two distinct cataloged hyperplanes of the ball compare in
    ``ball.order``, with ``j1`` first; a hyperplane outside the catalog
    raises :class:`KeyError`.

    The package itself reads ``ball.order``.  This name stays because the
    per-layer benchmark tracer (``perfbench/tracer.py``) wraps
    ``squier.relate`` by name; it can go once the tracer stops naming it.
    """
    i1, i2 = ball.catalog.index[j1], ball.catalog.index[j2]
    rel = ball.order.relations[min(i1, i2), max(i1, i2)]
    if i1 < i2 or rel.value not in _FLIPPED:
        return rel
    return HyperplaneRelation(_FLIPPED[rel.value], rel.witness)


# the longest induced odd cycle ``find_induced_odd_cycle`` looks for
_ODD_CYCLE_MAX_LEN = 9


def find_induced_odd_cycle(adj: List[Set[int]]) -> Optional[Tuple[int, ...]]:
    """Smallest-start induced odd cycle of length 5.._ODD_CYCLE_MAX_LEN, or
    None.

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
            if len(path) + 1 < _ODD_CYCLE_MAX_LEN:
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


# ---------------------------------------------------------------------------
# ranks, squeezed by the cube dimension of ``rewriting``
# ---------------------------------------------------------------------------


class RankResult(NamedTuple):
    """Longest crossing chain strictly below a hyperplane."""

    value: int
    exact: bool
    chain: Tuple[HyperplaneId, ...]
    notes: Tuple[str, ...] = ()


class CrossingOrder:
    """The crossing order ≺ on the cataloged hyperplanes of one ball, by
    catalog position.

    ``relations[i, j]`` (``i < j``) compares ``ball.catalog.ids[i]`` with
    ``ball.catalog.ids[j]``.  The pairs were compared in that order, row by
    row, so the run's class search fills the same way whichever consumer
    reads them.  ``definite`` means no pair came back unknown, and ``exact``
    that besides the catalog is certified.

    The crossing graph is read off the same table: ``crossings`` lists the
    crossing pairs as ``(i, j, value)`` in table order, and ``odd_cycle``
    is an induced odd cycle of length 5..9 in it (None if there is none),
    searched for on first read only, since that search has no budget.
    """

    def __init__(
        self,
        ball: SquierBall,
        relations: Dict[Tuple[int, int], HyperplaneRelation],
        definite: bool,
    ) -> None:
        self.ball = ball
        self.relations = relations
        self.definite = definite
        self.exact = ball.catalog.exact and definite

    @cached_property
    def crossings(self) -> Tuple[Tuple[int, int, str], ...]:
        return tuple(
            (i, j, rel.value)
            for (i, j), rel in self.relations.items()
            if rel.value in _FLIPPED
        )

    @cached_property
    def odd_cycle(self) -> Optional[Tuple[int, ...]]:
        adj: List[Set[int]] = [set() for _ in self.ball.catalog.ids]
        for i, j, _ in self.crossings:
            adj[i].add(j)
            adj[j].add(i)
        return find_induced_odd_cycle(adj)

    @cached_property
    def ranks(self) -> Tuple[RankResult, ...]:
        """``ranks[i]``: the longest chain J_1 ≺ ... ≺ J_k ≺ J found below
        ``J = ball.catalog.ids[i]``, with exactness.

        Exact when the order is definite and the ball complete, or when a
        dimension certificate squeezes the upper bound to the found value.
        """
        ball = self.ball
        ids = ball.catalog.ids
        prec: Dict[int, Set[int]] = {i: set() for i in range(len(ids))}
        for a, b, value in self.crossings:
            if value == "first_prec_second":
                prec[b].add(a)
            else:
                prec[a].add(b)

        def rank_of(target: int) -> RankResult:
            if not ids[target].left:
                # anything below it would need its own left part, a relation
                # side and a connector to equal the empty word — impossible
                return RankResult(
                    0, True, (), ("nothing fits left of an empty left part",)
                )
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
            exact = self.definite and ball.complete and not notes
            if not exact:
                squeeze = dimension_at_least(ball.search, ball.base, value + 2)
                if squeeze.is_no:
                    exact = not notes
                    notes.append(
                        f"upper bound from dimension: no {value + 2}-cube exists"
                    )
            return RankResult(value, exact, tuple(chain), tuple(notes))

        return tuple(rank_of(i) for i in range(len(ids)))

    @property
    def ranks_exact(self) -> bool:
        """The catalog is certified and every rank is exact, which the tree
        quotients of ``farley`` need."""
        return self.ball.catalog.exact and all(r.exact for r in self.ranks)


def rank(j: HyperplaneId, ball: SquierBall) -> RankResult:
    """Longest chain J_1 ≺ ... ≺ J_k ≺ J found below the cataloged
    hyperplane ``j``; see :attr:`CrossingOrder.ranks`.  A hyperplane outside
    the catalog raises :class:`KeyError`.

    The package itself reads ``ball.order.ranks``.  This name stays because
    the per-layer benchmark tracer (``perfbench/tracer.py``) wraps
    ``squier.rank`` by name; it can go once the tracer stops naming it.
    """
    return ball.order.ranks[ball.catalog.index[j]]


# ---------------------------------------------------------------------------
# pathology witnesses
# ---------------------------------------------------------------------------


class SelfIntersection(NamedTuple):
    """Witness that [a, p -> q, c] crosses itself: a = a p b and c = b p c
    modulo the presentation (with a p c in the base class)."""

    a: Word
    p: Word
    q: Word
    b: Word
    c: Word
    evidence: Tuple[Derivation, ...] = ()


class SelfOsculation(NamedTuple):
    """Witness that [a, (kh)^n k -> p, b] touches itself at a vertex:
    a = a k h and b = h k b modulo the presentation.  ``k`` may be empty
    when the side is a proper power (then n >= 2)."""

    n: int
    a: Word
    k: Word
    h: Word
    p: Word
    b: Word
    evidence: Tuple[Derivation, ...] = ()


class InterOsculation(NamedTuple):
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
    evidence: Tuple[Derivation, ...] = ()


# -- self-intersections ------------------------------------------------------


def _probe_budget(caps: SearchCaps) -> int:
    """Total oracle probes a single witness search may spend.

    Searches over truncated classes multiply members, split points and
    candidate extensions; the budget keeps them answerable.  Running out
    clears the exhaustive flag, exactly like any other cap.
    """
    return caps.max_class_size * 4


def _extensions(
    search: ClassSearch, base: Word, middle: Word, head: Optional[Word] = None
) -> Tuple[Tuple[Word, Word], ...]:
    """Every ``t`` such that a member of ``[base]`` found by ``search.enum``
    reads ``h·middle·t``, where ``h`` is ``base`` itself, or, when ``head``
    is given, any member found in ``[head]``; each ``t`` once, with the
    first member that gives it, whose derivation
    ``search.enum(base).derivation`` gives.

    This is the one candidate search behind the pathology searches'
    equations ``base = base·middle·t`` and the ≺ search's equation
    ``left2 = left1·u·y``.
    Members are taken in shortlex order and, within one, ``h`` shortest
    first, which is the shortlex order of the pairs (member, ``h``).
    Callers go through ``search.once``, so the result is shared by the
    whole run; it is a tuple so that no caller can change it."""
    heads = (base,) if head is None else search.enum(head)
    n = len(middle)
    out: List[Tuple[Word, Word]] = []
    seen: Set[Word] = set()
    for z in search.enum(base).members:
        for k in (len(base),) if head is None else range(len(z) - n + 1):
            if z[k: k + n] == middle and z[:k] in heads:
                t = z[k + n:]
                if t not in seen:
                    seen.add(t)
                    out.append((t, z))
    return tuple(out)


def find_self_intersections(
    ball: SquierBall,
) -> Tuple[Tuple[SelfIntersection, ...], bool]:
    """Equation-search route: for each hyperplane [a, r, c] of the ball look
    for b with a = a·p·b and c = b·p·c.  Returns (witnesses,
    search-was-exhaustive)."""
    search = ball.search
    found: List[SelfIntersection] = []
    exhaustive = True
    budget = _probe_budget(search.caps)
    for hid in ball.catalog.ids:
        rel = search.pres.relations[hid.relation]
        for p, q in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            if not search.enum(hid.left).complete:
                exhaustive = False
            for t, member in search.once(_extensions, hid.left, p):
                b = t or p  # witness parts must be nonempty; empty b prints p
                if budget <= 0:
                    return tuple(found), False
                budget -= 1
                verdict = search.equal(hid.right, b + p + hid.right)
                if verdict.is_yes:
                    first = search.enum(hid.left).derivation(member)
                    if not t:
                        first = _twice(first, hid.left, p, False, search.pres)
                    found.append(
                        SelfIntersection(
                            hid.left, p, q, b, hid.right,
                            evidence=(first, verdict.witness),
                        )
                    )
                elif verdict.is_unknown:
                    exhaustive = False
    return tuple(found), exhaustive


def scan_self_intersections(
    ball: SquierBall,
) -> Tuple[Tuple[SelfIntersection, ...], bool]:
    """Geometric route: squares of the ball whose two dual hyperplanes agree."""
    pres, equal = ball.pres, ball.search.equal
    found: List[SelfIntersection] = []
    definite = True
    for square in ball.squares:
        m1, m2 = square.moves
        if m1.relation != m2.relation:
            continue
        a1, b1 = BallEdge(square.corner, m1).parts(pres)
        a2, b2 = BallEdge(square.corner, m2).parts(pres)
        va = equal(a1, a2)
        vb = equal(b1, b2)
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
        evidence = (va.witness, vb.witness)
        if not b:
            b = p
            evidence = (
                _twice(va.witness, a, p, False, pres),
                _twice(vb.witness, c, p, True, pres),
            )
        found.append(SelfIntersection(a, p, q, b, c, evidence=evidence))
    return tuple(found), definite


def _twice(
    d: Derivation, u: Word, x: Word, left: bool, pres: Presentation
) -> Derivation:
    """From a derivation between ``u`` and ``u·x`` (``x·u`` when ``left``),
    run either way, the derivation ``u → u·x·x`` (``u → x·x·u``): its moves
    run ``u → u·x`` and then again on ``u·x``, shifted past ``x`` when ``x``
    grows on the left.  This proves an equation whose empty middle the
    witness prints as ``b = p``."""
    if d.start != u:
        d = d.inverted(pres)
    shift = len(x) if left else 0
    again = tuple(m._replace(offset=m.offset + shift) for m in d.steps)
    return Derivation(u, d.steps + again)


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
    search: ClassSearch, w0: Word
) -> Tuple[Tuple[SelfIntersection, ...], bool]:
    """Self-crossings from the splits a|b of members of [w0] with a = a p,
    b = p b and [p] nontrivial; returns (witnesses, search-was-exhaustive).

    With p = e·sigma·f for a relation side sigma, [a e, sigma -> tau, f b]
    crosses itself with middle f·e (or sigma when that is empty); see
    :func:`_split_crossing`.  Each split point gives at most one witness."""
    pres = search.pres
    found: List[SelfIntersection] = []
    enum = search.enum(w0)
    exhaustive = enum.complete
    budget = _probe_budget(search.caps)
    for member in enum.members:
        for cut in range(1, len(member)):
            if budget <= 0:
                return tuple(found), False
            budget -= 1  # the prefix-class enumeration below counts too
            a, b = member[:cut], member[cut:]
            if not search.enum(a).complete:
                exhaustive = False
            for p, _ in search.once(_extensions, a, ()):
                if not p or has_singleton_class(p, pres):
                    continue
                if budget <= 0:
                    return tuple(found), False
                budget -= 1
                verdict = search.equal(b, p + b)
                if verdict.is_unknown:
                    exhaustive = False
                if verdict.is_yes:
                    wit = _split_crossing(search, a, p, b)
                    if wit is not None:
                        found.append(wit)
                    break  # one witness per split point is enough
    return tuple(found), exhaustive


def _split_crossing(
    search: ClassSearch, a: Word, p: Word, b: Word
) -> Optional[SelfIntersection]:
    """The witness of the first side occurrence in ``p`` whose equations
    a e = a e·sigma·mid and f b = mid·sigma·f b both come back yes, with
    their derivations as evidence, or None."""
    for o in range(len(p)):
        for rel in search.pres.relations:
            for sigma, tau in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
                if p[o: o + len(sigma)] != sigma:
                    continue
                e, f = p[:o], p[o + len(sigma):]
                mid = f + e or sigma
                left = search.equal(a + e, a + e + sigma + mid)
                right = search.equal(f + b, mid + sigma + f + b)
                if left.is_yes and right.is_yes:
                    return SelfIntersection(
                        a + e, sigma, tau, mid, f + b,
                        evidence=(left.witness, right.witness),
                    )
    return None


# -- self-osculations --------------------------------------------------------


def _period_split(side: Word, delta: int) -> Tuple[int, Word, Word]:
    """The (n, k, h) with side = (k h)^n k and len(k h) = delta, for a
    period delta of side."""
    rem = len(side) % delta
    return len(side) // delta, side[:rem], side[rem:delta]


def _periodic_factorizations(side: Word) -> List[Tuple[int, Word, Word]]:
    """All (n, k, h) with side = (k h)^n k, h nonempty, n >= 1.

    Every period delta < len(side) yields one factorization; the overlap
    condition (k nonempty or n >= 2) holds automatically because
    delta <= len(side) - 1.
    """
    L = len(side)
    return [
        _period_split(side, delta)
        for delta in range(1, L)
        if all(side[i] == side[i + delta] for i in range(L - delta))
    ]


def find_self_osculations(
    ball: SquierBall,
) -> Tuple[Tuple[SelfOsculation, ...], bool]:
    """Equation route: periodic relation sides whose parts absorb the period,
    on the hyperplanes of the ball."""
    pres, equal = ball.pres, ball.search.equal
    found: List[SelfOsculation] = []
    exhaustive = True
    for hid in ball.catalog.ids:
        rel = pres.relations[hid.relation]
        for sigma, other in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            for n, k, h in _periodic_factorizations(sigma):
                va = equal(hid.left, hid.left + k + h)
                if va.is_unknown:
                    exhaustive = False
                    continue
                if not va.is_yes:
                    continue
                vb = equal(hid.right, h + k + hid.right)
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
    pres, search = ball.pres, ball.search
    equal = search.equal
    found: List[SelfOsculation] = []
    definite = True
    seen: Set[Tuple] = set()
    for w in ball.vertices:
        for (m1, _), (m2, _) in itertools.combinations(search.rewrites(w), 2):
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
            va = equal(w[: m1.offset], w[: m2.offset])
            vb = equal(w[m1.offset + len(sigma):], w[m2.offset + len(sigma):])
            if va.is_unknown or vb.is_unknown:
                definite = False
                continue
            if not (va.is_yes and vb.is_yes):
                continue
            n, k, h = _period_split(sigma, delta)
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
    both allowed by the counts and reachable as first/last letters.  The
    empty word is alone in its class, which leaves no room for outer parts.
    """
    if not w0:
        return "the empty word's class is a single word with no room for overlapping sides"
    subsets = invariant_letter_subsets(pres)
    z = forced_support(pres)
    first = end_letter_closure(pres, w0, 0)
    last = end_letter_closure(pres, w0, -1)
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
    search: ClassSearch, w0: Word
) -> Tuple[Tuple[InterOsculation, ...], bool]:
    """Search class members for overlapping side pairs with nonempty outer
    parts, then confirm the crossing via the xi equations."""
    found: List[InterOsculation] = []
    enum = search.enum(w0)
    exhaustive = enum.complete
    seen: Set[Tuple] = set()
    patterns = _side_overlaps(search.pres)
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
                if not search.enum(au).complete:
                    exhaustive = False
                for xi, extended in search.once(_extensions, au, v):
                    if not xi:
                        continue
                    verdict = search.equal(w + b, xi + v + w + b)
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
                                    evidence=(
                                        search.enum(au).derivation(extended),
                                        verdict.witness,
                                    ),
                                )
                            )
                        break
    return tuple(found), exhaustive


# ---------------------------------------------------------------------------
# the specialness report
# ---------------------------------------------------------------------------


class SpecialnessReport(NamedTuple):
    clean: TriBool
    special: TriBool
    self_intersections: Tuple[SelfIntersection, ...]
    self_osculations: Tuple[SelfOsculation, ...]
    inter_osculations: Tuple[InterOsculation, ...]
    notes: Tuple[str, ...]


def _with_new(listed: Sequence, extra: Sequence) -> List:
    """``listed`` as it is, then each witness of ``extra`` whose fields but
    ``evidence``, the last, differ from those of every one listed before it.
    This is the one place where witness identity ignores evidence."""
    out = list(listed)
    seen = {wit[:-1] for wit in out}
    for wit in extra:
        if wit[:-1] not in seen:
            seen.add(wit[:-1])
            out.append(wit)
    return out


def specialness_report(search: ClassSearch, w0: Word) -> SpecialnessReport:
    """Decide cleanliness and specialness of the class complex of ``w0``.

    Positive pathology reports carry replayable witnesses, whose
    ``evidence`` derives a = a p b and c = b p c (self-intersections),
    a = a k h and b = h k b (self-osculations) or a u = a u v xi and
    w b = xi v w b (inter-osculations).  Clean/special verdicts of ``yes``
    carry either an exhaustiveness argument (complete class, definite
    comparisons) or a letter-counting certificate that remains sound on
    infinite classes.
    """
    pres = search.pres
    ball = build_ball(search, w0)
    notes: List[str] = []

    scan_si, scan_si_def = scan_self_intersections(ball)
    find_si, find_si_def = find_self_intersections(ball)
    splits, splits_def = find_absorbing_splits(search, w0)
    self_ints = _with_new(scan_si, find_si + splits)

    osc, osc_def = scan_self_osculations(ball)
    find_osc, find_osc_def = find_self_osculations(ball)
    self_oscs = _with_new(osc, find_osc)

    inter, inter_def = find_inter_osculations(search, w0)
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
    "disjoint_cubes",
    "SquierBall",
    "build_ball",
    "HyperplaneId",
    "hyperplane_id",
    "OutsideCatalogError",
    "HyperplaneCatalog",
    "hyperplane_catalog",
    "HyperplaneRelation",
    "relate",
    "CrossingOrder",
    "crossing_order",
    "find_induced_odd_cycle",
    "RankResult",
    "rank",
    "SelfIntersection",
    "SelfOsculation",
    "InterOsculation",
    "find_self_intersections",
    "scan_self_intersections",
    "refute_absorbing_splits",
    "find_absorbing_splits",
    "find_self_osculations",
    "scan_self_osculations",
    "refute_inter_osculations",
    "find_inter_osculations",
    "SpecialnessReport",
    "specialness_report",
]

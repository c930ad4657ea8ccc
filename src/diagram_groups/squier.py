"""The class complex of a base word and its hyperplanes.

The words congruent to a base word form the vertices of a cube complex: edges
are elementary rewrites, and ``n`` rewrites applicable at pairwise-disjoint
intervals of a word span an ``n``-cube.  A *hyperplane* is what a single
relation application looks like from far away: two edges ``(a, u -> v, b)``
and ``(c, u -> v, d)`` are dual to the same hyperplane exactly when they use
the same relation and ``a = c``, ``b = d`` modulo the presentation.  An edge
crossed in either direction has one hyperplane, so a :class:`HyperplaneId`
carries no orientation.

This module builds bounded balls of that complex and reads their
hyperplane structure: ``crossing_order`` decides, for every pair of the
ball's hyperplanes, whether they cross and in which left/right order (the
order ≺), and ranks each one by the longest chain of crossings strictly
below it.  The ranks grade the embedding of the diagram group into a
product of trees that ``farley`` checks.  The pathologies that decide
whether the complex is clean and special are searched for by ``special``,
which reads the balls built here; only the ``special`` command loads it.

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
factors hold their ball, presents groups; the ranks (``rank-table`` reads
``ball.order`` itself, ``embed-check`` through ``farley.rank_partition``),
the RAAG of the crossing graph and the left hyperplanes read the rest.  The
order is one table over catalog positions that holds ≺, the ranks with
``ranks_exact``, the crossing pairs and the odd-cycle check of the crossing
graph; ``relate`` and ``rank`` only look a cataloged hyperplane up in
``ball.order``.  An edge, in or out of the ball, learns its hyperplane
through ``ball.hyperplane_index``, the one map from edges to catalog
positions.

The ball's cubes come from ``disjoint_cubes``, over tables of the moves
out of each vertex, and the ball keeps them as ``cubes`` (``(dim, cubes)``
pairs of ascending dimension), whose dimension-2 entry is ``squares``.
Farley's complex of reduced diagrams, which covers this one, only counts its
cubes (``farley.FarleyBall.cube_counts``).
"""

from __future__ import annotations

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
    Move,
    Presentation,
    Word,
    dimension_at_least,
    format_word,
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
        if not d.is_spherical:
            raise ValueError("only loops have a class in the fundamental group")
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


def _extensions(
    search: ClassSearch, base: Word, middle: Word, head: Optional[Word] = None
) -> Tuple[Tuple[Word, Word], ...]:
    """Every ``t`` such that a member of ``[base]`` found by ``search.enum``
    reads ``h·middle·t``, where ``h`` is ``base`` itself, or, when ``head``
    is given, any member found in ``[head]``; each ``t`` once, with the
    first member that gives it, whose derivation
    ``search.enum(base).derivation`` gives.

    This is the one candidate search behind the ≺ search's equation
    ``left2 = left1·u·y`` and the equations ``base = base·middle·t`` of
    the pathology searches of ``special``.
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




def __getattr__(name: str) -> object:
    """``specialness_report``, ``find_absorbing_splits`` and
    ``find_self_intersections`` of ``special``, read as attributes of this
    module.

    The package imports them from ``special``.  This hook exists only
    because the per-layer benchmark tracer (``perfbench/tracer.py``) looks
    them up on ``squier`` by name; it loads ``special`` on the first such
    lookup, never when this module loads, and can go once the tracer names
    ``special``.
    """
    if name in ("specialness_report", "find_absorbing_splits", "find_self_intersections"):
        from . import special

        return getattr(special, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
]

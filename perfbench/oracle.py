"""Reference computations for checking ``diagram_groups`` output.

Nothing here imports the package: every quantity is recomputed from the
presentation text by plain breadth-first search and counting, so a fault in
the package cannot hide behind the same fault in its checker.

* :class:`ClassComplex` is the Squier complex of a finite class: vertices,
  edges, cubes, hyperplanes as square-parallelism classes of edges, the
  crossing order read off each square's left/right order, ranks as longest
  order paths, and the Euler characteristic.
* :func:`raag_ball_sizes` gives ball sizes of the right-angled Artin group of
  a graph from its clique polynomial.
* :func:`equal` is a bidirectional BFS deciding equality of two words modulo
  a presentation within explicit bounds; it re-verifies witness equations.
"""

from collections import deque
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

Word = Tuple[str, ...]
Relation = Tuple[Word, Word]
EdgeKey = Tuple[Word, int, Word]  # (prefix, relation index, suffix)


def word(text: str) -> Word:
    """Whitespace-separated letters; ``1`` or the empty string is the empty word."""
    text = text.strip()
    return () if text in ("", "1") else tuple(text.split())


def parse_presentation(text: str) -> List[Relation]:
    """Relations of a ``letters:`` / ``rel: u = v`` presentation file, in order."""
    rels: List[Relation] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("rel:"):
            lhs, _, rhs = line[len("rel:"):].partition("=")
            rels.append((word(lhs), word(rhs)))
    return rels


def occurrences(w: Word, rels: Sequence[Relation]) -> List[Tuple[int, int, int, Word]]:
    """Every (start, end, relation, replacement) rewriting one side of a
    relation inside ``w`` into the other side."""
    out = []
    n = len(w)
    for ri, (lhs, rhs) in enumerate(rels):
        for side, other in ((lhs, rhs), (rhs, lhs)):
            k = len(side)
            for s in range(n - k + 1):
                if w[s:s + k] == side:
                    out.append((s, s + k, ri, other))
    return out


def neighbours(w: Word, rels: Sequence[Relation]) -> Iterable[Word]:
    for s, e, _ri, other in occurrences(w, rels):
        yield w[:s] + other + w[e:]


def bfs_class(
    w: Word, rels: Sequence[Relation], max_len: int = 10**9, max_size: int = 10**9
) -> Tuple[Set[Word], bool]:
    """Words reachable from ``w``, pruned to length ``max_len`` and
    ``max_size`` words; the flag says whether nothing was pruned."""
    seen = {w}
    queue = deque([w])
    complete = True
    while queue:
        for v in neighbours(queue.popleft(), rels):
            if v in seen:
                continue
            if len(v) > max_len or len(seen) >= max_size:
                complete = False
                continue
            seen.add(v)
            queue.append(v)
    return seen, complete


def equal(
    u: Word, v: Word, rels: Sequence[Relation], max_len: int = 24, max_size: int = 200_000
) -> Optional[bool]:
    """Bidirectional BFS: True if a derivation joins ``u`` and ``v`` within
    the bounds, False if one side's class was exhausted without meeting the
    other, None if the bounds ran out first."""
    if u == v:
        return True
    sides = [({u}, deque([u])), ({v}, deque([v]))]
    pruned = [False, False]
    while sides[0][1] and sides[1][1]:
        i = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
        seen, queue = sides[i]
        other = sides[1 - i][0]
        for _ in range(len(queue)):
            for x in neighbours(queue.popleft(), rels):
                if x in other:
                    return True
                if x in seen:
                    continue
                if len(x) > max_len or len(seen) + len(other) >= max_size:
                    pruned[i] = True
                    continue
                seen.add(x)
                queue.append(x)
    for i in (0, 1):
        if not sides[i][1] and not pruned[i]:
            return False
    return None


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[EdgeKey, EdgeKey] = {}

    def find(self, x: EdgeKey) -> EdgeKey:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: EdgeKey, y: EdgeKey) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


class ClassComplex:
    """The Squier complex of the finite class of ``base``.

    Raises ValueError when the class is larger than ``max_size`` words, so a
    caller never mistakes a truncated complex for the whole one.
    """

    def __init__(self, base: Word, rels: Sequence[Relation], max_size: int = 20_000) -> None:
        self.rels = list(rels)
        self.vertices, complete = bfs_class(base, rels, max_size=max_size)
        if not complete:
            raise ValueError(f"class of {' '.join(base)} exceeds {max_size} words")
        uf = _UnionFind()
        edges: Set[EdgeKey] = set()
        cubes: Dict[int, Set[tuple]] = {}
        squares: List[Tuple[EdgeKey, EdgeKey]] = []
        for v in self.vertices:
            occ = sorted(occurrences(v, rels))
            for s, e, ri, _ in occ:
                edges.add((v[:s], ri, v[e:]))
            for k in range(2, len(occ) + 1):
                found = False
                for combo in combinations(occ, k):
                    if any(combo[t][1] > combo[t + 1][0] for t in range(k - 1)):
                        continue
                    found = True
                    # a cube is its word with each rewritten slot blanked
                    key, pos = [], 0
                    for s, e, ri, _ in combo:
                        key += [v[pos:s], ri]
                        pos = e
                    key.append(v[pos:])
                    cubes.setdefault(k, set()).add(tuple(key))
                    if k == 2:
                        (s1, e1, r1, o1), (s2, e2, r2, o2) = combo
                        left = (v[:s1], r1, v[e1:])
                        right = (v[:s2], r2, v[e2:])
                        uf.union(left, (v[:s1], r1, v[e1:s2] + o2 + v[e2:]))
                        uf.union(right, (v[:s1] + o1 + v[e1:s2], r2, v[e2:]))
                        squares.append((left, right))
                if not found:
                    break
        self.edges = edges
        self.cube_counts = {0: len(self.vertices), 1: len(edges)}
        self.cube_counts.update({k: len(c) for k, c in cubes.items()})
        self._uf = uf
        self.hyperplanes = {uf.find(e) for e in edges}
        self.below: Dict[EdgeKey, Set[EdgeKey]] = {h: set() for h in self.hyperplanes}
        for left, right in squares:
            self.below[uf.find(right)].add(uf.find(left))

    def hyperplane_of(self, left: Word, relation: int, right: Word) -> EdgeKey:
        """The hyperplane dual to the edge ``left · side · right``."""
        key = (left, relation, right)
        if key not in self.edges:
            raise KeyError(f"no edge {key} in the class")
        return self._uf.find(key)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in self.cube_counts.items())

    def rank(self, h: EdgeKey) -> int:
        """Length of the longest chain J_1 < ... < J_k < h of the crossing order."""
        memo: Dict[EdgeKey, int] = {}

        def depth(x: EdgeKey, stack: FrozenSet[EdgeKey]) -> int:
            if x in stack:
                raise ValueError("the crossing order has a cycle")
            if x not in memo:
                memo[x] = max((depth(y, stack | {x}) + 1 for y in self.below[x]), default=0)
            return memo[x]

        return depth(h, frozenset())


# ---------------------------------------------------------------------------
# right-angled Artin groups
# ---------------------------------------------------------------------------


def clique_counts(vertices: Sequence[str], edges: Iterable[Tuple[str, str]]) -> List[int]:
    """c_k = number of k-cliques (c_0 = 1 for the empty clique)."""
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    counts = [1]
    layer = [frozenset([v]) for v in vertices]
    while layer:
        counts.append(len(layer))
        nxt = set()
        for c in layer:
            for v in set.intersection(*(adj[x] for x in c)) - c:
                nxt.add(c | {v})
        layer = list(nxt)
    return counts


def raag_ball_sizes(
    vertices: Sequence[str], edges: Iterable[Tuple[str, str]], length: int
) -> List[int]:
    """|B(0)|, ..., |B(length)| in A(graph) for the standard generators.

    The spherical growth series is 1/p(-2t/(1+t)) with p the clique
    polynomial; clearing (1+t)^d, d the clique number, leaves the integer
    series (1+t)^d / sum_k c_k (-2t)^k (1+t)^(d-k).
    """
    c = clique_counts(vertices, edges)
    d = len(c) - 1
    n = length + 1

    def binom_row(m: int) -> List[int]:
        row = [1]
        for _ in range(m):
            row = [a + b for a, b in zip(row + [0], [0] + row)]
        return row

    num = (binom_row(d) + [0] * n)[:n]
    den = [0] * n
    for k, ck in enumerate(c):
        for i, b in enumerate(binom_row(d - k)):
            if k + i < n:
                den[k + i] += ck * (-2) ** k * b
    sphere = [0] * n
    for i in range(n):  # den[0] == 1
        sphere[i] = num[i] - sum(den[j] * sphere[i - j] for j in range(1, i + 1))
    balls, total = [], 0
    for s in sphere:
        total += s
        balls.append(total)
    return balls


def disjointness_edges(intervals: Sequence[Tuple[str, int, int]]) -> List[Tuple[str, str]]:
    """Pairs of closed integer intervals that do not meet."""
    return [
        (a, b)
        for (a, lo1, hi1), (b, lo2, hi2) in combinations(intervals, 2)
        if max(lo1, lo2) > min(hi1, hi2)
    ]

"""Presentations of semigroups and the elementary rewriting calculus on words.

A *presentation* ``P = <letters | relations>`` is a finite alphabet together
with finitely many defining relations ``u = v`` between nonempty words over
that alphabet.  Replacing one literal occurrence of ``u`` by ``v`` (or of
``v`` by ``u``) inside a word is an *elementary rewrite*; two words are
congruent modulo ``P`` when a finite chain of rewrites connects them, and
the congruence classes are the elements of the semigroup presented by ``P``.

The word problem for semigroup presentations is undecidable, so every search
in this module is bounded by explicit :class:`SearchCaps` and reports its
verdict as a :class:`TriBool`: ``yes`` with a replayable witness, ``no`` only
when the relevant search space was provably exhausted, and ``unknown``
exactly when some cap was hit first.

Both searches grow one kind of BFS frontier, whose expansion step is the
only code that applies the caps; an enumeration keeps the frontier's parent
map as its spanning tree.  A run asks its searches through one
:class:`ClassSearch`, which holds the presentation and the caps, answers
each closure and equality probe once per run, and keeps one neighbour
table: every frontier of the run reads a word's rewrites from it, so each
word is scanned once per run however many searches pass through it.  An
equality probe grows no side whose class the run has already enumerated:
it reads that enumeration and searches from the other word alone, which
gives the answer the bidirectional search would (see ``equal_mod_p``).

The module also provides a few cheap *certificates* that stay sound on
infinite congruence classes (letter-count invariants, first/last-letter
closures, the literal-subword rewritability test).  Later modules use them
to upgrade bounded searches to exact verdicts where the combinatorics allow.
The one such verdict that needs nothing else is kept here beside them:
``dimension_at_least``, whether the class complex of a word contains an
``n``-cube, read off factorizations of class members and refuted by letter
counts (``squier`` squeezes its ranks with it).
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

Letter = str
Word = Tuple[Letter, ...]

EMPTY_WORD: Word = ()

#: Display token for the empty word (also accepted on input).  Letter names
#: may not collide with it.
EMPTY_TOKEN = "1"

_FORBIDDEN_IN_LETTER = set("#=:")


class PresentationError(ValueError):
    """Raised for malformed presentations, relations, or word input."""


def word_of(text: str) -> Word:
    """Parse a whitespace-separated word; ``"1"`` or ``""`` is the empty word."""
    text = text.strip()
    if not text or text == EMPTY_TOKEN:
        return EMPTY_WORD
    return tuple(text.split())


def format_word(w: Sequence[Letter]) -> str:
    """Inverse of :func:`word_of` (the empty word prints as ``1``)."""
    return " ".join(w) if w else EMPTY_TOKEN


def _check_letter_name(name: Letter) -> None:
    if not name or name == EMPTY_TOKEN or any(c in _FORBIDDEN_IN_LETTER for c in name):
        raise PresentationError(f"illegal letter name {name!r}")


class Relation:
    """One defining relation ``lhs = rhs`` (both sides nonempty words)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Word, rhs: Word) -> None:
        if not lhs or not rhs:
            raise PresentationError("relation sides must be nonempty words")
        if lhs == rhs:
            raise PresentationError(
                f"trivial relation {format_word(lhs)} = {format_word(rhs)}"
            )
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    def sides(self, forward: bool) -> Tuple[Word, Word]:
        """The (source, target) pair: forward rewrites lhs into rhs."""
        return (self.lhs, self.rhs) if forward else (self.rhs, self.lhs)

    def __str__(self) -> str:
        return f"{format_word(self.lhs)} = {format_word(self.rhs)}"


class Presentation:
    """A finite semigroup presentation.

    Relations are stored in one orientation only; a relation equal to an
    earlier one (in either orientation) is rejected, as is ``u = u``.
    Letter order is significant: it fixes the shortlex order used for
    canonical representatives.

    Every rewrite scan reads the relation sides through one table built
    here: each letter maps to the ``(relation, forward, source, target)``
    sides whose source starts with it, in relation order, forward before
    backward.  :func:`one_step_rewrites` and :meth:`side_spans` read it,
    and the scan interns one :class:`Move` per site in ``_moves``.
    """

    __slots__ = ("letters", "relations", "_index", "_sides", "_moves")

    def __init__(
        self, letters: Tuple[Letter, ...], relations: Tuple[Relation, ...]
    ) -> None:
        if not letters:
            raise PresentationError("empty alphabet")
        for name in letters:
            _check_letter_name(name)
        if len(set(letters)) != len(letters):
            raise PresentationError("duplicate letters in alphabet")
        self.letters = letters
        self.relations = relations
        index = self._index = {x: i for i, x in enumerate(letters)}
        seen = set()
        for rel in relations:
            for x in rel.lhs + rel.rhs:
                if x not in index:
                    raise PresentationError(f"relation {rel} uses unknown letter {x!r}")
            key = frozenset((rel.lhs, rel.rhs))
            if key in seen:
                raise PresentationError(f"duplicate relation {rel} (up to orientation)")
            seen.add(key)
        sides: Dict[Letter, list] = {x: [] for x in letters}
        for i, rel in enumerate(relations):
            for forward in (True, False):
                src, dst = rel.sides(forward)
                sides[src[0]].append((i, forward, src, dst))
        self._sides: Dict[Letter, Tuple[Tuple[int, bool, Word, Word], ...]] = {
            x: tuple(v) for x, v in sides.items()
        }
        self._moves: Dict[Tuple[int, int, bool], Move] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.letters == other.letters and self.relations == other.relations

    def __hash__(self) -> int:
        return hash((self.letters, self.relations))

    def side_spans(self, w: Word) -> Iterator[Tuple[int, int]]:
        """``(start, end)`` of every literal occurrence of a relation side in
        ``w``, ordered by (start, relation, forward-before-backward).  Only
        the sides that start with ``w[start]`` are tried."""
        sides = self._sides
        for o, x in enumerate(w):
            for _, _, src, _ in sides.get(x, ()):
                if w[o : o + len(src)] == src:
                    yield o, o + len(src)

    def check_word(self, w: Word) -> Word:
        for x in w:
            if x not in self._index:
                raise PresentationError(f"word uses unknown letter {x!r}")
        return w

    def shortlex_key(self, w: Word) -> Tuple[int, Tuple[int, ...]]:
        """Sort key for the shortlex order induced by the alphabet order."""
        idx = self._index
        return (len(w), tuple(idx[x] for x in w))

    def __str__(self) -> str:
        rels = ", ".join(str(r) for r in self.relations)
        return f"< {' '.join(self.letters)} | {rels} >"


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    ``#`` starts a comment; blank lines are skipped.  Exactly one
    ``letters:`` line must precede any ``rel:`` line::

        letters: a b c
        rel: a b = b a     # sides are whitespace-separated letter names
    """
    letters: Optional[Tuple[Letter, ...]] = None
    relations: List[Relation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("letters:"):
            if letters is not None:
                raise PresentationError(f"line {lineno}: duplicate letters line")
            letters = tuple(line[len("letters:"):].split())
            if not letters:
                raise PresentationError(f"line {lineno}: empty letters line")
        elif line.startswith("rel:"):
            if letters is None:
                raise PresentationError(f"line {lineno}: rel before letters line")
            body = line[len("rel:"):]
            if body.count("=") != 1:
                raise PresentationError(f"line {lineno}: relation needs exactly one '='")
            left, right = body.split("=")
            try:
                relations.append(Relation(tuple(left.split()), tuple(right.split())))
            except PresentationError as exc:
                raise PresentationError(f"line {lineno}: {exc}") from None
        else:
            raise PresentationError(f"line {lineno}: expected 'letters:' or 'rel:'")
    if letters is None:
        raise PresentationError("no letters line")
    try:
        return Presentation(letters, tuple(relations))
    except PresentationError as exc:
        raise PresentationError(str(exc)) from None


class SearchCaps:
    """Bounds for class searches; any bound hit makes results inexact.

    ``max_word_len`` prunes words longer than the bound, ``max_class_size``
    bounds the number of distinct words explored per class, and
    ``max_bfs_depth`` bounds the number of rewrites from the seed.
    """

    __slots__ = ("max_word_len", "max_class_size", "max_bfs_depth")

    def __init__(
        self, max_word_len: int = 16, max_class_size: int = 1000, max_bfs_depth: int = 48
    ) -> None:
        if min(max_word_len, max_class_size, max_bfs_depth) < 1:
            raise ValueError("all caps must be positive")
        self.max_word_len = max_word_len
        self.max_class_size = max_class_size
        self.max_bfs_depth = max_bfs_depth

    def as_dict(self) -> Dict[str, int]:
        """The caps by name, in the order of the constructor's parameters."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchCaps):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(tuple(self.as_dict().values()))


class Move(NamedTuple):
    """One elementary rewrite site: apply relation ``relation`` at ``offset``.

    ``forward`` rewrites the stored lhs into the rhs; backward the reverse.
    The inverse of a move is the same site with the direction flipped.
    """

    offset: int
    relation: int
    forward: bool

    def inverted(self) -> "Move":
        return Move(self.offset, self.relation, not self.forward)

    def sides(self, pres: Presentation) -> Tuple[Word, Word]:
        return pres.relations[self.relation].sides(self.forward)

    def delta(self, pres: Presentation) -> int:
        src, dst = self.sides(pres)
        return len(dst) - len(src)

    def apply(self, w: Word, pres: Presentation) -> Word:
        src, dst = self.sides(pres)
        if w[self.offset : self.offset + len(src)] != src or self.offset < 0:
            raise ValueError(
                f"move {self} does not apply to {format_word(w)}"
            )
        return w[: self.offset] + dst + w[self.offset + len(src) :]

    def __str__(self) -> str:
        return f"({self.offset},{self.relation},{'fwd' if self.forward else 'bwd'})"


def one_step_rewrites(w: Word, pres: Presentation) -> Tuple[Tuple[Move, Word], ...]:
    """All single rewrites applicable to ``w``.

    Ordered by (offset, relation index, forward-before-backward); the result
    word of a move is always distinct from ``w`` because relation sides
    differ.
    """
    # the scan of Presentation.side_spans, written out: on this, the
    # hottest loop of every class search, a generator frame and a tuple per
    # hit cost time and raise peak memory
    out: List[Tuple[Move, Word]] = []
    sides, moves = pres._sides, pres._moves
    for o, x in enumerate(w):
        for i, forward, src, dst in sides.get(x, ()):
            if w[o : o + len(src)] == src:
                key = (o, i, forward)
                move = moves.get(key) or moves.setdefault(key, Move(o, i, forward))
                out.append((move, w[:o] + dst + w[o + len(src) :]))
    return tuple(out)


class Derivation:
    """A replayable chain of moves starting at ``start``."""

    __slots__ = ("start", "steps")

    def __init__(self, start: Word, steps: Tuple[Move, ...]) -> None:
        self.start = start
        self.steps = steps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.start == other.start and self.steps == other.steps

    def __hash__(self) -> int:
        return hash((self.start, self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self, pres: Presentation) -> Tuple[Word, ...]:
        """All intermediate words, ``start`` first; raises if a move misfires."""
        words = [self.start]
        for m in self.steps:
            words.append(m.apply(words[-1], pres))
        return tuple(words)

    def end(self, pres: Presentation) -> Word:
        return self.replay(pres)[-1]

    def inverted(self, pres: Presentation) -> "Derivation":
        return Derivation(self.end(pres), tuple(m.inverted() for m in reversed(self.steps)))


class ClassEnumeration:
    """Bounded BFS closure of a congruence class.

    ``complete`` is True exactly when the closure finished without
    suppressing any unvisited neighbour.  ``parent`` is the BFS spanning
    tree, kept as the search grew it: every member but the seed maps to the
    member it was discovered from and the move that reached it, in discovery
    order, so any member's derivation from the seed can be replayed.
    ``members`` lists the seed and the tree's words shortlex-sorted, sorted
    on first read: a caller that only tests membership (``in``, ``len``)
    never sorts them.
    """

    __slots__ = ("seed", "complete", "parent", "_pres", "_members")

    def __init__(
        self,
        seed: Word,
        complete: bool,
        parent: Dict[Word, Tuple[Word, Move]],
        pres: Presentation,
    ) -> None:
        self.seed = seed
        self.complete = complete
        self.parent = parent
        self._pres = pres
        self._members: Optional[Tuple[Word, ...]] = None

    @property
    def members(self) -> Tuple[Word, ...]:
        if self._members is None:
            self._members = tuple(
                sorted((self.seed, *self.parent), key=self._pres.shortlex_key)
            )
        return self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassEnumeration):
            return NotImplemented
        return (self.seed, self.members, self.complete) == (
            other.seed, other.members, other.complete
        )

    def __hash__(self) -> int:
        return hash((self.seed, self.members, self.complete))

    @property
    def edges(self) -> Tuple[Tuple[Word, Move, Word], ...]:
        """The tree as (parent, move, child) triples in discovery order."""
        return tuple((p, m, c) for c, (p, m) in self.parent.items())

    def __contains__(self, w: Word) -> bool:
        return w in self.parent or w == self.seed

    def __len__(self) -> int:
        return len(self.parent) + 1

    def derivation(self, target: Word) -> Derivation:
        """Replayable derivation seed -> target along the BFS tree."""
        if target not in self:
            raise ValueError(f"{format_word(target)} was not enumerated")
        return Derivation(self.seed, _tree_steps(self.parent, self.seed, target))


def _tree_steps(
    parent: Dict[Word, Tuple[Word, Move]], seed: Word, target: Word
) -> Tuple[Move, ...]:
    """The moves from ``seed`` to ``target`` along a BFS tree."""
    steps: List[Move] = []
    while target != seed:
        target, move = parent[target]
        steps.append(move)
    return tuple(reversed(steps))


class _BfsSide:
    """One BFS frontier grown from ``seed``, the core of every class search:
    :func:`enumerate_class` expands one side until its queue is empty, and
    :func:`equal_mod_p` expands two sides toward each other, or one side
    toward a class the run has already enumerated.

    How far a side has grown never depends on what it is grown against:
    ``other`` only decides where :meth:`expand` stops.  So a side that
    empties its queue without meeting anything has visited exactly the
    words, in the same order and along the same tree, that
    :func:`enumerate_class` visits from its seed.
    """

    def __init__(self, seed: Word) -> None:
        self.seed = seed
        self.parent: Dict[Word, Tuple[Word, Move]] = {}
        self.queue: deque[Tuple[Word, int]] = deque([(seed, 0)])
        self.capped = False

    def expand(
        self,
        search: ClassSearch,
        other: Union["_BfsSide", ClassEnumeration, None] = None,
    ) -> Optional[Word]:
        """Pop the next frontier word and record its unvisited neighbours,
        read from the run's neighbour table :meth:`ClassSearch.rewrites`.

        This is the one place the caps are applied: a neighbour deeper than
        ``max_bfs_depth``, longer than ``max_word_len``, or past
        ``max_class_size`` visited words is suppressed, and the side is then
        capped.  Returns the first recorded word that ``other``, another
        side or a known enumeration, has already visited, if any, and stops
        there.
        """
        w, depth = self.queue.popleft()
        parent, seed, caps = self.parent, self.seed, search.caps
        rewrites = search._rewrites.get(w)
        if rewrites is None:
            rewrites = search.rewrites(w)
        if depth >= caps.max_bfs_depth:
            # every neighbour is one rewrite too deep: only a new one caps
            for _, nxt in rewrites:
                if nxt not in parent and nxt != seed:
                    self.capped = True
                    break
            return None
        depth += 1
        full = caps.max_class_size - 1
        queue = self.queue
        met = None if other is None else other.parent
        for move, nxt in rewrites:
            if nxt in parent or nxt == seed:
                continue
            if len(nxt) > caps.max_word_len or len(parent) >= full:
                self.capped = True
                continue
            parent[nxt] = (w, move)
            queue.append((nxt, depth))
            if met is not None and (nxt in met or nxt == other.seed):
                return nxt
        return None

    def enumeration(self, pres: Presentation) -> ClassEnumeration:
        return ClassEnumeration(self.seed, not self.capped, self.parent, pres)


def enumerate_class(search: ClassSearch, seed: Word) -> ClassEnumeration:
    """Breadth-first closure of ``[seed]`` under elementary rewrites, within
    the caps of ``search``; read it as :meth:`ClassSearch.enum`, which runs
    it once per word per run.

    The seed itself is always retained (even when longer than the word cap);
    a neighbour is pruned, and completeness lost, when it would exceed any
    cap.
    """
    search.pres.check_word(seed)
    side = _BfsSide(seed)
    while side.queue:
        side.expand(search)
    return side.enumeration(search.pres)


class TriBool:
    """Three-valued verdict with an attached witness.

    ``yes`` witnesses are replayable (typically a :class:`Derivation`),
    ``no`` witnesses document the exhausted search (typically a complete
    :class:`ClassEnumeration`) or a certificate, and ``unknown`` means a
    search cap was hit before either.
    """

    __slots__ = ("value", "witness")

    def __init__(self, value: str, witness: Any = None) -> None:
        if value not in ("yes", "no", "unknown"):
            raise ValueError(f"bad TriBool value {value!r}")
        self.value = value
        self.witness = witness

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriBool):
            return NotImplemented
        return self.value == other.value and self.witness == other.witness

    def __hash__(self) -> int:
        return hash((self.value, self.witness))

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"

    @property
    def is_no(self) -> bool:
        return self.value == "no"

    @property
    def is_unknown(self) -> bool:
        return self.value == "unknown"

    @staticmethod
    def yes(witness: Any = None) -> "TriBool":
        return TriBool("yes", witness)

    @staticmethod
    def no(witness: Any = None) -> "TriBool":
        return TriBool("no", witness)

    @staticmethod
    def unknown(witness: Any = None) -> "TriBool":
        return TriBool("unknown", witness)


def equal_mod_p(search: ClassSearch, w1: Word, w2: Word) -> TriBool:
    """Decide ``w1 = w2`` modulo the presentation, within the caps of
    ``search``; read it as :meth:`ClassSearch.equal`, which runs it once per
    pair per run.

    Bidirectional BFS from both words, with neighbours read as in
    :func:`enumerate_class`, always expanding the side with the shorter
    queue (the first on a tie).  ``yes`` carries a connecting
    :class:`Derivation` from ``w1`` to ``w2``; ``no`` carries the complete
    :class:`ClassEnumeration` that excludes the other word, the one
    :func:`enumerate_class` gives for its seed, and the run's
    :meth:`ClassSearch.enum` answers with it from then on; ``unknown``
    means both frontiers were capped before meeting.

    One side is not grown again when the run has already enumerated it.
    If ``enum(w1)``, else ``enum(w2)``, is known and lacks the other word,
    a complete known class answers ``no`` at once.  A capped one is the
    target of one frontier grown from the other word; if that frontier
    empties its queue without meeting it, it is exactly the other word's
    enumeration, is stored as such, and answers ``no`` when it was not
    capped and ``unknown`` when it was.  These are the bidirectional
    search's answers: its side from a word never grows past the word's
    enumeration, and here the two are disjoint, so that search can end
    only when a side exhausts, and the side from the known class can
    exhaust uncapped only if that class is complete.  When the classes do
    meet, the bidirectional search runs as if nothing were known, so each
    ``yes`` carries the same derivation however the run's memo was filled.
    """
    pres = search.pres
    pres.check_word(w1)
    pres.check_word(w2)
    if w1 == w2:
        return TriBool.yes(Derivation(w1, ()))
    memo = search._memo
    known, word = memo.get((enumerate_class, (w1,))), w2
    if known is None:
        known, word = memo.get((enumerate_class, (w2,))), w1
    if known is not None and word not in known:
        if known.complete:
            return TriBool.no(known)
        side = _BfsSide(word)
        while side.queue:
            if side.expand(search, known) is not None:
                break
        else:
            enum = memo.setdefault((enumerate_class, (word,)), side.enumeration(pres))
            return TriBool.no(enum) if enum.complete else TriBool.unknown()
    one, two = _BfsSide(w1), _BfsSide(w2)
    while True:
        n1, n2 = len(one.queue), len(two.queue)
        if n1 and (n1 <= n2 or not n2):
            side, other = one, two
        elif n2:
            side, other = two, one
        else:
            return TriBool.unknown()
        meet = side.expand(search, other)
        if meet is not None:
            there = _tree_steps(one.parent, w1, meet)
            back = _tree_steps(two.parent, w2, meet)
            return TriBool.yes(
                Derivation(w1, there + tuple(m.inverted() for m in reversed(back)))
            )
        if not side.queue and not side.capped:
            # this class is completely enumerated and the other seed is not in it
            key = (enumerate_class, (side.seed,))
            return TriBool.no(memo.setdefault(key, side.enumeration(pres)))


class ClassSearch:
    """The class searches of one run: one presentation, one set of caps.

    Every question asked of a class complex comes down to the same few
    searches over the same few part words, and their answers depend only on
    the presentation, the word and the caps.  A run builds one search and
    hands it to every consumer, so each answer is computed once per run
    and nothing is shared between runs.  Anything else built from those
    answers alone goes through :meth:`once` too: the Squier ball of each
    base word is built once per run that way.  Every search reads its
    neighbours from one table, :meth:`rewrites`, which scans a word the
    first time it is asked for.

    The enumerations and the equality probes share one memo.  A probe
    whose search exhausts a word's class without meeting the other word
    stores that frontier as the word's :meth:`enum`, since it is exactly
    what :func:`enumerate_class` would grow, and a probe from a word whose
    enumeration is known searches only from the other word (see
    :func:`equal_mod_p`).  So a ``no`` carries :meth:`enum`'s object, and
    a probe grows a class the run knows only to derive a ``yes``.
    """

    def __init__(self, pres: Presentation, caps: SearchCaps) -> None:
        self.pres = pres
        self.caps = caps
        self._memo: Dict[tuple, Any] = {}
        self._rewrites: Dict[Word, Tuple[Tuple[Move, Word], ...]] = {}

    def rewrites(self, w: Word) -> Tuple[Tuple[Move, Word], ...]:
        """:func:`one_step_rewrites` of ``w``, scanned on the first call
        (it depends on the word alone, not on the caps)."""
        found = self._rewrites.get(w)
        if found is None:
            found = self._rewrites[w] = one_step_rewrites(w, self.pres)
        return found

    def once(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(self, *args)``, computed on the first call with these
        arguments and remembered for the rest of the run."""
        key = (fn, args)
        memo = self._memo
        if key not in memo:
            memo[key] = fn(self, *args)
        return memo[key]

    def enum(self, w: Word) -> ClassEnumeration:
        """:func:`enumerate_class` of ``w``."""
        return self.once(enumerate_class, w)

    def equal(self, w1: Word, w2: Word) -> TriBool:
        """:func:`equal_mod_p` of ``w1`` and ``w2``."""
        return self.once(equal_mod_p, w1, w2)

    def rep(self, w: Word) -> Tuple[Word, bool]:
        """Shortlex-least member found in ``[w]``, and whether the class was
        enumerated completely (so that it is the least of all)."""
        enum = self.enum(w)
        return enum.members[0], enum.complete


# ---------------------------------------------------------------------------
# certificates that stay sound on infinite classes
# ---------------------------------------------------------------------------


def has_singleton_class(w: Word, pres: Presentation) -> bool:
    """Exact test for ``[w] == {w}``.

    A rewrite applies to ``w`` iff some relation side occurs literally in it,
    and an applicable rewrite always changes the word (relation sides
    differ), so the class is a singleton iff no side occurs.
    """
    return next(pres.side_spans(w), None) is None


# the largest alphabet whose letter subsets are all tested for invariance
_MAX_INVARIANT_ALPHABET = 16


def invariant_letter_subsets(pres: Presentation) -> Tuple[FrozenSet[Letter], ...]:
    """All nonempty ``S``-letter-count invariants of the congruence.

    ``S`` qualifies when every relation preserves the total number of
    letters from ``S``; the count is then constant on congruence classes.
    Exhaustive over all subsets of an alphabet of up to
    ``_MAX_INVARIANT_ALPHABET`` letters; beyond that only singletons, their
    complements and the full alphabet are tested (still sound, just fewer
    certificates).
    """
    letters = pres.letters
    n = len(letters)
    diffs: List[List[int]] = []
    for rel in pres.relations:
        d = [0] * n
        for x in rel.lhs:
            d[pres._index[x]] += 1
        for x in rel.rhs:
            d[pres._index[x]] -= 1
        diffs.append(d)
    found: List[FrozenSet[Letter]] = []
    if n <= _MAX_INVARIANT_ALPHABET:
        nrel = len(diffs)
        sums = [[0] * nrel]
        for mask in range(1, 1 << n):
            low = mask & -mask
            li = low.bit_length() - 1
            prev = sums[mask ^ low]
            cur = [prev[r] + diffs[r][li] for r in range(nrel)]
            sums.append(cur)
            if all(v == 0 for v in cur):
                found.append(
                    frozenset(letters[i] for i in range(n) if mask >> i & 1)
                )
    else:
        candidates = set()
        for x in letters:
            candidates.add(frozenset([x]))
            candidates.add(frozenset(letters) - {x})
        candidates.add(frozenset(letters))
        for cand in candidates:
            if all(
                sum(d[i] for i in range(n) if letters[i] in cand) == 0 for d in diffs
            ):
                found.append(cand)
    index = pres._index
    return tuple(
        sorted(found, key=lambda s: (len(s), sorted(index[x] for x in s)))
    )


def forced_support(pres: Presentation) -> FrozenSet[Letter]:
    """Letters allowed in any word that is "invisible" to all invariants.

    If ``a = a p`` modulo the presentation then every letter-count invariant
    of ``p`` is zero, so ``p`` can only use letters outside every invariant
    subset.  Returns that residual letter set.
    """
    covered: set = set()
    for s in invariant_letter_subsets(pres):
        covered |= s
    return frozenset(pres.letters) - covered


def end_letter_closure(pres: Presentation, w: Word, end: int) -> FrozenSet[Letter]:
    """Sound overapproximation of the letters at one end of the words of
    ``[w]``: the first letters for ``end = 0``, the last for ``end = -1``.

    Only a rewrite at that end can change the letter there, and then only to
    the letter at that end of the replacing relation side; iterate to
    closure.
    """
    if not w:
        raise ValueError("empty word has no first or last letter")
    reach = {w[end]}
    changed = True
    while changed:
        changed = False
        for rel in pres.relations:
            for forward in (True, False):
                src, dst = rel.sides(forward)
                if src[end] in reach and dst[end] not in reach:
                    reach.add(dst[end])
                    changed = True
    return frozenset(reach)


def letter_count(w: Word, subset: FrozenSet[Letter]) -> int:
    return sum(1 for x in w if x in subset)


# ---------------------------------------------------------------------------
# cube dimension: factorizations of members, refuted by letter counts
# ---------------------------------------------------------------------------


class DimensionWitness(NamedTuple):
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
    occ = list(pres.side_spans(w))
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


def dimension_at_least(search: ClassSearch, w: Word, n: int) -> TriBool:
    """Does the class complex of ``w`` contain an ``n``-cube?

    Yes iff some member of ``[w]`` factors into ``n`` nonempty parts each
    with a nontrivial class.  Letter-count certificates refute impossible
    ``n`` even when the class is infinite.
    """
    if n <= 0:
        return TriBool.yes(DimensionWitness(w, ()))
    pres = search.pres
    if not pres.relations:
        return TriBool.no("the presentation has no relations, so no factor is rewritable")
    sides = [s for rel in pres.relations for s in (rel.lhs, rel.rhs)]
    for s in invariant_letter_subsets(pres):
        m = min(letter_count(side, s) for side in sides)
        if n * m > letter_count(w, s):
            return TriBool.no(
                f"letter-count invariant {sorted(s)}: {n} factors need at least "
                f"{n * m} such letters, the class carries {letter_count(w, s)}"
            )
    enum = search.enum(w)
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
            if len(witness.factors()) != n:
                raise RuntimeError(f"dimension witness does not have {n} factors")
            return TriBool.yes(witness)
    if enum.complete:
        return TriBool.no("no member of the complete class factors")
    return TriBool.unknown()


__all__ = [
    "Letter",
    "Word",
    "EMPTY_WORD",
    "EMPTY_TOKEN",
    "PresentationError",
    "word_of",
    "format_word",
    "Relation",
    "Presentation",
    "parse_presentation",
    "SearchCaps",
    "Move",
    "one_step_rewrites",
    "Derivation",
    "ClassEnumeration",
    "enumerate_class",
    "TriBool",
    "equal_mod_p",
    "ClassSearch",
    "has_singleton_class",
    "invariant_letter_subsets",
    "forced_support",
    "end_letter_closure",
    "letter_count",
    "DimensionWitness",
    "dimension_at_least",
]

"""Derivation diagrams over a semigroup presentation and their algebra.

A derivation (a word and a chain of moves) is drawn as a planar diagram: a
horizontal source path spelling the start word, one two-cell per move, and a
sink path spelling the end word.  Two derivations draw the same diagram
exactly when they differ by swapping consecutive moves that act on disjoint
intervals, so a :class:`Diagram` here is a move sequence *up to* such swaps.

The algebra:

* ``compose`` stacks diagrams vertically (bottom of one = top of the next),
* ``dsum`` places them side by side,
* ``inverse`` flips a diagram upside down,
* :class:`Wires` names every letter occurrence a cell produces by the
  cell itself, so that a diagram's bottom word, as a tuple of wire ids, is
  its identity,
* ``canonical_key`` computes a layered normal form that is invariant under
  independent swaps, giving a hashable identity for the trace class that
  does not depend on a table.  It fires the diagram's cells through a
  :class:`Wires` table and layers them with ``layered_key``.
* ``Wires.extend_reduced`` multiplies a reduced diagram by one atom,
  cancelling the cell that produced the wires the atom consumes or firing
  one.  It is the one place that decides a dipole (a cell immediately
  undone by its mirror, possibly across independent cells):
  ``farley.farley_ball`` takes one step per edge of the complex of
  reduced diagrams, and ``cayley_ball``, for ``farley.property_b_scan``
  and ``interval.diagram_ball_sizes``, takes one step per generator cell
  only the first time a generator meets the wires under its window, and
  looks the product up afterwards,
* ``reduce_diagram`` folds that step over a diagram's moves; the reduced
  form of a diagram is unique, because cancelling dipoles is confluent.

Spherical diagrams with a fixed base word form a group under composition
once dipoles are cancelled; that group is the object of study everywhere
else in this package.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .rewriting import (
    Derivation,
    Move,
    Presentation,
    Word,
    format_word,
    word_of,
)


class Diagram:
    """A replayable move sequence considered up to independent swaps.

    Equality is equality of the *representative* sequence; use
    :func:`canonical_key` for trace-class identity.
    """

    __slots__ = ("pres", "top", "moves", "_words")

    def __init__(self, pres: Presentation, top: Word, moves: Tuple[Move, ...]) -> None:
        pres.check_word(top)
        self.pres = pres
        self.top = top
        self.moves = moves
        self._words = Derivation(top, moves).replay(pres)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.pres, self.top, self.moves) == (other.pres, other.top, other.moves)

    def __hash__(self) -> int:
        return hash((self.pres, self.top, self.moves))

    @property
    def bot(self) -> Word:
        return self._words[-1]

    @property
    def cells(self) -> int:
        return len(self.moves)

    def words(self) -> Tuple[Word, ...]:
        """All intermediate words, top first, bottom last."""
        return self._words

    @property
    def is_spherical(self) -> bool:
        return self.top == self.bot

    def __mul__(self, other: "Diagram") -> "Diagram":
        return compose(self, other)

    def __add__(self, other: "Diagram") -> "Diagram":
        return dsum(self, other)

    def __str__(self) -> str:
        return f"[{format_word(self.top)} | {len(self.moves)} cells | {format_word(self.bot)}]"


def eps(pres: Presentation, w: Word) -> Diagram:
    """The edgeless diagram on ``w`` (identity for composition)."""
    return Diagram(pres, w, ())


def from_derivation(derivation: Derivation, pres: Presentation) -> Diagram:
    return Diagram(pres, derivation.start, derivation.steps)


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Vertical stacking; requires ``d1.bot == d2.top`` letter for letter."""
    if d1.pres != d2.pres:
        raise ValueError("diagrams over different presentations")
    if d1.bot != d2.top:
        raise ValueError(
            f"cannot compose: {format_word(d1.bot)} != {format_word(d2.top)}"
        )
    return Diagram(d1.pres, d1.top, d1.moves + d2.moves)


def dsum(d1: Diagram, d2: Diagram) -> Diagram:
    """Horizontal sum: ``d1`` acts on the left block, then ``d2`` on the right."""
    if d1.pres != d2.pres:
        raise ValueError("diagrams over different presentations")
    shift = len(d1.bot)
    shifted = tuple(Move(m.offset + shift, m.relation, m.forward) for m in d2.moves)
    return Diagram(d1.pres, d1.top + d2.top, d1.moves + shifted)


def inverse(d: Diagram) -> Diagram:
    """Upside-down flip: same cells, reversed order, directions flipped.

    The inverse of a move transforming ``W_i`` into ``W_{i+1}`` is the move
    at the same offset with the opposite direction.
    """
    return Diagram(
        d.pres, d.bot, tuple(m.inverted() for m in reversed(d.moves))
    )


class CanonicalKey(NamedTuple):
    """Layered normal form of a diagram's trace class.

    ``layers[k]`` holds (offset, relation, forward) triples in ascending
    offset order; offsets are in the coordinates of the word at the start of
    that layer, and every move sits in the earliest layer it cannot be
    commuted below.  Two diagrams get equal keys iff they differ by
    independent swaps.
    """

    top: Word
    layers: Tuple[Tuple[Tuple[int, int, bool], ...], ...]

    @property
    def cells(self) -> int:
        return sum(len(layer) for layer in self.layers)


#: One cell of a diagram wired by letter occurrences: ``(relation, forward,
#: consumed wires, produced wires)``.  The top word's wires are
#: ``0 .. len(top) - 1``; every other wire is produced by exactly one cell.
WireCell = Tuple[int, bool, Tuple[int, ...], Tuple[int, ...]]


class Wires:
    """Canonical wire ids for the diagrams on one top word.

    The table hash-conses cells.  The top word's wires are ``0 .. n-1``; a
    cell is named by ``(relation, forward, consumed wires)``, and the first
    firing of a name gives its produced wires fresh ids, which every later
    firing of that name, in any diagram, gets back.  ``producer[wire]`` is
    the cell that produced ``wire`` (``None`` on the top word).

    A wire's id therefore depends only on the cells above it, not on the
    order they fired in, and two orderings of one diagram end on one bottom
    tuple.  Conversely the bottom tuple determines the diagram: relation
    sides are never empty, so every cell produces a wire, and each produced
    wire lies on the bottom or feeds a later cell; every cell is thus an
    ancestor of a bottom wire, and ``producer`` recovers them all.  Fresh
    ids exceed every id that exists, so a wire never returns to the bottom
    once consumed, and a diagram never fires one name twice.  Hence **two
    reduced diagrams on one top word are equal iff their bottom tuples are
    equal**, and a ball of reduced diagrams is keyed by bottom tuples.
    """

    def __init__(self, pres: Presentation, top: Word) -> None:
        self.top: Tuple[int, ...] = tuple(range(len(top)))
        self.producer: List[Optional[WireCell]] = [None] * len(top)
        self._named: Dict[Tuple[int, bool, Tuple[int, ...]], WireCell] = {}
        # (relation, forward) -> (source length, target length) of a move
        self.lengths: Dict[Tuple[int, bool], Tuple[int, int]] = {}
        for r, rel in enumerate(pres.relations):
            self.lengths[r, True] = (len(rel.lhs), len(rel.rhs))
            self.lengths[r, False] = (len(rel.rhs), len(rel.lhs))

    def fire(self, bottom: Tuple[int, ...], move: Move) -> Tuple[Tuple[int, ...], WireCell]:
        """The bottom after one more cell, and that cell, named canonically."""
        o, relation, forward = move
        consumed, produced = self.lengths[relation, forward]
        end = o + consumed
        name = (relation, forward, bottom[o:end])
        cell = self._named.get(name)
        if cell is None:
            fresh = len(self.producer)
            cell = name + (tuple(range(fresh, fresh + produced)),)
            self._named[name] = cell
            self.producer.extend([cell] * produced)
        return bottom[:o] + cell[3] + bottom[end:], cell

    def extend_reduced(
        self, bottom: Tuple[int, ...], move: Move
    ) -> Tuple[Tuple[int, ...], WireCell, bool]:
        """The reduced product of a reduced diagram and the atom of ``move``.

        The atom can only form a dipole with a cell exposed on the bottom
        boundary (the dipole normal form of Guba and Sapir): the one that
        produced exactly the wires the atom consumes, by the same relation
        in the other direction.  ``producer`` names the only candidate.  The
        step cancels that cell or else fires one; it returns the new bottom,
        the cell cancelled or fired, and whether it cancelled.  Every ball
        of reduced diagrams and :func:`reduce_diagram` reduce through it.
        """
        o, relation, forward = move
        end = o + self.lengths[relation, forward][0]
        consumed = bottom[o:end]
        cell = self.producer[consumed[0]]
        if (
            cell is not None
            and cell[3] == consumed
            and cell[0] == relation
            and cell[1] != forward
        ):
            return bottom[:o] + cell[2] + bottom[end:], cell, True
        bottom, cell = self.fire(bottom, move)
        return bottom, cell, False

    def cells(self, bottom: Tuple[int, ...]) -> List[WireCell]:
        """The cells of the diagram that ends on ``bottom``, in a firing order.

        A cell's first produced id exceeds every wire it consumes, so
        ascending first produced ids fire each cell after those feeding it.
        """
        found: Dict[int, WireCell] = {}
        todo = list(bottom)
        while todo:
            cell = self.producer[todo.pop()]
            if cell is not None and cell[3][0] not in found:
                found[cell[3][0]] = cell
                todo.extend(cell[2])
        return [found[k] for k in sorted(found)]


def _reduced_cells(d: Diagram) -> List[WireCell]:
    """The cells of the reduced form of ``d``, in firing order."""
    wires = Wires(d.pres, d.top)
    bottom = wires.top
    cells: List[WireCell] = []
    for move in d.moves:
        bottom, cell, cancelled = wires.extend_reduced(bottom, move)
        if cancelled:
            cells.remove(cell)
        else:
            cells.append(cell)
    return cells


def _moves_of(top: Word, cells: Sequence[WireCell]) -> Tuple[Move, ...]:
    """The moves that fire ``cells`` in order on ``top``.

    A cell sits where its first consumed wire sits on the current bottom
    word; relation sides are never empty, so that wire exists.
    """
    bottom = list(range(len(top)))
    moves: List[Move] = []
    for relation, forward, consumed, produced in cells:
        o = bottom.index(consumed[0])
        bottom[o:o + len(consumed)] = produced
        moves.append(Move(o, relation, forward))
    return tuple(moves)


def reduce_diagram(d: Diagram) -> Diagram:
    """Cancel dipoles until none remain; the result is the unique reduced form.

    Folds :meth:`Wires.extend_reduced` over the moves of ``d``: each prefix
    stays reduced, and the cells that survive keep their order, so a
    reduced diagram comes back with the same moves.
    """
    return Diagram(d.pres, d.top, _moves_of(d.top, _reduced_cells(d)))


def is_reduced(d: Diagram) -> bool:
    """Whether ``d`` has no dipole: the fold of ``reduce_diagram`` cancels nothing."""
    return len(_reduced_cells(d)) == d.cells


def _window(
    moves: Sequence[Move], lengths: Dict[Tuple[int, bool], Tuple[int, int]], n: int
) -> Tuple[int, int, Tuple[Move, ...]]:
    """The positions ``[lo, hi)`` of a spherical generator's moves on a
    word of length ``n``, and the moves shifted by ``-lo``.

    ``lo`` is the least offset and ``n - hi`` the least right margin any
    move leaves, so no move reads outside the window; the generator is
    spherical, so the window has one length on the top and the bottom.
    """
    lo = min(m.offset for m in moves)
    margin = cur = n
    for o, relation, forward in moves:
        consumed, produced = lengths[relation, forward]
        margin = min(margin, cur - o - consumed)
        cur += produced - consumed
    return lo, n - margin, tuple(Move(o - lo, r, f) for o, r, f in moves)


def cayley_ball(
    pres: Presentation, w: Word, generators: Sequence[Tuple[Move, ...]], length: int
) -> Iterator[Tuple[int, int]]:
    """Breadth-first search of the group ball of word length ``length``.

    ``generators`` are spherical diagrams on ``w`` given by their moves.
    Yields ``(word length, cell count)`` for each new element, the identity
    first.  Elements are told apart by their bottom tuples in one
    :class:`Wires` table.

    A product rewrites only the window of the bottom that the generator's
    moves touch (:func:`_window`), and each generator keeps a table from a
    window's wire ids to their image and the change in cell count.  A miss
    folds :meth:`Wires.extend_reduced` over the shifted moves on the window
    alone; a hit is one slice, one lookup and one concatenation.  This is
    exact: a step reads only the wires it consumes, ``producer`` (written
    once, when a wire is created) and ``lengths``, and ``Wires`` hash-conses
    cell names, so a window's image, once computed, never changes, and a
    hit would have fired only cells that already have names and ids.  A
    generator with no moves fixes every element, and a window spanning the
    whole word never recurs, since each (element, generator) product is
    formed once, so neither is tabled.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    wires = Wires(pres, w)
    step = wires.extend_reduced
    n = len(w)
    plans = [_window(moves, wires.lengths, n) + ({},) for moves in generators if moves]
    seen = {wires.top}
    level = [(wires.top, 0)]
    yield 0, 0
    for depth in range(1, length + 1):
        grown: List[Tuple[Tuple[int, ...], int]] = []
        for bottom, cells in level:
            for lo, hi, moves, table in plans:
                window = bottom[lo:hi]
                hit = table.get(window)
                if hit is None:
                    image, delta = window, 0
                    for move in moves:
                        image, _, cancelled = step(image, move)
                        delta += -1 if cancelled else 1
                    hit = image, delta
                    if hi - lo < n:
                        table[window] = hit
                nb = bottom[:lo] + hit[0] + bottom[hi:]
                if nb not in seen:
                    seen.add(nb)
                    nc = cells + hit[1]
                    grown.append((nb, nc))
                    yield depth, nc
        level = grown


def layered_key(top: Word, cells: Sequence[WireCell]) -> CanonicalKey:
    """The layered normal form of the diagram that fires ``cells`` on ``top``.

    A cell's layer is the longest produce-consume chain feeding it, so it
    is the earliest round in which the cell can fire; firing the layers in
    order, leftmost cell first, replays the diagram and yields offsets in
    the coordinates where the docstring of :class:`CanonicalKey` puts them.
    ``cells`` must be in a firing order, as :meth:`Wires.cells` lists them.
    """
    depth: Dict[int, int] = {}
    rows: List[List[WireCell]] = []
    for cell in cells:
        layer = 0
        for w in cell[2]:
            k = depth.get(w, 0)
            if k > layer:
                layer = k
        if layer == len(rows):
            rows.append([])
        rows[layer].append(cell)
        for w in cell[3]:
            depth[w] = layer + 1
    packed: List[Tuple[Tuple[int, int, bool], ...]] = []
    state = list(range(len(top)))
    for row in rows:
        # cells of one layer consume disjoint wires, so positions are unique
        placed = sorted((state.index(cell[2][0]), cell) for cell in row)
        packed.append(tuple((pos, cell[0], cell[1]) for pos, cell in placed))
        for pos, (_, _, consumed, produced) in reversed(placed):
            if tuple(state[pos:pos + len(consumed)]) != consumed:
                raise RuntimeError("a cell does not consume the wires at its position")
            state[pos:pos + len(consumed)] = produced
    return CanonicalKey(top, tuple(packed))


def canonical_key(d: Diagram) -> CanonicalKey:
    """Compute the layered normal form (works on unreduced diagrams too)."""
    wires = Wires(d.pres, d.top)
    bottom = wires.top
    for m in d.moves:
        bottom, _ = wires.fire(bottom, m)
    return layered_key(d.top, wires.cells(bottom))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_diagram(d: Diagram) -> str:
    """Text form: the top word, then one ``offset relation fwd|bwd`` per line."""
    lines = [format_word(d.top)]
    for m in d.moves:
        lines.append(f"{m.offset} {m.relation} {'fwd' if m.forward else 'bwd'}")
    return "\n".join(lines) + "\n"


def parse_diagram(text: str, pres: Presentation) -> Diagram:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty diagram text")
    top = word_of(lines[0])
    moves = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[2] not in ("fwd", "bwd"):
            raise ValueError(f"bad move line {ln!r}")
        moves.append(Move(int(parts[0]), int(parts[1]), parts[2] == "fwd"))
    return Diagram(pres, top, tuple(moves))


__all__ = [
    "Diagram",
    "CanonicalKey",
    "eps",
    "from_derivation",
    "compose",
    "dsum",
    "inverse",
    "reduce_diagram",
    "is_reduced",
    "canonical_key",
    "layered_key",
    "Wires",
    "cayley_ball",
    "serialize_diagram",
    "parse_diagram",
]

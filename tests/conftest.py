"""Shared presentation corpus for the test suite.

Every presentation but ``SQUARES`` is read from ``golden/<name>.pres``, the
file the golden CLI cases read, so the two cannot drift apart.  Each is
chosen for a specific behaviour:

* ``COMM``    — three pairwise-commuting letters; every class is the finite
  set of multiset permutations, so everything about it is exactly checkable.
* ``CYC3``    — three letters identified in a cycle; classes are all words of
  a fixed length, so class sizes grow as 3^n.
* ``PADPAIR`` — two identified triples (a1,a2,a3) and (b1,b2,b3) plus a
  padding letter p absorbed on the right of a's and the left of b's;
  the class of ``a1 b1`` is the infinite family ``a_i p^n b_j``.
* ``HALFPAD`` — the two absorption rules only; minimal infinite classes.
* ``DIRTY``   — ``a`` absorbs ``p`` on the right, ``b`` on the left, and
  ``p = q`` makes the absorbed letter's class nontrivial; the base word
  ``a b`` then carries a self-intersecting hyperplane.
* ``OSC_EMPTY`` — overlapping occurrences of ``k k`` inside ``x k k k y``
  are dual to one hyperplane (periodic side, empty leftover).
* ``OSC_PLAIN`` — same phenomenon for ``k h k`` inside ``x k h k h k y``
  with a nonempty leftover part.
* ``GROW``    — ``x`` absorbs an ``a`` whose class contains all of a, b, c;
  the class of ``x`` contains ``x`` followed by arbitrary words, so its
  complex has cubes of every dimension.
* ``INTEROSC`` — the sides ``u v`` and ``v w`` overlap inside
  ``c u v w d`` while ``c u`` absorbs ``v`` on the right and ``w d`` on the
  left; the two hyperplanes cross elsewhere, so they inter-osculate.
* ``SQUARES`` — ``k k = t``, the smallest length-changing relation: moves
  that swap shift each other's offsets.

``swap_orbit`` is the oracle for trace-class identity: every move sequence
reached by swapping adjacent independent moves.  ``reference_reduce`` is
the bubble-and-swap dipole reduction that
``diagrams.reduce_diagram`` replaced.  It stays here as the independent
reference for every reduction the package does with ``Wires.extend_reduced``.
"""

from pathlib import Path
from typing import List, Optional, Tuple

from diagram_groups.diagrams import Diagram
from diagram_groups.rewriting import (
    Move,
    Presentation,
    SearchCaps,
    one_step_rewrites,
    parse_presentation,
    word_of,
)

_PRES_DIR = Path(__file__).parent / "golden"


def _corpus(name: str) -> Presentation:
    """The presentation of ``golden/<name>.pres``."""
    return parse_presentation((_PRES_DIR / f"{name}.pres").read_text())


COMM = _corpus("comm")
CYC3 = _corpus("cyc3")
PADPAIR = _corpus("padpair")
HALFPAD = _corpus("halfpad")
DIRTY = _corpus("dirty")
OSC_EMPTY = _corpus("osc_empty")
OSC_PLAIN = _corpus("osc_plain")
GROW = _corpus("grow")
INTEROSC = _corpus("interosc")
SQUARES = parse_presentation("letters: k t\nrel: k k = t")

DEFAULT_CAPS = SearchCaps()
SMALL_CAPS = SearchCaps(max_word_len=6, max_class_size=50, max_bfs_depth=20)
PADPAIR_CAPS = SearchCaps(max_word_len=10, max_class_size=500, max_bfs_depth=48)
# classes that absorb letters (a = ap and friends) blow up fast; keep the
# searches snappy and honestly non-exhaustive
TIGHT_CAPS = SearchCaps(max_word_len=8, max_class_size=120, max_bfs_depth=24)

W = word_of


def swap_adjacent(m1: Move, m2: Move, pres: Presentation) -> Optional[Tuple[Move, Move]]:
    """Swap consecutive moves ``m1`` then ``m2`` when they are independent.

    ``m2`` (acting on the word produced by ``m1``) is independent of ``m1``
    iff its source interval is disjoint from ``m1``'s output block; the
    returned pair applies ``m2`` first, with offsets transported through the
    length change of the other move.  Returns ``None`` when they interfere.
    """
    src1, dst1 = m1.sides(pres)
    src2, dst2 = m2.sides(pres)
    d1 = len(dst1) - len(src1)
    d2 = len(dst2) - len(src2)
    if m2.offset + len(src2) <= m1.offset:
        return m2, Move(m1.offset + d2, m1.relation, m1.forward)
    if m2.offset >= m1.offset + len(dst1):
        return Move(m2.offset - d1, m2.relation, m2.forward), m1
    return None


def _find_dipole(seq: Tuple[Move, ...], pres: Presentation) -> Optional[Tuple[Move, ...]]:
    """One dipole cancellation, or None if the sequence is reduced.

    For each move (earliest first) we bubble it backwards through
    independent predecessors; if it meets its own mirror (same offset, same
    relation, opposite direction) the pair annihilates and the moves it
    passed keep their transported offsets.
    """
    for j in range(1, len(seq)):
        t = seq[j]
        passed: List[Move] = []
        i = j - 1
        while i >= 0:
            prev = seq[i]
            if t == prev.inverted():
                return seq[:i] + tuple(passed) + seq[j + 1 :]
            swapped = swap_adjacent(prev, t, pres)
            if swapped is None:
                break
            t, prev_adj = swapped
            passed.insert(0, prev_adj)
            i -= 1
    return None


def reference_reduce(d: Diagram) -> Diagram:
    """Cancel dipoles one at a time by bubbling, until none remain."""
    seq = d.moves
    while True:
        nxt = _find_dipole(seq, d.pres)
        if nxt is None:
            return Diagram(d.pres, d.top, seq)
        seq = nxt


def swap_orbit(d: Diagram) -> set:
    """All representatives of d's trace class (oracle; use on short diagrams)."""
    seen = {d.moves}
    frontier = [d.moves]
    while frontier:
        new = []
        for seq in frontier:
            for i in range(len(seq) - 1):
                sw = swap_adjacent(seq[i], seq[i + 1], d.pres)
                if sw is not None:
                    cand = seq[:i] + sw + seq[i + 2 :]
                    if cand not in seen:
                        seen.add(cand)
                        new.append(cand)
        frontier = new
    return seen


def random_walk_diagram(pres, start, picks):
    """Deterministic pseudo-random derivation driven by a list of ints."""
    moves = []
    cur = start
    for k in picks:
        options = one_step_rewrites(cur, pres)
        if not options:
            break
        move, cur = options[k % len(options)]
        moves.append(move)
    return Diagram(pres, start, tuple(moves))

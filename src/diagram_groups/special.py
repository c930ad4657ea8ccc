"""The Haglund–Wise pathologies of a class complex, which decide whether
it is clean and special.

A hyperplane of the class complex (see ``squier``) *self-intersects* when
two edges of one square are dual to it, *self-osculates* when two edges
that meet at a vertex but span no square are, and two hyperplanes
*inter-osculate* when they cross and also have dual edges that meet at a
vertex without spanning a square.  The complex is clean when no
hyperplane self-intersects, and special when it is clean and has neither
osculation.  ``specialness_report`` searches for all three and decides
both.

Each pathology has two routes: a geometric scan of the ball's squares or
vertices (``scan_*``), and an equation search on the cataloged hyperplanes
or the class members (``find_*``), whose candidates come from
``squier._extensions``, the search the crossing order shares.  Self-crossings
also come from absorbing splits of class members
(``find_absorbing_splits``).  Letter-count certificates
(``refute_absorbing_splits``, ``refute_inter_osculations``) settle the
negative verdicts that stay sound on infinite classes.

A witness is a named tuple whose last field, ``evidence``, holds one
diagram, the derivation the searches return, run either way, per
equation it states, in that order:

* :class:`SelfIntersection` ``(a, p, q, b, c)``: a = a·p·b and c = b·p·c.
  An empty middle is printed as ``b = p``, and its evidence then derives
  a = a·p·p and c = p·p·c.  The witnesses of ``find_absorbing_splits`` run
  ``a → a·p·b`` and ``c → b·p·c``.
* :class:`SelfOsculation` ``(n, a, k, h, p, b)``: a = a·k·h and b = h·k·b.
* :class:`InterOsculation` ``(a, u, v, w, b, p, q, xi)``: a·u = a·u·v·xi and
  w·b = xi·v·w·b.

Only the ``special`` command loads this module; the commands that read
the crossing order and its ranks compile none of it.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

from .rewriting import (
    ClassSearch,
    Diagram,
    Presentation,
    SearchCaps,
    TriBool,
    Word,
    end_letter_closure,
    forced_support,
    invariant_letter_subsets,
    inverse,
    letter_count,
)
from .squier import BallEdge, SquierBall, _extensions, build_ball

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
    evidence: Tuple[Diagram, ...] = ()


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
    evidence: Tuple[Diagram, ...] = ()


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
    evidence: Tuple[Diagram, ...] = ()


# -- self-intersections ------------------------------------------------------


def _probe_budget(caps: SearchCaps) -> int:
    """Total oracle probes a single witness search may spend.

    Searches over truncated classes multiply members, split points and
    candidate extensions; the budget keeps them answerable.  Running out
    clears the exhaustive flag, exactly like any other cap.
    """
    return caps.max_class_size * 4


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
                        first = _twice(first, hid.left, p, False)
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
                _twice(va.witness, a, p, False),
                _twice(vb.witness, c, p, True),
            )
        found.append(SelfIntersection(a, p, q, b, c, evidence=evidence))
    return tuple(found), definite


def _twice(d: Diagram, u: Word, x: Word, left: bool) -> Diagram:
    """From a derivation between ``u`` and ``u·x`` (``x·u`` when ``left``),
    run either way, the derivation ``u → u·x·x`` (``u → x·x·u``): its moves
    run ``u → u·x`` and then again on ``u·x``, shifted past ``x`` when ``x``
    grows on the left.  This proves an equation whose empty middle the
    witness prints as ``b = p``."""
    if d.top != u:
        d = inverse(d)
    shift = len(x) if left else 0
    again = tuple(m._replace(offset=m.offset + shift) for m in d.moves)
    return Diagram(d.pres, u, d.moves + again)


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
                if not p or not search.rewrites(p):  # [p] = {p}
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
    for move, _ in search.rewrites(p):
        sigma, tau = move.sides(search.pres)
        e, f = p[: move.offset], p[move.offset + len(sigma):]
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
    common target, co-terminal) rewrites crossing one oriented hyperplane.

    ``rewrites`` lists each ``(offset, relation, forward)`` once, in offset
    order, and ``combinations`` keeps that order, so two moves of one
    oriented relation have ``m1.offset < m2.offset``.  Each witness is found
    once: the relation and direction fix ``sigma``, ``(n, k, h)`` fixes
    ``delta = len(k h)`` and ``a`` the offset of ``m1``, so a witness names
    its vertex ``a sigma[:delta] sigma b`` and its pair of moves, and each
    vertex is scanned once.
    """
    pres, search = ball.pres, ball.search
    equal = search.equal
    found: List[SelfOsculation] = []
    definite = True
    for w in ball.vertices:
        for (m1, _), (m2, _) in itertools.combinations(search.rewrites(w), 2):
            if m1.relation != m2.relation or m1.forward != m2.forward:
                continue
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
            # the range keeps both outer parts a and b nonempty
            for o in range(1, len(member) - len(m)):
                if member[o: o + len(m)] != m:
                    continue
                a, b = member[:o], member[o + len(m):]
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

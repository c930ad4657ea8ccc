"""Oracle-first tests for the rewriting layer.

Expected values are hand-derived and frozen as literals.  For the commuting
presentation there is a genuinely independent oracle: the class of a word is
exactly the set of its multiset permutations (adjacent transpositions
generate all rearrangements), computable with itertools.
"""

import ast
import importlib
import inspect
import itertools
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagram_groups
import conftest
from conftest import COMM, CYC3, DIRTY, GROW, HALFPAD, PADPAIR, SMALL_CAPS, TIGHT_CAPS, W
from diagram_groups import rewriting
from diagram_groups.rewriting import (
    ClassEnumeration,
    ClassSearch,
    Diagram,
    Move,
    Presentation,
    PresentationError,
    Relation,
    SearchCaps,
    TriBool,
    enumerate_class,
    equal_mod_p,
    end_letter_closure,
    forced_support,
    format_word,
    invariant_letter_subsets,
    letter_count,
    one_step_rewrites,
    parse_presentation,
    word_of,
)

CAPS = SearchCaps(max_word_len=12, max_class_size=2000, max_bfs_depth=40)


def comm_class(word):
    """Independent oracle for COMM: all multiset permutations."""
    return set(itertools.permutations(word))


words3 = st.lists(st.sampled_from("abc"), min_size=0, max_size=6).map(tuple)


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_roundtrip():
    assert COMM.letters == ("a", "b", "c")
    assert len(COMM.relations) == 3
    assert COMM.relations[0] == Relation(("a", "b"), ("b", "a"))


def test_word_of_empty_forms():
    assert word_of("") == ()
    assert word_of("1") == ()
    assert format_word(()) == "1"
    assert word_of("a1 b1") == ("a1", "b1")


@pytest.mark.parametrize(
    "text",
    [
        "rel: a = b",  # rel before letters
        "letters: a\nletters: b",  # duplicate letters line
        "letters: a a",  # duplicate letter
        "letters: a b\nrel: a = a",  # trivial relation
        "letters: a b\nrel: a b = b a\nrel: b a = a b",  # duplicate orientation
        "letters: a b\nrel: a = ",  # empty side
        "letters: a b\nrel: a = b = a",  # two equals
        "letters: a\nrel: a = b",  # unknown letter
        "letters: a\nwat: a",  # unknown directive
        "",  # no letters at all
        "letters: 1 a",  # reserved name
    ],
)
def test_parse_rejects(text):
    with pytest.raises(PresentationError):
        parse_presentation(text)


def test_comments_and_blank_lines():
    p = parse_presentation("# intro\n\nletters: a b  # alphabet\nrel: a a = b # sq\n")
    assert p.letters == ("a", "b")
    assert p.relations == (Relation(("a", "a"), ("b",)),)


# ---------------------------------------------------------------------------
# one-step rewrites
# ---------------------------------------------------------------------------


def test_one_step_rewrites_frozen_aabc():
    # hand enumeration for a a b c over COMM: "a b" matches at offset 1,
    # "b c" at offset 2; no reversed side occurs.  Exactly two rewrites.
    got = one_step_rewrites(tuple("aabc"), COMM)
    assert got == (
        (Move(1, 0, True), tuple("abac")),
        (Move(2, 2, True), tuple("aacb")),
    )


def test_one_step_rewrites_empty_word():
    assert one_step_rewrites((), COMM) == ()


def test_one_step_rewrites_share_one_move_per_site():
    pres = parse_presentation("letters: a b c\nrel: a b = b a")
    # the site (1, a b -> b a) in two words
    move = one_step_rewrites(W("c a b"), pres)[0][0]
    again = one_step_rewrites(W("b a b a"), pres)[1][0]
    assert again is move
    built = Move(1, 0, True)
    assert built is not move and built == move and hash(built) == hash(move)


def move_key(move):
    """The listing order of rewrites: offset, relation, forward first."""
    return (move.offset, move.relation, 0 if move.forward else 1)


@given(words3)
def test_one_step_order_and_involution(w):
    rewrites = one_step_rewrites(w, COMM)
    keys = [move_key(m) for m, _ in rewrites]
    assert keys == sorted(keys)
    for move, result in rewrites:
        assert result != w
        assert move.inverted().apply(result, COMM) == w
        # the inverse move is itself listed among the result's rewrites
        assert (move.inverted(), w) in one_step_rewrites(result, COMM)


def reference_one_step_rewrites(w, pres):
    """The scan before the per-letter side table: every relation side at
    every offset."""
    out = []
    for o in range(len(w)):
        for i, rel in enumerate(pres.relations):
            for forward in (True, False):
                src, dst = rel.sides(forward)
                if w[o : o + len(src)] == src:
                    out.append((Move(o, i, forward), w[:o] + dst + w[o + len(src) :]))
    return tuple(out)


CORPUS = {
    name: value
    for name, value in vars(conftest).items()
    if isinstance(value, Presentation)
}


def _words(letters, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


def _spans(rewrites, pres):
    return [(m.offset, m.offset + len(m.sides(pres)[0])) for m, _ in rewrites]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_one_step_rewrites_match_reference_on_corpus(name):
    pres = CORPUS[name]
    rewritten = 0
    for w in _words(pres.letters, 4 if len(pres.letters) <= 5 else 3):
        got = one_step_rewrites(w, pres)
        assert got == reference_one_step_rewrites(w, pres), w
        rewritten += bool(got)
    assert rewritten


def _random_overlapping_presentation(rng):
    """Random relations over a b c that include a side which is a prefix of
    another; with three letters, sides sharing a first letter and
    overlapping occurrences are common too."""

    def word(lo, hi):
        return tuple(rng.choice("abc") for _ in range(rng.randint(lo, hi)))

    prefix = word(1, 2)
    sides = [prefix, prefix + word(1, 2)] + [word(1, 3) for _ in range(rng.randint(2, 4))]
    rng.shuffle(sides)
    rels, seen = [], set()
    for lhs in sides:
        rhs = word(1, 3)
        if lhs != rhs and frozenset((lhs, rhs)) not in seen:
            seen.add(frozenset((lhs, rhs)))
            rels.append(Relation(lhs, rhs))
    return Presentation(("a", "b", "c"), tuple(rels))


def test_one_step_rewrites_match_reference_on_random_presentations():
    shared = prefixed = overlapping = 0
    for seed in range(60):
        pres = _random_overlapping_presentation(random.Random(seed))
        sides = [s for rel in pres.relations for s in (rel.lhs, rel.rhs)]
        firsts = [s[0] for s in sides]
        shared += len(set(firsts)) < len(firsts)
        prefixed += any(s != t and t[: len(s)] == s for s in sides for t in sides)
        for w in _words("abc", 5):
            got = one_step_rewrites(w, pres)
            assert got == reference_one_step_rewrites(w, pres), (seed, w)
            spans = _spans(got, pres)
            overlapping += any(s1 < s2 < e1 for s1, e1 in spans for s2, _ in spans)
    assert shared and prefixed and overlapping


def test_move_apply_rejects_mismatch():
    with pytest.raises(ValueError):
        Move(0, 0, True).apply(tuple("ba"), COMM)


# ---------------------------------------------------------------------------
# class enumeration
# ---------------------------------------------------------------------------


def test_enumerate_class_abc_frozen():
    enum = enumerate_class(ClassSearch(COMM, CAPS), tuple("abc"))
    assert enum.complete
    assert enum.members == (
        tuple("abc"),
        tuple("acb"),
        tuple("bac"),
        tuple("bca"),
        tuple("cab"),
        tuple("cba"),
    )
    assert len(enum.parent) == 5  # spanning tree of 6 vertices
    for member in enum.members:
        d = enum.derivation(member)
        assert d.top == tuple("abc")
        assert d.bot == member


def test_enumerate_class_matches_permutation_oracle():
    for text in ["aabc", "abbcc", "aa", "abc", "b"]:
        enum = enumerate_class(ClassSearch(COMM, CAPS), tuple(text))
        assert enum.complete
        assert set(enum.members) == comm_class(tuple(text))


def test_enumerate_class_size_cap():
    enum = enumerate_class(ClassSearch(COMM, SearchCaps(max_class_size=3)), tuple("abc"))
    assert not enum.complete
    assert len(enum.members) <= 3


def test_enumerate_class_word_len_cap_frozen():
    pres = parse_presentation("letters: a p\nrel: a = a p")
    enum = enumerate_class(ClassSearch(pres, SearchCaps(max_word_len=5)), ("a",))
    assert not enum.complete
    assert enum.members == (
        ("a",),
        ("a", "p"),
        ("a", "p", "p"),
        ("a", "p", "p", "p"),
        ("a", "p", "p", "p", "p"),
    )


def test_enumerate_class_depth_cap():
    # [a a] over CYC3 is all nine length-2 words; only five are within one move
    enum = enumerate_class(ClassSearch(CYC3, SearchCaps(max_bfs_depth=1)), tuple("aa"))
    assert set(enum.members) == {tuple("aa"), tuple("ab"), tuple("ac"), tuple("ba"), tuple("ca")}
    assert not enum.complete


def test_enumerate_class_completes_exactly_at_depth():
    # [a] over CYC3 is {a, b, c}, all within one move: the depth cap is
    # touched but nothing new lies beyond it, so the closure is complete
    enum = enumerate_class(ClassSearch(CYC3, SearchCaps(max_bfs_depth=1)), ("a",))
    assert set(enum.members) == {("a",), ("b",), ("c",)}
    assert enum.complete


def test_cyc3_class_is_all_words_of_same_length():
    enum = enumerate_class(ClassSearch(CYC3, CAPS), tuple("ab"))
    assert enum.complete
    assert set(enum.members) == {
        (x, y) for x in "abc" for y in "abc"
    }


@given(words3.filter(lambda w: 0 < len(w) <= 4))
@settings(max_examples=40, deadline=None)
def test_member_set_is_seed_invariant(w):
    search = ClassSearch(COMM, CAPS)
    base = enumerate_class(search, w)
    assert base.complete
    for other in base.members:
        again = enumerate_class(search, other)
        assert again.members == base.members


# ---------------------------------------------------------------------------
# equality search
# ---------------------------------------------------------------------------


def test_equal_frozen_four_move_derivation():
    # minimum adjacent-swap count between aabc and caba is 4
    verdict = equal_mod_p(ClassSearch(COMM, CAPS), tuple("aabc"), tuple("caba"))
    assert verdict.is_yes
    d = verdict.witness
    assert isinstance(d, Diagram)
    assert d.cells == 4
    assert d.top == tuple("aabc")
    assert d.bot == tuple("caba")


def test_known_derivation_replays():
    # a fixed four-move path: aabc -> abac -> abca -> acba -> caba
    d = Diagram(
        COMM,
        tuple("aabc"),
        (Move(1, 0, True), Move(2, 1, True), Move(1, 2, True), Move(0, 1, True)),
    )
    assert [format_word(w) for w in d.words()] == [
        "a a b c",
        "a b a c",
        "a b c a",
        "a c b a",
        "c a b a",
    ]


def test_equal_same_word():
    verdict = equal_mod_p(ClassSearch(COMM, CAPS), tuple("ab"), tuple("ab"))
    assert verdict.is_yes and verdict.witness.cells == 0


def test_equal_no_with_complete_class_witness():
    verdict = equal_mod_p(ClassSearch(COMM, CAPS), tuple("aab"), tuple("abb"))
    assert verdict.is_no
    enum = verdict.witness
    assert isinstance(enum, ClassEnumeration)
    assert enum.complete
    assert len(enum) == 3


def test_equal_no_via_singleton_side():
    # [p] = {p} completes instantly even though [a] is infinite
    pres = parse_presentation("letters: a p\nrel: a = a p")
    verdict = equal_mod_p(ClassSearch(pres, SMALL_CAPS), ("a",), ("p",))
    assert verdict.is_no
    assert verdict.witness.members == (("p",),)


def test_equal_unknown_when_both_sides_capped():
    # [a b] and [b a] over HALFPAD are disjoint infinite classes; plain
    # search cannot prove it
    verdict = equal_mod_p(ClassSearch(HALFPAD, SMALL_CAPS), W("a b"), W("b a"))
    assert verdict.is_unknown


@given(words3.filter(lambda w: len(w) <= 5), words3.filter(lambda w: len(w) <= 5))
@settings(max_examples=60, deadline=None)
def test_equal_agrees_with_permutation_oracle(w1, w2):
    verdict = equal_mod_p(ClassSearch(COMM, CAPS), w1, w2)
    expected = sorted(w1) == sorted(w2)
    assert verdict.is_yes == expected
    assert not verdict.is_unknown  # finite classes, generous caps
    if verdict.is_yes:
        assert verdict.witness.bot == w2


# ---------------------------------------------------------------------------
# the run's class search
# ---------------------------------------------------------------------------


def test_class_search_rep():
    rep, exact = ClassSearch(COMM, CAPS).rep(tuple("cba"))
    assert rep == tuple("abc") and exact
    pres = parse_presentation("letters: a p\nrel: a = a p")
    rep, exact = ClassSearch(pres, SearchCaps(max_word_len=4)).rep(("a", "p"))
    assert rep == ("a",) and not exact


def test_class_search_enumerates_each_word_once(monkeypatch):
    calls = []

    def counted(search, seed):
        calls.append(seed)
        return enumerate_class(search, seed)

    monkeypatch.setattr(rewriting, "enumerate_class", counted)
    search = ClassSearch(COMM, CAPS)
    first = search.enum(W("b a"))
    assert search.enum(W("b a")) is first
    assert search.rep(W("b a")) == (W("a b"), True)
    assert calls == [W("b a")]
    search.enum(W("a b"))
    assert calls == [W("b a"), W("a b")]


def test_class_search_equal_matches_equal_mod_p():
    search = ClassSearch(COMM, CAPS)
    for w1, w2 in ((W("a b c"), W("c b a")), (W("a b"), W("a c")), (W("a"), W("a"))):
        assert search.equal(w1, w2) == equal_mod_p(ClassSearch(COMM, CAPS), w1, w2)
        assert search.equal(w1, w2) is search.equal(w1, w2)


@pytest.mark.parametrize("order", ["tight first", "loose first"])
def test_class_searches_do_not_share_answers(order):
    tight = ClassSearch(COMM, SearchCaps(max_class_size=2))
    loose = ClassSearch(COMM, CAPS)
    searches = [tight, loose] if order == "tight first" else [loose, tight]
    answers = {id(s): s.enum(W("a b c")).complete for s in searches}
    assert answers == {id(tight): False, id(loose): True}
    # nor neighbour tables: the capped search scanned the seed and the one
    # neighbour it kept, the other all six permutations
    assert set(tight._rewrites) == {W("a b c"), W("b a c")}
    assert set(loose._rewrites) == comm_class(W("a b c"))


def test_the_run_holds_each_word_once():
    """Every word a search scans or reaches is the one tuple of the run's
    word table, seeds included."""
    search = ClassSearch(GROW, TIGHT_CAPS)
    enum = search.enum(W("x"))
    assert not enum.complete
    probes = [(W("x"), W("x a")), (W("x b"), W("x c a")), (W("x a a"), W("b"))]
    assert [search.equal(w1, w2).value for w1, w2 in probes] == ["yes", "yes", "no"]
    table = search._words
    held = []
    for w, rewrites in search._rewrites.items():
        held.append(w)
        held += [v for _, v in rewrites]
    assert all(table[w] is w for w in held)
    assert len({id(w) for w in held}) == len(table)
    for w, (up, _) in enum.parent.items():
        assert table[w] is w
        assert table[up] is up


def test_a_seed_the_run_holds_is_the_runs_tuple():
    """A word built afresh by the caller, which the run already holds as
    another tuple, is replaced by the run's tuple before it keys the memo
    or seeds a search: no parent entry points at the caller's copy."""
    search = ClassSearch(GROW, TIGHT_CAPS)
    search.enum(W("x"))
    fresh = W("x a")
    held = search._words[fresh]
    assert held is not fresh
    enum = search.enum(fresh)
    assert enum.seed is held
    assert not any(up is fresh for up, _ in enum.parent.values())
    assert search.enum(W("x a")) is enum
    probe = W("x b")
    assert search._words[probe] is not probe
    assert search.equal(fresh, probe).is_yes
    (key,) = [args for fn, args in search._memo if fn is equal_mod_p]
    assert key[0] is held and key[1] is search._words[probe]


def test_no_verdict_carries_the_runs_enumeration():
    """A ``no`` is the enumeration of the exhausted seed, shared with
    ``enum`` whichever of the two asks first."""
    fresh = ClassSearch(COMM, CAPS)
    verdict = fresh.equal(W("a b"), W("a c"))
    assert verdict.is_no
    seed = verdict.witness.seed
    assert verdict.witness is fresh.enum(seed)
    again = enumerate_class(ClassSearch(COMM, CAPS), seed)
    assert verdict.witness.members == again.members
    assert verdict.witness.parent == again.parent
    enumerated = ClassSearch(COMM, CAPS)
    before = {w: enumerated.enum(w) for w in (W("a b"), W("a c"))}
    verdict = enumerated.equal(W("a b"), W("a c"))
    assert verdict.is_no and verdict.witness is before[verdict.witness.seed]


def test_no_module_caches_across_runs():
    """Search answers live in the run's ClassSearch; a module-level cache
    would carry them from one run, presentation or set of caps to the next."""
    names = [m.name for m in pkgutil.iter_modules(diagram_groups.__path__)]
    cached = []
    for name in names:
        tree = ast.parse(inspect.getsource(importlib.import_module(f"diagram_groups.{name}")))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                cached += [(name, a.name) for a in node.names if a.name in ("cache", "lru_cache")]
            if isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
                if isinstance(node.value, ast.Name) and node.value.id == "functools":
                    cached.append((name, node.attr))
    assert cached == []


def test_no_module_uses_dataclasses():
    """Records are named tuples or classes with written-out methods.  A
    dataclass generates and compiles its methods each time its module is
    imported, and ``dataclasses`` loads ``inspect`` with it, so every CLI
    call would pay for both at start-up."""
    package = Path(diagram_groups.__file__).parent
    found = [
        (path.name, n)
        for path in sorted(package.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "dataclass" in line
    ]
    assert found == []


def _cap_comparisons(node, qual=()):
    """(enclosing class/function path, cap) for every comparison that has a
    depth or word length cap as an operand."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            found += _cap_comparisons(child, qual + (child.name,))
            continue
        if isinstance(child, ast.Compare):
            for side in [child.left, *child.comparators]:
                if isinstance(side, ast.Attribute) and side.attr in ("max_bfs_depth", "max_word_len"):
                    found.append((".".join(qual), side.attr))
        found += _cap_comparisons(child, qual)
    return found


def test_only_the_frontier_step_applies_the_caps():
    """The BFS depth and word length caps are compared in one place, the
    frontier step both class searches grow; a second copy could drift."""
    found = []
    for info in pkgutil.iter_modules(diagram_groups.__path__):
        module = importlib.import_module(f"diagram_groups.{info.name}")
        found += [(info.name, *hit) for hit in _cap_comparisons(ast.parse(inspect.getsource(module)))]
    assert sorted(found) == [
        ("rewriting", "ClassEnumeration.expand", "max_bfs_depth"),
        ("rewriting", "ClassEnumeration.expand", "max_word_len"),
    ]


def _assert_no_witnesses_are_enumerations(pres, words, caps):
    """Every ``no`` witness of ``equal_mod_p`` is ``enumerate_class`` of its
    seed: same members, completeness and tree edges in the same order.
    Returns how many witnesses were seeded at the first and second word."""
    search = ClassSearch(pres, caps)
    seeded = [0, 0]
    for w in words:
        for x in words:
            verdict = equal_mod_p(search, w, x)
            if not verdict.is_no:
                continue
            witness = verdict.witness
            assert witness.seed in (w, x)
            seeded[witness.seed != w] += 1
            enum = enumerate_class(search, witness.seed)
            assert (witness.members, witness.complete) == (enum.members, enum.complete)
            assert list(witness.parent.items()) == list(enum.parent.items())
    return seeded


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_no_witness_is_the_enumeration_on_corpus(name):
    pres = CORPUS[name]
    words = [w for w in _words(pres.letters, 3 if len(pres.letters) <= 4 else 2) if w][:24]
    first, second = _assert_no_witnesses_are_enumerations(pres, words, SMALL_CAPS)
    assert first and second


def test_no_witness_is_the_enumeration_on_random_presentations():
    first = second = 0
    for seed in range(20):
        pres = _random_overlapping_presentation(random.Random(seed))
        words = [w for w in _words("abc", 3) if w][::3]
        f, s = _assert_no_witnesses_are_enumerations(pres, words, SMALL_CAPS)
        first, second = first + f, second + s
    assert first and second


def _warm(search, rng, words, pairs, mode):
    """Fill the run's memo before the checked probes: some classes
    enumerated, some of the pairs probed, or every pair probed reversed."""
    if mode == "enumerations first":
        for w in rng.sample(words, len(words) // 2):
            search.enum(w)
    elif mode == "earlier probes first":
        for w1, w2 in rng.sample(pairs, len(pairs) // 2):
            search.equal(w1, w2)
    else:
        for w1, w2 in rng.sample(pairs, len(pairs)):
            search.equal(w2, w1)


@pytest.mark.parametrize("caps", [SMALL_CAPS, TIGHT_CAPS], ids=["small", "tight"])
def test_probes_answer_as_a_fresh_search_however_the_memo_was_filled(caps):
    """A probe that reads a class the run already knows searches from one
    side only; its verdict, its ``yes`` derivation and its ``no`` witness
    must be those of a bidirectional search in a run that knows nothing."""
    rng = random.Random(24)
    words = [w for w in _words("abc", 3) if w]
    seen = {"yes": 0, "no": 0, "unknown": 0}
    read_known = {True: 0, False: 0}  # keyed by whether the known class is complete
    modes = ("enumerations first", "earlier probes first", "the pair reversed")
    for seed in range(12):
        pres = _random_overlapping_presentation(random.Random(seed))
        pairs = [(rng.choice(words), rng.choice(words)) for _ in range(24)]
        search = ClassSearch(pres, caps)
        _warm(search, rng, words, pairs, modes[seed % 3])
        for w1, w2 in rng.sample(pairs, len(pairs)):
            for w in (w1, w2):
                known = search._memo.get((enumerate_class, (w,)))
                if known is not None:
                    read_known[known.complete] += 1
                    break
            got = search.equal(w1, w2)
            fresh = equal_mod_p(ClassSearch(pres, caps), w1, w2)
            assert got.value == fresh.value, (seed, w1, w2)
            seen[got.value] += 1
            if got.is_yes:
                assert got.witness == fresh.witness
            if got.is_no:
                enum = enumerate_class(ClassSearch(pres, caps), got.witness.seed)
                assert got.witness.seed in (w1, w2) and got.witness.complete
                assert list(got.witness.parent.items()) == list(enum.parent.items())
    assert all(seen.values()) and all(read_known.values()), (seen, read_known)


def test_a_probe_from_an_exhausted_class_grows_it_no_more(monkeypatch):
    """The first probe exhausts ``[b c]`` (nine words, while ``[x]`` is
    infinite); the second reads that enumeration and pops none of them."""
    search = ClassSearch(GROW, SMALL_CAPS)
    c = W("b c")
    members = set(enumerate_class(ClassSearch(GROW, SMALL_CAPS), c).members)
    assert len(members) == 9
    assert search.equal(c, W("x")).is_no
    popped = []
    expand = rewriting.ClassEnumeration.expand

    def recording(side, *args):
        popped.append(side.queue[0][0])
        return expand(side, *args)

    monkeypatch.setattr(rewriting.ClassEnumeration, "expand", recording)
    assert search.equal(c, W("a")).is_no
    assert not members & set(popped)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_singleton_classes_are_the_words_without_rewrites():
    # a rewrite always changes the word (relation sides differ), so the
    # class is a singleton exactly when no relation side occurs
    for pres, w, singleton in (
        (COMM, ("a",), True),
        (COMM, (), True),
        (COMM, tuple("aabc"), False),
        (DIRTY, W("a b"), False),  # side "a" occurs
        (HALFPAD, ("p",), True),
    ):
        search = ClassSearch(pres, CAPS)
        assert (not search.rewrites(w)) == singleton
        assert (len(search.enum(w)) == 1) == singleton


def test_invariant_subsets_of_a_large_alphabet():
    """Past 16 letters only the singletons, their complements and the full
    alphabet are tried; the result is the invariant ones among them,
    ordered by size and then by their sorted letter positions."""
    letters = tuple(f"x{i}" for i in range(18))
    pres = Presentation(
        letters,
        (Relation(W("x0 x1"), W("x2")), Relation(W("x3"), W("x4"))),
    )

    def invariant(subset):
        return all(
            letter_count(rel.lhs, subset) == letter_count(rel.rhs, subset)
            for rel in pres.relations
        )

    everything = frozenset(letters)
    candidates = [frozenset([x]) for x in letters]
    candidates += [everything - {x} for x in letters] + [everything]
    found = invariant_letter_subsets(pres)
    assert all(invariant(s) for s in found)
    assert list(found) == sorted(
        filter(invariant, candidates),
        key=lambda s: (len(s), sorted(letters.index(x) for x in s)),
    )
    assert list(found) == [frozenset([f"x{i}"]) for i in range(5, 18)] + [
        everything - {"x1"},
        everything - {"x0"},
    ]


def test_invariant_subsets_comm():
    subsets = invariant_letter_subsets(COMM)
    assert len(subsets) == 7  # every nonempty subset of {a, b, c}
    assert frozenset("abc") in subsets


def test_invariant_subsets_padpair_frozen():
    subsets = invariant_letter_subsets(PADPAIR)
    a = frozenset({"a1", "a2", "a3"})
    b = frozenset({"b1", "b2", "b3"})
    assert set(subsets) == {a, b, a | b}
    assert forced_support(PADPAIR) == frozenset({"p"})


def test_forced_support_comm_empty():
    assert forced_support(COMM) == frozenset()


def test_letter_closures_padpair():
    assert end_letter_closure(PADPAIR, W("a1 b1"), 0) == frozenset({"a1", "a2", "a3"})
    assert end_letter_closure(PADPAIR, W("a1 b1"), -1) == frozenset({"b1", "b2", "b3"})


def test_letter_closures_halfpad():
    # b = p b makes p reachable as a first letter from b
    assert end_letter_closure(HALFPAD, W("b a"), 0) == frozenset({"b", "p"})
    assert end_letter_closure(HALFPAD, W("a b"), 0) == frozenset({"a"})


def test_tribool_validation():
    with pytest.raises(ValueError):
        TriBool("maybe")
    assert TriBool.yes(1).is_yes and TriBool.no().is_no and TriBool.unknown().is_unknown


def test_caps_validation():
    with pytest.raises(ValueError):
        SearchCaps(max_word_len=0)
    for caps in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 5, 5)]:
        with pytest.raises(ValueError):
            SearchCaps(*caps)


# ---------------------------------------------------------------------------
# what the records promise: validation, equality, length
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "lhs, rhs",
    [((), ("a",)), (("a",), ()), ((), ()), (("a", "b"), ("a", "b"))],
)
def test_relation_rejects_empty_and_trivial_sides(lhs, rhs):
    with pytest.raises(PresentationError):
        Relation(lhs, rhs)


def test_presentation_rejects_duplicate_letters():
    with pytest.raises(PresentationError):
        Presentation(("a", "b", "a"), ())
    with pytest.raises(PresentationError):
        Presentation((), ())


def test_caps_as_dict_in_parameter_order():
    assert SearchCaps().as_dict() == {
        "max_word_len": 16, "max_class_size": 1000, "max_bfs_depth": 48,
    }
    assert list(CAPS.as_dict()) == ["max_word_len", "max_class_size", "max_bfs_depth"]
    assert SearchCaps(12, 2000, 40) == CAPS and hash(SearchCaps(12, 2000, 40)) == hash(CAPS)
    assert SearchCaps(12, 2000, 41) != CAPS


def test_tribool_equality_is_value_and_witness():
    assert TriBool("yes") == TriBool.yes()
    assert TriBool.no("cert") == TriBool("no", "cert")
    assert TriBool.no("cert") != TriBool.no("other")
    assert len({TriBool.yes(), TriBool("yes", None)}) == 1


def test_zero_step_derivation_has_length_zero():
    d = Diagram(COMM, W("a b"), ())
    assert d.cells == 0 and d.words() == (W("a b"),)
    assert d.bot == W("a b")
    assert Diagram(COMM, W("a b"), (Move(0, 0, True),)) == Diagram(
        COMM, W("a b"), (Move(0, 0, True),)
    )
    assert len({d, Diagram(COMM, W("a b"), ())}) == 1


def test_enumeration_equality_ignores_the_tree():
    enum = ClassSearch(COMM, CAPS).enum(W("a b c"))
    # the same words, each hung straight off the seed by a dummy move
    star = {w: (enum.seed, Move(0, 0, True)) for w in reversed(enum.parent)}
    other = ClassEnumeration(enum.seed, COMM)
    other.parent, other.capped = star, not enum.complete
    assert other == enum and hash(other) == hash(enum)
    assert len(enum) == 6 and W("c b a") in enum and W("a a") not in enum
    assert ClassEnumeration(enum.seed, COMM) != enum

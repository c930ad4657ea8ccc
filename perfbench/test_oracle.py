"""Hand-checkable cases for the benchmark's reference computations."""

from oracle import ClassComplex, equal, raag_ball_sizes, word

COMM = [(word("a b"), word("b a")), (word("a c"), word("c a")), (word("b c"), word("c b"))]
CYC3 = [(word("a"), word("b")), (word("b"), word("c")), (word("c"), word("a"))]
HALFPAD = [(word("a"), word("a p")), (word("b"), word("p b"))]


def test_free_group_balls():
    assert raag_ball_sizes(["x", "y"], [], 3) == [1, 5, 17, 53]


def test_free_abelian_balls():
    assert raag_ball_sizes(["x", "y"], [("x", "y")], 3) == [1, 5, 13, 25]


def test_single_generator_balls():
    assert raag_ball_sizes(["x"], [], 4) == [1, 3, 5, 7, 9]


def test_commuting_pair_is_a_segment():
    cx = ClassComplex(word("a b"), COMM)
    assert cx.cube_counts == {0: 2, 1: 1}
    assert cx.euler_characteristic() == 1
    assert len(cx.hyperplanes) == 1


def test_commuting_triple_is_a_hexagon():
    # six orderings of a b c joined by adjacent swaps: a 6-cycle with no
    # squares, so each edge is a hyperplane of its own
    cx = ClassComplex(word("a b c"), COMM)
    assert cx.cube_counts == {0: 6, 1: 6}
    assert cx.euler_characteristic() == 0
    assert len(cx.hyperplanes) == 6
    assert all(cx.rank(h) == 0 for h in cx.hyperplanes)


def test_cycle_letters_square_and_order():
    # [a a] = all 9 two-letter words; each letter slot is a triangle, so the
    # complex is a product of two triangles with two hyperplane families
    cx = ClassComplex(word("a a"), CYC3)
    assert cx.cube_counts == {0: 9, 1: 18, 2: 9}
    assert cx.euler_characteristic() == 0
    left = cx.hyperplane_of((), 0, word("a"))
    right = cx.hyperplane_of(word("a"), 0, ())
    assert cx.rank(left) == 0 and cx.rank(right) == 1


def test_equal_decides_within_bounds():
    assert equal(word("a"), word("a p p"), HALFPAD) is True
    assert equal(word("a"), word("b"), HALFPAD, max_len=6) is None
    assert equal(word("a b"), word("b a"), COMM) is True
    assert equal(word("a b"), word("a c"), COMM) is False

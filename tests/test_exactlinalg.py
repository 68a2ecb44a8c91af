"""Exact rational elimination: rank, determinant, solve, span membership."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hmlab.exactlinalg import det, in_span, rank, rref, solve

fr = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def frows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_rank_of_obviously_dependent_rows():
    assert rank(frows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])) == 2


def test_det_known_matrix():
    assert det(frows([[1, 2], [3, 4]])) == Fraction(-2)
    assert det(frows([[1, 2], [2, 4]])) == 0


def leibniz_det(rows):
    """Sum over permutations: no elimination, so no pivots or swaps."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in
                         itertools.combinations(range(len(perm)), 2))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)]) | fr,
             min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_det_matches_the_permutation_sum(rows):
    """The signed pivot product of the rref elimination, zero pivots and row
    swaps included (the sampled zeros force both)."""
    assert det(rows) == leibniz_det(rows)


def test_det_of_a_row_swap_and_of_the_empty_matrix():
    assert det(frows([[0, 1], [1, 0]])) == -1
    assert det(frows([[0, 0, 2], [0, 3, 0], [5, 0, 0]])) == -30
    assert det(frows([[0, 1], [0, 2]])) == 0
    assert det([]) == 1


@given(st.lists(st.lists(fr, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_solve_then_multiply_back(rows):
    rhs = [Fraction(1), Fraction(0), Fraction(2)]
    x = solve(rows, rhs)
    if x is None:
        assert det(rows) == 0
        return
    for i in range(3):
        assert sum(rows[i][j] * x[j] for j in range(3)) == rhs[i]


def test_in_span_positive_and_negative():
    basis = frows([[1, 0, 1], [0, 1, 1]])
    member, combo = in_span(basis, frows([[2, 3, 5]])[0])
    assert member and combo == [Fraction(2), Fraction(3)]
    member, combo = in_span(basis, frows([[0, 0, 1]])[0])
    assert not member and combo is None


def test_rref_pivots_are_one():
    reduced, pivots = rref(frows([[2, 4], [1, 3]]))
    assert pivots == [0, 1]
    for r, c in enumerate(pivots):
        assert reduced[r][c] == 1


@given(st.lists(st.lists(fr, min_size=4, max_size=4), min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rank_never_exceeds_dimensions(rows):
    r = rank(rows)
    assert 0 <= r <= min(len(rows), 4)
    # appending a copy of an existing row never raises the rank
    assert rank(rows + [rows[0]]) == r

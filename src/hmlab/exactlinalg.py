"""Exact linear algebra over any field with +, -, *, / and truth testing.

Works on lists of lists; the package uses it with Fraction only, and it is
the package's one exact elimination (the bidegree bases of
:mod:`hmlab.spectra` choose their monomials so that they need none).  No
pivoting heuristics are needed because arithmetic is exact; the first
nonzero entry in a column is the pivot, and the pivot trail records which
columns carried one.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns)``; ``reduced`` is a new list of lists.
    """
    reduced, pivots, _ = _gauss_jordan(rows)
    return reduced, pivots


def _gauss_jordan(rows):
    """The elimination behind :func:`rref`; also returns the product of the
    pivots it divides by, times the sign of its row swaps."""
    m = [list(r) for r in rows]
    if not m:
        return [], [], 1
    nrow, ncol = len(m), len(m[0])
    pivots = []
    product = 1
    r = 0
    for c in range(ncol):
        pivot_row = None
        for i in range(r, nrow):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            product = -product
        inv = m[r][c]
        product = product * inv
        m[r] = [v / inv for v in m[r]]
        for i in range(nrow):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return m, pivots, product


def rank(rows):
    return len(rref(rows)[1])


def det(rows):
    """Determinant of square ``rows``, read off the elimination of
    :func:`rref`.

    A row swap flips the sign of the determinant and dividing a row by its
    pivot divides it by the pivot; the other row operations keep it.  Rows
    of full rank end at the identity, so their determinant is the signed
    pivot product; a column without a pivot makes it zero.
    """
    if not rows:
        return Fraction(1)
    _, pivots, product = _gauss_jordan(rows)
    if pivots != list(range(len(rows))):
        return rows[0][0] - rows[0][0]
    return product


def solve(rows, rhs):
    """Solve A x = b exactly; returns None when inconsistent.

    Under-determined systems get the pivot-variable solution with free
    variables set to zero.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncol = len(rows[0])
    if ncol in pivots:
        return None
    zero = rhs[0] - rhs[0]
    x = [zero] * ncol
    for r, c in enumerate(pivots):
        x[c] = red[r][ncol]
    return x


def in_span(basis_rows, candidate):
    """Exact membership of ``candidate`` in the row span of ``basis_rows``.

    Returns ``(member, combination)``; ``combination`` lists the coefficients
    on the basis rows when membership holds, else None.  The candidate must
    have at least one entry; an empty basis spans only the zero candidate,
    with the empty combination.
    """
    # solve basis^T c = candidate; solve is exact, so a solution it returns
    # satisfies every equation
    ncol = len(basis_rows)
    at = [[basis_rows[j][i] for j in range(ncol)] for i in range(len(candidate))]
    combo = solve(at, list(candidate))
    return combo is not None, combo

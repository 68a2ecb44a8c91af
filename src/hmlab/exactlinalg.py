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
    m = [list(r) for r in rows]
    if not m:
        return [], []
    nrow, ncol = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncol):
        pivot_row = None
        for i in range(r, nrow):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(nrow):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def det(rows):
    """Determinant by fraction-free-ish elimination (exact division each step)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return Fraction(1)
    sign = 1
    out = None
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            zero = m[0][0] - m[0][0]
            return zero
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        out = m[c][c] if out is None else out * m[c][c]
    return out if sign == 1 else -out


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
    on the basis rows when membership holds, else None.
    """
    if not basis_rows:
        return (not any(candidate)), ([] if not any(candidate) else None)
    # solve basis^T c = candidate
    ncol = len(basis_rows)
    at = [[basis_rows[j][i] for j in range(ncol)] for i in range(len(candidate))]
    combo = solve(at, list(candidate))
    if combo is None:
        return False, None
    # exactness of solve means residual is identically zero when consistent,
    # but under-determined pivots may drop rows: verify.
    for i, row_target in enumerate(candidate):
        acc = row_target - row_target
        for j in range(ncol):
            acc = acc + combo[j] * basis_rows[j][i]
        if acc != row_target:
            return False, None
    return True, combo

"""Truncated one-variable power series with an explicit leading exponent.

A series is sum_i coeffs[i] * r**(offset + i), reliable through the power
``top = offset + len(coeffs) - 1``; every operation tracks how far its
result stays reliable, so singular objects like (n-1)/r + O(r) are first
class.  Coefficients may be Python scalars (float, Fraction) or square
numpy arrays; matrix coefficients multiply with ``@``, everything else
with ``*``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import SingularSeries


def _is_matrix(c):
    return isinstance(c, np.ndarray) and c.ndim == 2


def _zero_like(c):
    if _is_matrix(c):
        return np.zeros_like(c)
    return type(c)(0) if isinstance(c, Fraction) else 0.0 * c


def _is_fraction(c):
    """Whether a coefficient holds Fractions: a Fraction or a matrix of them."""
    if _is_matrix(c):
        return c.dtype == object and isinstance(c.flat[0], Fraction)
    return isinstance(c, Fraction)


def _coef_mul(a, b):
    if _is_matrix(a) and _is_matrix(b):
        return a @ b
    return a * b


class TruncatedSeries:
    """Power series known modulo r**(top+1).

    The window is the one rule: a series knows the powers offset..top and
    nothing above.  A sum knows what both summands know, a product what
    each factor's window reaches; a single term joins with ``plus_term``.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, coeffs, offset=0):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("series needs at least one coefficient")
        self.coeffs = coeffs
        self.offset = int(offset)

    # -- bookkeeping ------------------------------------------------------

    @property
    def top(self):
        """Highest power whose coefficient is reliable."""
        return self.offset + len(self.coeffs) - 1

    @property
    def is_matrix_valued(self):
        return _is_matrix(self.coeffs[0])

    def coefficient(self, power):
        """Coefficient of r**power; zero below the window, error above it."""
        if power > self.top:
            raise ValueError(f"power {power} beyond truncation {self.top}")
        i = power - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _zero_like(self.coeffs[0])

    def trim(self):
        """Drop exactly-zero leading coefficients (keeps the window)."""
        coeffs, offset = self.coeffs, self.offset
        while len(coeffs) > 1 and not np.any(coeffs[0]):
            coeffs = coeffs[1:]
            offset += 1
        return TruncatedSeries(coeffs, offset)

    def truncate(self, top):
        if top >= self.top:
            return self
        keep = top - self.offset + 1
        if keep < 1:
            # nothing representable below the offset; keep one zero slot
            return TruncatedSeries([_zero_like(self.coeffs[0])], top)
        return TruncatedSeries(self.coeffs[:keep], self.offset)

    def shift(self, delta):
        """Multiply by r**delta."""
        return TruncatedSeries(self.coeffs, self.offset + delta)

    # -- ring operations --------------------------------------------------

    def plus_term(self, value, power):
        """self + value * r**power.  The window widens with zeros down to a
        power below the offset; a term above ``top`` is dropped."""
        offset = min(self.offset, power)
        zero = _zero_like(self.coeffs[0])
        out = [zero] * (self.top - offset + 1)
        for i, c in enumerate(self.coeffs):
            out[self.offset - offset + i] = zero + c
        if power <= self.top:
            out[power - offset] = out[power - offset] + value
        return TruncatedSeries(out, offset)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.offset)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.plus_term(other, 0)
        top = min(self.top, other.top)
        offset = min(self.offset, other.offset)
        length = top - offset + 1
        out = [_zero_like(self.coeffs[0])] * length
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                p = src.offset + i
                if p - offset < length:
                    out[p - offset] = out[p - offset] + c
        return TruncatedSeries(out, offset)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.plus_term(-other, 0)
        return self + (-other)

    def scale(self, factor):
        return TruncatedSeries([_coef_mul(factor, c) for c in self.coeffs], self.offset)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        top = min(self.top + other.offset, other.top + self.offset)
        offset = self.offset + other.offset
        length = top - offset + 1
        out = [_zero_like(_coef_mul(self.coeffs[0], other.coeffs[0]))] * length
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k < length:
                    out[k] = out[k] + _coef_mul(a, b)
        return TruncatedSeries(out, offset)

    def inverse(self):
        """Multiplicative inverse; requires an invertible leading coefficient."""
        lead = self.coeffs[0]
        if _is_matrix(lead):
            try:
                lead_inv = np.linalg.inv(lead)
            except np.linalg.LinAlgError as exc:
                raise SingularSeries("leading matrix coefficient not invertible") from exc
        else:
            if lead == 0:
                raise SingularSeries("leading coefficient is zero")
            lead_inv = (Fraction(1) / lead) if isinstance(lead, Fraction) else 1.0 / lead
        inv = [lead_inv]
        for m in range(1, len(self.coeffs)):
            acc = _coef_mul(self.coeffs[1], inv[m - 1])
            for j in range(2, m + 1):
                acc = acc + _coef_mul(self.coeffs[j], inv[m - j])
            inv.append(-_coef_mul(lead_inv, acc))
        # window: relative length is preserved by the recursion
        return TruncatedSeries(inv, -self.offset)

    def derivative(self):
        """d/dr, power by power; a power-0 term differentiates to nothing."""
        return TruncatedSeries([(self.offset + i) * c for i, c in enumerate(self.coeffs)],
                               self.offset - 1)

    # -- matrix helpers ----------------------------------------------------

    def trace(self):
        return TruncatedSeries([np.trace(c) for c in self.coeffs], self.offset)

    def entry(self, i, j):
        return TruncatedSeries([c[i, j] for c in self.coeffs], self.offset)

    def log(self):
        """log of a series with leading term 1 (scalar) or identity (matrix)."""
        if self.offset != 0:
            raise ValueError("log needs a series starting at power 0")
        lead = self.coeffs[0]
        rational = _is_fraction(lead)
        if _is_matrix(lead):
            if not np.allclose(lead, np.eye(lead.shape[0])):
                raise ValueError("matrix log implemented for leading identity only")
            dim = lead.shape[0]
            one = np.array([[Fraction(int(i == j)) for j in range(dim)]
                            for i in range(dim)]) if rational else np.eye(dim)
        else:
            if not np.isclose(float(lead), 1.0):
                raise ValueError("scalar log implemented for leading 1 only")
            one = Fraction(1) if rational else 1.0
        n = self.plus_term(-one, 0).trim()
        top = self.top
        acc = power = n
        for k in range(2, top + 3):
            power = (power * n).truncate(top)
            if power.offset > top:
                break
            sign = (-1) ** (k + 1)
            acc = acc + power.scale(Fraction(sign, k) if rational else sign / k)
        return acc.truncate(top)

    def exp(self):
        """exp of a scalar series with no nonzero term at a power <= 0."""
        head = max(0, 1 - self.offset)
        if self.is_matrix_valued or any(self.coeffs[:head]):
            raise ValueError("exp implemented for scalar series with no "
                             "nonzero term at powers <= 0")
        top = self.top
        one = Fraction(1) if _is_fraction(self.coeffs[0]) else 1.0
        # 1 through the window, so that the sum below keeps its window
        acc = TruncatedSeries([one] + [0 * one] * top)
        # drop the zeros at powers <= 0: a product's window ends at each
        # factor's top plus the other's offset, so they would cut off the top
        x = self if head >= len(self.coeffs) else \
            TruncatedSeries(self.coeffs[head:], self.offset + head)
        term = x
        k = 1
        while term.offset <= top:
            acc = acc + term.scale(one / math.factorial(k))
            if k * max(x.offset, 1) > top:
                break
            k += 1
            term = (term * x).truncate(top)
        return acc.truncate(top)

    def det(self):
        """det of a matrix series with leading identity, via exp(tr(log))."""
        return self.log().trace().exp()

    # -- conveniences -------------------------------------------------------

    def __call__(self, r):
        return sum(c * r ** (self.offset + i) for i, c in enumerate(self.coeffs))

    def __repr__(self):
        kind = "matrix" if self.is_matrix_valued else "scalar"
        return (f"TruncatedSeries({kind}, powers {self.offset}..{self.top}, "
                f"{len(self.coeffs)} coeffs)")


def det_cofactor(series):
    """Determinant by Laplace expansion on scalar entry series.

    Independent of TruncatedSeries.det; used as a cross-check oracle.
    Minors are memoized on the column mask, so the cost is 2**dim states
    rather than dim! leaves.
    """
    dim = series.coeffs[0].shape[0]
    top = series.top
    entries = [[series.entry(i, j).truncate(top) for j in range(dim)]
               for i in range(dim)]
    cache = {}

    def minor(mask):
        row = dim - bin(mask).count("1")
        if row == dim - 1:
            # a one-column minor is its entry
            return entries[row][mask.bit_length() - 1]
        got = cache.get(mask)
        if got is not None:
            return got
        acc = None
        sign = 1
        for j in range(dim):
            bit = 1 << j
            if not mask & bit:
                continue
            term = (entries[row][j] * minor(mask & ~bit)).truncate(top)
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
            sign = -sign
        cache[mask] = acc
        return acc

    return minor((1 << dim) - 1).truncate(top)

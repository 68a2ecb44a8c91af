"""Truncated one-variable power series with an explicit leading exponent.

A series is sum_i coeffs[i] * r**(offset + i), reliable through the power
``top``; every operation tracks how far its result stays reliable, so
singular objects like (n-1)/r + O(r) are first class.  Coefficients may be
Python scalars (float, Fraction) or square numpy arrays; matrix coefficients
multiply with ``@``, everything else with ``*``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import SingularSeries

_INF = math.inf


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

    ``exact=True`` marks a series whose stored coefficients describe it to
    all orders (constants, monomials, exact polynomials); its ``top`` is
    treated as +infinity in truncation bookkeeping.
    """

    __slots__ = ("offset", "coeffs", "exact")

    def __init__(self, coeffs, offset=0, exact=False):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("series needs at least one coefficient")
        self.coeffs = coeffs
        self.offset = int(offset)
        self.exact = bool(exact)

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value):
        return cls([value], 0, exact=True)

    @classmethod
    def monomial(cls, value, power):
        return cls([value], power, exact=True)

    # -- bookkeeping ------------------------------------------------------

    @property
    def top(self):
        """Highest power whose coefficient is reliable."""
        return _INF if self.exact else self.offset + len(self.coeffs) - 1

    @property
    def is_matrix_valued(self):
        return _is_matrix(self.coeffs[0])

    def coefficient(self, power, strict=True):
        """Coefficient of r**power; zero below the window, error above it."""
        if power > self.top and strict:
            raise ValueError(f"power {power} beyond truncation {self.top}")
        i = power - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _zero_like(self.coeffs[0])

    def _zero(self):
        return _zero_like(self.coeffs[0])

    def trim(self):
        """Drop exactly-zero leading coefficients (keeps the window)."""
        coeffs, offset = self.coeffs, self.offset
        while len(coeffs) > 1 and not np.any(coeffs[0]):
            coeffs = coeffs[1:]
            offset += 1
        return TruncatedSeries(coeffs, offset, self.exact)

    def truncate(self, top):
        if top >= self.top:
            return self
        keep = int(top) - self.offset + 1
        if keep < 1:
            # nothing representable below the offset; keep one zero slot
            return TruncatedSeries([self._zero()], int(top), False)
        return TruncatedSeries(self.coeffs[:keep], self.offset, False)

    def shift(self, delta):
        """Multiply by r**delta."""
        return TruncatedSeries(self.coeffs, self.offset + delta, self.exact)

    # -- ring operations --------------------------------------------------

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.offset, self.exact)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other)
        top = min(self.top, other.top)
        offset = min(self.offset, other.offset)
        if top is _INF:
            top = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs)) - 1
        length = int(top) - offset + 1
        zero = self._zero() if len(self.coeffs) else other._zero()
        out = [zero for _ in range(length)]
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                p = src.offset + i
                if p - offset < length:
                    out[p - offset] = out[p - offset] + c
        return TruncatedSeries(out, offset, self.exact and other.exact)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, factor):
        return TruncatedSeries([_coef_mul(factor, c) if _is_matrix(c) else factor * c
                                for c in self.coeffs], self.offset, self.exact)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        top = min(self.top + other.offset, other.top + self.offset)
        offset = self.offset + other.offset
        if top is _INF:
            top = offset + len(self.coeffs) + len(other.coeffs) - 2
        length = int(top) - offset + 1
        zero = _coef_mul(self.coeffs[0], other.coeffs[0])
        zero = _zero_like(zero)
        out = [zero for _ in range(length)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k < length:
                    out[k] = out[k] + _coef_mul(a, b)
        return TruncatedSeries(out, offset, self.exact and other.exact)

    def __rmul__(self, other):
        return self.scale(other)

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
            acc = None
            for j in range(1, m + 1):
                if j < len(self.coeffs):
                    term = _coef_mul(self.coeffs[j], inv[m - j])
                    acc = term if acc is None else acc + term
            if acc is None:
                inv.append(_zero_like(lead_inv))
            else:
                inv.append(-_coef_mul(lead_inv, acc))
        # window: relative length is preserved by the recursion
        exact = self.exact and len(self.coeffs) == 1
        return TruncatedSeries(inv, -self.offset, exact)

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(1 / other if not isinstance(other, Fraction) else Fraction(1) / other)
        return self * other.inverse()

    def derivative(self):
        """d/dr, power by power; a power-0 term differentiates to nothing."""
        out = []
        for i, c in enumerate(self.coeffs):
            p = self.offset + i
            if isinstance(c, Fraction):
                out.append(Fraction(p) * c)
            else:
                out.append(p * c)
        return TruncatedSeries(out, self.offset - 1, self.exact)

    # -- matrix helpers ----------------------------------------------------

    def trace(self):
        return TruncatedSeries([np.trace(c) for c in self.coeffs], self.offset, self.exact)

    def entry(self, i, j):
        return TruncatedSeries([c[i, j] for c in self.coeffs], self.offset, self.exact)

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
            eye = np.array([[Fraction(int(i == j)) for j in range(dim)]
                            for i in range(dim)]) if rational else np.eye(dim)
            one = TruncatedSeries([eye], 0, exact=True)
        else:
            if not np.isclose(float(lead), 1.0):
                raise ValueError("scalar log implemented for leading 1 only")
            one = TruncatedSeries.constant(Fraction(1) if rational else 1.0)
        n = self - one
        n = n.trim()
        top = self.top
        if top is _INF:
            top = self.offset + len(self.coeffs) - 1
        acc = None
        power = n
        k = 1
        while power.offset <= top:
            sign = (-1) ** (k + 1)
            term = power.scale(Fraction(sign, k) if rational else sign / k)
            acc = term if acc is None else acc + term
            nxt = (power * n).truncate(top)
            if nxt.offset > top or (nxt.offset == power.offset and len(nxt.coeffs) == 0):
                break
            power = nxt
            k += 1
            if k > int(top) + 2:
                break
        if acc is None:
            acc = TruncatedSeries([self._zero()], 1)
        return acc.truncate(top)

    def exp(self):
        """exp of a scalar series with zero constant term."""
        if self.offset <= 0 and np.any(self.coefficient(0, strict=False)):
            raise ValueError("exp implemented for series vanishing at 0")
        top = self.top
        if top is _INF:
            top = self.offset + len(self.coeffs) - 1
        rational = _is_fraction(self.coeffs[0])
        one = Fraction(1) if rational else 1.0
        acc = TruncatedSeries.constant(one)
        term = TruncatedSeries.constant(one)
        k = 1
        while True:
            term = (term * self).truncate(top)
            if term.offset > top:
                break
            acc = acc + term.scale(one / math.factorial(k))
            if k * max(self.offset, 1) > top:
                break
            k += 1
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


def det_cofactor(series, top=None):
    """Determinant by Laplace expansion on scalar entry series.

    Independent of TruncatedSeries.det; used as a cross-check oracle.
    Minors are memoized on the column mask, so the cost is 2**dim states
    rather than dim! leaves.
    """
    dim = series.coeffs[0].shape[0]
    if top is None:
        top = series.top
    entries = [[series.entry(i, j).truncate(top) for j in range(dim)]
               for i in range(dim)]
    one = Fraction(1) if _is_fraction(series.coeffs[0]) else 1.0
    cache = {}

    def minor(mask):
        if mask == 0:
            return TruncatedSeries.constant(one)
        got = cache.get(mask)
        if got is not None:
            return got
        row = dim - bin(mask).count("1")
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

"""Exact complex-rational polynomials and harmonic projection.

Everything here runs over Gaussian rationals so that Laplacians, rotation
derivatives and rank computations are exact; no float enters until a caller
converts a coefficient.  A polynomial is a dictionary from exponent tuples to
integer pairs (re, im) over one common denominator, which is plenty for the
homogeneous degrees (<= 6) this package ever touches.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm


def _over_one_denominator(values):
    """Python ints n_i and one d > 0 with n_i / d == values[i], for a
    sequence of rationals (ints, Fractions, numpy integers)."""
    den = lcm(*(v.denominator for v in values))
    return [int(v.numerator) * (den // int(v.denominator))
            for v in values], den


class CPoly:
    """Polynomial in nvars real variables with Gaussian rational coefficients.

    ``terms`` maps exponent tuples to integer pairs (re, im), all over the
    one denominator ``den``.  The form is always reduced: ``den > 0``, no
    zero term, and no factor shared by ``den`` and every numerator.  So
    equal values have equal ``terms`` and ``den``, and ``==`` compares
    values.
    """

    __slots__ = ("nvars", "terms", "den")

    def __init__(self, nvars, terms=None, den=1):
        if den <= 0:
            raise ValueError(f"CPoly denominator must be positive, not {den}")
        terms = {m: c for m, c in terms.items() if c[0] or c[1]} if terms else {}
        g = gcd(den, *chain.from_iterable(terms.values()))
        if g > 1:
            den //= g
            terms = {m: (x // g, y // g) for m, (x, y) in terms.items()}
        self.nvars = nvars
        self.terms = terms
        self.den = den if terms else 1

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: (1, 0)}).scale(value)

    def __eq__(self, other):
        if other.__class__ is not CPoly:
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono):
        """The exact coefficient of ``mono`` as a pair of Fractions."""
        x, y = self.terms.get(mono, (0, 0))
        return Fraction(x, self.den), Fraction(y, self.den)

    def __add__(self, other):
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        out = {m: (x * fa, y * fa) for m, (x, y) in self.terms.items()}
        for m, (x, y) in other.terms.items():
            prev = out.get(m)
            out[m] = (x * fb, y * fb) if prev is None else \
                (prev[0] + x * fb, prev[1] + y * fb)
        return CPoly(self.nvars, out, self.den * fa)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CPoly(self.nvars, {m: (-x, -y) for m, (x, y) in self.terms.items()},
                     self.den)

    def __mul__(self, other):
        out = {}
        for m1, (a, b) in self.terms.items():
            for m2, (c, d) in other.terms.items():
                mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                x, y = a * c - b * d, a * d + b * c
                prev = out.get(mono)
                out[mono] = (x, y) if prev is None else (prev[0] + x, prev[1] + y)
        return CPoly(self.nvars, out, self.den * other.den)

    def scale(self, re, im=0):
        """Multiply by the Gaussian rational re + i im."""
        (a, b), den = _over_one_denominator((re, im))
        return CPoly(self.nvars, {m: (x * a - y * b, x * b + y * a)
                                  for m, (x, y) in self.terms.items()},
                     self.den * den)

    def conjugate(self):
        return CPoly(self.nvars, {m: (x, -y) for m, (x, y) in self.terms.items()},
                     self.den)

    def laplacian(self):
        out = {}
        for mono, (x, y) in self.terms.items():
            for i, e in enumerate(mono):
                if e > 1:
                    down = mono[:i] + (e - 2,) + mono[i + 1:]
                    f = e * (e - 1)
                    prev = out.get(down)
                    out[down] = (x * f, y * f) if prev is None else \
                        (prev[0] + x * f, prev[1] + y * f)
        return CPoly(self.nvars, out, self.den)

    def rotation_derivative(self, j):
        """Derivative along the flow X -> exp(sJ)X: sum_a (JX)_a d_a.

        ``j`` is J in the prepared form of :func:`integer_j`.
        """
        j_rows, j_den = j
        rows = [[(b, x) for b, x in enumerate(row) if x] for row in j_rows]
        out = {}
        for mono, (x, y) in self.terms.items():
            for a, e in enumerate(mono):
                if not e:
                    continue
                xe, ye = x * e, y * e
                down = list(mono)
                down[a] -= 1
                for b, jab in rows[a]:
                    # x_b d_a: one power moves from variable a to variable b
                    down[b] += 1
                    target = tuple(down)
                    down[b] -= 1
                    prev = out.get(target)
                    out[target] = (xe * jab, ye * jab) if prev is None else \
                        (prev[0] + xe * jab, prev[1] + ye * jab)
        return CPoly(self.nvars, out, self.den * j_den)

    def __repr__(self):
        if not self.terms:
            return "CPoly(0)"
        bits = []
        for mono in sorted(self.terms):
            x, y = self.terms[mono]
            factors = "".join(f"x{i}^{e}" for i, e in enumerate(mono) if e)
            bits.append(f"({x}{y:+}i){factors or '1'}")
        return "CPoly((" + " + ".join(bits) + f")/{self.den})"


def radius_square(nvars):
    terms = {}
    for i in range(nvars):
        mono = [0] * nvars
        mono[i] = 2
        terms[tuple(mono)] = (1, 0)
    return CPoly(nvars, terms)


def monomials_of_degree(nvars, degree):
    """All exponent tuples of the given total degree, lexicographic."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, nvars)
    return out


def harmonic_projection(poly):
    """Harmonic part h_d of a homogeneous polynomial p of degree d in k
    variables, where p = sum_j |X|^(2j) h_(d-2j) with every h harmonic:

        h_d = sum_j (-1)^j |X|^(2j) Lap^j p / (2^j j! prod_(i=1..j) (k+2d-2-2i)).

    Evaluated from the highest nonzero Laplacian down, one |X|^2 at a time.
    """
    k, d = poly.nvars, poly.degree()
    laps = [poly]
    for _ in range(d // 2):
        lap = laps[-1].laplacian()
        if lap.is_zero():
            break
        laps.append(lap)
    r2 = radius_square(k)
    out = laps.pop()
    for j in range(len(laps), 0, -1):
        out = laps[j - 1] + (r2 * out).scale(
            Fraction(-1, 2 * j * (k + 2 * d - 2 - 2 * j)))
    return out


def harmonic_space_dimension(nvars, degree):
    """dim of homogeneous harmonics: (k+2n-2) (k+n-3)! / (n! (k-2)!)."""
    k, n = nvars, degree
    if n == 0:
        return 1
    if n == 1:
        return k
    return (k + 2 * n - 2) * factorial(k + n - 3) // (factorial(n) * factorial(k - 2))


# -- adapted complex coordinates ----------------------------------------------


def integer_j(j_rows):
    """J as integer rows over one denominator, ``(rows, den)`` with den > 0
    and rows[r][c] / den == j_rows[r][c]: the prepared form every exact
    J-level step runs on, made once per complex structure."""
    nums, den = _over_one_denominator([Fraction(x) for row in j_rows
                                       for x in row])
    entries = iter(nums)
    return [[next(entries) for _ in row] for row in j_rows], den


def gram_schmidt_pairs(j):
    """Orthogonal pairs (Q, JQ) spanning R^k, exact and unnormalized, for J
    in the prepared form of :func:`integer_j`.  Each pair is returned as
    ``(q, jq, den)``: integer vectors over one denominator.

    J must be orthogonal and skew; then JQ is automatically orthogonal to
    every previously chosen pair and to Q itself, so only the projection of
    the raw candidate needs computing.  Projecting w out of v = n / d gives
    (<w, w> n - <n, w> w) / (d <w, w>), in which the scale of w cancels, so
    the chosen vectors are kept as numerators alone.
    """
    j_rows, j_den = j
    k = len(j_rows)
    chosen = []
    pairs = []
    for cand in range(k):
        if len(pairs) == k // 2:
            break
        v = [0] * k
        v[cand] = 1
        den = 1
        for w in chosen:
            num = sum(a * b for a, b in zip(v, w))
            if num:
                ww = sum(b * b for b in w)
                v = [a * ww - num * b for a, b in zip(v, w)]
                den *= ww
                g = gcd(den, *v)
                v = [a // g for a in v]
                den //= g
        if not any(v):
            continue
        jv = [sum(x * c for x, c in zip(row, v)) for row in j_rows]
        pairs.append(([a * j_den for a in v], jv, den * j_den))
        chosen.append(v)
        chosen.append(jv)
    return pairs


def adapted_coordinates(j):
    """Linear forms z_i = <Q_i, X> + i <J Q_i, X> for the exact pair basis
    of J in the prepared form of :func:`integer_j`."""
    j_rows, _ = j
    k = len(j_rows)
    units = [tuple(int(a == b) for b in range(k)) for a in range(k)]
    return [CPoly(k, {unit: (x, y) for unit, x, y in zip(units, q, jq)}, den)
            for q, jq, den in gram_schmidt_pairs(j)]

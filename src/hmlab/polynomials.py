"""Exact complex-rational polynomials and harmonic projection.

Everything here runs over Gaussian rationals so that Laplacians, rotation
derivatives and rank computations are exact; no float enters until a caller
converts a coefficient.  A polynomial is a dictionary from exponent tuples to
integer pairs (re, im) over one common denominator, which is plenty for the
homogeneous degrees (<= 6) this package ever touches.  A batch of
polynomials of one degree runs the same calculus as int64 term arrays
(:class:`PolyBatch`), bounded so that no value wraps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm

import numpy as np

from .errors import DegreeMismatch, ExactOverflow, OutsideDomain


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
            raise OutsideDomain(
                f"CPoly denominator must be positive, not {den}")
        terms = {m: c for m, c in terms.items() if c[0] or c[1]} if terms else {}
        g = gcd(den, *chain.from_iterable(terms.values()))
        if g > 1:
            den //= g
            terms = {m: (x // g, y // g) for m, (x, y) in terms.items()}
        self.nvars = nvars
        self.terms = terms
        self.den = den if terms else 1

    @classmethod
    def _reduced(cls, nvars, terms, den):
        """The CPoly of ``terms`` over ``den`` that are already reduced."""
        poly = object.__new__(cls)
        poly.nvars, poly.terms, poly.den = nvars, terms, den
        return poly

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


# -- the batched engine ---------------------------------------------------------

_INT64_MAX = 2 ** 63 - 1
_CHUNK_TERMS = 1 << 19  # raw terms a step forms at once, before they merge


def _bounded(what, bound):
    """Refuse a step whose values could pass int64: ``bound`` is a Python
    int bounding every value the step forms, taken before it forms them."""
    if bound > _INT64_MAX:
        raise ExactOverflow(f"{what} could reach {bound.bit_length()} bits, "
                            "past int64")


def _peak(*arrays):
    """The largest absolute value in int64 arrays, as a Python int."""
    return max((max(int(a.max()), -int(a.min())) for a in arrays if a.size),
               default=0)


def _spans(starts, counts):
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(
        starts - ends + counts, counts)


class PolyBatch:
    """Homogeneous polynomials of one degree in ``nvars`` variables, one per
    column, as int64 term arrays: each term's column, monomial key (the
    exponent of variable i as digit i in base ``top`` + 1, so a key holds
    every degree up to ``top``), re and im, over one denominator per column.

    Terms are sorted by (column, key) and each column is reduced as a CPoly
    is, so a column's values are those of its CPoly.  Each step bounds the
    values it forms before forming them and raises :class:`ExactOverflow`
    past int64; no value wraps.  A step that forms many terms before
    merging them runs over a few columns at a time.
    """

    __slots__ = ("nvars", "degree", "top", "col", "key", "re", "im", "den")

    def __init__(self, nvars, degree, top, col, key, re, im, den):
        self.nvars, self.degree, self.top = nvars, degree, top
        self.col, self.key, self.re, self.im, self.den = col, key, re, im, den

    @classmethod
    def from_polys(cls, nvars, polys, degree, top):
        """The CPolys ``polys``, each homogeneous of ``degree`` or zero."""
        _bounded("a monomial key", (top + 1) ** nvars)
        terms = [(c, mono, x, y) for c, poly in enumerate(polys)
                 for mono, (x, y) in poly.terms.items()]
        if any(sum(mono) != degree for _, mono, _, _ in terms):
            raise DegreeMismatch(f"polynomials not all of degree {degree}")
        col, monos, re, im = zip(*terms) if terms else ((),) * 4
        dens = [poly.den for poly in polys]
        _bounded("a coefficient", max(map(abs, re + im + tuple(dens)),
                                      default=0))
        batch = cls(nvars, degree, top, *(np.zeros(0, np.int64),) * 4,
                    np.ones(len(polys), np.int64))
        key = np.array(monos, np.int64).reshape(-1, nvars) @ batch._powers()
        return batch._derived(degree, np.array(col, np.int64), key,
                              *(np.array(v, np.int64) for v in (re, im, dens)))

    def _derived(self, degree, col, key, re, im, den):
        """The batch of these terms of ``degree``: equal (column, key)
        summed, zero terms dropped and each column reduced.  The caller
        bounds the sums."""
        if degree > self.top:
            raise ExactOverflow(f"degree {degree} is past the keys' {self.top}")
        if col.size:
            stride = (self.top + 1) ** self.nvars
            _bounded(f"(column, key) of {den.size} columns", den.size * stride)
            order = np.argsort(col * stride + key)
            col, key = col[order], key[order]
            first = np.ones(col.size, bool)
            first[1:] = (col[1:] != col[:-1]) | (key[1:] != key[:-1])
            starts = np.flatnonzero(first)
            re = np.add.reduceat(re[order], starts)
            im = np.add.reduceat(im[order], starts)
            live = (re != 0) | (im != 0)
            col, key = col[starts][live], key[starts][live]
            re, im = re[live], im[live]
        reduced = np.ones(den.size, np.int64)
        if col.size:
            head = np.ones(col.size, bool)
            head[1:] = col[1:] != col[:-1]
            heads = np.flatnonzero(head)
            present = col[heads]
            g = np.gcd(np.gcd.reduceat(np.gcd(re, im), heads), den[present])
            reduced[present] = den[present] // g
            g = np.repeat(g, np.diff(heads, append=col.size))
            re, im = re // g, im // g
        return PolyBatch(self.nvars, degree, self.top, col, key, re, im,
                         reduced)

    def _powers(self):
        return (self.top + 1) ** np.arange(self.nvars, dtype=np.int64)

    def _exponents(self, a):
        """The exponent of variable ``a`` in every term."""
        return self.key // (self.top + 1) ** a % (self.top + 1)

    def _largest(self):
        """The largest |re| or |im|."""
        return _peak(self.re, self.im)

    def _column_spans(self):
        counts = np.bincount(self.col, minlength=self.den.size)
        return np.cumsum(counts) - counts, counts

    def nonzero_columns(self):
        """Whether each column has a term."""
        return np.bincount(self.col, minlength=self.den.size) > 0

    def polys(self):
        """The columns as CPolys."""
        keys, where = np.unique(self.key, return_inverse=True)
        digits = keys[:, None] // self._powers() % (self.top + 1)
        monos = [tuple(row) for row in digits.tolist()]
        monos = [monos[i] for i in where.tolist()]
        pairs = list(zip(self.re.tolist(), self.im.tolist()))
        starts, counts = self._column_spans()
        return [CPoly._reduced(self.nvars,
                               dict(zip(monos[lo:lo + n], pairs[lo:lo + n])),
                               den)
                for lo, n, den in zip(starts.tolist(), counts.tolist(),
                                      self.den.tolist())]

    def take(self, cols):
        """The batch of columns ``cols`` (repeats allowed), in that order."""
        cols = np.asarray(cols, np.int64)
        starts, counts = self._column_spans()
        pick = _spans(starts[cols], counts[cols])
        return PolyBatch(self.nvars, self.degree, self.top,
                         np.repeat(np.arange(cols.size), counts[cols]),
                         self.key[pick], self.re[pick], self.im[pick],
                         self.den[cols])

    def _in_chunks(self, raw, step):
        """``step(lo, hi)`` over runs of columns lo..hi-1, cut where the
        running sum of their ``raw`` term counts passes a multiple of
        ``_CHUNK_TERMS``, joined in column order."""
        cuts = np.flatnonzero(np.diff(np.cumsum(raw) // _CHUNK_TERMS)) + 1
        cuts = [0, *cuts.tolist(), raw.size]
        if len(cuts) == 2:
            return step(0, raw.size)
        parts = [step(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        return PolyBatch(
            self.nvars, parts[0].degree, self.top,
            np.concatenate([part.col + lo for part, lo in zip(parts, cuts)]),
            *(np.concatenate([getattr(part, name) for part in parts])
              for name in ("key", "re", "im", "den")))

    def _columns(self, lo, hi):
        return self if (lo, hi) == (0, self.den.size) \
            else self.take(np.arange(lo, hi))

    def times(self, other):
        """Column c times column c of ``other``."""
        raw = self._column_spans()[1] * other._column_spans()[1]
        return self._in_chunks(raw, lambda lo, hi: self._columns(lo, hi)._times(
            other._columns(lo, hi)))

    def _times(self, other):
        # a product key collects one term pair per term of the other column
        starts, counts = self._column_spans()
        o_starts, o_counts = other._column_spans()
        _bounded("a product", 2 * self._largest() * other._largest()
                 * int(o_counts.max(initial=0)))
        _bounded("a product's denominator", _peak(self.den) * _peak(other.den))
        pairs = counts * o_counts
        col = np.repeat(np.arange(self.den.size), pairs)
        step = _spans(np.zeros_like(pairs), pairs)
        width = o_counts[col]
        i = starts[col] + step // width
        j = o_starts[col] + step % width
        a, b, c, d = self.re[i], self.im[i], other.re[j], other.im[j]
        return self._derived(self.degree + other.degree, col,
                             self.key[i] + other.key[j], a * c - b * d,
                             a * d + b * c, self.den * other.den)

    def plus(self, other):
        """Column c plus column c of ``other``, over the least common
        denominator."""
        g = np.gcd(self.den, other.den)
        up_a, up_b = other.den // g, self.den // g
        _bounded("a common denominator", _peak(self.den) * _peak(up_a))
        _bounded("a sum", self._largest() * _peak(up_a)
                 + other._largest() * _peak(up_b))
        up_a, up_b = up_a[self.col], up_b[other.col]
        return self._derived(
            self.degree, np.concatenate((self.col, other.col)),
            np.concatenate((self.key, other.key)),
            np.concatenate((self.re * up_a, other.re * up_b)),
            np.concatenate((self.im * up_a, other.im * up_b)),
            self.den * (other.den // g))

    def _joined(self, degree, pieces, den):
        """The batch of per-variable pieces (col, key, re, im)."""
        if not pieces:
            pieces = [(np.zeros(0, np.int64),) * 4]
        return self._derived(degree, *(np.concatenate(p) for p in zip(*pieces)),
                             den)

    def laplacian(self):
        """Each variable's second derivative, one variable at a time; a key
        collects one term per variable."""
        d = self.degree
        _bounded("a Laplacian", self._largest() * d * (d - 1) * self.nvars)
        pieces = []
        for a, power in enumerate(self._powers().tolist()):
            e = self._exponents(a)
            t = np.flatnonzero(e >= 2)
            f = e[t] * (e[t] - 1)
            pieces.append((self.col[t], self.key[t] - 2 * power,
                           self.re[t] * f, self.im[t] * f))
        return self._joined(d - 2, pieces, self.den)

    def _radius_square_over(self, c):
        """Every column times |X|^2 / c, for a nonzero integer c."""
        k = self.nvars
        _bounded("a product with |X|^2", self._largest() * k)
        _bounded("a denominator", _peak(self.den) * abs(c))
        sign = 1 if c > 0 else -1
        return self._derived(
            self.degree + 2, np.repeat(self.col, k),
            (self.key[:, None] + 2 * self._powers()).ravel(),
            np.repeat(sign * self.re, k), np.repeat(sign * self.im, k),
            self.den * abs(c))

    def projected(self):
        """The harmonic part of every column, by the closed form of
        :func:`harmonic_projection`, each Laplacian for all columns at
        once."""
        k, d = self.nvars, self.degree
        laps = [self]
        for _ in range(d // 2):
            lap = laps[-1].laplacian()
            if not lap.col.size:
                break
            laps.append(lap)
        out = laps.pop()
        for j in range(len(laps), 0, -1):
            out = laps[j - 1].plus(
                out._radius_square_over(-2 * j * (k + 2 * d - 2 - 2 * j)))
        return out

    def rotated(self, j):
        """The derivative along X -> exp(sJ)X of every column, for J in the
        prepared form of :func:`integer_j`."""
        widest = max(sum(1 for x in row if x) for row in j[0])
        raw = self._column_spans()[1] * min(self.degree, self.nvars) * widest
        return self._in_chunks(
            raw, lambda lo, hi: self._columns(lo, hi)._rotated(j))

    def _rotated(self, j):
        # one source variable a at a time: one power of a moves to each b
        # with J[a][b] nonzero, and a key collects one term per nonzero of J
        rows, j_den = j
        entries = [x for row in rows for x in row if x]
        _bounded("a rotation derivative", self._largest() * self.degree
                 * max(map(abs, entries), default=0) * len(entries))
        _bounded("a rotation's denominator", _peak(self.den) * j_den)
        powers = self._powers()
        pieces = []
        for a, row in enumerate(rows):
            targets = [b for b, x in enumerate(row) if x]
            e = self._exponents(a)
            t = np.flatnonzero(e)
            if not (targets and t.size):
                continue
            e = e[t, None] * np.array([row[b] for b in targets], np.int64)
            pieces.append((np.repeat(self.col[t], len(targets)),
                           (self.key[t, None] - powers[a]
                            + powers[targets]).ravel(),
                           (self.re[t, None] * e).ravel(),
                           (self.im[t, None] * e).ravel()))
        return self._joined(self.degree, pieces, self.den * j_den)

    def rotation_eigenvectors(self, j, t):
        """Whether the rotation derivative of column c is i t[c] times it,
        for integers t: whether D h - i t h is zero."""
        t = np.asarray(t, np.int64)
        _bounded("i t h", self._largest() * _peak(t))
        minus_i_t = PolyBatch(self.nvars, self.degree, self.top, self.col,
                              self.key, t[self.col] * self.im,
                              -t[self.col] * self.re, self.den)
        return ~self.rotated(j).plus(minus_i_t).nonzero_columns()


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

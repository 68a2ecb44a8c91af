"""Exact complex-rational polynomials and harmonic decomposition.

Everything here runs over Gaussian rationals so that Laplacians, rotation
derivatives and rank computations are exact; no float enters until a caller
asks for evaluation.  Polynomials are dictionaries from exponent tuples to
coefficients, which is plenty for the homogeneous degrees (<= 6) this
package ever touches.
"""

from __future__ import annotations

from fractions import Fraction


class CRat:
    """Gaussian rational a + bi with exact Fraction parts.

    Immutable and hashable.  The constructor coerces both parts to
    Fraction; arithmetic results, whose parts already are Fractions, go
    through the trusted ``_from_parts``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        _set_re(self, Fraction(re))
        _set_im(self, Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError(f"CRat is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CRat is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return CRat, (self.re, self.im)

    def __eq__(self, other):
        if other.__class__ is CRat:
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if other.__class__ is not CRat:
            other = _crat(other)
        return _from_parts(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not CRat:
            other = _crat(other)
        return _from_parts(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _crat(other) - self

    def __mul__(self, other):
        if other.__class__ is CRat:
            return _from_parts(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)
        if isinstance(other, (int, Fraction)):
            # a real factor needs two products, not the four of a complex one
            return _from_parts(self.re * other, self.im * other)
        return self * _crat(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not CRat:
            other = _crat(other)
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _from_parts((self.re * other.re + self.im * other.im) / d,
                           (self.im * other.re - self.re * other.im) / d)

    def __neg__(self):
        return _from_parts(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return _from_parts(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


_set_re = CRat.re.__set__
_set_im = CRat.im.__set__


def _from_parts(re, im):
    """Trusted CRat constructor: ``re`` and ``im`` must already be Fractions."""
    z = object.__new__(CRat)
    _set_re(z, re)
    _set_im(z, im)
    return z


CRAT_ZERO = CRat()
CRAT_ONE = CRat(Fraction(1))


def _crat(x):
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(Fraction(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to a Gaussian rational")


class CPoly:
    """Polynomial in nvars real variables with Gaussian rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, coef in terms.items():
                coef = _crat(coef) if not isinstance(coef, CRat) else coef
                if coef:
                    self.terms[tuple(mono)] = coef

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: _crat(value)})

    @classmethod
    def variable(cls, nvars, index):
        mono = [0] * nvars
        mono[index] = 1
        return cls(nvars, {tuple(mono): CRAT_ONE})

    @classmethod
    def linear_form(cls, coeffs):
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = c if isinstance(c, CRat) else _crat(c)
            if c:
                mono = [0] * n
                mono[i] = 1
                terms[tuple(mono)] = c
        return cls(n, terms)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            s = out.get(mono, CRAT_ZERO) + coef
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return CPoly(self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, CRAT_ZERO) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return CPoly(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, factor):
        factor = _crat(factor) if not isinstance(factor, CRat) else factor
        if not factor:
            return CPoly(self.nvars)
        return CPoly(self.nvars, {m: c * factor for m, c in self.terms.items()})

    def conjugate(self):
        return CPoly(self.nvars, {m: c.conjugate() for m, c in self.terms.items()})

    def partial(self, index):
        out = {}
        for mono, coef in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            down = list(mono)
            down[index] = e - 1
            out[tuple(down)] = coef * e
        return CPoly(self.nvars, out)

    def laplacian(self):
        out = {}
        for mono, coef in self.terms.items():
            for i, e in enumerate(mono):
                if e > 1:
                    down = mono[:i] + (e - 2,) + mono[i + 1:]
                    term = coef * (e * (e - 1))
                    prev = out.get(down)
                    out[down] = term if prev is None else prev + term
        return CPoly(self.nvars, out)

    def rotation_derivative(self, j_rows):
        """Derivative along the flow X -> exp(sJ)X: sum_a (JX)_a d_a.

        ``j_rows`` is J as rows of Fractions.
        """
        rows = [[(b, Fraction(x)) for b, x in enumerate(row) if x]
                for row in j_rows]
        out = {}
        for mono, coef in self.terms.items():
            for a, e in enumerate(mono):
                if not e:
                    continue
                for b, x in rows[a]:
                    # x_b d_a: one power moves from variable a to variable b
                    moved = list(mono)
                    moved[a] -= 1
                    moved[b] += 1
                    target = tuple(moved)
                    term = coef * (e * x)
                    prev = out.get(target)
                    out[target] = term if prev is None else prev + term
        return CPoly(self.nvars, out)

    def evaluate(self, point):
        total = complex(0.0)
        for mono, coef in self.terms.items():
            v = complex(coef)
            for x, e in zip(point, mono):
                if e:
                    v *= x ** e
            total += v
        return total

    def coefficient_vector(self, monomial_index):
        vec = [CRAT_ZERO] * len(monomial_index)
        for mono, coef in self.terms.items():
            vec[monomial_index[mono]] = coef
        return vec

    def __repr__(self):
        if not self.terms:
            return "CPoly(0)"
        bits = []
        for mono in sorted(self.terms):
            factors = "".join(f"x{i}^{e}" for i, e in enumerate(mono) if e)
            bits.append(f"{self.terms[mono]}{factors or '1'}")
        return "CPoly(" + " + ".join(bits) + ")"


def radius_square(nvars):
    terms = {}
    for i in range(nvars):
        mono = [0] * nvars
        mono[i] = 2
        terms[tuple(mono)] = CRAT_ONE
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


def harmonic_decomposition(poly):
    """Split a homogeneous polynomial as sum_j |X|^(2j) h_(d-2j), h harmonic.

    Triangular back-substitution on iterated Laplacians: the m-th Laplacian
    of |X|^(2j) h_(d-2j) is K(m, j) |X|^(2(j-m)) h with an explicit rational
    K, nonzero exactly when m <= j.
    """
    k = poly.nvars
    d = poly.degree()
    if d < 0:
        return []
    top = d // 2

    def kfactor(m, j):
        deg = d - 2 * j
        val = Fraction(1)
        for t in range(m):
            val *= 2 * (j - t) * (2 * (j - t) + 2 * deg + k - 2)
        return val

    lap_powers = [poly]
    for _ in range(top):
        lap_powers.append(lap_powers[-1].laplacian())
    r2 = radius_square(k)
    r2_powers = [CPoly.constant(k, 1)]
    for _ in range(top):
        r2_powers.append(r2_powers[-1] * r2)
    parts = [None] * (top + 1)
    for m in range(top, -1, -1):
        rhs = lap_powers[m]
        for j in range(m + 1, top + 1):
            scale = CRat(kfactor(m, j))
            rhs = rhs - (r2_powers[j - m] * parts[j]).scale(scale)
        parts[m] = rhs.scale(CRat(Fraction(1) / kfactor(m, m)))
    return parts


def harmonic_projection(poly):
    parts = harmonic_decomposition(poly)
    return parts[0] if parts else poly


def harmonic_space_dimension(nvars, degree):
    """dim of homogeneous harmonics: (k+2n-2) (k+n-3)! / (n! (k-2)!)."""
    from math import factorial
    k, n = nvars, degree
    if n == 0:
        return 1
    if n == 1:
        return k
    return (k + 2 * n - 2) * factorial(k + n - 3) // (factorial(n) * factorial(k - 2))


# -- adapted complex coordinates ----------------------------------------------


def gram_schmidt_pairs(j_rows):
    """Orthogonal pairs (Q, JQ) spanning R^k, exact and unnormalized.

    J must be orthogonal and skew; then JQ is automatically orthogonal to
    every previously chosen pair and to Q itself, so only the projection of
    the raw candidate needs computing.
    """
    k = len(j_rows)
    j = [[Fraction(x) for x in row] for row in j_rows]
    chosen = []
    pairs = []
    for cand in range(k):
        if len(pairs) == k // 2:
            break
        v = [Fraction(0)] * k
        v[cand] = Fraction(1)
        for w in chosen:
            num = sum(a * b for a, b in zip(v, w))
            if num:
                den = sum(b * b for b in w)
                v = [a - num / den * b for a, b in zip(v, w)]
        if not any(v):
            continue
        jv = [sum(j[r][c] * v[c] for c in range(k)) for r in range(k)]
        pairs.append((v, jv))
        chosen.append(v)
        chosen.append(jv)
    return pairs


def adapted_coordinates(j_rows):
    """Linear forms z_i = <Q_i, X> + i <J Q_i, X> for the exact pair basis."""
    pairs = gram_schmidt_pairs(j_rows)
    zs = []
    for q, jq in pairs:
        coeffs = [CRat(a, b) for a, b in zip(q, jq)]
        zs.append(CPoly.linear_form(coeffs))
    return zs

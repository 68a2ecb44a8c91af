"""Exact rational bookkeeping for curvature-identity vectors.

Identities among the cubic curvature scalars live in a fixed six-slot
coordinate system B = (C^3, CH, L, R_hat, R_ring, |grad R|^2).  The first
three slots are spectrally determined constants, the last three carry the
genuinely new content; reports surface that split.  All linear algebra is
over Fraction, so ranks and memberships are exact, never thresholded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DegenerateGram, DegreeMismatch, DegreeTooHigh,
                     SymbolAbsent)
from .exactlinalg import det, in_span, rref, solve
from .heatinv import structural_p_decompositions
from .invariants import point_invariants

BASIS = ("C3", "CH", "L", "R_hat", "R_ring", "grad_R_sq")
_INDEX = {name: i for i, name in enumerate(BASIS)}
CONST_SLOTS = 3


def _fr(x):
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class IdentityVector:
    """One linear identity over the six-slot basis.

    ``degree`` is the radial expansion degree the identity came from, when
    it has one; sphere-derived degrees are even, ball-derived odd (the
    family members have even dimension, which fixes the parity).  ``origin``
    is 'sphere' or 'ball' for graded bookkeeping.
    """

    name: str
    coeffs: tuple
    degree: object = None
    origin: str = "sphere"
    provenance: str = "canonical"

    def __post_init__(self):
        if len(self.coeffs) != len(BASIS):
            raise ValueError(f"expected {len(BASIS)} coefficients")
        object.__setattr__(self, "coeffs", tuple(_fr(c) for c in self.coeffs))
        if self.degree is not None:
            parity = self.degree % 2
            expected = 0 if self.origin == "sphere" else 1
            if parity != expected:
                raise ValueError(
                    f"{self.origin} identity {self.name!r} must have "
                    f"{'even' if expected == 0 else 'odd'} degree, got {self.degree}")

    @property
    def const_terms(self):
        return self.coeffs[:CONST_SLOTS]

    @property
    def main_terms(self):
        return self.coeffs[CONST_SLOTS:]

    def evaluate(self, values):
        """Contract against numeric basis values (dict keyed like BASIS)."""
        return float(sum(float(c) * float(values[name])
                         for c, name in zip(self.coeffs, BASIS)))

    def as_dict(self):
        return {
            "name": self.name,
            "degree": self.degree,
            "origin": self.origin,
            "provenance": self.provenance,
            "coeffs": {name: [c.numerator, c.denominator]
                       for name, c in zip(BASIS, self.coeffs)},
            "const_terms": {name: [c.numerator, c.denominator]
                            for name, c in zip(BASIS[:CONST_SLOTS], self.const_terms)},
        }


def density_vector(n):
    """L-degree identity with the quadratic-trace relation folded in.

    Starts life as the sixth normalized-density coefficient being
    spectrally determined; after eliminating |R|^2 the constant block is
    (-64n, 96n(n+2), -n(n+2)(n+4)) against main block (112, -32, -27).
    """
    n = int(n)
    return IdentityVector(
        name="density-r6",
        coeffs=(Fraction(-64 * n), Fraction(96 * n * (n + 2)),
                Fraction(-n * (n + 2) * (n + 4)),
                Fraction(112), Fraction(-32), Fraction(-27)),
        degree=6)


def ricci_square_vector(n):
    """Second-order sphere identity: nC^3 - R_hat/4 + 2 R_ring is determined."""
    n = int(n)
    return IdentityVector(
        name="ricci-square-r2",
        coeffs=(Fraction(n), Fraction(0), Fraction(0),
                Fraction(-1, 4), Fraction(2), Fraction(0)),
        degree=2)


def gradient_square_vector(n):
    """|grad R|^2 itself is second-order spectrally determined."""
    return IdentityVector(
        name="gradient-square-r2",
        coeffs=(Fraction(0),) * 5 + (Fraction(1),),
        degree=2)


def canonical_generators(n):
    """The three spectrally determined identities, as a list."""
    return [density_vector(n), ricci_square_vector(n),
            gradient_square_vector(n)]


def lichnerowicz_vector(n):
    """The closed-manifold integral identity, constants folded through H.

    2C|R|^2 - R_hat - 4 R_ring + |grad R|^2 = 0 pointwise on the family;
    substituting |R|^2 = (2n/3)((n+2)H - C^2) puts 2*(2n/3)(n+2) on CH.
    No radial degree: it does not arise as an expansion coefficient.
    """
    n = int(n)
    return IdentityVector(
        name="lichnerowicz",
        coeffs=(Fraction(-4 * n, 3), Fraction(4 * n, 3) * (n + 2), Fraction(0),
                Fraction(-1), Fraction(-4), Fraction(1)),
        degree=None)


def theta_power_vector(n, k):
    """Sixth coefficient of the k-th density power as an identity vector.

    Multinomial bookkeeping: [r^6](theta^k) = k*A6 + k(k-1)*A2*A4
    + binom(k,3)*A2^3, everything expressed over (C^3, CH, L).
    """
    n = int(n)
    k = int(k)
    if k < 1:
        raise ValueError("power must be positive")
    a6 = {"C3": Fraction(-1, 1296), "CH": Fraction(1, 1080),
          "L": Fraction(-1, 90720)}
    a2a4 = {"C3": Fraction(-1, 432), "CH": Fraction(1, 1080), "L": Fraction(0)}
    a2cube = {"C3": Fraction(-1, 216), "CH": Fraction(0), "L": Fraction(0)}
    binom3 = Fraction(k * (k - 1) * (k - 2), 6)
    coeffs = []
    for slot in ("C3", "CH", "L"):
        coeffs.append(k * a6[slot] + k * (k - 1) * a2a4[slot]
                      + binom3 * a2cube[slot])
    coeffs += [Fraction(0), Fraction(0), Fraction(0)]
    return IdentityVector(name=f"density-power-{k}-r6", coeffs=tuple(coeffs),
                          degree=6, provenance=f"theta_power:{k}")


@dataclass
class MembershipReport:
    rank_generators: int
    rank_with_candidate: int
    member: bool
    combination: object
    graded: bool
    pivot_columns: tuple
    main_submatrix: list
    main_submatrix_det: Fraction
    generators_used: list

    def as_dict(self):
        return {
            "rank_generators": self.rank_generators,
            "rank_with_candidate": self.rank_with_candidate,
            "member": self.member,
            "combination": None if self.combination is None else
                [[c.numerator, c.denominator] for c in self.combination],
            "graded": self.graded,
            "pivot_columns": list(self.pivot_columns),
            "main_submatrix": [[[c.numerator, c.denominator] for c in row]
                               for row in self.main_submatrix],
            "main_submatrix_det": [self.main_submatrix_det.numerator,
                                   self.main_submatrix_det.denominator],
            "generators_used": self.generators_used,
        }


def _main_det(rows):
    if len(rows) == 3:
        return det(rows)
    return Fraction(0)


def rank_and_membership(gens, candidate, graded=False):
    """Exact span test of ``candidate`` against the rows of ``gens``.

    Graded mode restricts the span to generators sharing the candidate's
    degree and origin; a candidate without a degree is never a graded
    member.  The main-term submatrix over (R_hat, R_ring, |grad R|^2) is
    attached because the determined-modulo-constants argument runs through
    its invertibility.
    """
    if graded:
        usable = [g for g in gens
                  if candidate.degree is not None
                  and g.degree == candidate.degree
                  and g.origin == candidate.origin]
    else:
        usable = gens
    rows = [list(g.coeffs) for g in usable]
    if rows:
        _, pivots = rref(rows)
    else:
        pivots = ()
    r0 = len(pivots)
    if rows:
        member, combo = in_span(rows, list(candidate.coeffs))
    else:
        member, combo = (not any(candidate.coeffs)), None
    main_rows = [list(g.main_terms) for g in usable]
    return MembershipReport(
        rank_generators=r0,
        rank_with_candidate=r0 + (not member),
        member=member,
        combination=combo,
        graded=graded,
        pivot_columns=tuple(pivots),
        main_submatrix=main_rows,
        main_submatrix_det=_main_det(main_rows),
        generators_used=[g.name for g in usable])


def eliminate(target, tool, symbol, mode="proper"):
    """Cancel one basis symbol of ``target`` using ``tool``.

    Proper mode insists both vectors carry the same radial degree, which is
    what licenses combining expansion coefficients; rudimentary mode
    combines anyway and stamps the provenance, leaving the degree unset.
    """
    if symbol not in _INDEX:
        raise KeyError(f"unknown symbol {symbol!r}")
    idx = _INDEX[symbol]
    if not tool.coeffs[idx]:
        raise SymbolAbsent(f"tool {tool.name!r} has no {symbol} term")
    if mode == "proper":
        if target.degree is None or tool.degree is None \
                or target.degree != tool.degree:
            raise DegreeMismatch(
                f"cannot properly combine degree {target.degree} with "
                f"degree {tool.degree}")
        degree = target.degree
        provenance = "proper-elimination"
    elif mode == "rudimentary":
        degree = None
        provenance = "rudimentary-elimination"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    lam = target.coeffs[idx] / tool.coeffs[idx]
    coeffs = tuple(t - lam * s for t, s in zip(target.coeffs, tool.coeffs))
    origin = target.origin if target.origin == tool.origin else "mixed"
    if origin == "mixed":
        degree = None
    return IdentityVector(
        name=f"{target.name}-minus-{symbol}-of-{tool.name}",
        coeffs=coeffs, degree=degree, origin=origin if degree is not None
        else target.origin, provenance=provenance)


# -- noise projection ----------------------------------------------------------


def euclidean_gram(vectors):
    return [[sum(a * b for a, b in zip(v.coeffs, w.coeffs)) for w in vectors]
            for v in vectors]


def moment_gram(geometry, vectors):
    """Gram from exact sphere moments of the slot realizations.

    The main slots realize as constant functions, the (C^3, CH, L) slots as
    degree-six direction polynomials.  A vector touching the constant block
    pairs with itself at degree twelve, beyond the moment engine, so it
    raises DegreeTooHigh.  Vectors living purely in the main slots realize
    as constants, and their Gram is the rank-one outer product of their
    values.
    """
    if any(any(v.const_terms) for v in vectors):
        raise DegreeTooHigh(
            "product of two degree-6 slot realizations needs "
            "degree-12 sphere moments")
    pi = point_invariants(geometry)
    values = dict.fromkeys(BASIS[:CONST_SLOTS], 0.0)
    values.update(R_hat=pi.r_hat, R_ring=pi.r_ring, grad_R_sq=pi.grad_r_sq)
    realized = [v.evaluate(values) for v in vectors]
    return [[a * b for b in realized] for a in realized]


@dataclass
class NoiseReport:
    gram_kind: str
    coefficients: list
    projection: tuple
    residual: tuple
    noise_norm_sq: Fraction

    def as_dict(self):
        return {
            "gram_kind": self.gram_kind,
            "coefficients": [[c.numerator, c.denominator]
                             for c in self.coefficients],
            "projection": {n: [c.numerator, c.denominator]
                           for n, c in zip(BASIS, self.projection)},
            "residual": {n: [c.numerator, c.denominator]
                         for n, c in zip(BASIS, self.residual)},
            "noise_norm_sq": [self.noise_norm_sq.numerator,
                              self.noise_norm_sq.denominator],
        }


def noise_wave(candidate, gens, gram=None, gram_kind="euclidean"):
    """Orthogonal split of ``candidate`` against the span of ``gens``.

    Normal equations are solved exactly over Fraction; a singular Gram
    matrix raises instead of being regularized, because a pseudo-inverse
    would silently pick a representative the theory cannot justify.
    """
    if gram is None:
        gram = euclidean_gram(gens)
        gram_kind = "euclidean"
    g = [[_fr(x) for x in row] for row in gram]
    if not gens or not det(g):
        raise DegenerateGram("generator gram matrix is singular")
    rhs = [sum(a * b for a, b in zip(v.coeffs, candidate.coeffs))
           for v in gens]
    sol = solve(g, rhs)
    if sol is None:
        raise DegenerateGram("normal equations inconsistent")
    projection = [Fraction(0)] * len(BASIS)
    for x, v in zip(sol, gens):
        for i, c in enumerate(v.coeffs):
            projection[i] += x * c
    residual = tuple(c - p for c, p in zip(candidate.coeffs, projection))
    norm_sq = sum(r * r for r in residual)
    return NoiseReport(gram_kind=gram_kind, coefficients=list(sol),
                       projection=tuple(projection), residual=residual,
                       noise_norm_sq=norm_sq)


# -- demo vectors for the elimination transcript -------------------------------


def ball_boundary_vector(n):
    """Sphere-averaged boundary r^3 data cast as a ball-problem identity.

    Uses the structural r^3 decomposition of P2
    (``heatinv.structural_p_decompositions``) with tr R'R' replaced by its
    exact average; lives at the odd ball degree n + 1.
    """
    n = int(n)
    avg_p = Fraction(3, n * (n + 2) * (n + 4))
    p2 = structural_p_decompositions(n)["p2"]
    return IdentityVector(
        name=f"ball-boundary-r{n + 1}",
        coeffs=(p2["C3"], p2["CH"], p2["L"],
                Fraction(0), Fraction(0), avg_p * p2["TrRpRp"]),
        degree=n + 1, origin="ball", provenance="boundary-demo")


def ball_volume_vector(n):
    """Sixth density coefficient relabeled at the ball volume degree n + 5."""
    n = int(n)
    return IdentityVector(
        name=f"ball-volume-r{n + 5}",
        coeffs=(Fraction(-1, 1296), Fraction(1, 1080), Fraction(-1, 90720),
                Fraction(0), Fraction(0), Fraction(0)),
        degree=n + 5, origin="ball", provenance="volume-demo")

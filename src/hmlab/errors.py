"""Exception taxonomy shared by all hmlab modules."""


class HmlabError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedCenterDimension(HmlabError):
    """Clifford module requested for a center dimension outside {1, 2, 3}."""


class InvalidMultiplicity(HmlabError):
    """J-map multiplicities (a, b) must be non-negative with a + b >= 1."""


class NotHType(HmlabError):
    """Input algebra violates the Clifford condition J_Z^2 = -|Z|^2 id."""


class NonFiniteGeometry(HmlabError):
    """The connection or curvature built from structure constants is not
    finite (the brackets overflow it), so no invariant of it can be."""


class OrderUnsupported(HmlabError):
    """Derivative or series order beyond what the jet machinery supplies,
    or a series coefficient asked for above the power its window knows."""


class DegreeTooHigh(HmlabError):
    """A degree beyond an exact engine's cap: sphere averages of direction
    polynomials above degree 8, bidegree bases above ``MAX_DEGREE``, and
    moment Grams of vectors touching the degree-6 (C^3, CH, L) slots."""


class ExactOverflow(HmlabError):
    """A step of the int64 polynomial engine (``polynomials.PolyBatch``)
    could form a value past int64, so it stops before forming it."""


class SingularSeries(HmlabError):
    """Series inverse/division with a non-invertible leading coefficient."""


class ZeroLeadingCoefficient(HmlabError):
    """Volume recursion requires A_0 != 0."""


class StepFailure(HmlabError):
    """ODE integration diverged or produced non-finite samples."""


class InvalidSampling(HmlabError):
    """Too few samples, directions or grid cells, a sample or direction
    count or seed that is not an integer, a negative seed, a direction of
    the wrong shape, a radius or Jacobi-flow steps_per_unit not finite and
    > 0, peeled values not finite, peeled radii repeated or powers not
    rising by even gaps within the ladder, a negative harmonic degree, an
    exact linear system or span candidate that is empty, or a Monte Carlo
    quantity that is unknown."""


class DegreeMismatch(HmlabError):
    """Proper elimination attempted across unequal (or absent) degrees, a
    ball identity asked for in odd dimension, where its degree is even, an
    identity whose degree has the wrong parity for its origin, or
    polynomials not all of the degree a batch of them is built for."""


class OutsideDomain(HmlabError):
    """An argument outside what an operation is defined on: a series with
    no coefficient, the log of a series that does not start at power 0
    with 1 or the identity, the exp of a matrix series or of one with a
    nonzero term at a power <= 0, an identity vector without one
    coefficient per basis slot, an elimination mode other than 'proper'
    or 'rudimentary', or a CPoly denominator that is not positive."""


class SymbolAbsent(HmlabError):
    """The requested symbol is not in the identity basis, or the
    elimination tool has zero coefficient for it."""


class DegenerateGram(HmlabError):
    """Inner product is singular on the span of the generators."""


class ZeroLatticeVector(HmlabError):
    """Fourier restriction requires a nonzero lattice vector."""


class NotComplexStructure(HmlabError):
    """J_Z^2 != -id or J_Z is not skew, so Z does not induce an orthogonal
    complex structure on X."""


class DegenerateBoundary(HmlabError):
    """Robin data (A, B) does not define a boundary condition."""


class NonIntegrableWeight(HmlabError):
    """Radial measure weight t^(s-1) with s = (k + 2n)/2 <= 0."""


class ConvergenceFailure(HmlabError):
    """Grid refinement disagrees beyond tolerance."""


class SpectraDiffer(HmlabError):
    """Skew spectra of the two J-maps are not equal as multisets."""


class FamilyMismatch(HmlabError):
    """Operation requires family members sharing (l, a+b)."""


class ConsistencyFailure(HmlabError):
    """A computed object fails a structural check it meets by construction."""


class NonFiniteReport(HmlabError):
    """A report would hold NaN or an infinity, which strict JSON cannot
    write; the command writes no report."""

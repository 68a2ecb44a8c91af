"""Exception taxonomy shared by all hmlab modules, its integer check, and
``checked_real``, its real check, which no bool, string, NaN or ±inf passes."""

import math
import numbers


class HmlabError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedCenterDimension(HmlabError):
    """Clifford module requested for a center dimension not in {1, 2, 3}."""


class InvalidMultiplicity(HmlabError):
    """J-map multiplicities (a, b) must be integers >= 0 with a + b >= 1."""


class NotHType(HmlabError):
    """Input algebra violates the Clifford condition J_Z^2 = -|Z|^2 id."""


class NonFiniteGeometry(HmlabError):
    """A connection or curvature from structure constants (the brackets
    overflow it) not finite, or a space form's kappa not a finite real."""


class OrderUnsupported(HmlabError):
    """An order not an integer in 0..3 for a jet, in 0..5 and within its
    jet for a Jacobi series, or >= 1 for a flow series, or a series
    coefficient asked for above the power its window knows."""


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
    """A sample, direction or eigenvalue count, seed, grid or harmonic degree
    not an integer, too few samples, directions or grid cells, no eigenvalue or
    more than cells, no lattice vector or degree, a negative seed or degree, a
    direction or center vector of the wrong shape, a radial operator's k or
    n not an integer >= 0 or its m no integer, a center entry, mu or
    mu_scale_b not a finite real, a tolerance, radius, steps_per_unit or
    t_domain not finite and > 0, peeled values not finite, peeled radii
    repeated or powers not rising by even gaps within the ladder, an empty
    linear system or span candidate, or an unknown Monte Carlo quantity."""


class DegreeMismatch(HmlabError):
    """Proper elimination attempted across unequal (or absent) degrees, a
    ball identity asked for in a dimension not an even integer >= 2, an
    identity whose degree has the wrong parity for its origin, or
    polynomials not all of the degree a batch of them is built for."""


class OutsideDomain(HmlabError):
    """An argument outside what an operation is defined on: a series with
    no coefficient, the log of a series that does not start at power 0
    with 1 or the identity, the exp of a matrix series or of one with a
    nonzero term at a power <= 0, an identity vector without one
    coefficient per basis slot, an elimination mode other than 'proper'
    or 'rudimentary', a CPoly denominator that is not positive, a series
    offset not an integer, a dimension not an integer >= 1, a V_k count
    not one >= 0, or a V_k density coefficient not a finite real."""


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
    """Robin data (A, B) not two finite reals, or (0, 0), fixing nothing."""


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


def checked_integer(job, name, value, least=-math.inf, most=math.inf,
                    error=InvalidSampling):
    """``value`` as a Python int in ``least``..``most``, the one check of an
    integer argument; a bool counts as no integer.  Else raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{job} needs an integer {name}, got {value!r}")
    if not least <= value <= most:
        bound = f">= {least}" if most == math.inf else f"in {least}..{most}"
        raise error(f"{job} needs {name} {bound}, got {value}")
    return int(value)


def checked_real(job, name, value, above=-math.inf, error=InvalidSampling):
    """``value`` itself if a finite real > ``above``, the one check of a real
    argument; a bool counts as no real number.  Else raises ``error``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not above < value < math.inf):
        bound = "" if above == -math.inf else f" and > {above}"
        raise error(f"{job} needs {name} finite{bound}, got {value!r}")
    return value

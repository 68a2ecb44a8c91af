"""Spectral and asymptotic geometry of a family of harmonic homogeneous spaces.

Layers, bottom up: exact series and linear algebra, the Clifford module
machinery, left-invariant curvature, direction and point invariants, radial
expansions, heat-coefficient decompositions, the exact identity bookkeeping,
polynomial harmonics, radial spectra, and a CLI over all of it.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` before anything loads
numpy.  The package's dense products are too small to gain from a second
thread: on a 2-vCPU host it spun after each threaded product and raised CPU
time by about half, with no gain in wall time.  OpenBLAS reads the variable
once, when it loads, so any earlier value is overwritten here; child
processes inherit it.  If numpy was imported before hmlab, numpy's OpenBLAS
keeps the threads it started with.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .clifford import build_clifford_module, build_j_map
from .errors import *  # noqa: F401,F403
from .geometry import (build_damek_ricci, build_htype_algebra,
                       constant_curvature_geometry, curvature_jet,
                       damek_ricci_geometry, geometry_from_algebra,
                       scale_bracket)
from .heatinv import averaged_boundary_r3, sphere_intrinsic_oracle
from .invariants import (direction_constants, mc_average, point_invariants,
                         sphere_average, verify_average_identities,
                         verify_einstein_identities, verify_harmonicity)
from .radial import (density_series, harmonic_density, harmonic_series,
                     harmonic_trace_c6, jacobi_series, ode_oracle,
                     peel_coefficients, radial_density, shape_trace_series,
                     vk_recursion, volume_series)
from .series import TruncatedSeries
from .sis import (IdentityVector, canonical_generators, eliminate,
                  lichnerowicz_vector, noise_wave, rank_and_membership)
from .spectra import (RadialOperator, build_hnm_basis, conjugacy_check,
                      hnm_multiplicity_oracle, isospectrality_report,
                      laplacian_symbol, operator_for_sector, radial_spectrum)

__version__ = "0.1.0"

"""Spectral and asymptotic geometry of a family of harmonic homogeneous spaces.

Layers, bottom up: exact series and linear algebra, the Clifford module
machinery, left-invariant curvature, direction and point invariants, radial
expansions, heat-coefficient integrands, the exact identity bookkeeping,
polynomial harmonics, radial spectra, and a CLI over all of it.
"""

from .clifford import build_clifford_module, build_j_map, exchange_endomorphism
from .errors import *  # noqa: F401,F403
from .geometry import (build_damek_ricci, build_htype_algebra,
                       constant_curvature_geometry, curvature_jet,
                       damek_ricci_geometry, geometry_from_algebra,
                       scale_bracket)
from .heatinv import (a2_integrand, alpha_beta_parts, averaged_boundary_r3,
                      boundary_decomposition, boundary_polynomials,
                      sphere_intrinsic_oracle)
from .invariants import (direction_constants, mc_average, point_invariants,
                         sphere_average, verify_average_identities,
                         verify_einstein_identities, verify_harmonicity)
from .radial import (density_series, harmonic_density, harmonic_series,
                     harmonic_shape_expectations, harmonic_trace_c6,
                     jacobi_series, ode_oracle, peel_coefficients,
                     radial_density, shape_trace_series, vk_recursion,
                     volume_series)
from .series import TruncatedSeries, det_cofactor
from .sis import (IdentityVector, canonical_generators, eliminate,
                  lichnerowicz_vector, noise_wave, rank_and_membership,
                  theta_power_vector)
from .spectra import (RadialOperator, ball_bundle_spectrum, build_hnm_basis,
                      conjugacy_check, glz_parameter_map,
                      hnm_multiplicity_oracle, isospectrality_report,
                      laplacian_symbol, operator_for_sector, radial_spectrum)

__version__ = "0.1.0"

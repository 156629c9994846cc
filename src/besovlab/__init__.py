"""Spectral approximation lab on discretized compact manifolds.

Best approximation by eigenfunction spans in quadrature L_p norms, dyadic
smooth filter banks, kernel localization checks, and Besov-type
approximation norms with their Jackson/Bernstein/Young verifiers.
"""

from .analysis import (BesovParams, ErrorCache, a_norm, a_norm_continuous,
                       bernstein_ratio, errors_at_cutoffs, interpolation_norm,
                       is_bandlimited, jackson_ratios, k_functional_quadratic,
                       lp_comparator_norm)
from .approx import ApproxResult, best_approx
from .corpus import (CorpusEntry, default_corpus, eigen_pure, lacunary,
                     lacunary_l2_error, manifest, random_bandlimited,
                     square_wave, square_wave_l2_error)
from .filters import FilterFamily, SmoothCutoff, check_partition
from .manifold import (GridFunction, ManifoldModel, build_circle, build_sphere2,
                       build_torus2, lp_norm)
from .mesh import MeshFormatError, icosphere, load_mesh, write_off
from .operators import (DecayFit, KernelMatrix, apply_filter, apply_kernel,
                        build_kernel, fit_decay_constant, kernel_alpha_norms,
                        operator_norm_estimate, weighted_decay_integral,
                        young_apply_check)
from .spectrum import (CoefVector, EigenSystem, apply_power, build_eigensystem,
                       check_orthonormality, project, save_eigensystem,
                       synthesize)

__version__ = "0.1.0"

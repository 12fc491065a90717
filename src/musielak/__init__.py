"""Musielak-Orlicz norms from weight matrices and back, with L1 embeddings.

The package constructs Musielak-Orlicz systems whose Luxemburg norm is
equivalent to the l2 permutation average of a weight matrix, constructs
weight matrices from smooth 2-concave systems, and verifies the norm
equivalences, combinatorial sandwiches and embedding distortions at desk
scale, exactly where enumeration is feasible and by seeded sampling beyond.
"""

from .convex import EquivalenceReport, MusielakSystem, luxemburg_norm
from .perms import (
    AverageResult,
    PermutationSampler,
    WeightMatrix,
    ave_l2,
    ave_max_two,
    ave_max_vector,
    build_b_vector,
    dra,
    dra_sum_bound,
    lemma_matrixnorm_check,
    matrix_norm_a,
    prefix_sum_system,
)
from .construct import (
    ConstructionError,
    FProfile,
    conjugate_inverse_knots,
    fit_concave_profile,
    functions_from_matrix,
    h_reconstruct_check,
    matrix_from_functions,
    matrix_from_profiles,
    power_profile,
    power_system,
    power_profile_value,
    roundtrip_check,
    rows_from_knots,
)
from .embed import (
    distortion_directions,
    distortion_estimate,
    khintchine_sandwich_check,
    psi_image_norm,
)

__version__ = "0.1.0"

"""caliblab: a numerical laboratory for calibration geometry.

Structure forms and cross products for U(m), G2 and Spin(7), irreducible
form-type decompositions with their linearized metric maps, embedded patches
with quadrature-based volume, variation experiments for the volume functional,
and the map-energy (Smith) functionals.
"""

from .exterior import (
    KForm,
    evaluate,
    form_inner,
    hodge_star,
    interior,
    orthonormal_frames,
    wedge,
)
from .structures import (
    G2Kit,
    Spin7Kit,
    UmKit,
    calibration_report,
    cayley_cross,
    chi_3fold,
    comass_sample,
    contraction_identity_check,
    cross_2fold,
    standard_kit,
)
from .decomposition import (
    g2_split_3form,
    g2_split_4form,
    metric_from_3form,
    project_35_7,
    sp7_split_4form,
)
from .submanifold import (
    Box,
    Patch,
    QuadratureRule,
    fd_derivative,
    induced_metric,
    jet_of_F,
    mean_curvature,
    tangent_normal_split,
    volume,
)
from .fields import FormField, SymTensorField, UmBackground, VectorField
from .variation import (
    VariationFamily,
    analytic_first_variation,
    assoc_family_from_beta,
    cayley_anomaly,
    cayley_family_from_gamma,
    chain_consistency,
    coassoc_family_from_gamma,
    minimal_comparison,
    test_variation_derivative,
    theorem_A_experiment,
    theorem_B_defect,
    um_family_from_alpha,
)
from .smith import (
    MapTriple,
    calibration_integral,
    conformality_residual,
    energy_first_variation_domain,
    energy_first_variation_target,
    k_energy,
    k_volume,
    smith_residual,
)

__version__ = "0.1.0"

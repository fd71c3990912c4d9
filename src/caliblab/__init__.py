"""caliblab: a numerical laboratory for calibration geometry.

Structure forms and cross products for U(m), G2 and Spin(7), irreducible
form-type decompositions with their linearized metric maps, embedded patches
with quadrature-based volume, variation experiments for the volume functional,
and the map-energy (Smith) functionals.
"""

from .exterior import (
    form_coeffs,
    from_tensor,
    hodge_star,
    interior,
    minors,
    orthonormal_frames,
    to_tensor,
    wedge,
)
from .structures import (
    Kit,
    calibration_report,
    comass_sample,
    g2_identity_violations,
    spin7_identity_violations,
    standard_kit,
)
from .decomposition import (
    g2_split,
    metric_from_3form,
    project_35_7,
    sp7_split,
)
from .submanifold import (
    Box,
    Patch,
    QuadratureRule,
    fd_derivative,
    jet_of_F,
    mean_curvature,
    normal_projector,
    volume,
)
from .fields import FormField, SymTensorField, UmBackground, VectorField
from .variation import (
    TheoremFamily,
    VariationFamily,
    analytic_first_variation,
    cayley_anomaly,
    chain_consistency,
    minimal_comparison,
    test_variation_derivative,
    theorem_A_experiment,
    theorem_B_defect,
    theorem_family,
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

"""Exact construction and verification of singular 2D Toda solutions (A/C/B)."""

from .config import TodaConfig, make_config
from .exact import (
    BranchCutError,
    CheckFailed,
    ExactScalar,
    Monomial,
    OriginError,
    ZExpr,
)
from .lie import (
    Algebra,
    MonodromyElement,
    Root,
    alpha_from_gamma,
    cartan,
    coordinate_map,
    delta_gamma,
    monodromy_element,
    positive_roots,
)
from .groups import (
    GroupElement,
    UnipotentCoords,
    check_minor_identity,
    classify_by_minors,
    form_matrix,
    is_in_group,
    minor,
    restrict_to_ngamma,
    sample_group_element,
    split_diagonal_unipotent,
    ul_cholesky,
    unipotent_from_coords,
)
from .basis import (
    NuVector,
    WronskianMatrix,
    gram_schmidt_normalizer,
    nu_vector,
    pairing_matrix,
    sigma_vector,
    wronskian,
)
from .solutions import (
    SolutionBundle,
    SolutionParams,
    UnknownForm,
    a_case_form,
    assemble,
    annulus_points,
    characteristic_data,
    full_lambda,
    verify_integrability,
    verify_monodromy,
    verify_pde,
    verify_symmetry,
)

__version__ = "0.1.0"

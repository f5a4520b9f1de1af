"""Exact construction and verification of singular 2D Toda solutions (A/C/B).

The public names below are loaded on first access (PEP 562), so that
``import toda`` and each ``toda`` subcommand load only the submodules they
use; ``from toda import X`` works for every name in ``__all__``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "config": ("TodaConfig", "make_config"),
    "exact": ("BranchCutError", "CheckFailed", "ExactScalar", "Monomial", "OriginError", "ZExpr"),
    "lie": (
        "Algebra",
        "MonodromyElement",
        "Root",
        "alpha_from_gamma",
        "cartan",
        "coordinate_map",
        "delta_gamma",
        "positive_roots",
    ),
    "groups": (
        "GroupElement",
        "UnipotentCoords",
        "check_minor_identity",
        "classify_by_minors",
        "form_matrix",
        "is_in_group",
        "minor",
        "restrict_to_ngamma",
        "sample_group_element",
        "split_diagonal_unipotent",
        "ul_cholesky",
        "unipotent_from_coords",
    ),
    "basis": (
        "NuVector",
        "WronskianMatrix",
        "gram_schmidt_normalizer",
        "nu_vector",
        "pairing_matrix",
        "wronskian",
    ),
    "solutions": (
        "SolutionBundle",
        "SolutionParams",
        "UnknownForm",
        "a_case_form",
        "assemble",
        "annulus_points",
        "characteristic_data",
        "full_lambda",
        "verify",
        "verify_integrability",
        "verify_monodromy",
        "verify_pde",
        "verify_symmetry",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)

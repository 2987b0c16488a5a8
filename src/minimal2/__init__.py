"""Census and certification tools for 2-adic matrix groups with surjective
determinant, the modular-curve genus bookkeeping that goes with them, and
exact arithmetic for the associated elliptic-curve families."""

from .ellcurve import (
    FamilySpec,
    QuadFieldElem,
    WeierstrassCurve,
    family_identity_check,
    load_family_specs,
    quad_sqrt,
    quadfamily_check,
)
from .modcurve import GenusData, adjoin_minus_I, genus, label
from .lie2adic import (
    PrecisionError,
    PrecisionMatrix,
    d_determinant,
    lie_bracket,
    lie_check_all_classes,
    log_exp_round_trip,
    mat_exp,
    mat_log,
)
from .minimality import (
    CensusEntry,
    MinimalityReport,
    census,
    falsify_odd_prime,
    is_minimal,
    maximal_determinant_images,
    nilpotent_lift_check,
    sylow_pro2_subgroup,
    verify_non_two_group_witness,
    verify_unit_square_lemma,
)
from .modmat import gl2_order
from .report import Report, RunConfig, run, verify_all
from .subgroups import OpenSubgroup, ambient_generators, closure

__version__ = "0.1.0"

__all__ = [
    "CensusEntry",
    "FamilySpec",
    "GenusData",
    "MinimalityReport",
    "OpenSubgroup",
    "PrecisionError",
    "PrecisionMatrix",
    "QuadFieldElem",
    "Report",
    "RunConfig",
    "WeierstrassCurve",
    "adjoin_minus_I",
    "ambient_generators",
    "census",
    "closure",
    "d_determinant",
    "falsify_odd_prime",
    "family_identity_check",
    "genus",
    "gl2_order",
    "is_minimal",
    "label",
    "lie_bracket",
    "lie_check_all_classes",
    "load_family_specs",
    "log_exp_round_trip",
    "mat_exp",
    "mat_log",
    "maximal_determinant_images",
    "nilpotent_lift_check",
    "quad_sqrt",
    "quadfamily_check",
    "run",
    "sylow_pro2_subgroup",
    "verify_all",
    "verify_non_two_group_witness",
    "verify_unit_square_lemma",
    "__version__",
]

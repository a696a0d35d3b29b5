"""Theta constants with characteristics, the finite symplectic action on
them, guaranteed-precision evaluation on the Siegel upper half space, the
three stratifying modular forms, and the stratum classifier for genus-4
period matrices."""

from .chars import (
    Characteristic,
    CharTuple,
    all_characteristics,
    add,
    concat,
    even_count,
    n_k,
    odd_count,
    parity,
    product_split_tuple,
    split,
)
from .classify import (
    SplitWitness,
    StratumReport,
    VanishingSet,
    classify,
    classify_from_pattern,
    detect_split,
    vanishing_set,
)
from .errors import CapExceededError
from .forms import (
    FormValue,
    evaluate_forms,
    form_weight,
    transformation_residual,
    transformation_residuals,
)
from .symplectic import (
    OrbitProfile,
    SymplecticInteger,
    SymplecticModTwo,
    act_on_tuple,
    affine_action,
    orbit_bfs,
    orbit_profile,
    random_symplectic,
    standard_generators,
    tuples_equivalent,
)
from .theta import (
    SiegelPoint,
    ThetaValue,
    block_diag,
    even_theta_constants,
    generic_siegel_point,
    point_from_json,
    point_to_json,
    random_siegel_point,
    siegel_action,
    siegel_reduction,
    theta_constant,
    theta_function,
    theta_functions,
    truncation_radius,
    truncation_tail_bound,
    validate_siegel,
)

__version__ = "0.1.0"

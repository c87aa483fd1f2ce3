"""Substitution subshifts, their symmetry groups, and the Robinson tiling."""

from .errors import (
    CapExceeded,
    ScopeError,
    SearchFailure,
    SubsymError,
    ValidationError,
)
from .lattice import (
    Quadrant,
    Rect,
    SignedPerm,
    cone_contains_quadrant,
    line_intersection_finite,
    signed_perm_group,
)
from .substitution import (
    Alphabet,
    Pattern,
    RectSubstitution,
    Seed,
    apply,
    corner_fixed,
    corner_fixing_power,
    fixed_seeds,
    is_bijective,
    is_primitive,
    power,
)
from .points import (
    AddressablePoint,
    ContradictionPair,
    OdometerCoord,
    contradiction_pair,
    half_space_fracture_pair,
    shift_point,
)
from .language import (
    PatchLanguage,
    patch_language,
    periodicity_scan,
    seed_admissible_minimal,
)
from .symmetry import (
    AutDescription,
    SymmetryCandidate,
    SymReport,
    aut_group_description,
    conjugating_relabelings,
    extended_symmetry_check,
    fracture_normal_witness,
    non_axis_fracture_refuter,
    relabel_automorphisms,
    sym_group_report,
    transformed_substitution,
)
from .specio import build_substitution, bundled_substitution, load_bundled, parse_spec

__version__ = "0.1.0"

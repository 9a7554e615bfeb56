"""Periodic 2x2 modular image scrambling: maps, exact periods, analysis, attacks.

The package binds ``modscramble.scramble`` to the function, so
``import modscramble.scramble as m`` gives the function, not the module.
Reach the module with ``importlib.import_module("modscramble.scramble")``.
"""

from .errors import (
    DataError,
    GridShapeError,
    IntegerOverflowError,
    InvalidScramblerError,
    KeyFormatError,
    MathError,
    ModScrambleError,
    ParameterOverflowError,
    PnmFormatError,
    SequenceOverflowError,
    WorkBoundError,
)
from .sequences import FLT_SERIES, INT64_MAX, SequenceFamily, max_index, term, term_mod
from .maps import (
    IDENTITY,
    TransformMap,
    ValidatedMap,
    build_map,
    determinant,
    inverse_mod,
    make_arnold,
    make_fibonacci_q,
    make_flt,
    make_generalized_arnold,
    make_gft,
    make_raw,
    make_triangular,
    mat_mul_mod,
    power_mod,
    validate,
)
from .scramble import (
    ImageGrid,
    RoutePlan,
    ScrambleKey,
    apply_point,
    period,
    plan_unscramble,
    scramble,
    unscramble,
)
from .analysis import (
    EnumerationReport,
    EquivalenceReport,
    OrbitSignature,
    SurveyReport,
    cyclic_classes,
    enumerate_unimodular,
    equivalence_classes,
    orbit_signature,
    pattern_equivalent,
    period_survey,
    standard_family_maps,
)
from .pnm import read_pnm, write_pnm
from .attacks import (
    CompressSurrogate,
    Crop,
    GaussianNoise,
    RecoveryReport,
    RobustnessReport,
    SaltPepper,
    Speckle,
    apply_attack,
    changed_pixels,
    mse,
    psnr,
    recovery_experiment,
    recovery_grid,
    robustness_attacks,
)

__version__ = "0.1.0"

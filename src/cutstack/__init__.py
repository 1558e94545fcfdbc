"""Exact workbench for stacked symbolic towers, odometers, circle
rotations, induced (first-return) transformations, and return-time
matchings between pairs of such systems.

All arithmetic is exact: Fraction for masses and averages, quadratic
surds for rotation angles, and integers everywhere else.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExhausted,
    CutstackError,
    DslError,
    ExhaustedDigits,
    ExhaustedRules,
    HorizonExhausted,
    InadmissiblePair,
    MarginViolation,
    NeedMoreDepth,
    SpecInvalid,
    WindowEdge,
    WindowExhausted,
)
from .digits import OverlayDigits, PeriodicDigits, SeededDigits, zeros
from .specs import (
    StackingSpec,
    StageRule,
    builtin_spec,
    parse_spec,
    parse_spec_json,
    random_spec,
    serialize_spec,
    spec_to_json,
    validate_spec,
)
from .towers import LevelSet, RankOnePoint, RankOneSystem
from .quadratic import Surd, surd_from_cf
from .arithmetic import (
    RotationAngle,
    RotationPoint,
    golden_minus_1,
    induce_odometer_prefix,
    sqrt2_minus_1,
)

__all__ = [
    "BudgetExhausted",
    "CutstackError",
    "DslError",
    "ExhaustedDigits",
    "ExhaustedRules",
    "HorizonExhausted",
    "InadmissiblePair",
    "MarginViolation",
    "NeedMoreDepth",
    "SpecInvalid",
    "WindowEdge",
    "WindowExhausted",
    "OverlayDigits",
    "PeriodicDigits",
    "SeededDigits",
    "zeros",
    "StackingSpec",
    "StageRule",
    "builtin_spec",
    "parse_spec",
    "parse_spec_json",
    "random_spec",
    "serialize_spec",
    "spec_to_json",
    "validate_spec",
    "LevelSet",
    "RankOnePoint",
    "RankOneSystem",
    "Surd",
    "surd_from_cf",
    "RotationAngle",
    "RotationPoint",
    "golden_minus_1",
    "induce_odometer_prefix",
    "sqrt2_minus_1",
    "__version__",
]

"""Exact-rational polyhedral loop scheduling.

The package finds affine loop transformations three ways: an integer
scheduler, its exact rational relaxation with integral rescaling, and a
fusion-driven variant that picks loop permutations by graph coloring and then
repairs scaling, shifts and skews in separate passes.  Everything is exact:
constraint rows and the simplex tableau hold ints, and bounds, solutions and
transforms are `fractions.Fraction`s; no floating point is involved anywhere.
"""

from .farkas import ConstraintSystem, LinearRow
from .fcg import (
    Coloring, FusionConflictGraph, build_fcg, color_fcg, colorable_dimension,
    fusion_probe, permute_and_fuse, to_dot,
)
from .frontend import ParseError, analyze, compute_dependences, loads, parse_program
from .model import (
    AffineTransform, Band, Cut, DependencePolyhedron, Program, SchedulingError, Statement,
)
from .pluto import ScheduleResult, SchedulerConfig, Step, find_hyperplane, schedule
from .postpass import (
    DfpResult, SkewOutcome, dfp_schedule, introduce_skew, scale_and_shift,
)
from .ratlp import ResourceLimitError
from .verify import (
    CorpusInstance, LegalityReport, SuiteReport, brute_force_lexmin,
    check_legality, full_rank, load_corpus, theorem_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTransform",
    "Band",
    "Coloring",
    "ConstraintSystem",
    "CorpusInstance",
    "Cut",
    "DependencePolyhedron",
    "DfpResult",
    "FusionConflictGraph",
    "LegalityReport",
    "LinearRow",
    "ParseError",
    "Program",
    "ResourceLimitError",
    "ScheduleResult",
    "SchedulerConfig",
    "SchedulingError",
    "SkewOutcome",
    "Statement",
    "Step",
    "SuiteReport",
    "analyze",
    "brute_force_lexmin",
    "build_fcg",
    "check_legality",
    "color_fcg",
    "colorable_dimension",
    "compute_dependences",
    "dfp_schedule",
    "find_hyperplane",
    "full_rank",
    "fusion_probe",
    "introduce_skew",
    "load_corpus",
    "loads",
    "parse_program",
    "permute_and_fuse",
    "scale_and_shift",
    "schedule",
    "theorem_suite",
    "to_dot",
    "__version__",
]

"""Weight condition functionals on finite metric measure spaces.

The package builds finite doubling spaces, enumerates ball families,
computes oscillation-type condition functionals (Gurov-Reshetnyak and its
weak positive/negative-part variants, weak A-infinity superlevel and
sublevel conditions, weak reverse Holder constants), runs a discrete
stopping-time decomposition with checkable certificates, and verifies the
resulting decay and self-improvement inequalities numerically.
"""

import gc
import sys

if sys.argv[:1] == ["-m"]:
    # argv[0] is "-m" while ``python -m wgrkit.<module>`` locates its target: the import
    # collects nothing, and ``cli.entry`` freezes the imported heap before collecting again
    gc.disable()

__version__ = "0.1.0"

from .balls import Ball, BallFamily, build_family, dilate, five_r_cover, verify_cover
from .space import (
    DoublingProfile,
    FiniteMetricMeasureSpace,
    doubling_profile,
    grid_1d,
    grid_nd,
    validate_metric,
)
from .weights import (
    ConditionReport,
    Weight,
    average,
    gr_epsilon,
    neg_oscillation_avg,
    pos_oscillation,
    rhi_constant,
    sublevel_alpha,
    weak_ainfty_beta,
    wgr_epsilon,
    wgr_minus_epsilon,
)
from .czdecomp import (
    CZDecomposition,
    JNConstants,
    closure_profile,
    cz_decompose,
    cz_nested,
    jn_constants,
    level_set,
    maximal_function,
    phi_sequence,
)

__all__ = [
    "Ball",
    "BallFamily",
    "ConditionReport",
    "CZDecomposition",
    "DoublingProfile",
    "FiniteMetricMeasureSpace",
    "JNConstants",
    "Weight",
    "average",
    "build_family",
    "closure_profile",
    "cz_decompose",
    "cz_nested",
    "dilate",
    "doubling_profile",
    "five_r_cover",
    "gr_epsilon",
    "grid_1d",
    "grid_nd",
    "jn_constants",
    "level_set",
    "maximal_function",
    "neg_oscillation_avg",
    "phi_sequence",
    "pos_oscillation",
    "rhi_constant",
    "sublevel_alpha",
    "validate_metric",
    "verify_cover",
    "weak_ainfty_beta",
    "wgr_epsilon",
    "wgr_minus_epsilon",
]

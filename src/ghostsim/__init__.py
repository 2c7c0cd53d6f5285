"""ghostsim: two-arm pseudo-thermal ghost-imaging simulator.

Generates speckle-field ensembles, propagates them through a two-arm
object / lens bench, accumulates second-order intensity correlations, and
reproduces the two-photon thin-lens imaging, magnification and visibility
laws of thermal-light ghost imaging.
"""

__version__ = "0.1.0"

from .core import (
    Grid1D,
    SamplingReport,
    SetupGeometry,
    TransmissionMask,
    make_double_slit,
    make_pinhole,
    make_slit,
    validate_sampling,
)
from .optics import ArmPath, Lens, Propagate, SamplingError
from .source import EnsembleConfig, ModeSet, mode_decomposition
from .correlation import (
    CorrelationMap,
    accumulate_mc,
    detector_kernel,
    fluctuation_correlation,
    g2_analytic,
    siegert_normalize,
)
from .experiment import (
    DefocusPoint,
    ImageTrace,
    ThinLensSolution,
    default_image_window,
    defocus_sweep,
    ghost_image_scan,
    peak_position,
    predicted_visibility,
    pseudo_object_scan,
    siegert_scan,
    solve_image_plane,
    solve_thin_lens,
    visibility,
)

__all__ = [
    "__version__",
    "Grid1D",
    "SamplingReport",
    "SetupGeometry",
    "TransmissionMask",
    "make_double_slit",
    "make_pinhole",
    "make_slit",
    "validate_sampling",
    "ArmPath",
    "Lens",
    "Propagate",
    "SamplingError",
    "EnsembleConfig",
    "ModeSet",
    "mode_decomposition",
    "CorrelationMap",
    "accumulate_mc",
    "detector_kernel",
    "fluctuation_correlation",
    "g2_analytic",
    "siegert_normalize",
    "DefocusPoint",
    "ImageTrace",
    "ThinLensSolution",
    "default_image_window",
    "defocus_sweep",
    "ghost_image_scan",
    "peak_position",
    "predicted_visibility",
    "pseudo_object_scan",
    "siegert_scan",
    "solve_image_plane",
    "solve_thin_lens",
    "visibility",
]

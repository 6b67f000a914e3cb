"""Magnetic continuum robot toolkit.

Forward simulation of a cantilevered robot with two rotatable
diametrically magnetized tip magnets under an external dipole field,
minimax calibration of the model's stiffness/field scale factors against
tracking data, and workspace reconstruction/analysis.
"""

__version__ = "0.1.0"

from .beam import BeamFormulation, RobotParams, TipPose, Wrench
from .calibration import (
    CalibrationGrid,
    CalibrationResult,
    ExperimentRecord,
    FitMetrics,
    evaluate_metrics,
    grid_search_calibrate,
    notch_to_angle,
)
from .equilibrium import EquilibriumResult, SolverSettings, solve_tip_pose, sweep
from .geomag import (
    MU0,
    DipoleSource,
    FieldCalibration,
    FieldSample,
    RingMagnet,
    RingPairConfig,
    calibrated_field,
    dipole_field,
    magnet_moment_from_geometry,
    ring_dipole_moment,
    tip_wrench,
)
from .inverse import InverseResult, invert_controls
from .workspace import (
    EllipseFit,
    PlanarTrack,
    WorkspaceStats,
    fit_ellipse,
    merge_biplanar,
    workspace_stats,
)

__all__ = [
    "__version__",
    "MU0",
    "BeamFormulation",
    "CalibrationGrid",
    "CalibrationResult",
    "DipoleSource",
    "EllipseFit",
    "EquilibriumResult",
    "ExperimentRecord",
    "FieldCalibration",
    "FieldSample",
    "FitMetrics",
    "InverseResult",
    "PlanarTrack",
    "RingMagnet",
    "RingPairConfig",
    "RobotParams",
    "SolverSettings",
    "TipPose",
    "WorkspaceStats",
    "Wrench",
    "calibrated_field",
    "dipole_field",
    "evaluate_metrics",
    "fit_ellipse",
    "grid_search_calibrate",
    "invert_controls",
    "magnet_moment_from_geometry",
    "merge_biplanar",
    "notch_to_angle",
    "ring_dipole_moment",
    "solve_tip_pose",
    "sweep",
    "tip_wrench",
    "workspace_stats",
]

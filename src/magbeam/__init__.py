"""Magnetic continuum robot toolkit.

Forward simulation of a cantilevered robot with two rotatable
diametrically magnetized tip magnets under an external dipole field,
minimax calibration of the model's stiffness/field scale factors against
tracking data, and workspace reconstruction/analysis.

``import magbeam`` loads none of the layers: each public name imports
its submodule on first access and is kept here after that.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the submodule that defines it
_EXPORTS = {
    "beam": ("BeamFormulation", "RobotParams", "TipPose", "Wrench"),
    "calibration": ("CalibrationGrid", "CalibrationResult", "ExperimentRecord", "FitMetrics",
                    "evaluate_metrics", "grid_search_calibrate", "notch_to_angle"),
    "equilibrium": ("EquilibriumResult", "SolverSettings", "solve_tip_pose", "sweep"),
    "geomag": ("MU0", "DipoleSource", "FieldCalibration", "FieldSample", "RingMagnet",
               "RingPairConfig", "calibrated_field", "dipole_field",
               "magnet_moment_from_geometry", "ring_dipole_moment", "tip_wrench"),
    "inverse": ("InverseResult", "invert_controls"),
    "workspace": ("EllipseFit", "PlanarTrack", "WorkspaceStats", "fit_ellipse",
                  "merge_biplanar", "workspace_stats"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})

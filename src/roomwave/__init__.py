"""Boundary-informed Bayesian sound field reconstruction.

Reconstructs single-frequency sound fields from sparse microphone
measurements with a plane-wave model whose prior covariance encodes
impedance boundary conditions sampled on a 3D point cloud. Includes joint
hyperparameter estimation, a frequency-domain image-source room simulator,
baseline estimators and a Monte-Carlo benchmark harness.
"""

import os as _os


def _configure_threads():
    """Honor ROOMWAVE_NUM_THREADS before any BLAS gets loaded."""
    value = _os.environ.get("ROOMWAVE_NUM_THREADS")
    if value:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            _os.environ.setdefault(var, value)


_configure_threads()

from ._linalg import FactorizationError
from .bayes import (Hyperparameters, PosteriorModel, PriorCovariance,
                    build_posterior, map_coefficients, predict,
                    prior_covariance_from_matrices)
from .baselines import (LassoConfig, LassoResult, lasso, nearest_neighbor,
                        select_lambda, tikhonov)
from .experiments import (ExperimentConfig, RunResult, nmse, run_sweeps,
                          to_db)
from .geometry import (BoundaryCloud, MicArray, RoomSpec, perturb_positions,
                       sample_boundary, sample_microphones,
                       sample_validation_points)
from .marglik import (MarginalLikelihood, fit_hyperparameters,
                      gradient_check, initial_theta)
from .optimize import MinimizeResult, minimize
from .planewaves import (PlaneWaveDictionary, build_phi, build_phi_tilde,
                         build_psi, evaluate_field, fibonacci_directions,
                         wavenumber)
from .simulator import SimSnapshot, field_at_points, simulate_snapshot

__version__ = "0.1.0"

__all__ = [
    "FactorizationError",
    "Hyperparameters", "PosteriorModel", "PriorCovariance",
    "build_posterior", "map_coefficients", "predict",
    "prior_covariance_from_matrices",
    "LassoConfig", "LassoResult", "lasso", "nearest_neighbor",
    "select_lambda", "tikhonov",
    "ExperimentConfig", "RunResult", "nmse", "run_sweeps", "to_db",
    "BoundaryCloud", "MicArray", "RoomSpec", "perturb_positions",
    "sample_boundary", "sample_microphones", "sample_validation_points",
    "MarginalLikelihood", "fit_hyperparameters",
    "gradient_check", "initial_theta",
    "MinimizeResult", "minimize",
    "PlaneWaveDictionary", "build_phi", "build_phi_tilde", "build_psi",
    "evaluate_field", "fibonacci_directions", "wavenumber",
    "SimSnapshot", "field_at_points", "simulate_snapshot",
]

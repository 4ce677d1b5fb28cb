"""Boundary-informed Bayesian sound field reconstruction.

Reconstructs single-frequency sound fields from sparse microphone
measurements with a plane-wave model whose prior covariance encodes
impedance boundary conditions sampled on a 3D point cloud. Includes joint
hyperparameter estimation, a frequency-domain image-source room simulator,
baseline estimators and a Monte-Carlo benchmark harness.

The package root re-exports nothing: import each name from the module that
defines it (`roomwave.bayes`, `roomwave.experiments`, ...). Importing the
package only applies `ROOMWAVE_NUM_THREADS` before any BLAS gets loaded.
Set it (to 1 for the sizes here): left unset, OpenBLAS starts one thread
per vCPU, and on a 2-vCPU VM one B = 300 marginal-likelihood evaluation
then took 16-74 ms instead of 7-8 ms, a 48-evaluation fit 1.6-2.2 s instead
of 0.33-0.45 s.
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

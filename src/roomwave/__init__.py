"""Boundary-informed Bayesian sound field reconstruction.

Reconstructs single-frequency sound fields from sparse microphone
measurements with a plane-wave model whose prior covariance encodes
impedance boundary conditions sampled on a 3D point cloud. Includes joint
hyperparameter estimation, a frequency-domain image-source room simulator,
baseline estimators and a Monte-Carlo benchmark harness.

The package root re-exports nothing: import each name from the module that
defines it (`roomwave.bayes`, `roomwave.experiments`, ...). Importing the
package only sets the BLAS thread count, before any BLAS gets loaded: one
thread by default. The fits here are many small dense factorizations (one
B x B Cholesky per marginal-likelihood evaluation, B <= 1000), for which
OpenBLAS's own default of one thread per vCPU is the slow setting: on a
2-vCPU VM `roomwave benchmark perfbench/workloads/boundary_fit.yaml --set
seed=25` took 18.2-18.8 s with it against 4.9-5.1 s on one thread. To run
more threads, set any of OMP_NUM_THREADS, OPENBLAS_NUM_THREADS,
MKL_NUM_THREADS, VECLIB_MAXIMUM_THREADS or NUMEXPR_NUM_THREADS before
launch; the package then changes none of them. The default takes effect
only when `roomwave` is imported before numpy, as the `roomwave` command
does.

The CPUs go to processes instead: `roomwave benchmark`
(`experiments.run_sweeps`) spreads the measurements and fits of its
Monte-Carlo runs over one process per CPU of the process's affinity mask,
at most one per fit, each process on one BLAS thread (a forked child keeps
the BLAS already loaded, a spawned child inherits the thread variables). To
run them serially in one process, give it one CPU: `taskset -c 0 roomwave
benchmark ...`.
"""

import os as _os

_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                     "NUMEXPR_NUM_THREADS")


def _configure_threads():
    """Set every BLAS thread variable to 1 unless the caller set (to a
    non-empty value) any of them."""
    if not any(_os.environ.get(var) for var in _THREAD_VARIABLES):
        _os.environ.update(dict.fromkeys(_THREAD_VARIABLES, "1"))


_configure_threads()

"""Operator-surrogate accelerated Kalman inversion for PDE inverse problems.

Subpackages
-----------
grf        Gaussian random field priors (grid, Karhunen-Loeve basis, sampling)
forward    Full-order PDE solvers and the parameter-to-state map
observe    Sensor arrays, synthetic data, noise-weighted misfit
deeponet   Branch/trunk operator surrogate: evaluation, loss, training
uki        Unscented Kalman inversion iteration
adaptive   Anchored surrogate refinement loop (greedy sampling + fine-tuning)
lintheory  Linear-model fixed points and perturbation-bound verification
config     Run configuration, presets, seed streams
harness    End-to-end experiment drivers behind the CLI
cli        Command-line entry point
"""

from opinv.grf import Grid2D, KLBasis, build_kl_basis, sample_field

__version__ = "0.1.0"

__all__ = [
    "Grid2D",
    "KLBasis",
    "build_kl_basis",
    "sample_field",
    "__version__",
]

"""Entropy bounds for non-exchangeable interacting diffusions.

Interaction matrices, the subset growth process that certifies entropy
estimates, exact Gaussian oracles for linear drift, the concrete structural
bounds, and Euler-Maruyama simulation, all deterministic under a seed.
"""

__version__ = "0.1.0"

from .bounds import (BoundReport, ModelConstants, avg_entropy_bound,
                     gaussian_fk_constants, h3_bound, lsi_convex, lsi_torus,
                     max_entropy_bound, percolation_entropy_bound,
                     reversed_variant, setwise_bound, sharper_avg_bound,
                     weighted_avg_bound)
from .gaussian import (GaussianModel, avg_entropy, avg_entropy_sandwich,
                       clique_lower, d_T_quadrature, gaussian_kl, max_upper, sigma_T,
                       sigma_T_quadrature, subset_entropies)
from .matrix import (Graph, InteractionMatrix, SubsetState, build_mean_field,
                     build_random_walk, build_sequential, load_matrix, p_xi,
                     q_xi, sample_erdos_renyi, save_matrix, validate)
from .percolation import (PercolationModel, exact_expectations, expectation_bounds,
                          functional_values, generator_apply, mc_expectation,
                          yule_second_moment)
from .sde import DriftSpec, SimConfig, simulate_particles, simulate_projection
from .verify import run_suite

__all__ = [
    "__version__",
    "BoundReport", "ModelConstants", "avg_entropy_bound",
    "gaussian_fk_constants", "h3_bound", "lsi_convex", "lsi_torus", "max_entropy_bound",
    "percolation_entropy_bound", "reversed_variant", "setwise_bound",
    "sharper_avg_bound", "weighted_avg_bound",
    "GaussianModel", "avg_entropy", "avg_entropy_sandwich", "clique_lower",
    "d_T_quadrature", "gaussian_kl", "max_upper", "sigma_T", "sigma_T_quadrature",
    "subset_entropies",
    "Graph", "InteractionMatrix", "SubsetState", "build_mean_field",
    "build_random_walk", "build_sequential", "load_matrix", "p_xi", "q_xi",
    "sample_erdos_renyi", "save_matrix", "validate",
    "PercolationModel", "exact_expectations", "expectation_bounds",
    "functional_values", "generator_apply", "mc_expectation", "yule_second_moment",
    "DriftSpec", "SimConfig", "simulate_particles", "simulate_projection",
    "run_suite",
]

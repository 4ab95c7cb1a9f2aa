"""Multi-objective design-space-exploration optimisers."""

from repro.optim.annealing import SimulatedAnnealing
from repro.optim.base import (
    CachingEvaluator,
    Evaluation,
    ObjectiveFn,
    OptimizationResult,
    Optimizer,
)
from repro.optim.bayesopt import SmsEgoBayesOpt
from repro.optim.exhaustive import ExhaustiveSearch
from repro.optim.fidelity import (
    FidelityStats,
    MultiFidelityEvaluator,
    fidelity_stats,
)
from repro.optim.genetic import NsgaII
from repro.optim.gp import (
    GaussianProcess,
    GpStats,
    MultiObjectiveGP,
    gp_stats,
    kernel_from_sq,
    pairwise_sq,
    se_kernel,
)
from repro.optim.hypervolume import hypervolume, hypervolume_contribution
from repro.optim.pareto import (
    crowding_distance,
    dominates,
    non_dominated_mask,
    non_dominated_sort,
    pareto_front,
    pareto_indices,
)
from repro.optim.random_search import RandomSearch
from repro.optim.rl import ReinforceSearch
from repro.optim.space import Assignment, DesignSpace, Dimension

__all__ = [
    "Assignment",
    "DesignSpace",
    "Dimension",
    "Optimizer",
    "OptimizationResult",
    "Evaluation",
    "ObjectiveFn",
    "CachingEvaluator",
    "MultiFidelityEvaluator",
    "FidelityStats",
    "fidelity_stats",
    "SmsEgoBayesOpt",
    "NsgaII",
    "SimulatedAnnealing",
    "RandomSearch",
    "ReinforceSearch",
    "ExhaustiveSearch",
    "GaussianProcess",
    "GpStats",
    "MultiObjectiveGP",
    "gp_stats",
    "kernel_from_sq",
    "pairwise_sq",
    "se_kernel",
    "hypervolume",
    "hypervolume_contribution",
    "dominates",
    "non_dominated_mask",
    "non_dominated_sort",
    "pareto_front",
    "pareto_indices",
    "crowding_distance",
]

"""Multi-objective design-space-exploration optimisers."""

from repro import _lazy_exports

_EXPORTS = {
    "Assignment": "space",
    "DesignSpace": "space",
    "Dimension": "space",
    "Optimizer": "base",
    "OptimizationResult": "base",
    "Evaluation": "base",
    "ObjectiveFn": "base",
    "CachingEvaluator": "base",
    "MultiFidelityEvaluator": "fidelity",
    "SmsEgoBayesOpt": "bayesopt",
    "NsgaII": "genetic",
    "SimulatedAnnealing": "annealing",
    "RandomSearch": "random_search",
    "ReinforceSearch": "rl",
    "ExhaustiveSearch": "exhaustive",
    "GaussianProcess": "gp",
    "MultiObjectiveGP": "gp",
    "kernel_from_sq": "gp",
    "pairwise_sq": "gp",
    "se_kernel": "gp",
    "hypervolume": "hypervolume",
    "dominates": "pareto",
    "non_dominated_mask": "pareto",
    "non_dominated_sort": "pareto",
    "crowding_distance": "pareto",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)

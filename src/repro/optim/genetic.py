"""NSGA-II-style multi-objective genetic algorithm.

Section VII notes the Bayesian optimiser in Phase 2 is replaceable by
genetic algorithms [88]; this implementation provides that alternative
(and an ablation point): fast non-dominated sorting, crowding-distance
selection, uniform crossover and per-gene step mutation over the
ordered-categorical space.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.optim.base import CachingEvaluator, Optimizer
from repro.optim.pareto import crowding_distance, non_dominated_sort
from repro.optim.space import Assignment


class NsgaII(Optimizer):
    """NSGA-II over a categorical design space, budgeted by evaluations."""

    name = "genetic"

    def __init__(self, space, seed: int = 0, population_size: int = 16,
                 crossover_rate: float = 0.9, mutation_rate: float = 0.2):
        super().__init__(space, seed)
        if population_size < 4:
            raise ConfigError("population_size must be at least 4")
        if not 0.0 <= crossover_rate <= 1.0:
            raise ConfigError("crossover_rate must be in [0, 1]")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ConfigError("mutation_rate must be in [0, 1]")
        self.population_size = population_size
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate

    # ------------------------------------------------------------------
    def run(self, evaluator: CachingEvaluator,
            rng: np.random.Generator) -> None:
        # Offspring creation depends only on the parents and the RNG,
        # never on the children's objectives, so whole generations are
        # evaluated as one batch.
        initial = evaluator.space.sample(rng, self.population_size)
        population: List[Tuple[Assignment, np.ndarray]] = [
            (point, objectives)
            for point, objectives in zip(initial,
                                         evaluator.evaluate_batch(initial))
            if objectives is not None
        ]

        stalled_generations = 0
        while not evaluator.exhausted and population:
            used_before = evaluator.evaluations_used
            offspring = self._make_offspring(population, rng)
            evaluated = [
                (child, objectives)
                for child, objectives in zip(
                    offspring, evaluator.evaluate_batch(offspring))
                if objectives is not None
            ]
            population = self._select(population + evaluated)
            # In spaces smaller than the budget, whole generations can be
            # cache hits; stop once evolution cannot reach new points.
            if evaluator.evaluations_used == used_before:
                stalled_generations += 1
                if stalled_generations >= 10:
                    break
            else:
                stalled_generations = 0

    # ------------------------------------------------------------------
    def _make_offspring(self, population: List[Tuple[Assignment, np.ndarray]],
                        rng: np.random.Generator) -> List[Assignment]:
        children: List[Assignment] = []
        while len(children) < self.population_size:
            mother = self._tournament(population, rng)
            father = self._tournament(population, rng)
            if rng.random() < self.crossover_rate:
                child = self._crossover(mother, father, rng)
            else:
                child = dict(mother)
            child = self._mutate(child, rng)
            children.append(child)
        return children

    def _tournament(self, population: List[Tuple[Assignment, np.ndarray]],
                    rng: np.random.Generator) -> Assignment:
        i, j = rng.integers(len(population), size=2)
        a, b = population[i], population[j]
        objectives = np.vstack([a[1], b[1]])
        fronts = non_dominated_sort(objectives)
        winner = a if 0 in fronts[0] and 1 not in fronts[0] else (
            b if 1 in fronts[0] and 0 not in fronts[0] else
            (a if rng.random() < 0.5 else b))
        return winner[0]

    def _crossover(self, mother: Assignment, father: Assignment,
                   rng: np.random.Generator) -> Assignment:
        return {name: (mother[name] if rng.random() < 0.5 else father[name])
                for name in mother}

    def _mutate(self, child: Assignment,
                rng: np.random.Generator) -> Assignment:
        out = dict(child)
        for dim in self.space.dimensions:
            if rng.random() < self.mutation_rate:
                index = dim.index_of(out[dim.name])
                step = int(rng.choice((-1, 1)))
                new_index = int(np.clip(index + step, 0, len(dim.values) - 1))
                out[dim.name] = dim.values[new_index]
        return out

    def _select(self, merged: List[Tuple[Assignment, np.ndarray]]
                ) -> List[Tuple[Assignment, np.ndarray]]:
        objectives = np.vstack([m[1] for m in merged])
        fronts = non_dominated_sort(objectives)
        selected: List[Tuple[Assignment, np.ndarray]] = []
        for front in fronts:
            if len(selected) + len(front) <= self.population_size:
                selected.extend(merged[i] for i in front)
                continue
            remaining = self.population_size - len(selected)
            if remaining > 0:
                crowd = crowding_distance(objectives[front])
                order = np.argsort(-crowd, kind="stable")
                selected.extend(merged[front[i]] for i in order[:remaining])
            break
        return selected

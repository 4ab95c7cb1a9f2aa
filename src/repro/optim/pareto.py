"""Pareto-dominance utilities (minimisation convention).

All multi-objective code in this package minimises every objective;
callers negate maximisation objectives (e.g. success rate) before entry.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if ``a`` Pareto-dominates ``b`` (<= everywhere, < somewhere)."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.shape != b_arr.shape:
        raise ValueError(f"shape mismatch: {a_arr.shape} vs {b_arr.shape}")
    return bool(np.all(a_arr <= b_arr) and np.any(a_arr < b_arr))


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of Pareto-optimal rows of ``points`` (n x d).

    Duplicate rows are all retained if optimal.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array (n x d)")
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    # Vectorised pairwise dominance: le[i, j] = pts[i] <= pts[j] in all
    # dims, lt[i, j] = pts[i] < pts[j] in some dim.
    le = np.all(pts[:, None, :] <= pts[None, :, :], axis=2)
    lt = np.any(pts[:, None, :] < pts[None, :, :], axis=2)
    dominated = np.any(le & lt, axis=0)
    return ~dominated


def non_dominated_sort(points: np.ndarray) -> List[List[int]]:
    """Fast non-dominated sorting (NSGA-II): ranks of indices.

    Returns a list of fronts; front 0 is the Pareto set, front 1 the
    Pareto set after removing front 0, and so on.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(pts[i], pts[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(pts[j], pts[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: List[List[int]] = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        nxt: List[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


def crowding_distance(points: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance for a set of points (one front).

    Boundary points receive infinity so selection preserves extremes.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if n == 0:
        return np.zeros(0)
    distance = np.zeros(n)
    for dim in range(d):
        order = np.argsort(pts[:, dim], kind="stable")
        spread = pts[order[-1], dim] - pts[order[0], dim]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if spread <= 0 or n < 3:
            continue
        for rank in range(1, n - 1):
            gap = pts[order[rank + 1], dim] - pts[order[rank - 1], dim]
            distance[order[rank]] += gap / spread
    return distance

"""Hypervolume computation (minimisation convention).

SMS-EGO scores candidates by the hypervolume enclosed between the Pareto
set and a fixed reference point that all points must dominate.  We
implement:

* an exact 2-D sweep (O(n log n));
* an exact 3-D sweep maintaining an incremental 2-D staircase -- the
  hot path for the (success, latency, power) objective space;
* an exact recursive slicing algorithm for d >= 4 (WFG-style without
  the advanced pruning -- fine for the Pareto-set sizes BO produces);
* 3-D exclusive contributions of a whole candidate pool, scored against
  one decomposition of the non-dominated region into disjoint boxes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple

import numpy as np

from repro.optim.pareto import non_dominated_mask


def hypervolume(points: np.ndarray, reference: Sequence[float]) -> float:
    """Exact hypervolume of ``points`` w.r.t. ``reference`` (minimisation).

    Points not strictly dominating the reference are ignored.  Dominated
    points are harmless (they add no volume) but are pruned for speed.
    """
    ref = np.asarray(reference, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be 2-D (n x d)")
    if ref.shape != (pts.shape[1],):
        raise ValueError(
            f"reference dim {ref.shape} does not match points dim {pts.shape[1]}")
    if pts.shape[0] == 0:
        return 0.0
    d = pts.shape[1]
    if d == 3:
        # The staircase sweep skips dominated and out-of-reference
        # points as it goes; no filtering or pruning pass needed.
        return _hypervolume_3d(pts, ref)
    # Points at or beyond the reference contribute nothing; drop them.
    pts = pts[np.all(pts < ref, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    if d == 1:
        return float(ref[0] - pts[:, 0].min())
    if d == 2:
        return _hypervolume_2d(pts, ref)
    # Pruning once at the top level keeps the recursion small; the 2-D
    # base case is robust to dominated points, so slabs need no pruning.
    pts = pts[non_dominated_mask(pts)]
    return _hypervolume_recursive(pts, ref)


def _hypervolume_2d(points: np.ndarray, reference: np.ndarray) -> float:
    """Sweep over the first objective; tolerates dominated points.

    Fully vectorised: after sorting by x, only strictly-decreasing
    running-minimum y values add area, and each adds a rectangle of
    width ``ref_x - x`` and height equal to the decrease.
    """
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    # Clamp at the reference so points at/beyond it contribute nothing.
    running_min = np.minimum.accumulate(
        np.minimum(points[order, 1], reference[1]))
    prev = np.concatenate(([reference[1]], running_min[:-1]))
    delta = prev - running_min
    mask = delta > 0
    return float(((reference[0] - xs[mask]) * delta[mask]).sum())


def _hypervolume_3d(points: np.ndarray, reference: np.ndarray) -> float:
    """Sweep along z, maintaining the dominated 2-D area incrementally.

    Points are visited in ascending z; between consecutive z values the
    swept volume is ``area * dz`` where ``area`` is the 2-D hypervolume
    of the (x, y) staircase accumulated so far.  Inserting a point into
    the staircase updates the area in O(removed + log n) scalar work,
    so the whole sweep is O(n log n) -- no per-slab 2-D recomputation.

    Dominated points and points at/beyond the reference are skipped as
    they are encountered, so callers need no filtering pass.
    """
    ref_x, ref_y, ref_z = (float(reference[0]), float(reference[1]),
                           float(reference[2]))
    rows = points.tolist()
    rows.sort(key=lambda row: row[2])
    xs: list = []   # staircase x, ascending
    ys: list = []   # matching y, strictly descending
    area = 0.0
    total = 0.0
    prev_z = None
    for x, y, z in rows:
        if x >= ref_x or y >= ref_y or z >= ref_z:
            continue
        if prev_z is None:
            prev_z = z
        elif z > prev_z:
            total += area * (z - prev_z)
            prev_z = z
        i = bisect_left(xs, x)
        if i > 0 and ys[i - 1] <= y:
            continue  # weakly dominated in (x, y) => dominated in 3-D
        # Walk the points the new one dominates, summing the area it
        # gains over each staircase step before replacing them.
        j = i
        gained = 0.0
        step_y = ys[i - 1] if i > 0 else ref_y
        left = x
        while j < len(xs) and ys[j] >= y:
            gained += (xs[j] - left) * (step_y - y)
            step_y = ys[j]
            left = xs[j]
            j += 1
        right = xs[j] if j < len(xs) else ref_x
        gained += (right - left) * (step_y - y)
        if gained <= 0.0:
            continue  # degenerate tie; nothing new is covered
        area += gained
        xs[i:j] = [x]
        ys[i:j] = [y]
    if prev_z is not None:
        total += area * (ref_z - prev_z)
    return float(total)


def _hypervolume_recursive(points: np.ndarray, reference: np.ndarray) -> float:
    """Slice along the last objective and integrate (d-1)-volumes."""
    last = points.shape[1] - 1
    order = np.argsort(points[:, last], kind="stable")
    pts = points[order]
    total = 0.0
    for i in range(pts.shape[0]):
        z_lo = pts[i, last]
        z_hi = pts[i + 1, last] if i + 1 < pts.shape[0] else reference[last]
        depth = z_hi - z_lo
        if depth <= 0:
            continue
        slab = pts[: i + 1, :last]
        if last == 2:
            slab_volume = _hypervolume_2d(slab, reference[:2])
        else:
            slab_volume = hypervolume(slab, reference[:last])
        total += depth * slab_volume
    return float(total)


def _nondominated_boxes(points: np.ndarray, reference: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Disjoint boxes tiling the 3-D region ``points`` leave undominated.

    The region is everything below ``reference`` that no point weakly
    dominates.  It is swept in ascending z with the staircase
    :func:`_hypervolume_3d` keeps.  Between staircase points the free
    (x, y) cross-section is a set of rectangles ``[x_lo, x_hi) x
    (-inf, y_hi)``, one per gap.  Inserting a point closes the gap
    rectangles it changes (the one its x falls in, plus one per
    staircase point it dominates) as boxes ending at its z, and opens
    two in their place; the rectangles still open at the end close at
    the reference.  So n points yield at most ``2n + 1`` boxes.

    Returns ``(lower, upper)``, two (k x 3) arrays of box corners.  The
    lower corners may be ``-inf`` (the y lower bound always is); the
    upper corners are finite.  Points at/beyond the reference and
    weakly dominated points are skipped, as in :func:`_hypervolume_3d`.
    """
    ref_x, ref_y, ref_z = (float(reference[0]), float(reference[1]),
                           float(reference[2]))
    rows = points.tolist()
    rows.sort(key=lambda row: row[2])
    xs: list = []            # staircase x, ascending
    ys: list = []            # matching y, strictly descending
    opened = [-np.inf]       # z at which each gap rectangle opened
    boxes: List[Tuple[float, ...]] = []

    def close(g: int, z_hi: float) -> None:
        # Gap g spans [xs[g - 1], xs[g]) below ys[g - 1]; -inf, ref_x
        # and ref_y stand in past either end of the staircase.
        boxes.append((xs[g - 1] if g > 0 else -np.inf, -np.inf, opened[g],
                      xs[g] if g < len(xs) else ref_x,
                      ys[g - 1] if g > 0 else ref_y, z_hi))

    for x, y, z in rows:
        if x >= ref_x or y >= ref_y or z >= ref_z:
            continue
        i = bisect_left(xs, x)
        if i > 0 and ys[i - 1] <= y:
            continue  # weakly dominated in (x, y) => dominated in 3-D
        if i < len(xs) and xs[i] == x and ys[i] <= y:
            continue  # same x, no lower y: weakly dominated too
        k = i
        while k < len(xs) and ys[k] >= y:
            k += 1
        for g in range(i, k + 1):
            if opened[g] < z:  # a gap opened at this z has no volume
                close(g, z)
        xs[i:k] = [x]
        ys[i:k] = [y]
        opened[i:k + 1] = [z, z]
    for g in range(len(opened)):
        close(g, ref_z)
    table = np.array(boxes)
    return table[:, :3], table[:, 3:]


def hypervolume_contributions(points: np.ndarray, candidates: np.ndarray,
                              reference: Sequence[float]) -> np.ndarray:
    """Exclusive hypervolume contribution of each candidate w.r.t. ``points``.

    The contribution of ``c`` is the volume of its box ``[c, reference)``
    that ``points`` leave undominated.  For d = 3 that region is built
    once as disjoint boxes (:func:`_nondominated_boxes`), and every
    candidate is scored in one vectorised pass as the summed overlap of
    its box with them,

        ``contrib(c) = sum_b prod_k max(0, hi_bk - max(lo_bk, c_k))``.

    Every term is non-negative, so nothing cancels and small
    contributions keep full relative precision.  Other dimensions use
    the WFG exclusive-volume identity per candidate,
    ``prod(ref - c) - HV({max(p, c) : p in points})``.  Candidates
    weakly dominated by ``points`` (or at/beyond the reference) are
    screened out vectorised and contribute exactly zero.
    """
    ref = np.asarray(reference, dtype=float)
    cands = np.atleast_2d(np.asarray(candidates, dtype=float))
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or cands.shape[1] != ref.shape[0]:
        raise ValueError("points must be 2-D and candidate dims must "
                         "match the reference")
    out = np.zeros(cands.shape[0])
    inside = np.all(cands < ref, axis=1)
    if pts.shape[0] == 0:
        out[inside] = np.prod(ref - cands[inside], axis=1)
        return out
    # Weak dominance screen: contribution is zero iff some existing
    # point is <= the candidate in every objective.  (Built one
    # objective column at a time: a reduction over a trailing axis of
    # length d is several times slower than d elementwise passes.)
    covered = pts[:, 0] <= cands[:, 0, None]
    for k in range(1, ref.shape[0]):
        covered &= pts[:, k] <= cands[:, k, None]
    live = np.flatnonzero(inside & ~covered.any(axis=1))
    if live.size == 0:
        return out
    if ref.shape[0] == 3:
        lower, upper = _nondominated_boxes(pts, ref)
        volume = np.ones((live.size, lower.shape[0]))
        for k in range(3):
            side = upper[:, k] - np.maximum(lower[:, k], cands[live, k, None])
            volume *= np.maximum(side, 0.0, out=side)
        out[live] = volume.sum(axis=1)
        return out
    boxes = np.prod(ref[None, :] - cands[live], axis=1)
    for box, i in zip(boxes, live):
        clipped = np.maximum(pts, cands[i])
        out[i] = max(0.0, float(box) - hypervolume(clipped, ref))
    return out

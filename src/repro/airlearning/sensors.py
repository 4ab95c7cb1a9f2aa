"""Raycast range sensor: the visual front end of the simulator.

The real Air Learning policy consumes RGB frames; the information those
frames carry for navigation is obstacle bearing/clearance.  The
simulator substitutes a ring of forward-biased raycasts returning
normalised clearances -- the same decision-relevant signal at a tiny
fraction of the cost, which is what lets the CEM trainer run in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.airlearning.arena import Arena
from repro.errors import ConfigError

#: Default number of rays and field of view (radians).
DEFAULT_NUM_RAYS = 12
DEFAULT_FOV = math.pi  # forward 180 degrees

#: Spatial frequencies of the deterministic sensor-noise field (1/m).
#: The classic shader-noise constants: irrational enough that the
#: perturbation decorrelates between nearby positions and rays.
NOISE_FREQ_X = 12.9898
NOISE_FREQ_Y = 78.233


def apply_sensor_noise(rays: np.ndarray, noise: float,
                       x, y) -> np.ndarray:
    """Perturb normalised ray readings with a deterministic noise field.

    The perturbation is ``noise * sin(FX*x + FY*y + ray_index)`` -- a
    pure elementwise function of the UAV position and ray index, with no
    RNG state.  Determinism keeps rollouts exactly reproducible and
    resume-by-replay bit-identical; using only length-independent
    elementwise kernels keeps the scalar and vectorised environments
    bit-equal (the scalar path passes float ``x``/``y`` and ``(R,)``
    rays, the vec path ``(L,)`` positions and ``(L, R)`` rays -- both
    broadcast through the same expression).

    Args:
        rays: Normalised clearances, shape ``(R,)`` or ``(L, R)``.
        noise: Perturbation amplitude in normalised-range units.
        x, y: UAV position -- floats (scalar path) or ``(L,)`` arrays.

    Returns:
        The perturbed readings, clipped back into ``[0, 1]``.
    """
    phase = np.asarray(NOISE_FREQ_X * x + NOISE_FREQ_Y * y)
    offsets = phase[..., None] + np.arange(rays.shape[-1])
    return np.clip(rays + noise * np.sin(offsets), 0.0, 1.0)


@dataclass(frozen=True)
class RaycastSensor:
    """A planar multi-ray range sensor."""

    num_rays: int = DEFAULT_NUM_RAYS
    fov_rad: float = DEFAULT_FOV
    max_range_m: float = 8.0

    def __post_init__(self) -> None:
        if self.num_rays < 1:
            raise ConfigError("num_rays must be positive")
        if not 0 < self.fov_rad <= 2 * math.pi:
            raise ConfigError("fov_rad must be in (0, 2*pi]")
        if self.max_range_m <= 0:
            raise ConfigError("max_range_m must be positive")
        # The body-frame ray offsets never change for a given sensor;
        # computing the linspace once here (the dataclass is frozen, so
        # via object.__setattr__) keeps it off the per-step hot path.
        if self.num_rays == 1:
            offsets = np.zeros(1)
        else:
            offsets = np.linspace(-self.fov_rad / 2, self.fov_rad / 2,
                                  self.num_rays)
        offsets.setflags(write=False)
        object.__setattr__(self, "_offsets", offsets)

    def ray_angles(self, heading: float) -> np.ndarray:
        """World-frame angles of each ray given the UAV heading."""
        return heading + self._offsets

    def sense(self, arena: Arena, x: float, y: float,
              heading: float) -> np.ndarray:
        """Normalised clearances in [0, 1] along each ray (1 = clear)."""
        readings = np.empty(self.num_rays)
        for i, angle in enumerate(self.ray_angles(heading)):
            readings[i] = self._cast(arena, x, y, angle) / self.max_range_m
        return readings

    def sense_batch(self, size_m: float, x: np.ndarray, y: np.ndarray,
                    heading: np.ndarray, obstacle_x: np.ndarray,
                    obstacle_y: np.ndarray, obstacle_radius: np.ndarray,
                    obstacle_mask: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`sense` over a batch of lanes.

        Computes all rays x all obstacles for every lane with broadcast
        ray/circle and ray/wall intersections, bit-identical to the
        per-ray scalar path (same elementary operations in the same
        order; ``min`` is exact so reduction order is free).

        Args:
            size_m: Arena size shared by every lane (one scenario).
            x, y, heading: Lane state arrays of shape ``(L,)``.
            obstacle_x, obstacle_y, obstacle_radius: Padded per-lane
                obstacle arrays of shape ``(L, M)``.
            obstacle_mask: Boolean validity mask of shape ``(L, M)``
                (padding slots are ``False``).

        Returns:
            Normalised clearances of shape ``(L, num_rays)``.
        """
        angles = heading[:, None] + self._offsets[None, :]      # (L, R)
        dx = np.cos(angles)
        dy = np.sin(angles)
        px = x[:, None]
        py = y[:, None]

        distance = np.full(angles.shape, self.max_range_m)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Walls: same guards as the scalar `_wall_hits` generator.
            tx = np.where(dx > 1e-12, (size_m - px) / dx,
                          np.where(dx < -1e-12, -px / dx, np.inf))
            ty = np.where(dy > 1e-12, (size_m - py) / dy,
                          np.where(dy < -1e-12, -py / dy, np.inf))
            distance = np.minimum(distance, tx)
            distance = np.minimum(distance, ty)

            # Obstacles: analytic ray/circle intersection, broadcast to
            # (L, R, M) with the scalar `_circle_hit` op-for-op.
            ox = px - obstacle_x                                 # (L, M)
            oy = py - obstacle_y
            b = 2.0 * (ox[:, None, :] * dx[:, :, None]
                       + oy[:, None, :] * dy[:, :, None])        # (L, R, M)
            c = (ox * ox + oy * oy
                 - obstacle_radius * obstacle_radius)            # (L, M)
            disc = b * b - 4.0 * c[:, None, :]
            root = np.sqrt(np.where(disc < 0, 0.0, disc))
            t1 = (-b - root) / 2.0
            t2 = (-b + root) / 2.0
            hit = np.where(t1 > 1e-9, t1,
                           np.where(t2 > 1e-9, t2, np.inf))
            hit = np.where((disc >= 0) & obstacle_mask[:, None, :],
                           hit, np.inf)
        if hit.shape[2]:
            distance = np.minimum(distance, hit.min(axis=2))
        return np.maximum(0.0, distance) / self.max_range_m

    def _cast(self, arena: Arena, x: float, y: float, angle: float) -> float:
        dx, dy = math.cos(angle), math.sin(angle)
        distance = self.max_range_m

        # Walls: intersect with the four arena boundary lines.
        for wall_distance in self._wall_hits(arena, x, y, dx, dy):
            distance = min(distance, wall_distance)

        # Obstacles: analytic ray/circle intersection.
        for obstacle in arena.obstacles:
            hit = self._circle_hit(x, y, dx, dy, obstacle.x, obstacle.y,
                                   obstacle.radius)
            if hit is not None:
                distance = min(distance, hit)
        return max(0.0, distance)

    @staticmethod
    def _wall_hits(arena: Arena, x: float, y: float, dx: float, dy: float):
        if dx > 1e-12:
            yield (arena.size_m - x) / dx
        elif dx < -1e-12:
            yield -x / dx
        if dy > 1e-12:
            yield (arena.size_m - y) / dy
        elif dy < -1e-12:
            yield -y / dy

    @staticmethod
    def _circle_hit(x: float, y: float, dx: float, dy: float,
                    cx: float, cy: float, radius: float):
        """Nearest positive ray parameter hitting the circle, or None."""
        ox, oy = x - cx, y - cy
        b = 2.0 * (ox * dx + oy * dy)
        c = ox * ox + oy * oy - radius * radius
        disc = b * b - 4.0 * c
        if disc < 0:
            return None
        root = math.sqrt(disc)
        t1 = (-b - root) / 2.0
        t2 = (-b + root) / 2.0
        if t1 > 1e-9:
            return t1
        if t2 > 1e-9:
            return t2
        return None

"""Deployment scenarios: a declarative registry of mission profiles.

The paper trains and evaluates in three auto-generated environments
(Section V-A):

* **low** -- four randomly placed obstacles, goal randomised per episode
  (e.g. farming);
* **medium** -- four fixed obstacles plus up to three random ones
  (general navigation);
* **dense** -- four fixed obstacles plus up to five random ones
  (search-and-rescue, racing).

Those three survive unchanged (same ids, same arena parameters, same
:class:`Scenario` enum, bit-identical arena streams), but the paper's
own thesis -- the Pareto-optimal SoC shifts with the deployment
scenario -- demands a much wider axis.  This module therefore holds a
*registry* of :class:`ScenarioSpec` records as data: arena families
(uniform, corridor, forest, urban canyon, open field), wind and
sensor-noise levels, payload and battery variants, and a platform axis,
each spec carrying an id, tags and guardrail bounds that the bench test
suite self-validates (``tests/bench/test_scenarios.py``).

Scenario *handles* come in two shapes and both flow through the whole
pipeline:

* the legacy :class:`Scenario` enum members for ``low``/``medium``/
  ``dense`` -- every cache key, database key and checkpoint manifest
  they produce is byte-identical to the pre-registry code;
* the :class:`ScenarioSpec` itself for registry scenarios -- it
  duck-types the enum's ``.value`` attribute, so database keys, CEM
  snapshot fingerprints and manifests work without special cases.

:func:`resolve_scenario` normalises any id string, enum member or spec
to the canonical handle (enum for the legacy three, spec otherwise).
"""

from __future__ import annotations

import dataclasses
import enum
import fnmatch
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.uav.platforms import UavPlatform

#: Environment limits every registered scenario must respect (the
#: guardrail suite checks spec values against these).  Wind must stay
#: below the slowest non-zero commanded speed (0.5 m/s) times three --
#: beyond that the policy cannot out-fly the disturbance; noise is a
#: fraction of the normalised ray range.
MAX_WIND_MPS = 1.5
MAX_SENSOR_NOISE = 0.3

#: Arena generator families implemented by
#: :class:`repro.airlearning.arena.ArenaGenerator`.
ARENA_KINDS = ("uniform", "corridor", "forest", "urban", "open")


class Scenario(enum.Enum):
    """Deployment scenario / obstacle density (the paper's three)."""

    LOW = "low"
    MEDIUM = "medium"
    DENSE = "dense"


@dataclass(frozen=True)
class Guardrails:
    """Per-scenario bounds the self-validating suite enforces.

    Attributes:
        max_wind_mps: Upper bound on the spec's steady wind.
        max_sensor_noise: Upper bound on the spec's sensor noise level.
        max_obstacle_fill: Maximum fraction of the arena area the worst
            case obstacle set may cover (placement feasibility).
        min_start_goal_separation_m: Missions shorter than this are
            trivial; the arena generator resamples goals below it.
    """

    max_wind_mps: float = MAX_WIND_MPS
    max_sensor_noise: float = MAX_SENSOR_NOISE
    max_obstacle_fill: float = 0.35
    min_start_goal_separation_m: float = 6.0


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered mission scenario, declared entirely as data.

    Attributes:
        id: Unique kebab-case identifier (also the database/cache key
            via :attr:`value`).
        description: Human-readable one-liner.
        arena_size_m: Side length of the square arena.
        kind: Arena generator family (one of :data:`ARENA_KINDS`).
        num_fixed_obstacles: Deterministically placed obstacles.
        max_random_obstacles: Upper bound on per-episode random obstacles.
        obstacle_radius_m: (lo, hi) radius range of random obstacles.
        wind_mps: Steady wind speed (0 disables wind entirely -- the
            arithmetic is skipped, keeping legacy rollouts bit-identical).
        wind_heading_rad: World-frame wind direction.
        sensor_noise: Deterministic raycast perturbation amplitude in
            normalised range units (0 disables).
        battery_factor: Battery-capacity multiplier applied to the base
            platform (battery variants).
        extra_payload_g: Additional non-compute payload mass carried by
            the base platform (payload variants).
        platforms: UAV size classes this scenario is swept over by the
            bench harness (:class:`repro.uav.platforms.UavClass` values).
        tags: Free-form labels for suite filtering; every tag must be
            documented in :data:`TAG_DOCS`.
        guardrails: Bounds the self-validating suite checks.
        scenario: Legacy enum member for the paper's three, else None.
    """

    id: str
    description: str
    arena_size_m: float
    kind: str = "uniform"
    num_fixed_obstacles: int = 0
    max_random_obstacles: int = 0
    obstacle_radius_m: Tuple[float, float] = (0.6, 1.2)
    wind_mps: float = 0.0
    wind_heading_rad: float = 0.0
    sensor_noise: float = 0.0
    battery_factor: float = 1.0
    extra_payload_g: float = 0.0
    platforms: Tuple[str, ...] = ("mini", "micro", "nano")
    tags: Tuple[str, ...] = ()
    guardrails: Guardrails = field(default_factory=Guardrails)
    scenario: Optional[Scenario] = None

    @property
    def value(self) -> str:
        """The registry id -- duck-types ``Scenario.value`` so specs key
        databases, caches and manifests exactly like enum members."""
        return self.id

    @property
    def max_total_obstacles(self) -> int:
        """Upper bound on obstacles in any episode."""
        return self.num_fixed_obstacles + self.max_random_obstacles

    @property
    def wind_vector(self) -> Tuple[float, float]:
        """World-frame (x, y) wind velocity components."""
        return (self.wind_mps * math.cos(self.wind_heading_rad),
                self.wind_mps * math.sin(self.wind_heading_rad))

    def variant_platform(self, base: UavPlatform) -> UavPlatform:
        """The base platform with this spec's battery/payload variant.

        Returns ``base`` unchanged for plain scenarios; variants get a
        deterministic derived name so checkpoint manifests of a bench
        run verify on resume.
        """
        if self.battery_factor == 1.0 and self.extra_payload_g == 0.0:
            return base
        notes = []
        if self.battery_factor != 1.0:
            notes.append(f"battery x{self.battery_factor:g}")
        if self.extra_payload_g != 0.0:
            notes.append(f"+{self.extra_payload_g:g}g payload")
        return dataclasses.replace(
            base,
            name=f"{base.name} ({', '.join(notes)})",
            battery_capacity_mah=(base.battery_capacity_mah
                                  * self.battery_factor),
            base_weight_g=base.base_weight_g + self.extra_payload_g,
        )


#: Documentation for every tag used in the registry; the suite fails on
#: an undocumented tag so the vocabulary cannot silently drift.
TAG_DOCS: Dict[str, str] = {
    "paper": "one of the paper's three Section V-A scenarios",
    "smoke": "fast CI subset swept by `autopilot bench --tags smoke`",
    "corridor": "corridor arena family (walls of obstacles, long axis)",
    "forest": "forest arena family (many small trunks)",
    "urban": "urban-canyon arena family (large building blocks)",
    "open": "open-field arena family (sparse obstacles, long sight lines)",
    "windy": "non-zero steady wind disturbance",
    "noisy": "non-zero deterministic sensor noise",
    "payload": "extra non-compute payload variant",
    "battery": "reduced/boosted battery-capacity variant",
}

#: Scenario handle: the legacy enum or a registry spec.
ScenarioLike = Union[Scenario, ScenarioSpec, str]


def _legacy(spec_id: str, scenario: Scenario, *, num_fixed: int,
            max_random: int, radius: Tuple[float, float],
            description: str, tags: Tuple[str, ...]) -> ScenarioSpec:
    """One of the paper's three scenarios (arena numbers unchanged)."""
    return ScenarioSpec(
        id=spec_id, description=description, arena_size_m=30.0,
        kind="uniform", num_fixed_obstacles=num_fixed,
        max_random_obstacles=max_random, obstacle_radius_m=radius,
        tags=("paper",) + tags, scenario=scenario)


_REGISTRY_SPECS: Tuple[ScenarioSpec, ...] = (
    # -- the paper's three (Section V-A), byte-identical arenas ---------
    _legacy("low", Scenario.LOW, num_fixed=0, max_random=4,
            radius=(0.6, 1.2), tags=("smoke",),
            description="four random obstacles, random goal (e.g. farming)"),
    _legacy("medium", Scenario.MEDIUM, num_fixed=4, max_random=3,
            radius=(0.6, 1.4), tags=(),
            description="four fixed + up to three random obstacles"),
    _legacy("dense", Scenario.DENSE, num_fixed=4, max_random=5,
            radius=(0.8, 1.6), tags=("smoke",),
            description="four fixed + up to five random obstacles "
                        "(search and rescue, racing)"),
    # -- corridor family ------------------------------------------------
    ScenarioSpec(
        id="corridor-narrow", kind="corridor", arena_size_m=32.0,
        num_fixed_obstacles=8, max_random_obstacles=2,
        obstacle_radius_m=(0.5, 1.0), tags=("corridor", "smoke"),
        description="narrow warehouse aisle: two obstacle walls, "
                    "start and goal at opposite ends"),
    ScenarioSpec(
        id="corridor-wide", kind="corridor", arena_size_m=40.0,
        num_fixed_obstacles=6, max_random_obstacles=4,
        obstacle_radius_m=(0.6, 1.3), tags=("corridor",),
        description="wide logistics corridor with stray pallets"),
    ScenarioSpec(
        id="corridor-windy", kind="corridor", arena_size_m=32.0,
        num_fixed_obstacles=8, max_random_obstacles=2,
        obstacle_radius_m=(0.5, 1.0), wind_mps=0.8,
        wind_heading_rad=math.pi / 2.0, tags=("corridor", "windy"),
        description="narrow corridor with a steady crosswind"),
    ScenarioSpec(
        id="corridor-drafty", kind="corridor", arena_size_m=40.0,
        num_fixed_obstacles=6, max_random_obstacles=3,
        obstacle_radius_m=(0.6, 1.2), wind_mps=1.2, wind_heading_rad=0.0,
        tags=("corridor", "windy"),
        description="wide corridor with a strong tailwind draft"),
    # -- forest family --------------------------------------------------
    ScenarioSpec(
        id="forest-sparse", kind="forest", arena_size_m=36.0,
        num_fixed_obstacles=9, max_random_obstacles=4,
        obstacle_radius_m=(0.3, 0.7), tags=("forest",),
        description="sparse orchard: thin trunks on a jittered grid"),
    ScenarioSpec(
        id="forest-dense", kind="forest", arena_size_m=36.0,
        num_fixed_obstacles=16, max_random_obstacles=6,
        obstacle_radius_m=(0.3, 0.8), tags=("forest",),
        description="dense plantation forest, tight clearances"),
    ScenarioSpec(
        id="forest-windy", kind="forest", arena_size_m=36.0,
        num_fixed_obstacles=12, max_random_obstacles=4,
        obstacle_radius_m=(0.3, 0.7), wind_mps=1.0,
        wind_heading_rad=math.pi / 4.0, tags=("forest", "windy"),
        description="forest canopy gap with diagonal wind"),
    ScenarioSpec(
        id="forest-foggy", kind="forest", arena_size_m=36.0,
        num_fixed_obstacles=12, max_random_obstacles=4,
        obstacle_radius_m=(0.3, 0.7), sensor_noise=0.12,
        tags=("forest", "noisy"),
        description="forest in fog: degraded raycast returns"),
    ScenarioSpec(
        id="forest-heavy", kind="forest", arena_size_m=36.0,
        num_fixed_obstacles=9, max_random_obstacles=4,
        obstacle_radius_m=(0.3, 0.7), extra_payload_g=40.0,
        platforms=("mini", "micro"), tags=("forest", "payload"),
        description="timber-survey forest run with a 40 g sensor pod"),
    # -- urban-canyon family --------------------------------------------
    ScenarioSpec(
        id="urban-canyon", kind="urban", arena_size_m=44.0,
        num_fixed_obstacles=4, max_random_obstacles=3,
        obstacle_radius_m=(0.6, 1.2), tags=("urban", "smoke"),
        description="four building blocks forming a street canyon"),
    ScenarioSpec(
        id="urban-downtown", kind="urban", arena_size_m=52.0,
        num_fixed_obstacles=9, max_random_obstacles=4,
        obstacle_radius_m=(0.6, 1.3), tags=("urban",),
        description="dense downtown grid of large blocks"),
    ScenarioSpec(
        id="urban-windy", kind="urban", arena_size_m=44.0,
        num_fixed_obstacles=4, max_random_obstacles=3,
        obstacle_radius_m=(0.6, 1.2), wind_mps=1.4,
        wind_heading_rad=math.pi, tags=("urban", "windy"),
        description="street canyon with channelled headwind gusts"),
    ScenarioSpec(
        id="urban-noisy", kind="urban", arena_size_m=44.0,
        num_fixed_obstacles=4, max_random_obstacles=3,
        obstacle_radius_m=(0.6, 1.2), sensor_noise=0.2,
        tags=("urban", "noisy"),
        description="urban canyon with multipath sensor clutter"),
    ScenarioSpec(
        id="urban-night", kind="urban", arena_size_m=52.0,
        num_fixed_obstacles=9, max_random_obstacles=3,
        obstacle_radius_m=(0.6, 1.3), sensor_noise=0.25,
        wind_mps=0.6, wind_heading_rad=3.0 * math.pi / 2.0,
        tags=("urban", "noisy", "windy"),
        description="downtown at night: noisy sensing plus downdrafts"),
    # -- open-field family ----------------------------------------------
    ScenarioSpec(
        id="open-field", kind="open", arena_size_m=48.0,
        num_fixed_obstacles=0, max_random_obstacles=2,
        obstacle_radius_m=(0.8, 1.6), tags=("open", "smoke"),
        description="open farmland with the odd silo"),
    ScenarioSpec(
        id="open-windy", kind="open", arena_size_m=48.0,
        num_fixed_obstacles=0, max_random_obstacles=2,
        obstacle_radius_m=(0.8, 1.6), wind_mps=1.5,
        wind_heading_rad=math.pi / 2.0, tags=("open", "windy"),
        description="exposed plain at the wind guardrail limit"),
    ScenarioSpec(
        id="open-longhaul", kind="open", arena_size_m=60.0,
        num_fixed_obstacles=0, max_random_obstacles=3,
        obstacle_radius_m=(0.8, 1.6), battery_factor=1.25,
        platforms=("mini", "micro"), tags=("open", "battery"),
        description="long-range delivery leg with an extended battery"),
    # -- payload / battery variants of the paper arenas -----------------
    ScenarioSpec(
        id="dense-heavy-payload", kind="uniform", arena_size_m=30.0,
        num_fixed_obstacles=4, max_random_obstacles=5,
        obstacle_radius_m=(0.8, 1.6), extra_payload_g=25.0,
        platforms=("mini", "micro"), tags=("payload",),
        description="the dense arena flown with a 25 g rescue beacon"),
    ScenarioSpec(
        id="dense-low-battery", kind="uniform", arena_size_m=30.0,
        num_fixed_obstacles=4, max_random_obstacles=5,
        obstacle_radius_m=(0.8, 1.6), battery_factor=0.5,
        tags=("battery",),
        description="the dense arena on a half-worn battery pack"),
    ScenarioSpec(
        id="medium-noisy", kind="uniform", arena_size_m=30.0,
        num_fixed_obstacles=4, max_random_obstacles=3,
        obstacle_radius_m=(0.6, 1.4), sensor_noise=0.15,
        tags=("noisy",),
        description="the medium arena under sensor interference"),
    ScenarioSpec(
        id="low-windy", kind="uniform", arena_size_m=30.0,
        num_fixed_obstacles=0, max_random_obstacles=4,
        obstacle_radius_m=(0.6, 1.2), wind_mps=1.0,
        wind_heading_rad=math.pi / 3.0, tags=("windy",),
        description="the low-density arena in gusty open weather"),
)

#: Registry: id -> spec, in registration order (paper scenarios first).
SCENARIO_REGISTRY: Dict[str, ScenarioSpec] = {
    spec.id: spec for spec in _REGISTRY_SPECS}
if len(SCENARIO_REGISTRY) != len(_REGISTRY_SPECS):  # pragma: no cover
    raise ConfigError("duplicate scenario ids in the registry")

#: All registered specs in registration order.
SCENARIOS: Tuple[ScenarioSpec, ...] = _REGISTRY_SPECS

#: Legacy enum -> spec map (the paper's three).
_SPECS: Dict[Scenario, ScenarioSpec] = {
    spec.scenario: spec for spec in _REGISTRY_SPECS
    if spec.scenario is not None}

#: The paper's scenarios in paper order (back-compat export).
ALL_SCENARIOS: Tuple[Scenario, ...] = (Scenario.LOW, Scenario.MEDIUM,
                                       Scenario.DENSE)


def scenario_ids() -> Tuple[str, ...]:
    """Every registered scenario id, in registration order."""
    return tuple(SCENARIO_REGISTRY)


def resolve_scenario(value: ScenarioLike) -> Union[Scenario, ScenarioSpec]:
    """Normalise an id / enum / spec to the canonical scenario handle.

    The paper's three resolve to their :class:`Scenario` enum member so
    every key and manifest they produce stays byte-identical to the
    pre-registry code; registry scenarios resolve to their spec.
    """
    if isinstance(value, Scenario):
        return value
    if isinstance(value, ScenarioSpec):
        return value.scenario if value.scenario is not None else value
    if isinstance(value, str):
        spec = SCENARIO_REGISTRY.get(value)
        if spec is None:
            raise ConfigError(
                f"unknown scenario {value!r}; known: {sorted(SCENARIO_REGISTRY)}")
        return spec.scenario if spec.scenario is not None else spec
    raise ConfigError(f"cannot resolve a scenario from {value!r}")


def scenario_spec(scenario: ScenarioLike) -> ScenarioSpec:
    """Arena-generation parameters for a scenario (id, enum or spec)."""
    if isinstance(scenario, ScenarioSpec):
        return scenario
    if isinstance(scenario, Scenario):
        return _SPECS[scenario]
    if isinstance(scenario, str):
        spec = SCENARIO_REGISTRY.get(scenario)
        if spec is None:
            raise ConfigError(
                f"unknown scenario {scenario!r}; "
                f"known: {sorted(SCENARIO_REGISTRY)}")
        return spec
    raise ConfigError(f"cannot resolve a scenario from {scenario!r}")


def get_scenarios(tags: Optional[Iterable[str]] = None,
                  ids: Optional[Sequence[str]] = None
                  ) -> Tuple[ScenarioSpec, ...]:
    """Filter the registry by tags and/or id globs.

    Args:
        tags: Keep specs carrying *any* of these tags.
        ids: Keep specs whose id matches *any* of these
            :mod:`fnmatch`-style globs (exact ids match themselves).

    Both filters compose conjunctively; with neither, the whole registry
    is returned in registration order.
    """
    selected = list(SCENARIOS)
    if tags is not None:
        wanted = set(tags)
        unknown = wanted - set(TAG_DOCS)
        if unknown:
            raise ConfigError(
                f"unknown scenario tags {sorted(unknown)}; "
                f"known: {sorted(TAG_DOCS)}")
        selected = [s for s in selected if wanted & set(s.tags)]
    if ids is not None:
        patterns = list(ids)
        for pattern in patterns:
            if (not any(ch in pattern for ch in "*?[")
                    and pattern not in SCENARIO_REGISTRY):
                raise ConfigError(
                    f"unknown scenario id {pattern!r}; "
                    f"known: {sorted(SCENARIO_REGISTRY)}")
        selected = [s for s in selected
                    if any(fnmatch.fnmatchcase(s.id, p) for p in patterns)]
    return tuple(selected)

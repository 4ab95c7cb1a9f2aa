"""Deterministic fault injection for the sweep runtime.

Long co-design sweeps are batch jobs: workers die and processes get
killed between checkpoint writes.  This module lets the test suite (and
an opt-in environment hook) inject exactly those faults at exactly
reproducible points, so the pool fallback in :mod:`repro.core.parallel`
and the resume machinery in :mod:`repro.core.checkpoint` are testable
without sleeping, racing or killing real processes.

Faults are declared as :class:`FaultRule` records -- *kind* at *site*
when the site's deterministic index reaches *index* -- and grouped in a
:class:`FaultInjector`.  The runtime consults the injector at two
instrumented sites:

* ``pool-task``: before a pool worker executes the task with the given
  item index.  Kind ``crash`` makes the worker die via ``os._exit``,
  breaking the pool.
* ``checkpoint-write``: before the Nth checkpoint write of the process
  (a monotone per-injector counter).  Kind ``kill`` raises
  :class:`SimulatedKill`, modelling a SIGKILL that lands between two
  checkpoint writes.

Injectors install either programmatically (:func:`install_injector`,
or the :func:`active_faults` context manager) or through the
``REPRO_FAULTS`` environment variable, whose value is a comma-separated
list of ``kind@site:index`` rules::

    REPRO_FAULTS="crash@pool-task:3,kill@checkpoint-write:4"

The injector is plain data (picklable), so the parallel runtime ships
it to pool workers explicitly -- fault behaviour does not depend on
the multiprocessing start method.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

#: Environment variable holding an opt-in fault specification.
FAULTS_ENV = "REPRO_FAULTS"

#: Instrumented sites.
SITE_POOL_TASK = "pool-task"
SITE_CHECKPOINT_WRITE = "checkpoint-write"

SITES = (SITE_POOL_TASK, SITE_CHECKPOINT_WRITE)
KINDS = ("crash", "kill")

#: Exit status used by injected worker crashes (mirrors BSD's EX_SOFTWARE).
CRASH_EXIT_CODE = 70


class SimulatedKill(BaseException):
    """An injected process kill.

    Deliberately a :class:`BaseException`: library code must never
    swallow it with a blanket ``except Exception`` -- a killed process
    does not get to run cleanup logic either.
    """


@dataclass(frozen=True)
class FaultRule:
    """One fault: *kind* fires at *site* when its index reaches *index*.

    Args:
        kind: One of :data:`KINDS`.
        site: One of :data:`SITES`.
        index: Deterministic site index the fault fires at (the task
            index for ``pool-task``, the write counter for
            ``checkpoint-write``).
    """

    kind: str
    site: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; "
                              f"expected one of {KINDS}")
        if self.site not in SITES:
            raise ConfigError(f"unknown fault site {self.site!r}; "
                              f"expected one of {SITES}")
        if self.index < 0:
            raise ConfigError("fault index must be non-negative")

    def __str__(self) -> str:
        return f"{self.kind}@{self.site}:{self.index}"


class FaultInjector:
    """A deterministic set of fault rules plus per-site counters.

    The rule set is immutable; only the ``checkpoint-write`` counter is
    stateful, and it lives in the process that owns the injector (pool
    workers receive a pickled copy, whose counters are independent --
    worker-side sites are indexed explicitly, not counted).
    """

    def __init__(self, rules: Sequence[FaultRule] = ()):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self._counters: Dict[str, int] = {}

    def __bool__(self) -> bool:
        return bool(self.rules)

    def find(self, site: str, index: int) -> Optional[FaultRule]:
        """First rule firing for the event, or ``None``."""
        for rule in self.rules:
            if rule.site == site and rule.index == index:
                return rule
        return None

    def next_index(self, site: str) -> int:
        """Consume and return the site's monotone event counter."""
        index = self._counters.get(site, 0)
        self._counters[site] = index + 1
        return index

    def unreached(self, site: str) -> Tuple[int, Tuple[FaultRule, ...]]:
        """A counted site's event count, and its rules that count missed.

        A rule whose index the process never reached did not fire, so
        the run it was meant to interrupt finished normally.
        """
        events = self._counters.get(site, 0)
        return events, tuple(rule for rule in self.rules
                             if rule.site == site and rule.index >= events)

    # -- instrumented sites -------------------------------------------
    def on_pool_task(self, index: int) -> None:
        """Consulted by a pool worker before executing task ``index``."""
        rule = self.find(SITE_POOL_TASK, index)
        if rule is not None and rule.kind == "crash":
            # A hard worker death: no exception, no cleanup -- the pool
            # observes it as BrokenProcessPool.
            os._exit(CRASH_EXIT_CODE)

    def on_checkpoint_write(self) -> None:
        """Consulted before every checkpoint write of this process."""
        index = self.next_index(SITE_CHECKPOINT_WRITE)
        rule = self.find(SITE_CHECKPOINT_WRITE, index)
        if rule is not None and rule.kind == "kill":
            raise SimulatedKill(
                f"injected kill before checkpoint write {index}")

    # -- pickling: rules travel, counters stay home -------------------
    def __getstate__(self) -> dict:
        return {"rules": self.rules}

    def __setstate__(self, state: dict) -> None:
        self.rules = state["rules"]
        self._counters = {}


def parse_faults(spec: str) -> FaultInjector:
    """Parse a ``REPRO_FAULTS``-style specification string.

    Format: comma-separated ``kind@site:index`` rules.  Whitespace
    around rules is ignored.
    """
    rules = []
    for raw in spec.split(","):
        part = raw.strip()
        if not part:
            continue
        try:
            kind, rest = part.split("@", 1)
            site, tail = rest.split(":", 1)
        except ValueError as exc:
            raise ConfigError(
                f"bad fault rule {part!r}; expected kind@site:index") from exc
        try:
            index = int(tail)
        except ValueError as exc:
            raise ConfigError(
                f"bad fault index in rule {part!r}") from exc
        rules.append(FaultRule(kind=kind.strip(), site=site.strip(),
                               index=index))
    return FaultInjector(rules)


# ----------------------------------------------------------------------
# The process-wide active injector: programmatic installs win over the
# environment hook; the parsed-from-env injector is cached per spec
# string so its checkpoint-write counter is process-wide.

_installed: Optional[FaultInjector] = None
_env_cache: Tuple[Optional[str], Optional[FaultInjector]] = (None, None)


def install_injector(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` as the process-wide active fault source."""
    global _installed
    _installed = injector
    return injector


def uninstall_injector() -> None:
    """Remove any programmatically installed injector."""
    global _installed
    _installed = None


def current_injector() -> Optional[FaultInjector]:
    """The active injector: installed one, else ``REPRO_FAULTS``, else None."""
    if _installed is not None:
        return _installed
    return env_injector()


def env_injector() -> Optional[FaultInjector]:
    """The injector ``REPRO_FAULTS`` declares, or None when it is unset.

    One injector per spec string, so its checkpoint-write counter counts
    every write of the process.
    """
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    global _env_cache
    cached_spec, cached = _env_cache
    if cached_spec != spec:
        cached = parse_faults(spec)
        _env_cache = (spec, cached)
    return cached


@contextmanager
def active_faults(faults: Union[str, FaultInjector]
                  ) -> Iterator[FaultInjector]:
    """Context manager installing an injector (or spec string) temporarily."""
    injector = parse_faults(faults) if isinstance(faults, str) else faults
    previous = _installed
    install_injector(injector)
    try:
        yield injector
    finally:
        if previous is None:
            uninstall_injector()
        else:
            install_injector(previous)

"""Crash-safe checkpointing for long sweep runs.

The paper's Phase 2 DSE and the trainer-backed Phase 1 are hours-long
batch jobs at production scale; a killed process must not lose the
whole run.  This module provides the durable artefacts the resumable
runtime is built on:

* :class:`RunManifest` -- one small, atomically replaced JSON document
  per run directory recording *what* the run is (its task and
  :class:`~repro.core.spec.RunConfig`) and *where* it is (per-phase
  status, completed Phase 2 evaluations).  ``autopilot design --resume``
  reads it back to reconstruct the exact run.
* :class:`EvaluationJournal` -- an append-only, pickle-framed log of
  completed work items.  The trainer-backed Phase 1 journals each
  template point's validated success rate, because training is costly
  to repeat.  Appends are flushed per record; a crash mid-write leaves
  a truncated tail that :meth:`EvaluationJournal.load` detects and
  drops, so the journal always recovers to the last *completed* point.
  Pickle framing (rather than JSON lines) preserves float bit patterns
  exactly.
* :func:`atomic_write_json` / :func:`atomic_write_pickle` -- the
  write-temp-then-``os.replace`` primitive every durable write goes
  through, so readers never observe a partially written file.

All durable writes consult the active fault injector
(:mod:`repro.testing.faults`, loaded by the first write) first, so the
test suite can simulate a SIGKILL landing between any two checkpoint
writes.

Resumption is *recomputation*: a resume checks the recorded
:class:`~repro.core.spec.RunConfig` and runs again.  Optimisers are
deterministic functions of their seed and the observed objective
values, so the recomputed Phase 2 is bit-identical to an uninterrupted
run, and at well under a millisecond a design it is not worth storing.
Only the trainer's Phase 1 is served from disk (journalled success
rates and per-generation CEM snapshots), so a resume after a change to
the evaluation model yields the current model's run.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Union

from repro.airlearning.scenarios import resolve_scenario
from repro.core.spec import RunConfig, TaskSpec
from repro.errors import CheckpointError, ConfigError
from repro.uav.platforms import platform_by_name

logger = logging.getLogger("repro.core.checkpoint")

#: Bump when the manifest/journal layout changes incompatibly.
CHECKPOINT_SCHEMA_VERSION = 1

#: File name of the run manifest inside a checkpoint directory.
MANIFEST_NAME = "manifest.json"

#: Config fields of retired options, each mapped to the one value this
#: version still behaves as.  A manifest recording another value was
#: shaped by a code path that no longer exists, so loading refuses it
#: rather than resume it as a different run.
RETIRED_FIELDS: Dict[str, Any] = {"gp_refit_every": 1}


#: :mod:`repro.testing.faults`, imported by the first durable write, so
#: a run that writes no checkpoint never loads fault injection and no
#: later write runs an import statement.
_faults = None


def _trip_checkpoint_write() -> None:
    """Consult the fault injector before one durable write."""
    global _faults
    if _faults is None:
        from repro.testing import faults as _faults
    injector = _faults.current_injector()
    if injector is not None:
        injector.on_checkpoint_write()


def atomic_write_json(path: Union[str, os.PathLike], payload: Any) -> None:
    """Write ``payload`` as JSON via write-temp-then-``os.replace``."""
    path = Path(path)
    _trip_checkpoint_write()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_pickle(path: Union[str, os.PathLike], payload: Any) -> None:
    """Pickle ``payload`` via write-temp-then-``os.replace``."""
    path = Path(path)
    _trip_checkpoint_write()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_pickle(path: Union[str, os.PathLike],
                quarantine: bool = True) -> Optional[Any]:
    """Load one pickled checkpoint file; a corrupt file is quarantined.

    Returns ``None`` when the file is missing or corrupt (the corrupt
    file is renamed aside so it is not re-parsed forever).
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with path.open("rb") as handle:
            return pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError) as exc:
        if quarantine:
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:
                pass
        logger.warning("dropping corrupt checkpoint %s (%s: %s)",
                       path, type(exc).__name__, exc)
        return None


def progress_field(**kwargs: Any) -> Any:
    """A manifest field recording progress, which resume does not verify."""
    return field(metadata={"progress": True}, **kwargs)


@dataclass
class Manifest:
    """The shared JSON layout, loading and resume check of a manifest.

    A manifest is what a run or sweep is (its own identity fields plus
    one :class:`~repro.core.spec.RunConfig`) and how far it got (its
    :func:`progress_field` fields).  On disk the config's fields sit flat
    beside the others, so the JSON keys stay those of checkpoints that
    earlier versions wrote, and those checkpoints still resume.
    Resuming refuses any difference in a field that is not progress.
    """

    #: File name inside the checkpoint directory.
    FILE_NAME: ClassVar[str]
    #: What the manifest describes, as error messages name it.
    NOUN: ClassVar[str]
    #: Start of the resume refusal; formatted with ``directory``/``path``.
    MISMATCH: ClassVar[str]

    def to_json(self) -> Dict[str, Any]:
        """The flat JSON object this manifest is saved as."""
        payload = asdict(self)
        payload.update(payload.pop("config"))
        return payload

    def save(self, directory: Union[str, os.PathLike]) -> None:
        """Atomically (re)write the manifest into ``directory``."""
        atomic_write_json(Path(directory) / self.FILE_NAME, self.to_json())

    @classmethod
    def load(cls, directory: Union[str, os.PathLike]) -> "Manifest":
        """Load the manifest of ``directory``.

        Keys this version does not know (fields of removed features) are
        ignored, and config fields an older manifest lacks take their
        defaults.  A retired option's field (:data:`RETIRED_FIELDS`) is
        ignored only at the value this version behaves as.

        Raises:
            CheckpointError: when the manifest is missing, unreadable,
                structurally corrupt, invalid, from an incompatible
                schema or records a retired option at another value.
        """
        path = Path(directory) / cls.FILE_NAME
        if not path.exists():
            raise CheckpointError(
                f"no {cls.NOUN} manifest found at {path}: nothing to resume "
                f"(was the {cls.NOUN} started with --checkpoint-dir?)")
        try:
            payload = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"corrupt {cls.NOUN} manifest at {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError(f"corrupt {cls.NOUN} manifest at {path}: "
                                  "expected a JSON object")
        # The class attribute of a dataclass field is its default: the
        # schema this version writes.
        if payload.get("schema") != cls.schema:
            raise CheckpointError(
                f"{cls.NOUN} manifest at {path} has schema "
                f"{payload.get('schema')!r}; this version reads schema "
                f"{cls.schema}")
        for name, kept in RETIRED_FIELDS.items():
            if payload.get(name, kept) != kept:
                raise CheckpointError(
                    f"{cls.NOUN} manifest at {path} records "
                    f"{name}={payload[name]!r}, an option this version no "
                    f"longer has; only {name}={kept!r} can resume")

        def known(owner) -> Dict[str, Any]:
            names = {f.name for f in fields(owner)}
            return {k: v for k, v in payload.items() if k in names}

        try:
            return cls(config=RunConfig(**known(RunConfig)), **known(cls))
        except (TypeError, ConfigError) as exc:
            raise CheckpointError(
                f"corrupt {cls.NOUN} manifest at {path}: {exc}") from exc

    def check_resume(self, directory: Union[str, os.PathLike]) -> "Manifest":
        """Load the manifest recorded in ``directory`` for a resume.

        Raises:
            CheckpointError: when it cannot be loaded, or when the
                recorded run differs from this one in any field that is
                not progress.
        """
        recorded = self.load(directory)
        requested, previous = self.to_json(), recorded.to_json()
        progress = {f.name for f in fields(self) if f.metadata.get("progress")}
        mismatched = [name for name in requested if name not in progress
                      and requested[name] != previous[name]]
        if mismatched:
            details = ", ".join(
                f"{name}: recorded {previous[name]!r}, "
                f"requested {requested[name]!r}" for name in mismatched)
            message = self.MISMATCH.format(
                directory=Path(directory),
                path=Path(directory) / self.FILE_NAME)
            raise CheckpointError(f"{message} ({details})")
        return recorded


@dataclass
class RunManifest(Manifest):
    """Durable identity and progress record of one checkpointed run.

    The pipeline rewrites it atomically only when it records progress
    no earlier write holds: at the start, on entering a live Phase 2
    and at the end.  ``status`` maps phase name
    (``phase1``/``phase2``/``phase3``) to ``pending`` / ``running`` /
    ``complete``.  A resume recomputes Phases 2 and 3, so a run killed
    in either records only ``phase2: running``; finer progress is kept
    for the trainer's Phase 1 alone.
    """

    FILE_NAME: ClassVar[str] = MANIFEST_NAME
    NOUN: ClassVar[str] = "run"
    MISMATCH: ClassVar[str] = ("cannot resume {path}: the recorded run "
                               "differs from the requested one")

    #: Platform name and scenario id of the task.
    uav: str
    scenario: str
    sensor_fps: float
    config: RunConfig
    status: Dict[str, str] = progress_field(default_factory=lambda: {
        "phase1": "pending", "phase2": "pending", "phase3": "pending"})
    #: Completed Phase 2 evaluations at the last manifest write.
    phase2_evaluations: int = progress_field(default=0)
    schema: int = CHECKPOINT_SCHEMA_VERSION

    @classmethod
    def for_task(cls, task: TaskSpec, config: RunConfig) -> "RunManifest":
        """A fresh manifest for running ``task`` under ``config``."""
        return cls(uav=task.platform.name, scenario=task.scenario.value,
                   sensor_fps=task.sensor_fps, config=config)

    def task(self) -> TaskSpec:
        """The task this run was recorded for.

        Raises:
            ConfigError: when the platform or scenario is unknown.
        """
        return TaskSpec(platform=platform_by_name(self.uav),
                        scenario=resolve_scenario(self.scenario),
                        sensor_fps=self.sensor_fps)


class EvaluationJournal:
    """Append-only pickle-framed log of completed work items.

    The file starts with a header record identifying the journal kind
    and schema; every subsequent :meth:`append` adds one framed record
    and flushes.  :meth:`load` returns every complete record and
    remembers the byte offset of the last one, so a partial tail left
    by a crash is truncated (not replayed, not fatal) when appending
    resumes.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 kind: str = "evaluations"):
        self.path = Path(path)
        self.kind = kind
        self._handle = None
        self._valid_offset: Optional[int] = None

    # ------------------------------------------------------------------
    def load(self) -> List[Any]:
        """Read all complete records (empty when the file is missing)."""
        self._valid_offset = 0
        records: List[Any] = []
        if not self.path.exists():
            return records
        with self.path.open("rb") as handle:
            try:
                header = pickle.load(handle)
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, ValueError) as exc:
                logger.warning(
                    "journal %s has an unreadable header (%s); treating "
                    "as empty", self.path, type(exc).__name__)
                return records
            if not (isinstance(header, dict)
                    and header.get("journal") == self.kind):
                raise CheckpointError(
                    f"{self.path} is not a {self.kind!r} journal")
            if header.get("schema") != CHECKPOINT_SCHEMA_VERSION:
                raise CheckpointError(
                    f"journal {self.path} has schema "
                    f"{header.get('schema')!r}; this version reads schema "
                    f"{CHECKPOINT_SCHEMA_VERSION}")
            offset = handle.tell()
            while True:
                try:
                    record = pickle.load(handle)
                except EOFError:
                    break
                except (pickle.UnpicklingError, AttributeError, ImportError,
                        IndexError, ValueError, KeyError) as exc:
                    logger.warning(
                        "journal %s has a truncated/corrupt tail after "
                        "%d records (%s); dropping it", self.path,
                        len(records), type(exc).__name__)
                    break
                records.append(record)
                offset = handle.tell()
            self._valid_offset = offset
        return records

    def reset(self) -> None:
        """Discard the journal (fresh runs must not replay stale records)."""
        self.close()
        self.path.unlink(missing_ok=True)
        self._valid_offset = None

    # ------------------------------------------------------------------
    def append(self, record: Any) -> None:
        """Durably append one completed record (flushed immediately)."""
        _trip_checkpoint_write()
        self._open_for_append()
        pickle.dump(record, self._handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._handle.flush()

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EvaluationJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _open_for_append(self) -> None:
        if self._handle is not None:
            return
        if self.path.exists():
            if self._valid_offset is None:
                self.load()
            # Drop a partial tail before appending after it.
            with self.path.open("rb+") as handle:
                handle.truncate(self._valid_offset)
            self._handle = self.path.open("ab")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("wb")
            pickle.dump({"journal": self.kind,
                         "schema": CHECKPOINT_SCHEMA_VERSION},
                        self._handle, protocol=pickle.HIGHEST_PROTOCOL)
            self._handle.flush()


class RunCheckpoint:
    """Layout of one checkpointed AutoPilot run directory.

    ::

        <run-dir>/
          manifest.json              atomic run manifest
          phase1/trainings.jnl       journal of trained template points
          phase1/cem-L<l>-F<f>-<scenario>.pkl   per-point CEM snapshots

    Both ``phase1`` artefacts are the trainer backend's.  Directories
    that earlier versions wrote may also hold ``phase2/evaluations.jnl``,
    ``phase2/promotions.jnl`` and a surrogate run's
    ``phase1/trainings.jnl``; a resume reads none of them.
    """

    def __init__(self, run_dir: Union[str, os.PathLike]):
        self.run_dir = Path(run_dir)

    def phase1_journal(self) -> EvaluationJournal:
        """Journal of the trainer's validated Phase 1 template points."""
        return EvaluationJournal(self.run_dir / "phase1" / "trainings.jnl",
                                 kind="phase1-trainings")

    def cem_checkpoint_path(self, hyperparams, scenario) -> Path:
        """Per-template-point CEM trainer snapshot file."""
        return (self.run_dir / "phase1" /
                f"cem-L{hyperparams.num_layers}-F{hyperparams.num_filters}"
                f"-{scenario.value}.pkl")

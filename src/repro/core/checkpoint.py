"""Crash-safe checkpointing for long sweep runs.

The paper's Phase 2 DSE and the trainer-backed Phase 1 are hours-long
batch jobs at production scale; a killed process must not lose the
whole run.  This module provides the three durable artefacts the
resumable runtime is built on:

* :class:`RunManifest` -- one small, atomically replaced JSON document
  per run directory recording *what* the run is (task, seed, budget,
  front-end configuration) and *where* it is (per-phase status,
  completed Phase 2 evaluations).  ``autopilot design --resume`` reads
  it back to reconstruct the exact run.
* :class:`EvaluationJournal` -- an append-only, pickle-framed log of
  completed work items (one record per Phase 2 evaluation / Phase 1
  template point).  Appends are flushed per record; a crash mid-write
  leaves a truncated tail that :meth:`EvaluationJournal.load` detects
  and drops, so the journal always recovers to the last *completed*
  iteration.  Pickle framing (rather than JSON lines) preserves float
  bit patterns and whole result dataclasses exactly -- the foundation
  of the bit-identical-resume guarantee.
* :func:`atomic_write_json` / :func:`atomic_write_pickle` -- the
  write-temp-then-``os.replace`` primitive every durable write goes
  through, so readers never observe a partially written file.

All durable writes consult the active fault injector
(:mod:`repro.testing.faults`) first, so the test suite can simulate a
SIGKILL landing between any two checkpoint writes.

Resumption is *replay*, not state surgery: optimisers are deterministic
functions of their seed and the observed objective values, so feeding
the journalled evaluations back in order reconstructs the optimiser's
exact internal state (GP posteriors included) without simulating
anything, after which the run continues live -- bit-identically to an
uninterrupted run.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import CheckpointError
from repro.testing import faults

logger = logging.getLogger("repro.core.checkpoint")

#: Bump when the manifest/journal layout changes incompatibly.
CHECKPOINT_SCHEMA_VERSION = 1

#: File name of the run manifest inside a checkpoint directory.
MANIFEST_NAME = "manifest.json"


def _trip_checkpoint_write() -> None:
    """Consult the fault injector before one durable write."""
    injector = faults.current_injector()
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


@dataclass
class RunManifest:
    """Durable identity and progress record of one checkpointed run.

    The manifest is rewritten atomically at phase boundaries; the
    fine-grained per-iteration progress lives in the phase journals.
    ``status`` maps phase name (``phase1``/``phase2``/``phase3``) to
    ``pending`` / ``running`` / ``complete``.
    """

    uav: str
    scenario: str
    seed: int
    budget: int
    sensor_fps: float = 60.0
    frontend_backend: str = "surrogate"
    #: CemTrainer constructor arguments for the trainer backend, or None.
    trainer: Optional[Dict[str, Any]] = None
    #: SMS-EGO candidates proposed per GP fit (q).  Part of the run
    #: identity: the proposal sequence depends on it, so resuming with a
    #: different value would diverge from the journal.  Defaults to 1 so
    #: manifests written before this field existed load unchanged.
    proposal_batch: int = 1
    #: Full GP refit cadence in observations.  Part of the run identity
    #: for the same reason as ``proposal_batch``: between refits the GP
    #: extends cached factors, so the proposal sequence depends on it.
    #: Defaults to 1 so older manifests load unchanged.
    gp_refit_every: int = 1
    #: Multi-fidelity mode (``"off"``/``"on"``) and successive-halving
    #: promotion fraction.  Part of the run identity for the same reason
    #: as ``proposal_batch``: with fidelity on, which proposals consume
    #: budget depends on the promotion decisions, so resuming with a
    #: different mode or eta would diverge from the journals.  Defaults
    #: keep manifests written before these fields existed loading
    #: unchanged (and bit-identical single-fidelity behaviour).
    fidelity: str = "off"
    promotion_eta: float = 0.5
    #: Worker-pool mode (``"cold"``/``"warm"``) the run executes under.
    #: Recorded, restored and verified by ``--resume``: warm runs are
    #: required to be bit-identical to cold, but recording the mode
    #: keeps any future divergence diagnosable from the manifest alone.
    #: Defaults to the oracle so manifests written before this field
    #: existed load unchanged.
    pool: str = "cold"
    status: Dict[str, str] = field(default_factory=lambda: {
        "phase1": "pending", "phase2": "pending", "phase3": "pending"})
    #: Completed Phase 2 evaluations at the last manifest write.
    phase2_evaluations: int = 0
    schema: int = CHECKPOINT_SCHEMA_VERSION

    def save(self, run_dir: Union[str, os.PathLike]) -> None:
        """Atomically (re)write the manifest into ``run_dir``."""
        atomic_write_json(Path(run_dir) / MANIFEST_NAME, asdict(self))

    @classmethod
    def load(cls, run_dir: Union[str, os.PathLike]) -> "RunManifest":
        """Load the manifest of ``run_dir``.

        Raises:
            CheckpointError: when the manifest is missing, unreadable,
                structurally corrupt or from an incompatible schema.
        """
        path = Path(run_dir) / MANIFEST_NAME
        if not path.exists():
            raise CheckpointError(
                f"no run manifest found at {path}: nothing to resume "
                "(was the run started with --checkpoint-dir?)")
        try:
            payload = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"corrupt run manifest at {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"corrupt run manifest at {path}: expected a JSON object")
        if payload.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"run manifest at {path} has schema "
                f"{payload.get('schema')!r}; this version reads schema "
                f"{CHECKPOINT_SCHEMA_VERSION}")
        known = {f.name for f in fields(cls)}
        try:
            return cls(**{k: v for k, v in payload.items() if k in known})
        except TypeError as exc:
            raise CheckpointError(
                f"corrupt run manifest at {path}: {exc}") from exc


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


class JournalReplayer:
    """Cursor over journalled records consumed during a resume replay."""

    def __init__(self, records: List[Any]):
        self._records = list(records)
        self._cursor = 0

    @property
    def pending(self) -> bool:
        """Whether any recorded work remains to replay."""
        return self._cursor < len(self._records)

    @property
    def remaining(self) -> int:
        """Records not yet replayed."""
        return len(self._records) - self._cursor

    def take(self) -> Any:
        """Consume and return the next record."""
        if not self.pending:
            raise CheckpointError("journal replay past the last record")
        record = self._records[self._cursor]
        self._cursor += 1
        return record


class RunCheckpoint:
    """Layout of one checkpointed AutoPilot run directory.

    ::

        <run-dir>/
          manifest.json              atomic run manifest
          phase1/trainings.jnl       journal of validated template points
          phase1/cem-L<l>-F<f>-<scenario>.pkl   per-point CEM snapshots
          phase2/evaluations.jnl     journal of completed DSE evaluations
          phase2/promotions.jnl      journal of multi-fidelity promotions
    """

    def __init__(self, run_dir: Union[str, os.PathLike]):
        self.run_dir = Path(run_dir)

    @property
    def manifest_path(self) -> Path:
        """Location of the run manifest."""
        return self.run_dir / MANIFEST_NAME

    def phase1_journal(self) -> EvaluationJournal:
        """Journal of validated Phase 1 template points."""
        return EvaluationJournal(self.run_dir / "phase1" / "trainings.jnl",
                                 kind="phase1-trainings")

    def phase2_journal(self) -> EvaluationJournal:
        """Journal of completed Phase 2 design evaluations."""
        return EvaluationJournal(self.run_dir / "phase2" / "evaluations.jnl",
                                 kind="phase2-evaluations")

    def phase2_promotions_journal(self) -> EvaluationJournal:
        """Journal of multi-fidelity promotion decisions (fidelity on)."""
        return EvaluationJournal(self.run_dir / "phase2" / "promotions.jnl",
                                 kind="phase2-promotions")

    def cem_checkpoint_path(self, hyperparams, scenario) -> Path:
        """Per-template-point CEM trainer snapshot file."""
        return (self.run_dir / "phase1" /
                f"cem-L{hyperparams.num_layers}-F{hyperparams.num_filters}"
                f"-{scenario.value}.pkl")

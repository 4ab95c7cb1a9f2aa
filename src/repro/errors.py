"""Exception types shared across the AutoPilot reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class DesignSpaceError(ReproError):
    """A design point lies outside the declared design space."""


class SimulationError(ReproError):
    """A simulator was driven into an inconsistent state."""


class CheckpointError(ReproError):
    """A run checkpoint is missing, corrupt or inconsistent with the run."""

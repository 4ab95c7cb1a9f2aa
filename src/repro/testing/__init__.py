"""Test-support utilities shipped with the library.

``repro.testing.faults`` provides deterministic, seed-free fault
injection for the sweep runtime: pool worker crashes and simulated
kills between checkpoint writes.  It is used by the fault-tolerance
test suites and by the opt-in ``REPRO_FAULTS`` environment hook.
"""

from repro import _lazy_exports

_EXPORTS = {
    "FAULTS_ENV": "faults",
    "FaultInjector": "faults",
    "FaultRule": "faults",
    "SimulatedKill": "faults",
    "active_faults": "faults",
    "current_injector": "faults",
    "install_injector": "faults",
    "parse_faults": "faults",
    "uninstall_injector": "faults",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)

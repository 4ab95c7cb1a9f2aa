"""Baseline onboard computers for the Fig. 5 / Table V comparisons."""

from repro import _lazy_exports

_EXPORTS = {
    "BaselineComputer": "computers",
    "JETSON_TX2": "computers",
    "XAVIER_NX": "computers",
    "PULP_DRONET": "computers",
    "INTEL_NCS": "computers",
    "FIG5_BASELINES": "computers",
    "TABLE5_BASELINES": "computers",
    "ALL_BASELINES": "computers",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)

"""Power models: CACTI-like SRAM, Micron-like DRAM, PE array, scaling."""

from repro import _lazy_exports

_EXPORTS = {
    "SramModel": "cacti",
    "sram_model": "cacti",
    "DramPowerReport": "dram",
    "dram_power": "dram",
    "ArrayPowerReport": "pe",
    "array_power": "pe",
    "MAC_ENERGY_PJ": "pe",
    "IDLE_ENERGY_PJ": "pe",
    "AcceleratorPowerBreakdown": "soc_power",
    "accelerator_power": "soc_power",
    "frequency_power_factor": "technology",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)

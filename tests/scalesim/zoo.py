"""Model-zoo policies and random accelerator pools for the estimator tests.

Shared by ``tests/scalesim/test_estimate.py`` and
``tests/soc/test_estimate.py``, which check the tier-0 bounds against
the exact simulator over the same policies and config distribution.
"""

from repro.nn.template import PolicyHyperparams, build_policy_network
from repro.nn.workload import lower_network
from repro.scalesim.config import (
    PE_DIM_CHOICES,
    SRAM_KB_CHOICES,
    AcceleratorConfig,
    Dataflow,
)

#: Model-zoo corners plus a mid-size policy: smallest, typical, largest.
ZOO = (
    PolicyHyperparams(num_layers=2, num_filters=32),
    PolicyHyperparams(num_layers=5, num_filters=48),
    PolicyHyperparams(num_layers=10, num_filters=64),
)


def random_configs(rng, count, pe_choices=PE_DIM_CHOICES,
                   sram_choices=SRAM_KB_CHOICES):
    """Uniform random accelerator configs over all three dataflows."""
    return [
        AcceleratorConfig(
            pe_rows=int(rng.choice(pe_choices)),
            pe_cols=int(rng.choice(pe_choices)),
            ifmap_sram_kb=int(rng.choice(sram_choices)),
            filter_sram_kb=int(rng.choice(sram_choices)),
            ofmap_sram_kb=int(rng.choice(sram_choices)),
            dataflow=list(Dataflow)[int(rng.integers(3))],
        )
        for _ in range(count)
    ]


def workload_for(policy):
    return lower_network(build_policy_network(policy))

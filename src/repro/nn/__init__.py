"""E2E policy-network templates and accelerator workload lowering."""

from repro import _lazy_exports

_EXPORTS = {
    "ConvLayer": "layers",
    "DenseLayer": "layers",
    "PoolLayer": "layers",
    "GemmShape": "layers",
    "PolicyHyperparams": "template",
    "PolicyNetwork": "template",
    "build_policy_network": "template",
    "enumerate_template_space": "template",
    "LAYER_CHOICES": "template",
    "FILTER_CHOICES": "template",
    "NUM_ACTIONS": "template",
    "STATE_DIM": "template",
    "LayerWorkload": "workload",
    "NetworkWorkload": "workload",
    "lower_network": "workload",
    "build_dronet": "model_zoo",
    "DRONET_REPORTED_PARAMS": "model_zoo",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)

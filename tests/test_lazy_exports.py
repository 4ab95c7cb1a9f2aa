"""The lazy-export contract every ``repro`` package keeps.

Each package lists its public names once, in ``_EXPORTS`` (name ->
defining submodule), and resolves them on first lookup (PEP 562).
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg)

#: Names a package defines itself instead of exporting from a submodule.
OWN_NAMES = {"repro": ["__version__"]}


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_package_is_covered():
    assert {"repro.airlearning", "repro.core", "repro.experiments",
            "repro.optim", "repro.perf", "repro.testing"} <= set(PACKAGES)


def test_all_is_the_export_table(package):
    assert package.__all__ == (OWN_NAMES.get(package.__name__, [])
                               + list(package._EXPORTS))


def test_each_name_is_its_defining_submodules_object(package):
    for name, submodule in package._EXPORTS.items():
        defining = importlib.import_module(f"{package.__name__}.{submodule}")
        assert getattr(package, name) is getattr(defining, name), name


def test_dir_lists_every_export(package):
    assert set(package.__all__) <= set(dir(package))


def test_star_import_binds_exactly_all(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(package.__all__)


def test_unknown_name_names_the_package(package):
    with pytest.raises(AttributeError, match=f"'{package.__name__}' has no "
                                             "attribute 'no_such_name'"):
        package.no_such_name


def test_a_name_resolves_once(package, monkeypatch):
    for name in package._EXPORTS:
        monkeypatch.delattr(package, name, raising=False)
        first = getattr(package, name)
        assert vars(package)[name] is first
        assert getattr(package, name) is first


def test_public_import_paths_keep_working():
    from repro import AutoPilot
    from repro.experiments import format_table
    from repro.optim import SmsEgoBayesOpt, hypervolume
    from repro.optim.hypervolume import hypervolume as defined

    assert AutoPilot.__module__ == "repro.core.pipeline"
    assert SmsEgoBayesOpt.__module__ == "repro.optim.bayesopt"
    assert format_table.__module__ == "repro.experiments.runner"
    # The function, not the submodule of the same name.
    assert hypervolume is defined

import importlib
import pkgutil

import pytest

import knockout

MODULES = sorted(
    f"knockout.{info.name}" for info in pkgutil.iter_modules(knockout.__path__)
)

DELETED = {
    # Superseded by the per-kind missing-input rules in knockout.methods.
    "knockout.augment": ("AugmentedRow", "augment_row", "impute_for_inference"),
    "knockout.evaluate": ("marginal_fidelity", "marginal_jsd_metrics"),
    # The out-of-support check computes every evidence of a pattern at once.
    "knockout.discrete": ("make_evidence", "reachable_evidence"),
}


def test_every_package_export_resolves():
    for name in knockout.__all__:
        assert hasattr(knockout, name), name


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_export_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", sorted(DELETED))
def test_deleted_names_are_gone(module_name):
    module = importlib.import_module(module_name)
    for name in DELETED[module_name]:
        assert not hasattr(module, name), f"{module_name}.{name}"
        assert not hasattr(knockout, name), name
        assert name not in knockout.__all__

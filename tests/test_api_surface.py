"""The public API surface: __all__ names exist, import cleanly, and are
documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.adapt",
    "repro.avatar",
    "repro.baselines",
    "repro.cloud",
    "repro.content",
    "repro.core",
    "repro.edge",
    "repro.hci",
    "repro.lint",
    "repro.media",
    "repro.metrics",
    "repro.net",
    "repro.obs",
    "repro.render",
    "repro.sensing",
    "repro.sickness",
    "repro.simkit",
    "repro.sync",
    "repro.workload",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_imports_and_all_resolves(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, f"{package_name} lacks a module docstring"
    exported = getattr(package, "__all__", None)
    assert exported, f"{package_name} lacks __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_exported_classes_are_documented(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        if name.startswith("__"):
            continue
        obj = getattr(package, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.0.0"

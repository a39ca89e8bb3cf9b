"""API quality gates: export hygiene across the package."""

import importlib

import repro

PACKAGES = [
    "repro", "repro.isa", "repro.pdn", "repro.pmu", "repro.microarch",
    "repro.soc", "repro.measure", "repro.core", "repro.core.baselines",
    "repro.mitigations", "repro.analysis", "repro.runner", "repro.faults",
    "repro.obs", "repro.verify",
]


class TestExports:
    def test_all_lists_resolve(self):
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            exported = getattr(package, "__all__", [])
            for name in exported:
                assert hasattr(package, name), f"{package_name}.{name}"

    def test_top_level_version(self):
        assert repro.__version__ == "1.0.0"

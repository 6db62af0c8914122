"""Hygiene tests for the public API surface.

A downstream user's first contact is ``import repro``; these tests
keep that surface coherent: every advertised name resolves, every
public module documents itself, and the subpackage ``__all__`` lists
are accurate.
"""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = [
    "repro.memory_model",
    "repro.litmus",
    "repro.mutation",
    "repro.gpu",
    "repro.env",
    "repro.confidence",
    "repro.analysis",
    "repro.scopes",
    "repro.backends",
    "repro.synthesis",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_sorted_unique(self):
        assert sorted(set(repro.__all__)) == list(repro.__all__)

    def test_docstring(self):
        assert "MC Mutants" in repro.__doc__


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable_with_accurate_all(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, module_name
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_every_submodule_documented(self, module_name):
        package = importlib.import_module(module_name)
        for info in pkgutil.iter_modules(package.__path__):
            submodule = importlib.import_module(
                f"{module_name}.{info.name}"
            )
            assert submodule.__doc__, submodule.__name__

    def test_error_hierarchy(self):
        from repro import errors

        for name in (
            "MalformedExecutionError",
            "MalformedProgramError",
            "MutationError",
            "WitnessError",
            "EnvironmentError_",
            "DeviceError",
            "AnalysisError",
        ):
            exception_class = getattr(errors, name)
            assert issubclass(exception_class, errors.ReproError)


class TestReadmeQuickstart:
    def test_readme_snippet_runs(self):
        """The README's quickstart code must actually work."""
        import numpy as np

        from repro import (
            Runner,
            TestOracle,
            build_suite,
            make_device,
            site_baseline,
        )

        suite = build_suite()
        corr = suite.find_by_alias("CoRR")
        device = make_device("intel", buggy=True)
        oracle = TestOracle(corr.conformance)
        outcome = device.run_instance(
            corr.conformance,
            workload=site_baseline().workload(
                device.profile, corr.conformance
            ),
            rng=np.random.default_rng(0),
        )
        assert isinstance(oracle.is_violation(outcome), bool)
        run = Runner().run(
            device, corr.mutants[0], site_baseline(), seed=0
        )
        assert run.iterations == 300

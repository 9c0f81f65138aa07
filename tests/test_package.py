"""The package namespace: each layer is imported on first use of one of its
names, and every name the package lists resolves to its layer's object."""

import importlib
import json

import pytest

import clext
from conftest import run_child

#: Every public name of the package, by the layer that defines it.
EXPORTED = {
    "algebra": (
        "AlgebraSpec", "RepClass", "RepKind", "classify", "energy_level", "energy_values",
        "from_alpha", "from_kappa", "sample_bfb_alpha", "structure_function",
        "structure_values",
    ),
    "errors": (
        "ClextError", "ConjugationViolationError", "DimensionTooLargeError",
        "EtaNormViolationError", "LengthMismatchError", "MarginTooLargeError",
        "NonFiniteError", "NonUnitaryError", "NonUnitaryTruncationError",
        "NotBoundedFromBelowError", "OrderMismatchError", "ParseError", "SumNotZeroError",
        "ValidationError", "WrongLambdaError", "WrongOrderError",
    ),
    "fock": (
        "TruncatedFockRep", "build_fock_rep", "casimir", "grading_sector",
        "ladder_matrices", "norm_coefficient",
    ),
    "pssqm": (
        "BdReport", "BdScanPoint", "BreakingReport", "KhareRun", "PssqmConfig",
        "PssqmReport", "SsqmReport", "bd_scan", "beckers_debergh_check",
        "build_supercharge", "classify_breaking", "default_eta", "find_null_ground_alpha",
        "ground_energy", "khare_check", "sample_ground_energies", "solve_and_check",
        "solve_config", "solve_r", "ssqm_check",
    ),
    "spectrum": (
        "Cluster", "SpectrumReport", "degeneracy_profile", "hamiltonian_h0",
        "shifted_hamiltonian", "spectrum_report",
    ),
    "verify": (
        "RelationResidual", "ResidualReport", "verify_defining_relations",
        "verify_projector_algebra",
    ),
}
LAYERS = tuple(f"clext.{layer}" for layer in EXPORTED)
NAMES = [(layer, name) for layer, names in EXPORTED.items() for name in names]


def loaded_after(script: str) -> list[str]:
    """The clext modules a fresh interpreter holds after running ``script``."""
    proc = run_child(script + "\nimport json, sys\n"
                     "print(json.dumps(sorted(m for m in sys.modules if m.startswith('clext'))))")
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


class TestFirstUse:
    def test_import_loads_no_layer(self):
        assert loaded_after("import clext") == ["clext"]

    def test_verify_loads_its_layers_only(self):
        script = (
            "import clext\n"
            "rep = clext.build_fock_rep(clext.from_alpha(3, [1.0, -0.5, -0.5]), 30)\n"
            "assert clext.verify_defining_relations(rep).all_pass\n"
            "assert clext.verify_projector_algebra(rep).all_pass\n"
        )
        assert loaded_after(script) == [
            "clext", "clext.algebra", "clext.errors", "clext.fock", "clext.verify"]

    def test_cli_loads_every_layer(self):
        assert loaded_after("import clext.cli") == sorted(["clext", "clext.cli", *LAYERS])

    def test_layers_resolve_after_a_bare_import(self):
        script = (
            "import types, clext\n"
            f"for layer in {[layer.split('.')[1] for layer in LAYERS]!r}:\n"
            "    module = getattr(clext, layer)\n"
            "    assert isinstance(module, types.ModuleType), layer\n"
            "    assert module.__name__ == 'clext.' + layer, module\n"
        )
        assert loaded_after(script) == sorted(["clext", *LAYERS])


class TestNamespace:
    def test_all_lists_every_public_name_and_layer(self):
        assert sorted(clext.__all__) == sorted([name for _, name in NAMES] + list(EXPORTED))
        assert len(clext.__all__) == len(set(clext.__all__))
        assert set(clext.__all__) <= set(dir(clext))

    @pytest.mark.parametrize("layer, name", NAMES)
    def test_name_is_its_layers_object(self, layer, name):
        assert name in clext.__all__
        assert name in dir(clext)
        assert getattr(clext, name) is getattr(importlib.import_module(f"clext.{layer}"), name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from clext import *", namespace)
        for layer, name in NAMES:
            assert namespace[name] is getattr(importlib.import_module(f"clext.{layer}"), name)
        for layer in EXPORTED:
            assert namespace[layer] is importlib.import_module(f"clext.{layer}")

    @pytest.mark.parametrize("name", ["no_such_name", "_EXPORTS_", "Verify", "cli_main"])
    def test_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=f"module 'clext' has no attribute '{name}'"):
            getattr(clext, name)
        assert not hasattr(clext, name)

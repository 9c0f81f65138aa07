"""Cyclic-group extended oscillator algebras on truncated Fock spaces.

Build number-basis representations (the bands of a and adag, the diagonals
of N, T and P_mu), verify the defining relations numerically, compute
spectra with their graded degeneracy structure, and solve the bosonization
of order-p parasupersymmetric quantum mechanics on the same carrier space.

Each layer is imported on first use of one of its names (PEP 562), so a
process that only builds and verifies representations never loads the
spectrum or parasupersymmetry layers.
"""

import importlib

__version__ = "0.1.0"

#: The public names of each layer, in the order the package lists them.
_EXPORTS = {
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
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = [*_LAYER_OF, *_EXPORTS]


def __getattr__(name):
    """A layer module, or a public name read from its layer and kept here."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_LAYER_OF[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

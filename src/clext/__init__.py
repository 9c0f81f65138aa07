"""Cyclic-group extended oscillator algebras on truncated Fock spaces.

Build number-basis representations (the bands of a and adag, the diagonals
of N, T and P_mu), verify the defining relations numerically, compute
spectra with their graded degeneracy structure, and solve the bosonization
of order-p parasupersymmetric quantum mechanics on the same carrier space.
"""

from .algebra import (
    AlgebraSpec,
    RepClass,
    RepKind,
    classify,
    energy_level,
    energy_values,
    from_alpha,
    from_kappa,
    sample_bfb_alpha,
    structure_function,
    structure_values,
)
from .errors import (
    ClextError,
    ConjugationViolationError,
    DimensionTooLargeError,
    EtaNormViolationError,
    LengthMismatchError,
    MarginTooLargeError,
    NonFiniteError,
    NonUnitaryError,
    NonUnitaryTruncationError,
    NotBoundedFromBelowError,
    OrderMismatchError,
    ParseError,
    SumNotZeroError,
    ValidationError,
    WrongLambdaError,
    WrongOrderError,
)
from .fock import (
    TruncatedFockRep,
    build_fock_rep,
    casimir,
    grading_sector,
    interior_max_abs,
    ladder_matrices,
    norm_coefficient,
)
from .pssqm import (
    BdReport,
    BdScanPoint,
    BreakingReport,
    KhareRun,
    PssqmConfig,
    PssqmReport,
    SsqmReport,
    bd_scan,
    beckers_debergh_check,
    build_supercharge,
    classify_breaking,
    default_eta,
    find_null_ground_alpha,
    ground_energy,
    khare_check,
    sample_ground_energies,
    solve_and_check,
    solve_config,
    solve_r,
    ssqm_check,
)
from .spectrum import (
    Cluster,
    SpectrumReport,
    degeneracy_profile,
    hamiltonian_h0,
    shifted_hamiltonian,
    spectrum_report,
)
from .verify import (
    RelationResidual,
    ResidualReport,
    verify_defining_relations,
    verify_projector_algebra,
)

__version__ = "0.1.0"

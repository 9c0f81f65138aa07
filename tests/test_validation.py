"""The library's validation branches, each with its exception class and message.

Every door that takes one of the paper's parameter vectors (alpha, kappa, eta,
the shifts r) checks it through ``algebra.require_vector``: a wrong length
raises the door's own class, naming the shape, and a NaN or infinite entry
raises NonFiniteError.
"""

import numpy as np
import pytest

from clext import (
    AlgebraSpec,
    LengthMismatchError,
    NonFiniteError,
    OrderMismatchError,
    PssqmConfig,
    WrongOrderError,
    bd_scan,
    beckers_debergh_check,
    build_fock_rep,
    build_supercharge,
    default_eta,
    energy_level,
    from_alpha,
    from_kappa,
    khare_check,
    norm_coefficient,
    sample_bfb_alpha,
    shifted_hamiltonian,
    solve_and_check,
    solve_r,
)
from clext.algebra import _MAX_DRAWS

WORKED = from_alpha(3, [1.0, -0.5, -0.5])
REP = build_fock_rep(WORKED, 36)

#: door -> (a call of it with ``v`` for the vector it checks, the vector's name,
#: its length, its dtype, the class a wrong length raises)
DOORS = {
    "AlgebraSpec-alpha": (lambda v: AlgebraSpec(lam=3, kappa=WORKED.kappa, alpha=v),
                          "alpha", 3, float, LengthMismatchError),
    "AlgebraSpec-kappa": (lambda v: AlgebraSpec(lam=3, kappa=v, alpha=WORKED.alpha),
                          "kappa", 2, complex, LengthMismatchError),
    "from_alpha": (lambda v: from_alpha(3, v), "alpha", 3, float, LengthMismatchError),
    "from_kappa": (lambda v: from_kappa(3, v), "kappa", 2, complex, LengthMismatchError),
    "eta": (lambda v: solve_r(WORKED, 0, v), "eta", 2, complex, OrderMismatchError),
    "PssqmConfig-r": (lambda v: PssqmConfig(spec=WORKED, mu=0, eta=None, r=v),
                      "r", 3, float, OrderMismatchError),
    "solve_and_check-r": (lambda v: solve_and_check(WORKED, 0, dim=36, r=v),
                          "r", 3, float, LengthMismatchError),
    "beckers_debergh_check-r": (lambda v: beckers_debergh_check(REP, 0, r=v),
                                "r", 3, float, LengthMismatchError),
    "shifted_hamiltonian": (lambda v: shifted_hamiltonian(REP, v),
                            "shifts", 3, float, LengthMismatchError),
    "bd_scan": (lambda v: bd_scan(v, 0, -2.0, 0.0, 3), "base_alpha", 3, float, WrongOrderError),
}


@pytest.mark.parametrize("door", list(DOORS))
@pytest.mark.parametrize("change", [-1, 1])
def test_wrong_length_raises_the_doors_class(door, change):
    call, name, size, _, error = DOORS[door]
    with pytest.raises(error) as raised:
        call(np.zeros(size + change))
    assert str(raised.value) == f"{name} must have {size} entries, got ({size + change},)"


@pytest.mark.parametrize("door", list(DOORS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises_non_finite_error(door, bad):
    call, name, size, dtype, _ = DOORS[door]
    values = np.ones(size, dtype=dtype)
    values[-1] = bad
    with pytest.raises(NonFiniteError) as raised:
        call(values)
    assert str(raised.value) == f"{name} must be finite, got {values.tolist()}"


@pytest.mark.parametrize("call, error, message", [
    (lambda: AlgebraSpec(lam=1, kappa=[], alpha=[0.0]), ValueError,
     "cyclic order must be an integer >= 2, got 1"),
    (lambda: default_eta(0), ValueError, "order must be >= 1, got 0"),
    (lambda: solve_r(WORKED, 0, [0.0, 2.0]), ValueError, "eta entries must be nonzero"),
    (lambda: bd_scan([0.0, 0.0, 0.0], 0, -2.0, 0.0, 0), ValueError,
     "points must be >= 1, got 0"),
    (lambda: energy_level(WORKED, -1), ValueError, "n must be non-negative, got -1"),
    (lambda: norm_coefficient(WORKED, -1), ValueError, "n must be non-negative, got -1"),
], ids=["lambda-1", "default_eta-0", "eta-zero-entry", "bd_scan-points-0",
        "energy_level-negative", "norm_coefficient-negative"])
def test_rejected_argument(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


class CornerDraws:
    """A generator whose every draw is the corner [-0.9, 2.0] of the box at lam 2,
    [-1.45, 1.45] after projection: F(1) = -0.45, never admissible."""

    def uniform(self, low, high, size):
        return np.array([low, high])


def test_sampler_gives_up_after_its_draw_cap():
    with pytest.raises(RuntimeError) as raised:
        sample_bfb_alpha(2, CornerDraws())
    assert str(raised.value) == f"no bounded-from-below alpha found in {_MAX_DRAWS} draws"


@pytest.mark.parametrize("energies", [np.ones(30), np.arange(40.0), np.ones(1)],
                         ids=["short", "long", "one"])
def test_khare_check_rejects_energies_of_another_shape(energies):
    # checked with the charge, before any clustering or band arithmetic
    rep = build_fock_rep(WORKED, 36)
    with pytest.raises(ValueError) as raised:
        khare_check(rep, build_supercharge(rep, 0), energies)
    assert str(raised.value) == (f"hamiltonian must hold one energy per state, dim = 36, "
                                 f"got shape {energies.shape}")

"""Parameters and scalar structure of cyclic-group extended oscillator algebras.

An algebra of cyclic order ``lam`` is fixed by the complex couplings
``kappa_1 .. kappa_{lam-1}`` attached to the powers of the cyclic generator,
or equivalently by the real sector couplings ``alpha_0 .. alpha_{lam-1}``
attached to the sector projectors.  The two parameter sets are related by a
discrete Fourier transform over the lam-th roots of unity; reality of alpha
corresponds to the conjugation constraint conj(kappa_mu) = kappa_{lam-mu}.

Every derived scalar is constant on a residue class s mod lam, so one
per-sector table, built once by :func:`_sector_table`, holds them all:

* ``beta_s``  partial sums of alpha (beta_0 = 0), entering the structure
  function F(n) = n + beta_{n mod lam},
* ``gamma_s = beta_s + alpha_s / 2``, entering the oscillator energies
  E_n = n + 1/2 + gamma_{n mod lam},
* the witnesses F(1) .. F(lam-1), which decide admissibility.

All parameter subscripts are understood mod lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    ConjugationViolationError,
    LengthMismatchError,
    NonFiniteError,
    NonUnitaryError,
    SumNotZeroError,
)

#: Tolerance of the parameter checks; :func:`breaks_constraint` scales it by the terms' size.
CONSTRAINT_TOL = 1e-12


def require_finite(name: str, values: np.ndarray) -> None:
    """Reject NaN and infinite entries, which every ``abs(x) > tol`` check
    lets through (NaN compares false)."""
    if not np.logical_and.reduce(np.isfinite(values), axis=None):  # all(), without its wrapper
        raise NonFiniteError(f"{name} must be finite, got {values.tolist()}")


def breaks_constraint(residual: float, *terms: np.ndarray) -> bool:
    """Whether ``residual`` exceeds ``CONSTRAINT_TOL * max(1, max |term|)``: rounding in
    a sum or difference grows with the ``terms`` it is made of, not with its result."""
    return residual > CONSTRAINT_TOL and residual > CONSTRAINT_TOL * max(
        1.0, *(float(np.abs(term).max()) for term in terms))


def _sector_table(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sector table in alpha's dtype: beta_s = alpha_0 + .. + alpha_{s-1} (beta_0 = 0),
    gamma_s = beta_s + alpha_s / 2 and the witnesses F(s) = s + beta_s, s = 1 .. lam-1."""
    beta = np.zeros(alpha.shape, alpha.dtype)
    np.add.accumulate(alpha[:-1], out=beta[1:])  # a cumsum, in place
    return beta, beta + alpha / 2, np.arange(1, len(alpha), dtype=alpha.dtype) + beta[1:]


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """Validated parameter set of one algebra of cyclic order ``lam``.

    Instances are immutable; build them through :func:`from_kappa` or
    :func:`from_alpha` rather than directly.  ``beta``, ``gamma`` and the
    witnesses are the sector table of ``alpha``, built on construction.
    """

    lam: int
    kappa: np.ndarray   # lam-1 complex couplings kappa_1 .. kappa_{lam-1}
    alpha: np.ndarray   # lam real sector couplings, sum zero
    beta: np.ndarray = field(init=False)    # partial sums of alpha, beta_0 = 0
    gamma: np.ndarray = field(init=False)   # beta + alpha / 2
    _witnesses: np.ndarray = field(init=False, repr=False)  # F(1) .. F(lam-1)

    def __post_init__(self):
        if not isinstance(self.lam, (int, np.integer)) or self.lam < 2:
            raise ValueError(f"cyclic order must be an integer >= 2, got {self.lam!r}")
        lam = int(self.lam)
        object.__setattr__(self, "lam", lam)
        kappa = np.array(self.kappa, dtype=complex)  # copies, locked below
        alpha = np.array(self.alpha, dtype=float)

        if kappa.shape != (lam - 1,):
            raise LengthMismatchError(f"kappa must have {lam - 1} entries, got {kappa.shape}")
        if alpha.shape != (lam,):
            raise LengthMismatchError(f"alpha must have {lam} entries, got {alpha.shape}")
        require_finite("alpha", alpha)
        require_finite("kappa", kappa)

        total = float(np.add.reduce(alpha))  # alpha.sum(), without its wrapper
        if breaks_constraint(abs(total), alpha):
            raise SumNotZeroError(f"alpha must sum to zero, got sum = {total!r}")
        _check_conjugation(kappa, alpha)  # from_alpha's kappa: a Fourier sum of alpha
        names = ("kappa", "alpha", "beta", "gamma", "_witnesses")
        for name, arr in zip(names, (kappa, alpha, *_sector_table(alpha))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_conjugation(kappa: np.ndarray, *terms: np.ndarray) -> None:
    """Require conj(kappa_mu) = kappa_{lam-mu} up to :func:`breaks_constraint`."""
    diff = np.conj(kappa) - kappa[::-1]
    # hypot is abs() of one complex scalar; fmax skips NaN as the builtin max does
    mism = float(np.fmax.reduce(np.hypot(diff.real, diff.imag), initial=0.0))
    if breaks_constraint(mism, kappa, *terms):
        raise ConjugationViolationError(
            f"conj(kappa_mu) != kappa_(lam-mu), worst mismatch {mism:.3e}"
        )


def from_kappa(lam: int, kappa) -> AlgebraSpec:
    """Build a spec from the cyclic-generator couplings kappa_1 .. kappa_{lam-1}.

    The sector couplings follow from the Fourier sum
    alpha_mu = sum_nu exp(2i pi mu nu / lam) kappa_nu, which is real and
    sums to zero whenever kappa satisfies the conjugation constraint.
    The imaginary residue of the transform is checked through
    :func:`breaks_constraint` and then discarded.
    """
    kappa = np.asarray(kappa, dtype=complex)
    if kappa.shape != (lam - 1,):
        raise LengthMismatchError(f"kappa must have {lam - 1} entries, got {kappa.shape}")
    require_finite("kappa", kappa)
    _check_conjugation(kappa)
    mu = np.arange(lam)[:, None]
    nu = np.arange(1, lam)[None, :]
    alpha_c = (np.exp(2j * np.pi * mu * nu / lam) * kappa[None, :]).sum(axis=1)
    imag = float(np.max(np.abs(alpha_c.imag)))
    if breaks_constraint(imag, kappa):
        raise ConjugationViolationError(f"alpha has imaginary residue {imag:.3e}")
    return AlgebraSpec(lam=lam, kappa=kappa, alpha=alpha_c.real.copy())


#: Largest order whose phase tables are kept: at most 63 of each, about
#: 1.4 MB in all for ``from_alpha``'s, where one table grows as lam^2.
_PHASE_CACHE_MAX_LAM = 64


def phase_table(table, lam: int) -> np.ndarray:
    """``table(lam)`` for a cached per-lam table: kept for lam up to
    ``_PHASE_CACHE_MAX_LAM``, computed afresh (and not kept) above it."""
    return table(lam) if lam <= _PHASE_CACHE_MAX_LAM else table.__wrapped__(lam)


@lru_cache(maxsize=None)
def _inverse_phases(lam: int) -> np.ndarray:
    """Read-only exp(-2i pi mu nu / lam), row nu = 1 .. lam-1, column mu."""
    nu = np.arange(1, lam)[:, None]
    mu = np.arange(lam)[None, :]
    phases = np.exp(-2j * np.pi * mu * nu / lam)
    phases.setflags(write=False)
    return phases


def from_alpha(lam: int, alpha) -> AlgebraSpec:
    """Build a spec from the real sector couplings alpha_0 .. alpha_{lam-1}.

    Requires sum(alpha) = 0 within ``CONSTRAINT_TOL * max(1, max |alpha_mu|)``;
    inputs violating the sum are rejected rather than renormalized.  The
    inverse Fourier sum kappa_nu = (1/lam) sum_mu exp(-2i pi mu nu / lam) alpha_mu
    then satisfies the conjugation constraint up to rounding at alpha's size.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (lam,):
        raise LengthMismatchError(f"alpha must have {lam} entries, got {alpha.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # AlgebraSpec rejects what is not finite
        kappa = np.add.reduce(phase_table(_inverse_phases, lam) * alpha, axis=1) / lam
    return AlgebraSpec(lam=lam, kappa=kappa, alpha=alpha)


def structure_function(spec: AlgebraSpec, n: int) -> float:
    """Structure function F(n) = n + beta_{n mod lam}; F(0) = 0 always."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return float(n + spec.beta[n % spec.lam])


def _derived(spec: AlgebraSpec, dtype) -> tuple[np.ndarray, np.ndarray]:
    """beta and gamma in the real ``dtype``: the spec's own, else the table of alpha in it."""
    if dtype is float or np.dtype(dtype) == spec.alpha.dtype:
        return spec.beta, spec.gamma
    return _sector_table(spec.alpha.astype(dtype))[:2]


def structure_values(spec: AlgebraSpec, count: int, dtype=float) -> np.ndarray:
    """F(0) .. F(count-1) as an array, computed in the requested real dtype."""
    n = np.arange(count)
    beta, _ = _derived(spec, dtype)
    return n.astype(dtype) + beta[n % spec.lam]


class RepKind(Enum):
    FINITE_DIM = "finite-dimensional"
    BOUNDED_FROM_BELOW = "bounded-from-below"


@dataclass(frozen=True, eq=False)
class RepClass:
    """Which unitary Fock representation the parameters admit.

    ``witnesses`` holds F(1) .. F(lam-1), the values the decision is based
    on.  ``dim`` is set only for the finite-dimensional kind.
    """

    kind: RepKind
    dim: int | None
    witnesses: np.ndarray

    @property
    def is_bounded_from_below(self) -> bool:
        return self.kind is RepKind.BOUNDED_FROM_BELOW


def _first_inadmissible(witnesses: np.ndarray) -> int | None:
    """The first m with F(m) <= ``CONSTRAINT_TOL``, or None: the one admissibility test."""
    admissible = witnesses > CONSTRAINT_TOL
    return None if np.logical_and.reduce(admissible) else int(admissible.argmin()) + 1


def classify(spec: AlgebraSpec) -> RepClass:
    """Classify the unitary Fock representation of a spec.

    A zero of F at some d < lam (with F positive before it) gives a
    finite-dimensional representation of dimension d; F(mu) > 0 throughout
    gives the infinite bounded-from-below one.  A negative F value before
    any zero means no unitary Fock representation of either type exists
    and raises :class:`NonUnitaryError`.
    """
    witnesses = spec._witnesses
    m = _first_inadmissible(witnesses)
    if m is None:
        return RepClass(RepKind.BOUNDED_FROM_BELOW, None, witnesses)
    if abs(witnesses[m - 1]) <= CONSTRAINT_TOL:
        return RepClass(RepKind.FINITE_DIM, m, witnesses)
    raise NonUnitaryError(
        f"F({m}) = {float(witnesses[m - 1])!r} < 0 before any zero: no unitary Fock representation"
    )


def energy_level(spec: AlgebraSpec, n: int) -> float:
    """Oscillator energy E_n = n + 1/2 + gamma_{n mod lam}.

    Within each residue class mod lam the levels are spaced exactly lam
    apart, so the spectrum splits into lam harmonic families.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return float(n + 0.5 + spec.gamma[n % spec.lam])


def energy_values(spec: AlgebraSpec, count: int, dtype=float) -> np.ndarray:
    """E_0 .. E_{count-1} as an array, computed in the requested real dtype."""
    n = np.arange(count)
    _, gamma = _derived(spec, dtype)
    return n.astype(dtype) + 0.5 + gamma[n % spec.lam]


def admits_bfb(alpha) -> bool:
    """Whether F(mu) > ``CONSTRAINT_TOL`` for mu = 1 .. lam-1: the
    bounded-from-below verdict of :func:`classify`, without building a spec."""
    return _first_inadmissible(_sector_table(np.asarray(alpha, dtype=float))[2]) is None


def sample_bfb_alpha(
    lam: int,
    rng: np.random.Generator,
    low: float = -0.9,
    high: float = 2.0,
    max_tries: int = 10000,
) -> np.ndarray:
    """Draw a random alpha admitting a bounded-from-below representation.

    Components are uniform in [low, high], projected onto sum zero, and
    rejected until every F(mu), mu = 1 .. lam-1, is strictly positive.
    """
    for _ in range(max_tries):
        alpha = rng.uniform(low, high, lam)
        alpha -= alpha.mean()
        if admits_bfb(alpha):
            return alpha
    raise RuntimeError(f"no bounded-from-below alpha found in {max_tries} draws")

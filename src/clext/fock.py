"""Truncated number-basis representations of the algebra generators.

The representation keeps the first ``dim`` number states |0> .. |dim-1>.
Every generator is a weighted shift, stored as its length-``dim`` band.
Ladder elements follow the real non-negative square-root convention,
a |n> = sqrt(F(n)) |n-1>, so a[n] = <n-1|a|n> = sqrt(F(n)) with a[0] = 0,
and adag[n] = <n|adag|n-1> = conj(a[n]).  N, T and P_mu are functions of N,
so they are stored as their diagonals: num[n] = n and T[n] = exp(2i pi n / lam).
The lam projector diagonals form one (lam, dim) array ``P`` whose row mu is
P_mu, the 0/1 indicator of n = mu (mod lam); ``P[mu]``, iteration over the
sectors and ``sum(P)`` work as on a sequence of diagonals.  The rows are
shifted copies of one period, so ``P`` is lam windows onto one read-only
0/1 array of dim + lam - 1 entries, and a rep is O(dim) memory at any lam.
Band entry n joins states n - 1 and n, so a product with a diagonal ``d`` is
elementwise: ``band * d`` takes d at the upper state and
``band * lower_shift(d)`` at the lower one (a D and D adag are ``band * d``;
D a and adag D are ``band * lower_shift(d)``).  Neighbours are read along
the last (state) axis by two shifts: :func:`lower_shift`, x[n-k] and 0 for
n < k (no state lies below |0>), of all states or of a block, and
:func:`upper_shift`, x[n+1] and 0 past the top.  :func:`interior_max_abs`
reduces to the truncation interior, and :func:`ladder_matrices` expands the
ladder bands to dense matrices, the tests' oracle; the CLI writes even
``dump`` from the bands.

Truncation artifact: a adag is diagonal with entries F(n+1) except at the
top state, where the missing |dim> contribution leaves a zero.  adag a is
exact on every kept state.  Verifiers mask the artifact with an interior
margin instead of padding.  The artifact is absent only on an exact
finite rep, whose ``dim`` equals the dimension d of a finite-dimensional
spec (F(d) = 0, so |d> is never reached): :func:`build_fock_rep` records
that as ``exact`` from the classification it already makes, and the
verifiers read it instead of classifying the spec again.

Building a rep is O(dim) elementwise work plus a fixed per-call cost,
which dominates at the default dims.  So nothing already at hand is derived
again: the float64 structure values read the spec's own ``beta``, and the
phase row of T is a read-only table kept per lam (up to the same order as
the phase tables of ``from_alpha``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    AlgebraSpec,
    RepKind,
    classify,
    phase_table,
    structure_function,
    structure_values,
)
from .errors import DimensionTooLargeError, MarginTooLargeError, NonUnitaryTruncationError


@dataclass(frozen=True, eq=False)
class TruncatedFockRep:
    """Read-only bands of a and adag, read-only diagonals of N and T, the
    read-only (lam, dim) view P whose row mu is the diagonal of P_mu, and
    whether the rep is an exact finite one (``dim`` equals its dimension)."""

    spec: AlgebraSpec
    dim: int
    a: np.ndarray
    adag: np.ndarray
    num: np.ndarray
    T: np.ndarray
    P: np.ndarray
    exact: bool


@lru_cache(maxsize=None)
def _t_phases(lam: int) -> np.ndarray:
    """Read-only exp(2i pi mu / lam), mu = 0 .. lam-1: T on sector mu, from
    the reduced phase, so one rounding at any n."""
    phases = np.exp(2j * np.pi * np.arange(lam) / lam)
    phases.setflags(write=False)
    return phases


def build_fock_rep(spec: AlgebraSpec, dim: int, dtype=np.complex128) -> TruncatedFockRep:
    """Build the truncated representation on ``dim`` number states.

    Bounded-from-below specs accept any dim >= 1; finite-dimensional specs
    accept dim up to their dimension.  ``dtype`` selects the precision of
    the ladder bands; their square roots and the diagonals of N and P_mu
    are computed in the matching real dtype, which matters for long relation
    words checked at tight absolute tolerances.  T is complex128.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rep_class = classify(spec)
    if rep_class.kind is RepKind.FINITE_DIM and dim > rep_class.dim:
        raise DimensionTooLargeError(
            f"spec admits a {rep_class.dim}-dimensional representation, requested dim {dim}"
        )
    rdtype = np.finfo(dtype).dtype
    values = structure_values(spec, dim, dtype=rdtype)
    negative = values[1:] < 0
    if negative.any():
        bad = int(negative.argmax()) + 1
        raise NonUnitaryTruncationError(f"F({bad}) < 0 inside the truncation window")

    lam = spec.lam
    n = np.arange(dim)
    a = np.zeros(dim, dtype=dtype)
    a[1:] = np.sqrt(values[1:])
    adag = a.copy()  # conj(a): the square roots are real
    num = n.astype(rdtype)
    t_gen = phase_table(_t_phases, lam)[n % lam]
    # period[i] = 1 where i = lam - 1 (mod lam); row mu starts lam - 1 - mu in
    period = (np.arange(dim + lam - 1) % lam == lam - 1).astype(rdtype)
    step = period.itemsize
    projectors = np.ndarray((lam, dim), rdtype, period, (lam - 1) * step, (-step, step))
    for arr in (a, adag, num, t_gen, period, projectors):
        arr.setflags(write=False)
    return TruncatedFockRep(
        spec=spec, dim=dim, a=a, adag=adag, num=num, T=t_gen, P=projectors,
        exact=rep_class.dim == dim,
    )


def lower_shift(x: np.ndarray, k: int = 1, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """x[..., n - k] at the states n = lo .. hi - 1 (all by default), 0 for n < k."""
    hi = x.shape[-1] if hi is None else hi
    if lo >= k:
        return x[..., lo - k : hi - k]
    below = np.zeros((*x.shape[:-1], min(k, hi) - lo), x.dtype)
    return np.concatenate((below, x[..., : max(hi - k, 0)]), axis=-1)


def upper_shift(x: np.ndarray) -> np.ndarray:
    """x[..., n + 1], 0 past the top state."""
    return np.concatenate((x[..., 1:], np.zeros((*x.shape[:-1], 1), x.dtype)), axis=-1)


def interior_max_abs(mat: np.ndarray, margin: int) -> float:
    """Max |entry| of the interior block, i.e. of P_m @ mat @ P_m.

    A 1-D ``mat`` is a diagonal or a ladder band, whose interior is its
    first dim - margin entries: band entry n joins states n - 1 and n."""
    dim = mat.shape[0]
    if not 0 <= margin < dim:
        raise MarginTooLargeError(f"margin {margin} does not fit in dimension {dim}")
    k = dim - margin
    return float(np.abs(mat[:k, :k] if mat.ndim == 2 else mat[:k]).max())


def norm_coefficient(spec: AlgebraSpec, n: int) -> float:
    """Squared norm of (adag)^n |0>: the product F(1) F(2) ... F(n)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return float(math.prod(structure_function(spec, m) for m in range(1, n + 1)))


def ladder_matrices(rep: TruncatedFockRep) -> tuple[np.ndarray, np.ndarray]:
    """Dense a and adag: the bands placed on the super- and the subdiagonal."""
    return np.diag(rep.a[1:], 1), np.diag(rep.adag[1:], -1)


def casimir(rep: TruncatedFockRep) -> np.ndarray:
    """Diagonal of the Casimir F(N) - adag a; identically zero on the Fock space.

    The identity survives truncation exactly (including the top entry)
    because adag a never reaches past the kept states.
    """
    values = structure_values(rep.spec, rep.dim, dtype=rep.a.real.dtype)
    return values - rep.adag * rep.a


def grading_sector(rep: TruncatedFockRep, mu: int) -> list[int]:
    """Basis indices of grading sector mu: {n < dim : n = mu (mod lam)}.

    ``a`` maps sector mu into sector mu-1 and ``adag`` into mu+1, mod lam.
    """
    if not 0 <= mu < rep.spec.lam:
        raise ValueError(f"sector index must lie in 0..{rep.spec.lam - 1}, got {mu}")
    return list(range(mu, rep.dim, rep.spec.lam))

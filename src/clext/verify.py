"""Numerical verification of the algebra's defining relations.

Every relation is evaluated as a difference LHS - RHS, reduced as soon as
it is formed to the maximum absolute entry over the truncation interior.
N, T and P_mu are diagonals, so only the deformed commutator takes dense
matrix products and memory is a few dense matrices whatever lam is.  The
interior margin equals the relation's word length (the largest number of
ladder factors in any term), because each ladder factor can propagate the
truncation artifact at most one state down from the top.  An exact
finite-dimensional rep (dim = d with F(d) = 0) has no artifact: margin 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from .algebra import classify
from .errors import MarginTooLargeError
from .fock import TruncatedFockRep

DEFAULT_TOL = 1e-12


def interior_projector(dim: int, margin: int) -> np.ndarray:
    """Diagonal 0/1 matrix keeping basis states 0 .. dim-1-margin."""
    if not 0 <= margin < dim:
        raise MarginTooLargeError(f"margin {margin} does not fit in dimension {dim}")
    keep = np.zeros(dim)
    keep[: dim - margin] = 1.0
    return np.diag(keep)


def interior_max_abs(mat: np.ndarray, margin: int) -> float:
    """Max |entry| of the interior block, i.e. of P_m @ mat @ P_m.

    A 1-D ``mat`` is a diagonal or a ladder band, whose interior is its
    first dim - margin entries: band entry n joins states n - 1 and n."""
    dim = mat.shape[0]
    if not 0 <= margin < dim:
        raise MarginTooLargeError(f"margin {margin} does not fit in dimension {dim}")
    k = dim - margin
    return float(np.max(np.abs(mat[:k, :k] if mat.ndim == 2 else mat[:k])))


@dataclass(frozen=True)
class RelationResidual:
    relation: str
    word_length: int
    margin: int
    residual: float
    passed: bool


@dataclass(frozen=True)
class ResidualReport:
    """Per-relation residuals with a shared tolerance and margin policy."""

    entries: tuple[RelationResidual, ...]
    tolerance: float
    dim: int
    margin_policy: str = field(default="word-length")

    @property
    def all_pass(self) -> bool:
        return all(entry.passed for entry in self.entries)

    @property
    def max_residual(self) -> float:
        return max(entry.residual for entry in self.entries)

    def entry(self, relation: str) -> RelationResidual:
        for item in self.entries:
            if item.relation == relation:
                return item
        raise KeyError(relation)

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "dim": self.dim,
            "margin_policy": self.margin_policy,
            "all_pass": self.all_pass,
            "relations": [
                {
                    "id": e.relation,
                    "word_length": e.word_length,
                    "margin": e.margin,
                    "residual": e.residual,
                    "pass": e.passed,
                }
                for e in self.entries
            ],
        }


def _collect(checks, tol: float, rep: TruncatedFockRep) -> ResidualReport:
    """Reduce each ``(relation, word_length, diff)`` as it arrives.

    Consecutive yields of one relation form one entry whose residual is the
    largest over its differences, so only the difference being reduced is
    held, never the whole family.  Margins are 0 on an exact finite rep.
    """
    truncated = classify(rep.spec).dim != rep.dim
    entries = []
    for (relation, word_length), group in groupby(checks, key=itemgetter(0, 1)):
        margin = word_length if truncated else 0
        residual = max(interior_max_abs(diff, margin) for _, _, diff in group)
        entries.append(
            RelationResidual(
                relation=relation,
                word_length=word_length,
                margin=margin,
                residual=residual,
                passed=residual <= tol,
            )
        )
    policy = "word-length" if truncated else "exact"
    return ResidualReport(entries=tuple(entries), tolerance=tol, dim=rep.dim, margin_policy=policy)


def _lo(diagonal: np.ndarray) -> np.ndarray:
    """d_lo[n] = d[n-1], the diagonal at the lower state of band entry n.
    Entry 0 wraps to d[dim-1], which meets only a[0] = adag[0] = 0."""
    return np.roll(diagonal, 1)


def _projector_checks(proj):
    """Orthogonality P_m P_n = delta_mn P_m, one (lam, dim) product per m
    reduced over n, then completeness sum(P) = 1."""
    stack = np.array(proj)
    for m, p in enumerate(proj):
        diff = p * stack
        diff[m] -= p
        yield "projector_orthogonality", 0, np.max(np.abs(diff), axis=0)
    yield "projector_completeness", 0, sum(proj) - 1.0


def _defining_checks(rep: TruncatedFockRep):
    spec = rep.spec
    lam = spec.lam
    a, adag, num, t_gen, proj = rep.a, rep.adag, rep.num, rep.T, rep.P
    num_lo, t_lo = _lo(num), _lo(t_gen)
    q = np.exp(2j * np.pi / lam)
    t_powers = np.cumprod([np.ones_like(t_gen)] + [t_gen] * lam, axis=0)  # row m: T^m
    # [a, adag] is diagonal: (a adag)[n] = a[n+1] adag[n+1], zero at the top
    commutator = np.append(a[1:] * adag[1:], 0) - adag * a

    yield "t_cyclic", 0, t_powers[lam] - 1.0
    yield "commutator_T", 2, commutator - (
        1.0 + sum(spec.kappa[m - 1] * t_powers[m] for m in range(1, lam))
    )
    # [N, x] +- x scales band entry n by n_row - n_col +- 1: integers, so exact
    yield "number_lowering", 1, (num_lo - num + 1) * a
    yield "number_raising", 1, (num - num_lo - 1) * adag
    yield "number_T_commutes", 0, num * t_gen - t_gen * num
    yield "quommutation_a", 1, a * t_gen - q * (t_lo * a)
    yield "quommutation_adag", 1, adag * t_lo - np.conj(q) * (t_gen * adag)
    yield "hermiticity_N", 0, num - num.conj()
    yield "hermiticity_a", 0, adag.conj() - a
    yield "unitarity_T", 0, t_gen.conj() - 1.0 / t_gen
    yield "commutator_P", 2, commutator - (
        1.0 + sum(spec.alpha[m] * proj[m] for m in range(lam))
    )
    for p in proj:
        yield "number_P_commutes", 0, num * p - p * num
    proj_lo = [_lo(p) for p in proj]
    for m in range(lam):
        yield "sector_shift_a", 1, a * proj[m] - proj_lo[(m - 1) % lam] * a
    for m in range(lam):
        yield "sector_shift_adag", 1, adag * proj_lo[m] - proj[(m + 1) % lam] * adag
    yield from _projector_checks(proj)
    for p in proj:
        yield "hermiticity_P", 0, p - p.conj()


def verify_defining_relations(rep: TruncatedFockRep, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Check every defining relation, in both the T form and the P form.

    Covers the deformed commutator (against the cyclic generator powers and
    against the sector projectors), the number-operator ladder relations,
    the quommutation of a and adag with T, the projector shift relations,
    projector orthogonality and completeness, and the Hermiticity and
    unitarity conditions.  Failures show up as report entries, not errors.
    """
    return _collect(_defining_checks(rep), tol, rep)


def _projector_algebra_checks(rep: TruncatedFockRep):
    lam = rep.spec.lam
    proj = rep.P
    t_powers = np.cumprod([np.ones_like(rep.T)] + [rep.T] * (lam - 1), axis=0)

    yield from _projector_checks(proj)
    for mu in range(lam):
        yield "projector_from_T", 0, proj[mu] - sum(
            np.exp(-2j * np.pi * mu * nu / lam) * t_powers[nu] for nu in range(lam)
        ) / lam
    for nu in range(lam):
        yield "T_from_projectors", 0, t_powers[nu] - sum(
            np.exp(2j * np.pi * mu * nu / lam) * proj[mu] for mu in range(lam)
        )


def verify_projector_algebra(rep: TruncatedFockRep, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Check the projector algebra and its Fourier relation to T.

    Residuals of P_mu P_nu - delta P_mu, sum(P) - 1, the reconstruction of
    each projector from the powers of T, and of each power of T from the
    projectors.  All operators are diagonal, so the margin is zero.
    """
    return _collect(_projector_algebra_checks(rep), tol, rep)

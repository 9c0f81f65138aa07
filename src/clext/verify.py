"""Numerical verification of the algebra's defining relations.

Every relation is evaluated as dense matrix differences LHS - RHS, each
reduced as soon as it is formed to the maximum absolute entry over the
truncation interior, so no relation family is held in memory.  The
interior margin equals the relation's word length (the largest number of
ladder factors in any term), because each ladder factor can propagate the
truncation artifact at most one state down from the top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

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
    """Max |entry| of the interior block, i.e. of P_m @ mat @ P_m."""
    dim = mat.shape[0]
    if not 0 <= margin < dim:
        raise MarginTooLargeError(f"margin {margin} does not fit in dimension {dim}")
    k = dim - margin
    return float(np.max(np.abs(mat[:k, :k])))


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


def _collect(checks, tol: float, dim: int) -> ResidualReport:
    """Reduce each ``(relation, word_length, diff)`` as it arrives.

    Consecutive yields of one relation form one entry whose residual is the
    largest over its differences, so only the difference being reduced is
    held, never the whole family.
    """
    entries = []
    for (relation, word_length), group in groupby(checks, key=itemgetter(0, 1)):
        residual = max(interior_max_abs(diff, word_length) for _, _, diff in group)
        entries.append(
            RelationResidual(
                relation=relation,
                word_length=word_length,
                margin=word_length,
                residual=residual,
                passed=residual <= tol,
            )
        )
    return ResidualReport(entries=tuple(entries), tolerance=tol, dim=dim)


def _projector_checks(proj, identity):
    """Orthogonality P_m P_n = delta_mn P_m, then completeness sum(P) = 1."""
    for m in range(len(proj)):
        for n in range(len(proj)):
            yield "projector_orthogonality", 0, proj[m] @ proj[n] - (proj[m] if m == n else 0.0)
    yield "projector_completeness", 0, sum(proj) - identity


def _defining_checks(rep: TruncatedFockRep):
    spec = rep.spec
    lam = spec.lam
    a, adag, num, t_gen, proj = rep.a, rep.adag, rep.num, rep.T, rep.P
    identity = np.eye(rep.dim, dtype=a.dtype)
    q = np.exp(2j * np.pi / lam)

    t_powers = [identity]
    for _ in range(lam):
        t_powers.append(t_powers[-1] @ t_gen)

    commutator = a @ adag - adag @ a

    yield "t_cyclic", 0, t_powers[lam] - identity
    yield "commutator_T", 2, commutator - (
        identity + sum(spec.kappa[m - 1] * t_powers[m] for m in range(1, lam))
    )
    yield "number_lowering", 1, num @ a - a @ num + a
    yield "number_raising", 1, num @ adag - adag @ num - adag
    yield "number_T_commutes", 0, num @ t_gen - t_gen @ num
    yield "quommutation_a", 1, a @ t_gen - q * (t_gen @ a)
    yield "quommutation_adag", 1, adag @ t_gen - np.conj(q) * (t_gen @ adag)
    yield "hermiticity_N", 0, num - num.conj().T
    yield "hermiticity_a", 0, adag.conj().T - a
    yield "unitarity_T", 0, t_gen.conj().T - np.diag(1.0 / np.diag(t_gen))
    yield "commutator_P", 2, commutator - (
        identity + sum(spec.alpha[m] * proj[m] for m in range(lam))
    )
    for p in proj:
        yield "number_P_commutes", 0, num @ p - p @ num
    for m in range(lam):
        yield "sector_shift_a", 1, a @ proj[m] - proj[(m - 1) % lam] @ a
    for m in range(lam):
        yield "sector_shift_adag", 1, adag @ proj[m] - proj[(m + 1) % lam] @ adag
    yield from _projector_checks(proj, identity)
    for p in proj:
        yield "hermiticity_P", 0, p - p.conj().T


def verify_defining_relations(rep: TruncatedFockRep, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Check every defining relation, in both the T form and the P form.

    Covers the deformed commutator (against the cyclic generator powers and
    against the sector projectors), the number-operator ladder relations,
    the quommutation of a and adag with T, the projector shift relations,
    projector orthogonality and completeness, and the Hermiticity and
    unitarity conditions.  Failures show up as report entries, not errors.
    """
    return _collect(_defining_checks(rep), tol, rep.dim)


def _projector_algebra_checks(rep: TruncatedFockRep):
    lam = rep.spec.lam
    proj = rep.P
    identity = np.eye(rep.dim, dtype=rep.T.dtype)

    t_powers = [identity]
    for _ in range(lam - 1):
        t_powers.append(t_powers[-1] @ rep.T)

    yield from _projector_checks(proj, identity)
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
    return _collect(_projector_algebra_checks(rep), tol, rep.dim)

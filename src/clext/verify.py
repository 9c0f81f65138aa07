"""Numerical verification of the algebra's defining relations.

Every relation is evaluated as one length-dim difference LHS - RHS, reduced
as soon as it is formed to the maximum absolute entry over the truncation
interior.  a and adag are bands and N, T and P_mu diagonals, so a relation
among them is elementwise arithmetic on vectors.  A family of lam relations
indexed by sector is one (lam, dim) array operation, reduced per state over
the sector axis, and the Fourier relations between the P_mu and the powers
of T are one FFT along that axis: time is O(lam log lam * dim) and memory a
few (lam, dim) arrays, with no matrix product anywhere.  The
interior margin equals the relation's word length (the largest number of
ladder factors in any term), because each ladder factor can propagate the
truncation artifact at most one state down from the top.  An exact
finite-dimensional rep (dim = d with F(d) = 0) has no artifact: margin 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MarginTooLargeError
from .fock import TruncatedFockRep

DEFAULT_TOL = 1e-12


def interior_max_abs(mat: np.ndarray, margin: int) -> float:
    """Max |entry| of the interior block, i.e. of P_m @ mat @ P_m.

    A 1-D ``mat`` is a diagonal or a ladder band, whose interior is its
    first dim - margin entries: band entry n joins states n - 1 and n."""
    dim = mat.shape[0]
    if not 0 <= margin < dim:
        raise MarginTooLargeError(f"margin {margin} does not fit in dimension {dim}")
    k = dim - margin
    return float(np.abs(mat[:k, :k] if mat.ndim == 2 else mat[:k]).max())


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
    """Reduce each ``(relation, word_length, diff)`` to one entry as it
    arrives, so only the difference being reduced is held.  Margins are 0 on
    an exact finite rep.
    """
    entries = []
    for relation, word_length, diff in checks:
        margin = 0 if rep.exact else word_length
        residual = interior_max_abs(diff, margin)
        entries.append(
            RelationResidual(
                relation=relation,
                word_length=word_length,
                margin=margin,
                residual=residual,
                passed=residual <= tol,
            )
        )
    policy = "exact" if rep.exact else "word-length"
    return ResidualReport(entries=tuple(entries), tolerance=tol, dim=rep.dim, margin_policy=policy)


def _lo(diagonal: np.ndarray) -> np.ndarray:
    """d_lo[n] = d[n-1], the diagonal at the lower state of band entry n,
    taken along the last axis.  Entry 0 wraps to d[dim-1], which meets only
    a[0] = adag[0] = 0.  The same as ``np.roll(diagonal, 1, axis=-1)``,
    without its generic set-up."""
    return np.concatenate((diagonal[..., -1:], diagonal[..., :-1]), axis=-1)


def _t_powers(t_gen: np.ndarray, count: int) -> np.ndarray:
    """Rows T^0 .. T^(count-1), each the previous row times T."""
    powers = np.empty((count, t_gen.size), dtype=t_gen.dtype)
    powers[0] = 1.0
    powers[1:] = t_gen
    return np.cumprod(powers, axis=0, out=powers)


def _per_state(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Max over the sector axis of |lhs - rhs|: the per-state residual of a
    (lam, dim) family of relations.  ``rhs`` is a temporary of the
    difference's dtype and receives the difference, which saves allocating
    one more stack."""
    return np.abs(np.subtract(lhs, rhs, out=rhs)).max(axis=0)


def _projector_checks(proj):
    """Orthogonality P_m P_n = delta_mn P_m, then completeness sum(P) = 1.

    At state n, with v = P[:, n], the orthogonality residual over all pairs
    is max(max_m |v_m^2 - v_m|, max_(m != k) |v_m v_k|).  P is real, so
    |v_m v_k| rounds to |v_m| |v_k|, and rounding is monotone: the second
    term is the product of the two largest |v_m|, exactly."""
    mag = np.abs(proj)
    mag.partition(-2, axis=0)  # rows -2 and -1: the two largest
    off_diagonal = mag[-2] * mag[-1]
    # |v - v^2| = |v^2 - v|: rounding is symmetric
    yield "projector_orthogonality", 0, np.maximum(_per_state(proj, proj * proj), off_diagonal)
    yield "projector_completeness", 0, proj.sum(axis=0) - 1.0


def _defining_checks(rep: TruncatedFockRep):
    spec = rep.spec
    lam = spec.lam
    a, adag, num, t_gen, proj = rep.a, rep.adag, rep.num, rep.T, rep.P
    num_lo, t_lo, proj_lo = _lo(num), _lo(t_gen), _lo(proj)
    q = np.exp(2j * np.pi / lam)
    t_powers = _t_powers(t_gen, lam + 1)  # row m: T^m
    # [a, adag] is diagonal: (a adag)[n] = a[n+1] adag[n+1], zero at the top
    commutator = np.append(a[1:] * adag[1:], 0) - adag * a

    yield "t_cyclic", 0, t_powers[lam] - 1.0
    # the coupling sums add the rows in order, T^1 (or P_0) first
    yield "commutator_T", 2, commutator - (
        1.0 + (spec.kappa[:, None] * t_powers[1:lam]).sum(axis=0)
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
    yield "commutator_P", 2, commutator - (1.0 + (spec.alpha[:, None] * proj).sum(axis=0))
    yield "number_P_commutes", 0, _per_state(num * proj, proj * num)
    # a P_m - P_(m-1) a is the band a times the diagonal P_m - (P_(m-1))_lo,
    # so the family's per-state residual is |a| max_m |P_m - (P_(m-1))_lo|;
    # likewise adag P_(m-1) - P_m adag is adag times (P_(m-1))_lo - P_m, whose
    # magnitude is the same (rounding is symmetric), so both families share
    # one max over m.  Rounding is monotone, so this equals the termwise max
    # whenever the products are exact, as for 0/1 projectors
    prev_lo = np.concatenate((proj_lo[-1:], proj_lo[:-1]))  # row m: (P_(m-1))_lo
    shift = _per_state(proj, prev_lo)
    yield "sector_shift_a", 1, np.abs(a) * shift
    yield "sector_shift_adag", 1, np.abs(adag) * shift
    yield from _projector_checks(proj)
    yield "hermiticity_P", 0, _per_state(proj, np.conj(proj))


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
    t_powers = _t_powers(rep.T, lam)

    yield from _projector_checks(proj)
    # P_mu = sum_nu exp(-2i pi mu nu / lam) T^nu / lam and its inverse
    # T^nu = sum_mu exp(2i pi mu nu / lam) P_mu are DFTs along the sector
    # axis; norm="forward" puts the 1/lam on the forward one, as here
    yield "projector_from_T", 0, _per_state(proj, np.fft.fft(t_powers, axis=0, norm="forward"))
    yield "T_from_projectors", 0, _per_state(t_powers, np.fft.ifft(proj, axis=0, norm="forward"))


def verify_projector_algebra(rep: TruncatedFockRep, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Check the projector algebra and its Fourier relation to T.

    Residuals of P_mu P_nu - delta P_mu, sum(P) - 1, the reconstruction of
    each projector from the powers of T, and of each power of T from the
    projectors.  All operators are diagonal, so the margin is zero.
    """
    return _collect(_projector_algebra_checks(rep), tol, rep)

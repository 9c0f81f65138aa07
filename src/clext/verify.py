"""Numerical verification of the algebra's defining relations.

Every relation is a difference LHS - RHS over the kept number states,
reduced to its maximum absolute entry over the truncation interior.  a and
adag are bands and N, T and P_mu diagonals, so a relation among them is
elementwise arithmetic on vectors.  A family of lam relations indexed by
sector is one (lam, width) array operation, reduced per state over the
sector axis, and the Fourier relations between the P_mu and the powers of T
are one FFT along that axis: time is O(lam log lam * dim), with no matrix
product anywhere.

The states are taken in blocks of at most ``_block_width(lam, dim)``, so
that a (lam, width) complex array fits in ``_BLOCK_BYTES``.  Each relation
writes its |difference| into one row of a (relations, width) table, and the
residuals are running maxima of the rows, so memory is that table and a few
(lam, width) temporaries whatever the dim.  A block copies its slice of the
rep's strided ``P`` to a contiguous array, where the arithmetic runs faster.
A block reads one state past each edge through the shifts of
:mod:`clext.fock`: the lower neighbour n - 1 of a product with a diagonal, 0
at n = 0 (where a[0] = adag[0] = 0), and the upper neighbour n + 1 of
[a, adag], whose a[n+1] adag[n+1] is zero past the top.

The truncation cuts one path: of the relations' terms only a adag leaves
the kept states, from the top state, where (a adag)[dim - 1] needs the
missing |dim> and reads 0, not F(dim).  So ``commutator_T`` and
``commutator_P`` mask the top state (margin 1) and every other relation is
checked on all states (margin 0), whatever its word length.  Blocks are
counted down from the top, so the top block is full and the mask applies
there alone.  An exact finite rep (dim = d with F(d) = 0) has margin 0.

Each relation is decided state by state by :func:`clext.fock.per_state_rule`:
the two commutators at their largest term (:func:`_scale`), for a block in
which they exceed ``tol``, and every other relation on ``tol`` alone.

At the default dims (lam up to 24) a report's cost is mostly fixed per
call, not per state: a one-block report is its checks' arithmetic, one
``abs`` per relation into the table, one reduction over it and one tuple
of named-tuple entries; each report's relations are module constants.

Each relation belongs to one report.  Projector orthogonality and
completeness are relations of the projector algebra that the DFT of the
powers of T builds, not defining relations, so only
``verify_projector_algebra`` checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MarginTooLargeError
from .fock import TruncatedFockRep, lower_shift, per_state_rule, upper_shift

DEFAULT_TOL = 1e-12

#: Bytes of one (lam, width) complex128 array of a block.
_BLOCK_BYTES = 1 << 20


class RelationResidual(NamedTuple):
    """One report entry: an immutable named tuple, cheap to build."""

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
    margin_policy: str = field(default="artifact")

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
        return {"tolerance": self.tolerance, "dim": self.dim, "margin_policy": self.margin_policy,
                "all_pass": self.all_pass,
                "relations": [{"id": e.relation, "word_length": e.word_length, "margin": e.margin,
                               "residual": e.residual, "pass": e.passed} for e in self.entries]}


class _Relations(NamedTuple):
    """A report's relations, in report order, and each one's margin on a
    rep that is not exact: 1 where a term holds a adag, else 0."""

    names: tuple[str, ...]
    word_lengths: tuple[int, ...]
    margins: tuple[int, ...]


#: The relations of each report, as (relation, word_length, margin); each
#: report's checks yield one difference per relation, in order.
_DEFINING = _Relations(*zip(
    ("t_cyclic", 0, 0), ("commutator_T", 2, 1), ("number_lowering", 1, 0),
    ("number_raising", 1, 0), ("number_T_commutes", 0, 0), ("quommutation_a", 1, 0),
    ("quommutation_adag", 1, 0), ("hermiticity_N", 0, 0), ("hermiticity_a", 0, 0),
    ("unitarity_T", 0, 0), ("commutator_P", 2, 1), ("number_P_commutes", 0, 0),
    ("sector_shift_a", 1, 0), ("sector_shift_adag", 1, 0), ("hermiticity_P", 0, 0),
))
_PROJECTOR_ALGEBRA = _Relations(*zip(
    ("projector_orthogonality", 0, 0), ("projector_completeness", 0, 0),
    ("projector_from_T", 0, 0), ("T_from_projectors", 0, 0),
))


def _block_width(lam: int, dim: int) -> int:
    """States per block: a (lam, width) complex128 array fits in
    ``_BLOCK_BYTES``, with 64 states at the least and dim at the most."""
    return min(dim, max(64, _BLOCK_BYTES // (16 * lam)))


def _blocks(dim: int, width: int):
    """States lo .. hi - 1 of each block, bottom up.  Counted down from the
    top: every block but the lowest holds ``width`` states."""
    lo = 0
    for hi in range(dim % width or width, dim + 1, width):
        yield lo, hi
        lo = hi


def _evaluate(rep: TruncatedFockRep, tol: float, relations: _Relations, checks) -> ResidualReport:
    """Run ``checks`` block by block and reduce each relation's |difference|
    to its maximum over the interior; a relation that exceeds ``tol`` in a block
    is decided there state by state.  Margins are 0 on an exact finite rep."""
    dim = rep.dim
    margins = (0,) * len(relations.names) if rep.exact else relations.margins
    if max(margins) >= dim:
        raise MarginTooLargeError(f"margin {max(margins)} does not fit in dimension {dim}")
    width = _block_width(rep.spec.lam, dim)
    table = np.empty((len(margins), width))
    peak = None
    passed = [True] * len(margins)
    for lo, hi in _blocks(dim, width):
        block = table[:, : hi - lo]
        for row, diff in zip(block, checks(rep, lo, hi)):
            np.abs(diff, out=row)
        if hi == dim:
            for row, margin in enumerate(margins):
                if margin:
                    block[row, -1] = 0.0  # the top state
        block_peak = block.max(axis=1)
        peak = block_peak if peak is None else np.maximum(peak, block_peak, out=peak)
        for row in np.flatnonzero(block_peak > tol).tolist():
            scale = _scale(rep, lo, hi, relations.names[row])
            passed[row] &= per_state_rule(block[row], tol, scale)[2]
    entries = tuple(map(RelationResidual._make, zip(
        relations.names, relations.word_lengths, margins, peak.tolist(), passed)))
    policy = "exact" if rep.exact else "artifact"
    return ResidualReport(entries=entries, tolerance=tol, dim=dim, margin_policy=policy)


def _t_powers(t_gen: np.ndarray, count: int) -> np.ndarray:
    """Rows T^0 .. T^(count-1), each the previous row times T."""
    powers = np.empty((count, t_gen.size), dtype=t_gen.dtype)
    powers[0] = 1.0
    powers[1:] = t_gen
    return np.multiply.accumulate(powers, axis=0, out=powers)  # a cumprod, in place


def _per_state(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Max over the sector axis of |lhs - rhs|: the per-state residual of a
    (lam, width) family of relations.  ``rhs`` is a temporary of the
    difference's dtype and receives the difference, which saves allocating
    one more stack."""
    return np.abs(np.subtract(lhs, rhs, out=rhs)).max(axis=0)


def _scale(rep: TruncatedFockRep, lo: int, hi: int, relation: str) -> np.ndarray | None:
    """The largest term of a commutator at states lo .. hi - 1: max(|a[n+1] adag[n+1]|,
    |adag[n] a[n]|, 1) and, as the coupling sum rounds at its terms' size, max_m |kappa_m|
    for the T form or |sum_m alpha_m P_m[n]| for the P form.  None for any other relation."""
    if relation not in ("commutator_T", "commutator_P"):
        return None
    ladder = rep.a[lo : hi + 1] * rep.adag[lo : hi + 1]  # = adag a: complex products commute
    term = np.maximum(np.abs(upper_shift(ladder)[: hi - lo]), np.abs(ladder[: hi - lo]))
    coupling = (np.abs(rep.spec.kappa).max() if relation == "commutator_T"
                else np.abs((rep.spec.alpha[:, None] * rep.P[:, lo:hi]).sum(axis=0)))
    return np.maximum(np.maximum(term, coupling), 1.0)


def _defining_checks(rep: TruncatedFockRep, lo: int, hi: int):
    """The differences of ``_DEFINING`` at states lo .. hi - 1."""
    spec = rep.spec
    lam = spec.lam
    a, adag = rep.a[lo:hi], rep.adag[lo:hi]
    num, t_gen, proj = rep.num[lo:hi], rep.T[lo:hi], np.ascontiguousarray(rep.P[:, lo:hi])
    num_lo, t_lo, proj_lo = (lower_shift(values, 1, lo, hi) for values in (rep.num, rep.T, rep.P))
    q = np.exp(2j * np.pi / lam)
    t_powers = _t_powers(t_gen, lam + 1)  # row m: T^m
    # [a, adag] is diagonal: (a adag)[n] = a[n+1] adag[n+1], zero past the top, and
    # (adag a)[n] = a[n] adag[n], as complex products commute exactly
    ladder = rep.a[lo : hi + 1] * rep.adag[lo : hi + 1]
    commutator = upper_shift(ladder)[: hi - lo] - ladder[: hi - lo]

    yield t_powers[lam] - 1.0  # t_cyclic
    # the coupling sums add the rows in order, T^1 (or P_0) first
    yield commutator - (1.0 + (spec.kappa[:, None] * t_powers[1:lam]).sum(axis=0))
    # [N, x] +- x scales band entry n by n_row - n_col +- 1: integers, so exact; the
    # raising difference is -step * adag, and only its magnitude is kept
    step = num_lo - num + 1
    yield step * a  # number_lowering
    yield step * adag  # number_raising
    yield num * t_gen - t_gen * num  # number_T_commutes
    yield a * t_gen - q * (t_lo * a)  # quommutation_a
    yield adag * t_lo - np.conj(q) * (t_gen * adag)  # quommutation_adag
    yield num - num.conj()  # hermiticity_N
    yield adag.conj() - a  # hermiticity_a
    yield t_gen.conj() - 1.0 / t_gen  # unitarity_T
    yield commutator - (1.0 + (spec.alpha[:, None] * proj).sum(axis=0))  # commutator_P
    yield _per_state(num * proj, proj * num)  # number_P_commutes
    # a P_m - P_(m-1) a is the band a times the diagonal P_m - (P_(m-1))_lo,
    # so the family's per-state residual is |a| max_m |P_m - (P_(m-1))_lo|;
    # likewise adag P_(m-1) - P_m adag is adag times (P_(m-1))_lo - P_m, whose
    # magnitude is the same (rounding is symmetric), so both families share
    # one max over m.  Rounding is monotone, so this equals the termwise max
    # whenever the products are exact, as for 0/1 projectors
    prev_lo = np.concatenate((proj_lo[-1:], proj_lo[:-1]))  # row m: (P_(m-1))_lo
    shift = _per_state(proj, prev_lo)
    yield np.abs(a) * shift  # sector_shift_a
    yield np.abs(adag) * shift  # sector_shift_adag
    yield _per_state(proj, np.conj(proj))  # hermiticity_P


def verify_defining_relations(rep: TruncatedFockRep, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Check every defining relation, in both the T form and the P form.

    Covers the deformed commutator (against the cyclic generator powers and
    against the sector projectors), the number-operator ladder relations,
    the quommutation of a and adag with T, the projector shift relations,
    and the Hermiticity and unitarity conditions.  Projector orthogonality
    and completeness belong to ``verify_projector_algebra``.  Failures show
    up as report entries, not errors.
    """
    return _evaluate(rep, tol, _DEFINING, _defining_checks)


def _projector_algebra_checks(rep: TruncatedFockRep, lo: int, hi: int):
    """The differences of ``_PROJECTOR_ALGEBRA`` at states lo .. hi - 1.

    Orthogonality P_m P_n = delta_mn P_m comes first: at state n, with
    v = P[:, n], its residual over all pairs is max(max_m |v_m^2 - v_m|,
    max_(m != k) |v_m v_k|).  P is real, so |v_m v_k| rounds to |v_m| |v_k|,
    and rounding is monotone: the second term is the product of the two
    largest |v_m|, exactly.  Completeness sum(P) = 1 follows."""
    proj = np.ascontiguousarray(rep.P[:, lo:hi])
    t_powers = _t_powers(rep.T[lo:hi], rep.spec.lam)
    mag = np.abs(proj)
    mag.partition(-2, axis=0)  # rows -2 and -1: the two largest
    off_diagonal = mag[-2] * mag[-1]
    # |v - v^2| = |v^2 - v|: rounding is symmetric
    yield np.maximum(_per_state(proj, proj * proj), off_diagonal)
    yield proj.sum(axis=0) - 1.0
    # P_mu = sum_nu exp(-2i pi mu nu / lam) T^nu / lam and its inverse
    # T^nu = sum_mu exp(2i pi mu nu / lam) P_mu are DFTs along the sector
    # axis; norm="forward" puts the 1/lam on the forward one, as here
    yield _per_state(proj, np.fft.fft(t_powers, axis=0, norm="forward"))  # projector_from_T
    yield _per_state(t_powers, np.fft.ifft(proj, axis=0, norm="forward"))  # T_from_projectors


def verify_projector_algebra(rep: TruncatedFockRep, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Check the projector algebra and its Fourier relation to T.

    Residuals of P_mu P_nu - delta P_mu, sum(P) - 1, the reconstruction of
    each projector from the powers of T, and of each power of T from the
    projectors.  All operators are diagonal, so the margin is zero.
    """
    return _evaluate(rep, tol, _PROJECTOR_ALGEBRA, _projector_algebra_checks)

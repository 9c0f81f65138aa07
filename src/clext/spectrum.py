"""Bosonic Hamiltonians as energy vectors, their sector-shifted variants, and
degeneracy clustering."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .algebra import energy_values, structure_values
from .errors import LengthMismatchError
from .fock import TruncatedFockRep

DEFAULT_CLUSTER_TOL = 1e-8


def hamiltonian_h0(rep: TruncatedFockRep) -> np.ndarray:
    """Energies E_n of the oscillator Hamiltonian (1/2){adag, a}, one per kept state.

    The closed form, not the truncated product, which corrupts the top
    state.  It is checked against (F(n) + F(n+1))/2 to within
    1e-13 max(1, |E_n|), else ValueError; at sector lam - 1 it exceeds that
    average by exactly sum(alpha)/2, which the spec admits up to
    ``CONSTRAINT_TOL * max(1, max |alpha_mu|)`` (1e-12 for |alpha_mu| <= 1).
    """
    spec = rep.spec
    rdtype = rep.a.real.dtype
    energies = energy_values(spec, rep.dim, dtype=rdtype)
    f_values = structure_values(spec, rep.dim + 1, dtype=rdtype)
    wrap = np.where(np.arange(rep.dim) % spec.lam == spec.lam - 1, spec.alpha.sum() / 2, 0)
    gap = np.abs(energies - (f_values[:-1] + f_values[1:]) / 2 - wrap)
    bad = np.flatnonzero(gap > 1e-13 * np.maximum(1, np.abs(energies)))
    if bad.size:
        n = bad[0]
        raise ValueError(f"E_{n} differs from (F({n}) + F({n + 1}))/2 by {float(gap[n]):.3e}")
    return energies


def shifted_hamiltonian(rep: TruncatedFockRep, shifts) -> np.ndarray:
    """Energies of the Hamiltonian with sector-dependent shifts, one per kept state.

    Entry n equals E_n + shifts[n mod lam] / 2.  Adding the same constant
    to every shift moves all energies by half that constant.
    """
    lam = rep.spec.lam
    shifts = np.asarray(shifts, dtype=float)
    if shifts.shape != (lam,):
        raise LengthMismatchError(f"expected {lam} sector shifts, got {shifts.shape}")
    rdtype = rep.a.real.dtype
    energies = energy_values(rep.spec, rep.dim, dtype=rdtype)
    n = np.arange(rep.dim)
    return energies + shifts.astype(rdtype)[n % lam] / 2


def report_dict(report) -> dict:
    """The ``to_dict`` of flat report dataclasses: fields in declaration
    order, ``passed`` emitted as ``"pass"`` and tuples as lists."""
    out = {}
    for item in fields(report):
        value = getattr(report, item.name)
        out["pass" if item.name == "passed" else item.name] = (
            list(value) if isinstance(value, tuple) else value
        )
    return out


@dataclass(frozen=True)
class Cluster:
    energy: float
    multiplicity: int
    members: tuple[int, ...]

    to_dict = report_dict


def degeneracy_profile(values, cluster_tol: float = DEFAULT_CLUSTER_TOL, drop_top: int = 0):
    """Cluster a list of energies into degenerate groups.

    Single-linkage clustering: values are sorted and split wherever a gap
    between neighbours in that order exceeds ``cluster_tol``.  With
    ``drop_top`` > 0 the last ``drop_top`` positions of the input (the
    truncation top, where multiplets lose members) are excluded from the
    statistics: any cluster containing one of those positions is discarded
    entirely.

    One stable sort and a few array operations find the groups and the ones
    that survive the cut; Python work is spent only per surviving cluster.
    A cluster's energy is the mean of its members in sorted order.

    Returns clusters sorted by energy ascending; member indices refer to
    positions in the input.
    """
    values = np.asarray(values, dtype=float)
    count = len(values)
    if count == 0:
        return []
    if not 0 <= drop_top < count:
        raise ValueError(f"drop_top {drop_top} does not fit in {count} values")
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    bounds = [0, *(np.flatnonzero(np.diff(ordered) > cluster_tol) + 1).tolist(), count]
    tops = np.maximum.reduceat(order, bounds[:-1])  # each group's largest position
    positions, energies = order.tolist(), ordered.tolist()
    clusters = []
    for group in np.flatnonzero(tops < count - drop_top).tolist():
        lo, hi = bounds[group], bounds[group + 1]
        if hi - lo == 1:
            # the mean of one value, which also turns -0.0 into 0.0
            clusters.append(Cluster(energies[lo] + 0.0, 1, (positions[lo],)))
        else:
            clusters.append(Cluster(float(ordered[lo:hi].mean()), hi - lo,
                                    tuple(sorted(positions[lo:hi]))))
    return clusters


def surviving_clusters(values, drop_top: int) -> list[Cluster]:
    """:func:`degeneracy_profile` at the default tolerance with the top
    ``drop_top`` positions cut; raises ValueError when no cluster survives."""
    clusters = degeneracy_profile(values, DEFAULT_CLUSTER_TOL, drop_top)
    if not clusters and len(degeneracy_profile(values)) == 1:  # no level spacing resolved
        raise ValueError(f"all {len(values)} energies fall in one cluster: float64 cannot resolve "
                         f"their level spacing at magnitude {float(np.max(np.abs(values))):.3g}, "
                         "and no dim separates them")
    if not clusters:
        raise ValueError("no clusters survive the truncation cutoff; increase dim")
    return clusters


@dataclass(frozen=True)
class SpectrumReport:
    """Levels, degeneracy clusters, and ground-state data of a Hamiltonian's energies."""

    levels: tuple[tuple[int, float, int], ...]  # (n, energy, sector)
    clusters: tuple[Cluster, ...]
    ground: Cluster
    cluster_tol: float
    dropped_top: int

    def to_dict(self) -> dict:
        return {
            "cluster_tol": self.cluster_tol,
            "dropped_top": self.dropped_top,
            "levels": [
                {"n": n, "energy": energy, "sector": sector}
                for n, energy, sector in self.levels
            ],
            "clusters": [c.to_dict() for c in self.clusters],
            "ground": {"energy": self.ground.energy, "multiplicity": self.ground.multiplicity},
        }


def spectrum_report(rep: TruncatedFockRep, diagonal=None, drop_top: int = 0) -> SpectrumReport:
    """Spectrum of a Hamiltonian's energies over the truncation.

    Defaults to the oscillator energies of :func:`hamiltonian_h0`; pass
    ``diagonal`` to profile a shifted variant instead.  Levels carry their
    grading sector n mod lam; clusters follow :func:`degeneracy_profile` at
    ``DEFAULT_CLUSTER_TOL``.
    """
    diagonal = np.asarray(hamiltonian_h0(rep) if diagonal is None else diagonal, dtype=float)
    energies, lam = diagonal.tolist(), rep.spec.lam
    levels = tuple((n, energies[n], n % lam) for n in range(rep.dim))
    clusters = tuple(surviving_clusters(diagonal, drop_top))
    return SpectrumReport(
        levels=levels,
        clusters=clusters,
        ground=clusters[0],
        cluster_tol=DEFAULT_CLUSTER_TOL,
        dropped_top=drop_top,
    )

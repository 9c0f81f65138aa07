"""A scale sweep that every verdict must survive: a verdict may not depend on
the size of the numbers.  Seeded decimal couplings, one per decade of
magnitude from 1 to 1e6, at dims from tens to tens of thousands.  Each
check's slice keeps its untampered inputs passing and makes a small tamper
fail at every magnitude.

Slice for the lam = 2 supersymmetry of :func:`clext.ssqm_check`: alpha =
(x, -x) with x a three-place decimal, both variants passing untampered, and a
1 + 1e-9 tamper of a and adag alike, on one link the variant's Q reads,
failing.

Slice for :func:`clext.verify_defining_relations` and
:func:`clext.verify_projector_algebra`: alpha = (x, -x, 0, ..., 0) at lam 2,
3, 8 and 64, both reports passing untampered, and a 1 + 1e-9 tamper of a and
adag alike at a state n = 1 (mod lam) failing both commutators.  There
F(n) = n + x is the largest term of [a, adag].

The resolution of the per-state rule that decides these verdicts
(:func:`clext.fock.per_state_rule`): a state passes within RELATIVE_TOL of
its largest term, so a tamper of an entry far smaller than that term stays
within it and passes.  At lam 2 and x = 1e6, a 1 + 1e-9 tamper of a[34],
whose F(34) = 34 sits beside F(33) and F(35) near 1e6, moves [a, adag] by
7e-8 against a scale of 1e6 and passes at dim 36.  :func:`clext.khare_check`
has the same limit."""

import dataclasses

import numpy as np
import pytest

from clext import (
    build_fock_rep,
    from_alpha,
    ssqm_check,
    verify_defining_relations,
    verify_projector_algebra,
)

DECADES = range(6)  # x in [10^k, 10^(k+1)), so magnitudes 1 to 1e6
TAMPER = 1 + 1e-9


def decimal_coupling(rng, decade):
    """A three-place decimal of magnitude 10^decade, parsed from its text."""
    thousandths = int(rng.integers(10 ** (decade + 3), 10 ** (decade + 4)))
    return float(f"{thousandths // 1000}.{thousandths % 1000:03d}")


def tampered_link(rep, n):
    """``rep`` with a[n] and adag[n] scaled alike by TAMPER."""
    band = rep.a.copy()
    band[n] *= TAMPER
    return dataclasses.replace(rep, a=band, adag=band.copy())


@pytest.mark.parametrize("dim", (24, 2400, 24000))
def test_ssqm_verdicts_hold_at_every_magnitude(dim):
    rng = np.random.default_rng(dim)
    for decade in DECADES:
        x = decimal_coupling(rng, decade)
        rep = build_fock_rep(from_alpha(2, [x, -x]), dim)
        for mu, variant in enumerate(("unbroken", "broken")):
            report = ssqm_check(rep, variant)
            assert report.passed, (x, dim, variant, report.relative_anticommutator)
            assert report.ground_multiplicity == mu + 1, (x, dim, variant)
            # Q = adag P_(1-mu) reads the band entries n = mu (mod 2) past 0
            n = mu + 2 * int(rng.integers(1, (dim - mu + 1) // 2))
            tampered = ssqm_check(tampered_link(rep, n), variant)
            assert not tampered.passed, (x, dim, variant, n)


def verify_failures(rep):
    """The relations that either verify report fails."""
    return [entry.relation for check in (verify_defining_relations, verify_projector_algebra)
            for entry in check(rep).entries if not entry.passed]


#: (lam, dim) of the verify slice: dims 12 lam and 1e4 at every lam, and 1e5 at lam 2 and 3.
VERIFY_CASES = [(lam, dim) for lam in (2, 3, 8, 64)
                for dim in (12 * lam, 10**4, 10**5) if dim < 10**5 or lam < 8]


@pytest.mark.parametrize("lam, dim", VERIFY_CASES)
def test_verify_verdicts_hold_at_every_magnitude(lam, dim):
    rng = np.random.default_rng(1000 * lam + dim)
    for decade in DECADES:
        x = decimal_coupling(rng, decade)
        rep = build_fock_rep(from_alpha(lam, [x, -x] + [0.0] * (lam - 2)), dim)
        assert verify_failures(rep) == [], (x, lam, dim)
        n = 1 + lam * int(rng.integers(0, (dim - 2) // lam + 1))  # F(n) = n + x
        assert verify_failures(tampered_link(rep, n)) == ["commutator_T", "commutator_P"], (
            x, lam, dim, n)


def test_verify_resolution_is_relative_to_the_largest_term():
    # the module docstring's example: a[34] is far below its neighbours at
    # x = 1e6, so its tamper stays within RELATIVE_TOL; a[35] is not
    rep = build_fock_rep(from_alpha(2, [1e6, -1e6]), 36)
    assert verify_failures(tampered_link(rep, 34)) == []
    assert verify_failures(tampered_link(rep, 35)) == ["commutator_T", "commutator_P"]

"""A scale sweep that every verdict must survive: a verdict may not depend on
the size of the numbers.  Seeded decimal couplings, one per decade of
magnitude from 1 to 1e6, at dims from tens to tens of thousands.  Each
check's slice keeps its untampered inputs passing and makes a small tamper
fail at every magnitude.

Slice for the lam = 2 supersymmetry of :func:`clext.ssqm_check`: alpha =
(x, -x) with x a three-place decimal, both variants passing untampered, and a
1 + 1e-9 tamper of a and adag alike, on one link the variant's Q reads,
failing."""

import dataclasses

import numpy as np
import pytest

from clext import build_fock_rep, from_alpha, ssqm_check

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

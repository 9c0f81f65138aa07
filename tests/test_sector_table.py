"""Differential test of the per-sector table against the scalar code it replaced.

The functions prefixed ``scalar_`` are a frozen copy of the earlier per-call
formulas: partial sums and witnesses rebuilt for each caller, admissibility as
a Python loop, the pinned shift as a nested sum (O(p^2)) and the ground
energy as one ``energy_level`` per sector.  The table-based code must agree
with them bit for bit (``float.hex``), and on every verdict.
"""

import numpy as np
import pytest

from clext import NonUnitaryError, classify, from_alpha, ground_energy, sample_bfb_alpha, solve_r
from clext.algebra import CONSTRAINT_TOL, admits_bfb
from test_pssqm import hexes, random_admissible_eta


def scalar_partial_sums(alpha):
    beta = np.zeros(alpha.shape, alpha.dtype)
    np.add.accumulate(alpha[:-1], out=beta[1:])
    return beta


def scalar_witnesses(alpha):
    return np.arange(1, len(alpha)) + scalar_partial_sums(alpha)[1:]


def scalar_admits_bfb(alpha):
    beta = scalar_partial_sums(np.asarray(alpha, dtype=float))
    return all(m + beta[m] > CONSTRAINT_TOL for m in range(1, len(beta)))


def scalar_classify(alpha):
    """(kind, dim) as the loop decided it, or the NonUnitaryError message."""
    witnesses = scalar_witnesses(alpha)
    for m, value in enumerate(witnesses.tolist(), start=1):
        if abs(value) <= CONSTRAINT_TOL:
            return ("finite-dimensional", m)
        if value < 0:
            return (f"F({m}) = {value!r} < 0 before any zero: "
                    "no unitary Fock representation")
    return ("bounded-from-below", None)


def scalar_solve_r(alpha, mu, norms):
    lam = len(alpha)
    p = lam - 1
    pinned = 0.0
    for nu in range(1, p):
        pinned += norms[nu] * (nu + sum(alpha[(mu + rho + 2) % lam] for rho in range(nu)))
    pinned = pinned / p - 1.0 - alpha[(mu + 2) % lam]
    shifts = {(mu + 2) % lam: pinned}
    shifts[(mu + 1) % lam] = 2.0 + alpha[(mu + 1) % lam] + alpha[(mu + 2) % lam] + pinned
    current = pinned
    for nu in range(2, p + 1):
        current = current - 2.0 - alpha[(mu + nu) % lam] - alpha[(mu + nu + 1) % lam]
        shifts[(mu + nu + 1) % lam] = current
    return np.array([shifts[sector] for sector in range(lam)])


def scalar_ground_energy(alpha, shifts):
    gamma = scalar_partial_sums(alpha) + alpha / 2
    return min(float(nu + 0.5 + gamma[nu]) + shifts[nu] / 2 for nu in range(len(alpha)))


def dyadic_finite(rng, lam, d, scale=1):
    """Alpha in eighths (times ``scale``) with F(1..d-1) > 0 and F(d) = 0 exactly."""
    head = []
    for m in range(1, d):
        low = max(1 - int(8 * (m + sum(head))), -12 * scale)
        head.append(int(rng.integers(low, 12 * scale)) / 8)
    head.append(-d - sum(head))
    tail = [int(rng.integers(-8 * scale, 8 * scale + 1)) / 8 for _ in range(lam - d - 1)]
    return np.array(head + tail + [-(sum(head) + sum(tail))])


@pytest.mark.parametrize("lam", range(2, 65))
def test_shifts_ground_energy_and_witnesses_match_the_scalar_code(lam):
    rng = np.random.default_rng(5000 + lam)
    p = lam - 1
    for mu in range(lam):
        alpha = sample_bfb_alpha(lam, rng)
        spec = from_alpha(lam, alpha)
        assert hexes(*classify(spec).witnesses) == hexes(*scalar_witnesses(spec.alpha))
        for eta in (None, *(random_admissible_eta(p, rng) for _ in range(3))):
            norms = np.abs(np.full(p, np.sqrt(2.0), complex) if eta is None else eta) ** 2
            expected = scalar_solve_r(spec.alpha, mu, norms)
            assert hexes(*solve_r(spec, mu, eta)) == hexes(*expected)
            assert hexes(ground_energy(spec, mu, eta)) == hexes(
                scalar_ground_energy(spec.alpha, expected))


def test_verdicts_match_the_scalar_code():
    rng = np.random.default_rng(6000)
    alphas = []
    for _ in range(1000):
        lam = int(rng.integers(2, 13))
        alpha = rng.uniform(-2.5, 2.5, lam)
        alphas.append(alpha - alpha.mean())
    for lam in range(2, 13):
        for d in range(1, lam):
            alphas.append(dyadic_finite(rng, lam, d, scale=10_000))
            alpha = dyadic_finite(rng, lam, d)
            for eps in (0.0, -2e-12, -5e-13, 5e-13, 2e-12):  # F(d) = eps, about the tolerance
                moved = alpha.copy()
                moved[d - 1] += eps
                moved[-1] -= eps
                alphas.append(moved)
    kinds = set()
    for alpha in alphas:
        assert admits_bfb(alpha) is scalar_admits_bfb(alpha)
        try:
            result = classify(from_alpha(len(alpha), alpha))
            verdict = (result.kind.value, result.dim)
        except NonUnitaryError as err:
            verdict = str(err)
        assert verdict == scalar_classify(alpha)
        kinds.add(verdict[0] if isinstance(verdict, tuple) else "non-unitary")
    assert kinds == {"bounded-from-below", "finite-dimensional", "non-unitary"}


@pytest.mark.parametrize("lam", range(2, 13))
def test_large_dyadic_finite_specs_classify_exactly(lam):
    # entries up to about 1e4, where the sum and conjugation checks scale
    rng = np.random.default_rng(7000 + lam)
    for d in range(1, lam):
        result = classify(from_alpha(lam, dyadic_finite(rng, lam, d, scale=10_000)))
        assert (result.kind.value, result.dim) == ("finite-dimensional", d)

import cmath
from fractions import Fraction

import numpy as np
import pytest

from clext import (
    AlgebraSpec,
    ConjugationViolationError,
    LengthMismatchError,
    NonFiniteError,
    NonUnitaryError,
    RepKind,
    SumNotZeroError,
    classify,
    energy_level,
    from_alpha,
    from_kappa,
    sample_bfb_alpha,
    structure_function,
)
from clext.algebra import admits_bfb

LAMBDAS = (2, 3, 4, 5, 6)


def dft_alpha(lam, kappa):
    """Independent Fourier-sum oracle for the sector couplings."""
    out = []
    for mu in range(lam):
        total = 0j
        for nu in range(1, lam):
            total += cmath.exp(2j * cmath.pi * mu * nu / lam) * kappa[nu - 1]
        out.append(total)
    return out


def idft_kappa(lam, alpha):
    """Independent inverse-transform oracle."""
    out = []
    for nu in range(1, lam):
        total = 0j
        for mu in range(lam):
            total += cmath.exp(-2j * cmath.pi * mu * nu / lam) * alpha[mu]
        out.append(total / lam)
    return out


def random_constrained_kappa(lam, rng):
    kappa = np.zeros(lam - 1, dtype=complex)
    for mu in range(1, lam):
        partner = lam - mu
        if mu < partner:
            kappa[mu - 1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            kappa[partner - 1] = kappa[mu - 1].conjugate()
        elif mu == partner:
            kappa[mu - 1] = complex(rng.uniform(-1, 1), 0.0)
    return kappa


class TestFromKappa:
    def test_lam2_real_coupling(self):
        spec = from_kappa(2, [0.5])
        np.testing.assert_allclose(spec.alpha, [0.5, -0.5], atol=1e-15)

    def test_lam3_zero_input(self):
        spec = from_kappa(3, [0.0, 0.0])
        np.testing.assert_array_equal(spec.alpha, [0.0, 0.0, 0.0])

    def test_lam3_complex_pair(self):
        # frozen from the loop oracle above
        spec = from_kappa(3, [0.25 + 0.25j, 0.25 - 0.25j])
        expected = [0.5, -0.6830127018922193, 0.18301270189221946]
        np.testing.assert_allclose(spec.alpha, expected, atol=1e-12)
        assert abs(spec.alpha.sum()) < 1e-12

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_matches_loop_oracle(self, lam):
        rng = np.random.default_rng(100 + lam)
        for _ in range(10):
            kappa = random_constrained_kappa(lam, rng)
            spec = from_kappa(lam, kappa)
            oracle = dft_alpha(lam, kappa)
            np.testing.assert_allclose(spec.alpha, [v.real for v in oracle], atol=1e-13)

    def test_conjugation_violation(self):
        with pytest.raises(ConjugationViolationError):
            from_kappa(2, [0.3 + 0.1j])
        with pytest.raises(ConjugationViolationError):
            from_kappa(3, [0.25 + 0.25j, 0.25 + 0.25j])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            from_kappa(3, [0.5])


class TestFromAlpha:
    def test_lam2_inverse(self):
        spec = from_alpha(2, [1.0, -1.0])
        oracle = idft_kappa(2, [1.0, -1.0])
        np.testing.assert_allclose(spec.kappa, oracle, atol=1e-15)
        np.testing.assert_allclose(spec.kappa, [1.0], atol=1e-15)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_zero_alpha_gives_zero_kappa(self, lam):
        spec = from_alpha(lam, np.zeros(lam))
        np.testing.assert_allclose(spec.kappa, np.zeros(lam - 1), atol=1e-15)

    def test_sum_not_zero_rejected(self):
        with pytest.raises(SumNotZeroError, match="sum"):
            from_alpha(3, [1.0, -0.5, -0.4])

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_roundtrip_both_directions(self, lam):
        rng = np.random.default_rng(200 + lam)
        for _ in range(10):
            kappa = random_constrained_kappa(lam, rng)
            back = from_alpha(lam, from_kappa(lam, kappa).alpha).kappa
            np.testing.assert_allclose(back, kappa, atol=1e-13)

            alpha = rng.uniform(-1, 1, lam)
            alpha -= alpha.mean()
            back_alpha = from_kappa(lam, from_alpha(lam, alpha).kappa).alpha
            np.testing.assert_allclose(back_alpha, alpha, atol=1e-13)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_derived_vectors(self, lam):
        rng = np.random.default_rng(300 + lam)
        alpha = rng.uniform(-1, 1, lam)
        alpha -= alpha.mean()
        spec = from_alpha(lam, alpha)
        assert spec.beta[0] == 0.0
        np.testing.assert_allclose(spec.beta, np.concatenate([[0], np.cumsum(alpha)[:-1]]))
        # gamma is stored as the exact sum beta + alpha/2; the subtracted
        # form holds to rounding
        np.testing.assert_array_equal(spec.gamma, spec.beta + spec.alpha / 2)
        np.testing.assert_allclose(spec.gamma - spec.beta, spec.alpha / 2, atol=1e-12)

    def test_spec_arrays_are_readonly(self):
        spec = from_alpha(2, [0.5, -0.5])
        with pytest.raises(ValueError):
            spec.alpha[0] = 1.0


class TestScaledTolerance:
    """Constraint residuals are judged against CONSTRAINT_TOL * max(1, max |term|)."""

    @pytest.mark.parametrize("scale", (1.0, 1e4, 1e8))
    def test_relative_violation_of_1e9_raises(self, scale):
        with pytest.raises(SumNotZeroError, match="sum"):
            from_alpha(3, [scale * (1 + 1e-9), -scale, 0.0])
        kappa = np.array([scale * (1 + 1j), scale * (1 - 1j)])
        alpha = from_kappa(3, kappa).alpha
        bumped = kappa * [1, 1 + 1e-9]
        with pytest.raises(ConjugationViolationError, match="worst mismatch"):
            from_kappa(3, bumped)
        with pytest.raises(ConjugationViolationError, match="worst mismatch"):
            AlgebraSpec(lam=3, kappa=bumped, alpha=alpha)

    def test_unit_sized_couplings_keep_the_absolute_bound(self):
        from_alpha(2, [0.5, -0.4999999999995])  # sum 5e-13
        with pytest.raises(SumNotZeroError):
            from_alpha(2, [0.5, -0.4999999999985])  # sum 1.5e-12
        with pytest.raises(ConjugationViolationError):
            from_kappa(2, [0.5 + 2e-12j])

    @pytest.mark.parametrize("lam", range(3, 9))
    def test_exact_zero_sums_are_accepted_at_any_size(self, lam):
        # dyadic entries up to 2^14 and 2^40 sum to zero exactly; their kappa
        # misses conjugation by rounding of size eps |alpha|
        rng = np.random.default_rng(lam)
        for bits in (14, 40):
            for _ in range(50):
                alpha = rng.integers(-(2 ** bits), 2 ** bits, lam) / 8
                alpha[-1] = -alpha[:-1].sum()
                back = from_kappa(lam, from_alpha(lam, alpha).kappa).alpha
                assert np.abs(back - alpha).max() <= 1e-12 * np.abs(alpha).max()


class TestNonFinite:
    """NaN passes every ``abs(x) > tol`` check, so finiteness is checked first."""

    @pytest.mark.parametrize(
        "alpha", ([np.nan, 0.0, 0.0], [np.inf, -np.inf, 0.0], [np.inf, 0.0, 0.0])
    )
    def test_from_alpha(self, alpha):
        with pytest.raises(NonFiniteError, match="^alpha must be finite"):
            from_alpha(3, alpha)

    @pytest.mark.parametrize("kappa", ([np.nan, 1.0, 2.0], [0.5, complex(0.0, np.inf), 0.5]))
    def test_from_kappa(self, kappa):
        with pytest.raises(NonFiniteError, match="^kappa must be finite"):
            from_kappa(4, kappa)

    def test_overflowing_transform_raises_without_a_warning(self):
        # finite couplings whose kappa overflows: the spec's own check names
        # kappa, and no RuntimeWarning (an error under this suite) comes first
        with pytest.raises(NonFiniteError, match=r"^kappa must be finite, got \[\(inf\+nanj\)\]$"):
            from_alpha(2, [1e308, -1e308])

    def test_direct_construction(self):
        with pytest.raises(NonFiniteError, match="^alpha"):
            AlgebraSpec(lam=2, kappa=[0.0], alpha=[np.nan, 0.0])
        with pytest.raises(NonFiniteError, match="^kappa"):
            AlgebraSpec(lam=2, kappa=[np.nan], alpha=[0.0, 0.0])


class TestStructureFunction:
    def test_vanishes_at_zero(self):
        for lam in LAMBDAS:
            rng = np.random.default_rng(lam)
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            assert structure_function(spec, 0) == 0.0

    def test_worked_values(self):
        spec = from_alpha(3, [1.0, -0.5, -0.5])
        assert structure_function(spec, 1) == 2.0
        assert structure_function(spec, 2) == 2.5
        assert structure_function(spec, 3) == 3.0

    def test_zero_at_one_for_descending_spec(self):
        spec = from_alpha(2, [-1.0, 1.0])
        assert structure_function(spec, 1) == 0.0

    def test_step_equals_one_plus_alpha(self):
        rng = np.random.default_rng(5)
        for lam in LAMBDAS:
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            for n in range(3 * lam):
                step = structure_function(spec, n + 1) - structure_function(spec, n)
                assert abs(step - (1 + spec.alpha[n % lam])) < 1e-12

    def test_rejects_negative_index(self):
        spec = from_alpha(2, [0.0, 0.0])
        with pytest.raises(ValueError):
            structure_function(spec, -1)


class TestClassify:
    def test_bfb_example(self):
        result = classify(from_alpha(3, [1.0, -0.5, -0.5]))
        assert result.kind is RepKind.BOUNDED_FROM_BELOW
        assert result.dim is None
        np.testing.assert_allclose(result.witnesses, [2.0, 2.5])

    def test_finite_dim_example(self):
        result = classify(from_alpha(2, [-1.0, 1.0]))
        assert result.kind is RepKind.FINITE_DIM
        assert result.dim == 1

    def test_undeformed_is_bfb(self):
        assert classify(from_alpha(2, [0.0, 0.0])).is_bounded_from_below

    @pytest.mark.parametrize("lam", (2, 3, 7, 64))
    def test_witnesses_are_the_structure_function(self, lam):
        rng = np.random.default_rng(70 + lam)
        for _ in range(5):
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            loop = [structure_function(spec, m) for m in range(1, lam)]
            assert classify(spec).witnesses.tolist() == loop

    def test_non_unitary_region(self):
        # F(1) < 0 with no earlier zero: neither representation exists
        with pytest.raises(NonUnitaryError):
            classify(from_alpha(3, [-1.5, 0.5, 1.0]))


class TestEnergyLevel:
    def test_undeformed(self):
        spec = from_alpha(3, [0.0, 0.0, 0.0])
        for n in range(10):
            assert energy_level(spec, n) == n + 0.5

    def test_worked_values(self):
        spec = from_alpha(3, [1.0, -0.5, -0.5])
        assert energy_level(spec, 0) == 1.0
        assert energy_level(spec, 1) == 2.25
        assert energy_level(spec, 2) == 2.75
        assert energy_level(spec, 3) == 4.0

    def test_lam2_constant_shift(self):
        nu = 0.75
        spec = from_alpha(2, [nu, -nu])
        for n in range(8):
            assert abs(energy_level(spec, n) - (n + 0.5 + nu / 2)) < 1e-14

    def test_family_spacing_is_exact(self):
        # evaluated in exact rational arithmetic: the closed form cancels
        # gamma identically, so the spacing is lam with no tolerance at all
        rng = np.random.default_rng(17)
        for lam in LAMBDAS:
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            for n in range(4 * lam):
                gamma = Fraction(spec.gamma[n % lam])
                e_n = Fraction(n) + Fraction(1, 2) + gamma
                e_up = Fraction(n + lam) + Fraction(1, 2) + gamma
                assert e_up - e_n == lam
                # float evaluation agrees with the exact value to an ulp
                assert abs(energy_level(spec, n) - float(e_n)) < 1e-12

    def test_matches_structure_average(self):
        rng = np.random.default_rng(23)
        for lam in LAMBDAS:
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            for n in range(3 * lam):
                average = (structure_function(spec, n) + structure_function(spec, n + 1)) / 2
                assert abs(energy_level(spec, n) - average) < 1e-13


class TestSampler:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_samples_are_admissible(self, lam):
        rng = np.random.default_rng(400 + lam)
        for _ in range(20):
            alpha = sample_bfb_alpha(lam, rng)
            assert abs(alpha.sum()) < 1e-12
            assert classify(from_alpha(lam, alpha)).is_bounded_from_below


class TestAdmitsBfb:
    """admits_bfb is classify's bounded-from-below verdict on a raw alpha."""

    @staticmethod
    def classify_verdict(lam, alpha):
        try:
            return classify(from_alpha(lam, alpha)).is_bounded_from_below
        except NonUnitaryError:
            return False

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_agrees_with_classify_on_random_draws(self, lam):
        rng = np.random.default_rng(900 + lam)
        verdicts = set()
        for _ in range(200):
            alpha = rng.uniform(-2.5, 2.5, lam)
            alpha -= alpha.mean()
            verdict = admits_bfb(alpha)
            assert verdict == self.classify_verdict(lam, alpha)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("alpha", [
        (-1.0, 1.0),                 # F(1) = 0
        (-0.5, -1.5, 2.0),           # F(2) = 0
        (0.25, -2.25, 0.5, 1.5),     # F(2) = 0
        (1.5, -3.5, -1.0, 3.0),      # F(2) = 0
        (-0.75, -0.5, -1.75, 3.0),   # F(3) = 0
    ])
    def test_exact_zero_is_not_bfb(self, alpha):
        lam = len(alpha)
        assert classify(from_alpha(lam, alpha)).kind is RepKind.FINITE_DIM
        assert admits_bfb(alpha) is False
        assert self.classify_verdict(lam, alpha) is False

import numpy as np
import pytest

import clext.spectrum as spectrum_module

from clext import (
    LengthMismatchError,
    build_fock_rep,
    degeneracy_profile,
    energy_level,
    from_alpha,
    grading_sector,
    hamiltonian_h0,
    sample_bfb_alpha,
    shifted_hamiltonian,
    spectrum_report,
    structure_function,
)

WORKED = from_alpha(3, [1.0, -0.5, -0.5])


class TestHamiltonian:
    def test_undeformed_diagonal(self):
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 6)
        np.testing.assert_array_equal(hamiltonian_h0(rep), np.arange(6) + 0.5)

    def test_worked_diagonal(self):
        rep = build_fock_rep(WORKED, 4)
        np.testing.assert_allclose(hamiltonian_h0(rep), [1.0, 2.25, 2.75, 4.0])

    def test_commutes_with_projectors(self):
        rep = build_fock_rep(WORKED, 12)
        h0 = np.diag(hamiltonian_h0(rep))
        for proj in map(np.diag, rep.P):
            np.testing.assert_array_equal(h0 @ proj, proj @ h0)

    def test_matches_structure_average(self):
        rng = np.random.default_rng(41)
        for lam in (2, 3, 5):
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            rep = build_fock_rep(spec, 6 * lam)
            diag = hamiltonian_h0(rep)
            expected = [
                (structure_function(spec, n) + structure_function(spec, n + 1)) / 2
                for n in range(rep.dim)
            ]
            np.testing.assert_allclose(diag, expected, atol=1e-13)

    @pytest.mark.parametrize("sector", (0, 1))
    def test_perturbed_energy_still_raises(self, monkeypatch, sector):
        # only the sum(alpha)/2 residue at sector lam - 1 is forgiven
        closed_form = spectrum_module.energy_values

        def perturbed(spec, count, dtype=float):
            energies = closed_form(spec, count, dtype)
            energies[sector::spec.lam] += 1e-9  # gamma_sector moved by 1e-9
            return energies

        monkeypatch.setattr(spectrum_module, "energy_values", perturbed)
        rep = build_fock_rep(from_alpha(2, [0.5, -0.4999999999995]), 8)
        with pytest.raises(ValueError, match=f"E_{sector} differs"):
            hamiltonian_h0(rep)

    def test_sector_restriction_is_arithmetic(self):
        rng = np.random.default_rng(43)
        spec = from_alpha(4, sample_bfb_alpha(4, rng))
        rep = build_fock_rep(spec, 24)
        diag = hamiltonian_h0(rep)
        for mu in range(4):
            sector = diag[grading_sector(rep, mu)]
            steps = np.diff(sector)
            np.testing.assert_allclose(steps, 4.0, atol=1e-12)


class TestShiftedHamiltonian:
    def test_zero_shift_equals_h0(self):
        rep = build_fock_rep(WORKED, 10)
        np.testing.assert_array_equal(
            shifted_hamiltonian(rep, [0.0, 0.0, 0.0]), hamiltonian_h0(rep)
        )

    def test_worked_shift(self):
        rep = build_fock_rep(WORKED, 7)
        diag = shifted_hamiltonian(rep, [-2.5, 1.0, 0.0])
        np.testing.assert_allclose(diag, [-0.25, 2.75, 2.75, 2.75, 5.75, 5.75, 5.75])

    def test_constant_shift_moves_all_levels(self):
        rep = build_fock_rep(WORKED, 12)
        base = shifted_hamiltonian(rep, [-2.5, 1.0, 0.0])
        moved = shifted_hamiltonian(rep, [-2.5 + 3.0, 1.0 + 3.0, 0.0 + 3.0])
        np.testing.assert_allclose(moved - base, 1.5, atol=1e-12)

    def test_length_guard(self):
        rep = build_fock_rep(WORKED, 6)
        with pytest.raises(LengthMismatchError):
            shifted_hamiltonian(rep, [0.0, 0.0])


class TestDegeneracyProfile:
    def test_worked_clusters(self):
        values = [-0.25, 2.75, 2.75, 2.75, 5.75, 5.75, 5.75]
        clusters = degeneracy_profile(values, cluster_tol=1e-8)
        assert [(c.energy, c.multiplicity) for c in clusters] == [
            (-0.25, 1),
            (2.75, 3),
            (5.75, 3),
        ]
        assert clusters[1].members == (1, 2, 3)

    def test_nondegenerate_spacing(self):
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 10)
        clusters = degeneracy_profile(hamiltonian_h0(rep))
        assert all(c.multiplicity == 1 for c in clusters)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(51)
        values = np.array([-0.25, 2.75, 2.75, 2.75, 5.75, 5.75, 5.75])
        shuffled = values.copy()
        rng.shuffle(shuffled)
        original = degeneracy_profile(values)
        permuted = degeneracy_profile(shuffled)
        assert [(c.energy, c.multiplicity) for c in original] == [
            (c.energy, c.multiplicity) for c in permuted
        ]

    def test_stability_under_small_perturbation(self):
        rng = np.random.default_rng(53)
        values = np.array([-0.25, 2.75, 2.75, 2.75, 5.75, 5.75, 5.75])
        tol = 1e-8
        noisy = values + rng.uniform(-tol / 10, tol / 10, len(values))
        baseline = [c.multiplicity for c in degeneracy_profile(values, tol)]
        perturbed = [c.multiplicity for c in degeneracy_profile(noisy, tol)]
        assert baseline == perturbed

    def test_drop_top_discards_touching_clusters(self):
        values = [0.0, 1.0, 1.0, 2.0, 2.0]
        clusters = degeneracy_profile(values, drop_top=1)
        # the (2.0, 2.0) cluster contains the dropped top index and vanishes
        assert [(c.energy, c.multiplicity) for c in clusters] == [(0.0, 1), (1.0, 2)]

    def test_drop_top_guard(self):
        with pytest.raises(ValueError):
            degeneracy_profile([1.0, 2.0], drop_top=2)


class TestSpectrumReport:
    def test_levels_carry_sectors(self):
        rep = build_fock_rep(WORKED, 7)
        report = spectrum_report(rep)
        assert report.levels[0] == (0, 1.0, 0)
        assert report.levels[4] == (4, energy_level(WORKED, 4), 1)
        assert sum(c.multiplicity for c in report.clusters) == 7

    def test_ground_is_lowest_cluster(self):
        rep = build_fock_rep(WORKED, 9)
        report = spectrum_report(rep, diagonal=shifted_hamiltonian(rep, [-2.5, 1, 0]))
        assert report.ground.energy == -0.25
        assert report.ground.multiplicity == 1

    def test_to_dict_roundtrip(self):
        rep = build_fock_rep(WORKED, 6)
        data = spectrum_report(rep).to_dict()
        assert len(data["levels"]) == 6
        assert data["ground"]["multiplicity"] == data["clusters"][0]["multiplicity"]

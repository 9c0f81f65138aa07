import numpy as np
import pytest

import clext.spectrum as spectrum_module

from clext import (
    Cluster,
    LengthMismatchError,
    build_fock_rep,
    degeneracy_profile,
    energy_level,
    energy_values,
    from_alpha,
    grading_sector,
    hamiltonian_h0,
    sample_bfb_alpha,
    shifted_hamiltonian,
    solve_and_check,
    spectrum_report,
    ssqm_check,
    structure_function,
)
from clext.cli import main
from clext.pssqm import CHECK_DTYPE
from conftest import digest

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

    def test_closed_form_in_the_rep_dtype(self):
        # the energies are derived once, from the spec's sector table
        for dtype in (np.complex128, CHECK_DTYPE):
            rep = build_fock_rep(WORKED, 30, dtype=dtype)
            rdtype = np.finfo(dtype).dtype
            np.testing.assert_array_equal(hamiltonian_h0(rep), energy_values(WORKED, 30, rdtype),
                                          strict=True)

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
        with pytest.raises(ValueError, match="drop_top 2 does not fit in 2 values"):
            degeneracy_profile([1.0, 2.0], drop_top=2)
        with pytest.raises(ValueError, match="drop_top -1 does not fit in 2 values"):
            degeneracy_profile([1.0, 2.0], drop_top=-1)

    def test_empty_input(self):
        assert degeneracy_profile([]) == []
        assert degeneracy_profile(np.array([]), drop_top=3) == []


class TestSurvivingClusters:
    """The complete levels of :mod:`clext.pssqm` (which replaced
    ``surviving_clusters`` and its cut of the top states) keep its two errors."""

    def test_unresolved_levels_are_not_a_dim_problem(self):
        # float64 steps past the unit level spacing at 2.5e299: the shifted
        # energies fall in two clusters that both reach the top, at any dim
        for dim in (30, 300):
            with pytest.raises(ValueError, match="all .* energies fall in 2 clusters: float64 "
                                                 "cannot resolve") as info:
                solve_and_check(from_alpha(3, [1e300, -5e299, -5e299]), 0, dim=dim)
            assert "increase dim" not in str(info.value)

    def test_small_dim_asks_for_a_larger_one(self):
        # dim 2 lam = 4 keeps the broken ground doublet and the first excited
        # one whole; dim 3 asks for 4
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 3)
        with pytest.raises(ValueError, match="^dim must be at least 2 lam = 4, .* got 3$"):
            ssqm_check(rep, "broken")
        for dim in (4, 5):
            report = ssqm_check(build_fock_rep(rep.spec, dim), "broken")
            assert (report.ground_multiplicity, report.excited_multiplicities) == (2, (2,))


def loop_profile(values, cluster_tol, drop_top):
    """The per-level clustering loop that :func:`degeneracy_profile` replaced,
    kept as its oracle: each sorted value joins the group of the value before
    it unless the gap to that group's last member exceeds ``cluster_tol``."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] > cluster_tol:
            groups.append([])
        groups[-1].append(idx)
    cutoff = len(values) - drop_top
    clusters = []
    for group in groups:
        members = sorted(int(i) for i in group)
        if members[-1] >= cutoff:
            continue
        clusters.append(Cluster(energy=float(values[group].mean()),
                                multiplicity=len(members), members=tuple(members)))
    return clusters


def _multiplets(rng):
    """Multiplets of each size 2 to 8, members spread within the tolerance so
    that their means round, shuffled together."""
    levels = np.cumsum(rng.uniform(0.5, 2.0, 7))
    values = np.concatenate([level + rng.uniform(-3e-9, 3e-9, size)
                             for size, level in zip(range(2, 9), levels)])
    return rng.permutation(values)


def _profile_inputs():
    rng = np.random.default_rng(1515)
    distinct = rng.normal(0, 10, 72)
    base = np.repeat(rng.normal(0, 10, 12), 3)
    return {
        "distinct": distinct,
        "near-ties": rng.permutation(base + rng.uniform(-1e-12, 1e-12, base.size)),
        "exact-ties": rng.integers(-4, 5, 40).astype(float),
        "rounded": np.round(rng.normal(0, 1, 50), 1),
        "multiplets": _multiplets(rng),
        "chain": rng.permutation(np.arange(20) * 0.6e-8 + 1.0),
        "signed-zeros": np.array([0.0, -0.0, 1.0, -0.0, 1.0 + 5e-9, 0.0, -2.0, -0.0]),
        "one-negative-zero": np.array([-0.0]),
        "single": np.array([2.75]),
    }


class TestProfileMatchesLoop:
    """degeneracy_profile equals the per-level loop bit for bit: energies as
    ``float.hex``, multiplicities and members, at every ``drop_top``."""

    @staticmethod
    def _key(clusters):
        return [(c.energy.hex(), c.multiplicity, c.members) for c in clusters]

    @pytest.mark.parametrize("name", list(_profile_inputs()))
    def test_every_drop_top(self, name):
        values = _profile_inputs()[name]
        for tol in (1e-8, 0.0):
            for drop_top in range(len(values)):
                got = degeneracy_profile(values, tol, drop_top)
                assert all(type(c.energy) is float and type(c.multiplicity) is int
                           and all(type(m) is int for m in c.members) for c in got)
                assert self._key(got) == self._key(loop_profile(values, tol, drop_top)), (
                    tol, drop_top)

    def test_inputs_are_what_they_claim(self):
        inputs = _profile_inputs()
        multiplicities = sorted(c.multiplicity for c in degeneracy_profile(inputs["multiplets"]))
        assert multiplicities == list(range(2, 9))
        assert len(degeneracy_profile(inputs["chain"])) == 1
        assert [c.energy.hex() for c in degeneracy_profile(inputs["one-negative-zero"])] == [
            (0.0).hex()]
        assert [c.multiplicity for c in degeneracy_profile(inputs["near-ties"])] == [3] * 12


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


#: Digest of ``clext spectrum`` stdout for each argv, with its exit code,
#: first recorded with the per-level clustering loop.
GOLDEN_CLI = {
    "--lambda 3 --alpha 1,-0.5,-0.5": ("b4e5e4723b8c92e4", 0),
    "--alpha 0.5,3.5,-4": ("1619dada32e50a27", 0),  # multiplets of two
    "--alpha 0.9140517498670905,-0.33796105313112723,1.010295790259566,-1.5863864869955295"
    " --format csv": ("b7893dab29abccd2", 0),
    "--lambda 3 --kappa 0.25+0.25j,0.25-0.25j --format csv": ("e16b3bc9c6dc6b8d", 0),
    "--lambda 2 --alpha 0.3,-0.3 --dim 600 --format tsv": ("1bb2311c84093f01", 0),
    "--lambda 2 --alpha 0.3,-0.3 --dim 600": ("d6038589aa9cc72b", 0),
}


class TestSpectrumCommand:
    @pytest.mark.parametrize("argv", list(GOLDEN_CLI))
    def test_golden_stdout(self, argv, capsys):
        code = main(["spectrum", *argv.split()])
        assert (digest([capsys.readouterr().out]), code) == GOLDEN_CLI[argv]

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_rows_build_no_json_body(self, monkeypatch, capsys, fmt):
        def refuse(self):
            raise AssertionError("to_dict called for a row format")

        monkeypatch.setattr(spectrum_module.SpectrumReport, "to_dict", refuse)
        code = main(["spectrum", "--lambda", "3", "--alpha", "1,-0.5,-0.5", "--format", fmt])
        sep = {"csv": ",", "tsv": "\t"}[fmt]
        assert code == 0
        assert capsys.readouterr().out.startswith(sep.join(["n", "energy", "sector"]) + "\n")

import dataclasses
import inspect
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

import clext.pssqm
from clext import (
    BdReport,
    BdScanPoint,
    BreakingReport,
    Cluster,
    EtaNormViolationError,
    NotBoundedFromBelowError,
    OrderMismatchError,
    PssqmConfig,
    PssqmReport,
    SsqmReport,
    WrongLambdaError,
    WrongOrderError,
    bd_scan,
    beckers_debergh_check,
    build_fock_rep,
    build_supercharge,
    classify_breaking,
    default_eta,
    find_null_ground_alpha,
    from_alpha,
    ground_energy,
    khare_check,
    ladder_matrices,
    sample_bfb_alpha,
    sample_ground_energies,
    shifted_hamiltonian,
    solve_and_check,
    solve_config,
    solve_r,
    ssqm_check,
    structure_values,
    verify_defining_relations,
)
from clext.cli import main
from clext.algebra import admits_bfb
from clext.fock import lower_shift
from clext.pssqm import CHECK_DTYPE, MULTILINEAR_DENSE_WORDS, RELATIVE_TOL
from conftest import digest, interior_max_abs

WORKED = from_alpha(3, [1.0, -0.5, -0.5])


def pinned_shift_oracle(alpha, mu, p):
    """Independent closed form of the pinned shift for |eta|^2 = 2 couplings."""
    lam = p + 1
    total = (p - 2) * alpha[(mu + 2) % lam] + p * (p - 2)
    for nu in range(mu + 3, mu + p + 1):
        total += 2 * (p + mu - nu + 1) * alpha[nu % lam]
    return total / p


def chain_oracle(alpha, mu, p):
    """Pinned shift plus recursion, solved independently of the library."""
    lam = p + 1
    shifts = {(mu + 2) % lam: pinned_shift_oracle(alpha, mu, p)}
    shifts[(mu + 1) % lam] = (
        2 + alpha[(mu + 1) % lam] + alpha[(mu + 2) % lam] + shifts[(mu + 2) % lam]
    )
    current = shifts[(mu + 2) % lam]
    for nu in range(2, p + 1):
        current = current - 2 - alpha[(mu + nu) % lam] - alpha[(mu + nu + 1) % lam]
        shifts[(mu + nu + 1) % lam] = current
    return np.array([shifts[s] for s in range(lam)])


def random_admissible_eta(p, rng):
    """Random moduli and phases with the exact total norm 2p."""
    weights = rng.uniform(0.2, 1.0, p)
    weights *= 2 * p / weights.sum()
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, p))
    return np.sqrt(weights) * phases


#: Each checker's margins under the truncation rule of clext.fock: 1 on a
#: residual holding a word that lowers from above the top state (Qd Q^p, Qd Q,
#: a adag), 0 on the others.  TestTruncationMargins proves them.
KHARE_MARGINS = {"nilpotency": 0, "commutator": 0, "multilinear": 1}
SSQM_MARGINS = {"nilpotency": 0, "anticommutator": 1, "commutator": 0}
BD_MARGIN = 1


def dense_khare_words(rep, band, energies):
    """Each khare_check residual as (its dense terms, the residual word they sum
    to), with the factors and terms in the order of the check's dense sum."""
    p = rep.spec.lam - 1
    charge, hamiltonian = dense_charge(band), np.diag(energies)
    powers = [np.eye(rep.dim, dtype=charge.dtype)]
    for _ in range(p + 1):
        powers.append(powers[-1] @ charge)
    adjoint = charge.conj().T
    lhs = [powers[p - k] @ adjoint @ powers[k] for k in range(p + 1)]
    rhs = (2 * p) * (powers[p - 1] @ hamiltonian)
    products = [hamiltonian @ charge, charge @ hamiltonian]
    return {
        "nilpotency": ([powers[p + 1]], powers[p + 1]),
        "commutator": (products, products[0] - products[1]),
        "multilinear": ([*lhs, rhs], sum(lhs) - rhs),
    }


def dense_ssqm_words(rep, variant):
    """Q^2, {Qd, Q} - H and [H, Q] as (dense terms, residual word), H from the
    sector table: F(n) on the sector Q annihilates and F(n + 1) on the other."""
    low, high = (rep.P[0], rep.P[1]) if variant == "unbroken" else (rep.P[1], rep.P[0])
    charge = ladder_matrices(rep)[1] * high
    values = structure_values(rep.spec, rep.dim + 1, rep.a.real.dtype)
    energies = [np.diag(values[:-1] * low), np.diag(values[1:] * high)]
    hamiltonian = energies[0] + energies[1]
    adjoint = charge.conj().T
    anti = [adjoint @ charge, charge @ adjoint]
    products = [hamiltonian @ charge, charge @ hamiltonian]
    return {
        "nilpotency": ([charge @ charge], charge @ charge),
        "anticommutator": ([*anti, *energies], anti[0] + anti[1] - hamiltonian),
        "commutator": (products, products[0] - products[1]),
    }


def dense_ssqm_residuals(rep, variant):
    """Q^2, {Qd, Q} - H and [H, Q] as dense products (the oracle)."""
    words = dense_ssqm_words(rep, variant)
    return [interior_max_abs(words[name][1], margin) for name, margin in SSQM_MARGINS.items()]


def dense_bd_words(rep, mu, eta, shifts):
    """[Q, [Qd, Q]] - 2 Q H as (dense terms, residual word)."""
    weights = np.zeros(3, dtype=complex)
    weights[[(mu + 1) % 3, (mu + 2) % 3]] = default_eta(2) if eta is None else eta
    charge = ladder_matrices(rep)[1] * weights[np.arange(rep.dim) % 3]
    hamiltonian = shifted_hamiltonian(rep, shifts)
    adjoint = charge.conj().T
    inner = adjoint @ charge - charge @ adjoint
    terms = [charge @ inner, inner @ charge, 2.0 * (charge * hamiltonian)]
    return terms, terms[0] - terms[1] - terms[2]


def dense_bd_residual(rep, mu, eta, shifts):
    """[Q, [Qd, Q]] - 2 Q H as dense products (the oracle)."""
    return interior_max_abs(dense_bd_words(rep, mu, eta, shifts)[1], BD_MARGIN)


def truncation_margin(narrow, wide):
    """The smallest margin that masks every entry in which a term at dim, in
    ``narrow``, differs from the same term at a wider truncation, in ``wide``,
    cut back to dim: dim - max(row, column) over those entries, else 0."""
    margin = 0
    for term, wider in zip(narrow, wide):
        dim = term.shape[0]
        rows, cols = np.nonzero(term != wider[:dim, :dim])
        margin = max([margin, *(dim - np.maximum(rows, cols))])
    return margin


def structural_reason(kind, values, n, lam, mu):
    """Why scaling q[n] (``kind`` "q") or h[n] ("h"), entry n of ``values``,
    can fail no relation of the order-p checks, or None.  Q links the states
    m .. m + p of each multiplet, m = mu + 1 (mod lam); the ground multiplet
    is 0 .. mu, and the truncation cuts the top one when m + p >= dim."""
    p, dim = lam - 1, len(values)
    start = n - (n - mu - 1) % lam
    kept = len(range(max(start, 0), min(start + p, dim - 1) + 1))
    if values[n] == 0:
        return "a zero entry stays zero"
    if kind == "q" and start + p >= dim:
        return "its multiplet is cut by the top: every relation reading it needs q[dim]"
    if kind == "q" and start < 0 and kept - 1 < p - 1:
        return "the ground multiplet has fewer than p - 1 links: no word spans them"
    if kind == "h" and kept == 1 and (p > 1 or start + p >= dim):
        return "its multiplet keeps one state: no kept relation links its energy"
    return None


def scaled_entries(rep, name, entries, factor=1 + 1e-6):
    """``rep`` with some entries of its band ``name`` scaled: the relations break."""
    band = getattr(rep, name).copy()
    band[list(entries)] *= factor
    return dataclasses.replace(rep, **{name: band})


def dense_charge(band):
    """The dense Q of a +1 band: entry n of the band on row n, column n - 1."""
    return np.diag(band[1:], -1)


def hexes(*values):
    return [float(value).hex() for value in values]


class TestDefaultEta:
    def test_order_two(self):
        np.testing.assert_allclose(default_eta(2), [np.sqrt(2), np.sqrt(2)])

    def test_order_one(self):
        np.testing.assert_allclose(default_eta(1), [np.sqrt(2)])

    @pytest.mark.parametrize("p", (1, 2, 3, 4))
    def test_norm_condition(self, p):
        assert abs((np.abs(default_eta(p)) ** 2).sum() - 2 * p) < 1e-12

    def test_takes_the_order_alone(self):
        # the values do not depend on the distinguished sector, so no mu is taken
        assert list(inspect.signature(default_eta).parameters) == ["p"]


class TestSolveR:
    def test_worked_example(self):
        np.testing.assert_allclose(solve_r(WORKED, 0), [-2.5, 1.0, 0.0], atol=1e-12)

    def test_undeformed_order_two(self):
        spec = from_alpha(3, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(solve_r(spec, 0), [-2.0, 2.0, 0.0], atol=1e-12)

    def test_order_one_closed_form(self):
        nu = 0.4
        spec = from_alpha(2, [nu, -nu])
        np.testing.assert_allclose(solve_r(spec, 0), [-1 - nu, 1 - nu], atol=1e-12)

    @pytest.mark.parametrize("p", (1, 2, 3, 4, 7, 15, 63))
    def test_matches_chain_oracle(self, p):
        rng = np.random.default_rng(700 + p)
        lam = p + 1
        for mu in range(p + 1):
            alpha = sample_bfb_alpha(lam, rng)
            spec = from_alpha(lam, alpha)
            np.testing.assert_allclose(
                solve_r(spec, mu), chain_oracle(alpha, mu, p), atol=1e-12
            )

    @pytest.mark.parametrize("p", (1, 2, 3, 4, 7, 15, 63))
    def test_recursion_and_pinning_for_random_eta(self, p):
        rng = np.random.default_rng(800 + p)
        lam = p + 1
        for mu in range(p + 1):
            alpha = sample_bfb_alpha(lam, rng)
            spec = from_alpha(lam, alpha)
            eta = random_admissible_eta(p, rng)
            shifts = solve_r(spec, mu, eta)
            norms = np.abs(eta) ** 2
            # commutation recursion around the cycle
            for nu in range(1, p + 1):
                lhs = shifts[(mu + nu) % lam]
                rhs = (
                    2
                    + alpha[(mu + nu) % lam]
                    + alpha[(mu + nu + 1) % lam]
                    + shifts[(mu + nu + 1) % lam]
                )
                assert abs(lhs - rhs) < 1e-12
            # pinning condition on r_{mu+2}
            lhs = sum(
                norms[nu] * (nu + sum(alpha[(mu + rho + 2) % lam] for rho in range(nu)))
                for nu in range(1, p)
            )
            rhs = p * (1 + alpha[(mu + 2) % lam] + shifts[(mu + 2) % lam])
            assert abs(lhs - rhs) < 1e-12

    def test_phases_do_not_enter(self):
        rng = np.random.default_rng(12)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        base = solve_r(WORKED, 0)
        rotated = solve_r(WORKED, 0, default_eta(2) * phases)
        np.testing.assert_allclose(rotated, base, atol=1e-12)

    def test_eta_norm_violation(self):
        with pytest.raises(EtaNormViolationError):
            solve_r(WORKED, 0, [1.0, 1.0])

    def test_overflowing_eta_norm_raises_without_a_warning(self):
        # |1e200|^2 overflows to inf, which fails the norm condition with no
        # RuntimeWarning (an error under this suite) ahead of it
        with pytest.raises(EtaNormViolationError) as raised:
            solve_r(WORKED, 0, [1e200, 1])
        assert str(raised.value) == "sum |eta|^2 must equal 2p = 4, got inf"

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            solve_r(WORKED, 0, [np.sqrt(2)] * 3)

    def test_requires_bounded_from_below(self):
        spec = from_alpha(2, [-1.0, 1.0])
        with pytest.raises(NotBoundedFromBelowError):
            solve_r(spec, 0)

    def test_config_validates(self):
        config = solve_config(WORKED, 0)
        assert config.p == 2
        # the chain r_(mu+nu) = 2 + alpha_(mu+nu) + alpha_(mu+nu+1) + r_(mu+nu+1)
        # is off by 1 at nu = 1 and by 2.5 at nu = 2
        with pytest.raises(ValueError, match=r"recursion by 2\.500e\+00$"):
            PssqmConfig(spec=WORKED, mu=0, eta=default_eta(2), r=[0.0, 0.0, 0.0])

    def test_config_scales_the_recursion_check(self):
        # solved shifts near 3e4 meet the recursion to 3.6e-12, rounding at
        # their size; the check allows CONSTRAINT_TOL * max(1, |alpha|, |r|)
        spec = from_alpha(8, [2370, 1092, 7687, 7150, 8689, 811, 5914, -33713])
        config = solve_config(spec, 3)
        for k in (int(np.abs(config.r).argmax()), 0):
            r = config.r.copy()
            r[k] *= 1 + 1e-9
            with pytest.raises(ValueError, match="recursion"):
                PssqmConfig(spec=spec, mu=3, eta=None, r=r)


class TestMuRange:
    """Every entry point that takes mu rejects a sector outside 0..p with the
    same error, before any work that could let it through."""

    MESSAGE = "mu must lie in 0..2, got "

    @pytest.mark.parametrize("mu", (-1, 3, 5, 7))
    def test_every_entry_point(self, mu):
        rep = build_fock_rep(WORKED, 12, dtype=CHECK_DTYPE)
        energies = shifted_hamiltonian(rep, solve_r(WORKED, 0))
        calls = (
            lambda: solve_r(WORKED, mu),
            lambda: build_supercharge(rep, mu),
            lambda: beckers_debergh_check(rep, mu, r=solve_r(WORKED, 0)),
            lambda: PssqmConfig(spec=WORKED, mu=mu, eta=default_eta(2), r=solve_r(WORKED, 0)),
            lambda: bd_scan([0.0, 0.0, 0.0], mu, -1.0, 0.0, 2, dim=12),
            lambda: classify_breaking(energies, mu, 2),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^{self.MESSAGE}{mu}$"):
                call()

    def test_scan_without_an_admissible_point(self):
        # mu 7 would scan alpha_0, as mu 1 does, and no point with alpha_0 <= -1
        # is bounded from below, so no point would check mu
        assert [point.bfb for point in bd_scan([0.0, 0.0, 0.0], 1, -5.0, -4.0, 2)] == [False] * 2
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}7$"):
            bd_scan([0.0, 0.0, 0.0], 7, -5.0, -4.0, 2)


class TestSupercharge:
    def test_is_a_band_with_nothing_below_the_vacuum(self):
        rep = build_fock_rep(WORKED, 9)
        band = build_supercharge(rep, 1)
        assert band.shape == (9,) and band[0] == 0

    def test_annihilates_distinguished_sector(self):
        rep = build_fock_rep(WORKED, 9)
        charge = dense_charge(build_supercharge(rep, 0))
        for n in (0, 3, 6):
            vec = np.zeros(9, dtype=complex)
            vec[n] = 1.0
            assert np.max(np.abs(charge @ vec)) == 0.0

    def test_raises_other_sectors(self):
        rep = build_fock_rep(WORKED, 9)
        charge = dense_charge(build_supercharge(rep, 0))
        vec = np.zeros(9, dtype=complex)
        vec[1] = 1.0
        out = charge @ vec
        assert np.nonzero(np.abs(out) > 1e-14)[0].tolist() == [2]

    def test_order_one_broken_charge(self):
        spec = from_alpha(2, [0.3, -0.3])
        rep = build_fock_rep(spec, 8)
        charge = dense_charge(build_supercharge(rep, 1, [np.sqrt(2)]))
        adag = ladder_matrices(rep)[1]
        np.testing.assert_allclose(charge, np.sqrt(2) * (adag @ np.diag(rep.P[0])), atol=1e-15)

    def test_matches_projector_products(self):
        # the band, placed on the subdiagonal, is bit-identical to sum_nu eta adag @ P
        rng = np.random.default_rng(21)
        for p in (1, 2, 3, 7):
            lam = p + 1
            rep = build_fock_rep(from_alpha(lam, sample_bfb_alpha(lam, rng)), 4 * lam,
                                 dtype=CHECK_DTYPE)
            adag = ladder_matrices(rep)[1]
            for mu in range(lam):
                eta = random_admissible_eta(p, rng)
                expected = np.zeros_like(adag)
                for nu in range(1, lam):
                    proj = np.diag(rep.P[(mu + nu) % lam])
                    expected = expected + eta[nu - 1] * (adag @ proj)
                assert np.array_equal(dense_charge(build_supercharge(rep, mu, eta)), expected)

    def test_nilpotency_is_exact(self):
        rep = build_fock_rep(WORKED, 9)
        charge = dense_charge(build_supercharge(rep, 0))
        cubed = charge @ charge @ charge
        assert np.max(np.abs(cubed)) == 0.0


class TestKhareCheck:
    def run_worked(self, dim=30, r=None):
        return solve_and_check(WORKED, 0, dim=dim, r=r)

    def test_worked_configuration_passes(self):
        run = self.run_worked()
        report = run.report
        assert report.residual_nilpotency <= 1e-10
        assert report.residual_commutator <= 1e-10
        assert report.residual_multilinear <= 1e-10
        assert report.nonvanishing_witness > 0.1
        assert report.passed
        assert report.breaking == "unbroken"
        assert abs(report.ground_energy - (-0.25)) < 1e-12

    def test_uniform_shift_breaks_only_multilinear(self):
        # shifting every sector by the same amount keeps [H, Q] = 0 but
        # moves H off the pinning condition
        solved = solve_r(WORKED, 0)
        run = self.run_worked(r=solved + 0.1)
        assert run.report.residual_multilinear > 0.01
        assert run.report.residual_commutator < 1e-10
        assert run.report.residual_nilpotency <= 1e-12
        assert not run.report.passed

    def test_single_entry_bump_breaks_commutator_too(self):
        solved = solve_r(WORKED, 0)
        tampered = solved.copy()
        tampered[2] += 0.1
        run = self.run_worked(r=tampered)
        assert run.report.residual_commutator > 0.01
        assert run.report.residual_multilinear > 0.01

    def test_order_one_reduces_to_supersymmetry(self):
        spec = from_alpha(2, [0.0, 0.0])
        run = solve_and_check(spec, 0, dim=20)
        assert run.report.order == 1
        assert run.report.passed
        # Q^2 = 0 and QQd + QdQ = 2H at order one
        rep = build_fock_rep(spec, 20, dtype=CHECK_DTYPE)
        charge = dense_charge(build_supercharge(rep, 0, [np.sqrt(2)]))
        hamiltonian = np.diag(shifted_hamiltonian(rep, run.used_r))
        adjoint = charge.conj().T
        diff = charge @ adjoint + adjoint @ charge - 2 * hamiltonian
        assert float(np.max(np.abs(diff[:16, :16]))) < 1e-12

    def test_phase_invariance_of_residuals(self):
        rng = np.random.default_rng(13)
        base = self.run_worked()
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        rotated = solve_and_check(WORKED, 0, dim=30, eta=default_eta(2) * phases)
        np.testing.assert_allclose(rotated.solved_r, base.solved_r, atol=1e-12)
        for field in (
            "residual_nilpotency",
            "residual_commutator",
            "residual_multilinear",
        ):
            assert abs(getattr(rotated.report, field) - getattr(base.report, field)) < 1e-12

    def test_random_eta_configurations_pass(self):
        rng = np.random.default_rng(14)
        for p in (2, 3):
            lam = p + 1
            for mu in range(p + 1):
                spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
                eta = random_admissible_eta(p, rng)
                run = solve_and_check(spec, mu, dim=10 * lam, eta=eta)
                assert run.report.passed, (p, mu)

    def test_direct_call_with_explicit_matrices(self):
        rep = build_fock_rep(WORKED, 30, dtype=CHECK_DTYPE)
        charge = build_supercharge(rep, 0)
        hamiltonian = shifted_hamiltonian(rep, solve_r(WORKED, 0))
        report = khare_check(rep, charge, hamiltonian)
        assert report.passed

    def test_residuals_match_dense_products(self):
        # H is diagonal, so scaling rows or columns by its diagonal gives the
        # dense products H @ Q, Q @ H and Q^(p-1) @ H bit for bit
        rng = np.random.default_rng(22)
        for p in (2, 3):
            lam = p + 1
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            rep = build_fock_rep(spec, 10 * lam, dtype=CHECK_DTYPE)
            band = build_supercharge(rep, 1)
            energies = shifted_hamiltonian(rep, solve_r(spec, 1))
            report = khare_check(rep, band, energies)
            words = dense_khare_words(rep, band, energies)
            for name, margin in KHARE_MARGINS.items():
                residual = getattr(report, f"residual_{name}")
                assert residual == interior_max_abs(words[name][1], margin), name

    def test_witness_positive_at_minimal_dimension(self):
        # Q^n stays visibly nonzero already at two states per sector
        for p in (1, 2, 3):
            lam = p + 1
            spec = from_alpha(lam, np.zeros(lam))
            rep = build_fock_rep(spec, 2 * lam, dtype=CHECK_DTYPE)
            charge = dense_charge(build_supercharge(rep, 0))
            powers = np.eye(2 * lam, dtype=charge.dtype)
            for n in range(1, p + 1):
                powers = powers @ charge
                assert float(np.max(np.abs(powers))) > 0.1

    def khare_inputs(self, lam, dim, mu=0):
        spec = from_alpha(lam, np.zeros(lam))
        rep = build_fock_rep(spec, dim, dtype=CHECK_DTYPE)
        return rep, build_supercharge(rep, mu), shifted_hamiltonian(rep, solve_r(spec, mu))

    @pytest.mark.parametrize("p", (1, 2, 3, 4))
    def test_multiplies_2p_dense_words(self, p, monkeypatch):
        # Q^n, nilpotency and [H, Q] come from the +1 band; only the
        # multilinear sum multiplies dense words, with no identity factor
        rep, charge, energies = self.khare_inputs(p + 1, 10 * (p + 1), mu=1)
        expected = khare_check(rep, charge, energies)
        products = counting_dense_factors(monkeypatch)
        assert khare_check(rep, charge, energies) == expected
        assert len(products) == 2 * p

    def test_default_dim_at_lam_11_passes(self):
        # the default dim 10 lam = 110 once fell below the cut lam (p + 1) = 121;
        # its multilinear residual is absolute roundoff, about 4e-3 at relative 1e-16
        run = solve_and_check(golden_spec(11), 0)
        assert run.report.passed and run.breaking.matches_prediction
        assert run.breaking.excited_multiplicities == (11,) * 9
        assert run.report.residual_multilinear > run.report.tolerance
        assert run.report.relative_multilinear < RELATIVE_TOL / 100

    def test_dim_below_2_lam_fails_before_any_dense_word(self, monkeypatch):
        # dim 2 lam is the least at which the ground and first excited
        # multiplets are complete for every mu
        for lam, mu in ((3, 2), (11, 0), (11, 10)):
            rep, charge, energies = self.khare_inputs(lam, 2 * lam, mu)
            assert khare_check(rep, charge, energies).passed
            rep, charge, energies = self.khare_inputs(lam, 2 * lam - 1, mu)
            products = counting_dense_factors(monkeypatch)
            with pytest.raises(ValueError, match=f"^dim must be at least 2 lam = {2 * lam}, "
                                                 f"where .* got {2 * lam - 1}$"):
                khare_check(rep, charge, energies)
            assert products == []
            monkeypatch.undo()

    @pytest.mark.parametrize("make, shape", [
        (dense_charge, "(30, 30)"),
        (lambda band: band[1:], "(29,)"),
        (lambda band: np.concatenate(([1e-300], band[1:])), "(30,)"),
    ], ids=["dense", "short", "below_the_vacuum"])
    def test_charge_that_is_not_a_band_rejected(self, make, shape):
        # a band holds one entry per state, and none joins |0> to a state below it
        rep, charge, energies = self.khare_inputs(3, 30)
        with pytest.raises(ValueError) as raised:
            khare_check(rep, make(charge), energies)
        assert str(raised.value) == ("charge must be a band of 30 entries with charge[0] = 0, "
                                     f"as no state lies below |0>; got shape {shape}")

    @pytest.mark.parametrize("lam", (3, 5, 8))
    def test_multilinear_sum_holds_the_exported_dense_words(self, lam):
        # whole dim x dim words at the peak; the bands add under one word at dim 200
        spec = golden_spec(lam)
        solve_and_check(spec, 0, dim=10 * lam)  # first use loads what the check imports
        tracemalloc.start()
        try:
            solve_and_check(spec, 0, dim=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        word = 200 * 200 * np.dtype(CHECK_DTYPE).itemsize
        # from below too, so the constant that sizes the CLI budget holds no
        # more words than the sum does
        assert MULTILINEAR_DENSE_WORDS - 1 <= peak // word <= MULTILINEAR_DENSE_WORDS, peak / word

    @pytest.mark.parametrize("lam", (2, 3, 4, 5, 6))
    def test_multilinear_sum_is_the_band_of_the_dense_sum(self, lam):
        # the oracle adds the 2p whole products (Q^(p-k) Qd) Q^k in term order and
        # reads the band after; every entry matches, zero signs included (equal
        # long doubles may differ in their padding bytes, so no tobytes)
        p, rng = lam - 1, np.random.default_rng(50 + lam)
        phases = default_eta(p) * np.exp(1j * rng.uniform(0, 2 * np.pi, p))
        for mu, alpha, extra, eta in itertools.product(
                range(lam), (np.zeros(lam), sample_bfb_alpha(lam, rng)), (0, 1), (None, phases)):
            dim = 12 * lam + mu if extra else 2 * lam
            rep = build_fock_rep(from_alpha(lam, alpha), dim, dtype=CHECK_DTYPE)
            charge = build_supercharge(rep, mu, eta)
            bands = [np.ones_like(charge), charge]
            for m in range(2, p + 1):
                bands.append(bands[-1] * lower_shift(charge, m - 1))
            powers = [np.diag(band[m:], -m) for m, band in enumerate(bands)]
            adjoint = powers[1].conj().T
            dense = powers[p] @ adjoint
            for k in range(1, p):
                dense = dense + (powers[p - k] @ adjoint) @ powers[k]
            dense = dense + adjoint @ powers[p]
            expected = np.diagonal(dense, -(p - 1))
            band = clext.pssqm._multilinear_lhs(bands, p)
            for part in (np.real, np.imag):
                assert np.array_equal(part(band), part(expected)), (mu, dim)
                assert np.array_equal(np.signbit(part(band)), np.signbit(part(expected)))


def band_multilinear_oracle(bands, p):
    """sum_k Q^(p-k) Qd Q^k, k = 0 .. p, read off the bands alone: column n of term k is
    (Q^(p-k)[n+p-1] conj(q[n+k])) Q^k[n+k], with entries past the top 0, and the
    terms are added in order from term 0, whose Q^0 factor is dropped, as is term p's."""
    n = np.arange(len(bands[1]) - p + 1)

    def at(band, index):
        return np.concatenate((band, np.zeros(p + 1, band.dtype)))[index]

    adjoint = np.conj(bands[1])
    lhs = at(bands[p], n + p - 1) * at(adjoint, n)
    for k in range(1, p):
        lhs = lhs + (at(bands[p - k], n + p - 1) * at(adjoint, n + k)) * at(bands[k], n + k)
    return lhs + at(adjoint, n + p) * at(bands[p], n + p)


@pytest.mark.parametrize("lam", range(2, 9))
def test_multilinear_sum_equals_its_band_oracle(lam, monkeypatch):
    # the oracle reads the bands chain that khare_check passes to the sum; every
    # entry matches, zero signs included, so the dense products can give way to it
    calls = []
    dense_sum = clext.pssqm._multilinear_lhs

    def recorded(bands, p):
        calls.append((bands, p, dense_sum(bands, p)))
        return calls[-1][2]

    monkeypatch.setattr(clext.pssqm, "_multilinear_lhs", recorded)
    rng = np.random.default_rng(80 + lam)
    for alpha, mu, dim in itertools.product(
            (np.zeros(lam), sample_bfb_alpha(lam, rng)), range(lam), (2 * lam, 6 * lam)):
        solve_and_check(from_alpha(lam, alpha), mu, dim=dim)
    assert len(calls) == 4 * lam
    for bands, p, band in calls:
        assert band.dtype == CHECK_DTYPE
        expected = band_multilinear_oracle(bands, p)
        for part in (np.real, np.imag):
            assert np.array_equal(part(band), part(expected))
            assert np.array_equal(np.signbit(part(band)), np.signbit(part(expected)))


def counting_dense_factors(monkeypatch):
    """Patch np.diag, with which khare_check forms each dense factor, to return an
    array that records, in the returned list, each matrix product taken with it
    or with any array computed from it."""
    products = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(ufunc)
            inputs = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            if "out" in kwargs:
                kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
            result = getattr(ufunc, method)(*inputs, **kwargs)
            return result.view(Counting) if isinstance(result, np.ndarray) else result

    diag = np.diag
    monkeypatch.setattr(np, "diag", lambda v, k=0: diag(v, k).view(Counting))
    return products


class TestPerStateScale:
    """[H, Q] and the multilinear relation are decided state by state, within
    tol or within RELATIVE_TOL of the state's scale: roundoff of a correct
    configuration stays far below it at any dim, and a 1e-9 change of one
    solved shift stays far above it."""

    @pytest.mark.parametrize("lam", (2, 3, 8, 11))
    def test_relative_tol_from_both_sides(self, lam):
        plain = from_alpha(lam, [0.0] * lam)
        drawn = from_alpha(lam, sample_bfb_alpha(lam, np.random.default_rng(70 + lam)))
        for dim in (2 * lam, 10 * lam + 1, 20 * lam):
            inputs = [(plain, 0), (drawn, lam - 1)] if lam < 11 or dim < 20 * lam else [(plain, 0)]
            for spec, mu in inputs:
                report = solve_and_check(spec, mu, dim=dim).report
                assert report.passed, (dim, mu)
                assert max(report.relative_commutator,
                           report.relative_multilinear) < RELATIVE_TOL / 10, (dim, mu)
                if dim == 20 * lam:
                    continue
                shifts = solve_r(spec, mu)
                shifts[(mu + 2) % lam] += 1e-9
                report = solve_and_check(spec, mu, dim=dim, r=shifts).report
                assert not report.passed, (dim, mu)
                assert min(report.relative_commutator,
                           report.relative_multilinear) > RELATIVE_TOL * 10, (dim, mu)

    @pytest.mark.parametrize("lam", range(2, 12))
    def test_every_moved_shift_fails(self, lam):
        spec = from_alpha(lam, [0.0] * lam)
        for mu in (0, lam - 1):
            for moved in range(lam):
                shifts = solve_r(spec, mu)
                shifts[moved] += 1e-9
                assert not solve_and_check(spec, mu, dim=2 * lam, r=shifts).report.passed

    def test_large_couplings_pass_at_their_scale(self):
        # absolute residuals of 53 and 5e-10 are roundoff at couplings near 3e4
        spec = from_alpha(8, [2370, 1092, 7687, 7150, 8689, 811, 5914, -33713])
        run = solve_and_check(spec, 3, dim=96)
        report = run.report
        assert report.passed and run.breaking.matches_prediction
        assert report.residual_multilinear > 1 and report.residual_commutator > 1e-10
        assert max(report.relative_commutator, report.relative_multilinear) < 1e-15
        shifts = run.solved_r.copy()
        shifts[5] *= 1 + 1e-9
        assert not solve_and_check(spec, 3, dim=96, r=shifts).report.passed

    def test_absolute_tol_still_admits(self):
        # a state within tol passes whatever its scale: tol keeps its meaning
        spec = from_alpha(3, [0.0] * 3)
        shifts = solve_r(spec, 0)
        shifts[2] += 1e-9
        report = solve_and_check(spec, 0, dim=30, r=shifts).report
        assert not report.passed
        tol = 2 * max(report.residual_commutator, report.residual_multilinear)
        assert solve_and_check(spec, 0, dim=30, r=shifts, tol=tol).report.passed


class TestCompleteLevels:
    """The complete levels are those at or below the lowest energy among the
    sectors' top kept states: ground multiplicity mu + 1 and lam at every
    complete excited level, whatever the dim from 2 lam."""

    @pytest.mark.parametrize("lam", range(2, 12))
    def test_sweep(self, lam):
        rng = np.random.default_rng(80 + lam)
        alphas = [[0.0] * lam] + [sample_bfb_alpha(lam, rng) for _ in range(3)]
        for alpha in alphas:
            spec = from_alpha(lam, alpha)
            for mu in range(lam):
                shifts = solve_r(spec, mu)
                for dim in (2 * lam, 10 * lam + mu, 20 * lam):
                    rep = build_fock_rep(spec, dim, dtype=CHECK_DTYPE)
                    result = classify_breaking(shifted_hamiltonian(rep, shifts), mu, lam - 1)
                    assert result.ground_multiplicity == mu + 1, (alpha, mu, dim)
                    assert set(result.excited_multiplicities) == {lam}, (alpha, mu, dim)
                    assert result.matches_prediction

    def test_ssqm_diagonals(self):
        rng = np.random.default_rng(90)
        for alpha in [[0.0, 0.0]] + [sample_bfb_alpha(2, rng) for _ in range(20)]:
            spec = from_alpha(2, alpha)
            for dim in (4, 5, 24, 41):
                for variant, ground in (("unbroken", 1), ("broken", 2)):
                    report = ssqm_check(build_fock_rep(spec, dim), variant)
                    assert report.ground_multiplicity == ground, (alpha, dim, variant)
                    assert set(report.excited_multiplicities) == {2}, (alpha, dim, variant)

    def test_every_level_up_to_the_lowest_top_state(self):
        # at mu = 0 the excited multiplet k holds the states (k - 1) lam + 1 .. k lam;
        # at dim 10 lam + 3 the top states 9 lam + 3 .. 10 lam + 2 end multiplet
        # 10 and begin multiplet 11, which lacks two members, so ten levels count
        lam = 4
        rep = build_fock_rep(from_alpha(lam, [0.0] * lam), 10 * lam + 3, dtype=CHECK_DTYPE)
        result = classify_breaking(shifted_hamiltonian(rep, solve_r(rep.spec, 0)), 0, lam - 1)
        assert result.excited_multiplicities == (lam,) * 10
        assert result.matches_prediction

    def test_floor_applies_to_classify_breaking(self):
        with pytest.raises(ValueError, match="^dim must be at least 2 lam = 6, .* got 5$"):
            classify_breaking(np.arange(5.0), 0, 2)


class TestBreaking:
    def test_worked_unbroken(self):
        rep = build_fock_rep(WORKED, 36)
        diag = shifted_hamiltonian(rep, solve_r(WORKED, 0))
        result = classify_breaking(diag, mu=0, p=2)
        assert result.breaking == "unbroken"
        assert result.ground_multiplicity == 1
        assert abs(result.ground_energy - (-0.25)) < 1e-12
        assert set(result.excited_multiplicities) == {3}
        assert result.matches_prediction

    def test_ground_multiplicity_tracks_sector(self):
        rng = np.random.default_rng(15)
        for p, mu in ((2, 1), (2, 2), (3, 2)):
            lam = p + 1
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            rep = build_fock_rep(spec, 12 * lam)
            diag = shifted_hamiltonian(rep, solve_r(spec, mu))
            result = classify_breaking(diag, mu=mu, p=p)
            assert result.breaking == "broken"
            assert result.ground_multiplicity == mu + 1
            assert result.matches_prediction

    def test_ground_energy_closed_forms_order_two(self):
        # independent expressions derived from the pinning and recursion
        rng = np.random.default_rng(16)
        for _ in range(10):
            alpha = sample_bfb_alpha(3, rng)
            spec = from_alpha(3, alpha)
            assert abs(ground_energy(spec, 0) - (-(1 + alpha[2]) / 2)) < 1e-12
            assert abs(ground_energy(spec, 1) - (1 + alpha[0]) / 2) < 1e-12
            assert abs(ground_energy(spec, 2) - (3 + 2 * alpha[0] + alpha[1]) / 2) < 1e-12

    def test_positive_ground_for_top_sectors(self):
        rng = np.random.default_rng(18)
        for p in (2, 3):
            lam = p + 1
            for mu in (p - 1, p):
                _, energies = sample_ground_energies(lam, mu, 25, rng)
                assert np.all(energies > 0)

    def test_null_ground_construction(self):
        rng = np.random.default_rng(19)
        alpha = find_null_ground_alpha(3, 0, rng)
        assert abs(ground_energy(from_alpha(3, alpha), 0)) < 1e-9


class TestNullGroundSearch:
    """find_null_ground_alpha draws at most max_tries alphas and returns a
    null draw at once, else the exact zero of E between its first negative
    and first positive draw; it raises at once where it draws no such pair."""

    PAIRS = [(lam, mu) for lam in (2, 3, 4, 5, 8) for mu in range(lam)]

    def test_every_pair_is_decided_quickly(self):
        start = time.perf_counter()
        found = set()
        for lam, mu in self.PAIRS:
            rng = np.random.default_rng(1000 * lam + mu)
            try:
                alpha = find_null_ground_alpha(lam, mu, rng)
            except RuntimeError:
                # E > 0 for every admissible alpha at mu >= p - 1, save (2, 0)
                continue
            assert (lam, mu) == (2, 0) or mu < lam - 2
            assert admits_bfb(alpha)
            assert abs(ground_energy(from_alpha(lam, alpha), mu)) <= 1e-12
            found.add((lam, mu))
        assert time.perf_counter() - start < 5.0
        assert found >= {(2, 0), (3, 0), (4, 0), (4, 1), (5, 1), (5, 2), (8, 2), (8, 3), (8, 4)}

    def test_identically_null_pair_returns_its_first_draw(self):
        # at lam 2, mu 0 the ground energy vanishes for every alpha
        first = sample_bfb_alpha(2, np.random.default_rng(20))
        np.testing.assert_array_equal(find_null_ground_alpha(2, 0, np.random.default_rng(20)),
                                      first)

    def test_pair_without_null_raises_at_once(self):
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="no null-ground alpha found"):
            find_null_ground_alpha(3, 1, np.random.default_rng(21))
        assert time.perf_counter() - start < 1.0

    @pytest.fixture
    def draws(self, monkeypatch):
        """Every alpha the search draws, in order."""
        drawn = []

        def recorded(*args):
            drawn.append(sample_bfb_alpha(*args))
            return drawn[-1]

        monkeypatch.setattr(clext.pssqm, "sample_bfb_alpha", recorded)
        return drawn

    def test_draws_at_most_max_tries(self, draws):
        with pytest.raises(RuntimeError):
            find_null_ground_alpha(3, 1, np.random.default_rng(22), max_tries=7)
        assert len(draws) == 7

    @pytest.mark.parametrize("lam, mu", [(3, 0), (4, 1), (8, 3)])
    def test_crossing_lies_between_a_negative_and_a_positive_draw(self, lam, mu, draws):
        alpha = find_null_ground_alpha(lam, mu, np.random.default_rng(23))
        energies = [ground_energy(from_alpha(lam, draw), mu) for draw in draws]
        assert min(energies) < -1e-9 and max(energies) > 1e-9
        assert abs(ground_energy(from_alpha(lam, alpha), mu)) <= 1e-12

    #: find_null_ground_alpha(lam, mu, default_rng(23)) as float.hex: a change of
    #: the draw box or of the null tolerance moves them
    NULLS = {
        (3, 0): ["0x1.25e4b5352ef52p-1", "0x1.b4369595a215cp-2", "-0x1.0000000000000p+0"],
        (4, 1): ["-0x1.0c7580bb75abdp-3", "0x1.14c030cc1c516p-1", "-0x1.1d0ae0dcc2f7bp-2",
                 "-0x1.0c7580bb75aa6p-3"],
        (8, 3): ["0x1.1ab8e038a0cf8p-3", "0x1.8836c4d6fd9cfp-2", "-0x1.771c872ddf1fap-3",
                 "0x1.613202cf12d10p-5", "-0x1.e9b4c33b42364p-1", "0x1.0436d4f9ef37cp-1",
                 "-0x1.2614ec12eeeb6p-2", "0x1.6ae596df54197p-2"],
    }

    @pytest.mark.parametrize("lam, mu", list(NULLS))
    def test_seeded_null_alphas_are_pinned(self, lam, mu):
        alpha = find_null_ground_alpha(lam, mu, np.random.default_rng(23))
        assert hexes(*alpha) == self.NULLS[lam, mu]

    def test_no_pair_names_its_draw_count(self):
        # the box is fixed, so the message gives the draws, not a box to widen
        with pytest.raises(RuntimeError, match="^no null-ground alpha found in 7 draws$"):
            find_null_ground_alpha(3, 1, np.random.default_rng(22), max_tries=7)


def test_seeded_ground_energy_samples_are_pinned():
    # each draw's alpha and ground energy as float.hex, one line a draw
    alphas, energies = sample_ground_energies(3, 0, 25, np.random.default_rng(42))
    lines = [" ".join(hexes(*alpha, energy)) for alpha, energy in zip(alphas, energies)]
    assert lines[0] == ("0x1.efcbc52ad61f0p-3 -0x1.759301579cae9p-1 0x1.f3402019ce4d8p-2"
                        " -0x1.7cd0080673934p-1")
    assert digest(lines) == "84ba38ad603ddb20"


class TestSsqm:
    def test_unbroken_undeformed(self):
        # {Qd, Q} - H reads the rounding of |sqrt F(n)|^2 against the sector table's F(n)
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 16)
        report = ssqm_check(rep, "unbroken")
        assert report.residual_nilpotency == 0.0
        assert 0.0 < report.residual_anticommutator <= 16 * np.finfo(float).eps
        assert 0.0 < report.relative_anticommutator <= np.finfo(float).eps
        assert report.residual_commutator == 0.0
        assert report.ground_energy == 0.0
        assert report.ground_multiplicity == 1
        assert set(report.excited_multiplicities) == {2}
        assert report.passed

    def test_broken_undeformed(self):
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 16)
        report = ssqm_check(rep, "broken")
        assert report.ground_energy == 1.0
        assert report.ground_multiplicity == 2
        assert set(report.excited_multiplicities) == {2}
        assert report.passed

    def test_deformed_ground_energies(self):
        nu = 0.6
        rep = build_fock_rep(from_alpha(2, [nu, -nu]), 16)
        unbroken = ssqm_check(rep, "unbroken")
        broken = ssqm_check(rep, "broken")
        # the unbroken spectrum is deformation independent; the broken
        # ground doublet sits at 1 + nu
        assert unbroken.ground_energy == 0.0
        assert abs(broken.ground_energy - (1 + nu)) < 1e-12
        assert unbroken.passed and broken.passed

    @pytest.mark.parametrize("dtype", (np.complex128, CHECK_DTYPE))
    @pytest.mark.parametrize("variant", ("unbroken", "broken"))
    def test_residuals_match_dense_oracle(self, variant, dtype):
        # the band products equal the dense ones bit for bit, also on a rep
        # whose adag no longer matches the sector table, where {Qd, Q} - H is nonzero
        rng = np.random.default_rng(31)
        reps = [build_fock_rep(from_alpha(2, sample_bfb_alpha(2, rng)), dim, dtype=dtype)
                for dim in (8, 9, 30)]
        reps.append(scaled_entries(reps[-1], "adag", (5, 6)))
        for rep in reps:
            report = ssqm_check(rep, variant)
            residuals = (report.residual_nilpotency, report.residual_anticommutator,
                         report.residual_commutator)
            assert hexes(*residuals) == hexes(*dense_ssqm_residuals(rep, variant))
        # the scaled rep; [H, Q] vanishes for any bands, as H comes from the sector table
        assert report.residual_anticommutator > 1e-6 and report.residual_commutator == 0.0
        assert not report.passed

    @pytest.mark.parametrize("variant", ("unbroken", "broken"))
    def test_tamper_table(self, variant):
        # H comes from the sector table, not from the bands, so [H, Q] and
        # Q^2 stay zero and {Qd, Q} - H sees adag tampered, alone or with a
        # to match, on each band entry that Q reads: the even entries for
        # unbroken Q = adag P_1, the odd ones for broken Q = adag P_0, the
        # top entry among them.  Q does not read a, so a tampered alone
        # passes here and fails verify's hermiticity_a
        rep = build_fock_rep(from_alpha(2, [0.3, -0.3]), 24)
        print(f"\n{variant}: Q^2, {{Qd, Q}} - H, [H, Q], relative {{Qd, Q}} - H")
        for n in (1, 2, 9, 10, rep.dim - 4, rep.dim - 3, rep.dim - 2, rep.dim - 1):
            a_alone = scaled_entries(rep, "a", (n,))
            adag_alone = scaled_entries(rep, "adag", (n,))
            both = dataclasses.replace(a_alone, adag=a_alone.a.copy())
            for name, tampered in (("a", a_alone), ("adag", adag_alone), ("a+adag", both)):
                report = ssqm_check(tampered, variant)
                print(f"  {name:>6} @ {n:<2}  {report.residual_nilpotency:.1e}  "
                      f"{report.residual_anticommutator:.1e}  {report.residual_commutator:.1e}  "
                      f"{report.relative_anticommutator:.1e}")
                assert report.residual_nilpotency == 0.0
                assert report.residual_commutator == 0.0
                read = name != "a" and (n % 2 == 0) == (variant == "unbroken")
                assert report.passed != read, (name, n)
            assert not verify_defining_relations(a_alone).entry("hermiticity_a").passed, n

    def test_is_khare_check_at_order_one(self):
        # p = 1 parasupersymmetry is this supersymmetry: khare_check on the same
        # sector-table H, whose default-eta Q is sqrt 2 times the ssqm Q, so
        # {Qd, Q} = 2H holds twice over, at the same scale per state
        rng = np.random.default_rng(70)
        for alpha in [sample_bfb_alpha(2, rng) for _ in range(20)]:
            spec = from_alpha(2, alpha)
            for dim in (4, 24, 41):
                rep = build_fock_rep(spec, dim)
                values = structure_values(spec, dim + 1, rep.a.real.dtype)
                for mu, variant in enumerate(("unbroken", "broken")):
                    hamiltonian = values[:-1] * rep.P[mu] + values[1:] * rep.P[1 - mu]
                    khare = khare_check(rep, build_supercharge(rep, mu), hamiltonian, tol=1e-13)
                    ssqm = ssqm_check(rep, variant, tol=1e-13)
                    where = (list(alpha), dim, variant)
                    assert khare.passed == ssqm.passed, where
                    assert abs(khare.residual_multilinear
                               - 2 * ssqm.residual_anticommutator) <= 1e-13, where
                    assert abs(khare.relative_multilinear
                               - ssqm.relative_anticommutator) <= 1e-13, where

    def test_huge_couplings_raise_without_a_numpy_warning(self):
        # the band products would overflow, so the levels are clustered first;
        # under filterwarnings = error a numpy RuntimeWarning would surface here
        # instead of the unresolved levels' error
        rep = build_fock_rep(from_alpha(2, [1e300, -1e300]), 24)
        with pytest.raises(ValueError, match="float64 cannot resolve their level spacing"):
            ssqm_check(rep, "broken")

    def test_wrong_lambda(self):
        rep = build_fock_rep(WORKED, 9)
        with pytest.raises(WrongLambdaError):
            ssqm_check(rep, "unbroken")

    def test_unknown_variant(self):
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 8)
        with pytest.raises(ValueError):
            ssqm_check(rep, "twisted")


class TestBeckersDebergh:
    def test_compatible_at_minus_one(self):
        spec = from_alpha(3, [0.5, 0.5, -1.0])
        rep = build_fock_rep(spec, 30, dtype=CHECK_DTYPE)
        report = beckers_debergh_check(rep, 0)
        assert report.residual < 1e-10
        assert report.bd_compatible
        # the order-2 relations hold simultaneously
        assert solve_and_check(spec, 0, dim=30).report.passed

    def test_incompatible_elsewhere(self):
        spec = from_alpha(3, [0.5, -0.5, 0.0])
        rep = build_fock_rep(spec, 30, dtype=CHECK_DTYPE)
        report = beckers_debergh_check(rep, 0)
        assert report.residual > 0.1
        assert not report.bd_compatible

    def test_nonzero_mu(self):
        # for mu = 2 the obstruction sits at alpha_1 = -1 (mu = 1 would need
        # alpha_0 = -1, which no bounded-from-below algebra allows)
        spec = from_alpha(3, [0.5, -1.0, 0.5])
        rep = build_fock_rep(spec, 30, dtype=CHECK_DTYPE)
        assert beckers_debergh_check(rep, 2).residual < 1e-10
        assert beckers_debergh_check(rep, 0).residual > 0.1

    # bd_scan's dtype; on complex128 a random-phase eta lets BLAS round the
    # dense products differently from the elementwise ones
    @pytest.mark.parametrize("dtype, phases", [
        (CHECK_DTYPE, False), (CHECK_DTYPE, True), (np.complex128, False),
    ])
    @pytest.mark.parametrize("mu", (0, 1, 2))
    def test_residual_matches_dense_oracle(self, mu, dtype, phases):
        rng = np.random.default_rng(41 + mu)
        spec = from_alpha(3, sample_bfb_alpha(3, rng))
        eta = random_admissible_eta(2, rng) if phases else None
        solved = solve_r(spec, mu, eta)
        for dim in (9, 30):
            rep = build_fock_rep(spec, dim, dtype=dtype)
            for r in (None, solved + [0.0, 1e-3, 0.0]):
                residual = beckers_debergh_check(rep, mu, eta=eta, r=r).residual
                shifts = solved if r is None else r
                assert hexes(residual) == hexes(dense_bd_residual(rep, mu, eta, shifts))

    def test_residual_matches_dense_oracle_off_the_ladder(self):
        spec = from_alpha(3, [0.5, 0.5, -1.0])
        rep = scaled_entries(build_fock_rep(spec, 30, dtype=CHECK_DTYPE), "adag", (8,))
        residual = beckers_debergh_check(rep, 0).residual
        assert residual > 1e-6
        assert hexes(residual) == hexes(dense_bd_residual(rep, 0, None, solve_r(spec, 0)))

    def test_wrong_order(self):
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 10)
        with pytest.raises(WrongOrderError):
            beckers_debergh_check(rep, 0)

    def test_scan_isolates_the_obstruction(self):
        points = bd_scan([0.0, 0.0, 0.0], 0, -2.0, 0.0, 11, dim=24)
        compatible = [pt.parameter for pt in points if pt.residual is not None and pt.residual <= 1e-10]
        assert compatible == [-1.0]
        assert all(pt.bfb for pt in points)


class TestTruncationMargins:
    """Each residual's margin, proven against a wider truncation.  Every dense
    term of a residual word at dim is compared with the same term at
    dim + lam + 2 cut back to dim, at dims of every residue mod lam (the top
    multiplet's shape repeats with it).  The smallest margin that masks every
    entry that differs must be the checker's: no unmasked entry differs, and
    one state fewer would leave one that does.  On inputs whose residuals grow
    to the top, the checker's residual equals the dense word's at that margin."""

    @staticmethod
    def proven_margins(words_at, dims, lam):
        margins = {}
        for dim in dims:
            narrow, wide = words_at(dim), words_at(dim + lam + 2)
            for name, (terms, _) in narrow.items():
                margins[name] = max(margins.get(name, 0), truncation_margin(terms, wide[name][0]))
        return margins

    @pytest.mark.parametrize("p", (1, 2, 3, 4))
    def test_khare_check(self, p):
        lam, mu = p + 1, p // 2
        spec = from_alpha(lam, sample_bfb_alpha(lam, np.random.default_rng(60 + p)))
        shifts = solve_r(spec, mu)
        shifts[(mu + 2) % lam] += 1e-3

        def words_at(dim):
            rep = build_fock_rep(spec, dim, dtype=CHECK_DTYPE)
            band, energies = build_supercharge(rep, mu), shifted_hamiltonian(rep, shifts)
            return dense_khare_words(rep, band, energies)

        dims = range(10 * lam, 11 * lam)
        assert self.proven_margins(words_at, dims, lam) == KHARE_MARGINS
        for dim in dims:
            rep = build_fock_rep(spec, dim, dtype=CHECK_DTYPE)
            report = khare_check(rep, build_supercharge(rep, mu), shifted_hamiltonian(rep, shifts))
            for name, (_, word) in words_at(dim).items():
                residual = getattr(report, f"residual_{name}")
                assert residual == interior_max_abs(word, KHARE_MARGINS[name]), (dim, name)

    @pytest.mark.parametrize("variant", ("unbroken", "broken"))
    def test_ssqm_check(self, variant):
        # adag scaled alone, which Q reads, so that {Qd, Q} - H grows to the top
        spec = from_alpha(2, sample_bfb_alpha(2, np.random.default_rng(62)))

        def rep_at(dim):
            rep = build_fock_rep(spec, dim, dtype=CHECK_DTYPE)
            return dataclasses.replace(rep, adag=rep.adag * (1 + 1e-6))

        dims = (20, 21)
        margins = self.proven_margins(lambda dim: dense_ssqm_words(rep_at(dim), variant), dims, 2)
        assert margins == SSQM_MARGINS
        for dim in dims:
            report = ssqm_check(rep_at(dim), variant)
            residuals = (report.residual_nilpotency, report.residual_anticommutator,
                         report.residual_commutator)
            assert hexes(*residuals) == hexes(*dense_ssqm_residuals(rep_at(dim), variant))
        assert report.residual_anticommutator > 1e-6

    @pytest.mark.parametrize("mu", (0, 1, 2))
    def test_beckers_debergh_check(self, mu):
        spec = from_alpha(3, sample_bfb_alpha(3, np.random.default_rng(63)))
        shifts = solve_r(spec, mu) + [0.0, 1e-3, 0.0]

        def words_at(dim):
            rep = build_fock_rep(spec, dim, dtype=CHECK_DTYPE)
            return {"residual": dense_bd_words(rep, mu, None, shifts)}

        dims = (30, 31, 32)
        assert self.proven_margins(words_at, dims, 3) == {"residual": BD_MARGIN}
        for dim in dims:
            rep = build_fock_rep(spec, dim, dtype=CHECK_DTYPE)
            residual = beckers_debergh_check(rep, mu, r=shifts).residual
            assert hexes(residual) == hexes(dense_bd_residual(rep, mu, None, shifts))


def bd_shifts(rep, mu):
    """Sector shifts under which [Q, [Qd, Q]] = 2 Q H holds: 2 h[m] = 2 |q[m+1]|^2
    - |q[m]|^2 - |q[m+2]|^2 wherever Q raises m, read at the bottom state of each
    sector.  With the default eta that is affine in m with the energies' slope 1,
    so one shift per sector fits every state, also at mu = 1, where no
    bounded-from-below alpha makes the solved chain compatible."""
    norms = np.abs(build_supercharge(rep, mu)) ** 2
    energies = shifted_hamiltonian(rep, np.zeros(3))
    return np.array([0.0 if m == mu else
                     float(2 * norms[m + 1] - norms[m] - norms[m + 2] - 2 * energies[m])
                     for m in range(3)])


class TestMutationMatrix:
    """The charge band q and the energies h, and for the double-commutator
    check a with adag to match, each scaled by 1 + 1e-7 at states 0, 1 and
    dim - p - 1 .. dim - 1, on inputs that pass untampered.  Each tamper
    must fail a relation, or be structural for the reason
    :func:`structural_reason` gives, and then move no verdict.  ``pytest -s``
    prints the matrix: per residual, X fails, ~ moved but passes, . unchanged."""

    FIELDS = ("nilpotency", "commutator", "multilinear")

    @staticmethod
    def states(dim, p):
        return sorted({0, 1, *range(dim - p - 1, dim)})

    @pytest.mark.parametrize("lam", (2, 3, 5))
    def test_khare_check(self, lam):
        p, dim = lam - 1, 12 * lam
        spec = from_alpha(lam, [0.0] * lam)
        rep = build_fock_rep(spec, dim, dtype=CHECK_DTYPE)
        for mu in range(lam):
            inputs = {"q": build_supercharge(rep, mu),
                      "h": shifted_hamiltonian(rep, solve_r(spec, mu))}
            clean = khare_check(rep, inputs["q"], inputs["h"])
            assert clean.passed, (lam, mu)
            print(f"\nlam {lam}, dim {dim}, mu {mu}: {', '.join(self.FIELDS)}")
            for n in self.states(dim, p):
                for kind, values in inputs.items():
                    tampered = dict(inputs, **{kind: values.copy()})
                    tampered[kind][n] *= 1 + 1e-7
                    report = khare_check(rep, tampered["q"], tampered["h"])
                    marks = ""
                    for name in self.FIELDS:
                        value, before = (getattr(r, f"residual_{name}") for r in (report, clean))
                        marks += "X" if value > clean.tolerance else "." if value == before else "~"
                    reason = structural_reason(kind, values, n, lam, mu)
                    print(f"  {kind}[{n}] {marks} {reason or ''}")
                    assert report.passed == (reason is not None), (lam, mu, kind, n)

    @pytest.mark.parametrize("mu", (0, 1, 2))
    def test_beckers_debergh_check(self, mu):
        spec = from_alpha(3, sample_bfb_alpha(3, np.random.default_rng(64)))
        rep = build_fock_rep(spec, 36, dtype=CHECK_DTYPE)
        shifts = bd_shifts(rep, mu)
        clean = beckers_debergh_check(rep, mu, r=shifts)
        assert clean.bd_compatible
        print(f"\nbeckers_debergh_check, dim 36, mu {mu}, untampered {clean.residual:.1e}")
        for n in self.states(36, 2):
            a = rep.a.copy()
            a[n] *= 1 + 1e-7
            tampered = dataclasses.replace(rep, a=a, adag=a.copy())
            report = beckers_debergh_check(tampered, mu, r=shifts)
            reason = structural_reason("q", build_supercharge(rep, mu), n, 3, mu)
            print(f"  a+adag[{n}], so q[{n}]: {report.residual:.1e} {reason or ''}")
            assert report.bd_compatible == (reason is not None), (mu, n)


@pytest.mark.parametrize("report, keys", [
    (PssqmReport(2, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, "unbroken", -0.25, 1, 1e-10, True),
     ["order", "residual_nilpotency", "nonvanishing_witness", "residual_commutator",
      "residual_multilinear", "relative_commutator", "relative_multilinear", "breaking",
      "ground_energy", "ground_multiplicity", "tolerance", "pass"]),
    (BreakingReport("broken", 0.5, 2, (3, 3), 2, True),
     ["breaking", "ground_energy", "ground_multiplicity", "excited_multiplicities",
      "predicted_ground_multiplicity", "matches_prediction"]),
    (SsqmReport("broken", 0.0, 0.0, 0.0, 0.0, 1.3, 2, (2, 2), 1e-13, True),
     ["variant", "residual_nilpotency", "residual_anticommutator", "residual_commutator",
      "relative_anticommutator", "ground_energy", "ground_multiplicity",
      "excited_multiplicities", "tolerance", "pass"]),
    (BdReport(0.0, True, 1e-10), ["residual", "bd_compatible", "tolerance"]),
    (BdScanPoint(-1.0, None, False), ["parameter", "residual", "bfb"]),
    (Cluster(2.75, 3, (1, 3, 5)), ["energy", "multiplicity", "members"]),
])
def test_report_to_dict_key_order(report, keys):
    data = report.to_dict()
    assert list(data) == keys
    assert not any(isinstance(value, tuple) for value in data.values())
    assert data == json.loads(json.dumps(data))


def _field_lines(report) -> list[str]:
    """Every field of a report, floats as ``float.hex``."""
    lines = []
    for item in dataclasses.fields(report):
        value = getattr(report, item.name)
        lines.append(f"{item.name} {value.hex() if isinstance(value, float) else repr(value)}")
    return lines


def golden_spec(lam):
    return from_alpha(lam, sample_bfb_alpha(lam, np.random.default_rng(lam)))


def golden_runs(lam, mu):
    """solve_and_check at the default dim with the default eta and a random-phase
    eta, each with the solved shifts and with r_(mu+2) moved by 1e-3."""
    spec = golden_spec(lam)
    phases = np.exp(1j * np.random.default_rng(100 + lam).uniform(0, 2 * np.pi, lam - 1))
    for eta in (None, default_eta(lam - 1) * phases):
        tampered = solve_r(spec, mu, eta)
        tampered[(mu + 2) % lam] += 1e-3
        for r in (None, tampered):
            yield solve_and_check(spec, mu, eta=eta, r=r)


def golden_complex128_report(lam):
    """khare_check called directly on a complex128 rep, at mu = lam // 2."""
    spec = golden_spec(lam)
    rep = build_fock_rep(spec, 10 * lam, dtype=np.complex128)
    energies = shifted_hamiltonian(rep, solve_r(spec, lam // 2))
    return khare_check(rep, build_supercharge(rep, lam // 2), energies)


#: Digests of every PssqmReport and BreakingReport field, one per mu (four
#: runs each), on x86-64 with numpy 2.4, where clongdouble is the 80-bit
#: extended type.
GOLDEN_KHARE = {
    2: ["0cb15e4ad65ff8ab", "2511331230768e43"],
    3: ["01796bb842abe485", "5bce6c8ce278cee9", "bc466d82a9acb791"],
    4: ["8e597309d873aad9", "7fe4e27426b798c2", "193bfb76a791d6c5", "baab278ee69ab666"],
    5: ["161c6bc4d28589e4", "fc45b8144ed77397", "92c6d43b8a966614", "917211af28cd018c",
        "75b831d27919ef3b"],
    6: ["c0acb6dfecec26ba", "42682d0963028071", "08f0d72b45e1ca9f", "80e06febdb421edf",
        "854da962c12a545d", "801a0e3502834dbe"],
    7: ["ffe6a2f5e5d454d2", "48b3638196f2df7b", "14fa12716e701ab1", "082186c5915d9d5d",
        "91042382bb498c1b", "eb3324654d77823c", "738a04798d3104d3"],
    8: ["7c5082bacbe1fcf9", "ea6c6ff85c3a5afd", "9fa15023d064f6c7", "572677fd9675cbe3",
        "421aa7275dca9dea", "bf04b680e3a87714", "69a1109d6a04a07c", "37e9d26f6cb4010f"],
}

#: Digest of the khare_check reports of :func:`golden_complex128_report`, lam 2 to 8.
GOLDEN_COMPLEX128 = "2d538ba67f41a8c4"


#: Digest of ``clext pssqm-check`` stdout for each argv, with its exit code.
GOLDEN_CLI = {
    "--p 2 --alpha 1,-0.5,-0.5": ("272af75201908bb9", 0),
    "--p 5 --alpha 0,0,0,0,0,0": ("909ff1a1248f70f5", 0),
    "--p 2 --samples 3": ("6cf0bd464f994013", 0),
    "--p 1 --alpha 0,0": ("c8c09a5bf9e7bd04", 0),
}


#: Digest of ``clext bd-scan`` stdout for each argv, with its exit code.
GOLDEN_BD_SCAN = {
    "--alpha 0.2,-0.1,-0.1 --mu 1 --scan-points 9": ("52a7598e5ffce24d", 0),
    "--alpha 0.2,-0.1,-0.1 --mu 1 --scan-points 9 --format csv": ("93c27496a88bab3a", 0),
    "--format csv": ("2722e972d6f86340", 0),
}


class TestGoldenDigests:
    """khare_check reports are pinned bit for bit, so evaluating the same
    arithmetic in fewer dense products must leave every field unchanged."""

    @pytest.mark.parametrize("lam", list(GOLDEN_KHARE))
    def test_solve_and_check(self, lam):
        digests = []
        for mu in range(lam):
            runs = list(golden_runs(lam, mu))
            assert [run.report.passed for run in runs][1::2] == [False, False]  # tampered
            digests.append(digest([line for run in runs for line in
                                    _field_lines(run.report) + _field_lines(run.breaking)]))
        assert digests == GOLDEN_KHARE[lam]

    def test_complex128_reps(self):
        lines = [line for lam in range(2, 9) for line in _field_lines(golden_complex128_report(lam))]
        assert digest(lines) == GOLDEN_COMPLEX128

    @pytest.mark.parametrize("argv", list(GOLDEN_CLI))
    def test_cli_stdout(self, argv, capsys):
        code = main(["pssqm-check", *argv.split()])
        assert (digest([capsys.readouterr().out]), code) == GOLDEN_CLI[argv]

    @pytest.mark.parametrize("argv", list(GOLDEN_BD_SCAN))
    def test_bd_scan_stdout(self, argv, capsys):
        code = main(["bd-scan", *argv.split()])
        assert (digest([capsys.readouterr().out]), code) == GOLDEN_BD_SCAN[argv]

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion pins its tolerance in place.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import clext
from clext import (
    RepKind,
    bd_scan,
    beckers_debergh_check,
    build_fock_rep,
    casimir,
    classify,
    degeneracy_profile,
    find_null_ground_alpha,
    from_alpha,
    from_kappa,
    ground_energy,
    hamiltonian_h0,
    sample_bfb_alpha,
    sample_ground_energies,
    shifted_hamiltonian,
    solve_and_check,
    solve_r,
    ssqm_check,
    structure_function,
    verify_defining_relations,
    verify_projector_algebra,
)
from clext.pssqm import CHECK_DTYPE


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance {number:>2}: {name:<28} {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def relation_specs():
    """20 random admissible specs per cyclic order, shared by criteria 1-3."""
    rng = np.random.default_rng(11)
    return [
        from_alpha(lam, sample_bfb_alpha(lam, rng))
        for lam in (2, 3, 4, 5)
        for _ in range(20)
    ]


@pytest.fixture(scope="module")
def khare_sweep():
    """Solved configurations for p = 1..4, all sectors, shared by criteria 4 and 6."""
    rng = np.random.default_rng(20250810)
    records = []
    for p in (1, 2, 3, 4):
        lam = p + 1
        for mu in range(p + 1):
            for _ in range(10):
                spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
                run = solve_and_check(spec, mu, dim=10 * lam)
                records.append((p, mu, run))
    return records


def test_criterion_1_relation_suite(relation_specs):
    worst = 0.0
    ok = True
    for spec in relation_specs:
        rep = build_fock_rep(spec, 60)
        defining = verify_defining_relations(rep, tol=1e-12)
        projectors = verify_projector_algebra(rep, tol=1e-12)
        worst = max(worst, defining.max_residual, projectors.max_residual)
        ok = ok and defining.all_pass and projectors.all_pass
    report_line(1, "relation suite", ok and worst <= 1e-12, f"max residual {worst:.3e}")


def test_criterion_2_casimir(relation_specs):
    worst = max(
        float(np.max(np.abs(casimir(build_fock_rep(spec, 60))))) for spec in relation_specs
    )
    report_line(2, "casimir vanishes", worst <= 1e-13, f"max entry {worst:.3e}")


def test_criterion_3_graded_harmonicity(relation_specs):
    spacing_exact = True
    worst = 0.0
    for spec in relation_specs:
        lam = spec.lam
        # exact rational evaluation of the closed form: the sector offset
        # cancels identically, so the family spacing is lam with zero
        # tolerance (float subtraction of the two energies is correct only
        # to an ulp, which is why the criterion says "closed form")
        for n in range(60):
            gamma = Fraction(spec.gamma[n % lam])
            e_low = Fraction(n) + Fraction(1, 2) + gamma
            e_high = Fraction(n + lam) + Fraction(1, 2) + gamma
            spacing_exact = spacing_exact and (e_high - e_low == lam)
        rep = build_fock_rep(spec, 60)
        diag = hamiltonian_h0(rep)
        averages = np.array(
            [
                (structure_function(spec, n) + structure_function(spec, n + 1)) / 2
                for n in range(60)
            ]
        )
        worst = max(worst, float(np.max(np.abs(diag - averages))))
    ok = spacing_exact and worst <= 1e-13
    report_line(3, "graded harmonicity", ok, f"spacing exact, h0 deviation {worst:.3e}")


def test_criterion_4_khare_relations(khare_sweep):
    worst = 0.0
    min_witness = math.inf
    ok = True
    for _, _, run in khare_sweep:
        rep = run.report
        worst = max(
            worst,
            rep.residual_nilpotency,
            rep.residual_commutator,
            rep.residual_multilinear,
        )
        min_witness = min(min_witness, rep.nonvanishing_witness)
        ok = ok and rep.passed
    ok = ok and worst <= 1e-10 and min_witness > 0.1
    report_line(
        4,
        "order-p relations",
        ok,
        f"max residual {worst:.3e}, min witness {min_witness:.3f}",
    )


def test_criterion_5_worked_example():
    spec = from_alpha(3, [1.0, -0.5, -0.5])

    # independent constraint-chain oracle: pinning via the closed form for
    # |eta|^2 = 2, then the recursion, before trusting the frozen numbers
    p, mu = 2, 0
    pinned = ((p - 2) * spec.alpha[2] + p * (p - 2)) / p
    oracle = {2: pinned, 1: 2 + spec.alpha[1] + spec.alpha[2] + pinned}
    oracle[0] = pinned - 2 - spec.alpha[2] - spec.alpha[0]
    assert np.allclose([oracle[0], oracle[1], oracle[2]], [-2.5, 1.0, 0.0], atol=1e-15)

    shifts = solve_r(spec, mu)
    shifts_ok = bool(np.max(np.abs(shifts - np.array([-2.5, 1.0, 0.0]))) <= 1e-12)

    rep = build_fock_rep(spec, 36)
    diag = shifted_hamiltonian(rep, shifts)
    clusters = degeneracy_profile(diag, cluster_tol=1e-8, drop_top=9)
    observed = [(round(c.energy, 9), c.multiplicity) for c in clusters[:3]]
    clusters_ok = observed == [(-0.25, 1), (2.75, 3), (5.75, 3)]
    report_line(
        5,
        "worked example regression",
        shifts_ok and clusters_ok,
        f"r = {shifts.tolist()}, clusters {observed}",
    )


def test_criterion_6_breaking_structure(khare_sweep):
    ok = True
    bad = None
    for p, mu, run in khare_sweep:
        breaking = run.breaking
        good = (
            breaking.ground_multiplicity == mu + 1
            and all(m == p + 1 for m in breaking.excited_multiplicities)
            and breaking.breaking == ("unbroken" if mu == 0 else "broken")
            and breaking.matches_prediction
        )
        if not good and bad is None:
            bad = (p, mu, breaking)
        ok = ok and good
    report_line(6, "breaking structure", ok, f"first failure: {bad}" if bad else "all sectors")


def test_criterion_7_ground_energy_signs():
    rng = np.random.default_rng(42)
    ok = True
    details = []
    for p in (2, 3):
        lam = p + 1
        for mu in (p - 1, p):
            _, energies = sample_ground_energies(lam, mu, 100, rng)
            positive = bool(np.all(energies > 0))
            ok = ok and positive
            details.append(f"p{p}mu{mu}:min {energies.min():.3f}")
    for p, mu in ((2, 0), (3, 0), (3, 1)):
        lam = p + 1
        _, energies = sample_ground_energies(lam, mu, 100, rng)
        has_positive = bool(np.any(energies > 1e-9))
        has_negative = bool(np.any(energies < -1e-9))
        null_alpha = find_null_ground_alpha(lam, mu, rng)
        null_energy = abs(ground_energy(from_alpha(lam, null_alpha), mu))
        ok = ok and has_positive and has_negative and null_energy < 1e-9
        details.append(
            f"p{p}mu{mu}:+{int(np.sum(energies > 1e-9))}/-{int(np.sum(energies < -1e-9))}"
            f"/0@{null_energy:.1e}"
        )
    report_line(7, "ground-energy signs", ok, "; ".join(details))


def test_criterion_8_ssqm():
    rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 24)
    unbroken = ssqm_check(rep, "unbroken", tol=1e-13)
    broken = ssqm_check(rep, "broken", tol=1e-13)
    ok = (
        unbroken.ground_energy == 0.0
        and unbroken.ground_multiplicity == 1
        and set(unbroken.excited_multiplicities) == {2}
        and broken.ground_multiplicity == 2
        and set(broken.excited_multiplicities) == {2}
        and unbroken.residual_anticommutator <= 1e-13
        and broken.residual_anticommutator <= 1e-13
        and unbroken.passed
        and broken.passed
    )
    report_line(
        8,
        "lam=2 supersymmetry",
        ok,
        f"anticommutator residuals {unbroken.residual_anticommutator:.1e}, "
        f"{broken.residual_anticommutator:.1e}",
    )


def test_criterion_9_double_commutator_scan():
    points = bd_scan([0.0, 0.0, 0.0], 0, -2.0, 0.0, 41, dim=30)
    compatible = [
        pt.parameter for pt in points if pt.residual is not None and pt.residual <= 1e-10
    ]
    nearest = min(points, key=lambda pt: abs(pt.parameter - (-1.0))).parameter
    scan_ok = compatible == [nearest]

    spec = from_alpha(3, [0.5, 0.5, -1.0])
    rep = build_fock_rep(spec, 30, dtype=CHECK_DTYPE)
    bd = beckers_debergh_check(rep, 0, tol=1e-10)
    khare = solve_and_check(spec, 0, dim=30)
    simultaneous = bd.bd_compatible and khare.report.passed
    report_line(
        9,
        "double-commutator variant",
        scan_ok and simultaneous,
        f"compatible at {compatible}, simultaneous pass {simultaneous}",
    )


def test_criterion_10_classification_and_roundtrip():
    finite = classify(from_alpha(2, [-1.0, 1.0]))
    finite_ok = finite.kind is RepKind.FINITE_DIM and finite.dim == 1

    rng = np.random.default_rng(10)
    worst = 0.0
    for lam in (2, 3, 4, 5, 6):
        for _ in range(100):
            kappa = np.zeros(lam - 1, dtype=complex)
            for mu in range(1, lam):
                partner = lam - mu
                if mu < partner:
                    kappa[mu - 1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    kappa[partner - 1] = kappa[mu - 1].conjugate()
                elif mu == partner:
                    kappa[mu - 1] = complex(rng.uniform(-1, 1), 0.0)
            back = from_alpha(lam, from_kappa(lam, kappa).alpha).kappa
            worst = max(worst, float(np.max(np.abs(back - kappa))))
    roundtrip_ok = worst <= 1e-13
    report_line(
        10,
        "classification + roundtrip",
        finite_ok and roundtrip_ok,
        f"finite-dim(1) detected, worst roundtrip {worst:.3e}",
    )

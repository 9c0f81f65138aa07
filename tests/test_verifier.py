import dataclasses
import gc
import inspect
import json
import tracemalloc
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest

from clext import (
    AlgebraSpec,
    MarginTooLargeError,
    build_fock_rep,
    classify,
    from_alpha,
    sample_bfb_alpha,
    verify,
    verify_defining_relations,
    verify_projector_algebra,
)
from clext.cli import main
from clext.fock import RELATIVE_TOL, per_state_rule
from conftest import cli_in_guarded_child, digest, interior_max_abs

WORKED = from_alpha(3, [1.0, -0.5, -0.5])

DEFINING_ORDER = (
    ("t_cyclic", 0),
    ("commutator_T", 2),
    ("number_lowering", 1),
    ("number_raising", 1),
    ("number_T_commutes", 0),
    ("quommutation_a", 1),
    ("quommutation_adag", 1),
    ("hermiticity_N", 0),
    ("hermiticity_a", 0),
    ("unitarity_T", 0),
    ("commutator_P", 2),
    ("number_P_commutes", 0),
    ("sector_shift_a", 1),
    ("sector_shift_adag", 1),
    ("hermiticity_P", 0),
)
PROJECTOR_ORDER = (
    ("projector_orthogonality", 0),
    ("projector_completeness", 0),
    ("projector_from_T", 0),
    ("T_from_projectors", 0),
)


def interior_projector(dim, margin):
    """Dense 0/1 diagonal keeping basis states 0 .. dim-1-margin: the
    projector whose sandwich the dense oracle's ``interior_max_abs`` reduces,
    and whose kept states :func:`clext.fock.per_state_rule` decides."""
    keep = np.zeros(dim)
    keep[: dim - margin] = 1.0
    return np.diag(keep)


class TestInteriorProjector:
    """The dense oracle's ``interior_max_abs``, and the states that
    ``per_state_rule`` keeps, against the dense interior projector sandwich."""

    def test_zero_margin_is_identity(self):
        np.testing.assert_array_equal(interior_projector(6, 0), np.eye(6))
        mat = np.random.default_rng(1).normal(size=(6, 6))
        assert interior_max_abs(mat, 0) == np.max(np.abs(mat))

    def test_rank(self):
        proj = interior_projector(10, 2)
        assert np.trace(proj) == 8
        band = np.arange(10.0)  # a band or diagonal keeps its first dim - margin entries
        assert per_state_rule(band, 7.0, margin=2) == (7.0, 0.0, True)
        assert interior_max_abs(np.diag(band), 2) == np.max(np.abs(proj @ np.diag(band) @ proj))

    def test_nesting(self):
        mat = np.random.default_rng(2).normal(size=(10, 10))
        for m, k in ((1, 3), (3, 1), (2, 2)):
            left = interior_projector(10, m) @ interior_projector(10, k)
            np.testing.assert_array_equal(left, interior_projector(10, max(m, k)))
            assert interior_max_abs(mat, max(m, k)) == np.max(np.abs(left @ mat @ left))

    def test_margin_too_large(self):
        with pytest.raises(MarginTooLargeError):
            per_state_rule(np.ones(5), 1e-12, margin=5)
        with pytest.raises(MarginTooLargeError):
            per_state_rule(np.ones(5), 1e-12, np.ones(5), -1)

    def test_max_abs_matches_projector_sandwich(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        for margin in (0, 1, 4):
            proj = interior_projector(12, margin)
            sandwich = float(np.max(np.abs(proj @ mat @ proj)))
            assert interior_max_abs(mat, margin) == sandwich


class TestDefiningRelations:
    def test_undeformed_all_pass(self):
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 16)
        report = verify_defining_relations(rep)
        assert report.all_pass
        assert report.tolerance == 1e-12

    def test_worked_spec_all_pass(self):
        rep = build_fock_rep(WORKED, 30)
        report = verify_defining_relations(rep)
        assert report.all_pass
        assert report.max_residual < 1e-12

    @pytest.mark.parametrize("lam", (2, 3, 4, 5))
    def test_random_bfb_specs(self, lam):
        rng = np.random.default_rng(600 + lam)
        for _ in range(5):
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            report = verify_defining_relations(build_fock_rep(spec, 4 * lam))
            assert report.all_pass, max(
                (e.relation, e.residual) for e in report.entries if not e.passed
            )

    @pytest.mark.parametrize("lam, dim", ((3, 1200), (2, 4000)))
    def test_plain_oscillator_t_form_at_large_dim(self, lam, dim):
        # T built from the unreduced phase 2 pi n / lam carries an error that
        # grows with n, and its T-form relations fail these correct reps
        rep = build_fock_rep(from_alpha(lam, [0.0] * lam), dim)
        for report in (verify_defining_relations(rep), verify_projector_algebra(rep)):
            assert report.all_pass, [e.relation for e in report.entries if not e.passed]

    def test_margins_mask_only_the_top_state_of_a_adag(self):
        # a adag at the top state needs the missing |dim>; no other term
        # leaves the kept states, whatever its word length
        rep = build_fock_rep(WORKED, 12)
        report = verify_defining_relations(rep)
        assert report.margin_policy == "artifact"
        margins = {entry.relation: entry.margin for entry in report.entries}
        assert margins == {relation: int(relation in ("commutator_T", "commutator_P"))
                           for relation, _ in DEFINING_ORDER}
        assert report.entry("commutator_T").word_length == 2
        assert report.entry("quommutation_a").word_length == 1
        assert report.entry("t_cyclic").word_length == 0
        projectors = verify_projector_algebra(rep)
        assert projectors.margin_policy == "artifact"
        assert all(entry.margin == 0 for entry in projectors.entries)

    def test_hermiticity_is_exact(self):
        report = verify_defining_relations(build_fock_rep(WORKED, 12))
        assert report.entry("hermiticity_N").residual == 0.0
        assert report.entry("hermiticity_a").residual == 0.0
        assert report.entry("hermiticity_P").residual == 0.0

    def test_t_and_p_commutator_forms_agree(self):
        rng = np.random.default_rng(9)
        for lam in (2, 3, 5):
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            report = verify_defining_relations(build_fock_rep(spec, 6 * lam))
            t_res = report.entry("commutator_T").residual
            p_res = report.entry("commutator_P").residual
            assert abs(t_res - p_res) <= 1e-13

    def test_tampered_alpha_fails_commutator(self):
        rep = build_fock_rep(WORKED, 30)
        bad_spec = object.__new__(AlgebraSpec)
        for field_ in dataclasses.fields(AlgebraSpec):
            object.__setattr__(bad_spec, field_.name, getattr(WORKED, field_.name))
        object.__setattr__(bad_spec, "alpha", np.array([1.0, -0.5, -0.4]))
        tampered = dataclasses.replace(rep, spec=bad_spec)

        report = verify_defining_relations(tampered)
        bad_entry = report.entry("commutator_P")
        assert not bad_entry.passed
        assert abs(bad_entry.residual - 0.1) < 1e-12  # the alpha_2 mismatch
        assert report.entry("commutator_T").passed  # kappa untouched
        assert not report.all_pass

    def test_report_serialization(self):
        report = verify_defining_relations(build_fock_rep(WORKED, 12))
        data = report.to_dict()
        assert data["all_pass"] is True
        assert {r["id"] for r in data["relations"]} >= {"commutator_T", "commutator_P"}
        for row in data["relations"]:
            assert row["pass"] == (row["residual"] <= data["tolerance"])


class TestScaleFreeVerdicts:
    """[a, adag] subtracts terms of the size of F(n), so its absolute residual
    grows with the dim and the couplings; each state is decided at its
    largest term, and a correct rep passes at any size of its numbers."""

    @staticmethod
    def failed(rep):
        return [entry.relation for check in (verify_defining_relations, verify_projector_algebra)
                for entry in check(rep).entries if not entry.passed]

    def test_large_coupling_passes(self, capsys):
        # the coupling sum of commutator_T rounds at the size of kappa
        assert main(["verify", "--alpha", "5000,-5000,0"]) == 0
        assert json.loads(capsys.readouterr().out)["body"]["all_pass"] is True

    @pytest.mark.parametrize("lam, dim", ((3, 100_000), (64, 100_000), (2, 6000)))
    def test_plain_oscillator_passes_at_large_dim(self, lam, dim):
        rep = build_fock_rep(from_alpha(lam, [0.0] * lam), dim)
        assert verify_defining_relations(rep).entry("commutator_T").residual > 1e-12
        assert self.failed(rep) == []

    def test_small_tamper_fails_at_large_dim(self):
        # negative control: a and adag scaled alike by 1 + 1e-9 at one state
        # move [a, adag] there by 2e-9 F(n), far above RELATIVE_TOL of F(n)
        rep = build_fock_rep(from_alpha(3, [0.0] * 3), 100_000)
        a = rep.a.copy()
        a[77_777] *= 1 + 1e-9
        tampered = dataclasses.replace(rep, a=a, adag=a.copy())
        assert self.failed(tampered) == ["commutator_T", "commutator_P"]


class TestReportShape:
    """The CLI summary prints entries in report order, so the order is pinned."""

    @pytest.mark.parametrize("lam", (2, 3, 5))
    def test_relation_order(self, lam):
        rng = np.random.default_rng(40 + lam)
        rep = build_fock_rep(from_alpha(lam, sample_bfb_alpha(lam, rng)), 6 * lam)
        for report, order in (
            (verify_defining_relations(rep), DEFINING_ORDER),
            (verify_projector_algebra(rep), PROJECTOR_ORDER),
        ):
            assert tuple((e.relation, e.word_length) for e in report.entries) == order

    def test_peak_memory_is_linear_in_lam(self):
        # every generator is a band or a diagonal, so building the rep and
        # both reports stays below one dense matrix at any lam
        for lam, dim in ((16, 192), (64, 768)):
            rng = np.random.default_rng(lam)
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            tracemalloc.start()
            try:
                rep = build_fock_rep(spec, dim)
                verify_defining_relations(rep)
                verify_projector_algebra(rep)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            matrix_bytes = dim * dim * np.dtype(np.complex128).itemsize
            assert peak < matrix_bytes, (lam, peak / matrix_bytes)

    def test_peak_memory_is_bounded_at_large_dim(self):
        # the reports hold one block of states at a time; whole-length
        # (lam, dim) temporaries would take about 240 MB here
        rep = build_fock_rep(from_alpha(64, [0.0] * 64), 65_536)
        tracemalloc.start()
        try:
            verify_defining_relations(rep)
            verify_projector_algebra(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    def test_lambda_64_verifies_at_default_dim(self):
        # the CLI's lambda cap at its default dim 768, in a child under a
        # 512 MiB address-space limit, so that a dense-diagonal regression
        # fails with MemoryError instead of exhausting the machine
        proc = cli_in_guarded_child(
            ["verify", "--lambda", "64", "--alpha", ",".join(["0"] * 64)], 512)
        assert proc.returncode == 0, proc.stderr[-2000:]
        body = json.loads(proc.stdout)["body"]
        assert body["defining_relations"]["dim"] == 768
        assert body["all_pass"] is True

    @staticmethod
    def verify_lambda_64_in_guarded_child(dim):
        proc = cli_in_guarded_child(
            ["verify", "--lambda", "64", "--alpha", ",".join(["0"] * 64), "--dim", str(dim)], 512)
        assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
        assert proc.returncode in (0, 1), proc.stderr[-2000:]
        body = json.loads(proc.stdout)["body"]
        failed = {row["id"]: row["residual"]
                  for report in ("defining_relations", "projector_algebra")
                  for row in body[report]["relations"] if not row["pass"]}
        # [a, adag] - 1 rounds at the size of dim ulps here, far above the
        # absolute tolerance, and within RELATIVE_TOL of the state's terms
        assert failed == {}, failed
        assert proc.returncode == 0 and body["all_pass"] is True

    def test_lambda_64_verifies_at_dim_200000(self):
        # the reports hold one block of states at a time, so only the rep,
        # about 64 bytes per state at any lam, grows with dim
        self.verify_lambda_64_in_guarded_child(200_000)

    def test_lambda_64_verifies_at_dim_1000000(self):
        # P is lam windows onto one period of dim + lam - 1 entries: lam rows
        # of their own would take 488 MiB here and fail the guard
        self.verify_lambda_64_in_guarded_child(1_000_000)


class TestReportEntries:
    """The contract of a report entry, whatever record type carries it."""

    FIELDS = ("relation", "word_length", "margin", "residual", "passed")

    @staticmethod
    def entries():
        return verify_defining_relations(build_fock_rep(WORKED, 30)).entries

    def test_entries_are_immutable(self):
        entry = self.entries()[0]
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(entry, name, getattr(entry, name))

    def test_field_names_and_order(self):
        assert tuple(inspect.signature(verify.RelationResidual).parameters) == self.FIELDS
        entry = verify.RelationResidual("t_cyclic", 0, 0, 1e-16, True)
        assert [getattr(entry, name) for name in self.FIELDS] == ["t_cyclic", 0, 0, 1e-16, True]

    def test_equal_entries_compare_equal(self):
        first, second = self.entries(), self.entries()
        assert first == second and first is not second
        rebuilt = verify.RelationResidual(*(getattr(first[1], name) for name in self.FIELDS))
        assert rebuilt == first[1]
        assert first[0] != first[1]

    # sha256 of json.dumps(report.to_dict()), both reports at tol 1e-16 (so
    # some entries fail): the worked spec at dim 30, and the exact rep of
    # alpha (0.5, -2.5, 2), whose F(2) = 0, at dim 2
    TO_DICT = {30: ["eae313d5617d5d71", "82116d090782e3e6"],
               2: ["d6eece51383d18b7", "3779aa01af473efa"]}

    @pytest.mark.parametrize("dim", list(TO_DICT))
    def test_to_dict_is_unchanged(self, dim):
        spec = WORKED if dim == 30 else from_alpha(3, [0.5, -2.5, 2.0])
        rep = build_fock_rep(spec, dim)
        digests = [
            digest([json.dumps(check(rep, tol=1e-16).to_dict())])
            for check in (verify_defining_relations, verify_projector_algebra)
        ]
        assert digests == self.TO_DICT[dim]


class TestNumberRelations:
    def test_exact_on_random_reps(self):
        # [N, a] + a and [N, adag] - adag scale each ladder entry by an
        # integer factor that vanishes on the shift
        rng = np.random.default_rng(64)
        for lam in (2, 3, 5, 8, 16):
            spec = from_alpha(lam, sample_bfb_alpha(lam, rng))
            report = verify_defining_relations(build_fock_rep(spec, 12 * lam))
            assert report.entry("number_lowering").residual == 0.0
            assert report.entry("number_raising").residual == 0.0

    def test_tampered_number_fails_number_relations(self):
        rep = build_fock_rep(WORKED, 12)
        num = rep.num.copy()
        num[5] += 1e-6
        report = verify_defining_relations(dataclasses.replace(rep, num=num))
        # band entry n of [N, a] + a is (n_(n-1) - n_n + 1) a[n]; of
        # [N, adag] - adag it is (n_n - n_(n-1) - 1) adag[n]
        expected = {
            "number_lowering": max(
                abs((4.0 - num[5] + 1) * rep.a[5]), abs((num[5] - 6.0 + 1) * rep.a[6])
            ),
            "number_raising": max(
                abs((num[5] - 4.0 - 1) * rep.adag[5]), abs((6.0 - num[5] - 1) * rep.adag[6])
            ),
        }
        for relation, residual in expected.items():
            entry = report.entry(relation)
            assert not entry.passed
            assert entry.residual == residual
            assert abs(residual - 1e-6 * np.sqrt(6.0)) < 1e-15  # sqrt(F(6)) = sqrt(6)
        assert [e.relation for e in report.entries if not e.passed] == list(expected)

    def test_tampered_ladder_fails_hermiticity_and_commutators(self):
        rep = build_fock_rep(WORKED, 12)
        a = rep.a.copy()
        a[5] *= 1 + 1e-6  # adag unchanged
        tampered = dataclasses.replace(rep, a=a)
        report = verify_defining_relations(tampered)
        oracle = dense_residuals(tampered)
        assert report.entry("hermiticity_a").residual == abs(rep.adag[5].conj() - a[5])
        for relation in ("commutator_T", "commutator_P"):
            residual = report.entry(relation).residual
            assert residual == oracle[relation]
            # the diagonal of [a, adag] moves by F(5) 1e-6 at states 4 and 5
            assert abs(residual - 5.5e-6) < 1e-12
        failed = [e.relation for e in report.entries if not e.passed]
        assert failed == ["commutator_T", "hermiticity_a", "commutator_P"]


def dense_residuals(rep):
    """Residuals of the ladder relations from dense a and adag rebuilt from
    the bands: each diagonal scales rows (``d[:, None] * x``) or columns
    (``x * d``), and [a, adag] is a dense matrix product.  Only a @ adag
    passes through a state past the top, the missing |dim> from the top
    state, so the commutators alone mask one state, and none on an exact
    finite rep."""
    lam = rep.spec.lam
    a = np.diag(rep.a[1:], 1)
    adag = np.diag(rep.adag[1:], -1)
    num, t_gen, proj = rep.num, rep.T, rep.P
    q = np.exp(2j * np.pi / lam)
    t_powers = np.cumprod([np.ones_like(t_gen)] + [t_gen] * lam, axis=0)
    commutator = a @ adag - adag @ a
    top = int(classify(rep.spec).dim != rep.dim)
    kappa_side = 1.0 + sum(rep.spec.kappa[m - 1] * t_powers[m] for m in range(1, lam))
    alpha_side = 1.0 + sum(rep.spec.alpha[m] * proj[m] for m in range(lam))
    diffs = {
        "commutator_T": (top, [commutator - np.diag(kappa_side)]),
        "commutator_P": (top, [commutator - np.diag(alpha_side)]),
        "number_lowering": (0, [(num[:, None] - num + 1) * a]),
        "number_raising": (0, [(num[:, None] - num - 1) * adag]),
        "number_T_commutes": (0, [np.diag(num * t_gen - t_gen * num)]),
        "number_P_commutes": (0, [np.diag(num * p - p * num) for p in proj]),
        "quommutation_a": (0, [a * t_gen - q * (t_gen[:, None] * a)]),
        "quommutation_adag": (0, [adag * t_gen - np.conj(q) * (t_gen[:, None] * adag)]),
        "hermiticity_a": (0, [adag.conj().T - a]),
        "sector_shift_a": (
            0, [a * proj[m] - proj[(m - 1) % lam][:, None] * a for m in range(lam)]
        ),
        "sector_shift_adag": (
            0, [adag * proj[m] - proj[(m + 1) % lam][:, None] * adag for m in range(lam)]
        ),
    }
    return {
        relation: max(interior_max_abs(d, margin) for d in family)
        for relation, (margin, family) in diffs.items()
    }


class TestDenseOracle:
    """The band residuals equal the dense-matrix residuals bit for bit."""

    @pytest.mark.parametrize("lam", (2, 3, 5, 8, 16))
    def test_random_bfb_reps(self, lam):
        rng = np.random.default_rng(700 + lam)
        rep = build_fock_rep(from_alpha(lam, sample_bfb_alpha(lam, rng)), 12 * lam)
        report = verify_defining_relations(rep)
        for relation, residual in dense_residuals(rep).items():
            assert report.entry(relation).residual == residual, relation

    def test_exact_finite_rep(self):
        spec = from_alpha(6, exact_finite_alpha(6, 5, np.random.default_rng(65)))
        rep = build_fock_rep(spec, 5)
        report = verify_defining_relations(rep)
        assert report.margin_policy == "exact"
        for relation, residual in dense_residuals(rep).items():
            assert report.entry(relation).residual == residual, relation


def exact_finite_alpha(lam, d, rng):
    """alpha with F(1) .. F(d-1) drawn in [0.2, 3] and F(d) = 0: a d-dim rep."""
    f_values = np.concatenate([[0.0], rng.uniform(0.2, 3.0, d - 1), [0.0]])
    head = np.diff(f_values) - 1.0  # alpha_m = F(m+1) - F(m) - 1
    tail = rng.uniform(-1.0, 1.0, lam - d)
    tail -= (head.sum() + tail.sum()) / (lam - d)
    return np.concatenate([head, tail])


class TestExactFiniteRep:
    def test_worked_finite_rep_verifies_at_margin_zero(self):
        # F(2) = 0: no truncation artifact, so no margin; word-length margins
        # would not fit in dimension 2
        rep = build_fock_rep(from_alpha(3, [-0.5, -1.5, 2.0]), 2)
        for report in (verify_defining_relations(rep), verify_projector_algebra(rep)):
            assert report.all_pass
            assert report.margin_policy == "exact"
            assert all(entry.margin == 0 for entry in report.entries)

    @pytest.mark.parametrize("lam, d", ((3, 2), (4, 3), (6, 4), (6, 5), (8, 7)))
    def test_random_finite_reps(self, lam, d):
        rng = np.random.default_rng(100 * lam + d)
        for _ in range(5):
            spec = from_alpha(lam, exact_finite_alpha(lam, d, rng))
            assert classify(spec).dim == d
            exact = verify_defining_relations(build_fock_rep(spec, d))
            assert exact.all_pass, [(e.relation, e.residual) for e in exact.entries]
            assert all(entry.margin == 0 for entry in exact.entries)
            if d > 3:  # below the exact dim the truncation artifact is back
                truncated = verify_defining_relations(build_fock_rep(spec, d - 1))
                assert truncated.margin_policy == "artifact"
                assert [e.relation for e in truncated.entries if e.margin == 1] == [
                    "commutator_T", "commutator_P"]
                assert all(e.margin in (0, 1) for e in truncated.entries)
                assert truncated.all_pass


class TestProjectorAlgebra:
    def test_completeness_is_exact(self):
        report = verify_projector_algebra(build_fock_rep(WORKED, 12))
        assert report.entry("projector_completeness").residual == 0.0

    def test_dft_reconstruction(self):
        rng = np.random.default_rng(77)
        spec = from_alpha(4, sample_bfb_alpha(4, rng))
        report = verify_projector_algebra(build_fock_rep(spec, 20))
        assert report.entry("projector_from_T").residual < 1e-13
        assert report.entry("T_from_projectors").residual < 1e-13
        assert report.all_pass

    def test_reconstruction_against_roots_of_unity_oracle(self):
        # oracle: scalar roots-of-unity sums evaluated per basis state
        lam, dim = 4, 12
        rng = np.random.default_rng(78)
        rep = build_fock_rep(from_alpha(lam, sample_bfb_alpha(lam, rng)), dim)
        for mu in range(lam):
            diag = []
            for n in range(dim):
                total = 0j
                for nu in range(lam):
                    total += np.exp(-2j * np.pi * mu * nu / lam) * np.exp(
                        2j * np.pi * n * nu / lam
                    )
                diag.append(total / lam)
            np.testing.assert_allclose(rep.P[mu].astype(complex), diag, atol=1e-13)

    def test_lam2_klein_combination(self):
        rep = build_fock_rep(from_alpha(2, [0.5, -0.5]), 10)
        np.testing.assert_allclose(rep.T, rep.P[0] - rep.P[1], atol=1e-15)


def _loop_checks(rep):
    """Every relation of both reports, one difference per sector, sector
    pair or Fourier coefficient, in the report order: the defining
    relations, then the projector algebra."""
    spec, lam = rep.spec, rep.spec.lam
    a, adag, num, t_gen = rep.a, rep.adag, rep.num, rep.T
    proj = list(rep.P)
    num_lo, t_lo = np.roll(num, 1), np.roll(t_gen, 1)
    proj_lo = [np.roll(p, 1) for p in proj]
    q = np.exp(2j * np.pi / lam)
    t_powers = np.cumprod([np.ones_like(t_gen)] + [t_gen] * lam, axis=0)
    commutator = np.append(a[1:] * adag[1:], 0) - adag * a  # a adag reads 0 at the top

    defining = [
        ("t_cyclic", 0, t_powers[lam] - 1.0),
        ("commutator_T", 2, commutator - (
            1.0 + sum(spec.kappa[m - 1] * t_powers[m] for m in range(1, lam)))),
        ("number_lowering", 1, (num_lo - num + 1) * a),
        ("number_raising", 1, (num - num_lo - 1) * adag),
        ("number_T_commutes", 0, num * t_gen - t_gen * num),
        ("quommutation_a", 1, a * t_gen - q * (t_lo * a)),
        ("quommutation_adag", 1, adag * t_lo - np.conj(q) * (t_gen * adag)),
        ("hermiticity_N", 0, num - num.conj()),
        ("hermiticity_a", 0, adag.conj() - a),
        ("unitarity_T", 0, t_gen.conj() - 1.0 / t_gen),
        ("commutator_P", 2, commutator - (1.0 + sum(spec.alpha[m] * proj[m] for m in range(lam)))),
    ]
    defining += [("number_P_commutes", 0, num * p - p * num) for p in proj]
    defining += [
        ("sector_shift_a", 1, a * proj[m] - proj_lo[(m - 1) % lam] * a) for m in range(lam)
    ]
    defining += [
        ("sector_shift_adag", 1, adag * proj_lo[m] - proj[(m + 1) % lam] * adag)
        for m in range(lam)
    ]
    defining += [("hermiticity_P", 0, p - p.conj()) for p in proj]

    stack = np.array(proj)
    algebra = []
    for m, p in enumerate(proj):
        diff = p * stack
        diff[m] -= p
        algebra.append(("projector_orthogonality", 0, np.max(np.abs(diff), axis=0)))
    algebra.append(("projector_completeness", 0, sum(proj) - 1.0))
    algebra += [
        ("projector_from_T", 0, proj[mu] - sum(
            np.exp(-2j * np.pi * (mu * nu % lam) / lam) * t_powers[nu] for nu in range(lam)) / lam)
        for mu in range(lam)
    ]
    algebra += [
        ("T_from_projectors", 0, t_powers[nu] - sum(
            np.exp(2j * np.pi * (mu * nu % lam) / lam) * proj[mu] for mu in range(lam)))
        for nu in range(lam)
    ]
    return defining, algebra


def loop_scales(rep):
    """Each commutator's largest term per state, in the loop form: |a adag|,
    |adag a| and 1, with max_m |kappa_m| for the T form and the coupling sum
    |sum_m alpha_m P_m| for the P form."""
    spec, a, adag = rep.spec, rep.a, rep.adag
    ladder = np.maximum(np.maximum(np.abs(np.append(a[1:] * adag[1:], 0)), np.abs(adag * a)), 1.0)
    coupling = sum(spec.alpha[m] * rep.P[m] for m in range(spec.lam))
    return {"commutator_T": np.maximum(ladder, max(abs(k) for k in spec.kappa)),
            "commutator_P": np.maximum(ladder, np.abs(coupling))}


def loop_oracle(rep, tol=1e-12):
    """(relation, word_length, margin, residual, passed) per report entry,
    each residual the largest over its relation's differences.  The
    commutators' a adag is the one term that leaves the kept states, at the
    top state, so they alone mask it (margin 1), unless the rep is exact.
    A state passes within ``tol``, or for a commutator within RELATIVE_TOL of
    its largest term there (``loop_scales``)."""
    top = int(classify(rep.spec).dim != rep.dim)
    scales = loop_scales(rep)
    reports = []
    for checks in _loop_checks(rep):
        entries = []
        for (relation, word), group in groupby(checks, key=itemgetter(0, 1)):
            margin = top if relation in scales else 0
            kept = rep.dim - margin
            size = np.max([np.abs(d[:kept]) for _, _, d in group], axis=0).astype(float)
            bound = RELATIVE_TOL * scales[relation][:kept] if relation in scales else 0.0
            passed = bool(np.all(size <= np.maximum(tol, bound)))
            entries.append((relation, word, margin, float(size.max()), passed))
        reports.append(entries)
    return reports


FOURIER = ("projector_from_T", "T_from_projectors")


class TestLoopOracle:
    """Each relation family is one (lam, dim) array operation; the loop form
    gives the same entries, bit for bit outside the two Fourier relations,
    which an FFT evaluates to within 1e-14."""

    @staticmethod
    def assert_matches(rep):
        reports = (verify_defining_relations(rep), verify_projector_algebra(rep))
        for report, expected in zip(reports, loop_oracle(rep)):
            got = [(e.relation, e.word_length, e.margin, e.residual, e.passed)
                   for e in report.entries]
            assert [g[:3] + g[4:] for g in got] == [x[:3] + x[4:] for x in expected]
            for (relation, _, _, residual, _), (*_, oracle, _) in zip(got, expected):
                if relation in FOURIER:
                    assert abs(residual - oracle) <= 1e-14, relation
                else:
                    assert residual.hex() == oracle.hex(), relation
        return reports

    @pytest.mark.parametrize("dtype", (np.complex128, np.clongdouble))
    @pytest.mark.parametrize("lam", (2, 3, 8, 16, 64))
    def test_random_reps_and_tampers(self, lam, dtype):
        rng = np.random.default_rng(900 + lam)
        dim = 12 * lam
        rep = build_fock_rep(from_alpha(lam, sample_bfb_alpha(lam, rng)), dim, dtype)
        assert all(r.all_pass for r in self.assert_matches(rep))

        n = dim // 2 + 1
        proj = np.array(rep.P)
        proj[(n + 1) % lam, n] = 0.5  # state n now lies in two sectors
        t_gen = rep.T.copy()
        t_gen[n] *= 1 + 1e-6
        for tampered in (dataclasses.replace(rep, P=proj), dataclasses.replace(rep, T=t_gen)):
            assert not all(r.all_pass for r in self.assert_matches(tampered))

    def test_commutators_decided_at_their_scale(self):
        # the commutators exceed tol here by roundoff alone, so both the
        # library and the loop form decide them at their states' scales
        rep = build_fock_rep(from_alpha(3, [5000.0, -5000.0, 0.0]), 36)
        reports = self.assert_matches(rep)
        assert reports[0].entry("commutator_T").residual > 1e-12
        assert all(r.all_pass for r in reports)
        a = rep.a.copy()
        a[10] *= 1 + 1e-9  # F(10) = 5010, the largest term at states 9 and 10
        failed = [e.relation for r in self.assert_matches(dataclasses.replace(rep, a=a, adag=a))
                  for e in r.entries if not e.passed]
        assert failed == ["commutator_T", "commutator_P"]


def report_digest(rep) -> str:
    """Every field of both reports, residuals as ``float.hex``."""
    lines = []
    for report in (verify_defining_relations(rep), verify_projector_algebra(rep)):
        lines.append(f"{report.dim} {report.margin_policy} {report.all_pass}")
        lines += [f"{e.relation} {e.word_length} {e.margin} {e.residual.hex()} {e.passed}"
                  for e in report.entries]
    return digest(lines)


#: Dims of the multi-block reps, at least three blocks each; the lowest block
#: is partial, so no block edge falls on a multiple of the block width.
BLOCK_DIMS = {2: 70001, 3: 50001, 8: 20001, 64: 3333}
#: States of the lam-64 rep tampered in one place: 0 (which has no lower
#: neighbour, so the lower shift reads 0 there), the first and the last state
#: of the second block, and the top state.
TAMPER_STATES = (0, 261, 1284, BLOCK_DIMS[64] - 1)


def _tampered_at(rep, n):
    """``rep`` with ``a`` (and ``adag`` to match), ``T`` or ``P`` changed at
    state ``n``: a[0] = 1e-3 at state 0, else a[n] and T[n] times 1 + 1e-7,
    and the sector column of P rotated by one."""
    a = rep.a.copy()
    if n == 0:
        a[0] = 1e-3
    else:
        a[n] *= 1 + 1e-7
    t_gen = rep.T.copy()
    t_gen[n] *= 1 + 1e-7
    proj = np.array(rep.P)
    proj[:, n] = np.roll(proj[:, n], 1)
    return [dataclasses.replace(rep, a=a, adag=a.copy()),
            dataclasses.replace(rep, T=t_gen), dataclasses.replace(rep, P=proj)]


def golden_reps(key):
    """The reps behind one golden digest: a seeded bounded-from-below spec at
    dims lam + 1, 12 lam and 600 in both dtypes, an exact finite rep, a
    rep with one ``a`` entry scaled by 1 + 1e-6, a seeded spec at its
    multi-block dim in both dtypes, or the lam-64 multi-block rep tampered
    at each of ``TAMPER_STATES``."""
    if key == "blocks-tampered":
        spec = from_alpha(64, sample_bfb_alpha(64, np.random.default_rng(1164)))
        rep = build_fock_rep(spec, BLOCK_DIMS[64])
        return [tampered for n in TAMPER_STATES for tampered in _tampered_at(rep, n)]
    if str(key).startswith("blocks-"):
        lam = int(key.removeprefix("blocks-"))
        spec = from_alpha(lam, sample_bfb_alpha(lam, np.random.default_rng(1100 + lam)))
        return [build_fock_rep(spec, BLOCK_DIMS[lam], dtype)
                for dtype in (np.complex128, np.clongdouble)]
    if key == "finite":
        alpha = exact_finite_alpha(6, 5, np.random.default_rng(65))
        return [build_fock_rep(from_alpha(6, alpha), 5)]
    if key == "tampered":
        rep = build_fock_rep(from_alpha(5, sample_bfb_alpha(5, np.random.default_rng(5))), 60)
        a = rep.a.copy()
        a[31] *= 1 + 1e-6
        return [dataclasses.replace(rep, a=a)]
    spec = from_alpha(key, sample_bfb_alpha(key, np.random.default_rng(key)))
    return [build_fock_rep(spec, dim, dtype)
            for dim in (key + 1, 12 * key, 600) for dtype in (np.complex128, np.clongdouble)]


#: Digests of the reports (x86-64, numpy 2.4, where clongdouble is the 80-bit
#: extended type), re-recorded when the margins came to mask only the top
#: state of a adag (all but "finite", an exact rep, which has no margin), and
#: the multi-block ones again when the commutators came to be decided at each
#: state's scale (only pass flags moved, each from fail to pass); any change
#: in arithmetic or order of evaluation shows up as a changed bit.
GOLDEN_REPORTS = {
    2: ["b645757f7725efa5", "257781fd425c3c1b", "61131bc2623a24b5",
        "eb8eca03294e3eb0", "9d8db9c724e68f4e", "4861ab2750c96d7a"],
    3: ["80bad67d3744cfcf", "1f2583c38e0388ab", "b9e1283597cea62b",
        "0c84bc39de5de904", "16ebb4ee207d1300", "b550a88461c6a9ec"],
    7: ["1a54a83dd9fabc48", "3e730810992a3b32", "4206591fd6d8375a",
        "53a61e6b9a4f9c34", "218a010d5105b2d0", "5d4a22b6d3c3ea37"],
    11: ["29770b9b13abf215", "d4950fcd859362dc", "87516a25e2927827",
         "12f5382863329fae", "86d3f3bbe73453f8", "af54eb5ff494b645"],
    24: ["c8c06b0c325d2e53", "422ed22832569d72", "eb2b6b7af3781286",
         "de73b31252016b60", "453c48f7d083f4cf", "7293d135fbc2f3c4"],
    64: ["9a46cc5c15a31676", "b7bcf6312530b428", "851158d9c282ea49",
         "56f11834b0fa007e", "dc357feabca5d453", "43c3ba396b5d4224"],
    "finite": ["0c0915148f79df6c"],
    "tampered": ["3eae6314c76d7c9f"],
    "blocks-2": ["61666d903db0eaf5", "3a0964d9853a28c3"],
    "blocks-3": ["3788b0a0aa83b02f", "d9d7f9c67b1b648b"],
    "blocks-8": ["c0abd9a429a2b960", "201013072f1bfec3"],
    "blocks-64": ["0ec15b0aee42ec8f", "b75ea424200b1029"],
    "blocks-tampered": ["b1cffc9b2d71e1e9", "2422a64a1703d456", "fe414972a19c0313",
                        "573202deefc68ae6", "1ddaea1fb689e44e", "7be36ed7c02659b6",
                        "cb21a8327fdc84c5", "e7e49910a9af6102", "02558aa02f363bdd",
                        "53242bae42abba2a", "4ec537ff8840752a", "df7426515fa54119"],
}

#: Digest of ``clext verify`` stdout for each argv, with its exit code.
GOLDEN_CLI = {
    "--lambda 3 --alpha 1,-0.5,-0.5": ("d1bbcf5dde3f4c74", 0),
    "--lambda 2 --alpha 0.3,-0.3 --dim 600 --tol 1e-14": ("e2aab8daa8d5701f", 0),
}


class TestGoldenDigests:
    """Residuals are pinned bit for bit, so a faster evaluation of the same
    arithmetic must leave every report and the CLI output unchanged."""

    @pytest.mark.parametrize("key", list(GOLDEN_REPORTS))
    def test_reports(self, key):
        assert [report_digest(rep) for rep in golden_reps(key)] == GOLDEN_REPORTS[key]

    def test_exact_and_tampered_inputs_are_what_they_claim(self):
        (finite,) = golden_reps("finite")
        assert verify_defining_relations(finite).margin_policy == "exact"
        (tampered,) = golden_reps("tampered")
        assert not verify_defining_relations(tampered).all_pass

    def test_block_inputs_are_what_they_claim(self):
        for lam, dim in BLOCK_DIMS.items():
            assert len(list(verify._blocks(dim, verify._block_width(lam, dim)))) >= 3, lam
        dim = BLOCK_DIMS[64]
        second = list(verify._blocks(dim, verify._block_width(64, dim)))[1]
        assert TAMPER_STATES == (0, second[0], second[1] - 1, dim - 1)
        # every tamper changes the reports, that of a[dim - 1] too: only the
        # top state of [a, adag] is masked, and a[dim - 1] adag[dim - 1]
        # enters it at dim - 2
        untampered = GOLDEN_REPORTS["blocks-64"][0]
        changed = [value != untampered for value in GOLDEN_REPORTS["blocks-tampered"]]
        assert changed == [True] * 12

    def test_every_tampered_block_rep_fails(self):
        # a re-recorded digest cannot hide a lost detection: each of the 12
        # tampered lam-64 reps fails at least one relation
        for rep in golden_reps("blocks-tampered"):
            assert not (verify_defining_relations(rep).all_pass
                        and verify_projector_algebra(rep).all_pass)

    @pytest.mark.parametrize("argv", list(GOLDEN_CLI))
    def test_cli_stdout(self, argv, capsys):
        code = main(["verify", *argv.split()])
        out = capsys.readouterr().out
        assert (digest([out]), code) == GOLDEN_CLI[argv]


#: Relations that no real-valued tamper of one entry can fail, and why.
STRUCTURAL = {
    "number_T_commutes": "N and T are diagonals, and products of diagonals commute exactly",
    "number_P_commutes": "N and P_mu are diagonals, and products of diagonals commute exactly",
    "hermiticity_N": "a real diagonal is its own conjugate",
    "hermiticity_P": "a real diagonal is its own conjugate",
}


def _nudged(values, n):
    """A copy of ``values`` with entry n moved by 1e-7 of its size, at least
    by 1e-7, so that the zero entries a[0] and num[0] move too."""
    values = values.copy()
    values[n] += 1e-7 * max(1.0, abs(values[n]))
    return values


def _mutations(rep, n):
    """(name, rep) for each generator tampered once at state n: a with adag
    to match, adag alone, num, T, and the entry of P that puts state n in a
    second sector (rotating a P column keeps it one-hot, which neither
    orthogonality nor completeness can see)."""
    a = _nudged(rep.a, n)
    proj = np.array(rep.P)
    proj[(n + 1) % rep.spec.lam, n] = 1.0
    return [("a+adag", dataclasses.replace(rep, a=a, adag=a.copy())),
            ("adag", dataclasses.replace(rep, adag=_nudged(rep.adag, n))),
            ("num", dataclasses.replace(rep, num=_nudged(rep.num, n))),
            ("T", dataclasses.replace(rep, T=_nudged(rep.T, n))),
            ("P", dataclasses.replace(rep, P=proj))]


class TestMutationMatrix:
    """Every generator tampered once, at the bottom, at a block edge and at
    the top: each tamper must show in the reports.  ``pytest -s`` prints the
    matrix: X a relation that fails tampered only, x one that fails
    untampered too, ~ a changed residual that passes, . no change."""

    @staticmethod
    def entries(rep):
        return [entry for check in (verify_defining_relations, verify_projector_algebra)
                for entry in check(rep).entries]

    @pytest.mark.parametrize("lam, dim", ((2, 24), (3, 36), (64, BLOCK_DIMS[64])))
    def test_every_tamper_shows(self, lam, dim):
        spec = from_alpha(lam, sample_bfb_alpha(lam, np.random.default_rng(1100 + lam)))
        rep = build_fock_rep(spec, dim)
        blocks = list(verify._blocks(dim, verify._block_width(lam, dim)))
        edges = {blocks[1][0], blocks[1][1] - 1} if len(blocks) > 1 else set()
        states = sorted({0, 1, dim - 2, dim - 1} | edges)
        clean = self.entries(rep)
        relations = [entry.relation for entry in clean]
        untampered_pass = all(entry.passed for entry in clean)
        print(f"\nlam {lam}, dim {dim}, untampered all_pass {untampered_pass}")
        print("\n".join(f"  {col:2d} {relation}" for col, relation in enumerate(relations)))
        failed_somewhere = set()
        for n in states:
            for name, tampered in _mutations(rep, n):
                entries = self.entries(tampered)
                marks = "".join(
                    ("X" if c.passed else "x") if not e.passed
                    else "." if e.residual == c.residual else "~"
                    for e, c in zip(entries, clean))
                print(f"  {name:>6} @ {n:<5} {marks}")
                label = (name, n)
                assert any(e.residual != c.residual for e, c in zip(entries, clean)), label
                failed = {e.relation for e in entries if not e.passed}
                if untampered_pass:
                    assert failed, label
                for e, c in zip(entries, clean):
                    if e.relation in STRUCTURAL:
                        assert e.residual == c.residual, (label, e.relation)
                failed_somewhere |= failed
        assert failed_somewhere | set(STRUCTURAL) == set(relations)

    @pytest.mark.parametrize("lam, dim", ((3, 60), (8, 80)))
    @pytest.mark.parametrize("generator", ("a+adag", "num"))
    def test_top_state_tampers_fail(self, lam, dim, generator):
        # a[dim - 1] adag[dim - 1] enters [a, adag] at dim - 2, below the
        # masked top state, and num[dim - 1] the number relations at dim - 1
        # (each scaled by 1 + 1e-7)
        rep = build_fock_rep(from_alpha(lam, [0.0] * lam), dim)
        assert verify_defining_relations(rep).all_pass
        tampered = dict(_mutations(rep, dim - 1))[generator]
        assert not verify_defining_relations(tampered).all_pass


class TestSharedProjectorRows:
    """Both reports read the projector rows P; each relation is checked by
    exactly one report, on the arrays as they are when that report runs."""

    PROJECTOR_ONLY = ("projector_orthogonality", "projector_completeness")

    @staticmethod
    def rep():
        return build_fock_rep(from_alpha(5, sample_bfb_alpha(5, np.random.default_rng(55))), 60)

    def tampered(self):
        rep = self.rep()
        proj = np.array(rep.P)
        proj[1, 31] = 0.5  # state 31 now lies in two sectors
        t_gen = rep.T.copy()
        t_gen[31] *= 1 + 1e-6
        return dataclasses.replace(rep, P=proj), dataclasses.replace(rep, T=t_gen)

    def test_a_replaced_rep_is_checked_afresh(self):
        rep = self.rep()
        assert verify_defining_relations(rep).all_pass
        assert verify_projector_algebra(rep).all_pass
        tampered_p, tampered_t = self.tampered()
        for tampered in (tampered_p, tampered_t):
            for report in (verify_defining_relations(tampered), verify_projector_algebra(tampered)):
                assert not report.all_pass
        # orthogonality and completeness fail in the report that owns them
        owner = verify_projector_algebra(tampered_p)
        for relation in self.PROJECTOR_ONLY:
            assert not owner.entry(relation).passed
            with pytest.raises(KeyError):
                verify_defining_relations(tampered_p).entry(relation)
        assert not verify_defining_relations(tampered_t).entry("unitarity_T").passed
        assert not verify_projector_algebra(tampered_t).entry("projector_from_T").passed

    def test_an_array_changed_in_place_is_checked_afresh(self):
        rep = build_fock_rep(WORKED, 36)
        rep = dataclasses.replace(rep, P=np.array(rep.P))
        assert verify_defining_relations(rep).all_pass
        rep.P[0, 7] = 1.0  # state 7 now lies in sectors 0 and 1
        report = verify_projector_algebra(rep)
        for relation in self.PROJECTOR_ONLY:
            assert report.entry(relation).residual == 1.0
            assert not report.entry(relation).passed
        assert report.entries == verify_projector_algebra(dataclasses.replace(rep)).entries

    def test_entries_do_not_depend_on_report_order(self):
        checks = (verify_defining_relations, verify_projector_algebra)
        for rep in (self.rep(), *self.tampered()):
            alone = [check(dataclasses.replace(rep)).entries for check in checks]
            fresh = dataclasses.replace(rep)
            assert [check(fresh).entries for check in checks] == alone
            fresh = dataclasses.replace(rep)
            assert [check(fresh).entries for check in reversed(checks)] == alone[::-1]

    def test_nothing_stays_allocated_after_both_reports(self):
        spec = from_alpha(64, [0.0] * 64)
        reps = [build_fock_rep(spec, 20_000) for _ in range(4)]
        gc.collect()
        tracemalloc.start()
        try:
            for rep in reps:  # the first runs fill numpy's and Python's caches
                before = tracemalloc.get_traced_memory()[0]
                verify_defining_relations(rep)
                verify_projector_algebra(rep)
                kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 4096, kept

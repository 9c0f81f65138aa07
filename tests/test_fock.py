import math

import numpy as np
import pytest

from clext import (
    DimensionTooLargeError,
    NonUnitaryError,
    build_fock_rep,
    casimir,
    from_alpha,
    grading_sector,
    ladder_matrices,
    norm_coefficient,
    sample_bfb_alpha,
    structure_function,
)
from clext.fock import lower_shift, upper_shift
from clext.pssqm import CHECK_DTYPE

WORKED = from_alpha(3, [1.0, -0.5, -0.5])


def loop_built_ladder(spec, dim):
    """Independent loop-built annihilation matrix."""
    mat = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        mat[n - 1, n] = math.sqrt(structure_function(spec, n))
    return mat


class TestBuild:
    def test_undeformed_entries(self):
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 3)
        np.testing.assert_allclose(rep.a, [0.0, 1.0, math.sqrt(2.0)])

    def test_worked_entries(self):
        rep = build_fock_rep(WORKED, 4)
        expected = [math.sqrt(2.0), math.sqrt(2.5), math.sqrt(3.0)]
        np.testing.assert_allclose(rep.a[1:], expected, atol=1e-15)
        np.testing.assert_array_equal(ladder_matrices(rep)[0], loop_built_ladder(WORKED, 4))

    def test_adag_is_conjugate_transpose(self):
        rep = build_fock_rep(WORKED, 12)
        np.testing.assert_array_equal(rep.adag, rep.a.conj())
        a, adag = ladder_matrices(rep)
        np.testing.assert_array_equal(adag, a.conj().T)

    def test_ladders_are_read_only_bands(self):
        for dtype in (np.complex128, np.clongdouble):
            rep = build_fock_rep(WORKED, 7, dtype=dtype)
            for band in (rep.a, rep.adag):
                assert band.shape == (7,)
                assert band.dtype == dtype
                assert band[0] == 0
                assert not band.flags.writeable

    def test_rep_holds_48_bytes_a_state(self):
        # adag = conj(a) = a, the square roots being real, so one read-only
        # band serves both: a complex128 rep holds the band (16 bytes a state),
        # N (8), T (16) and P's one period (8)
        rep = build_fock_rep(from_alpha(64, [0.0] * 64), 100_000)
        assert rep.adag is rep.a
        buffers = {}
        for array in (rep.a, rep.adag, rep.num, rep.T, rep.P):
            while array.base is not None:
                array = array.base
            buffers[id(array)] = array.nbytes
        assert sum(buffers.values()) <= 48 * (rep.dim + 64)

    def test_number_operator(self):
        rep = build_fock_rep(WORKED, 5)
        np.testing.assert_array_equal(rep.num, np.arange(5))

    def test_cyclic_generator_diagonal(self):
        rep = build_fock_rep(WORKED, 4)
        expected = np.exp(2j * np.pi * np.arange(4) / 3)
        np.testing.assert_allclose(rep.T, expected, atol=1e-15)

    @pytest.mark.parametrize("lam, dim", ((2, 4000), (3, 1200), (7, 84), (64, 768)))
    def test_cyclic_generator_is_the_reduced_phase(self, lam, dim):
        # one complex exponential per sector, the same bits as per state
        rep = build_fock_rep(from_alpha(lam, [0.0] * lam), dim)
        n = np.arange(dim)
        assert rep.T.tobytes() == np.exp(2j * np.pi * (n % lam) / lam).tobytes()

    def test_diagonal_generators_are_read_only_vectors(self):
        rep = build_fock_rep(WORKED, 7)
        for diagonal in (rep.num, rep.T, *rep.P):
            assert diagonal.shape == (7,)
            assert not diagonal.flags.writeable

    def test_projectors_partition_identity(self):
        rep = build_fock_rep(WORKED, 10)
        for mu in range(3):
            np.testing.assert_array_equal(rep.P[mu], (np.arange(10) % 3 == mu).astype(float))
        np.testing.assert_array_equal(sum(rep.P), np.ones(10))

    @pytest.mark.parametrize("dtype", (np.complex128, CHECK_DTYPE))
    @pytest.mark.parametrize("lam", (2, 3, 64))
    def test_projectors_are_the_sector_indicators(self, lam, dtype):
        dim = 5 * lam + 2
        rep = build_fock_rep(from_alpha(lam, [0.0] * lam), dim, dtype=dtype)
        n = np.arange(dim)
        expected = (n % lam == np.arange(lam)[:, None]).astype(np.finfo(dtype).dtype)
        # exact equality: tobytes would read long double's padding bytes
        np.testing.assert_array_equal(rep.P, expected, strict=True)
        assert not rep.P.flags.writeable

    @pytest.mark.parametrize("lam", (2, 3, 64))
    def test_projectors_share_one_period(self, lam):
        # the rows are windows onto one buffer, not lam rows of dim entries
        rep = build_fock_rep(from_alpha(lam, [0.0] * lam), 1000)
        assert rep.P.base.shape == (1000 + lam - 1,)
        assert not rep.P.base.flags.writeable

    def test_finite_dim_truncation_guard(self):
        spec = from_alpha(2, [-1.0, 1.0])  # one-dimensional representation
        rep = build_fock_rep(spec, 1)
        assert rep.dim == 1
        with pytest.raises(DimensionTooLargeError):
            build_fock_rep(spec, 2)

    def test_exact_only_at_the_finite_dimension(self):
        finite = from_alpha(3, [-0.5, -1.5, 2.0])  # F(2) = 0: a two-dimensional rep
        assert build_fock_rep(finite, 2).exact
        assert not build_fock_rep(finite, 1).exact
        assert not build_fock_rep(WORKED, 2).exact  # bounded from below: always truncated
        assert not build_fock_rep(WORKED, 30).exact

    def test_non_unitary_propagates(self):
        with pytest.raises(NonUnitaryError):
            build_fock_rep(from_alpha(3, [-1.5, 0.5, 1.0]), 5)

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            build_fock_rep(WORKED, 0)

    def test_extended_precision_build(self):
        rep = build_fock_rep(WORKED, 8, dtype=np.clongdouble)
        assert rep.a.dtype == np.clongdouble
        np.testing.assert_allclose(
            ladder_matrices(rep)[0].astype(complex), loop_built_ladder(WORKED, 8), atol=1e-15
        )


class TestLadderProducts:
    def test_sector_shift_identities_are_exact(self):
        # a P_mu = P_{mu-1} a and adag P_mu = P_{mu+1} adag hold with no
        # boundary effect: all matrices share the same shift structure
        rep = build_fock_rep(WORKED, 10)
        a, adag = ladder_matrices(rep)
        for mu in range(3):
            proj = [np.diag(p) for p in rep.P]
            np.testing.assert_array_equal(a @ proj[mu], proj[(mu - 1) % 3] @ a)
            np.testing.assert_array_equal(adag @ proj[mu], proj[(mu + 1) % 3] @ adag)

    def test_projector_algebra_is_exact(self):
        rep = build_fock_rep(WORKED, 10)
        proj = [np.diag(p) for p in rep.P]
        for mu in range(3):
            for nu in range(3):
                expected = proj[mu] if mu == nu else np.zeros((10, 10))
                np.testing.assert_array_equal(proj[mu] @ proj[nu], expected)

    def test_lowering_then_raising_is_structure_diagonal(self):
        a, adag = ladder_matrices(build_fock_rep(WORKED, 9))
        product = adag @ a
        expected = [structure_function(WORKED, n) for n in range(9)]
        np.testing.assert_allclose(product, np.diag(expected), atol=1e-13)

    def test_raising_then_lowering_has_top_artifact(self):
        a, adag = ladder_matrices(build_fock_rep(WORKED, 9))
        product = a @ adag
        expected = [structure_function(WORKED, n + 1) for n in range(8)] + [0.0]
        np.testing.assert_allclose(product, np.diag(expected), atol=1e-13)


class TestShifts:
    """The two neighbour reads of the band format: x[n - k] on the states
    lo .. hi - 1 of a block, 0 below state 0, and x[n + 1], 0 past the top."""

    @pytest.mark.parametrize("dtype", (np.float64, np.complex128, np.clongdouble))
    def test_against_a_loop(self, dtype):
        dim = 6
        rows = np.arange(1, 2 * dim + 1).reshape(2, dim).astype(dtype)
        for lo in range(dim):
            for hi in range(lo + 1, dim + 1):
                states = range(lo, hi)
                for k in range(dim + 2):
                    expected = [[row[n - k] if n >= k else 0 for n in states] for row in rows]
                    for x, want in ((rows, expected), (rows[0], expected[0])):
                        got = lower_shift(x, k, lo, hi)
                        assert got.dtype == dtype
                        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(lower_shift(rows), lower_shift(rows, 1, 0, dim))
        expected = [[row[n + 1] if n + 1 < dim else 0 for n in range(dim)] for row in rows]
        for x, want in ((rows, expected), (rows[0], expected[0])):
            got = upper_shift(x)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_products_with_a_diagonal(self):
        # band entry n joins states n - 1 and n: a D takes d at the upper
        # state, D a at the lower one, and a adag is the upper shift of adag a
        rep = build_fock_rep(WORKED, 9)
        a, adag = ladder_matrices(rep)
        d = np.arange(9.0) ** 2 + 1
        np.testing.assert_array_equal(np.diagonal(a @ np.diag(d), 1), (rep.a * d)[1:])
        np.testing.assert_array_equal(
            np.diagonal(np.diag(d) @ a, 1), (rep.a * lower_shift(d))[1:])
        np.testing.assert_array_equal(np.diag(a @ adag), upper_shift(rep.a * rep.adag))


class TestNormCoefficient:
    def test_empty_product(self):
        assert norm_coefficient(WORKED, 0) == 1.0

    def test_undeformed_factorial(self):
        spec = from_alpha(2, [0.0, 0.0])
        for n in range(8):
            assert norm_coefficient(spec, n) == math.factorial(n)

    def test_worked_product(self):
        assert norm_coefficient(WORKED, 3) == 15.0


class TestCasimir:
    def test_lam2_dense_product(self):
        spec = from_alpha(2, [0.5, -0.5])
        rep = build_fock_rep(spec, 8)
        # oracle: independent loop-built matrices
        a = loop_built_ladder(spec, 8)
        f_diag = np.diag([structure_function(spec, n) for n in range(8)]).astype(complex)
        oracle = f_diag - a.conj().T @ a
        assert np.max(np.abs(oracle)) <= 1e-13
        np.testing.assert_allclose(np.diag(casimir(rep)), oracle, atol=1e-15)

    def test_undeformed(self):
        # a dag a equals the number operator up to sqrt rounding
        rep = build_fock_rep(from_alpha(2, [0.0, 0.0]), 10)
        assert np.max(np.abs(casimir(rep))) <= 1e-13

    def test_random_bfb_specs(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            spec = from_alpha(4, sample_bfb_alpha(4, rng))
            rep = build_fock_rep(spec, 20)
            assert np.max(np.abs(casimir(rep))) <= 1e-13


class TestGradingSector:
    def test_residue_classes(self):
        rep = build_fock_rep(WORKED, 7)
        assert grading_sector(rep, 1) == [1, 4]
        assert grading_sector(rep, 0) == [0, 3, 6]

    def test_sector_sizes_sum_to_dim(self):
        rep = build_fock_rep(WORKED, 11)
        assert sum(len(grading_sector(rep, mu)) for mu in range(3)) == 11

    def test_ladders_shift_sectors(self):
        rep = build_fock_rep(WORKED, 9)
        a, adag = ladder_matrices(rep)
        vec = np.zeros(9, dtype=complex)
        vec[3] = 1.0  # sector 0
        lowered = a @ vec
        support = np.nonzero(np.abs(lowered) > 1e-14)[0]
        assert set(support) <= set(grading_sector(rep, 2))
        raised = adag @ vec
        support = np.nonzero(np.abs(raised) > 1e-14)[0]
        assert set(support) <= set(grading_sector(rep, 1))

    def test_rejects_bad_sector(self):
        rep = build_fock_rep(WORKED, 6)
        with pytest.raises(ValueError):
            grading_sector(rep, 3)

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from padfeec.errors import InvalidGram, InvalidMatrix, NotNested, ToleranceFailure
from padfeec.linalg import (
    Gram,
    Subspace,
    gram_factor,
    icr_of,
    infsup,
    null_vectors,
    nullspace,
    orthonormalize,
    pencil_nonzero_eigs,
    principal_angles,
    rank,
    solve_symmetric,
    subspace_equal,
)

from oracles import contains, full_subspace, gram_complement, zero_subspace


def span(*cols):
    return Subspace.from_span(np.column_stack(cols))


class TestNullspace:
    def test_zero_map(self):
        assert nullspace(np.zeros((2, 2))).dim == 2

    def test_identity(self):
        assert nullspace(np.eye(3)).dim == 0

    def test_rank_one_direction(self):
        # independent oracle: direct SVD of the 2x2 all-ones matrix
        M = np.array([[1.0, 1.0], [1.0, 1.0]])
        _, s, Vt = scipy.linalg.svd(M)
        assert s[1] < 1e-12 * s[0]
        expected = Vt[1]
        ns = nullspace(M, tol=1e-12)
        assert ns.dim == 1
        cos = abs(ns.basis[:, 0] @ expected)
        assert cos == pytest.approx(1.0, abs=1e-14)
        target = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(ns.basis[:, 0] @ target) - 1.0) < 1e-14

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            nullspace(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(st.integers(2, 6), st.integers(0, 4), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, n, r, rnd):
        r = min(r, n)
        rng = np.random.default_rng(rnd.randrange(2**32))
        A = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        assert rank(A) + nullspace(A).dim == n



class TestNullVectors:
    """The null space of a known dimension, certified on unsquared residuals."""

    @staticmethod
    def _nullity_three():
        rng = np.random.default_rng(1)
        return rng.standard_normal((30, 27)) @ rng.standard_normal((27, 30))

    @pytest.mark.parametrize("sparse", [False, True], ids=["eigh", "inverse-iteration"])
    def test_equal_to_the_pivoted_qr(self, sparse):
        import scipy.sparse

        M = self._nullity_three()
        V, resid = null_vectors(scipy.sparse.csr_array(M), 3, sparse=sparse)
        assert V.shape == (30, 3)
        assert np.abs(V.T @ V - np.eye(3)).max() <= 1e-12
        assert principal_angles(Subspace(30, V), nullspace(M)).max() <= 1e-10
        assert resid[:3].max() <= 1e-13 and resid[3] >= 1e-3

    @pytest.mark.parametrize("sparse", [False, True], ids=["eigh", "inverse-iteration"])
    @pytest.mark.parametrize(
        "nullity,reason", [(2, "vector 3 .* within"), (4, "null vector 4 .* above")]
    )
    def test_a_wrong_nullity_raises(self, sparse, nullity, reason):
        with pytest.raises(ToleranceFailure, match="nullity %d: %s" % (nullity, reason)):
            null_vectors(self._nullity_three(), nullity, sparse=sparse)

    @pytest.mark.parametrize("sparse", [False, True], ids=["eigh", "inverse-iteration"])
    def test_no_rows_give_the_whole_space(self, sparse):
        V, resid = null_vectors(np.zeros((0, 4)), 4, sparse=sparse)
        assert np.abs(V.T @ V - np.eye(4)).max() <= 1e-12
        assert not resid.any()
        with pytest.raises(ToleranceFailure, match="within"):
            null_vectors(np.zeros((0, 4)), 3, sparse=sparse)

    def test_nullity_out_of_range(self):
        with pytest.raises(ToleranceFailure, match="outside 0..2"):
            null_vectors(np.eye(2), 3)


class TestInfsup:
    def test_identical_lines(self):
        A = span([1.0, 0.0])
        assert infsup(A, A, np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_lines(self):
        A = span([1.0, 0.0])
        B = span([0.0, 1.0])
        assert infsup(A, B, np.eye(2)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_line(self):
        A = span([1.0, 0.0])
        B = span([1.0, 1.0])
        assert infsup(A, B, np.eye(2)) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)

    def test_rejects_indefinite_gram(self):
        A = span([1.0, 0.0])
        with pytest.raises(InvalidGram):
            infsup(A, A, np.diag([1.0, -1.0]))

    def test_symmetric_for_equal_dims(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 6
            A = Subspace.from_span(rng.standard_normal((n, 2)))
            B = Subspace.from_span(rng.standard_normal((n, 2)))
            G = rng.standard_normal((n, n))
            G = G @ G.T + n * np.eye(n)
            v1 = infsup(A, B, G)
            v2 = infsup(B, A, G)
            if v1 > 0 and v2 > 0:
                assert v1 == pytest.approx(v2, rel=1e-10)


class TestGramFactor:
    def test_bare_sparse_gram_is_refused(self):
        import scipy.sparse

        G = scipy.sparse.diags_array(np.arange(1.0, 5.0), format="csr")
        with pytest.raises(InvalidGram, match="carrying its factor"):
            gram_factor(G)

    def test_gram_multiplies_like_its_matrix_and_keeps_its_factor(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 3, 3))
        G = Gram(X @ np.swapaxes(X, 1, 2) + 3.0 * np.eye(3))
        dense = G.matrix.toarray()
        P = rng.standard_normal((12, 5))
        assert np.array_equal(G @ P, G.matrix @ P)
        assert np.array_equal(P.T @ G @ P, P.T @ G.matrix @ P)
        assert np.array_equal((-G).toarray(), -dense)
        R, Rinv = gram_factor(G)
        assert gram_factor(G)[0] is R
        assert np.abs(R.T @ R - dense).max() <= 1e-13 * np.abs(dense).max()
        assert np.abs((R @ Rinv).toarray() - np.eye(12)).max() <= 1e-13
        # the sparse factor is the stacked factor that the cell passes read
        assert np.array_equal(R.toarray(), scipy.linalg.block_diag(*G.stack_factor[0]))
        assert np.array_equal(Rinv.toarray(), scipy.linalg.block_diag(*G.stack_factor[1]))

    def test_diagonal_gram_with_a_zero_is_refused_when_factored(self):
        with pytest.raises(InvalidGram):
            gram_factor(Gram.diagonal([1.0, 0.0, 2.0]))

    def test_stack_with_an_indefinite_block_is_refused_when_factored(self):
        stack = np.stack([np.eye(3), 2.0 * np.eye(3), np.diag([1.0, -1.0, 1.0]), np.eye(3)])
        with pytest.raises(InvalidGram):
            gram_factor(Gram(stack))
        with pytest.raises(InvalidGram):
            Gram(stack).stack_factor


class TestIcr:
    def test_zero_map_convention(self):
        D = full_subspace(2)
        assert icr_of(np.zeros((2, 2)), D.basis) == 0.0

    def test_isometry(self):
        D = full_subspace(3)
        assert icr_of(np.eye(3), D.basis) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        # eigenvalue oracle: smallest singular value 0.5 -> icr = 2
        D = full_subspace(2)
        assert icr_of(np.diag([2.0, 0.5]), D.basis) == pytest.approx(2.0, rel=1e-12)

    def test_invariant_under_gram_orthogonal_reparametrization(self):
        rng = np.random.default_rng(3)
        n = 8
        T = rng.standard_normal((n, n))
        G = rng.standard_normal((n, n))
        G = G @ G.T + n * np.eye(n)
        V = rng.standard_normal((n, 5))
        base = icr_of(T, Subspace.from_span(V, G).basis, gram_x=G)
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            other = icr_of(T, Subspace.from_span(V @ Q, G).basis, gram_x=G)
            assert abs(other - base) <= 1e-10 * base

    def test_in_place_pencil_leaves_the_inputs_and_the_value(self):
        # K and M are symmetrized in place and overwritten by eigh: the
        # caller's T, V and Grams stay as they were, and the index is the
        # one of the copying route, to the last bit
        import scipy.linalg

        rng = np.random.default_rng(11)
        T, V = rng.standard_normal((7, 6)), rng.standard_normal((6, 4))
        Gx, Gy = (np.eye(m) + 0.1 * rng.standard_normal((m, m)) for m in (6, 7))
        Gx, Gy = Gx @ Gx.T, Gy @ Gy.T
        inputs = [a.copy() for a in (T, V, Gx, Gy)]
        value = icr_of(T, V, gram_x=Gx, gram_y=Gy)
        for a, b in zip((T, V, Gx, Gy), inputs):
            assert np.array_equal(a, b)
        K, M = (T @ V).T @ (Gy @ (T @ V)), V.T @ (Gx @ V)
        w = scipy.linalg.eigh(0.5 * (K + K.T), 0.5 * (M + M.T), eigvals_only=True)
        assert value == 1.0 / np.sqrt(w[w > 1e-10 * w[-1]][0])


class TestIcrDegenerate:
    def test_near_singular_restricted_stiffness_raises(self):
        from padfeec.errors import NotClosedRange

        # eigenvalues 1e-8 and 1e-12: the kernel cut keeps both, but the
        # smallest kept value sits below the absolute tolerance
        D = full_subspace(2)
        with pytest.raises(NotClosedRange):
            icr_of(np.diag([1e-4, 1e-6]), D.basis)
        # a clean scale separation classifies the tiny mode as kernel instead
        assert icr_of(np.diag([1.0, 1e-6]), D.basis) == pytest.approx(1.0)


class TestSubspaceEqual:
    def test_equal(self):
        A = span([1.0, 2.0, 0.0], [0.0, 1.0, 1.0])
        flag, ang = subspace_equal(A, A)
        assert flag and ang < 1e-13

    def test_orthogonal(self):
        flag, ang = subspace_equal(span([1.0, 0.0]), span([0.0, 1.0]))
        assert not flag
        assert ang == pytest.approx(np.pi / 2, abs=1e-12)

    def test_tiny_angle_resolved(self):
        # angle formula oracle: tan(theta) = 1e-14 for span{(1,0)} vs span{(1,1e-14)}
        A = span([1.0, 0.0])
        B = span([1.0, 1e-14])
        flag, ang = subspace_equal(A, B, tol=1e-8)
        assert flag
        assert ang == pytest.approx(1e-14, rel=1e-3)


class TestGramComplement:
    def test_zero_in_anything(self):
        B = span([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        Z = zero_subspace(3)
        C = gram_complement(Z, B)
        assert subspace_equal(C, B)[0]

    def test_self_complement_trivial(self):
        B = span([1.0, 2.0], [0.0, 1.0])
        assert gram_complement(B, B).dim == 0

    def test_weighted_complement(self):
        # oracle: solve <(1,1), x>_diag(1,4) = 0 directly -> x ~ (4,-1)
        G = np.diag([1.0, 4.0])
        A = Subspace.from_span(np.array([[1.0], [1.0]]), G)
        B = full_subspace(2, G)
        C = gram_complement(A, B, G)
        assert C.dim == 1
        v = C.basis[:, 0]
        assert abs(v @ G @ np.array([1.0, 1.0])) < 1e-12
        t = np.array([4.0, -1.0])
        assert abs(abs(v @ G @ t) - np.sqrt(t @ G @ t) * np.sqrt(v @ G @ v)) < 1e-12

    def test_not_nested(self):
        A = span([1.0, 0.0, 0.0])
        B = span([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(NotNested):
            gram_complement(A, B)

    def test_double_complement_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = 7
            G = rng.standard_normal((n, n))
            G = G @ G.T + n * np.eye(n)
            B = Subspace.from_span(rng.standard_normal((n, 5)), G)
            A = Subspace.from_span(B.basis[:, :2], G)
            C = gram_complement(A, B, G)
            A2 = gram_complement(C, B, G)
            flag, ang = subspace_equal(A, A2, G, tol=1e-9)
            assert flag, ang


class TestPencil:
    def test_singular_mass(self):
        K = np.diag([2.0, 3.0, 0.0])
        M = np.diag([1.0, 0.0, 1.0])
        lam, zeros = pencil_nonzero_eigs(K, M)
        assert np.allclose(lam, [2.0])
        assert zeros == 1  # the (0,0,1) direction has K v = 0, M v != 0

    def test_caller_arrays_untouched(self):
        # the shifted reduction is built in arrays of its own: K and M are
        # only read, and the spectrum is the copying route's to the last bit
        import scipy.linalg

        rng = np.random.default_rng(12)
        X, Y = rng.standard_normal((6, 6)), rng.standard_normal((4, 6))
        K, M = X @ X.T, Y.T @ Y
        K[0, 1] += 1e-15  # not symmetric to the last bit
        saved = K.copy(), M.copy()
        lam, zeros = pencil_nonzero_eigs(K, M)
        assert np.array_equal(K, saved[0]) and np.array_equal(M, saved[1])
        sK, sM = np.abs(K).max(), np.abs(M).max()
        S = 0.5 * (K + K.T) / sK + 0.5 * (M + M.T) / sM
        theta = scipy.linalg.eigh(0.5 * (M + M.T) / sM, 0.5 * (S + S.T), eigvals_only=True)
        # M has a two-dimensional kernel: two infinite eigenvalues, no zero one
        theta = np.clip(theta, 0.0, 1.0)[theta > 1e-9]
        assert zeros == 0 and lam.size == 4
        assert np.array_equal(lam, np.sort((1.0 - theta) / theta * (sK / sM)))

    def test_common_kernel_refused(self):
        # K + M is singular: the pencils this takes share no kernel by construction
        from padfeec.errors import SolverFailure

        K = np.diag([5.0, 0.0])
        M = np.diag([1.0, 0.0])
        with pytest.raises(SolverFailure, match="not positive definite"):
            pencil_nonzero_eigs(K, M)


class TestSolveSymmetric:
    def test_saddle(self):
        A = np.array([[2.0, 1.0], [1.0, 0.0]])
        x, rel, cond = solve_symmetric(A, np.array([1.0, 1.0]))
        assert np.allclose(A @ x, [1.0, 1.0], atol=1e-13)
        assert rel < 1e-13
        assert cond >= 1.0

    def test_condition_estimate_has_six_significant_digits(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((40, 40))
        _, _, cond = solve_symmetric(M + M.T, rng.standard_normal(40))
        assert cond > 1.0 and float("%.6g" % cond) == cond


    def test_sparse_and_dense_agree(self):
        rng = np.random.default_rng(7)
        M = scipy.sparse.random_array((200, 200), density=0.02, rng=rng)
        K = (M + M.T + scipy.sparse.diags_array(rng.standard_normal(200))).tocsc()
        b = rng.standard_normal(200)
        xs, rel_s, cond_s = solve_symmetric(K, b)
        xd, rel_d, cond_d = solve_symmetric(K.toarray(), b)
        assert np.linalg.norm(xs - xd) <= 1e-12 * np.linalg.norm(xd)
        assert rel_s < 1e-13 and rel_d < 1e-13
        assert cond_s == cond_d
        # the estimate is a lower bound of the 1-norm condition, here a tight one
        Kd = K.toarray()
        exact = np.linalg.norm(Kd, 1) * np.linalg.norm(np.linalg.inv(Kd), 1)
        assert exact / 10 <= cond_s <= exact * (1 + 1e-6)

    def test_inverse_norm_estimate_takes_the_steps_of_onenormest(self):
        import scipy.sparse.linalg

        from padfeec.linalg import _inverse_norm1

        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 40, 120):
            for scale in (1e-3, 1.0, 10.0):
                M = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
                A = M + M.T + scale * np.diag(rng.standard_normal(n))
                factor = scipy.linalg.lu_factor(A)

                def solve(r, trans="N"):
                    return scipy.linalg.lu_solve(factor, r, trans="NT".index(trans))

                inverse = scipy.sparse.linalg.LinearOperator(
                    A.shape, matvec=solve, rmatvec=lambda r: solve(r, "T"), dtype=float
                )
                assert _inverse_norm1(solve, n) == scipy.sparse.linalg.onenormest(inverse, t=1)

    def test_singular_sparse_system_is_a_solver_failure(self):
        from padfeec.errors import SolverFailure

        K = scipy.sparse.diags_array([1.0, 0.0, 1.0, 2.0, 3.0], format="csc")
        with pytest.raises(SolverFailure, match="sparse LU failed"):
            solve_symmetric(K, np.ones(5))


class TestOrthonormalize:
    def test_gram_orthonormal(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((6, 6))
        G = G @ G.T + 6 * np.eye(6)
        V = rng.standard_normal((6, 3))
        Q = orthonormalize(V, G)
        assert np.allclose(Q.T @ G @ Q, np.eye(3), atol=1e-12)

    def test_rank_trim(self):
        V = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert orthonormalize(V).shape[1] == 1


class TestPrincipalAngles:
    def test_mixed_angles(self):
        A = span([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        B = span([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        ang = principal_angles(A, B)
        assert ang[0] == pytest.approx(0.0, abs=1e-12)
        assert ang[1] == pytest.approx(np.pi / 2, abs=1e-12)


    @staticmethod
    def _both_svds(A, B, gram=None):
        """The angles from both the cosine and the sine singular values."""
        from padfeec.linalg import _cross_gram, _orthonormal_basis

        Qa, Qb = _orthonormal_basis(A, gram), _orthonormal_basis(B, gram)
        m = min(A.dim, B.dim)
        cos_vals = np.clip(scipy.linalg.svdvals(_cross_gram(Qa, gram, Qb))[:m], 0.0, 1.0)
        small, big = (Qa, Qb) if A.dim <= B.dim else (Qb, Qa)
        R = small - big @ (big.T @ (small if gram is None else gram @ small))
        if gram is not None:
            R = gram_factor(gram)[0] @ R
        sin_vals = np.sort(np.clip(scipy.linalg.svdvals(R), 0.0, 1.0))
        angles = np.where(cos_vals > np.sqrt(0.5), np.arcsin(sin_vals[:m]), np.arccos(cos_vals))
        return np.sort(angles)

    @pytest.mark.parametrize("tilt,calls", [(1e-9, 1), (0.7, 1), (0.9, 2), (1.2, 2)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_cosines_only_past_the_sine_threshold(self, monkeypatch, tilt, calls, weighted):
        rng = np.random.default_rng(11)
        Q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
        G = None
        if weighted:
            F = rng.standard_normal((9, 9)) + 9.0 * np.eye(9)
            G = F.T @ F
        # B tilts A's first two directions by up to ``tilt`` radians; the
        # largest angle is ``tilt``, so only then do the cosines decide
        A = Subspace.from_span(Q[:, :3], G)
        B = Subspace.from_span(
            np.column_stack([
                np.cos(tilt) * Q[:, 0] + np.sin(tilt) * Q[:, 5],
                np.cos(tilt / 2) * Q[:, 1] + np.sin(tilt / 2) * Q[:, 6],
                Q[:, 2], Q[:, 3],
            ]),
            G,
        )
        want = self._both_svds(A, B, G)
        counted = []
        svdvals = scipy.linalg.svdvals

        def counting(M, *args, **kwargs):
            counted.append(M.shape)
            return svdvals(M, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "svdvals", counting)
        got = principal_angles(A, B, G)
        assert np.array_equal(got, want)
        assert len(counted) == (1 if np.sin(want[-1]) < 0.7 else 2)
        if not weighted:
            assert len(counted) == calls
            assert got[-1] == pytest.approx(tilt, abs=1e-12)


class TestOrthonormalizeOnce:
    """A subspace carrying the Gram in use is taken as it is."""

    @staticmethod
    def _pair(G):
        rng = np.random.default_rng(3)
        B = Subspace.from_span(rng.standard_normal((6, 4)), G)
        A = Subspace.from_span(B.basis @ rng.standard_normal((4, 2)), G)
        return A, B

    @staticmethod
    def _count_calls(monkeypatch, A, B, gram):
        import padfeec.linalg as linalg

        counts = []
        inner = linalg.orthonormalize

        def counting(*args, **kwargs):
            counts[-1] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(linalg, "orthonormalize", counting)
        for fn in (principal_angles, infsup, gram_complement):
            counts.append(0)
            fn(A, B, gram)
        return counts

    def test_no_calls_when_both_carry_the_gram(self, monkeypatch):
        G = np.diag(np.arange(1.0, 7.0))
        A, B = self._pair(G)
        assert self._count_calls(monkeypatch, A, B, G) == [0, 0, 0]

    @pytest.mark.parametrize("other", ["weighted", "euclidean"])
    def test_two_calls_when_they_carry_another_gram(self, monkeypatch, other):
        G = np.diag(np.arange(1.0, 7.0))
        A, B = self._pair(G)
        gram = np.diag(np.arange(6.0, 0.0, -1.0)) if other == "weighted" else None
        assert self._count_calls(monkeypatch, A, B, gram) == [2, 2, 2]

    def test_reused_and_fresh_bases_agree(self):
        G = np.diag(np.arange(1.0, 7.0))
        A, B = self._pair(G)
        # an equal Gram that is another object is orthonormalized against again
        A2, B2 = Subspace(6, A.basis, G.copy()), Subspace(6, B.basis, G.copy())
        np.testing.assert_allclose(
            principal_angles(A, B, G), principal_angles(A2, B2, G), atol=1e-12
        )
        C = gram_complement(A, B, G)
        assert np.abs(C.basis.T @ G @ C.basis - np.eye(C.dim)).max() <= 1e-12
        assert np.abs(A.basis.T @ G @ C.basis).max() <= 1e-12

    def test_indefinite_gram_raises(self):
        A = span([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        B = span([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(InvalidGram):
            principal_angles(A, B, np.diag([1.0, -1.0, 1.0]))


class TestHouseholderSubspaces:
    """The subspace algebra needs no SVD with singular vectors and no eigh."""

    @staticmethod
    def _forbid(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an SVD or eigh was called")

        for module in (scipy.linalg, np.linalg):
            monkeypatch.setattr(module, "svd", fail)
            monkeypatch.setattr(module, "eigh", fail)

    @staticmethod
    def _grams(rng, n):
        def spd(m):
            X = rng.standard_normal((m, m))
            return X @ X.T + m * np.eye(m)

        return {
            "diagonal": Gram.diagonal(rng.uniform(0.5, 2.0, n)),
            "dense": spd(n),
            "block-diagonal": Gram(np.stack([spd(6) for _ in range(n // 6)])),
        }

    @pytest.mark.parametrize("kind", ["diagonal", "dense", "block-diagonal"])
    def test_orthonormalize_trims_rank_in_every_gram(self, monkeypatch, kind):
        rng = np.random.default_rng(5)
        G = self._grams(rng, 36)[kind]
        V = rng.standard_normal((36, 7)) @ rng.standard_normal((7, 12))
        with monkeypatch.context() as m:
            self._forbid(m)
            Q = orthonormalize(V, G)
        assert Q.shape == (36, 7)
        assert np.abs(Q.T @ (G @ Q) - np.eye(7)).max() <= 1e-12
        # Q spans the columns of V
        assert np.abs(V - Q @ (Q.T @ (G @ V))).max() <= 1e-10 * np.abs(V).max()

    def test_nullspace(self, monkeypatch):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((30, 9)) @ rng.standard_normal((9, 40))
        with monkeypatch.context() as m:
            self._forbid(m)
            N = nullspace(M)
        assert N.dim == 31
        assert np.abs(N.basis.T @ N.basis - np.eye(31)).max() <= 1e-12
        assert np.abs(M @ N.basis).max() <= 1e-12 * np.abs(M).max()

    def test_complement_with_every_cross_gram_singular_value_one(self, monkeypatch):
        # a 455-dimensional A inside a 456-dimensional B: the cross-Gram of
        # their orthonormal bases has 455 singular values, all equal to 1
        rng = np.random.default_rng(7)
        n = 600
        G = Gram.diagonal(rng.uniform(0.5, 2.0, n))
        with monkeypatch.context() as m:
            self._forbid(m)
            B = Subspace.from_span(rng.standard_normal((n, 456)), G)
            A = Subspace.from_span(B.basis @ rng.standard_normal((456, 455)), G)
            C = gram_complement(A, B, G)
            E = gram_complement(B, B, G)
        s = scipy.linalg.svdvals(A.basis.T @ (G @ B.basis))
        assert s.size == 455 and np.abs(s - 1.0).max() <= 1e-12
        assert C.dim == 1 and E.dim == 0
        c = C.basis[:, 0]
        assert abs(c @ (G @ c) - 1.0) <= 1e-12
        assert np.abs(A.basis.T @ (G @ c)).max() <= 1e-12
        assert contains(B, C.basis, tol=1e-10)

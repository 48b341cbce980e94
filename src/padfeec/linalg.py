"""Dense linear-algebra substrate, with sparse Grams that carry their factor.

`solve_symmetric` is the one sparse-aware solve: it factors a sparse
system by SuperLU (through `sparse_lu`) and a dense one by LAPACK.
`null_vectors` takes a null space whose dimension is known in advance
from the lowest eigenvectors of M^T M: a dense `eigh`, or block inverse
iteration on one `sparse_lu` factor, certified on unsquared residuals.

Rank and nullspace detection with explicit relative tolerances, Gram-aware
orthonormalization, inf-sup constants, indices of closed range, the nonzero
eigenvalues of a singular pencil and principal angles between subspaces.
Every orthogonality notion goes through an explicit Gram matrix G = R^T R;
the Euclidean inner product is only the special case ``gram=None``.  A Gram
is a dense array (the oracles and tests use these) or a `Gram`, a sparse
block-diagonal matrix that owns its (cells, m, m) stack of blocks and their
upper Cholesky factors.  `spaces.P0Space` builds the diagonal Gram of its
volumes and `spaces.BrokenSpace` the Gram of its cells' stack; each `Gram`
factors its stack once, on first use, with `dense_factor`, and every batched
cell pass reads that stacked factor.  `gram_factor` hands out its
block-diagonal (R, R^-1), factors a dense Gram, and refuses a bare
`scipy.sparse` one.  Otherwise a Gram is only multiplied with bases.

The subspace algebra runs on Householder QR, which reveals rank without
iterating: `orthonormalize` takes one column-pivoted QR of the whitened span
R V, and `nullspace` one of M^T, forming only the columns past the cut.
Bases, nullspaces and the results are dense.  A `Subspace` keeps
its basis orthonormal in its own ``gram``; the subspace operations
orthonormalize only a subspace carrying another Gram.  `principal_angles`
takes the projection-residual sines first and the cosines only when some
angle is large.  A Gram that is not SPD raises `InvalidGram` wherever it is
factored.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (
    InvalidGram,
    InvalidMatrix,
    NotClosedRange,
    SolverFailure,
    ToleranceFailure,
)

RANK_TOL = 1e-10
EIG_TOL = 1e-10


def _as_matrix(M):
    """A dense float 2-d array; a sparse operand is made dense to be factored."""
    M = np.asarray(M.toarray() if scipy.sparse.issparse(M) else M, dtype=float)
    if M.ndim != 2:
        raise InvalidMatrix("expected a 2-d array, got shape %s" % (M.shape,))
    if not np.all(np.isfinite(M)):
        raise InvalidMatrix("matrix has non-finite entries")
    return M


def _as_gram(gram):
    """A Gram as given if it is None, a `Gram` or sparse, else as a dense float array."""
    if gram is None or isinstance(gram, Gram) or scipy.sparse.issparse(gram):
        return gram
    return np.asarray(gram, dtype=float)


class Gram:
    """A sparse block-diagonal SPD Gram that owns its cell blocks and their factor.

    The space that builds a Gram builds it from the (cells, m, m) ``stack``
    of its blocks: the 1 x 1 volumes of a piecewise-constant space, the cell
    Grams of a broken space.  Each block's upper Cholesky factor G_K =
    R_K^T R_K is computed on first use, once: `stack_factor` hands the
    stacks (R_K, R_K^-1) to the batched cell passes, and `gram_factor`
    hands out the block-diagonal (R, R^-1) built from them.  A Gram
    multiplies like its sparse ``matrix``: ``G @ x``, ``x @ G`` and ``-G``
    give what the matrix gives.
    """

    __array_ufunc__ = None  # ``ndarray @ G`` defers to ``__rmatmul__``

    def __init__(self, stack):
        self.stack = stack
        self.matrix = block_diagonal(stack)

    @classmethod
    def diagonal(cls, d):
        """The diagonal Gram of ``d``, a stack of 1 x 1 blocks."""
        return cls(np.asarray(d, dtype=float)[:, None, None])

    @cached_property
    def stack_factor(self):
        """(R_K, R_K^-1) of every block, as (cells, m, m) stacks."""
        return dense_factor(self.stack)

    @cached_property
    def factor(self):
        """(R, R^-1), block-diagonal from `stack_factor`."""
        return tuple(block_diagonal(F) for F in self.stack_factor)

    def __matmul__(self, other):
        return self.matrix @ other

    def __rmatmul__(self, other):
        return other @ self.matrix

    def __neg__(self):
        return -self.matrix


@dataclass
class Subspace:
    """A subspace of R^ambient_dim, columns of ``basis`` spanning it.

    Invariant: ``basis`` is orthonormal in ``gram``, the ambient Gram matrix
    the subspace carries, or Euclidean-orthonormal when ``gram`` is None.
    Every constructor here keeps it; a caller building one directly must too.
    """

    ambient_dim: int
    basis: np.ndarray
    gram: "np.ndarray | Gram | None" = field(default=None, repr=False)

    @property
    def dim(self):
        return self.basis.shape[1]

    @classmethod
    def from_span(cls, vectors, gram=None, tol=RANK_TOL):
        """Gram-orthonormalize the columns of ``vectors`` and drop the rank deficit."""
        V = _as_matrix(vectors)
        Q = orthonormalize(V, gram, tol)
        return cls(V.shape[0], Q, gram)


def orthonormalize(V, gram=None, tol=RANK_TOL):
    """Return a gram-orthonormal basis of span(columns of V), rank-trimmed.

    With gram = R^T R, one column-pivoted Householder QR of R V keeps the
    leading columns whose |R_ii| exceeds sqrt(tol) |R_11|, the singular-value
    form of a relative eigenvalue cut ``tol`` on V^T G V, and maps them back
    by R^-1.
    """
    V = _as_matrix(V)
    R, Rinv = gram_factor(gram)
    W = V if R is None else R @ V
    reflectors, tau, rdiag = _householder(W)
    Q = _leading_columns(reflectors, tau, _leading_rank(rdiag, np.sqrt(tol)))
    return Q if Rinv is None else Rinv @ Q


def gram_factor(gram):
    """(R, R^-1) for the upper Cholesky factor R of ``gram`` = R^T R.

    A `Gram` hands out the factor it carries; a dense 2-d Gram is factored
    here.  The Euclidean ``gram=None`` gives (None, None).  A bare
    `scipy.sparse` Gram is refused: its factor belongs to the space that
    built it.  A Gram that is not positive definite raises InvalidGram.
    """
    if gram is None:
        return None, None
    if isinstance(gram, Gram):
        return gram.factor
    if scipy.sparse.issparse(gram):
        raise InvalidGram("a sparse gram matrix must come as a Gram carrying its factor")
    return dense_factor(_as_matrix(gram))


def block_diagonal(blocks):
    """Sparse CSR array with the (cells, r, c) stack ``blocks`` along its diagonal.

    Zeros are not stored; the CSR arrays are written straight from the stack.
    """
    cells, r, c = blocks.shape
    data = blocks.reshape(cells * r, c)
    columns = np.broadcast_to(
        (np.arange(cells)[:, None] * c + np.arange(c))[:, None, :], (cells, r, c)
    ).reshape(cells * r, c)
    keep = data != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return scipy.sparse.csr_array(
        (data[keep], columns[keep], indptr), shape=(cells * r, cells * c)
    )


def diagonal_blocks(M, r, c):
    """(cells, r, c) stack of the diagonal blocks of a block-diagonal sparse array."""
    cells = M.shape[0] // r if r else M.shape[1] // c
    out = np.zeros((cells, r, c))
    coo = M.tocoo()
    cell = coo.row // r
    out[cell, coo.row % r, coo.col - cell * c] = coo.data
    return out


def abs_max(M):
    """Largest |entry| of a dense or sparse matrix, 0 if it has none, with no
    temporary of its size."""
    M = M.data if scipy.sparse.issparse(M) else np.asarray(M)
    return float(max(M.max(initial=0.0), -M.min(initial=0.0)))


def unit_columns(V, gram):
    """The dense or sparse V with each nonzero column divided by its norm in ``gram``.

    A zero column, such as d of a closed basis function, stays zero.  A
    sparse V gives a CSC array.
    """
    sparse = scipy.sparse.issparse(V)
    squares = (V.multiply(gram @ V) if sparse else V * (gram @ V)).sum(axis=0)
    norms = np.sqrt(np.asarray(squares).ravel())
    norms[norms == 0.0] = 1.0
    if not sparse:
        return V / norms
    V = scipy.sparse.csc_array(V, copy=True)
    V.data /= np.repeat(norms, np.diff(V.indptr))
    return V


def dense_factor(G):
    """Upper Cholesky factor R and R^-1 of a Gram, or batched over a stack of Grams."""
    try:
        R = np.linalg.cholesky(G, upper=True)
    except np.linalg.LinAlgError:
        raise InvalidGram("gram matrix is not positive definite") from None
    return R, np.linalg.inv(R)


def _householder(A):
    """Column-pivoted Householder QR of A (``geqp3``): the LAPACK reflectors,
    their tau and |diag R|, which is non-increasing and reveals the rank."""
    A = np.array(A, dtype=float, order="F")
    if min(A.shape) == 0:
        return A, np.zeros(0), np.zeros(0)
    routine = scipy.linalg.lapack.dgeqp3
    out = routine(A, lwork=_lwork(routine, A, overwrite_a=1), overwrite_a=1)
    if out[-1] != 0:
        raise InvalidMatrix("Householder QR failed (info %d)" % out[-1])
    qr, tau = out[0], out[-3]
    return qr, tau, np.abs(np.diag(qr))


def _leading_rank(rdiag, rel_tol):
    """Count of the leading |R_ii| above rel_tol |R_11|."""
    if rdiag.size == 0 or rdiag[0] == 0.0:
        return 0
    small = rdiag <= rel_tol * rdiag[0]
    return int(np.argmax(small)) if small.any() else rdiag.size


def _leading_columns(reflectors, tau, r):
    """The first r columns of Q; the reflectors past r leave them unchanged."""
    if r == 0:
        return np.zeros((reflectors.shape[0], 0))
    orgqr = scipy.linalg.lapack.dorgqr
    a, t = reflectors[:, :r], tau[:r]
    q, _, info = orgqr(a, t, lwork=_lwork(orgqr, a, t, overwrite_a=1))
    if info != 0:
        raise InvalidMatrix("forming Q failed (info %d)" % info)
    return q


def _trailing_columns(reflectors, tau, r):
    """Columns r.. of the full square Q of the reflectors."""
    n = reflectors.shape[0]
    E = np.zeros((n, n - r), order="F")
    E[r:, :] = np.eye(n - r)
    if tau.size == 0 or n == r:
        return E
    a = reflectors[:, : tau.size]
    lwork = _lwork(scipy.linalg.lapack.dormqr, "L", "N", a, tau, E, overwrite_c=1)
    return scipy.linalg.lapack.dormqr("L", "N", a, tau, E, lwork, overwrite_c=1)[0]


def _lwork(routine, *args, **overwrite):
    """LAPACK's optimal workspace for ``routine`` on ``args``.

    A workspace query reads no array, so the overwrite flags spare a copy.
    """
    return int(routine(*args, lwork=-1, **overwrite)[-2][0])


def rank(M, tol=RANK_TOL):
    """Numerical rank with a relative singular-value threshold."""
    M = _as_matrix(M)
    if min(M.shape) == 0:
        return 0
    s = scipy.linalg.svdvals(M)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def nullspace(M, tol=RANK_TOL):
    """Euclidean-orthonormal basis of {v : ||Mv|| <= tol ||M|| ||v||} as a Subspace.

    One column-pivoted Householder QR of M^T: its rank r counts the |R_ii|
    above tol |R_11|, and the trailing columns of the full Q span the kernel.
    """
    return pivoted_nullspace(M, tol)[0]


def pivoted_nullspace(M, tol=RANK_TOL):
    """`nullspace` of M and the |diag R| of its pivoted QR, which show the gap at the cut."""
    M = _as_matrix(M)
    n = M.shape[1]
    reflectors, tau, rdiag = _householder(M.T)
    return Subspace(n, _trailing_columns(reflectors, tau, _leading_rank(rdiag, tol))), rdiag


def null_vectors(M, nullity, sparse=False, tol=RANK_TOL):
    """Euclidean-orthonormal basis of the null space of M, whose dimension is known.

    The ``nullity`` + 1 lowest eigenvectors of L = M^T M are taken: from a
    dense `eigh` of L, or with ``sparse`` by `_inverse_iteration` on one
    sparse LU.  The rank decision is `nullspace`'s, on unsquared residuals:
    with the scale the largest row norm of M (the |R_11| of `nullspace`'s
    pivoted QR), the first ``nullity`` vectors must have ||M v|| <= tol *
    scale and the next one must not, else ToleranceFailure.  Returns the
    basis and the residuals of all the vectors taken, relative to the scale.
    """
    n = M.shape[1]
    if not 0 <= nullity <= n:
        raise ToleranceFailure("nullity %d outside 0..%d" % (nullity, n))
    count = min(nullity + 1, n)
    if not sparse:
        M = _as_matrix(M)
    if count == 0:
        V = np.zeros((0, 0))
    elif sparse:
        V = _inverse_iteration(scipy.sparse.csc_array(M.T @ M), count)
    else:
        V = scipy.linalg.eigh(M.T @ M, subset_by_index=[0, count - 1])[1]
    rows = M.multiply(M).sum(axis=1) if scipy.sparse.issparse(M) else np.sum(M * M, axis=1)
    scale = float(np.sqrt(np.max(rows, initial=0.0)))
    resid = np.linalg.norm(M @ V, axis=0) / (scale if scale > 0.0 else 1.0)
    if nullity and resid[nullity - 1] > tol:
        raise ToleranceFailure(
            "nullity %d: null vector %d has residual %.3e of the scale, above %.0e"
            % (nullity, nullity, resid[nullity - 1], tol)
        )
    if count > nullity and resid[nullity] <= tol:
        raise ToleranceFailure(
            "nullity %d: vector %d has residual %.3e of the scale, within %.0e"
            % (nullity, nullity + 1, resid[nullity], tol)
        )
    return V[:, :nullity], resid


# the shift of `_inverse_iteration` relative to ||L||_1, and its steps
_SHIFT = 1e-10
_INVERSE_STEPS = 3


def _inverse_iteration(L, count):
    """The ``count`` lowest eigenvectors of the sparse symmetric PSD L, ascending.

    Block inverse iteration on one sparse LU of L + s I, s = `_SHIFT`
    ||L||_1, from a pseudo-random start block of fixed seed, then one
    Rayleigh-Ritz step on L (Saad, Numerical Methods for Large Eigenvalue
    Problems, SIAM 2011).
    Each step damps an eigenvector of eigenvalue lambda by s / (lambda + s)
    against the null vectors.
    """
    n = L.shape[0]
    shift = _SHIFT * float(abs(L).sum(axis=0).max(initial=0.0)) or 1.0  # any shift of L = 0
    lu = sparse_lu(L + scipy.sparse.diags_array(np.full(n, shift), format="csc"))
    X = np.random.default_rng(0).standard_normal((n, count))
    for _ in range(_INVERSE_STEPS):
        X = np.linalg.qr(lu.solve(X))[0]
    H = X.T @ (L @ X)
    return X @ scipy.linalg.eigh(0.5 * (H + H.T))[1]


def sparse_lu(A):
    """SuperLU factor (`splu`) of the sparse A; a failed factor raises SolverFailure."""
    # imported here: it costs the commands that factor nothing sparse 2 MB and 35 modules
    from scipy.sparse.linalg import splu

    try:
        return splu(A)
    except RuntimeError as exc:
        raise SolverFailure("sparse LU failed: %s" % exc) from None


def principal_angles(A: Subspace, B: Subspace, gram=None):
    """Principal angles (radians, ascending) between two subspaces w.r.t. ``gram``.

    Uses projection-residual sines for small angles, so angles near 0 are
    resolved to machine precision, and cosines for large ones.  The sines
    come first: when all of them are below 0.7, every cosine is above
    1/sqrt(2) and every angle is an arcsine, so the cosines are not taken.
    """
    if A.ambient_dim != B.ambient_dim:
        raise InvalidMatrix("subspaces live in different ambient dimensions")
    p, q = A.dim, B.dim
    m = min(p, q)
    if m == 0:
        return np.zeros(0)
    Qa = _orthonormal_basis(A, gram)
    Qb = _orthonormal_basis(B, gram)
    # sines from the projection residual of the smaller space, ascending; with
    # gram = F^T F its gram-norms are the Euclidean norms of F R
    # (Knyazev-Argentati A-based sines)
    small, big = (Qa, Qb) if p <= q else (Qb, Qa)
    R = small - big @ (big.T @ (small if gram is None else gram @ small))
    if gram is not None:
        R = gram_factor(gram)[0] @ R
    sin_vals = np.sort(np.clip(scipy.linalg.svdvals(R), 0.0, 1.0))
    if sin_vals[-1] < 0.7:
        return np.sort(np.arcsin(sin_vals))
    # Bjorck-Golub cosines, descending: cos(t_1) >= ...
    cos_vals = scipy.linalg.svdvals(_cross_gram(Qa, gram, Qb))
    cos_vals = np.clip(cos_vals[:m], 0.0, 1.0)
    angles = np.where(
        cos_vals > np.sqrt(0.5), np.arcsin(sin_vals[:m]), np.arccos(cos_vals)
    )
    return np.sort(angles)


def _orthonormal_basis(S: Subspace, gram):
    """S's basis if S carries ``gram``, else a ``gram``-orthonormal basis of S."""
    return S.basis if S.gram is gram else orthonormalize(S.basis, gram)


def _cross_gram(A, gram, B):
    return A.T @ B if gram is None else A.T @ (gram @ B)


def subspace_equal(A: Subspace, B: Subspace, gram=None, tol=1e-8):
    """(flag, max_angle): equal dimension and all principal angles <= tol."""
    if A.dim != B.dim:
        ang = principal_angles(A, B, gram)
        worst = float(ang[-1]) if ang.size else np.pi / 2
        return False, worst
    if A.dim == 0:
        return True, 0.0
    ang = principal_angles(A, B, gram)
    worst = float(ang[-1])
    return worst <= tol, worst


def infsup(A: Subspace, B: Subspace, gram=None):
    """inf over a in A of sup over b in B of <a,b>/(|a||b|) in the gram inner product.

    Returns 0.0 when either side is trivial or when dim A exceeds dim B.  When
    the dimensions agree the value is symmetric in A and B.
    """
    gram = _as_gram(gram)
    if A.dim == 0 or B.dim == 0:
        return 0.0
    if A.dim > B.dim:
        return 0.0
    Qa = _orthonormal_basis(A, gram)
    Qb = _orthonormal_basis(B, gram)
    s = scipy.linalg.svdvals(_cross_gram(Qa, gram, Qb))
    return float(np.clip(s[A.dim - 1], 0.0, 1.0))


def icr_of(T, V, gram_x=None, gram_y=None, eig_tol=EIG_TOL):
    """Index of closed range of T restricted to the span of the columns of V.

    Computes sup |v|_X / |Tv|_Y over the X-orthogonal complement of the kernel
    inside span V; returns 0.0 when that complement is trivial.  V, dense or
    sparse, need only have independent columns: the pencil (K, M), K = (T V)^T
    G_y (T V) and M = V^T G_x V, has the same eigenvalues on every basis of
    the span.
    """
    if not scipy.sparse.issparse(T):
        T = _as_matrix(T)
    if V.shape[1] == 0:
        return 0.0
    TV = T @ V
    K = _as_matrix(_cross_gram(TV, _as_gram(gram_y), TV))
    M = _as_matrix(_cross_gram(V, _as_gram(gram_x), V))
    w = scipy.linalg.eigh(0.5 * (K + K.T), 0.5 * (M + M.T), eigvals_only=True)
    wmax = max(w[-1], 0.0)
    if wmax <= 0.0:
        return 0.0
    cut = eig_tol * wmax
    positive = w[w > cut]
    if positive.size == 0:
        return 0.0
    lam_min = float(positive[0])
    if lam_min <= eig_tol:
        raise NotClosedRange(
            "restricted stiffness nearly singular (lambda_min=%.3e)" % lam_min
        )
    return 1.0 / np.sqrt(lam_min)


def pencil_nonzero_eigs(K, M, rel_tol=1e-9):
    """Finite nonzero eigenvalues of the PSD pencil K v = lambda M v.

    Handles a singular M by the shifted symmetric reduction M v = theta
    (K + M) v; finite eigenvalues are (1-theta)/theta.  K + M must be
    positive definite, so that K and M share no kernel; otherwise
    SolverFailure.  Returns the sorted nonzero eigenvalues and the count of
    zero eigenvalues (theta ~ 1).
    """
    K = _as_matrix(K)
    M = _as_matrix(M)
    if K.shape[0] == 0:
        return np.zeros(0), 0
    sK = max(np.abs(K).max(), 1e-300)
    sM = max(np.abs(M).max(), 1e-300)
    A, B = 0.5 * (K + K.T), 0.5 * (M + M.T)
    S = A / sK + B / sM
    try:
        theta = scipy.linalg.eigh(B / sM, 0.5 * (S + S.T), eigvals_only=True)
    except np.linalg.LinAlgError:
        raise SolverFailure("K + M of the pencil is not positive definite") from None
    theta = np.clip(theta, 0.0, 1.0)
    lam = np.full_like(theta, np.inf)
    pos = theta > rel_tol
    lam[pos] = (1.0 - theta[pos]) / theta[pos] * (sK / sM)
    finite = lam[np.isfinite(lam)]
    zero_count = int(np.sum(np.abs(finite) <= rel_tol * max(finite.max(initial=1.0), 1.0)))
    nonzero = np.sort(finite[np.abs(finite) > rel_tol * max(finite.max(initial=1.0), 1.0)])
    return nonzero, zero_count


def solve_symmetric(A, b, refine=True):
    """Symmetric-indefinite solve with one step of iterative refinement.

    A `scipy.sparse` A is factored by SuperLU (`splu`), a dense one by
    LAPACK's LU; an exactly singular factor of either raises SolverFailure.
    Returns (x, relative_residual, condition_estimate).  The
    condition estimate is ||A||_1 times `_inverse_norm1`'s estimate of
    ||A^-1||_1 through the factor held, rounded to 6 significant digits so
    that reports stay byte-for-byte deterministic.
    """
    b = np.asarray(b, dtype=float)
    sparse = scipy.sparse.issparse(A)
    A = scipy.sparse.csc_array(A, dtype=float) if sparse else _as_matrix(A)
    if sparse and not np.all(np.isfinite(A.data)):
        raise InvalidMatrix("matrix has non-finite entries")
    if A.shape[0] == 0:
        return np.zeros(0), 0.0, 1.0
    if sparse:
        solve = sparse_lu(A).solve
        anorm = float(abs(A).sum(axis=0).max())
    else:
        # the norm's |A| temporary is freed before LAPACK copies A into its factor
        anorm = float(np.linalg.norm(A, 1))
        factor = scipy.linalg.lu_factor(A)
        if not np.all(np.diagonal(factor[0])):
            raise SolverFailure("dense LU failed: Factor is exactly singular")

        def solve(r, trans="N"):
            return scipy.linalg.lu_solve(factor, r, trans="NT".index(trans))

    x = solve(b)
    if refine:
        x = x + solve(b - A @ x)
    bnorm = max(np.linalg.norm(b), 1e-300)
    rel = float(np.linalg.norm(b - A @ x) / bnorm)
    cond = anorm * _inverse_norm1(solve, A.shape[0])
    return x, rel, float("%.6g" % cond) if np.isfinite(cond) else np.inf


def _inverse_norm1(solve, n, itmax=5):
    """Lower estimate of ||A^-1||_1 from ``solve(r, trans)`` with A's factor.

    Higham and Tisseur's block 1-norm estimator (SIAM J. Matrix Anal. Appl.
    21(4), 2000, Algorithm 2.4) with one probe column, which starts from the
    constant vector and so draws no random one: the steps of
    `scipy.sparse.linalg.onenormest(A^-1, t=1)`, without importing that
    package into every solve.
    """
    if n == 1:
        return float(abs(solve(np.ones(1))[0]))
    x = np.full(n, 1.0 / n)
    s = np.zeros(n)
    est_old, j = 0.0, None
    for k in range(1, itmax + 2):
        y = solve(x)
        est = float(np.abs(y).sum())
        if k >= 2 and est <= est_old:
            return est_old
        est_old = est
        if k > itmax:
            break
        s_new = np.where(y >= 0.0, 1.0, -1.0)
        if s_new @ s == n:  # the same signs as the last step: a local maximum
            break
        s = s_new
        h = np.abs(solve(s, "T"))
        if k >= 2 and h.max() == h[j]:
            break
        j = int(np.argsort(h)[-1])
        x = np.zeros(n)
        x[j] = 1.0
    return est_old

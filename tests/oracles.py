"""Oracle helpers that several test modules share.

`jittered` gives every cell of a structured mesh its own shape, so that a
mapping error cannot hide behind congruent cells; `ladder_locals` builds
the cells' trimmed `LocalSpace`s of a broken space with the ladder's Grams;
`decompose_pair` runs `decompose_local` on one cell's pair of local spaces.
`fast_local_constants` and `cell_icr` are the per-cell base-pair constants
that the batched report is compared with; `is_independent`,
`canonically_equal`, `max_diameter` and `roundtrip` are checks that only
the tests make.  `betti_numbers` is the mesh's topology from exact integer
ranks of its chain boundary matrices, independent of any finite element;
`boundary_matrix_by_loop` writes those matrices one face at a time.
`harmonic_by_complement` takes a harmonic space as the complement of the
range in the kernel, and `slices_by_complement` the four slices of the
horizontal duality as complements of ranges and kernels: the route the
stacked nullspaces replaced.  Its pieces are here too: `_complex_kernel`
and `_complex_range` span a kernel or range of a complex by pivoted QR,
`gram_complement` takes the complement of one subspace in another, and
`contains` tests a span.
`_domain_kernel_p0` takes the kernel of d or delta on a basis of its
domain by one pivoted QR, and `helmholtz_by_domain_kernels` builds both
Helmholtz splits with it: the route the Hodge pieces replaced.
`broken_kernel_p0` spans the kernel of a cellwise operator on the whole
broken space, and `full_range_hypotheses` checks the Helmholtz hypotheses
on the whole P0 spaces with it: the oracle of the reference-block check.
`constraint_atlas_source` and `constraint_atlas_hodge` solve every scheme
on the dense constraint-route atlases (`DeRhamLadder.abc`, the Whitney and
star atlases), assembled dense and factored by LAPACK: the oracle of the
sparse compact-basis solves.
`dense_whitney_atlas`, `dense_star_atlas` and `dense_constraints` write
the Whitney atlas, the starred atlas and the constraint matrix as dense
arrays, the star by reshaping the atlas into cell blocks: the oracle of
the CSC arrays that the ladder builds from the cell blocks.
`constraint_route_pair` is the base pair on the Gram-orthonormal
constraint-route atlas and the orthonormalized partner atlas, and
`constraint_route_eigen` the eigen pencils on the constraint-route atlases,
with `common_kernel_pencil_eigs` removing a common kernel of K and M by a
pivoted QR of the stacked [K; M]: the oracles of the compact-basis pair and
pencils.
`trace_mismatch_all_columns` compares every atlas column on every interior
facet: the oracle of `spaces.verify_trace_continuity`, which compares only
the columns that live on one of the facet's two cells.
"""

import json
import math

import numpy as np
import scipy.linalg
import scipy.sparse

from padfeec.adjoint import (
    _FLAVORS,
    OperatorPair,
    _assemble_report,
    _combined,
    _complex_space,
    _full_ranges,
    _p0_coords,
    _reference_kernel,
    harmonic_space,
)
from padfeec.errors import AssemblyError, InvalidMatrix, NotAComplex, NotAdmissible, NotNested
from padfeec.linalg import (
    RANK_TOL,
    Gram,
    Subspace,
    _cross_gram,
    _orthonormal_basis,
    abs_max,
    gram_factor,
    nullspace,
    orthonormalize,
    subspace_equal,
    unit_columns,
)
from padfeec.local import (
    LocalSpace,
    decompose_local,
    pairing_matrix,
    reference_star,
    trimmed_local,
    whitney_coefficients,
)
from padfeec.forms import reference_simplex, trace_on
from padfeec.mesh import Mesh, generate_structured
from padfeec.report import Report, emit
from padfeec.spaces import d_pairing, ladder, whitney_dofs


def jittered(mesh, seed, amount, everywhere=False):
    """A copy of a unit-box mesh with its vertices moved by up to ``amount``.

    Only interior vertices move unless ``everywhere``; either way every cell
    gets its own shape, so a mapping error cannot hide behind congruent cells.
    """
    rng = np.random.default_rng(seed)
    V = np.array(mesh.vertices, dtype=float)
    movable = np.ones(len(V), dtype=bool) if everywhere else np.all((V > 0) & (V < 1), axis=1)
    V[movable] += rng.uniform(-amount, amount, size=(int(movable.sum()), mesh.dim))
    return Mesh(mesh.dim, V, mesh.cells)


# box:4 with interior vertices moved; tetbox:1 has none, so all of its move
JITTERED = [
    ("box4-jittered", jittered(generate_structured(2, 4), 7, 0.04)),
    ("tetbox1-jittered", jittered(generate_structured(3, 1), 8, 0.1, everywhere=True)),
]


def decompose_pair(primal, dual):
    """The `LocalDecomposition` of one cell's pair of local spaces."""
    (dec,) = decompose_local(
        Gram(primal.gram()[None]), primal.energy_gram()[None],
        Gram(dual.gram()[None]), dual.energy_gram()[None],
        pairing_matrix(primal, dual)[None],
    )
    return dec


def ladder_locals(broken):
    """Every cell's trimmed `LocalSpace` of a broken space, with the ladder's Grams.

    Each space takes its Gram and energy Gram from the broken space's
    stacks, so a route compared on them differs only in what it does with
    the Grams.
    """
    spaces = []
    for i, (G, E) in enumerate(zip(broken.gram_blocks(), broken.energy_blocks())):
        sp = trimmed_local(broken.mesh.cell_geometry(i), broken.k, broken.name)
        sp._gram, sp._energy = G, E
        spaces.append(sp)
    return spaces


def is_independent(space: LocalSpace, tol=RANK_TOL):
    """True if the local space's basis is independent in the graph norm."""
    w = np.linalg.eigvalsh(space.gram() + space.energy_gram())
    return w[0] > tol * max(w[-1], 1e-30)


def pairing_singular_values(B):
    """Singular values of a cell pairing block, scaled by its largest entry."""
    return np.linalg.svd(B / max(np.abs(B).max(initial=0.0), 1e-30), compute_uv=False)


def pairing_null_dims(p, q, sv):
    """Dimensions of the two pairing-null parts of a p x q cell pairing block.

    ``sv`` are its singular values from `pairing_singular_values`; both parts
    are trivial exactly when the block is square and nonsingular.
    """
    r = int(np.sum(sv > 1e-10))
    return p - r, q - r


def fast_local_constants(primal: LocalSpace, dual: LocalSpace, B=None):
    """(alpha_K, beta_K, gamma_K) on one cell whose pairing-null parts are trivial.

    ``B`` is the cell pairing block, `pairing_matrix` when None.  A singular
    or non-square block has a nontrivial pairing-null part, which raises
    NotAdmissible.  The kernels and ranges are found on this cell alone,
    with the images expanded in the other side's basis.
    """
    B = pairing_matrix(primal, dual) if B is None else B
    p, q = primal.dim, dual.dim
    if pairing_null_dims(p, q, pairing_singular_values(B)) != (0, 0):
        raise NotAdmissible("cell pairing block has a nontrivial pairing-null part")
    delta_imgs = np.column_stack(
        [primal.expand(dual.op_image(j)) for j in range(q)]
    ) if q else np.zeros((p, 0))
    d_imgs = np.column_stack(
        [dual.expand(primal.op_image(i)) for i in range(p)]
    ) if p else np.zeros((q, 0))
    Mp, Ep, Md, Ed = primal.gram(), primal.energy_gram(), dual.gram(), dual.energy_gram()

    def pair_infsup(A, Bc, M):
        if A.shape[1] == 0 and Bc.shape[1] == 0:
            return 1.0
        if A.shape[1] != Bc.shape[1]:
            return 0.0
        s = np.linalg.svd(A.T @ M @ Bc, compute_uv=False)
        return float(np.clip(s[-1], 0.0, 1.0))

    alpha = pair_infsup(orthonormalize(nullspace(Ep).basis, Mp), orthonormalize(delta_imgs, Mp), Mp)
    beta = pair_infsup(orthonormalize(nullspace(Ed).basis, Md), orthonormalize(d_imgs, Md), Md)
    Gp, Gq = Mp + Ep, Md + Ed
    Lp = np.linalg.cholesky(0.5 * (Gp + Gp.T))
    Lq = np.linalg.cholesky(0.5 * (Gq + Gq.T))
    C = np.linalg.solve(Lp, np.linalg.solve(Lq, B.T).T)
    return alpha, beta, float(np.linalg.svd(C, compute_uv=False)[min(B.shape) - 1])


def cell_icr(T_block, M_local, range_gram_scale, eig_tol):
    """Index of closed range of one cell's stiffness block, whitened by its Gram.

    With the cell's upper Cholesky factor M_local = R^T R the whitened
    stiffness is R^-T K R^-1.
    """
    K = T_block.T @ T_block * range_gram_scale
    Rinv = np.linalg.inv(np.linalg.cholesky(M_local, upper=True))
    w = np.linalg.eigvalsh(Rinv.T @ K @ Rinv)
    wmax = max(w[-1], 0.0)
    if wmax <= 0.0:
        return 0.0
    positive = w[w > eig_tol * wmax]
    if positive.size == 0:
        return 0.0
    return 1.0 / np.sqrt(float(positive[0]))


def canonically_equal(mesh_a, mesh_b, decimals=9):
    """Equality of meshes up to a permutation of vertex labels."""
    if mesh_a.dim != mesh_b.dim or mesh_a.num_vertices != mesh_b.num_vertices:
        return False
    if mesh_a.num_cells != mesh_b.num_cells:
        return False

    def canon(mesh):
        keys = [tuple(round(float(x), decimals) for x in v) for v in mesh.vertices]
        order = sorted(range(len(keys)), key=lambda i: keys[i])
        rank = {old: new for new, old in enumerate(order)}
        cells = sorted(tuple(sorted(rank[v] for v in cell)) for cell in mesh.cells)
        return [keys[i] for i in order], cells

    return canon(mesh_a) == canon(mesh_b)


# 2^31 - 1: the product of two residues fits in an int64
PRIME = 2_147_483_647


def rank_mod_prime(M, p=PRIME):
    """Exact rank of an integer matrix over the integers modulo the prime ``p``.

    Gaussian elimination on residues, so no tolerance enters.  It equals the
    rank over the rationals unless ``p`` divides every nonzero minor of
    that order.
    """
    A = np.asarray(M, dtype=np.int64) % p
    r = 0
    for c in range(A.shape[1]):
        if r == A.shape[0]:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), p - 2, p) % p
        below = r + 1 + np.flatnonzero(A[r + 1 :, c])
        A[below, c:] = (A[below, c:] - A[below, c : c + 1] * A[r, c:]) % p
        r += 1
    return r


def boundary_matrix_by_loop(mesh, k):
    """Dense integer chain boundary from k-chains to (k-1)-chains, one face at a time.

    The face of sub-simplex s without its j-th vertex gets (-1)^j: the
    oracle of the vectorized `Mesh.boundary_matrix`.
    """
    upper, lower = mesh.subsimplices(k), mesh.subsimplices(k - 1)
    D = np.zeros((lower.count, upper.count), dtype=int)
    for col, sub in enumerate(upper.simplices):
        for j in range(len(sub)):
            D[lower.index[sub[:j] + sub[j + 1 :]], col] += (-1) ** j
    return D


def betti_numbers(mesh, relative=False):
    """Betti numbers b_0..b_n of the mesh, or b_k(mesh, boundary) if ``relative``.

    b_k = dim C_k - rank of the boundary from C_k - rank of the boundary
    into C_k, from `Mesh.boundary_matrix`; the relative chains drop the
    boundary sub-simplices.
    """
    n = mesh.dim
    keep = [
        ~mesh.subsimplices(k).boundary if relative
        else np.ones(mesh.subsimplices(k).count, dtype=bool)
        for k in range(n + 1)
    ]
    ranks = [0] + [
        rank_mod_prime(mesh.boundary_matrix(k)[np.ix_(keep[k - 1], keep[k])].toarray())
        for k in range(1, n + 1)
    ] + [0]
    return [int(keep[k].sum()) - ranks[k] - ranks[k + 1] for k in range(n + 1)]


def harmonic_by_complement(mesh, k, flavor):
    """The harmonic k-forms of ``flavor`` as the complement of the range in the kernel.

    The kernel and the range one degree down are taken separately, each
    by its own pivoted QR, the range is checked to lie in the kernel, and
    the complement is one more QR: the route the runtime's stacked
    nullspace replaced.
    """
    complex_, bc = _FLAVORS[flavor]
    lad = ladder(mesh)
    g = lad.p0(k).gram
    N = _complex_kernel(lad, complex_, k, bc)
    R = _complex_range(lad, complex_, k + 1 if complex_ == "star" else k - 1, bc)
    if R.dim and not contains(N, R.basis, tol=1e-8):
        raise NotAComplex("range is not contained in the kernel (flavor %s)" % flavor)
    return gram_complement(R, N, g)


def slices_by_complement(mesh, k):
    """The four slices of `horizontal_duality_check`, each the complement of
    the homogeneous-bc range or kernel in the one with bc none.

    Returns {name: Subspace} for the range slice of d from degree k, the
    kernel slice of delta at degree k + 1, the range slice of delta from
    degree k + 1 and the kernel slice of d at degree k, each spanned by
    its own pivoted QR: the route the stacked nullspaces replaced.
    """
    lad = ladder(mesh)
    pieces = {
        "range_slice_high": (_complex_range, "abc", k, lad.p0(k + 1).gram),
        "kernel_slice_high": (_complex_kernel, "star", k + 1, lad.p0(k + 1).gram),
        "corange_slice_low": (_complex_range, "star", k + 1, lad.p0(k).gram),
        "kernel_slice_low": (_complex_kernel, "abc", k, lad.p0(k).gram),
    }
    out = {}
    for name, (span, complex_, j, g) in pieces.items():
        big, small = (span(lad, complex_, j, bc) for bc in ("none", "homogeneous"))
        out[name] = gram_complement(small, big, g)
    return out


def _complex_kernel(lad, complex_, k, bc):
    """Kernel of the complex's d (delta for 'star') at degree k, in P0 coordinates.

    Below the top degree the nonconforming space is null(C) for its
    constraint matrix C, and d vanishes on the broken space exactly on the
    constants J p (checked on the reference block), so the kernel is
    {p : C J p = 0}: with the P0 Gram R0^T R0, the null vectors N of
    C J R0^-1 give the Gram-orthonormal basis R0^-1 N.  The other kernels
    are taken on the atlas, handed over without orthonormalizing it.  Past
    the last operator (d at degree n, delta at degree 0) the kernel is the
    whole space, whose members are piecewise constant.
    """
    g = lad.p0(k).gram
    if complex_ == "abc" and k < lad.mesh.dim:
        if _reference_kernel(lad, lad.primal(k), lad.d_matrix(k)).shape[1] != lad.p0(k).ncomp:
            raise AssemblyError("d does not vanish exactly on the constants")
        Rinv = gram_factor(g)[1]
        CJ = lad.abc_constraints(k, bc).toarray() @ (lad.p0_injection(k) @ Rinv)
        ns = nullspace(CJ / max(np.abs(CJ).max(initial=0.0), 1e-300))
        return Subspace(ns.ambient_dim, Rinv @ ns.basis, g)
    gs = lad.abc(k, bc)[0] if complex_ == "abc" else _complex_space(lad, complex_, k, bc)
    atlas = gs.atlas.toarray() if scipy.sparse.issparse(gs.atlas) else gs.atlas
    if complex_ == "star":
        if k == 0:
            return Subspace.from_span(_p0_coords(lad, 0, lad.dual(0), atlas), g)
        return _domain_kernel_p0(lad, k, lad.dual(k), lad.delta_matrix(k), atlas)
    if k == lad.mesh.dim:
        return Subspace.from_span(atlas, g)
    return _domain_kernel_p0(lad, k, lad.primal(k), lad.d_matrix(k), atlas)


def _complex_range(lad, complex_, k, bc):
    """Range of the complex's d (delta for 'star') from degree k, in P0 coordinates.

    The nonconforming range is spanned by d of the compact basis, the
    others by the image of the atlas.  It is empty past the ends of the
    complex: from degree -1 for d, and from degree n+1 for delta.
    """
    if complex_ == "star":
        target = lad.p0(k - 1)
        if k > lad.mesh.dim:
            return zero_subspace(target.dim, target.gram)
        T = lad.delta_matrix(k)
    else:
        target = lad.p0(k + 1)
        if k < 0:
            return zero_subspace(target.dim, target.gram)
        T = lad.d_matrix(k)
    span = lad.abc_basis(k, bc) if complex_ == "abc" else _complex_space(lad, complex_, k, bc).atlas
    return Subspace.from_span(T @ span, target.gram)


def _domain_kernel_p0(lad, k, broken, T, basis):
    """Kernel of a broken-to-constant operator on span(``basis``), in P0 coordinates.

    The basis, dense or sparse, need only have independent columns; the
    kernel is one pivoted-QR `nullspace` of T times the basis.
    """
    TV = T @ basis
    ns = nullspace(TV / max(abs_max(TV), 1e-300))
    return Subspace.from_span(_p0_coords(lad, k, broken, basis @ ns.basis), lad.p0(k).gram)


def helmholtz_by_domain_kernels(pair):
    """`adjoint.helmholtz_check` of a pair whose hypotheses hold, on its domain kernels.

    Each domain kernel is `_domain_kernel_p0` of the pair's basis, and the
    range of the same operator is sized as the basis width less that
    kernel's dimension and measured on its unit-column spanning set.
    """
    mesh, k = pair.meta["mesh"], pair.meta["k"]
    lad = ladder(mesh)
    hypotheses, (range_full, range_adjoint_full) = _full_ranges(lad, k, pair)
    assert all(hypotheses)
    kernel_dom = _domain_kernel_p0(lad, k, lad.primal(k), pair.T, pair.domain)
    kernel_adj = _domain_kernel_p0(lad, k + 1, lad.dual(k + 1), pair.adjoint_T, pair.adjoint_domain)
    range_dom = unit_columns(pair.T @ pair.domain, lad.p0(k + 1).gram)
    range_adj = unit_columns(pair.adjoint_T @ pair.adjoint_domain, lad.p0(k).gram)
    low = _assemble_report(
        "helmholtz-low",
        {"range_adjoint_full": range_adjoint_full, "kernel_core": 0},
        {"range_adjoint_domain": (pair.adjoint_domain.shape[1] - kernel_adj.dim, range_adj),
         "kernel_domain": (kernel_dom.dim, kernel_dom.basis)},
        lad.p0(k),
    )
    high = _assemble_report(
        "helmholtz-high",
        {"range_full": range_full, "kernel_core": 0},
        {"range_domain": (pair.domain.shape[1] - kernel_dom.dim, range_dom),
         "kernel_adjoint_domain": (kernel_adj.dim, kernel_adj.basis)},
        lad.p0(k + 1),
    )
    return _combined("helmholtz", {"low": low, "high": high})


def full_subspace(n, gram=None):
    """The whole R^n; with gram = R^T R the columns of R^-1 are its basis."""
    Rinv = gram_factor(gram)[1]
    if Rinv is None:
        return Subspace(n, np.eye(n), gram)
    return Subspace(n, Rinv.toarray() if scipy.sparse.issparse(Rinv) else Rinv, gram)


def zero_subspace(n, gram=None):
    """The zero subspace of R^n."""
    return Subspace(n, np.zeros((n, 0)), gram)


def contains(sub, vectors, tol=1e-10):
    """True if every column of ``vectors`` lies in the span of ``sub`` at relative tolerance."""
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    if V.shape[0] != sub.ambient_dim:
        V = V.T

    def gram(X):
        return X if sub.gram is None else sub.gram @ X

    R = V - sub.basis @ (sub.basis.T @ gram(V))
    num = np.sqrt(np.abs(np.sum(R * gram(R), axis=0)))
    den = np.sqrt(np.abs(np.sum(V * gram(V), axis=0)))
    return bool(np.all(num <= tol * np.maximum(den, 1e-300)))


def gram_complement(A: Subspace, B: Subspace, gram=None, tol=RANK_TOL):
    """Orthogonal complement of A inside B with respect to ``gram``.

    Requires A to be contained in B at tolerance; the result has dimension
    dim B - dim A and is gram-orthogonal to A.
    """
    if A.ambient_dim != B.ambient_dim:
        raise InvalidMatrix("subspaces live in different ambient dimensions")
    n = A.ambient_dim
    Qb = _orthonormal_basis(B, gram)
    Bsub = Subspace(n, Qb, gram)
    if A.dim > 0 and not contains(Bsub, A.basis, tol=max(tol, 1e-9) * 1e3):
        raise NotNested("first subspace is not contained in the second")
    if A.dim == 0:
        return Subspace(n, Qb.copy(), gram)
    if A.dim > B.dim:
        raise NotNested("first subspace is larger than the second")
    Qa = _orthonormal_basis(A, gram)
    # With A inside B the transposed cross-Gram C^T (dim B x dim A) has
    # orthonormal columns, so its unpivoted QR has |R_ii| near 1 and the
    # trailing columns of the full Q are the B-coordinates of the
    # complement.  They are Euclidean-orthonormal, so Qb @ coords is
    # gram-orthonormal as it is.
    Q, R = scipy.linalg.qr(_cross_gram(Qa, gram, Qb).T)
    if np.any(np.abs(np.diag(R)) <= 1e-8):
        raise NotNested("first subspace is not contained in the second")
    return Subspace(n, Qb @ Q[:, A.dim:], gram)


def broken_kernel_p0(lad, k, broken, T):
    """Kernel of a cellwise operator on the whole broken space, in P0 coordinates.

    The reference block's kernel coordinates, orthonormalized once and scaled
    by 1/sqrt(volume) per cell, are orthonormal in the P0 Gram.
    """
    p0, cells = lad.p0(k), lad.mesh.num_cells
    Q = orthonormalize(_reference_kernel(lad, broken, T))
    basis = np.zeros((cells, p0.ncomp, cells, Q.shape[1]))
    every = np.arange(cells)
    basis[every, :, every, :] = Q / np.sqrt(p0.volumes)[:, None, None]
    return Subspace(p0.dim, basis.reshape(p0.dim, cells * Q.shape[1]), p0.gram)


def full_range_hypotheses(pair):
    """The Helmholtz hypotheses and full-range dimensions, on the whole P0 spaces.

    ((R(T) = N(T*), R(T*) = N(T)), (dim R(T), dim R(T*))) as `adjoint._full_ranges`
    gives them, with each range spanned by the whole broken operator and
    each kernel by `broken_kernel_p0`, compared by principal angles in the
    P0 Gram at 1e-9: the route the reference-block comparison replaced.
    """
    mesh, k = pair.meta["mesh"], pair.meta["k"]
    lad = ladder(mesh)
    g_lo, g_hi = lad.p0(k).gram, lad.p0(k + 1).gram
    R_full = Subspace.from_span(pair.T, g_hi)
    R_full_adj = Subspace.from_span(pair.adjoint_T, g_lo)
    N_full_adj = broken_kernel_p0(lad, k + 1, lad.dual(k + 1), pair.adjoint_T)
    N_full = broken_kernel_p0(lad, k, lad.primal(k), pair.T)
    hypotheses = (
        subspace_equal(R_full, N_full_adj, g_hi, tol=1e-9)[0],
        subspace_equal(R_full_adj, N_full, g_lo, tol=1e-9)[0],
    )
    return hypotheses, (R_full.dim, R_full_adj.dim)


def max_diameter(mesh):
    """The largest cell diameter of a mesh."""
    return max(mesh.cell_geometry(i).diameter for i in range(mesh.num_cells))


def roundtrip(report: Report):
    """Parse the JSON emission back into plain data (lossless by design)."""
    return json.loads(emit(report, "json").decode())


def _dense_block_solve(sizes, blocks, rhs_blocks):
    """Solve the symmetric block system of `solve._block_system`, dense, by LU.

    Returns the solution's blocks.
    """
    ends = np.cumsum(sizes)
    slices = [slice(int(e - n), int(e)) for n, e in zip(sizes, ends)]
    K = np.zeros((int(ends[-1]),) * 2)
    for (i, j), B in blocks.items():
        B = B.toarray() if scipy.sparse.issparse(B) else np.asarray(B)
        K[slices[i], slices[j]] = B
        if i != j:
            K[slices[j], slices[i]] = B.T
    rhs = np.zeros(K.shape[0])
    for i, b in rhs_blocks.items():
        rhs[slices[i]] = b
    x = scipy.linalg.solve(K, rhs)
    return [x[sl] for sl in slices]


def constraint_atlas_source(mesh, k, F, bc="none"):
    """Broken components of both source schemes on the constraint-route atlases."""
    lad = ladder(mesh)
    g0 = lad.p0(k).gram
    A = lad.abc(k, bc)[0].atlas
    P = lad.p0_projection(k) @ A
    K = P.T @ (g0 @ P)
    if k < mesh.dim:
        DA = lad.d_matrix(k) @ A
        K = K + DA.T @ (lad.p0(k + 1).gram @ DA)
    Az = lad.whitney_star(k + 1, "homogeneous" if bc == "none" else "none").atlas.toarray()
    Pz = lad.p0_projection(k + 1, "dual") @ Az
    zeta, omega_bar = _dense_block_solve(
        (Az.shape[1], lad.p0(k).dim),
        {(0, 0): Pz.T @ (lad.p0(k + 1).gram @ Pz),
         (0, 1): -(g0 @ (lad.delta_matrix(k + 1) @ Az)).T,
         (1, 1): -g0.matrix},
        {1: -F},
    )
    return {
        "omega_broken": A @ scipy.linalg.solve(K, P.T @ F),
        "zeta_broken": Az @ zeta,
        "omega_bar": omega_bar,
    }


def constraint_atlas_hodge(mesh, k, F, scheme):
    """Broken components of one Hodge scheme on the constraint-route atlases.

    The nonconforming harmonic space is the complement of d of the
    constraint atlas one degree down in the constraint-set kernel.
    """
    lad = ladder(mesh)
    g0, g_lo, g_hi = lad.p0(k).gram, lad.p0(k - 1).gram, lad.p0(k + 1).gram
    if scheme == "mixed_dual":
        H = harmonic_space(mesh, k, "star0").basis
    else:
        R = Subspace.from_span(lad.d_matrix(k - 1) @ lad.abc(k - 1, "none")[0].atlas, g0)
        H = gram_complement(R, _complex_kernel(lad, "abc", k, "none"), g0).basis
    As = lad.abc(k - 1, "none")[0].atlas
    Az = lad.whitney_star(k + 1, "homogeneous").atlas.toarray()
    Ps = lad.p0_projection(k - 1) @ As
    Pz = lad.p0_projection(k + 1, "dual") @ Az
    Mps, Mpz = Ps.T @ (g_lo @ Ps), Pz.T @ (g_hi @ Pz)
    if scheme == "complete":
        _, z, s, h = _dense_block_solve(
            (lad.p0(k).dim, Az.shape[1], As.shape[1], H.shape[1]),
            {(0, 1): g0 @ (lad.delta_matrix(k + 1) @ Az),
             (0, 2): g0 @ (lad.d_matrix(k - 1) @ As),
             (0, 3): g0 @ H, (1, 1): -Mpz, (2, 2): -Mps},
            {0: F},
        )
        return {"zeta_broken": Az @ z, "sigma_broken": As @ s, "theta_p0": H @ h}
    if scheme == "mixed_primal":
        A = lad.abc(k, "none")[0].atlas
        Pk, DA = lad.p0_projection(k) @ A, lad.d_matrix(k) @ A
        o, s, h = _dense_block_solve(
            (A.shape[1], As.shape[1], H.shape[1]),
            {(0, 0): DA.T @ (g_hi @ DA),
             (0, 1): Pk.T @ (g0 @ (lad.d_matrix(k - 1) @ As)),
             (0, 2): Pk.T @ (g0 @ H), (1, 1): -Mps},
            {0: Pk.T @ F},
        )
        return {"omega_broken": A @ o, "sigma_broken": As @ s, "theta_p0": H @ h}
    if scheme == "mixed_dual":
        A = lad.whitney_star(k, "homogeneous").atlas.toarray()
        Pk, DeltaA = lad.p0_projection(k, "dual") @ A, lad.delta_matrix(k) @ A
        o, z, h = _dense_block_solve(
            (A.shape[1], Az.shape[1], H.shape[1]),
            {(0, 0): DeltaA.T @ (g_lo @ DeltaA),
             (0, 1): Pk.T @ (g0 @ (lad.delta_matrix(k + 1) @ Az)),
             (0, 2): Pk.T @ (g0 @ H), (1, 1): -Mpz},
            {0: Pk.T @ F},
        )
        return {"omega_broken": A @ o, "zeta_broken": Az @ z, "theta_p0": H @ h}
    # the one-field space: the broken full k-forms paired to zero with the
    # star atlas one degree up and with the constraint atlas one degree down
    full = lad.full(k)
    term1 = lad.delta_matrix(k, "full").T @ (g_lo @ Ps)
    term2 = full.gram() @ (lad.p0_injection(k, "full") @ (lad.d_matrix(k - 1) @ As))
    C = np.vstack([(d_pairing(full, lad.dual(k + 1)) @ Az).T, (term1 - term2).T])
    A = nullspace(C / np.abs(C).max()).basis
    DA, DeltaA = lad.d_matrix(k, "full") @ A, lad.delta_matrix(k, "full") @ A
    PV = lad.p0_projection(k, "full") @ A
    F_eff = F - g0 @ (H @ np.linalg.solve(H.T @ (g0 @ H), H.T @ F)) if H.shape[1] else F
    o, _ = _dense_block_solve(
        (A.shape[1], H.shape[1]),
        {(0, 0): DA.T @ (g_hi @ DA) + DeltaA.T @ (g_lo @ DeltaA), (0, 1): PV.T @ (g0 @ H)},
        {0: PV.T @ F_eff},
    )
    return {"omega_broken": A @ o}


def dense_whitney_atlas(mesh, k, bc="none"):
    """The Whitney k-forms as a dense atlas, columns in `whitney_dofs` order.

    Each cell's closed-form coefficients are written through the incidence
    table into an array of zeros.
    """
    lad = ladder(mesh)
    broken = lad.primal(k)
    table = mesh.subsimplices(k)
    dofs = whitney_dofs(mesh, k, bc)
    column = np.full(table.count, -1)
    column[dofs] = np.arange(len(dofs))
    cols = column[table.cell_incidence]  # (cells, faces)
    cells, faces = np.nonzero(cols >= 0)
    W = whitney_coefficients(lad.geometry.gradients, k)  # (cells, faces, dim)
    dim = broken.reference.dim
    A = np.zeros((broken.dim, len(dofs)))
    A[cells[:, None] * dim + np.arange(dim), cols[cells, faces][:, None]] = W[cells, faces]
    return A


def dense_star_atlas(mesh, k, bc="none"):
    """The starred Whitney k-forms as a dense atlas: `reference_star` on the
    dense (n-k) atlas reshaped into (cells, dim, columns) blocks."""
    n, cells = mesh.dim, mesh.num_cells
    A = dense_whitney_atlas(mesh, n - k, bc)
    S = reference_star(n, n - k)
    return np.matmul(S, A.reshape(cells, S.shape[1], A.shape[1])).reshape(A.shape)


def dense_constraints(mesh, k, bc="none"):
    """The constraint matrix of the nonconforming k-forms, against the dense partner atlas."""
    lad = ladder(mesh)
    if k == mesh.dim:
        return np.zeros((0, lad.primal(k).dim))
    return (lad.pairing(k) @ dense_star_atlas(mesh, k + 1, lad.partner_bc(bc))).T


def constraint_route_pair(mesh, k, bc="none"):
    """`adjoint.whitney_pair` on the constraint route: the domain is the
    Gram-orthonormal atlas of `DeRhamLadder.abc`, the adjoint domain the
    partner's starred atlas orthonormalized by a dense QR."""
    lad = ladder(mesh)
    return OperatorPair.trimmed(
        mesh, k, lad.abc(k, bc)[0].subspace().basis, lad.partner(k, bc).subspace().basis, bc=bc
    )


def common_kernel_pencil_eigs(K, M, rel_tol=1e-9):
    """`linalg.pencil_nonzero_eigs` with a common kernel of K and M removed
    first: the pencil is restricted to the complement of the null space of
    the stacked [K / max|K|; M / max|M|], by pivoted QR."""
    K, M = np.asarray(K, dtype=float), np.asarray(M, dtype=float)
    n = K.shape[0]
    if n == 0:
        return np.zeros(0), 0
    sK = max(np.abs(K).max(), 1e-300)
    sM = max(np.abs(M).max(), 1e-300)
    common = nullspace(np.vstack([K / sK, M / sM]))
    Q = nullspace(common.basis.T).basis if common.dim else np.eye(n)
    A = 0.5 * (Q.T @ K @ Q + (Q.T @ K @ Q).T)
    B = 0.5 * (Q.T @ M @ Q + (Q.T @ M @ Q).T)
    S = A / sK + B / sM
    theta = np.clip(scipy.linalg.eigh(B / sM, 0.5 * (S + S.T), eigvals_only=True), 0.0, 1.0)
    lam = np.full_like(theta, np.inf)
    pos = theta > rel_tol
    lam[pos] = (1.0 - theta[pos]) / theta[pos] * (sK / sM)
    finite = lam[np.isfinite(lam)]
    cut = rel_tol * max(finite.max(initial=1.0), 1.0)
    return np.sort(finite[np.abs(finite) > cut]), int(np.sum(np.abs(finite) <= cut))


def constraint_route_eigen(mesh, k, bc="none", rel_tol=1e-9):
    """((primal nonzero eigenvalues, zero count), (dual ..., ...)) of
    `solve.solve_eigen_pair`'s pencils on the constraint-route atlas and the
    partner's starred atlas, by `common_kernel_pencil_eigs`."""
    lad = ladder(mesh)
    out = []
    for A, T, P, lo, hi in (
        (lad.abc(k, bc)[0].atlas, lad.d_matrix(k), lad.p0_projection(k), k, k + 1),
        (lad.partner(k, bc).atlas.toarray(), lad.delta_matrix(k + 1),
         lad.p0_projection(k + 1, "dual"), k + 1, k),
    ):
        TA, PA = T @ A, P @ A
        K, M = TA.T @ (lad.p0(hi).gram @ TA), PA.T @ (lad.p0(lo).gram @ PA)
        out.append(common_kernel_pencil_eigs(K, M, rel_tol))
    return tuple(out)


def trace_mismatch_all_columns(space):
    """Worst inter-cell trace mismatch of every atlas column on every interior facet."""
    mesh, broken = space.mesh, space.broken
    if space.k == mesh.dim:
        return 0.0
    atlas = space.atlas.toarray() if scipy.sparse.issparse(space.atlas) else space.atlas
    facets = mesh.subsimplices(mesh.dim - 1)
    ref = reference_simplex(mesh.dim - 1)
    worst = 0.0
    for sub, owners in zip(facets.simplices, facets.owners):
        if len(owners) != 2:
            continue
        coords = mesh.vertices[list(sub)]
        for col in range(space.dim):
            a, b = (trace_on(broken.form_on_cell(atlas[:, col], ci), coords) for ci, _ in owners)
            diff = a - b
            err2 = sum(
                ca * cb * ref.monomial_integral(tuple(x + y for x, y in zip(ea, eb)))
                for (ea, ma), ca in diff.terms.items()
                for (eb, mb), cb in diff.terms.items()
                if ma == mb
            )
            worst = max(worst, math.sqrt(abs(err2)))
    return worst

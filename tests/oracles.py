"""Oracle helpers that several test modules share.

`jittered` gives every cell of a structured mesh its own shape, so that a
mapping error cannot hide behind congruent cells; `ladder_locals` builds
the cells' trimmed `LocalSpace`s of a broken space with the ladder's Grams;
`decompose_pair` runs `decompose_local` on one cell's pair of local spaces.
`fast_local_constants` and `cell_icr` are the per-cell base-pair constants
that the batched report is compared with; `is_independent`,
`canonically_equal`, `max_diameter` and `roundtrip` are checks that only
the tests make.  `betti_numbers` is the mesh's topology from exact integer
ranks of its chain boundary matrices, independent of any finite element.
"""

import json

import numpy as np

from padfeec.errors import NotAdmissible
from padfeec.linalg import RANK_TOL, Gram, nullspace, orthonormalize
from padfeec.local import LocalSpace, decompose_local, pairing_matrix, trimmed_local
from padfeec.mesh import Mesh, generate_structured
from padfeec.report import Report, emit


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
        rank_mod_prime(mesh.boundary_matrix(k)[np.ix_(keep[k - 1], keep[k])])
        for k in range(1, n + 1)
    ] + [0]
    return [int(keep[k].sum()) - ranks[k] - ranks[k + 1] for k in range(n + 1)]


def max_diameter(mesh):
    """The largest cell diameter of a mesh."""
    return max(mesh.cell_geometry(i).diameter for i in range(mesh.num_cells))


def roundtrip(report: Report):
    """Parse the JSON emission back into plain data (lossless by design)."""
    return json.loads(emit(report, "json").decode())

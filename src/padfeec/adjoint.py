"""Operator pairs on broken spaces and their adjoint-structure checks.

Builds the pairing between broken trimmed k-forms and their conforming
partners, verifies the base-pair hypotheses, computes the structural
constants (two-sided inf-sups, indices of closed range), and certifies the
Helmholtz and Hodge decompositions, the harmonic-space duality as a subspace
identity, and the horizontal slice dualities.  Every theorem-level check
returns a structured verdict naming the first failed hypothesis instead of
assuming it.

Base pairs are checked in one batched pass over the cells' Gram, energy
and pairing stacks, with d and delta as the reference blocks that every
cell holds, and each report is kept in the ladder.  A harmonic space of
any of the three discrete complexes (nonconforming, conforming Whitney,
starred) is the null space of its stacked sparse conditions, closedness
and orthogonality to the range from the degree below: on the whitened P0
coordinates for the nonconforming complex, its closedness from the
constraint set, and on the atlas coefficients for the other two, its
closedness from the integer coboundary of `Mesh.boundary_matrix`.  Its
dimension is the mesh's Betti number, an exact integer, and
`linalg.null_vectors` finds that many null vectors and certifies that
there are no more.  The complex property is checked by sparse residuals
on the way, and the harmonic spaces are kept in the ladder.

The splits and the horizontal slices need no kernel, range or complement
from a rank-revealing QR either: the ranks of d and delta are the
integers of `complex_rank`, backed by the certified harmonic spaces, and
each slice is the null space of the same stacked conditions, less the
harmonic space, of the dimension those ranks give.

A Helmholtz or Hodge split is decided by its integer dimension count and
the pairwise orthogonality residual of its pieces, so no span is
compared.  Its pieces are the harmonic spaces and the two ranges of
`_ranges`, measured on their spanning sets with unit columns.  The
Helmholtz hypotheses, that each full broken range is the opposite
kernel, are checked on the reference blocks of d and delta, which every
cell holds.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import AssemblyError, NotAComplex, NotAdmissible, ToleranceFailure
from .linalg import (
    Subspace,
    abs_max,
    diagonal_blocks,
    gram_factor,
    icr_of,
    infsup,
    null_vectors,
    nullspace,
    rank,
    subspace_equal,
    unit_columns,
)
from .local import cell_constants
from .spaces import ladder, whitney_dofs


@dataclass
class OperatorPair:
    """A discrete operator with its domain and the partially adjoint partner.

    The operators, Grams and pairing are the ladder's sparse cellwise arrays.
    Each domain is a basis, dense or sparse: independent columns in broken
    coordinates, not orthonormalized.
    """

    T: object
    domain: object
    source_gram: object
    range_gram: object
    adjoint_T: object
    adjoint_domain: object
    adjoint_source_gram: object
    adjoint_range_gram: object
    pairing: object = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def trimmed(cls, mesh, k, domain, adjoint_domain, **meta):
        """d on the broken trimmed k-forms and delta on the (k+1)-forms, on the two domains."""
        lad = ladder(mesh)
        return cls(
            T=lad.d_matrix(k),
            domain=domain,
            source_gram=lad.primal(k).gram(),
            range_gram=lad.p0(k + 1).gram,
            adjoint_T=lad.delta_matrix(k + 1),
            adjoint_domain=adjoint_domain,
            adjoint_source_gram=lad.dual(k + 1).gram(),
            adjoint_range_gram=lad.p0(k).gram,
            pairing=lad.pairing(k),
            meta={"mesh": mesh, "k": k, **meta},
        )

    def pairing_residual(self):
        if self.pairing is None or 0 in (self.domain.shape[1], self.adjoint_domain.shape[1]):
            return 0.0
        return abs_max(self.domain.T @ (self.pairing @ self.adjoint_domain))


@dataclass
class BasePairReport:
    uM_dim: int
    uN_dim: int
    alpha: float
    beta: float
    gamma: float
    icr_tilde: float
    icr_tilde_adjoint: float
    icr_under: float
    icr_under_adjoint: float
    alpha_cells: np.ndarray
    beta_cells: np.ndarray
    assumptions_ok: dict


@dataclass
class DecompositionReport:
    """One decomposition or duality verdict.

    ``identity_angle`` is the largest principal angle of an identity
    between two constructions (the harmonic and slice dualities); a
    Helmholtz or Hodge split is decided by its dimension count and
    orthogonality residual alone and keeps 0.0; its dimensions, and the
    slices', are integers known before any float work.  ``vacuous`` names
    the comparisons inside it that compared two zero-dimensional spaces, so
    that their pass checked nothing.
    """

    name: str
    lhs_dims: dict
    rhs_dims: dict
    orthogonality_residual: float
    verdict: str
    identity_angle: float = 0.0
    detail: dict = field(default_factory=dict)
    vacuous: tuple = ()

    @property
    def passed(self):
        return self.verdict == "pass"


def _p0_coords(lad, k, broken, vectors, tol=1e-9):
    """Coordinates of broken vectors that are piecewise constant, verified."""
    J = lad.p0_injection(k, broken.name)
    coords = lad.p0_projection(k, broken.name) @ vectors
    resid = np.abs(vectors - J @ coords).max(initial=0.0)
    scale = max(np.abs(vectors).max(initial=0.0), 1.0)
    if resid > tol * scale:
        raise AssemblyError("vectors are not piecewise constant (residual %.2e)" % resid)
    return coords


def _cell_icr(T, gram, scales, eig_tol):
    """Largest cell index of closed range of the reference block T of d or delta.

    Cell K's stiffness T^T T scales[K], whitened by the stacked factor of the
    broken space's `Gram` to R_K^-T T^T T R_K^-1 scales[K], is one stacked
    eigenproblem (`eigvalsh` reads its lower triangle); the cell's index is
    1/sqrt of its smallest eigenvalue above ``eig_tol`` times its largest,
    and 0 where none is.
    """
    Rinv = gram.stack_factor[1]
    Kw = np.swapaxes(Rinv, 1, 2) @ ((T.T @ T) * scales[:, None, None]) @ Rinv
    w = np.linalg.eigvalsh(Kw)
    positive = w > eig_tol * np.maximum(w[:, -1:], 0.0)
    return float(np.max(1.0 / np.sqrt(np.where(positive, w, np.inf).min(axis=1))))


def base_pair_report(mesh, k, eig_tol=1e-10):
    """The base-pair hypotheses and constants of the broken (k, k+1) trimmed pair.

    Each report is built once per (k, eig_tol) and kept in the mesh's ladder;
    its cell arrays are read-only because every caller shares them.
    """
    return ladder(mesh)._get(
        ("base-pair", k, eig_tol), lambda: _build_base_pair_report(mesh, k, eig_tol)
    )


def _build_base_pair_report(mesh, k, eig_tol):
    """One batched pass over the cells' Gram, energy and pairing stacks.

    The mutual annihilators of a block-diagonal pairing are the sums of its
    cell annihilators, read off the singular values of each cell block.  A
    singular or non-square block fails `annihilator_cores_trivial`; its cell
    constants are undefined (NaN) and the constants are minima over the
    other cells.  With trivial cores the twisted parts are the whole broken
    spaces, so the twisted kernel dimensions reduce to the ranks of the
    reference blocks of d and delta, the core's index of closed range is its
    convention value 0, and the broken indices of closed range are cell
    suprema.
    """
    lad = ladder(mesh)
    primal, dual = lad.primal(k), lad.dual(k + 1)
    p_ref, q_ref = primal.reference, dual.reference
    Mp, Md = primal.gram(), dual.gram()
    B = lad.pairing_blocks(k)
    scales = np.maximum(np.abs(B).max(axis=(1, 2), initial=0.0), 1e-30)
    ranks = np.sum(np.linalg.svd(B / scales[:, None, None], compute_uv=False) > 1e-10, axis=1)
    core_p, core_q = p_ref.dim - ranks, q_ref.dim - ranks
    trivial = (core_p == 0) & (core_q == 0)
    alpha_cells, beta_cells, gamma_cells = (
        np.where(trivial, c, np.nan)
        for c in cell_constants(p_ref, q_ref, Mp, primal.energy_blocks(), Md, dual.energy_blocks(), B)
    )
    alpha, beta, gamma = (
        float(c[trivial].min()) if trivial.any() else np.nan
        for c in (alpha_cells, beta_cells, gamma_cells)
    )
    rank_D, rank_Delta = (mesh.num_cells * rank(T, tol=1e-12) for T in (p_ref.d, q_ref.delta))
    uM_dim, uN_dim = int(core_p.sum()), int(core_q.sum())
    cores_trivial = uM_dim == 0 and uN_dim == 0
    assumptions = {
        "annihilator_cores_trivial": cores_trivial,
        # the twisted kernels pair isomorphically across sides
        "twisted_kernel_dims_match": cores_trivial
        and primal.dim - rank_D == rank_Delta
        and dual.dim - rank_Delta == rank_D,
        "alpha_positive": alpha > 0,
        "beta_positive": beta > 0,
    }
    alpha_cells.flags.writeable = False
    beta_cells.flags.writeable = False
    return BasePairReport(
        uM_dim=uM_dim,
        uN_dim=uN_dim,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        icr_tilde=_cell_icr(p_ref.d, Mp, lad.p0(k + 1).volumes, eig_tol),
        icr_tilde_adjoint=_cell_icr(q_ref.delta, Md, lad.p0(k).volumes, eig_tol),
        icr_under=0.0,
        icr_under_adjoint=0.0,
        alpha_cells=alpha_cells,
        beta_cells=beta_cells,
        assumptions_ok=assumptions,
    )


def whitney_pair(mesh, k, bc="none"):
    """The partially adjoint pair: nonconforming k-forms vs conforming duals.

    bc='none' places the boundary condition on the conforming side, and
    conversely.  The domains are the ladder's compact nonconforming basis
    and the starred partner atlas, with unit columns.
    """
    lad = ladder(mesh)
    pair = OperatorPair.trimmed(
        mesh, k, lad.abc_basis(k, bc), lad.star_basis(k + 1, lad.partner_bc(bc)), bc=bc
    )
    resid = pair.pairing_residual()
    if resid > 1e-11:
        raise AssemblyError("pair is not mutually annihilating (residual %.2e)" % resid)
    return pair


def partial_adjoint_of(D, mesh, k, check_roundtrip=True):
    """Adjoint domain of the span of a basis D of broken k-forms, with round trip.

    The domain must contain the mutual-annihilator core of the base pair,
    which every domain does when the core is trivial, as for the trimmed
    pairs; a nontrivial core raises NotAdmissible.  The adjoint domain is the
    annihilator of the pairing restricted to the domain, as a
    Euclidean-orthonormal basis.
    """
    if not base_pair_report(mesh, k).assumptions_ok["annihilator_cores_trivial"]:
        raise NotAdmissible("the base pair has a nontrivial annihilator core")
    B = ladder(mesh).pairing(k)
    rows = D.T @ B
    adjoint = nullspace(rows / max(abs_max(rows), 1e-300)).basis
    pair = OperatorPair.trimmed(mesh, k, D, adjoint)
    if check_roundtrip:
        Gp = pair.source_gram
        cols = B @ adjoint
        back = nullspace(cols.T / max(abs_max(cols), 1e-300)).basis
        ok, ang = subspace_equal(*(Subspace.from_span(S, Gp) for S in (D, back)), Gp, tol=1e-9)
        pair.meta["roundtrip_angle"] = ang
        if not ok:
            raise NotAdmissible("double annihilator does not return the domain")
    return pair


def quantified_crt_check(pair: OperatorPair, report: BasePairReport, eig_tol=1e-10):
    """Both indices of closed range plus the theorem-level bracket bounds."""
    icr_primal = icr_of(
        pair.T, pair.domain, pair.source_gram, pair.range_gram, eig_tol=eig_tol
    )
    icr_adjoint = icr_of(
        pair.adjoint_T,
        pair.adjoint_domain,
        pair.adjoint_source_gram,
        pair.adjoint_range_gram,
        eig_tol=eig_tol,
    )
    bound_primal = (
        (1.0 + 1.0 / report.alpha) * report.icr_tilde
        + icr_adjoint / report.alpha
        + report.icr_under
    )
    bound_adjoint = (
        (1.0 + 1.0 / report.beta) * report.icr_tilde_adjoint
        + icr_primal / report.beta
        + report.icr_under_adjoint
    )
    bound_ok = icr_primal <= bound_primal * (1 + 1e-10) and icr_adjoint <= bound_adjoint * (
        1 + 1e-10
    )
    return icr_primal, icr_adjoint, bool(bound_ok)


def _assemble_report(name, lhs_dims, pieces, p0):
    """One orthogonal split of the P0 space ``p0``, by dimension count and orthogonality.

    ``lhs_dims`` are the dimensions of the side known without a basis, and
    ``pieces`` maps each piece of the other side to (dimension, spanning
    set), the set's columns of unit P0 norm or zero.  The split passes when
    both sides add up to the dimension of ``p0`` and the pieces are
    pairwise orthogonal to 1e-10, the largest |cosine| between their
    spanning vectors: such pieces are independent, so their sum is the
    whole space and no span is compared.
    """
    rhs_dims = {n: dim for n, (dim, _) in pieces.items()}
    spans = [S for _, S in pieces.values() if S.shape[1]]
    resid = max(
        (abs_max(A.T @ (p0.gram @ B)) for i, A in enumerate(spans) for B in spans[i + 1:]),
        default=0.0,
    )
    lhs_total, rhs_total = sum(lhs_dims.values()), sum(rhs_dims.values())
    return DecompositionReport(
        name=name,
        lhs_dims=dict(lhs_dims),
        rhs_dims=rhs_dims,
        orthogonality_residual=resid,
        verdict="pass" if lhs_total == rhs_total == p0.dim and resid < 1e-10 else "fail",
        vacuous=_vacuous(name, lhs_total, rhs_total),
    )


def _vacuous(name, dim_a, dim_b):
    """(name,) if a comparison was between two zero-dimensional spaces, else ()."""
    return (name,) if dim_a == dim_b == 0 else ()


def helmholtz_check(pair: OperatorPair):
    """Both Helmholtz splits induced by a partially adjoint pair.

    Verifies the symmetric twisted-range hypotheses first, on the reference
    blocks (`_full_ranges`); on failure the verdict names them without
    asserting the splits.  The full ranges are one side of each split, by
    their dimensions alone.  The other side is the Hodge pieces of
    `_ranges`: on its domain, d has the range below degree k + 1 and the
    kernel H_k plus the range below k, and delta the corange above degree
    k and the kernel H*_(k+1) plus the corange above k + 1 (H and H* the
    nonconforming and starred harmonic spaces).  Each dimension is a Betti
    number plus an integer rank, so no kernel is found by a rank decision.
    The pieces are read from the ladder by the mesh, k and bc of a
    `whitney_pair`'s meta; a pair without a bc raises NotAdmissible.
    """
    if "bc" not in pair.meta:
        raise NotAdmissible("helmholtz_check needs a whitney_pair, which names its bc")
    mesh, k, bc = pair.meta["mesh"], pair.meta["k"], pair.meta["bc"]
    lad = ladder(mesh)
    hypotheses, (range_full, range_adjoint_full) = _full_ranges(lad, k, pair)
    if not all(hypotheses):
        return DecompositionReport(
            name="helmholtz",
            lhs_dims={},
            rhs_dims={},
            orthogonality_residual=np.inf,
            verdict="fail",
            detail={"failed_hypothesis": "twisted ranges do not match opposite kernels"},
        )
    below, above = _ranges(mesh, k, bc)
    below_high, above_high = _ranges(mesh, k + 1, bc)
    harmonic = harmonic_space(mesh, k, _FLAVOR_OF["abc", bc])
    harmonic_high = harmonic_space(mesh, k + 1, _FLAVOR_OF["star", lad.partner_bc(bc)])
    # split of the low space: R(adjoint on full) (+) 0  =  R(adjoint on domain) (+) N(T on domain)
    low = _assemble_report(
        "helmholtz-low",
        {"range_adjoint_full": range_adjoint_full, "kernel_core": 0},
        {"range_adjoint_domain": above, "kernel_domain": _plus_harmonic(harmonic, below)},
        lad.p0(k),
    )
    high = _assemble_report(
        "helmholtz-high",
        {"range_full": range_full, "kernel_core": 0},
        {"range_domain": below_high,
         "kernel_adjoint_domain": _plus_harmonic(harmonic_high, above_high)},
        lad.p0(k + 1),
    )
    return _combined("helmholtz", {"low": low, "high": high})


def _ranges(mesh, j, bc):
    """The two ranges into the constant j-forms beside the harmonic space of ``bc``.

    ``range_below`` is d of the compact nonconforming basis of degree j - 1
    with ``bc``, and ``corange_above`` delta of the starred atlas of degree
    j + 1 with the partner bc.  Each is (its integer dimension from
    `complex_rank`, its spanning set with unit P0 columns), and empty past
    the ends of the complex.
    """
    lad = ladder(mesh)
    p0, star_bc = lad.p0(j), lad.partner_bc(bc)
    empty = np.zeros((p0.dim, 0))
    below = lad.d_matrix(j - 1) @ lad.abc_basis(j - 1, bc) if j > 0 else empty
    above = lad.delta_matrix(j + 1) @ lad.star_basis(j + 1, star_bc) if j < mesh.dim else empty
    return (
        (complex_rank(mesh, "abc", j - 1, bc), unit_columns(below, p0.gram)),
        (complex_rank(mesh, "star", j + 1, star_bc), unit_columns(above, p0.gram)),
    )


def _plus_harmonic(harmonic, piece):
    """A kernel piece: the harmonic space stacked with the range ``piece`` of `_ranges`."""
    dim, span = piece
    stack = scipy.sparse.hstack if scipy.sparse.issparse(span) else np.hstack
    return harmonic.dim + dim, stack([harmonic.basis, span])


def _combined(name, splits):
    """One report of the ``splits`` {prefix: report}, their dimensions keyed by prefix."""
    return DecompositionReport(
        name=name,
        lhs_dims={"%s_%s" % (p, n): d for p, r in splits.items() for n, d in r.lhs_dims.items()},
        rhs_dims={"%s_%s" % (p, n): d for p, r in splits.items() for n, d in r.rhs_dims.items()},
        orthogonality_residual=max(r.orthogonality_residual for r in splits.values()),
        verdict="pass" if all(r.passed for r in splits.values()) else "fail",
        detail=splits,
        vacuous=sum((r.vacuous for r in splits.values()), ()),
    )


def _full_ranges(lad, k, pair):
    """The pair's twisted-range hypotheses and the dimensions of its full broken ranges.

    Returns ((R(T) = N(T*) in P0(k+1), R(T*) = N(T) in P0(k)), (dim R(T),
    dim R(T*))).  T and T* hold one reference block on every cell, and each
    cell's P0 Gram is its volume times I, so each identity holds on the mesh
    exactly when it holds on one cell: the span of the reference block of d
    (of delta) against the reference kernel of delta (of d), compared in
    R^ncomp to 1e-9.  A full range is num_cells copies of its reference span.
    """
    primal, dual = lad.primal(k), lad.dual(k + 1)
    sides = (
        (primal.reference.d, _reference_kernel(lad, dual, pair.adjoint_T)),
        (dual.reference.delta, _reference_kernel(lad, primal, pair.T)),
    )
    ranges = [Subspace.from_span(block) for block, _ in sides]
    hypotheses = tuple(
        subspace_equal(R, Subspace.from_span(N), tol=1e-9)[0] for R, (_, N) in zip(ranges, sides)
    )
    return hypotheses, tuple(lad.mesh.num_cells * R.dim for R in ranges)


def _reference_kernel(lad, broken, T):
    """P0 coordinates of the kernel of the reference block of a cellwise T.

    The ladder's d and delta hold one reference block on every cell, so the
    kernel is that block's kernel on every cell, taken at the same relative
    rank tolerance as on the whole matrix.  Its members are checked to be
    constant.
    """
    cells, ref = lad.mesh.num_cells, broken.reference
    blocks = diagonal_blocks(T, T.shape[0] // cells, ref.dim)
    block = blocks[0]
    if not np.array_equal(blocks, np.broadcast_to(block, blocks.shape)):
        raise AssemblyError("operator is not one block repeated on every cell")
    N = nullspace(block / max(np.abs(block).max(initial=0.0), 1e-300)).basis
    coords = ref.projection @ N
    resid = np.abs(N - ref.projection.T @ coords).max(initial=0.0)
    if resid > 1e-9 * max(np.abs(N).max(initial=0.0), 1.0):
        raise AssemblyError("vectors are not piecewise constant (residual %.2e)" % resid)
    return coords


def require_constant_kernel(lad, broken, T):
    """Raise AssemblyError unless the cellwise T (d or delta) vanishes on
    ``broken`` exactly on the constants; checked on the reference block,
    which every cell holds."""
    if _reference_kernel(lad, broken, T).shape[1] != lad.p0(broken.k).ncomp:
        raise AssemblyError("the cellwise operator on the %s %d-forms does not vanish "
                            "exactly on the constants" % (broken.name, broken.k))


# -- the three discrete complexes ------------------------------------------------
#
# 'abc' (nonconforming) and 'conforming' (Whitney) raise the degree with d;
# 'star' (starred Whitney) lowers it with delta.

# harmonic flavor -> (complex, bc)
_FLAVORS = {
    "abc": ("abc", "none"),
    "abc0": ("abc", "homogeneous"),
    "conforming": ("conforming", "none"),
    "conforming0": ("conforming", "homogeneous"),
    "star": ("star", "none"),
    "star0": ("star", "homogeneous"),
}
# the flavors whose harmonic dimension is the absolute Betti number; the
# others take the relative one, of the chains modulo the boundary
_ABSOLUTE_FLAVORS = ("abc", "conforming", "star0")
_FLAVOR_OF = {place: flavor for flavor, place in _FLAVORS.items()}


def _complex_space(lad, complex_, k, bc):
    """The atlas space of the conforming ('conforming') or starred complex at degree k."""
    return lad.whitney(k, bc) if complex_ == "conforming" else lad.whitney_star(k, bc)


def harmonic_space(mesh, k, flavor):
    """Kernel-modulo-range at one ladder level, as constants coordinates.

    Flavors: 'abc'/'abc0' use the nonconforming ladder, 'conforming'/
    'conforming0' the conforming Whitney one, 'star'/'star0' the conjugated
    codifferential ladder.  Each `Subspace` is built once per mesh and kept
    in its ladder; the basis is read-only because every caller shares it.
    """
    return ladder(mesh)._get(
        ("harmonic", k, flavor), lambda: _build_harmonic_space(mesh, k, flavor)
    )


def _build_harmonic_space(mesh, k, flavor):
    """The harmonic k-forms of ``flavor``, sized by the mesh's Betti number.

    A harmonic form is closed and orthogonal to the range from the degree
    below with the same boundary condition, so the harmonic space is
    lift(null M) for the stacked conditions M of `_conditions`.  Its
    dimension is the Betti number b_k, absolute for `_ABSOLUTE_FLAVORS` and
    relative for the others, taken in exact integers before any float work;
    `_certified_null` finds the b_k null vectors and certifies that there
    are no more, else ToleranceFailure.  Each basis column is given the
    sign of `_span_signs`.
    """
    if flavor not in _FLAVORS:
        raise AssemblyError("unknown harmonic flavor %r" % (flavor,))
    lad = ladder(mesh)
    p0 = lad.p0(k)
    betti = mesh.betti_numbers(relative=flavor not in _ABSOLUTE_FLAVORS)[k]
    complex_, bc = _FLAVORS[flavor]
    what = "harmonic %s %d-forms, Betti number %d" % (flavor, k, betti)
    conditions = _conditions(lad, complex_, k, bc, bc)
    basis = _span_signs(_certified_null(conditions, betti, what, lad.sparse))
    basis.flags.writeable = False
    return Subspace(p0.dim, basis, p0.gram)


def _certified_null(conditions, nullity, what, sparse):
    """lift(null M) for ``conditions`` = (M, lift), with the ``nullity`` null vectors
    certified by `null_vectors`, else a ToleranceFailure that names ``what``."""
    M, lift = conditions
    try:
        return lift(null_vectors(M, nullity, sparse=sparse)[0])
    except ToleranceFailure as exc:
        raise ToleranceFailure("%s: %s" % (what, exc)) from None


def complex_rank(mesh, complex_, k, bc):
    """Rank of d from degree k on the nonconforming complex ('abc'), or of
    delta from degree k on the starred one ('star'), an exact integer.

    A kernel is the harmonic space plus the range from the degree below, so
    r_j = dim_j - b_j - r_(j-1) from r_(-1) = 0 for d, and from the top
    degree down for delta, with b_j the Betti number that sizes the
    harmonic space of (complex_, bc); each harmonic space the sum passes is
    built, so `null_vectors` has certified its dimension.
    """
    lad = ladder(mesh)
    flavor = _FLAVOR_OF[complex_, bc]
    betti = mesh.betti_numbers(relative=flavor not in _ABSOLUTE_FLAVORS)
    r = 0
    for j in range(k + 1) if complex_ == "abc" else range(mesh.dim, k - 1, -1):
        harmonic_space(mesh, j, flavor)
        r = _complex_dim(lad, complex_, j, bc) - betti[j] - r
    return r


def _complex_dim(lad, complex_, k, bc):
    """Dimension of the nonconforming or starred k-forms: the width of the compact
    basis, or the count of Whitney dofs, the (interior) sub-simplices of degree n - k."""
    if complex_ == "abc":
        return lad.abc_basis(k, bc).shape[1]
    table = lad.mesh.subsimplices(lad.mesh.dim - k)
    return table.count - (int(table.boundary.sum()) if bc == "homogeneous" else 0)


def _conditions(lad, complex_, k, bc, range_bc):
    """(M, lift): the closed k-forms with ``bc``, orthogonal to the range from
    the degree below with ``range_bc``, are lift(null M).

    M stacks the blocks of rows, each scaled to largest entry 1, as one
    sparse array; ``lift`` maps its null vectors to a P0-Gram-orthonormal
    basis in P0 coordinates.  The complex property is checked on the way,
    else NotAComplex.
    """
    if complex_ == "abc":
        return _abc_conditions(lad, k, bc, range_bc)
    return _whitney_conditions(lad, complex_, k, bc, range_bc)


def _abc_conditions(lad, k, bc, range_bc):
    """Nonconforming conditions on P0 coordinates whitened by R0.

    With the P0 Gram R0^T R0 and p = R0^-1 y, p is closed when C J p = 0
    below the top degree (C the constraint matrix of ``bc``, J the P0
    injection; d vanishes on the broken space exactly on the constants,
    checked on the reference block) and orthogonal to the range d A_s of
    the compact basis A_s of ``range_bc`` one degree down when
    (R0 d A_s)^T y = 0.  The range lies in the kernel when
    ||C J d A_s|| <= 1e-8 ||C|| ||d A_s||.  Returns M and the lift R0^-1 Y
    of the null vectors Y, Gram-orthonormal as it stands.
    """
    p0 = lad.p0(k)
    R0, R0inv = gram_factor(p0.gram)
    blocks = []
    if k < lad.mesh.dim:
        require_constant_kernel(lad, lad.primal(k), lad.d_matrix(k))
        C = lad.abc_constraints(k, bc)
        CJ = C @ lad.p0_injection(k)
        blocks.append(CJ @ R0inv)
    if k > 0:
        dA = lad.d_matrix(k - 1) @ lad.abc_basis(k - 1, range_bc)
        if k < lad.mesh.dim and _norm(CJ @ dA) > 1e-8 * _norm(C) * _norm(dA):
            raise NotAComplex("range is not contained in the kernel (abc, degree %d)" % k)
        blocks.append((R0 @ dA).T)
    return _stacked(blocks, p0.dim), lambda Y: R0inv @ Y


def _whitney_conditions(lad, complex_, k, bc, range_bc):
    """Whitney or starred conditions on the atlas coefficients x of ``bc``.

    On the atlas A of the Whitney w-forms (the starred k-forms are those of
    w = n - k), d A = P A_(w+1) Delta_w for the integer coboundary Delta_w
    of `_coboundary` and the P0 projection P, and A_(w+1) is injective, so
    x is closed when Delta_w x = 0, and orthogonal to the range from the
    degree below when Delta_(w-1)^T (P A_r)^T g (P A) x = 0, with A_r and
    Delta_(w-1) those of ``range_bc``.  The complex property is that
    identity one degree down, at relative residual 1e-8 (up to a sign fixed
    by w for the starred complex), and, where both boundary conditions
    agree, Delta_w Delta_(w-1) = 0, exactly: its entries are sums of a few
    products of signs.  Returns M and the lift, which orthonormalizes the
    verified P0 coordinates of A X, so only the null vectors X are lifted.
    The atlases are CSC arrays, each column on one patch, so every product
    here is sparse; only A X is dense.
    """
    n, star = lad.mesh.dim, complex_ == "star"
    w = n - k if star else k
    space = _complex_space(lad, complex_, k, bc)
    g = lad.p0(k).gram
    P = lad.p0_projection(k, space.broken.name)
    PA = P @ space.atlas
    blocks = [_coboundary(lad, w, bc)] if w < n else []
    if w > 0:
        Delta = _coboundary(lad, w - 1, range_bc)
        lower = _complex_space(lad, complex_, k + 1 if star else k - 1, range_bc).atlas
        if star:
            # the star's sign is -1, +1, -1 for the coboundary at w - 1 = 0, 1, 2
            T, sign = lad.delta_matrix(k + 1), (-1) ** w
        else:
            T, sign = lad.d_matrix(k - 1), 1
        dA = T @ lower
        PAr = PA if range_bc == bc else P @ _complex_space(lad, complex_, k, range_bc).atlas
        PAD = PAr @ Delta
        if _norm(dA - sign * PAD) > 1e-8 * _norm(dA):
            raise NotAComplex("d is not the coboundary (%s, degree %d)" % (complex_, k))
        if range_bc == bc and blocks and (blocks[0] @ Delta).count_nonzero():
            raise NotAComplex("the coboundary does not square to zero (Whitney degree %d)" % w)
        blocks.append(PAD.T @ (g @ PA))

    def lift(X):
        return Subspace.from_span(_p0_coords(lad, k, space.broken, space.atlas @ X), g).basis

    return _stacked(blocks, PA.shape[1]), lift


def _coboundary(lad, w, bc):
    """Coboundary from the Whitney w-forms with ``bc`` to the (w+1)-forms, a CSR array.

    `Mesh.boundary_matrix`(w + 1) transposed, restricted to the two
    degrees' `whitney_dofs`, in atlas order.  Its entries are the integer
    signs, held exactly as floats.  Kept in the ladder.
    """

    def build():
        rows, cols = whitney_dofs(lad.mesh, w + 1, bc), whitney_dofs(lad.mesh, w, bc)
        B = lad.mesh.boundary_matrix(w + 1)
        position = np.full(B.shape[0], -1)
        position[cols] = np.arange(cols.size)
        faces = position[B.indices.reshape(-1, w + 2)[rows]]
        keep = faces >= 0
        signs = B.data.reshape(-1, w + 2)[rows][keep].astype(float)
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return scipy.sparse.csr_array((signs, faces[keep], indptr), shape=(rows.size, cols.size))

    return lad._get(("coboundary", w, bc), build)


def _stacked(blocks, n):
    """The blocks' rows, each block scaled to largest entry 1, as one n-column CSR array."""
    arrays = [scipy.sparse.csr_array(B) for B in blocks]
    return scipy.sparse.vstack(
        [scipy.sparse.csr_array((0, n))]
        + [B / max(np.abs(B.data).max(initial=0.0), 1e-300) for B in arrays],
        format="csr",
    )


def _norm(M):
    """Frobenius norm of a dense or sparse matrix."""
    return float(np.sqrt(np.sum(np.square(M.data if scipy.sparse.issparse(M) else M))))


def _span_signs(basis, rel=1e-8):
    """``basis`` with each column's first entry within ``rel`` of its largest magnitude positive.

    A one-column basis then depends on its span only.  Wider bases keep the
    rotation their nullspace gave; the sign rule is applied per column.
    """
    mags = np.abs(basis)
    lead = np.argmax(mags >= (1.0 - rel) * mags.max(axis=0, initial=0.0), axis=0)
    return basis * np.where(basis[lead, np.arange(basis.shape[1])] < 0.0, -1.0, 1.0)


def pl_duality_check(mesh, k):
    """Harmonic-space duality as an identity between two constructions."""
    lad = ladder(mesh)
    n = mesh.dim
    g = lad.p0(k).gram
    star = lad.p0(n - k).star_matrix()  # maps (n-k)-constants to k-constants
    out = {}
    for flavor, conf_flavor in (("abc", "conforming0"), ("abc0", "conforming")):
        H_abc = harmonic_space(mesh, k, flavor)
        H_conf = harmonic_space(mesh, n - k, conf_flavor)
        starred = Subspace.from_span(star @ H_conf.basis, g)
        ok, ang = subspace_equal(H_abc, starred, g, tol=1e-8)
        out[flavor] = DecompositionReport(
            name="pl-duality-%s" % flavor,
            lhs_dims={"harmonic_abc": H_abc.dim},
            rhs_dims={"star_conforming": starred.dim},
            orthogonality_residual=0.0,
            identity_angle=ang,
            verdict="pass" if ok else "fail",
            vacuous=_vacuous("pl-duality-%s" % flavor, H_abc.dim, starred.dim),
        )
    verdict = "pass" if all(r.passed for r in out.values()) else "fail"
    return DecompositionReport(
        name="pl-duality",
        lhs_dims={f: r.lhs_dims["harmonic_abc"] for f, r in out.items()},
        rhs_dims={f: r.rhs_dims["star_conforming"] for f, r in out.items()},
        orthogonality_residual=0.0,
        identity_angle=max(r.identity_angle for r in out.values()),
        verdict=verdict,
        detail=out,
        vacuous=sum((r.vacuous for r in out.values()), ()),
    )


def hodge_check(mesh, k):
    """Three-way split of the constant k-forms, for both boundary placements.

    The pieces are the harmonic space and the two ranges of `_ranges`
    beside it, so no range is orthonormalized.
    """
    p0 = ladder(mesh).p0(k)
    reports = {}
    for bc in ("none", "homogeneous"):
        below, above = _ranges(mesh, k, bc)
        H = harmonic_space(mesh, k, _FLAVOR_OF["abc", bc])
        reports[bc] = _assemble_report(
            "hodge-%s" % bc,
            {"full": p0.dim},
            {"range_below": below, "harmonic": (H.dim, H.basis), "corange_above": above},
            p0,
        )
    return _combined("hodge", reports)


def horizontal_slices(mesh, k):
    """The four slices of the horizontal duality at degree k, by name.

    A slice is the part of a range (or kernel) with bc none orthogonal to
    the one with homogeneous bc: the forms closed with bc none, orthogonal
    to the range below with homogeneous bc and to the harmonic space H with
    bc none (with homogeneous bc), of the dimension d the integer ranks of
    `complex_rank` give.  `_certified_null` finds the null space N of the
    sparse first two conditions, of dimension d + dim H as H lies in it,
    and then the d null vectors of the small dense H^T g N, else
    ToleranceFailure.
    """
    lad = ladder(mesh)

    def drop(complex_, j, kernel):
        """dim(none) - dim(homogeneous) of the range from degree j, or of the kernel."""
        def dim(bc):
            r = complex_rank(mesh, complex_, j, bc)
            return _complex_dim(lad, complex_, j, bc) - r if kernel else r
        return dim("none") - dim("homogeneous")

    slices = {}
    for name, complex_, j, flavor, dim, what in (
        ("range_slice_high", "abc", k + 1, "abc", drop("abc", k, False),
         "range slice of d from degree %d" % k),
        ("kernel_slice_high", "star", k + 1, "star0", drop("star", k + 1, True),
         "kernel slice of delta at degree %d" % (k + 1)),
        ("corange_slice_low", "star", k, "star", drop("star", k + 1, False),
         "range slice of delta from degree %d" % (k + 1)),
        ("kernel_slice_low", "abc", k, "abc0", drop("abc", k, True),
         "kernel slice of d at degree %d" % k),
    ):
        p0, H = lad.p0(j), harmonic_space(mesh, j, flavor).basis
        what = "%s, dimension %d" % (what, dim)
        conditions = _conditions(lad, complex_, j, "none", "homogeneous")
        N = _certified_null(conditions, dim + H.shape[1], what, lad.sparse)
        if H.shape[1]:
            N = _certified_null((H.T @ (p0.gram @ N), lambda Y, N=N: N @ Y), dim, what, False)
        slices[name] = Subspace(p0.dim, N, p0.gram)
    return slices


def horizontal_duality_check(mesh, k):
    """Range and kernel slices between the two boundary placements agree: the
    slices of `horizontal_slices`, by principal angles and inf-sups."""
    slices = horizontal_slices(mesh, k)
    dR, dN = slices["range_slice_high"], slices["kernel_slice_high"]
    dRs, dNk = slices["corange_slice_low"], slices["kernel_slice_low"]
    ok1, ang1 = subspace_equal(dR, dN, dR.gram, tol=1e-8)
    ok2, ang2 = subspace_equal(dRs, dNk, dRs.gram, tol=1e-8)
    report = base_pair_report(mesh, k)
    bound = min(report.alpha, report.beta)
    gamma1 = infsup(dR, dN, dR.gram) if dR.dim and dN.dim else 1.0
    gamma2 = infsup(dRs, dNk, dRs.gram) if dRs.dim and dNk.dim else 1.0
    hyp = report.assumptions_ok["twisted_kernel_dims_match"]
    identity_holds = ok1 and ok2
    verdict = "pass" if (identity_holds if hyp else min(gamma1, gamma2) >= bound - 1e-10) else "fail"
    return DecompositionReport(
        name="horizontal-duality",
        lhs_dims={"range_slice_high": dR.dim, "corange_slice_low": dRs.dim},
        rhs_dims={"kernel_slice_high": dN.dim, "kernel_slice_low": dNk.dim},
        orthogonality_residual=0.0,
        identity_angle=max(ang1, ang2),
        verdict=verdict,
        detail={"infsup_high": gamma1, "infsup_low": gamma2, "bound": bound},
        vacuous=_vacuous("slices-high", dR.dim, dN.dim) + _vacuous("slices-low", dRs.dim, dNk.dim),
    )

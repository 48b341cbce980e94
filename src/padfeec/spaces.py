"""Global finite element spaces over a simplicial mesh.

Everything lives in broken coordinates: a broken space is the block product of
one local space per cell, and every global space (conforming Whitney forms,
their star conjugates, the nonconforming spaces cut out by pairing
constraints against a conforming partner) is an atlas matrix whose columns
are broken coefficient vectors.  Differentials of all the trimmed families
land in piecewise-constant forms, so ranges, kernels and decompositions are
computed inside small piecewise-constant coordinate spaces.

Broken and piecewise-constant coordinates share one block layout: cell i
owns the rows or columns ``cell_slice(i)`` of `BrokenSpace` and `P0Space`,
and every cellwise operator (Gram, pairing, d, delta, star, P0 injection and
projection) is a `scipy.sparse` CSR array assembled by `block_diagonal` from
its per-cell blocks; ``@`` with a dense operand gives a dense array.  The P0
Gram is the diagonal of cell volumes.  Each `BrokenSpace` also keeps the
inverse R^-1 of its cellwise upper Cholesky factor (G = R^T R), so that a
constraint nullspace N gives the Gram-orthonormal atlas R^-1 N without a
further orthonormalization.  Atlases and nullspace bases stay dense.  The
cells that hold a sub-simplex come from the owner table of
`Mesh.subsimplices`.

The mesh's `DeRhamLadder` is the one home of the operators of a broken
space.  For each family (primal, dual, full) and degree it builds the
cellwise d and delta into piecewise constants, the P0 injection and
projection, the pairing and each cell's pairing-relative decomposition once,
and keeps them for the life of the mesh.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import (
    AssemblyError,
    AssumptionViolation,
    InvalidParameter,
    ToleranceFailure,
)
from .forms import (
    PolyForm,
    codifferential,
    exterior_derivative,
    hodge_star,
    l2_inner,
    multiindices,
    star_sign,
)
from .linalg import RANK_TOL, Subspace, block_diagonal, gram_factor, nullspace, rank
from .local import (
    LocalSpace,
    decompose_local,
    mixed_local,
    pairing_matrix,
    whitney_local,
    whitney_form,
)


class P0Space:
    """Piecewise-constant k-forms: the coordinate space of all differentials.

    Basis ordering is (cell, multi-index) lexicographic; the L2 Gram is the
    diagonal of cell volumes since the coordinate coframe is orthonormal.
    """

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        self.midx = multiindices(k, mesh.dim)
        self.ncomp = len(self.midx)
        self.dim = self.ncomp * mesh.num_cells
        vols = np.array([mesh.cell_geometry(i).volume for i in range(mesh.num_cells)])
        self.volumes = vols
        self.gram = scipy.sparse.diags_array(np.repeat(vols, self.ncomp), format="csr")

    def cell_slice(self, i):
        return slice(i * self.ncomp, (i + 1) * self.ncomp)

    def star_matrix(self):
        """Signed permutation onto the piecewise-constant (n-k)-forms."""
        n = self.mesh.dim
        target = multiindices(n - self.k, n)
        pos = {m: i for i, m in enumerate(target)}
        block = np.zeros((len(target), self.ncomp))
        for mi, m in enumerate(self.midx):
            sign, comp = star_sign(m, n)
            block[pos[comp], mi] = sign
        return block_diagonal([block] * self.mesh.num_cells)


class BrokenSpace:
    """Block product of one local space per cell."""

    def __init__(self, mesh, k, factory, name):
        self.mesh = mesh
        self.k = k
        self.name = name
        self.locals = [factory(mesh.cell_geometry(i)) for i in range(mesh.num_cells)]
        self.block_dims = [sp.dim for sp in self.locals]
        self.offsets = np.concatenate([[0], np.cumsum(self.block_dims)])
        self.dim = int(self.offsets[-1])
        self._gram = None
        self._factor_inverse = None

    def cell_slice(self, i):
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def gram(self):
        if self._gram is None:
            self._gram = block_diagonal([sp.gram() for sp in self.locals])
        return self._gram

    def gram_factor_inverse(self):
        """R^-1 for the cellwise upper Cholesky factor R of the Gram, G = R^T R.

        For any Euclidean-orthonormal N, the columns of R^-1 N are
        G-orthonormal.
        """
        if self._factor_inverse is None:
            self._factor_inverse = gram_factor(self.gram())[1]
        return self._factor_inverse

    def form_on_cell(self, vec, i):
        return self.locals[i].form_from_coeffs(vec[self.cell_slice(i)])


def d_pairing(primal: BrokenSpace, dual: BrokenSpace):
    """Block pairing B[i, j] = <v_i, delta q_j> - <d v_i, q_j>, assembled cellwise."""
    if dual.k != primal.k + 1:
        raise AssemblyError("pairing needs degrees k and k+1")
    return block_diagonal([pairing_matrix(p, q) for p, q in zip(primal.locals, dual.locals)])


def block_d_expand(source: BrokenSpace, target: BrokenSpace):
    """Cellwise exterior derivative from one broken space into another.

    The image of every source basis form must lie in the target local space.
    """
    if target.k != source.k + 1:
        raise AssemblyError("derivative must raise the degree by one")
    return block_diagonal([
        np.column_stack([tgt.expand(exterior_derivative(w)) for w in src.basis])
        for src, tgt in zip(source.locals, target.locals)
    ])


def star_block_matrix(source: BrokenSpace, target: BrokenSpace):
    """Cellwise Hodge star as a map between broken coordinate spaces."""
    if source.k + target.k != source.mesh.dim:
        raise AssemblyError("star must map degree k to n-k")
    return block_diagonal([
        np.column_stack([tgt.expand(hodge_star(w)) for w in src.basis])
        for src, tgt in zip(source.locals, target.locals)
    ])


@dataclass
class GlobalSpace:
    """A subspace of a broken space given by an atlas of coefficient columns.

    ``span`` is the atlas as an orthonormal `Subspace`; a constructor that
    already holds one passes it, otherwise `subspace` builds it on first use.
    """

    broken: BrokenSpace
    atlas: np.ndarray
    kind: str
    bc: str = "none"
    anchors: list = field(default_factory=list)
    constraint_rank: int = 0
    span: Subspace = field(default=None, repr=False, compare=False)

    @property
    def mesh(self):
        return self.broken.mesh

    @property
    def k(self):
        return self.broken.k

    @property
    def dim(self):
        return self.atlas.shape[1]

    def subspace(self):
        if self.span is None:
            self.span = Subspace.from_span(self.atlas, self.broken.gram())
        return self.span


@dataclass
class ConstraintSet:
    """Rows are the pairing functionals against a conforming partner basis."""

    matrix: np.ndarray
    partner: GlobalSpace


@dataclass
class BasisFunction:
    category: str  # "type-I" or "type-II"
    anchor: tuple  # ("cell", index) or ("subsimplex", vertices)
    vector: np.ndarray


@dataclass
class BasisAtlas:
    broken: BrokenSpace
    functions: list

    @property
    def dim(self):
        return len(self.functions)

    def matrix(self):
        if not self.functions:
            return np.zeros((self.broken.dim, 0))
        return np.column_stack([f.vector for f in self.functions])

    def count(self, category):
        return sum(1 for f in self.functions if f.category == category)


# Largest dense float64 matrix a ladder may need, in MiB (box:32 needs 512).
DENSE_LIMIT_MB = 1024


def _largest_dense_dim(mesh):
    """Order of the largest dense matrix a ladder builds on ``mesh``.

    The widest broken space has one block per cell, of the widest local
    space: C(n+1, k+1) trimmed forms in the primal and dual families, and
    C(n, k-1) + C(n, k) + C(n, k+1) in the full family, k = 1..n-1.  Its Gram
    matrix and the nullspace bases of its constraints are square in it.
    """
    n = mesh.dim
    widest = max(
        [math.comb(n + 1, k + 1) for k in range(n + 1)]
        + [math.comb(n, k - 1) + math.comb(n, k) + math.comb(n, k + 1) for k in range(1, n)]
    )
    return mesh.num_cells * widest


class DeRhamLadder:
    """Per-mesh cache of broken spaces, their operators and conforming atlases.

    This is the one place that builds the operators of a broken space, for
    each family (`primal`, `dual`, `full`) and degree: the cellwise d and
    delta into piecewise constants, the P0 injection and projection, the
    pairing, and each cell's pairing-relative decomposition.  The mesh owns
    its one ladder (see `ladder`); interpolators, mixed spaces and harmonic
    spaces are kept here too, so all of it is freed with the mesh.

    A mesh whose largest dense matrix would exceed `DENSE_LIMIT_MB` is
    refused before anything is built.
    """

    def __init__(self, mesh):
        size = _largest_dense_dim(mesh)
        megabytes = 8.0 * size * size / 2**20
        if megabytes > DENSE_LIMIT_MB:
            raise InvalidParameter(
                "mesh too large for dense algebra: the largest matrix would be "
                "%d x %d (%.0f MiB, limit %d MiB)" % (size, size, megabytes, DENSE_LIMIT_MB)
            )
        self.mesh = mesh
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def p0(self, k):
        return self._get(("p0", k), lambda: P0Space(self.mesh, k))

    def broken(self, k, family):
        """Broken trimmed k-forms of one family: 'primal', 'dual' or 'full'."""
        if family == "full":
            factory = lambda c: mixed_local(c, k)  # noqa: E731
        elif family in ("primal", "dual"):
            factory = lambda c: whitney_local(c, k, family)  # noqa: E731
        else:
            raise InvalidParameter("unknown broken family %r" % (family,))
        return self._get((family, k), lambda: BrokenSpace(self.mesh, k, factory, family))

    def primal(self, k):
        return self.broken(k, "primal")

    def dual(self, k):
        return self.broken(k, "dual")

    def full(self, k):
        return self.broken(k, "full")

    def d_matrix(self, k, family="primal"):
        """Cellwise exterior derivative into constant (k+1)-forms."""
        return self._get(
            ("d", k, family), lambda: self._cellwise(k, family, k + 1, exterior_derivative)
        )

    def delta_matrix(self, k, family="dual"):
        """Cellwise codifferential into constant (k-1)-forms."""
        return self._get(
            ("delta", k, family), lambda: self._cellwise(k, family, k - 1, codifferential)
        )

    def _cellwise(self, k, family, target_k, op):
        """Matrix of d or delta on every local basis form, in P0 coordinates.

        The target is empty at the chain ends (d at the top degree, delta at
        degree 0), where the matrix has no rows.
        """
        source, target = self.broken(k, family), self.p0(target_k)
        if target.dim == 0:
            return scipy.sparse.csr_array((0, source.dim))
        blocks = []
        for sp in source.locals:
            block = np.zeros((target.ncomp, sp.dim))
            for j, w in enumerate(sp.basis):
                image = op(w)
                if image.poly_degree() > 0:
                    raise AssemblyError("%s is not piecewise constant" % op.__name__)
                for (_, midx), c in image.terms.items():
                    block[target.midx.index(midx), j] = c
            blocks.append(block)
        return block_diagonal(blocks)

    def p0_injection(self, k, family="primal"):
        """Inclusion of constant k-forms; they are the leading local basis."""

        def build():
            ncomp = self.p0(k).ncomp
            return block_diagonal([np.eye(sp.dim, ncomp) for sp in self.broken(k, family).locals])

        return self._get(("p0-injection", k, family), build)

    def p0_projection(self, k, family="primal"):
        """L2 projection onto constant k-forms, in coordinates."""

        def build():
            p0 = self.p0(k)
            units = [PolyForm.basis_form(self.mesh.dim, m) for m in p0.midx]
            return block_diagonal([
                np.array([[l2_inner(u, w, sp.cell) / vol for w in sp.basis] for u in units])
                for sp, vol in zip(self.broken(k, family).locals, p0.volumes)
            ])

        return self._get(("p0-projection", k, family), build)

    def pairing(self, k):
        """Pairing of broken primal k-forms with broken dual (k+1)-forms."""
        return self._get(
            ("pairing", k), lambda: d_pairing(self.primal(k), self.dual(k + 1))
        )

    def local_decompositions(self, k):
        """Each cell's decomposition of (primal k-forms, dual (k+1)-forms).

        At the top degree the dual side is the empty space of (n+1)-forms.
        """

        def build():
            primal = self.primal(k).locals
            if k < self.mesh.dim:
                duals = self.dual(k + 1).locals
            else:
                duals = [LocalSpace(sp.cell, k + 1, [], op="delta") for sp in primal]
            return [decompose_local(p, q) for p, q in zip(primal, duals)]

        return self._get(("localdec", k), build)

    def whitney(self, k, bc="none"):
        return self._get(("whitney", k, bc), lambda: conforming_whitney(self.mesh, k, bc, self))

    def whitney_star(self, k, bc="none"):
        return self._get(
            ("whitney-star", k, bc),
            lambda: star_space(self.whitney(self.mesh.dim - k, bc), self),
        )

    def abc(self, k, bc="none"):
        return self._get(
            ("abc", k, bc), lambda: abcfes_by_constraints(self.mesh, k, bc, self)
        )

    def abc_atlas(self, k, bc="none"):
        return self._get(
            ("abc-atlas", k, bc), lambda: abcfes_local_basis(self.mesh, k, bc, self)
        )


def ladder(mesh):
    """The mesh's ladder, built on first use; it is freed with the mesh."""
    if mesh._ladder is None:
        mesh._ladder = DeRhamLadder(mesh)
    return mesh._ladder


# -- space constructors ----------------------------------------------------------


def broken_space(mesh, k, variant="primal"):
    """The whole broken trimmed space as a GlobalSpace (identity atlas)."""
    broken = ladder(mesh).broken(k, variant)
    return GlobalSpace(broken, np.eye(broken.dim), kind="broken")


def conforming_whitney(mesh, k, bc="none", lad=None):
    """Conforming Whitney k-forms: one degree of freedom per k-sub-simplex.

    With homogeneous boundary conditions the boundary sub-simplices are
    dropped.  Columns are expanded per cell in the trimmed local bases; the
    atlas is deterministic because degrees of freedom are sorted by their
    vertex tuples.
    """
    lad = lad or ladder(mesh)
    broken = lad.primal(k)
    table = mesh.subsimplices(k)
    order = sorted(range(table.count), key=lambda i: table.simplices[i])
    if bc == "homogeneous":
        dofs = [i for i in order if not table.boundary[i]]
    elif bc == "none":
        dofs = order
    else:
        raise InvalidParameter("bc must be 'none' or 'homogeneous'")
    A = np.zeros((broken.dim, len(dofs)))
    anchors = []
    for col, sid in enumerate(dofs):
        anchors.append(table.simplices[sid])
        for ci, local_ids in table.owners[sid]:
            w = whitney_form(mesh.cell_geometry(ci), local_ids)
            A[broken.cell_slice(ci), col] = broken.locals[ci].expand(w)
    return GlobalSpace(broken, A, kind="conforming" if bc == "none" else "conforming0",
                       bc=bc, anchors=anchors)


def star_space(space: GlobalSpace, lad=None):
    """Cellwise Hodge star of a conforming space; degree n-k, kind 'star'."""
    lad = lad or ladder(space.mesh)
    n = space.mesh.dim
    target = lad.dual(n - space.k)
    S = star_block_matrix(space.broken, target)
    return GlobalSpace(
        target, S @ space.atlas, kind="star", bc=space.bc, anchors=list(space.anchors)
    )


def abcfes_by_constraints(mesh, k, bc="none", lad=None):
    """Nonconforming space cut out of the broken trimmed k-forms.

    The constraints pair against the star-conjugated conforming space one
    degree up, with the opposite boundary treatment; at the top degree the
    space is the whole broken constant space.
    """
    lad = lad or ladder(mesh)
    broken = lad.primal(k)
    if k == mesh.dim:
        gs = GlobalSpace(broken, np.eye(broken.dim), kind="abc" if bc == "none" else "abc0", bc=bc)
        return gs, ConstraintSet(np.zeros((0, broken.dim)), None)
    partner_bc = "homogeneous" if bc == "none" else "none"
    partner = lad.whitney_star(k + 1, partner_bc)
    B = lad.pairing(k)
    C = (B @ partner.atlas).T
    if C.shape[0]:
        s = np.linalg.svd(C, compute_uv=False)
        r = int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0
        if 0 < r < len(s) and s[r - 1] / max(s[r], 1e-300) < 1e3:
            raise ToleranceFailure("constraint rank detection is ambiguous")
    else:
        r = 0
    # null vectors of C R^-1 are Euclidean-orthonormal, so A = R^-1 N is
    # Gram-orthonormal and spans the null space of C
    Rinv = broken.gram_factor_inverse()
    A = Rinv @ nullspace(C @ Rinv).basis
    if A.shape[1] != broken.dim - r:
        raise ToleranceFailure(
            "constraint rank %d of C disagrees with rank %d of C R^-1"
            % (r, broken.dim - A.shape[1])
        )
    gs = GlobalSpace(
        broken,
        A,
        kind="abc" if bc == "none" else "abc0",
        bc=bc,
        constraint_rank=r,
        span=Subspace(broken.dim, A, broken.gram()),
    )
    return gs, ConstraintSet(C, partner)


def abcfes_local_basis(mesh, k, bc="none", lad=None):
    """Compactly supported basis of the nonconforming space.

    Type-I functions are single-cell: the local pairing-null members plus the
    members annihilating every overlapping conforming-partner functional.
    Type-II functions chain the dual-paired cell representatives over the
    support of one partner basis function, two adjacent cells at a time, and
    close the single global pairing condition.
    """
    lad = lad or ladder(mesh)
    broken = lad.primal(k)
    if k == mesh.dim:
        funcs = []
        for ci in range(mesh.num_cells):
            s = broken.cell_slice(ci)
            for j in range(broken.block_dims[ci]):
                vec = np.zeros(broken.dim)
                vec[s.start + j] = 1.0
                funcs.append(BasisFunction("type-I", ("cell", ci), vec))
        return BasisAtlas(broken, funcs)
    partner_bc = "homogeneous" if bc == "none" else "none"
    partner = lad.whitney_star(k + 1, partner_bc)
    # pairing of every broken basis form with every partner column
    BP = lad.pairing(k) @ partner.atlas
    decs = lad.local_decompositions(k)
    # cells supporting each partner basis function
    table = mesh.subsimplices(mesh.dim - k - 1)
    support = [[ci for ci, _ in table.owners[table.index[sub]]] for sub in partner.anchors]
    cell_funcs = {ci: [] for ci in range(mesh.num_cells)}
    for j in range(partner.dim):
        for ci in support[j]:
            cell_funcs[ci].append(j)
    funcs = []
    reps = {}
    for ci in range(mesh.num_cells):
        s = broken.cell_slice(ci)
        dec = decs[ci]
        I2 = cell_funcs[ci]
        PB = dec.PB.basis  # local coordinates of the twisted part
        if dec.P0.dim:
            for col in range(dec.P0.dim):
                vec = np.zeros(broken.dim)
                vec[s] = dec.P0.basis[:, col]
                funcs.append(BasisFunction("type-I", ("cell", ci), vec))
        # functionals of the overlapping partner columns, restricted to PB
        L = BP[s, I2].T @ PB if I2 else np.zeros((0, PB.shape[1]))
        if I2:
            if rank(L, tol=1e-10) < len(I2):
                raise AssumptionViolation(
                    "partner restrictions dependent on cell %d" % ci
                )
            V = np.linalg.pinv(L)  # columns: local representatives per functional
            for j_local, j in enumerate(I2):
                reps[(ci, j)] = PB @ V[:, j_local]
            null_local = nullspace(L).basis
        else:
            null_local = np.eye(PB.shape[1])
        for col in range(null_local.shape[1]):
            vec = np.zeros(broken.dim)
            vec[s] = PB @ null_local[:, col]
            funcs.append(BasisFunction("type-I", ("cell", ci), vec))
    for j in range(partner.dim):
        cells = support[j]
        if len(cells) < 2:
            continue
        anchor = partner.anchors[j]
        ordered = cells
        if len(anchor) == 1 and mesh.dim == 2:
            patch = mesh.vertex_patch(anchor[0]).cells
            ordered = [c for c in patch if c in cells]
        for a, b in zip(ordered, ordered[1:]):
            vec = np.zeros(broken.dim)
            vec[broken.cell_slice(a)] += reps[(a, j)]
            vec[broken.cell_slice(b)] -= reps[(b, j)]
            funcs.append(BasisFunction("type-II", ("subsimplex", anchor), vec))
    return BasisAtlas(broken, funcs)


# -- verification helpers ---------------------------------------------------------


def verify_trace_continuity(space: GlobalSpace, tol=1e-11):
    """Worst inter-cell trace mismatch of the atlas columns on shared facets.

    The trace of each column is pulled back to every interior sub-simplex of
    dimension >= k from both owner cells with one shared parametrization; the
    mismatch is measured in the parametric L2 norm.
    """
    from .forms import trace_on, reference_simplex

    mesh = space.mesh
    broken = space.broken
    k = space.k
    if k == mesh.dim:
        return 0.0
    facets = mesh.subsimplices(mesh.dim - 1)
    worst = 0.0
    ref = reference_simplex(mesh.dim - 1)
    for sub, owners in zip(facets.simplices, facets.owners):
        if len(owners) != 2:
            continue
        coords = mesh.vertices[list(sub)]
        for col in range(space.dim):
            tr = []
            for ci, _ in owners:
                form = broken.form_on_cell(space.atlas[:, col], ci)
                tr.append(trace_on(form, coords))
            diff = tr[0] - tr[1]
            err2 = 0.0
            for (ea, ma), ca in diff.terms.items():
                for (eb, mb), cb in diff.terms.items():
                    if ma == mb:
                        expo = tuple(x + y for x, y in zip(ea, eb))
                        err2 += ca * cb * ref.monomial_integral(expo)
            worst = max(worst, math.sqrt(abs(err2)))
    return worst


def space_summary(space: GlobalSpace, atlas: BasisAtlas = None):
    summary = {
        "kind": space.kind,
        "bc": space.bc,
        "degree": space.k,
        "dim": space.dim,
        "broken_dim": space.broken.dim,
        "constraint_rank": space.constraint_rank,
    }
    if atlas is not None:
        summary["type_I_count"] = atlas.count("type-I")
        summary["type_II_count"] = atlas.count("type-II")
    return summary

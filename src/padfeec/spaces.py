"""Global finite element spaces over a simplicial mesh.

Everything lives in broken coordinates: a broken space is the block product of
one local space per cell, and every global space (conforming Whitney forms,
their star conjugates, the nonconforming spaces cut out by pairing
constraints against a conforming partner) is an atlas matrix whose columns
are broken coefficient vectors.  Differentials of all the trimmed families
land in piecewise-constant forms, so ranges, kernels and decompositions are
computed inside small piecewise-constant coordinate spaces.

In coordinates centred at a cell's centroid, every trimmed basis (the
constants plus the centred Koszul images) has the same coefficients on every
cell.  So each cellwise operator of a `BrokenSpace` is a fixed reference
block (`local.reference_block`): d, delta, the star and the P0 injection and
projection are that block on every cell, the pairing and the energy Grams
are the cell volume times a block, and the Grams are batched over the cells
from the volumes and centred second moments that `MeshGeometry` computes
once per mesh, with the monomial moments that the mass matrices read.  The
pairing-relative decompositions of all cells come from one batched pass
over these stacks, and the Whitney atlas is in closed form from the
barycentric gradients.  A cell's basis forms, where a caller asks for them,
are the block's coefficient columns shifted to the cell's centroid.

Broken and piecewise-constant coordinates share one block layout: cell i
owns the rows or columns ``cell_slice(i)`` of `BrokenSpace` and `P0Space`,
and every cellwise operator (pairing, d, delta, P0 injection and
projection) is a `scipy.sparse` CSR array written by `block_diagonal`
straight from its (cells, r, c) stack; ``@`` with a dense operand gives a
dense array.  The L2 Grams are `linalg.Gram`s, each built by its space
from its stack of cell blocks (the cell volumes of a `P0Space`, the cell
Grams of a `BrokenSpace`) and owning that stack's upper Cholesky factor
G_K = R_K^T R_K, computed once, on first use.  The batched cell passes read
the stacked factor, and a constraint nullspace N gives the Gram-orthonormal
atlas R^-1 N without a further orthonormalization.

The Whitney atlas is a CSC array written straight from the cells' closed-form
blocks (`_cell_columns`), each column on the patch of its sub-simplex; the
starred atlas is the cellwise star of it, and the constraint matrix C, the
pairing times the starred partner atlas, is a CSR array.  So no array of
the broken dimension times the partner's is formed.  The ladder also keeps
the compact nonconforming basis and the starred atlases with columns of
unit broken-Gram norm, as CSC arrays from `SPARSE_CELLS` cells up and dense
below, and everything that runs on the nonconforming space runs on these.
Each compact basis function keeps only its cell blocks, and the compact
basis is written, scaled, straight from them.  The cells that hold a
sub-simplex come from the incidence and owner tables of `Mesh.subsimplices`.
The constraint route's dense pivoted QR (`abcfes_by_constraints`) is the
compact basis's cross-check, built only by `verify complex` and `space build`.

The mesh's `DeRhamLadder` is the one home of the operators of a broken
space, and of the nonconforming constraint matrix C that both routes to
the nonconforming space read.  For each family (primal, dual, full) and degree it builds the
cellwise d and delta into piecewise constants, the P0 injection and
projection, the pairing and each cell's pairing-relative decomposition once,
and keeps them, with the mesh's geometry arrays, for the life of the mesh.
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
    MAX_COEFF_DEGREE,
    PolyForm,
    monomial_values,
    multiindices,
    product_positions,
    reference_simplex,
    simplex_quadrature,
    trace_on,
)
from .linalg import (
    Gram,
    Subspace,
    block_diagonal,
    diagonal_blocks,
    gram_factor,
    pivoted_nullspace,
    unit_columns,
)
from .local import (
    FAMILY_OPS,
    decompose_local,
    reference_block,
    reference_pairing,
    reference_star,
    whitney_coefficients,
)


class MeshGeometry:
    """Per-cell arrays of one mesh, computed in one vectorized pass.

    ``volumes`` (cells,), ``centroids`` (cells, n), ``gradients`` (cells,
    n+1, n) of the barycentric coordinates, and ``second_moments`` (cells, n,
    n), the centred moments vol/((n+1)(n+2)) sum_i w_i w_i^T with w_i = v_i
    - centroid.  Cells list their vertices in the mesh's ascending order, as
    `Mesh.cell_geometry` does.
    """

    def __init__(self, mesh):
        n = mesh.dim
        V = mesh.vertices[np.array(mesh.cells)]  # (cells, n+1, n)
        self.corners = V
        self.volumes = np.abs(np.linalg.det(np.swapaxes(V[:, 1:] - V[:, :1], 1, 2))) / math.factorial(n)
        self.centroids = V.mean(axis=1)
        A = np.concatenate([np.ones((len(V), 1, n + 1)), np.swapaxes(V, 1, 2)], axis=1)
        self.gradients = np.linalg.inv(A)[:, :, 1:]
        W = V - self.centroids[:, None, :]
        self.second_moments = np.einsum("cia,cib->cab", W, W) * (
            self.volumes / ((n + 1) * (n + 2))
        )[:, None, None]
        self._moments = None

    def moments(self):
        """(cells, monomials) integrals of every monomial of degree <= 2 MAX_COEFF_DEGREE.

        A Grundmann-Moeller rule exact to that degree, mapped to every cell
        at once; `CellGeometry.monomial_integral` is its oracle.
        """
        if self._moments is None:
            V = self.corners
            cells, n1, n = V.shape
            degree = 2 * MAX_COEFF_DEGREE
            pts, wts = simplex_quadrature(n, degree + 1)
            points = V[:, :1] + np.matmul(pts, V[:, 1:] - V[:, :1])  # (cells, q, n)
            values = monomial_values(points.reshape(-1, n), degree).reshape(cells, len(wts), -1)
            weights = np.outer(self.volumes * math.factorial(n), wts)
            self._moments = np.matmul(weights[:, None, :], values)[:, 0]
        return self._moments

    def mass_matrices(self, k):
        """(cells, N, N) L2 Grams of the coordinate basis of k-forms: one block of
        monomial moments per multi-index (row 0 of a block: every monomial's integral)."""
        n = self.corners.shape[2]
        masses = self.moments()[:, product_positions(n)]
        return np.kron(np.eye(len(multiindices(k, n))), masses)


def _repeat(block, cells):
    """The same block on every cell, as a read-only (cells, r, c) view."""
    return np.broadcast_to(block, (cells,) + block.shape)


def _cell_columns(cols, cells, V, shape):
    """CSC array whose column ``cols[p]`` holds the block ``V[p]`` on cell ``cells[p]``.

    ``V`` is (blocks, dim) with dim the rows of one cell; each (cell, column)
    pair occurs once, so every entry is written, not summed.  Zeros are not
    stored.
    """
    rows = cells[:, None] * V.shape[1] + np.arange(V.shape[1])
    A = scipy.sparse.csc_array((V.ravel(), (rows.ravel(), np.repeat(cols, V.shape[1]))), shape)
    A.eliminate_zeros()
    return A


class P0Space:
    """Piecewise-constant k-forms: the coordinate space of all differentials.

    Basis ordering is (cell, multi-index) lexicographic; the L2 Gram is the
    diagonal of cell volumes since the coordinate coframe is orthonormal.
    """

    def __init__(self, mesh, k, volumes):
        self.mesh = mesh
        self.k = k
        self.midx = multiindices(k, mesh.dim)
        self.ncomp = len(self.midx)
        self.dim = self.ncomp * mesh.num_cells
        self.volumes = volumes
        self.gram = Gram.diagonal(np.repeat(volumes, self.ncomp))

    def cell_slice(self, i):
        return slice(i * self.ncomp, (i + 1) * self.ncomp)

    def star_matrix(self):
        """Signed permutation onto the piecewise-constant (n-k)-forms.

        On each cell it is the constants' block of `reference_star`.
        """
        n = self.mesh.dim
        block = reference_star(n, self.k)[: len(multiindices(n - self.k, n)), : self.ncomp]
        return block_diagonal(_repeat(block, self.mesh.num_cells))


class BrokenSpace:
    """One trimmed family on every cell: the block product of its local spaces.

    In coordinates centred at a cell's centroid the family's basis has the
    same coefficients on every cell, so every cellwise array comes from its
    reference block and the mesh's geometry: the Grams are batched over the
    cells from the volumes and centred second moments, the energy Grams are
    the volumes times the block's energy, and a cell's basis forms are the
    block's coefficient columns shifted to the cell's centroid.
    """

    def __init__(self, mesh, k, family, geometry):
        self.mesh = mesh
        self.k = k
        self.name = family
        self.reference = reference_block(mesh.dim, k, family)
        self.geometry = geometry
        self.block_dims = [self.reference.dim] * mesh.num_cells
        self.dim = self.reference.dim * mesh.num_cells
        self._gram = None

    def cell_slice(self, i):
        return slice(i * self.reference.dim, (i + 1) * self.reference.dim)

    def gram(self):
        """The L2 `Gram` of the cells' stack; it owns the stack's factor."""
        if self._gram is None:
            g = self.geometry
            self._gram = Gram(self.reference.grams(g.volumes, g.second_moments))
        return self._gram

    def gram_blocks(self):
        """(cells, dim, dim) stack of the cells' L2 Grams."""
        return self.gram().stack

    def energy_blocks(self):
        """(cells, dim, dim) stack of the cells' energy Grams."""
        return self.reference.energy_grams(self.geometry.volumes)

    def form_on_cell(self, vec, i):
        """The form on cell ``i`` with coefficients ``vec[cell_slice(i)]``."""
        columns = self.reference.coefficients(self.geometry.centroids[i : i + 1])[0]
        return PolyForm.from_coefficient_vector(
            self.mesh.dim, self.k, columns @ vec[self.cell_slice(i)]
        )


def d_pairing(primal: BrokenSpace, dual: BrokenSpace):
    """Block pairing B[i, j] = <v_i, delta q_j> - <d v_i, q_j>.

    Each cell block is the cell volume times the families' reference block.
    """
    if dual.k != primal.k + 1:
        raise AssemblyError("pairing needs degrees k and k+1")
    B = reference_pairing(primal.mesh.dim, primal.k, primal.name, dual.name)
    return block_diagonal(primal.geometry.volumes[:, None, None] * B)


@dataclass
class GlobalSpace:
    """A subspace of a broken space given by an atlas of coefficient columns.

    The Whitney and starred atlases are CSC arrays, each column with
    blocks only on the cells of its patch, and so are the identity atlases
    of a whole broken space and of the top degree; the constraint route's
    atlas below the top degree is dense.  ``span`` is the
    atlas as an orthonormal `Subspace`; a constructor that already holds one
    passes it, otherwise `subspace` builds it on first use, densifying the
    atlas for its QR.
    """

    broken: BrokenSpace
    atlas: "np.ndarray | scipy.sparse.csc_array"
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
    """Rows are the pairing functionals against a conforming partner basis,
    as the CSR array `DeRhamLadder.abc_constraints`."""

    matrix: scipy.sparse.csr_array
    partner: GlobalSpace


@dataclass
class BasisFunction:
    """A compact basis function of a broken space of dimension ``size``.

    ``pieces`` are its nonzero cell blocks, (cell, coefficients); the
    full-length ``vector`` is written from them on each read.
    """

    category: str  # "type-I" or "type-II"
    anchor: tuple  # ("cell", index) or ("subsimplex", vertices)
    pieces: list
    size: int

    @property
    def vector(self):
        vec = np.zeros(self.size)
        for cell, values in self.pieces:
            vec[cell * values.size : (cell + 1) * values.size] = values
        return vec


@dataclass
class BasisAtlas:
    broken: BrokenSpace
    functions: list

    @property
    def dim(self):
        return len(self.functions)

    def matrix(self):
        """The functions as the columns of a dense array."""
        return self._columns(*self._blocks(), sparse=False)

    def unit_columns(self, gram, sparse):
        """The functions scaled to unit norm in ``gram``, the broken space's
        `Gram`, as the columns of a CSC array if ``sparse`` and of a dense
        one otherwise.  Each norm is summed over the function's cell blocks,
        so both formats hold the same numbers."""
        cols, cells, V = self._blocks()
        squares = np.einsum("pi,pij,pj->p", V, gram.stack[cells], V)
        V = V / np.sqrt(np.bincount(cols, squares, minlength=self.dim))[cols, None]
        return self._columns(cols, cells, V, sparse)

    def _blocks(self):
        """Column, cell and coefficients of every function's cell blocks, as arrays."""
        blocks = [(j, cell, values) for j, f in enumerate(self.functions) for cell, values in f.pieces]
        cols, cells, values = zip(*blocks) if blocks else ((), (), ())
        V = np.reshape(values, (len(blocks), self.broken.reference.dim))
        return np.array(cols, dtype=int), np.array(cells, dtype=int), V

    def _columns(self, cols, cells, V, sparse):
        shape = (self.broken.dim, self.dim)
        if sparse:
            return _cell_columns(cols, cells, V, shape)
        A = np.zeros(shape)
        A[cells[:, None] * V.shape[1] + np.arange(V.shape[1]), cols[:, None]] = V
        return A

    def count(self, category):
        return sum(1 for f in self.functions if f.category == category)


# Largest dense float64 matrix a ladder may need, in MiB (box:32 needs 512).
# The Whitney and starred atlases are sparse, so `solve hodge` no longer
# needs such a matrix: with this guard lifted, `solve hodge --k 1 --scheme
# all --check-equivalence` passed every record on box:64 (8,192 MiB
# reckoned) in 8.5 s at a 334 MB peak RSS, and on tetbox:8 (3,528 MiB) in
# 23.8 s at 625 MB (2 CPUs, OpenBLAS).  The guard stays for the routes that
# still take a dense square: the constraint route's pivoted QR in `verify
# complex` and `space build --kind abc` (square in the broken space), and
# the dense eigen pencils of `solve eigen` and `verify base-pair` (`icr_of`).
DENSE_LIMIT_MB = 1024

# Cells from which the ladder keeps its compact bases sparse.  Below it the
# fixed cost of each scipy.sparse product (50-150 us) outweighs the
# arithmetic it saves.  Warm time of the complete, mixed_primal and
# mixed_dual schemes at k = 1 and both source schemes at k = 0, one BLAS
# thread, dense -> sparse bases: box:4 (32 cells) 2.5 -> 9.0 ms, box:6 (72)
# 9.8 -> 14-18 ms, tetbox:2 (48) 11-16 -> 14-17 ms, hole:8 (96) 24.9 ->
# 13.0 ms, box:8 (128) 38.8 -> 20.3 ms, tetbox:3 (162) 206 -> 55 ms.
SPARSE_CELLS = 96


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
    its one ladder (see `ladder`); interpolators and harmonic spaces are
    kept here too, so all of it is freed with the mesh.

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

    @property
    def geometry(self):
        return self._get("geometry", lambda: MeshGeometry(self.mesh))

    def p0(self, k):
        return self._get(("p0", k), lambda: P0Space(self.mesh, k, self.geometry.volumes))

    def broken(self, k, family):
        """Broken trimmed k-forms of one family: 'primal', 'dual' or 'full'."""
        if family not in FAMILY_OPS:
            raise InvalidParameter("unknown broken family %r" % (family,))
        return self._get(
            (family, k), lambda: BrokenSpace(self.mesh, k, family, self.geometry)
        )

    def primal(self, k):
        return self.broken(k, "primal")

    def dual(self, k):
        return self.broken(k, "dual")

    def full(self, k):
        return self.broken(k, "full")

    def _cellwise(self, key, k, family, block):
        """The reference block of a family on every cell, kept under ``key``."""

        def build():
            broken = self.broken(k, family)
            return block_diagonal(_repeat(block(broken.reference), self.mesh.num_cells))

        return self._get((key, k, family), build)

    def d_matrix(self, k, family="primal"):
        """Cellwise exterior derivative into constant (k+1)-forms; no rows at the top degree."""
        return self._cellwise("d", k, family, lambda ref: ref.d)

    def delta_matrix(self, k, family="dual"):
        """Cellwise codifferential into constant (k-1)-forms; no rows at degree 0."""
        return self._cellwise("delta", k, family, lambda ref: ref.delta)

    def p0_injection(self, k, family="primal"):
        """Inclusion of constant k-forms; they are the leading local basis."""
        return self._cellwise("p0-injection", k, family, lambda ref: ref.projection.T)

    def p0_projection(self, k, family="primal"):
        """L2 projection onto constant k-forms, in coordinates."""
        return self._cellwise("p0-projection", k, family, lambda ref: ref.projection)

    def pairing(self, k):
        """Pairing of broken primal k-forms with broken dual (k+1)-forms."""
        return self._get(("pairing", k), lambda: d_pairing(self.primal(k), self.dual(k + 1)))

    def pairing_blocks(self, k):
        """(cells, p, q) stack of the cell blocks of `pairing`."""
        return diagonal_blocks(
            self.pairing(k), self.primal(k).reference.dim, self.dual(k + 1).reference.dim
        )

    def local_decompositions(self, k):
        """Each cell's decomposition of (primal k-forms, dual (k+1)-forms).

        At the top degree the dual side is the empty space of (n+1)-forms.
        """

        def build():
            primal = self.primal(k)
            if k < self.mesh.dim:
                dual = self.dual(k + 1)
                Md, Ed, B = dual.gram(), dual.energy_blocks(), self.pairing_blocks(k)
            else:
                Ed = np.zeros((self.mesh.num_cells, 0, 0))
                Md = Gram(Ed)
                B = np.zeros((self.mesh.num_cells, primal.reference.dim, 0))
            return decompose_local(primal.gram(), primal.energy_blocks(), Md, Ed, B)

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

    @staticmethod
    def partner_bc(bc):
        """Boundary treatment of the conforming partner of nonconforming forms with ``bc``."""
        return "homogeneous" if bc == "none" else "none"

    def partner(self, k, bc="none"):
        """Conforming partner of the nonconforming k-forms: the starred
        Whitney (k+1)-forms with the opposite boundary treatment."""
        return self.whitney_star(k + 1, self.partner_bc(bc))

    def abc_constraints(self, k, bc="none"):
        """Constraint matrix C of the nonconforming k-forms: the space is null(C).

        Row j pairs the broken primal k-forms with column j of the partner,
        so it is nonzero only on the cells that column lives on; C is a CSR
        array, with no rows at the top degree.
        """

        def build():
            if k == self.mesh.dim:
                return scipy.sparse.csr_array((0, self.primal(k).dim))
            return scipy.sparse.csr_array((self.pairing(k) @ self.partner(k, bc).atlas).T)

        return self._get(("abc-constraints", k, bc), build)

    def abc_basis(self, k, bc="none"):
        """The compact basis of `abc_atlas`, columns of unit broken-Gram norm.

        It is a CSC array on a mesh of `SPARSE_CELLS` cells or more, and
        dense below, as is `star_basis`.
        """
        return self._get(
            ("abc-basis", k, bc),
            lambda: self.abc_atlas(k, bc).unit_columns(self.primal(k).gram(), self.sparse),
        )

    def star_basis(self, k, bc="none"):
        """The atlas of `whitney_star`, columns of unit broken-Gram norm, kept as `abc_basis`."""

        def build():
            B = unit_columns(self.whitney_star(k, bc).atlas, self.dual(k).gram())
            return B if self.sparse else B.toarray()

        return self._get(("star-basis", k, bc), build)

    @property
    def sparse(self):
        """Whether the compact bases are CSC arrays: on a mesh of `SPARSE_CELLS` cells or more."""
        return self.mesh.num_cells >= SPARSE_CELLS


def ladder(mesh):
    """The mesh's ladder, built on first use; it is freed with the mesh."""
    if mesh._ladder is None:
        mesh._ladder = DeRhamLadder(mesh)
    return mesh._ladder


# -- space constructors ----------------------------------------------------------


def broken_space(mesh, k, variant="primal"):
    """The whole broken trimmed space as a GlobalSpace (a sparse identity atlas)."""
    broken = ladder(mesh).broken(k, variant)
    return GlobalSpace(broken, scipy.sparse.eye_array(broken.dim, format="csc"), kind="broken")


def whitney_dofs(mesh, k, bc="none"):
    """Ids of the k-sub-simplices that carry the Whitney k-forms, in atlas order.

    They are sorted by their vertex tuples, so the atlas is deterministic;
    with homogeneous boundary conditions the boundary sub-simplices are
    dropped.
    """
    table = mesh.subsimplices(k)
    order = sorted(range(table.count), key=lambda i: table.simplices[i])
    if bc == "homogeneous":
        return np.array([i for i in order if not table.boundary[i]], dtype=int)
    if bc == "none":
        return np.array(order, dtype=int)
    raise InvalidParameter("bc must be 'none' or 'homogeneous'")


def conforming_whitney(mesh, k, bc="none", lad=None):
    """Conforming Whitney k-forms: one degree of freedom per k-sub-simplex.

    The degrees of freedom are `whitney_dofs`.  Each cell's columns are the
    closed-form trimmed coordinates of its Whitney forms
    (`whitney_coefficients`), written through the incidence table into a CSC
    atlas: a column has blocks only on the cells that hold its sub-simplex.
    """
    lad = lad or ladder(mesh)
    broken = lad.primal(k)
    table = mesh.subsimplices(k)
    dofs = whitney_dofs(mesh, k, bc)
    column = np.full(table.count, -1)
    column[dofs] = np.arange(len(dofs))
    cols = column[table.cell_incidence]  # (cells, faces)
    cells, faces = np.nonzero(cols >= 0)
    W = whitney_coefficients(lad.geometry.gradients, k)  # (cells, faces, dim)
    A = _cell_columns(cols[cells, faces], cells, W[cells, faces], (broken.dim, len(dofs)))
    return GlobalSpace(broken, A, kind="conforming" if bc == "none" else "conforming0",
                       bc=bc, anchors=[table.simplices[sid] for sid in dofs])


def star_space(space: GlobalSpace, lad=None):
    """Cellwise Hodge star of a conforming space; degree n-k, kind 'star'.

    The star is the signed permutation `reference_star` on every cell,
    applied to the CSC atlas, so the starred atlas is CSC with the same
    cell blocks.
    """
    lad = lad or ladder(space.mesh)
    n, cells = space.mesh.dim, space.mesh.num_cells
    target = lad.dual(n - space.k)
    star = block_diagonal(_repeat(reference_star(n, space.k), cells))
    return GlobalSpace(
        target, scipy.sparse.csc_array(star @ space.atlas), kind="star",
        bc=space.bc, anchors=list(space.anchors),
    )


def abcfes_by_constraints(mesh, k, bc="none", lad=None):
    """Nonconforming space cut out of the broken trimmed k-forms.

    The constraints pair against the star-conjugated conforming space one
    degree up, with the opposite boundary treatment; at the top degree the
    space is the whole broken constant space.
    """
    lad = lad or ladder(mesh)
    broken = lad.primal(k)
    C = lad.abc_constraints(k, bc)
    if k == mesh.dim:
        gs = GlobalSpace(
            broken, scipy.sparse.eye_array(broken.dim, format="csc"),
            kind="abc" if bc == "none" else "abc0", bc=bc,
        )
        return gs, ConstraintSet(C, None)
    partner = lad.partner(k, bc)
    # null vectors of C R^-1 are Euclidean-orthonormal, so A = R^-1 N is
    # Gram-orthonormal and spans the null space of C; the rank is cut from
    # the same pivoted QR, and a gap of less than 1e3 at the cut is ambiguous
    Rinv = gram_factor(broken.gram())[1]
    kernel, rdiag = pivoted_nullspace(C @ Rinv)
    r = broken.dim - kernel.dim
    if 0 < r < rdiag.size and rdiag[r - 1] / max(rdiag[r], 1e-300) < 1e3:
        raise ToleranceFailure("constraint rank detection is ambiguous")
    A = Rinv @ kernel.basis
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
        return BasisAtlas(broken, [
            BasisFunction("type-I", ("cell", ci), [(ci, unit)], broken.dim)
            for ci in range(mesh.num_cells)
            for unit in np.eye(broken.reference.dim)
        ])
    partner = lad.partner(k, bc)
    decs = lad.local_decompositions(k)
    # cells supporting each partner basis function
    table = mesh.subsimplices(mesh.dim - k - 1)
    support = [[ci for ci, _ in table.owners[table.index[sub]]] for sub in partner.anchors]
    cell_funcs = {ci: [] for ci in range(mesh.num_cells)}
    for j in range(partner.dim):
        for ci in support[j]:
            cell_funcs[ci].append(j)
    counts = np.array([len(cell_funcs[ci]) for ci in range(mesh.num_cells)])
    # every cell's functionals of its overlapping partner columns, zero-padded
    # to one (cells, count, dim) stack: each entry of the constraint matrix
    # sits on one cell, in the row of its partner column's place in that
    # cell's list (a partner column lives only on its supporting cells),
    # found among the sorted keys cell * partner.dim + column of all lists
    C = lad.abc_constraints(k, bc).tocoo()
    cell, local = np.divmod(C.col, broken.reference.dim)
    pairs = np.array([ci * partner.dim + j for ci, I2 in cell_funcs.items() for j in I2], dtype=int)
    place = np.searchsorted(pairs, cell * partner.dim + C.row) - (np.cumsum(counts) - counts)[cell]
    BP = np.zeros((mesh.num_cells, counts.max(initial=0), broken.reference.dim))
    BP[cell, place, local] = C.data
    # restricted to each cell's twisted part PB, one SVD gives each cell's
    # rank, pseudo-inverse and local null basis
    L = np.matmul(BP, np.array([dec.PB.basis for dec in decs]))
    U, sv, Vt = np.linalg.svd(L)
    short = np.flatnonzero(np.sum(sv > 1e-10 * sv[:, :1], axis=1) < counts)
    if short.size:
        raise AssumptionViolation("partner restrictions dependent on cell %d" % short[0])
    funcs = []
    reps = {}
    for ci in range(mesh.num_cells):
        dec = decs[ci]
        I2 = cell_funcs[ci]
        PB = dec.PB.basis  # local coordinates of the twisted part
        for col in range(dec.P0.dim):
            funcs.append(
                BasisFunction("type-I", ("cell", ci), [(ci, dec.P0.basis[:, col])], broken.dim)
            )
        # the pseudo-inverse V_r S_r^-1 U_r^T; its columns are local
        # representatives per functional
        r = len(I2)
        V = Vt[ci, :r].T / sv[ci, :r] @ U[ci, :r, :r].T
        for j_local, j in enumerate(I2):
            reps[(ci, j)] = PB @ V[:, j_local]
        for null in Vt[ci, r:]:
            funcs.append(BasisFunction("type-I", ("cell", ci), [(ci, PB @ null)], broken.dim))
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
            pieces = [(a, reps[(a, j)]), (b, -reps[(b, j)])]
            funcs.append(BasisFunction("type-II", ("subsimplex", anchor), pieces, broken.dim))
    return BasisAtlas(broken, funcs)


# -- verification helpers ---------------------------------------------------------


def verify_trace_continuity(space: GlobalSpace):
    """Worst inter-cell trace mismatch of the atlas columns on shared facets.

    The trace of each column is pulled back to every interior sub-simplex of
    dimension >= k from both owner cells with one shared parametrization; the
    mismatch is measured in the parametric L2 norm.  A column that vanishes
    on both owner cells of a facet matches there exactly, so each facet
    compares only the columns with a nonzero block on one of its cells.
    """
    mesh = space.mesh
    broken = space.broken
    k = space.k
    if k == mesh.dim:
        return 0.0
    atlas = space.atlas.toarray() if scipy.sparse.issparse(space.atlas) else space.atlas
    rows = scipy.sparse.csr_array(space.atlas)
    on_cell = [
        rows.indices[rows.indptr[s.start] : rows.indptr[s.stop]]
        for s in map(broken.cell_slice, range(mesh.num_cells))
    ]
    facets = mesh.subsimplices(mesh.dim - 1)
    worst = 0.0
    ref = reference_simplex(mesh.dim - 1)
    for sub, owners in zip(facets.simplices, facets.owners):
        if len(owners) != 2:
            continue
        coords = mesh.vertices[list(sub)]
        (a, _), (b, _) = owners
        for col in np.union1d(on_cell[a], on_cell[b]):
            tr = []
            for ci, _ in owners:
                form = broken.form_on_cell(atlas[:, col], ci)
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

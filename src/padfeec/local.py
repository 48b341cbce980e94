"""Cell-local shape spaces and their structural decompositions.

Each trimmed family of polynomial k-forms (for the differential, the
codifferential, or both) has a `ReferenceBlock`: its basis in coordinates
centred at the cell's centroid, where the coefficients are the same on every
cell, with its d, delta, P0 projection, pairing and star blocks, built once
per (n, k, family) on first use.  The runtime reads cells only through these
blocks and the mesh's geometry: `decompose_local` splits every cell's pair
into its pairing-null part and its twisted part in one batched pass over
the cells' Gram, energy and pairing stacks, `cell_constants` gives every
cell's inf-sups in one batched pass over the same stacks, and the Whitney
forms of a whole mesh have their trimmed coordinates in closed form
(`whitney_coefficients`).  Neither pass factors a Gram: both read the
stacked factor that each broken space's `linalg.Gram` computes once.

A `LocalSpace` is a span of `PolyForm`s on one cell, with Grams by exact
integration.  `trimmed_local`, `pairing_matrix`, `block_d_expand` and
`local_constants` are the oracles that the tests compare the runtime with.
The closed-form 2-D families (lowest-degree H(div) shape functions,
Crouzeix-Raviart companions, enriched quadratics with the cubic edge
bubble, enhanced linear fluxes) are local spaces too;
their vector fields are identified with 1-forms through the flux map
(u, v) -> u dy - v dx (normal traces) or the circulation map
(u, v) -> u dx + v dy (tangential traces).
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    AssumptionViolation,
    DegreeMismatch,
    InvalidParameter,
    Unsupported,
)
from .forms import (
    CellGeometry,
    PolyForm,
    codifferential,
    exterior_derivative,
    hodge_star,
    inner_matrix,
    koszul,
    l2_inner,
    monomial_exponents,
    multiindices,
    star_sign,
)
from .linalg import (
    Subspace,
    block_diagonal,
    infsup,
    nullspace,
    orthonormalize,
)

# relative residual above which a form counts as outside a trimmed span
SPAN_TOL = 1e-9


@dataclass
class LocalSpace:
    """A finite span of polynomial k-forms on one cell."""

    cell: CellGeometry
    k: int
    basis: list
    op: str = "d"
    named: dict = field(default_factory=dict)

    def __post_init__(self):
        self._gram = None
        self._energy = None
        self._images = None

    @property
    def dim(self):
        return len(self.basis)

    @property
    def n(self):
        return self.cell.n

    def gram(self):
        if self._gram is None:
            self._gram = inner_matrix(self.basis, self.basis, self.cell)
        return self._gram

    def op_image(self, i):
        """d or delta of the i-th basis form (zero form at the chain ends)."""
        if self._images is None:
            self._images = [None] * self.dim
        img = self._images[i]
        if img is None:
            w = self.basis[i]
            if self.op == "d":
                img = (
                    PolyForm(self.n, self.k + 1)
                    if self.k >= self.n
                    else exterior_derivative(w)
                )
            else:
                img = PolyForm(self.n, max(self.k - 1, 0)) if self.k == 0 else codifferential(w)
            self._images[i] = img
        return img

    def energy_gram(self):
        if self._energy is None:
            images = [self.op_image(i) for i in range(self.dim)]
            self._energy = inner_matrix(images, images, self.cell)
        return self._energy

    def form_from_coeffs(self, coeffs):
        out = PolyForm(self.n, self.k)
        for c, w in zip(coeffs, self.basis):
            if c != 0.0:
                out = out + float(c) * w
        return out

    def expand(self, form, tol=SPAN_TOL):
        """Coefficients of ``form`` in this basis; error if it is not in the span."""
        if form.k != self.k or form.n != self.n:
            raise DegreeMismatch("form type does not match the local space")
        rhs = np.array([l2_inner(b, form, self.cell) for b in self.basis])
        coeffs = np.linalg.solve(self.gram(), rhs)
        resid2 = l2_inner(form, form, self.cell) - coeffs @ rhs
        scale = max(l2_inner(form, form, self.cell), 1e-30)
        if resid2 > tol * scale:
            raise AssumptionViolation("form lies outside the local space")
        return coeffs


# the operator each trimmed family pairs with: the energy Gram is its image's Gram
FAMILY_OPS = {"primal": "d", "dual": "delta", "full": "d"}


def trimmed_basis(n, k, family, center=None):
    """Basis forms of a trimmed family: the constant k-forms, then Koszul images.

    ``primal`` adds the Koszul image of each constant (k+1)-form, ``dual``
    the star-conjugated Koszul image of each constant (k-1)-form, and
    ``full`` both.  The contraction is centred at ``center`` (the origin when
    None): in coordinates centred at a cell's centroid every family has the
    same coefficients on every cell.
    """
    if not 0 <= k <= n:
        raise InvalidParameter("degree %d outside 0..%d" % (k, n))
    if family not in FAMILY_OPS:
        raise InvalidParameter("unknown trimmed family %r" % (family,))
    basis = [PolyForm.basis_form(n, m) for m in multiindices(k, n)]
    if family in ("primal", "full"):
        for m in multiindices(k + 1, n):
            basis.append(koszul(PolyForm.basis_form(n, m), center=center))
    if family in ("dual", "full"):
        for m in multiindices(k - 1, n):
            w = hodge_star(PolyForm.basis_form(n, m))
            basis.append(hodge_star(koszul(w, center=center)))
    return basis


def trimmed_local(cell, k, family):
    """Trimmed local space of k-forms of one family, centred at the cell's centroid."""
    basis = trimmed_basis(cell.n, k, family, cell.centroid)
    return LocalSpace(cell, k, basis, op=FAMILY_OPS[family])


# -- reference blocks of the trimmed families -----------------------------------


@dataclass(frozen=True)
class ReferenceBlock:
    """One trimmed family in coordinates y = x - centroid, the same on every cell.

    Basis form i is sum over multi-indices m of (values[i, m] + slopes[i, m] . y) dx^m,
    so its value at the centroid is its constant part and its d and delta
    are constant.  Every cellwise operator follows from these arrays: the
    Gram is vol values values^T + sum_m slopes_m Sigma slopes_m^T with the
    cell's centred second moments Sigma, the energy Gram vol E^T E for the
    family's operator block E, and the L2 projection onto constants is the
    constant part, since the centred slopes have zero cell mean.
    """

    n: int
    k: int
    family: str
    values: np.ndarray  # (dim, ncomp_k)
    slopes: np.ndarray  # (dim, ncomp_k, n)
    d: np.ndarray  # (ncomp_{k+1}, dim): d of each basis form
    delta: np.ndarray  # (ncomp_{k-1}, dim): delta of each basis form

    @property
    def dim(self):
        return self.values.shape[0]

    @property
    def projection(self):
        """L2 projection onto the constant k-forms, in coordinates: [I | 0]."""
        return self.values.T

    @property
    def energy(self):
        """The block of the family's operator, whose Gram is the energy Gram."""
        return self.d if FAMILY_OPS[self.family] == "d" else self.delta

    def grams(self, volumes, second_moments):
        """(cells, dim, dim) stack of the cells' L2 Grams."""
        G = volumes[:, None, None] * (self.values @ self.values.T)
        if self.slopes.size:
            G = G + np.einsum(
                "cimb,jmb->cij", np.einsum("ima,cab->cimb", self.slopes, second_moments), self.slopes
            )
        # symmetric to the last bit, as every Gram factorization assumes
        return 0.5 * (G + np.swapaxes(G, 1, 2))

    def energy_grams(self, volumes):
        """(cells, dim, dim) stack of the cells' energy Grams."""
        return volumes[:, None, None] * (self.energy.T @ self.energy)

    def coefficients(self, centroids):
        """(cells, N, dim): every cell's basis as columns over the coordinate basis.

        On a cell with centroid c, basis form i has the constant part
        values[i] - slopes[i] . c and the slopes on the linear monomials.
        """
        mono = len(monomial_exponents(self.n))
        out = np.zeros((len(centroids), self.dim, self.values.shape[1], mono))
        out[..., 0] = self.values - np.einsum("ima,ca->cim", self.slopes, centroids)
        out[..., _linear_monomials(self.n)] = self.slopes
        return np.swapaxes(out.reshape(len(centroids), self.dim, -1), 1, 2)


@lru_cache(maxsize=None)
def _linear_monomials(n):
    """Positions of x_0, ..., x_{n-1} among the monomials of `monomial_exponents`."""
    rows = monomial_exponents(n).tolist()
    return [rows.index([int(a == b) for b in range(n)]) for a in range(n)]


def _constant_block(images, n, degree):
    """Coefficients of constant forms as columns over multiindices(degree, n)."""
    block = np.zeros((len(multiindices(degree, n)), len(images)))
    for j, img in enumerate(images):
        if img.poly_degree() > 0:
            raise AssumptionViolation("trimmed basis image is not constant")
        block[:, j] = img.coefficients_at(np.zeros(n))
    return block


@lru_cache(maxsize=None)
def reference_block(n, k, family):
    """The `ReferenceBlock` of a trimmed family, built on first use from `trimmed_basis`."""
    basis = trimmed_basis(n, k, family)
    lin = _linear_monomials(n)
    mono = len(monomial_exponents(n))
    coeffs = np.array([w.coefficient_vector() for w in basis]).reshape(len(basis), -1, mono)
    if np.any(np.delete(coeffs, [0] + lin, axis=2)):
        raise AssumptionViolation("trimmed basis is not affine")
    values, slopes = coeffs[:, :, 0], coeffs[:, :, lin]
    d = _constant_block(
        [exterior_derivative(w) if k < n else PolyForm(n, k + 1) for w in basis], n, k + 1
    )
    delta = _constant_block(
        [codifferential(w) if k > 0 else PolyForm(n, 0) for w in basis], n, k - 1
    )
    for a in (values, slopes, d, delta):
        a.flags.writeable = False
    return ReferenceBlock(n, k, family, values, slopes, d, delta)


@lru_cache(maxsize=None)
def reference_pairing(n, k, primal_family, dual_family):
    """B[i, j] = <v_i, delta q_j> - <d v_i, q_j> on a cell of unit volume.

    Both images are constant, so only the constant parts of the other side
    enter: B_ref = P_p^T Delta_q - D_p^T P_q, and a cell's block is vol B_ref.
    """
    p, q = reference_block(n, k, primal_family), reference_block(n, k + 1, dual_family)
    B = p.projection.T @ q.delta - p.d.T @ q.projection
    B.flags.writeable = False
    return B


@lru_cache(maxsize=None)
def reference_star(n, k):
    """Hodge star of the primal k-family into the dual (n-k)-family: a signed permutation.

    star dx^m = s dx^m' on the constants.  The dual Koszul member of m'' is
    star kappa(star dx^m''), and star dx^m'' = s'' dx^c with c the
    complement of m'', so star kappa(dx^c) is s'' times that member.
    """
    src, src_kos = multiindices(k, n), multiindices(k + 1, n)
    tgt, tgt_kos = multiindices(n - k, n), multiindices(n - k - 1, n)
    S = np.zeros((len(tgt) + len(tgt_kos), len(src) + len(src_kos)))
    for j, m in enumerate(src):
        sign, comp = star_sign(m, n)
        S[tgt.index(comp), j] = sign
    for i, m in enumerate(tgt_kos):
        sign, comp = star_sign(m, n)
        S[len(tgt) + i, len(src) + src_kos.index(comp)] = sign
    S.flags.writeable = False
    return S


def whitney_coefficients(gradients, k):
    """Trimmed primal coordinates of the Whitney k-form of every k-face of every cell.

    ``gradients`` is the (cells, n+1, n) stack of barycentric gradients; the
    result is (cells, faces, dim), faces in `itertools.combinations` order of
    the local vertex positions.  For phi_s = k! sum_j (-1)^j lambda_{s_j}
    dlambda_{s-j}, every lambda is 1/(n+1) at the centroid, which gives the
    constant part, and d phi_s = (k+1)! dlambda_s with d kappa(dx^m) =
    (k+1) dx^m gives the Koszul part: on dx^I the minors of the gradients
    restricted to I.  The form's own slopes, from lambda_j = 1/(n+1) +
    grad lambda_j . y, must match those of the reconstruction to ``SPAN_TOL``
    relative, or the form is not in the trimmed span.
    """
    cells, n1, n = gradients.shape
    ref = reference_block(n, k, "primal")
    faces = list(itertools.combinations(range(n1), k + 1))
    Ik = np.array(multiindices(k, n), dtype=int).reshape(len(multiindices(k, n)), k)
    Ik1 = np.array(multiindices(k + 1, n), dtype=int).reshape(len(multiindices(k + 1, n)), k + 1)

    def minors(rows, cols):
        # (cells, len(cols)) determinants of gradients[:, rows][:, :, I] for I in cols
        sub = gradients[:, rows][:, :, cols]  # (cells, len(rows), len(cols), len(rows))
        return np.linalg.det(np.moveaxis(sub, 2, 1))

    scale = math.factorial(k)
    const = np.zeros((cells, len(faces), len(Ik)))
    own_slopes = np.zeros((cells, len(faces), len(Ik), n))
    kos = np.zeros((cells, len(faces), len(Ik1)))
    for f, face in enumerate(faces):
        for j in range(k + 1):
            minor = (-1) ** j * scale * minors(list(face[:j] + face[j + 1:]), Ik)
            const[:, f] += minor / n1
            own_slopes[:, f] += minor[:, :, None] * gradients[:, face[j], None, :]
        if len(Ik1):
            kos[:, f] = scale * minors(list(face), Ik1)
    coeffs = np.concatenate([const, kos], axis=2)
    slopes = np.einsum("cfi,ima->cfma", coeffs, ref.slopes)
    own = np.sqrt(np.sum(const**2, axis=2) + np.sum(own_slopes**2, axis=(2, 3)))
    err = np.sqrt(np.sum((slopes - own_slopes) ** 2, axis=(2, 3)))
    if np.any(err > SPAN_TOL * own):
        raise AssumptionViolation("Whitney form lies outside the local space")
    return coeffs


def star_local(space: LocalSpace):
    """Cellwise Hodge star of a local space; toggles between d and delta."""
    return LocalSpace(
        space.cell, space.n - space.k, [hodge_star(w) for w in space.basis],
        op="delta" if space.op == "d" else "d",
        named={k: hodge_star(v) for k, v in space.named.items()},
    )


def pairing_matrix(primal: LocalSpace, dual: LocalSpace):
    """B[i, j] = <v_i, delta q_j> - <d v_i, q_j> on the cell (exact)."""
    if dual.k != primal.k + 1 or primal.cell is not dual.cell:
        raise DegreeMismatch("pairing needs a (k, k+1) pair on one cell")
    cell = primal.cell
    B = np.zeros((primal.dim, dual.dim))
    for j in range(dual.dim):
        dq = dual.op_image(j) if dual.op == "delta" else codifferential(dual.basis[j])
        for i in range(primal.dim):
            dv = primal.op_image(i) if primal.op == "d" else exterior_derivative(primal.basis[i])
            B[i, j] = l2_inner(primal.basis[i], dq, cell) - l2_inner(dv, dual.basis[j], cell)
    return B


def block_d_expand(sources, targets):
    """Cellwise exterior derivative from one list of local spaces into another.

    The image of every source basis form must lie in the target local space.
    """
    return block_diagonal(np.stack([
        np.column_stack([tgt.expand(exterior_derivative(w)) for w in src.basis])
        for src, tgt in zip(sources, targets)
    ]))


@dataclass
class LocalDecomposition:
    """Pairing-relative structural split of one cell's primal/dual pair.

    Both sides keep their pairing-null part P0 and twisted part PB with the
    d- or delta-kernel of PB; the primal side also keeps the kernel ring_P0
    of its P0 and the complement P0_perp, which the interpolation moments
    read.  Every part is orthonormal in the cell's Gram of its side, and
    ``pairing`` is the cell's pairing block.
    """

    pairing: np.ndarray
    P0: Subspace
    ring_P0: Subspace
    P0_perp: Subspace
    PB: Subspace
    ring_PB: Subspace
    dual_P0: Subspace
    dual_PB: Subspace
    dual_ring_PB: Subspace


def _unit_block(stack, what):
    """The block that every cell of a (cells, r, c) stack holds up to a positive
    factor, scaled to largest entry 1."""
    scales = np.abs(stack).max(axis=(1, 2), initial=0.0)
    unit = stack / np.where(scales > 0.0, scales, 1.0)[:, None, None]
    # a trimmed family's blocks are vol_K times one reference block: equal to round-off
    if np.abs(unit - unit[:1]).max(initial=0.0) > 1e-12:
        raise AssumptionViolation("the cells' %s blocks are not multiples of one block" % what)
    return unit[0]


def _gram_orthonormal(Z, gram):
    """(cells, p, m) bases of span Z, orthonormal in each cell's Gram G_K = R_K^T R_K.

    ``gram`` is the cells' `Gram`, whose stacked factor (R_K, R_K^-1) whitens.
    Cell K's basis is R_K^-1 Q_K for the Householder QR factor Q_K of the
    whitened basis R_K Z, as `orthonormalize` takes it, so the leading j
    columns span what those of Z span.  Z must have full column rank.
    """
    if Z.shape[1] == 0:
        return np.zeros((len(gram.stack), Z.shape[0], 0))
    R, Rinv = gram.stack_factor
    return Rinv @ np.linalg.qr(R @ Z).Q


def _complement_in(N, Z, gram):
    """Bases of the G_K-orthogonal complement of span N inside span Z, which holds it."""
    basis = np.hstack([N, Z @ nullspace(N.T @ Z).basis])
    return _gram_orthonormal(basis, gram)[:, :, N.shape[1]:]


def _side_parts(gram, energies, pairing_rows):
    """(P0, ring_P0, P0_perp, PB, ring_PB) of one side of every cell's pair.

    Each part is a (cells, dim, m) stack of bases.  P0 = N(pairing) and
    ring_P0 = N([pairing; energy]) are one coordinate subspace on every cell;
    PB, ring_PB and P0_perp are the Gram-orthogonal complements of ring_P0
    inside N(P0^T E), N(E) and P0.  E vanishes on ring_P0, so the rest of
    P0, on which E is injective, cuts out N(P0^T E) without a relative cut.
    """
    B = _unit_block(pairing_rows, "pairing")
    E = _unit_block(energies, "energy")
    N0 = nullspace(B).basis
    N1 = nullspace(np.vstack([B, E])).basis
    rest = N0 @ nullspace(N1.T @ N0).basis
    return (
        _gram_orthonormal(N0, gram),
        _gram_orthonormal(N1, gram),
        _complement_in(N1, N0, gram),
        _complement_in(N1, nullspace(rest.T @ E).basis, gram),
        _complement_in(N1, nullspace(E).basis, gram),
    )


def decompose_local(Mp, Ep, Md, Ed, B):
    """Split both sides of every cell's (k, k+1) pair by the adjointness pairing.

    ``Mp`` is the primal side's `Gram`, whose stack holds the cells' Grams,
    and ``Ep`` the (cells, p, p) stack of their energy Grams; ``Md`` and
    ``Ed`` are the dual ones and ``B`` the (cells, p, q) pairing blocks.
    The pairing-null parts collect the members invisible to the other
    space; the twisted parts carry the cross-cell coupling, and P = P0 (+)
    PB on both sides.  Every cell's pairing and energy blocks must be one
    block times a positive factor, as a trimmed family's are (vol_K times
    its reference block): the pairing-null parts are found once, and only
    the Gram-dependent steps run per cell, batched over the stacks and
    whitened by each `Gram`'s stacked factor.  Returns one
    `LocalDecomposition` per cell.
    """
    p, q = B.shape[1:]
    P0, ring_P0, P0_perp, PB, ring_PB = _side_parts(Mp, Ep, np.swapaxes(B, 1, 2))
    # the dual ring_P0 and P0_perp only serve to cut out the dual PB
    dual_P0, _, _, dual_PB, dual_ring_PB = _side_parts(Md, Ed, B)
    if P0.shape[2] + PB.shape[2] != p:
        raise AssumptionViolation("primal side does not split into P0 + PB")
    if dual_P0.shape[2] + dual_PB.shape[2] != q:
        raise AssumptionViolation("dual side does not split into P0 + PB")
    return [
        LocalDecomposition(
            B[c],
            *(Subspace(p, part[c], Mp.stack[c]) for part in (P0, ring_P0, P0_perp, PB, ring_PB)),
            *(Subspace(q, part[c], Md.stack[c]) for part in (dual_P0, dual_PB, dual_ring_PB)),
        )
        for c in range(len(B))
    ]


def local_constants(dec: LocalDecomposition, primal: LocalSpace, dual: LocalSpace):
    """(alpha_K, beta_K, gamma_K): the twisted-kernel inf-sup constants.

    alpha pairs the d-kernel of the primal twisted part with the delta-range
    of the dual twisted part inside L2 Lambda^k; beta is the mirror image one
    level up; gamma is the full twisted pairing inf-sup in graph norms.
    ``dec`` is the decomposition of the pair of local spaces ``primal`` and
    ``dual``.
    """
    # delta-range of the dual twisted part, expanded in primal coordinates
    delta_imgs = [
        primal.expand(
            codifferential(dual.form_from_coeffs(c)) if dual.k > 0 else PolyForm(dual.n, 0),
            tol=1e-7,
        )
        for c in dec.dual_PB.basis.T
    ]
    alpha = _kernel_range_infsup(dec.ring_PB, delta_imgs, primal.gram())
    # d-range of the primal twisted part, expanded in dual coordinates
    d_imgs = [
        dual.expand(
            exterior_derivative(primal.form_from_coeffs(c))
            if primal.k < primal.n else PolyForm(primal.n, primal.k + 1),
            tol=1e-7,
        )
        for c in dec.PB.basis.T
    ]
    beta = _kernel_range_infsup(dec.dual_ring_PB, d_imgs, dual.gram())
    P, Q = dec.PB.basis, dec.dual_PB.basis
    if P.shape[1] == 0 or Q.shape[1] == 0:
        return alpha, beta, 1.0
    Gp = primal.gram() + primal.energy_gram()
    Gq = dual.gram() + dual.energy_gram()
    return alpha, beta, _graph_infsup(P.T @ Gp @ P, Q.T @ Gq @ Q, P.T @ dec.pairing @ Q)


def _kernel_range_infsup(kernel: Subspace, images, gram):
    """inf-sup of a kernel against the span of image columns; 1 when both are empty."""
    span = np.column_stack(images) if images else np.zeros((len(gram), 0))
    R = Subspace.from_span(span, gram)
    if kernel.dim == 0 and R.dim == 0:
        return 1.0
    return infsup(kernel, R, gram)


def _graph_infsup(Gp, Gq, B):
    """Smallest singular value of a pairing block B in the graph norms Gp and Gq.

    Each argument may be one block or a (cells, ., .) stack of them.
    """
    Lp = np.linalg.cholesky(0.5 * (Gp + np.swapaxes(Gp, -1, -2)))
    Lq = np.linalg.cholesky(0.5 * (Gq + np.swapaxes(Gq, -1, -2)))
    C = np.linalg.solve(Lp, np.swapaxes(np.linalg.solve(Lq, np.swapaxes(B, -1, -2)), -1, -2))
    return np.linalg.svd(C, compute_uv=False)[..., min(B.shape[-2:]) - 1]


def cell_constants(primal, dual, Mp, Ep, Md, Ed, B):
    """(alpha, beta, gamma) of every cell, as (cells,) arrays, from the stacks.

    ``primal`` and ``dual`` are the `ReferenceBlock`s of the pair, ``Mp``
    and ``Md`` the `Gram`s of their broken spaces, ``Ep`` and ``Ed`` the
    (cells, ., .) stacks of their energy Grams and ``B`` the cells' pairing
    blocks.  alpha pairs the d-kernel of the primal side with the
    delta-range of the dual side in the primal Gram, beta the delta-kernel
    of the dual side with the d-range of the primal side in the dual Gram:
    each kernel and range is the same subspace on every cell, found once
    from the reference blocks, and only its Gram-orthonormal basis is made
    per cell.  gamma is the pairing's inf-sup in the graph norms.  The
    values mean something only on cells whose pairing block is square and
    nonsingular.
    """
    alpha = _pair_infsup(nullspace(primal.energy).basis, primal.projection.T @ dual.delta, Mp)
    beta = _pair_infsup(nullspace(dual.energy).basis, dual.projection.T @ primal.d, Md)
    return alpha, beta, _graph_infsup(Mp.stack + Ep, Md.stack + Ed, B)


def _pair_infsup(kernel, images, gram):
    """Every cell's inf-sup of span ``kernel`` against span ``images`` in its Gram.

    1 when both are empty and 0 when their dimensions differ.
    """
    span = orthonormalize(images)
    if kernel.shape[1] != span.shape[1]:
        return np.zeros(len(gram.stack))
    if kernel.shape[1] == 0:
        return np.ones(len(gram.stack))
    A, S = _gram_orthonormal(kernel, gram), _gram_orthonormal(span, gram)
    s = np.linalg.svd(np.swapaxes(A, 1, 2) @ gram.stack @ S, compute_uv=False)
    return np.clip(s[:, -1], 0.0, 1.0)


# -- 2-D closed-form families ---------------------------------------------------


def vec_to_flux(u, v):
    """(u, v) -> u dy - v dx: the normal-trace identification."""
    n = u.n
    return u.wedge(PolyForm.basis_form(n, (1,))) - v.wedge(PolyForm.basis_form(n, (0,)))


def vec_to_circulation(u, v):
    """(u, v) -> u dx + v dy: the tangential-trace identification."""
    n = u.n
    return u.wedge(PolyForm.basis_form(n, (0,))) + v.wedge(PolyForm.basis_form(n, (1,)))


def grad_components(f):
    df = exterior_derivative(f)
    return df.coefficient((0,)), df.coefficient((1,))


def curl_components(f):
    """curl of a scalar: (df/dy, -df/dx)."""
    fx, fy = grad_components(f)
    return fy, -1.0 * fx


def div_of(u, v):
    ux, _ = grad_components(u)
    _, vy = grad_components(v)
    return ux + vy


def rot_of(u, v):
    """dv/dx - du/dy."""
    vx, _ = grad_components(v)
    _, uy = grad_components(u)
    return vx - uy


def vec_inner(a, b, cell):
    return l2_inner(a[0], b[0], cell) + l2_inner(a[1], b[1], cell)


def edge_bubble(cell):
    """The cubic bubble sum of lambda_i lambda_j (lambda_i - lambda_j) over cyclic pairs."""
    lam = [cell.barycentric(i) for i in range(3)]
    out = PolyForm(2, 0)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        out = out + lam[i].scale_by_polynomial(lam[j]).scale_by_polynomial(lam[i] - lam[j])
    return out


def interior_quadratic(cell):
    """lambda_1 lambda_2 + lambda_2 lambda_3 + lambda_3 lambda_1 - 1/6."""
    lam = [cell.barycentric(i) for i in range(3)]
    out = PolyForm(2, 0) + (-1.0 / 6.0) * PolyForm.one(2)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        out = out + lam[i].scale_by_polynomial(lam[j])
    return out


def gallery_2d(cell, family):
    """Closed-form local bases of the 2-D example families.

    RT / RTperp carry vector fields as flux / circulation 1-forms; P1 is the
    barycentric basis; P2plus enriches the quadratic Lagrange basis with the
    cubic edge bubble; P1plus enriches the linear fluxes with its curl.
    """
    if cell.n != 2:
        raise Unsupported("the closed-form gallery is two-dimensional")
    lam = [cell.barycentric(i) for i in range(3)]
    if family == "P1":
        return LocalSpace(cell, 0, lam, op="d")
    if family == "RT":
        S = cell.volume
        basis = []
        for i in range(3):
            j, k = [m for m in range(3) if m != i]
            shift = cell.vertices[i] - cell.vertices[j] - cell.vertices[k]
            u = 0.5 / S * (PolyForm.coordinate(2, 0) + shift[0] * PolyForm.one(2))
            v = 0.5 / S * (PolyForm.coordinate(2, 1) + shift[1] * PolyForm.one(2))
            basis.append(vec_to_flux(u, v))
        return LocalSpace(cell, 1, basis, op="d")
    if family == "RTperp":
        basis = []
        for i in range(3):
            area2 = 2.0 * cell.volume
            opposite = [m for m in range(3) if m != i]
            e = cell.vertices[opposite[1]] - cell.vertices[opposite[0]]
            h = area2 / np.linalg.norm(e)
            ai = cell.vertices[i]
            u = (PolyForm.coordinate(2, 0) - ai[0] * PolyForm.one(2)) * (1.0 / h)
            v = (PolyForm.coordinate(2, 1) - ai[1] * PolyForm.one(2)) * (1.0 / h)
            # clockwise rotation makes the companion duality come out +1
            basis.append(vec_to_circulation(v, -1.0 * u))
        return LocalSpace(cell, 1, basis, op="d")
    if family == "P2plus":
        basis = [l.scale_by_polynomial(2.0 * l - PolyForm.one(2)) for l in lam]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            basis.append(4.0 * lam[i].scale_by_polynomial(lam[j]))
        bubble = edge_bubble(cell)
        basis.append(bubble)
        named = {"psi_B": bubble, "psi_0": interior_quadratic(cell)}
        return LocalSpace(cell, 0, basis, op="d", named=named)
    if family == "P1plus":
        basis = []
        for comp in range(2):
            for l in lam:
                zero = PolyForm(2, 0)
                u, v = (l, zero) if comp == 0 else (zero, l)
                basis.append(vec_to_flux(u, v))
        bubble = edge_bubble(cell)
        cu, cv = curl_components(bubble)
        basis.append(vec_to_flux(cu, cv))
        return LocalSpace(
            cell, 1, basis, op="d", named={"curl_bubble": vec_to_flux(cu, cv)}
        )
    raise InvalidParameter("unknown family %r" % (family,))


def whitney_form(cell, local_vertices):
    """The Whitney form of a sub-simplex given by local vertex positions.

    ``local_vertices`` are indices into the cell's vertex list, ascending; the
    form has unit integral over the sub-simplex oriented that way.
    """
    k = len(local_vertices) - 1
    lam = [cell.barycentric(i) for i in local_vertices]
    dlam = [cell.barycentric_differential(i) for i in local_vertices]
    out = PolyForm(cell.n, k)
    for j in range(k + 1):
        term = PolyForm.one(cell.n)
        wedge = None
        for m in range(k + 1):
            if m == j:
                continue
            wedge = dlam[m] if wedge is None else wedge.wedge(dlam[m])
        piece = lam[j] if wedge is None else wedge.scale_by_polynomial(lam[j])
        out = out + float(math.factorial(k)) * ((-1) ** j) * piece
    return out

"""Cell-wise adjoint-projection interpolation onto trimmed form spaces.

The interpolant matches (1) the adjointness pairing against the twisted part
of the dual space, (2) the L2 moments against the kernel of the pairing-null
part, and (3) the differential moments against its complement; the stacked
square system is solved at once per cell.  The operator is projective, local
and maps pairing-constrained fields into the matching nonconforming space.
The codifferentials and differentials of the fixed moment forms are computed
once per cell, and the projectivity check is assembled cell by cell: each
cell's interpolator sees only that cell's basis, so the matrix is block
diagonal and kept sparse.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation
from .forms import (
    PolyForm,
    cell_quadrature,
    codifferential,
    exterior_derivative,
    l2_inner,
)
from .local import LocalDecomposition, LocalSpace
from .spaces import block_diagonal, ladder


@dataclass
class InterpolatorSpec:
    """Precomputed square system for one cell of the interpolation ladder."""

    primal: LocalSpace
    dual: LocalSpace
    pairing_block: np.ndarray  # rows: dual twisted-part functionals
    l2_block: np.ndarray  # rows: kernel of the pairing-null part
    energy_block: np.ndarray  # rows: its complement, in differential moments
    system: np.ndarray
    dual_PB_forms: list
    ring_P0_forms: list
    P0_perp_forms: list
    dual_PB_codiffs: list  # delta q for each dual_PB_forms member q
    P0_perp_diffs: list  # d w for each P0_perp_forms member w

    @property
    def size(self):
        return self.primal.dim


def interpolator_spec(dec: LocalDecomposition):
    """Assemble and validate the square local system of one cell's pair."""
    primal, dual = dec.primal, dec.dual
    B = dec.pairing
    pairing_block = (B @ dec.dual_PB.basis).T if dec.dual_PB.dim else np.zeros((0, primal.dim))
    l2_block = dec.ring_P0.basis.T @ primal.gram() if dec.ring_P0.dim else np.zeros((0, primal.dim))
    energy_block = (
        dec.P0_perp.basis.T @ primal.energy_gram() if dec.P0_perp.dim else np.zeros((0, primal.dim))
    )
    system = np.vstack([pairing_block, l2_block, energy_block])
    if system.shape[0] != primal.dim:
        raise AssumptionViolation(
            "interpolation system is %dx%d, not square" % (system.shape[0], primal.dim)
        )
    s = np.linalg.svd(system, compute_uv=False)
    if s[-1] <= 1e-10 * s[0]:
        raise AssumptionViolation("interpolation system is singular at tolerance")
    dual_PB_forms = [
        dual.form_from_coeffs(dec.dual_PB.basis[:, j]) for j in range(dec.dual_PB.dim)
    ]
    ring_forms = [
        primal.form_from_coeffs(dec.ring_P0.basis[:, j]) for j in range(dec.ring_P0.dim)
    ]
    perp_forms = [
        primal.form_from_coeffs(dec.P0_perp.basis[:, j]) for j in range(dec.P0_perp.dim)
    ]
    n, k = primal.n, primal.k
    codiffs = [codifferential(q) if q.k > 0 else PolyForm(n, 0) for q in dual_PB_forms]
    diffs = [exterior_derivative(w) if k < n else PolyForm(n, k + 1) for w in perp_forms]
    return InterpolatorSpec(
        primal=primal,
        dual=dual,
        pairing_block=pairing_block,
        l2_block=l2_block,
        energy_block=energy_block,
        system=system,
        dual_PB_forms=dual_PB_forms,
        ring_P0_forms=ring_forms,
        P0_perp_forms=perp_forms,
        dual_PB_codiffs=codiffs,
        P0_perp_diffs=diffs,
    )


def _rhs_polynomial(spec: InterpolatorSpec, omega: PolyForm):
    cell = spec.primal.cell
    n, k = spec.primal.n, spec.primal.k
    domega = exterior_derivative(omega) if k < n else PolyForm(n, k + 1)
    rhs = []
    for q, dq in zip(spec.dual_PB_forms, spec.dual_PB_codiffs):
        rhs.append(l2_inner(omega, dq, cell) - l2_inner(domega, q, cell))
    for w in spec.ring_P0_forms:
        rhs.append(l2_inner(omega, w, cell))
    for dw in spec.P0_perp_diffs:
        rhs.append(l2_inner(domega, dw, cell))
    return np.asarray(rhs)


def _rhs_callable(spec: InterpolatorSpec, value_fn, d_value_fn, degree=7):
    """Quadrature right-hand side for fields that are not polynomial.

    ``value_fn``/``d_value_fn`` map a point to the coefficient arrays of the
    k-form and its differential (component order of the multi-index list);
    accuracy is limited by the fixed quadrature degree.
    """
    cell = spec.primal.cell
    pts, wts = cell_quadrature(cell, degree)
    vals = np.array([value_fn(p) for p in pts])
    dvals = np.array([d_value_fn(p) for p in pts])

    def inner_vals(sample, form):
        acc = 0.0
        for p, w, row in zip(pts, wts, sample):
            acc += w * float(row @ form.coefficients_at(p))
        return acc

    rhs = []
    for q, dq in zip(spec.dual_PB_forms, spec.dual_PB_codiffs):
        rhs.append(inner_vals(vals, dq) - inner_vals(dvals, q))
    for w in spec.ring_P0_forms:
        rhs.append(inner_vals(vals, w))
    for dw in spec.P0_perp_diffs:
        rhs.append(inner_vals(dvals, dw))
    return np.asarray(rhs)


def interpolate_local(spec: InterpolatorSpec, omega):
    """Coefficients of the adjoint projection of a form on one cell.

    ``omega`` is a PolyForm, or a (value_fn, d_value_fn) pair handled by
    fixed-degree quadrature.
    """
    if isinstance(omega, PolyForm):
        rhs = _rhs_polynomial(spec, omega)
    else:
        rhs = _rhs_callable(spec, *omega)
    return np.linalg.solve(spec.system, rhs)


class LadderInterpolator:
    """All cell interpolators of one mesh level, built from the ladder's
    cell decompositions and cached in the ladder."""

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        lad = ladder(mesh)
        self.broken = lad.primal(k)
        self.specs = [interpolator_spec(dec) for dec in lad.local_decompositions(k)]

    def __call__(self, field):
        """Broken coefficient vector of the cellwise interpolant."""
        vec = np.zeros(self.broken.dim)
        for ci, omega in enumerate(field):
            vec[self.broken.cell_slice(ci)] = interpolate_local(self.specs[ci], omega)
        return vec


def global_interpolator(mesh, k):
    return ladder(mesh)._get(("interp", k), lambda: LadderInterpolator(mesh, k))


def interpolate_global(mesh, k, field):
    """Cell-by-cell adjoint projection of a per-cell polynomial field."""
    return global_interpolator(mesh, k)(field)


def global_field(mesh, form: PolyForm):
    """Restrict one global polynomial form to every cell."""
    return [form for _ in range(mesh.num_cells)]


def constraint_residual(mesh, k, bc, vec):
    """Largest violated pairing constraint of the matching nonconforming space."""
    lad = ladder(mesh)
    _, cons = lad.abc(k, bc)
    if cons.matrix.shape[0] == 0:
        return 0.0
    return float(np.abs(cons.matrix @ vec).max())


def field_pairing_residual(mesh, k, bc, field):
    """Pairing of an arbitrary polynomial field against the conforming partner.

    Zero means the field belongs to the continuous domain class the
    nonconforming space discretizes.
    """
    lad = ladder(mesh)
    partner_bc = "homogeneous" if bc == "none" else "none"
    partner = lad.whitney_star(k + 1, partner_bc)
    dual = lad.dual(k + 1)
    out = 0.0
    for col in range(partner.dim):
        total = 0.0
        for ci in range(mesh.num_cells):
            q = dual.form_on_cell(partner.atlas[:, col], ci)
            omega = field[ci]
            cell = mesh.cell_geometry(ci)
            dq = codifferential(q)
            domega = (
                exterior_derivative(omega) if k < mesh.dim else PolyForm(mesh.dim, k + 1)
            )
            total += l2_inner(omega, dq, cell) - l2_inner(domega, q, cell)
        out = max(out, abs(total))
    return out


def commute_check(mesh, k, field):
    """L2 norm of d_h(I omega) - I(d omega) for a per-cell polynomial field."""
    lad = ladder(mesh)
    I_low = global_interpolator(mesh, k)
    I_high = global_interpolator(mesh, k + 1)
    v = I_low(field)
    d_field = [exterior_derivative(w) for w in field]
    w_vec = I_high(d_field)
    D = lad.d_matrix(k)
    diff = lad.p0_injection(k + 1) @ (D @ v) - w_vec
    G = lad.primal(k + 1).gram()
    return float(np.sqrt(max(diff @ (G @ diff), 0.0)))


def projectivity_matrix(mesh, k):
    """Interpolation of every broken basis member; the identity when projective.

    The interpolator is local, so a basis member supported on one cell maps
    into that cell's block and the matrix is block diagonal: each cell
    interpolates only its own basis, and the off-diagonal blocks are zero.
    """
    return block_diagonal([
        np.column_stack([interpolate_local(spec, b) for b in spec.primal.basis])
        for spec in global_interpolator(mesh, k).specs
    ])


def stability_report(mesh, k, fields):
    """Worst observed energy and graph-norm amplification over sample fields.

    Returns the two empirical ratios and their theoretical ceilings
    (1 + 1/beta) and (2 + rho + 1/gamma + 1/beta) from the base-pair report
    the ladder keeps.
    """
    from .adjoint import base_pair_report

    lad = ladder(mesh)
    rep = base_pair_report(mesh, k)
    I = global_interpolator(mesh, k)
    D = lad.d_matrix(k)
    G = lad.primal(k).gram()
    G_hi = lad.p0(k + 1).gram
    energy_ratio = 0.0
    graph_ratio = 0.0
    for field in fields:
        v = I(field)
        Dv = D @ v
        d_energy = float(Dv @ (G_hi @ Dv))
        l2 = float(v @ (G @ v))
        ref_energy = 0.0
        ref_l2 = 0.0
        for ci, omega in enumerate(field):
            cell = mesh.cell_geometry(ci)
            ref_l2 += l2_inner(omega, omega, cell)
            if k < mesh.dim:
                dw = exterior_derivative(omega)
                ref_energy += l2_inner(dw, dw, cell)
        if ref_energy > 1e-24:
            energy_ratio = max(energy_ratio, np.sqrt(d_energy / ref_energy))
        graph = np.sqrt(l2 + d_energy)
        ref_graph = np.sqrt(ref_l2 + ref_energy)
        if ref_graph > 1e-12:
            graph_ratio = max(graph_ratio, graph / ref_graph)
    energy_bound = 1.0 + 1.0 / rep.beta
    graph_bound = 2.0 + rep.icr_under + 1.0 / rep.gamma + 1.0 / rep.beta
    return {
        "energy_ratio": float(energy_ratio),
        "graph_ratio": float(graph_ratio),
        "energy_bound": float(energy_bound),
        "graph_bound": float(graph_bound),
    }


def crouzeix_raviart_coefficients(mesh, ci, scalar: PolyForm):
    """Edge-integral coefficients of the classical scalar interpolant on a cell.

    The adjoint projection at degree zero in 2-D reduces to matching edge
    means in the nodal basis (sum of the two adjacent barycentric functions
    minus the opposite one, scaled by the edge length).
    """
    cell = mesh.cell_geometry(ci)
    vals = []
    for j in range(3):
        opp = [m for m in range(3) if m != j]
        edge = cell.vertices[opp]
        # integral of the scalar along the edge
        L = np.linalg.norm(edge[1] - edge[0])
        tr = scalar  # 0-form: restrict and integrate with arclength weight
        from .forms import trace_on, reference_simplex

        t = trace_on(tr, edge)
        ref = reference_simplex(1)
        val = 0.0
        for (expo, _), c in t.terms.items():
            val += c * ref.monomial_integral(expo)
        vals.append(val * L)
    lam = [cell.barycentric(i) for i in range(3)]
    basis = []
    for j in range(3):
        opp = [m for m in range(3) if m != j]
        L = np.linalg.norm(cell.vertices[opp[1]] - cell.vertices[opp[0]])
        basis.append((lam[opp[0]] + lam[opp[1]] - lam[j]) * (1.0 / L))
    out = PolyForm(2, 0)
    for c, b in zip(vals, basis):
        out = out + float(c) * b
    return out

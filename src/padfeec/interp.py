"""Cell-wise adjoint-projection interpolation onto trimmed form spaces.

The interpolant matches (1) the adjointness pairing against the twisted part
of the dual space, (2) the L2 moments against the kernel of the pairing-null
part, and (3) the differential moments against its complement; the stacked
square system is solved at once per cell.  The operator is projective, local
and maps pairing-constrained fields into the matching nonconforming space.

Every moment is linear in the field.  Over the coordinate basis of
`padfeec.forms` it is a row built from the cell's mass matrices and the
constant d matrix, so each cell keeps its operator S_K = system^-1 Phi_K,
which maps a polynomial field's coefficient vector to the coefficients of
its interpolant.  The cell data comes from the reference blocks and the
mesh: the bases are the blocks' coefficient columns shifted to the cell's
centroid, and the mass matrices come from the mesh's moment table.  The
system itself comes from the cell's pairing block and exact Grams, not from
Phi_K, so the projectivity check S_K P = I compares the coefficient moments
with that independent data.  All cells are solved at once over (cells, ...)
stacks; interpolating a field, its differential or the whole broken basis
(the projectivity check, kept sparse block diagonal) is one batched product
over coefficient arrays.  Fields given by point values go through
fixed-degree quadrature instead, cell by cell in `interpolate_local`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adjoint import base_pair_report
from .errors import AssumptionViolation, DegreeMismatch
from .forms import (
    PolyForm,
    cell_quadrature,
    derivative_matrix,
    monomial_values,
    reference_simplex,
    trace_on,
)
from .local import trimmed_local
from .spaces import block_diagonal, ladder


@dataclass
class InterpolatorSpec:
    """The square system and interpolation operator of cell ``index``.

    The test forms are coefficient columns: the moment of row i is
    <omega, value_tests[:, i]> + <d omega, derivative_tests[:, i]>.
    """

    mesh: object
    index: int
    k: int
    system: np.ndarray  # pairing, L2 and energy rows from the pairing block and Grams
    value_tests: np.ndarray  # (N_k, dim)
    derivative_tests: np.ndarray  # (N_{k+1}, dim)
    basis_coeffs: np.ndarray  # (N_k, dim): the primal basis as coefficient columns
    operator: np.ndarray  # (dim, N_k): S_K = system^-1 Phi_K

    @cached_property
    def primal(self):
        """The cell's trimmed primal `LocalSpace`, built when first asked for."""
        return trimmed_local(self.mesh.cell_geometry(self.index), self.k, "primal")


def interpolator_spec(mesh, k):
    """Assemble and validate the square systems of every cell of one mesh level.

    The systems are built from the pairing and part stacks of the ladder's
    `StackedDecomposition` and from the primal Grams; Phi_K holds the same
    moments as coefficient functionals, so S_K applied to the primal basis
    is the identity only when the two agree.  Returns one `InterpolatorSpec` per
    cell, whose arrays are views into (cells, ...) stacks.
    """
    lad = ladder(mesh)
    geo, primal, cells = lad.geometry, lad.primal(k), mesh.num_cells
    decs = lad.local_decompositions(k)
    D = derivative_matrix(mesh.dim, k)
    P = primal.reference.coefficients(geo.centroids)
    if k < mesh.dim:
        dual = lad.dual(k + 1).reference
        Q, delta = dual.coefficients(geo.centroids), dual.delta
    else:
        Q, delta = np.zeros((cells, 0, 0)), np.zeros((len(primal.reference.projection), 0))
    # the dual basis' codifferentials are constant: combinations of the
    # primal basis' leading members, the constants
    dQ = P @ (primal.reference.projection.T @ delta)
    pb, ring, perp = decs.dual_PB, decs.ring_P0, decs.P0_perp
    value_tests = np.concatenate([dQ @ pb, P @ ring, np.zeros_like(P @ perp)], axis=2)
    derivative_tests = np.concatenate(
        [-(Q @ pb), np.zeros_like(D @ P @ ring), D @ P @ perp], axis=2
    )
    if value_tests.shape[2] != primal.reference.dim:
        raise AssumptionViolation(
            "interpolation system is %dx%d, not square"
            % (value_tests.shape[2], primal.reference.dim)
        )
    system = np.concatenate([
        np.swapaxes(decs.pairing @ pb, 1, 2),
        np.swapaxes(ring, 1, 2) @ primal.gram_blocks(),
        np.swapaxes(perp, 1, 2) @ primal.energy_blocks(),
    ], axis=1)
    phi = (
        np.swapaxes(value_tests, 1, 2) @ geo.mass_matrices(k)
        + np.swapaxes(derivative_tests, 1, 2) @ geo.mass_matrices(k + 1) @ D
    )
    s = np.linalg.svd(system, compute_uv=False)
    if np.any(s[:, -1] <= 1e-10 * s[:, 0]):
        raise AssumptionViolation("interpolation system is singular at tolerance")
    operators = np.linalg.solve(system, phi)
    return [
        InterpolatorSpec(
            mesh, ci, k, system[ci], value_tests[ci], derivative_tests[ci], P[ci], operators[ci]
        )
        for ci in range(cells)
    ]


def _rhs_callable(spec: InterpolatorSpec, value_fn, d_value_fn, degree=7):
    """Quadrature right-hand side for fields that are not polynomial.

    ``value_fn``/``d_value_fn`` map a point to the coefficient arrays of the
    k-form and its differential (component order of the multi-index list);
    accuracy is limited by the fixed quadrature degree.  Each moment pairs the
    point values with those of the coordinate basis.
    """
    pts, wts = cell_quadrature(spec.mesh.cell_geometry(spec.index), degree)
    weighted = wts[:, None] * monomial_values(pts)
    vals = np.array([value_fn(p) for p in pts]).reshape(len(pts), -1)
    dvals = np.array([d_value_fn(p) for p in pts]).reshape(len(pts), -1)
    return (
        spec.value_tests.T @ (vals.T @ weighted).ravel()
        + spec.derivative_tests.T @ (dvals.T @ weighted).ravel()
    )


def interpolate_local(spec: InterpolatorSpec, omega):
    """Coefficients of the adjoint projection of a form on one cell.

    ``omega`` is a PolyForm, or a (value_fn, d_value_fn) pair handled by
    fixed-degree quadrature.
    """
    if isinstance(omega, PolyForm):
        return spec.operator @ omega.coefficient_vector()
    return np.linalg.solve(spec.system, _rhs_callable(spec, *omega))


class LadderInterpolator:
    """All cell interpolators of one mesh level, built from the ladder's
    cell decompositions in one batched pass and cached in the ladder.

    ``operators`` stacks the cells' S_K; every cell has the same local
    dimension, so broken coordinates are its rows in cell order.
    """

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        lad = ladder(mesh)
        self.broken = lad.primal(k)
        self.specs = interpolator_spec(mesh, k)
        self.operators = np.stack([spec.operator for spec in self.specs])

    def coefficients(self, field):
        """(cells, N) coefficient array of a per-cell polynomial field.

        Each distinct form is converted once: a global field repeats one.
        """
        rows = {}
        for omega in field:
            if id(omega) not in rows:
                if (omega.n, omega.k) != (self.mesh.dim, self.k):
                    raise DegreeMismatch(
                        "field of %d-forms on R^%d for the %d-form interpolator"
                        % (omega.k, omega.n, self.k)
                    )
                rows[id(omega)] = omega.coefficient_vector()
        return np.array([rows[id(omega)] for omega in field])

    def apply(self, coeffs):
        """Broken coefficient vector of the interpolant of a (cells, N) coefficient array."""
        return np.matmul(self.operators, np.ascontiguousarray(coeffs)[:, :, None]).ravel()

    def __call__(self, field):
        """Broken coefficient vector of the cellwise interpolant of a
        per-cell polynomial field; fields given by point values go through
        `interpolate_local` cell by cell."""
        return self.apply(self.coefficients(field))


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
    C = ladder(mesh).abc_constraints(k, bc)
    return float(np.abs(C @ vec).max()) if C.shape[0] else 0.0


def commute_check(mesh, k, field):
    """L2 norm of d_h(I omega) - I(d omega) for a per-cell polynomial field."""
    lad = ladder(mesh)
    I_low = global_interpolator(mesh, k)
    C = I_low.coefficients(field)
    v = I_low.apply(C)
    w_vec = global_interpolator(mesh, k + 1).apply(C @ derivative_matrix(mesh.dim, k).T)
    diff = lad.p0_injection(k + 1) @ (lad.d_matrix(k) @ v) - w_vec
    G = lad.primal(k + 1).gram()
    return float(np.sqrt(max(diff @ (G @ diff), 0.0)))


def projectivity_matrix(mesh, k):
    """Interpolation of every broken basis member; the identity when projective.

    The interpolator is local, so a basis member supported on one cell maps
    into that cell's block and the matrix is block diagonal.  Column j of
    every block comes from one batched product over the j-th basis member of
    each cell, the same product that interpolates a field.
    """
    I = global_interpolator(mesh, k)
    basis = np.stack([spec.basis_coeffs for spec in I.specs])  # (cells, N, dim)
    cells, _, dim = basis.shape
    columns = [I.apply(basis[:, :, j]).reshape(cells, dim) for j in range(dim)]
    return block_diagonal(np.stack(columns, axis=2))


def _squared_norm(masses, coeffs):
    """Sum over cells of c_K^T M_K c_K, ``masses`` the cells' mass matrices."""
    return float(np.einsum("cp,cpq,cq->", coeffs, masses, coeffs))


def stability_report(mesh, k, fields):
    """Worst observed energy and graph-norm amplification over sample fields.

    Returns the two empirical ratios and their theoretical ceilings
    (1 + 1/beta) and (2 + rho + 1/gamma + 1/beta) from the base-pair report
    the ladder keeps.  The fields' own norms come from the mesh's mass
    matrices.
    """
    lad = ladder(mesh)
    rep = base_pair_report(mesh, k)
    I = global_interpolator(mesh, k)
    D = lad.d_matrix(k)
    G = lad.primal(k).gram()
    G_hi = lad.p0(k + 1).gram
    d_coeffs = derivative_matrix(mesh.dim, k).T
    M, M_hi = lad.geometry.mass_matrices(k), lad.geometry.mass_matrices(k + 1)
    energy_ratio = 0.0
    graph_ratio = 0.0
    for field in fields:
        C = I.coefficients(field)
        v = I.apply(C)
        Dv = D @ v
        d_energy = float(Dv @ (G_hi @ Dv))
        l2 = float(v @ (G @ v))
        ref_l2 = _squared_norm(M, C)
        ref_energy = _squared_norm(M_hi, C @ d_coeffs)
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
    lam = [cell.barycentric(i) for i in range(3)]
    ref = reference_simplex(1)
    out = PolyForm(2, 0)
    for j in range(3):
        a, b = [m for m in range(3) if m != j]
        L = np.linalg.norm(cell.vertices[b] - cell.vertices[a])
        # integral of the scalar along the edge opposite vertex j, by arclength
        trace = trace_on(scalar, cell.vertices[[a, b]])
        val = sum(c * ref.monomial_integral(expo) for (expo, _), c in trace.terms.items())
        out = out + float(val * L) * ((lam[a] + lam[b] - lam[j]) * (1.0 / L))
    return out

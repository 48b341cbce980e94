import numpy as np
import pytest

from padfeec.forms import (
    PolyForm,
    codifferential,
    exterior_derivative,
    l2_inner,
    random_polyform,
)
from padfeec.interp import (
    commute_check,
    constraint_residual,
    crouzeix_raviart_coefficients,
    field_pairing_residual,
    global_field,
    global_interpolator,
    interpolate_global,
    interpolate_local,
    projectivity_matrix,
    stability_report,
)
from padfeec.mesh import generate_structured
from padfeec.spaces import ladder

BOX2 = generate_structured(2, 2)
BOX4 = generate_structured(2, 4)
HOLE4 = generate_structured(2, 4, "hole")
TETBOX1 = generate_structured(3, 1, "box")
ORACLE_CASES = [
    pytest.param(mesh, k, id="%s-k%d" % (name, k))
    for name, mesh in (("box2", BOX2), ("hole4", HOLE4), ("tetbox1", TETBOX1))
    for k in range(mesh.dim + 1)
]


class TestLocalInterpolation:
    def test_reproduces_shape_space(self):
        interp = global_interpolator(BOX2, 1)
        spec = interp.specs[0]
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(spec.primal.dim)
        omega = spec.primal.form_from_coeffs(coeffs)
        out = interpolate_local(spec, omega)
        assert np.abs(out - coeffs).max() < 1e-12

    def test_zero_maps_to_zero(self):
        interp = global_interpolator(BOX2, 0)
        out = interpolate_local(interp.specs[0], PolyForm(2, 0))
        assert np.abs(out).max() == 0.0

    def test_cr_closed_form_matches_edge_integrals(self):
        # scalar interpolation = sum of edge means times the nodal basis
        x2 = PolyForm.monomial(2, 0, (2, 0), ())
        interp = global_interpolator(BOX2, 0)
        worst = 0.0
        for ci in range(BOX2.num_cells):
            coeffs = interpolate_local(interp.specs[ci], x2)
            direct = crouzeix_raviart_coefficients(BOX2, ci, x2)
            got = interp.specs[ci].primal.form_from_coeffs(coeffs)
            cell = BOX2.cell_geometry(ci)
            diff = got - direct
            worst = max(worst, np.sqrt(abs(l2_inner(diff, diff, cell))))
        assert worst < 1e-12

    def test_quadrature_fallback_matches_exact_path(self):
        interp = global_interpolator(BOX2, 0)
        spec = interp.specs[2]
        quad = PolyForm.monomial(2, 0, (1, 1), (), 2.0)
        exact = interpolate_local(spec, quad)

        def value(p):
            return quad.coefficients_at(p)

        dquad = exterior_derivative(quad)

        def dvalue(p):
            return dquad.coefficients_at(p)

        approx = interpolate_local(spec, (value, dvalue))
        assert np.abs(exact - approx).max() < 1e-12


class TestGlobalInterpolation:
    def test_projectivity_identity(self):
        for k in (0, 1, 2):
            J = projectivity_matrix(BOX2, k)
            assert np.abs(J - np.eye(J.shape[0])).max() < 1e-12

    def test_idempotency(self):
        J = projectivity_matrix(BOX2, 1)
        assert np.abs(J @ J - J).max() < 1e-12

    def test_locality(self):
        # fields agreeing on one cell interpolate identically there
        rng = np.random.default_rng(1)
        interp = global_interpolator(BOX2, 1)
        shared = random_polyform(2, 1, 2, rng)
        f1 = [random_polyform(2, 1, 2, rng) for _ in range(BOX2.num_cells)]
        f2 = [random_polyform(2, 1, 2, rng) for _ in range(BOX2.num_cells)]
        f1[3] = shared
        f2[3] = shared
        v1, v2 = interp(f1), interp(f2)
        s = interp.broken.cell_slice(3)
        assert np.array_equal(v1[s], v2[s])

    @pytest.mark.parametrize("mesh,k", ORACLE_CASES)
    def test_block_projectivity_matches_global_sweep(self, mesh, k):
        # the oracle interpolates every broken basis member as a global field
        # that is zero on every other cell
        interp = global_interpolator(mesh, k)
        broken = interp.broken
        cols = []
        for ci in range(mesh.num_cells):
            for b in broken.locals[ci].basis:
                field = [PolyForm(mesh.dim, k) for _ in range(mesh.num_cells)]
                field[ci] = b
                cols.append(interp(field))
        assert np.array_equal(projectivity_matrix(mesh, k).toarray(), np.column_stack(cols))

    @pytest.mark.parametrize("mesh,k", ORACLE_CASES)
    def test_stored_moment_forms_match_fresh_derivatives(self, mesh, k):
        n = mesh.dim
        for spec in global_interpolator(mesh, k).specs:
            assert len(spec.dual_PB_codiffs) == len(spec.dual_PB_forms)
            assert len(spec.P0_perp_diffs) == len(spec.P0_perp_forms)
            for q, dq in zip(spec.dual_PB_forms, spec.dual_PB_codiffs):
                assert dq.k == q.k - 1
                assert dq.terms == codifferential(q).terms
            for w, dw in zip(spec.P0_perp_forms, spec.P0_perp_diffs):
                fresh = exterior_derivative(w) if k < n else PolyForm(n, k + 1)
                assert dw.k == k + 1
                assert dw.terms == fresh.terms

    def test_conforming_member_reproduced(self):
        lad = ladder(BOX2)
        wh = lad.whitney(1, "none")
        interp = global_interpolator(BOX2, 1)
        col = wh.atlas[:, 5]
        field = [lad.primal(1).form_on_cell(col, ci) for ci in range(BOX2.num_cells)]
        out = interp(field)
        assert np.abs(out - col).max() < 1e-12


class TestDomainPreservation:
    @pytest.mark.parametrize("k,bc", [(0, "none"), (0, "homogeneous"), (1, "none")])
    def test_global_polynomial_lands_in_nonconforming_space(self, k, bc):
        rng = np.random.default_rng(2)
        for _ in range(3):
            form = random_polyform(2, k, 2, rng)
            field = global_field(BOX2, form)
            if bc == "homogeneous":
                # the pairing against the unconstrained partner sees the
                # boundary; restrict the check to fields with zero pairing
                if field_pairing_residual(BOX2, k, bc, field) > 1e-10:
                    continue
            vec = interpolate_global(BOX2, k, field)
            assert constraint_residual(BOX2, k, bc, vec) < 1e-11

    def test_discontinuous_field_is_just_projected(self):
        rng = np.random.default_rng(3)
        field = [random_polyform(2, 0, 2, rng) for _ in range(BOX2.num_cells)]
        vec = interpolate_global(BOX2, 0, field)
        assert np.isfinite(vec).all()


class TestCommutation:
    @pytest.mark.parametrize("k", [0, 1])
    def test_random_quadratics(self, k):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            form = random_polyform(2, k, 2, rng)
            worst = max(worst, commute_check(BOX2, k, global_field(BOX2, form)))
        assert worst < 1e-11

    def test_shape_space_residual_zero(self):
        lad = ladder(BOX2)
        interp = global_interpolator(BOX2, 0)
        field = [lad.primal(0).locals[ci].basis[1] for ci in range(BOX2.num_cells)]
        assert commute_check(BOX2, 0, field) < 1e-12


class TestStability:
    def test_whitney_bounds(self):
        rng = np.random.default_rng(5)
        fields = [global_field(BOX4, random_polyform(2, 0, 2, rng)) for _ in range(20)]
        rep = stability_report(BOX4, 0, fields)
        assert rep["energy_bound"] == pytest.approx(2.0, abs=1e-9)
        assert rep["energy_ratio"] <= rep["energy_bound"] + 1e-9
        assert rep["graph_ratio"] <= rep["graph_bound"] + 1e-9

    def test_shape_space_samples_have_unit_ratio(self):
        lad = ladder(BOX4)
        interp = global_interpolator(BOX4, 0)
        field = [lad.primal(0).locals[ci].basis[2] for ci in range(BOX4.num_cells)]
        rep = stability_report(BOX4, 0, [field])
        assert rep["graph_ratio"] == pytest.approx(1.0, abs=1e-10)

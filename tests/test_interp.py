import json

import numpy as np
import pytest

import padfeec.interp
import padfeec.spaces
from padfeec.cli import main
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
    global_field,
    global_interpolator,
    interpolate_global,
    interpolate_local,
    projectivity_matrix,
    stability_report,
)
from padfeec.local import LocalSpace, trimmed_local
from padfeec.mesh import generate_structured
from padfeec.spaces import ladder

from oracles import JITTERED, cell_decompositions, decompose_pair

BOX2 = generate_structured(2, 2)
BOX4 = generate_structured(2, 4)
HOLE4 = generate_structured(2, 4, "hole")
TETBOX1 = generate_structured(3, 1, "box")


def field_pairing_residual(mesh, k, bc, field):
    """Pairing of an arbitrary polynomial field against the conforming partner.

    Zero means the field belongs to the continuous domain class the
    nonconforming space discretizes.  The oracle works on the dict algebra.
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
            domega = exterior_derivative(omega) if k < mesh.dim else PolyForm(mesh.dim, k + 1)
            total += l2_inner(omega, codifferential(q), cell) - l2_inner(domega, q, cell)
        out = max(out, abs(total))
    return out


def interpolate_by_l2_inner(primal, dual, omega):
    """One cell's interpolant with every moment taken by `l2_inner` on PolyForms,
    the system from the cell's exact Grams and pairing, decomposed afresh."""
    dec = decompose_pair(primal, dual)
    system = np.vstack([
        (dec.pairing @ dec.dual_PB.basis).T,
        dec.ring_P0.basis.T @ primal.gram(),
        dec.P0_perp.basis.T @ primal.energy_gram(),
    ])
    cell = primal.cell
    n, k = primal.n, primal.k
    domega = exterior_derivative(omega) if k < n else PolyForm(n, k + 1)
    rhs = []
    for j in range(dec.dual_PB.dim):
        q = dual.form_from_coeffs(dec.dual_PB.basis[:, j])
        rhs.append(l2_inner(omega, codifferential(q), cell) - l2_inner(domega, q, cell))
    for j in range(dec.ring_P0.dim):
        rhs.append(l2_inner(omega, primal.form_from_coeffs(dec.ring_P0.basis[:, j]), cell))
    for j in range(dec.P0_perp.dim):
        w = primal.form_from_coeffs(dec.P0_perp.basis[:, j])
        dw = exterior_derivative(w) if k < n else PolyForm(n, k + 1)
        rhs.append(l2_inner(domega, dw, cell))
    return np.linalg.solve(system, np.asarray(rhs))


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

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("fault", ["derivative", "mass"])
    def test_projectivity_sees_wrong_coefficient_moments(self, monkeypatch, fault, k):
        # the system comes from the pairing block and the Grams, so a wrong d
        # matrix or mass matrix in the moments must break S_K P = I
        if fault == "derivative":
            exact = padfeec.interp.derivative_matrix
            monkeypatch.setattr(padfeec.interp, "derivative_matrix", lambda n, j: 1.5 * exact(n, j))
        else:
            exact = padfeec.spaces.MeshGeometry.mass_matrices

            def skewed(geometry, j):
                M = exact(geometry, j).copy()
                M[:, 0, 0] *= 1.01
                return M

            monkeypatch.setattr(padfeec.spaces.MeshGeometry, "mass_matrices", skewed)
        worst = 0.0
        for spec in padfeec.interp.interpolator_spec(BOX2, k):
            J = spec.operator @ spec.basis_coeffs
            worst = max(worst, float(np.abs(J - np.eye(len(J))).max()))
        assert worst > 1e-4

    @pytest.mark.parametrize("mesh,k", ORACLE_CASES)
    def test_block_projectivity_matches_global_sweep(self, mesh, k):
        # the oracle interpolates every broken basis member as a global field
        # that is zero on every other cell
        interp = global_interpolator(mesh, k)
        cols = []
        for ci in range(mesh.num_cells):
            for b in interp.specs[ci].primal.basis:
                field = [PolyForm(mesh.dim, k) for _ in range(mesh.num_cells)]
                field[ci] = b
                cols.append(interp(field))
        assert np.array_equal(projectivity_matrix(mesh, k).toarray(), np.column_stack(cols))

    @pytest.mark.parametrize("mesh,k", ORACLE_CASES)
    def test_stored_moment_forms_match_fresh_derivatives(self, mesh, k):
        # the spec's test-form columns against fresh PolyForm derivatives
        n = mesh.dim
        decs = cell_decompositions(ladder(mesh).local_decompositions(k))
        for spec, dec in zip(global_interpolator(mesh, k).specs, decs):
            primal = spec.primal
            dual = trimmed_local(primal.cell, k + 1, "dual") if k < n else None
            npb, nring, nperp = dec.dual_PB.dim, dec.ring_P0.dim, dec.P0_perp.dim
            assert spec.value_tests.shape[1] == npb + nring + nperp == spec.primal.dim
            assert not spec.value_tests[:, npb + nring:].any()
            assert not spec.derivative_tests[:, npb:npb + nring].any()
            expected_value, expected_derivative = [], []
            for j in range(npb):
                q = dual.form_from_coeffs(dec.dual_PB.basis[:, j])
                expected_value.append(codifferential(q).coefficient_vector())
                expected_derivative.append(-q.coefficient_vector())
            for j in range(nring):
                expected_value.append(
                    primal.form_from_coeffs(dec.ring_P0.basis[:, j]).coefficient_vector()
                )
            for j in range(nperp):
                w = primal.form_from_coeffs(dec.P0_perp.basis[:, j])
                dw = exterior_derivative(w) if k < n else PolyForm(n, k + 1)
                expected_derivative.append(dw.coefficient_vector())
            got_value = spec.value_tests[:, : npb + nring]
            got_derivative = np.hstack(
                [spec.derivative_tests[:, :npb], spec.derivative_tests[:, npb + nring:]]
            )
            for got, expected in ((got_value, expected_value), (got_derivative, expected_derivative)):
                expected = np.column_stack(expected) if expected else np.zeros_like(got)
                assert got.shape == expected.shape
                assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * max(
                    np.abs(expected).max(initial=0.0), 1.0
                )

    @pytest.mark.parametrize(
        "mesh,k",
        [
            pytest.param(mesh, k, id="%s-k%d" % (name, k))
            for name, mesh in JITTERED
            for k in range(mesh.dim + 1)
        ],
    )
    def test_global_interpolation_matches_l2_inner_route(self, mesh, k):
        rng = np.random.default_rng(9)
        cells = [mesh.cell_geometry(ci) for ci in range(mesh.num_cells)]
        primals = [trimmed_local(cell, k, "primal") for cell in cells]
        duals = [
            trimmed_local(cell, k + 1, "dual") if k < mesh.dim
            else LocalSpace(cell, k + 1, [], op="delta")
            for cell in cells
        ]
        fields = [global_field(mesh, random_polyform(mesh.dim, k, 3, rng))]
        fields.append([random_polyform(mesh.dim, k, 3, rng) for _ in range(mesh.num_cells)])
        for field in fields:
            got = interpolate_global(mesh, k, field)
            expected = np.concatenate([
                interpolate_by_l2_inner(p, q, omega) for p, q, omega in zip(primals, duals, field)
            ])
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

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


class TestWithoutL2Inner:
    @pytest.mark.parametrize("k", [0, 1])
    def test_verify_interp_passes_with_l2_inner_raising(self, monkeypatch, capsys, k):
        # no moment of the interpolation path may go through the dict algebra
        def refuse(*args, **kwargs):
            raise AssertionError("l2_inner reached from padfeec.interp")

        for name, obj in list(vars(padfeec.interp).items()):
            if obj is padfeec.forms.l2_inner:
                monkeypatch.setattr(padfeec.interp, name, refuse)
        code = main(["verify", "interp", "--mesh", "box:2", "--k", str(k)])
        records = json.loads(capsys.readouterr().out)["records"]
        assert code == 0 and len(records) == 4
        assert all(r["verdict"] == "pass" for r in records), records


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
        interp = global_interpolator(BOX2, 0)
        field = [interp.specs[ci].primal.basis[1] for ci in range(BOX2.num_cells)]
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
        interp = global_interpolator(BOX4, 0)
        field = [interp.specs[ci].primal.basis[2] for ci in range(BOX4.num_cells)]
        rep = stability_report(BOX4, 0, [field])
        assert rep["graph_ratio"] == pytest.approx(1.0, abs=1e-10)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padfeec.errors import DegreeMismatch, DegreeUnderflow
from padfeec.forms import (
    CellGeometry,
    PolyForm,
    cell_quadrature,
    coefficient_basis,
    codifferential,
    derivative_matrix,
    exterior_derivative,
    hodge_star,
    inner_matrix,
    integral_over_subsimplex,
    koszul,
    l2_inner,
    monomial_exponents,
    multiindices,
    random_polyform,
    simplex_quadrature,
    stokes_boundary_integral,
    trace_on,
)
from padfeec.mesh import Mesh
from padfeec.spaces import MeshGeometry

from oracles import JITTERED

UNIT_TRIANGLE = CellGeometry([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def random_cell(n, rng):
    while True:
        V = rng.standard_normal((n + 1, n))
        try:
            cell = CellGeometry(V)
        except Exception:
            continue
        if cell.volume > 0.05:
            return cell


def one_cell_geometry(cell):
    """The `MeshGeometry` of the mesh made of ``cell`` alone."""
    return MeshGeometry(Mesh(cell.n, cell.vertices, [tuple(range(cell.n + 1))]))


class TestMultiIndices:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cardinality(self, n):
        for k in range(n + 1):
            assert len(multiindices(k, n)) == math.comb(n, k)

    def test_strictly_increasing(self):
        for midx in multiindices(2, 3):
            assert midx[0] < midx[1]


class TestExteriorDerivative:
    def test_textbook_x_dy(self):
        w = PolyForm.monomial(2, 1, (1, 0), (1,))  # x dy
        dw = exterior_derivative(w)
        assert dw.terms == {((0, 0), (0, 1)): 1.0}  # dx ^ dy

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_d_koszul_is_degree_scaling(self, n):
        for k in range(1, n + 1):
            for midx in multiindices(k, n):
                dk = exterior_derivative(koszul(PolyForm.basis_form(n, midx)))
                expected = float(k) * PolyForm.basis_form(n, midx)
                assert (dk - expected).is_zero()

    @pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (3, 1)])
    def test_dd_zero_exact_on_monomials(self, n, k):
        import itertools

        for midx in multiindices(k, n):
            for expo in itertools.product(range(3), repeat=n):
                if sum(expo) > 2:
                    continue
                w = PolyForm.monomial(n, k, expo, midx)
                assert exterior_derivative(exterior_derivative(w)).is_zero()

    @pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (3, 1)])
    def test_dd_zero_random_at_machine_level(self, n, k):
        rng = np.random.default_rng(0)
        w = random_polyform(n, k, 2, rng)
        dd = exterior_derivative(exterior_derivative(w))
        assert dd.is_zero(tol=1e-13 * max(w.max_abs_coeff(), 1.0))


class TestHodgeStar:
    def test_2d_signs(self):
        dx = PolyForm.basis_form(2, (0,))
        dy = PolyForm.basis_form(2, (1,))
        assert hodge_star(dx).terms == {((0, 0), (1,)): 1.0}
        assert hodge_star(dy).terms == {((0, 0), (0,)): -1.0}

    def test_star_one(self):
        one = PolyForm.one(2)
        assert hodge_star(one).terms == {((0, 0), (0, 1)): 1.0}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_double_star_sign(self, n):
        rng = np.random.default_rng(1)
        for k in range(n + 1):
            w = random_polyform(n, k, 2, rng)
            ss = hodge_star(hodge_star(w))
            expected = float((-1) ** (k * (n - k))) * w
            assert (ss - expected).is_zero()

    def test_star_isometry(self):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            cell = random_cell(n, rng)
            for k in range(n + 1):
                a = random_polyform(n, k, 2, rng)
                b = random_polyform(n, k, 2, rng)
                lhs = l2_inner(hodge_star(a), hodge_star(b), cell)
                rhs = l2_inner(a, b, cell)
                assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestCodifferential:
    def test_divergence_2d(self):
        # delta(u dx + v dy) = -(du/dx + dv/dy): the L2-adjoint sign convention
        rng = np.random.default_rng(3)
        u = random_polyform(2, 0, 2, rng)
        v = random_polyform(2, 0, 2, rng)
        w = u.wedge(PolyForm.basis_form(2, (0,))) + v.wedge(PolyForm.basis_form(2, (1,)))
        div = exterior_derivative(u).coefficient((0,)) + exterior_derivative(v).coefficient((1,))
        assert (codifferential(w) + div).is_zero(tol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_delta_star_koszul_star_scaling(self, n):
        # delta(star koszul star dx^alpha) is a fixed multiple of dx^alpha; the
        # magnitude is n-k and the sign follows the adjoint convention, which
        # flips the classical odd-dimension sign (-1)^(kn-1) when n is even
        for k in range(n):
            for midx in multiindices(k, n):
                w = hodge_star(koszul(hodge_star(PolyForm.basis_form(n, midx))))
                out = codifferential(w)
                sign = (-1) ** (k * n - 1) * (1 if n % 2 else -1)
                expected = float(sign * (n - k)) * PolyForm.basis_form(n, midx)
                assert (out - expected).is_zero()

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3)])
    def test_delta_delta_zero(self, n, k):
        import itertools

        for midx in multiindices(k, n):
            for expo in itertools.product(range(3), repeat=n):
                if sum(expo) > 2:
                    continue
                w = PolyForm.monomial(n, k, expo, midx)
                assert codifferential(codifferential(w)).is_zero()
        rng = np.random.default_rng(4)
        w = random_polyform(n, k, 2, rng)
        assert codifferential(codifferential(w)).is_zero(tol=1e-13 * max(w.max_abs_coeff(), 1.0))

    def test_degree_underflow(self):
        with pytest.raises(DegreeUnderflow):
            codifferential(PolyForm.one(2))


class TestKoszul:
    def test_volume_contraction(self):
        # expand the alternating sum by hand: koszul(dx^dy) = x dy - y dx
        vol = PolyForm.basis_form(2, (0, 1))
        kv = koszul(vol)
        assert kv.terms == {((1, 0), (1,)): 1.0, ((0, 1), (0,)): -1.0}

    def test_centered_variant_degree_scaling(self):
        rng = np.random.default_rng(5)
        cell = random_cell(2, rng)
        for k in range(1, 3):
            for midx in multiindices(k, 2):
                w = PolyForm.basis_form(2, midx)
                dk = exterior_derivative(koszul(w, center=cell.centroid))
                assert (dk - float(k) * w).is_zero(tol=1e-14)

    def test_koszul_koszul_zero(self):
        assert koszul(koszul(PolyForm.basis_form(2, (0, 1)))).is_zero()

    def test_centroid_centering_integrates_to_zero(self):
        rng = np.random.default_rng(6)
        cell = random_cell(2, rng)
        w = koszul(PolyForm.basis_form(2, (0, 1)), center=cell.centroid)
        # each coefficient of the centered contraction has zero cell average
        for midx in multiindices(1, 2):
            avg = l2_inner(w.coefficient(midx), PolyForm.one(2), cell)
            assert abs(avg) < 1e-14 * cell.volume / max(cell.volume, 1)


class TestL2Inner:
    def test_area(self):
        one = PolyForm.one(2)
        assert l2_inner(one, one, UNIT_TRIANGLE) == pytest.approx(0.5, abs=1e-15)

    def test_barycentric_product(self):
        # factorial formula with a=(1,1,0) and |T| = 1/2 gives 1/24
        lam1 = UNIT_TRIANGLE.barycentric(1)
        lam2 = UNIT_TRIANGLE.barycentric(2)
        assert l2_inner(lam1, lam2, UNIT_TRIANGLE) == pytest.approx(1.0 / 24.0, abs=1e-16)

    def test_orthogonal_coframe(self):
        rng = np.random.default_rng(7)
        cell = random_cell(2, rng)
        dx = PolyForm.basis_form(2, (0,))
        dy = PolyForm.basis_form(2, (1,))
        assert l2_inner(dx, dy, cell) == 0.0

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            l2_inner(PolyForm.one(2), PolyForm.basis_form(2, (0,)), UNIT_TRIANGLE)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = 2 if trial % 2 == 0 else 3
            k = trial % (n + 1)
            cell = random_cell(n, rng)
            a = random_polyform(n, k, 2, rng)
            b = random_polyform(n, k, 2, rng)
            exact = l2_inner(a, b, cell)
            pts, wts = cell_quadrature(cell, degree=7)
            approx = 0.0
            for p, w in zip(pts, wts):
                approx += w * float(a.coefficients_at(p) @ b.coefficients_at(p))
            scale = max(abs(exact), 1.0)
            assert abs(exact - approx) <= 1e-13 * scale


class TestIntegrationByParts:
    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_green_identity(self, n, k):
        rng = np.random.default_rng(9)
        for _ in range(5):
            cell = random_cell(n, rng)
            w = random_polyform(n, k, 1, rng)
            mu = random_polyform(n, k + 1, 1, rng)
            lhs = l2_inner(exterior_derivative(w), mu, cell) - l2_inner(
                w, codifferential(mu), cell
            )
            boundary = stokes_boundary_integral(w.wedge(hodge_star(mu)), cell)
            assert lhs == pytest.approx(boundary, rel=1e-12, abs=1e-12)


class TestTrace:
    def test_trace_dx_on_horizontal_edge(self):
        dx = PolyForm.basis_form(2, (0,))
        tr = trace_on(dx, [[0.0, 0.0], [1.0, 0.0]])
        assert tr.terms == {((0,), (0,)): 1.0}  # dt

    def test_trace_of_volume_form_on_edge_vanishes(self):
        vol = PolyForm.basis_form(2, (0, 1))
        tr = trace_on(vol, [[0.0, 0.0], [1.0, 1.0]])
        assert tr.is_zero()

    def test_edge_integral_of_coordinate(self):
        # integral over the segment (0,0)->(1,0) of x dx is 1/2
        xdx = PolyForm.coordinate(2, 0).wedge(PolyForm.basis_form(2, (0,)))
        val = integral_over_subsimplex(xdx, [[0.0, 0.0], [1.0, 0.0]])
        assert val == pytest.approx(0.5, abs=1e-15)


class TestQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weights_sum_to_reference_volume(self, n):
        _, w = simplex_quadrature(n, degree=7)
        assert w.sum() == pytest.approx(1.0 / math.factorial(n), abs=1e-14)

    def test_polynomial_exactness_degree7(self):
        pts, wts = simplex_quadrature(2, degree=7)
        approx = sum(w * p[0] ** 3 * p[1] ** 4 for p, w in zip(pts, wts))
        exact = math.factorial(3) * math.factorial(4) / math.factorial(3 + 4 + 2)
        assert approx == pytest.approx(exact, rel=1e-13)


class TestCellGeometry:
    def test_volume_and_centroid(self):
        assert UNIT_TRIANGLE.volume == pytest.approx(0.5)
        assert np.allclose(UNIT_TRIANGLE.centroid, [1 / 3, 1 / 3])

    def test_barycentric_partition_of_unity(self):
        rng = np.random.default_rng(10)
        cell = random_cell(3, rng)
        total = PolyForm(3, 0)
        for j in range(4):
            total = total + cell.barycentric(j)
        assert (total - PolyForm.one(3)).is_zero(tol=1e-12)

    def test_integral_top(self):
        # the integral of a top-degree form is its L2 product with the volume form
        vol = PolyForm.basis_form(2, (0, 1)).coefficient_vector()
        mass = one_cell_geometry(UNIT_TRIANGLE).mass_matrices(2)[0]
        assert vol @ mass @ vol == pytest.approx(0.5, abs=1e-15)
        form = PolyForm.monomial(2, 2, (2, 1), (0, 1), 3.0)
        got = form.coefficient_vector() @ mass @ vol
        assert got == pytest.approx(3.0 * UNIT_TRIANGLE.monomial_integral((2, 1)), abs=1e-15)

    def test_inner_matrix_symmetric(self):
        rng = np.random.default_rng(11)
        cell = random_cell(2, rng)
        basis = [random_polyform(2, 1, 1, rng) for _ in range(3)]
        M = inner_matrix(basis, basis, cell)
        assert np.allclose(M, M.T, atol=1e-14)


class TestStarIsometryProperty:
    @given(
        st.integers(2, 3),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=6, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_star_preserves_inner_products(self, n, coeffs):
        cell = UNIT_TRIANGLE if n == 2 else CellGeometry(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        k = 1
        mids = multiindices(k, n)
        a = PolyForm(n, k)
        b = PolyForm(n, k)
        for i, m in enumerate(mids):
            a = a + coeffs[i % 6] * PolyForm.basis_form(n, m)
            b = b + coeffs[(i + 3) % 6] * PolyForm.basis_form(n, m)
        lhs = l2_inner(hodge_star(a), hodge_star(b), cell)
        rhs = l2_inner(a, b, cell)
        assert abs(lhs - rhs) <= 1e-13 * max(abs(rhs), 1.0)


class TestCoefficientArrays:
    """The coefficient-array layer against the PolyForm dict algebra."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_moments_match_monomial_integral(self, n):
        # the mass blocks hold every moment of degree <= 6 = 3 + 3, on random
        # cells and on every cell of a jittered mesh
        rng = np.random.default_rng(40 + n)
        low = monomial_exponents(n)
        cases = []
        for _ in range(4):
            cell = random_cell(n, rng)
            cases.append((one_cell_geometry(cell), [cell]))
        for _, mesh in JITTERED:
            if mesh.dim == n:
                cells = [mesh.cell_geometry(i) for i in range(mesh.num_cells)]
                cases.append((MeshGeometry(mesh), cells))
        for geometry, cells in cases:
            for mass, cell in zip(geometry.mass_matrices(0), cells):
                exact = np.array([[cell.monomial_integral(a + b) for b in low] for a in low])
                assert np.abs(mass - exact).max() <= 1e-13 * np.abs(exact).max()

    def test_mass_matrix_matches_l2_inner(self):
        rng = np.random.default_rng(43)
        for n in (2, 3):
            cell = random_cell(n, rng)
            geometry = one_cell_geometry(cell)
            for k in range(n + 1):
                a, b = (random_polyform(n, k, 3, rng) for _ in range(2))
                mass = geometry.mass_matrices(k)[0]
                got = a.coefficient_vector() @ mass @ b.coefficient_vector()
                exact = l2_inner(a, b, cell)
                scale = math.sqrt(l2_inner(a, a, cell) * l2_inner(b, b, cell))
                assert abs(got - exact) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [2, 3])
    def test_derivative_matrix_matches_exterior_derivative(self, n):
        rng = np.random.default_rng(44)
        for k in range(n + 1):
            D = derivative_matrix(n, k)
            basis = coefficient_basis(n, k)
            assert D.shape == (len(coefficient_basis(n, k + 1)), len(basis))
            for j, (expo, midx) in enumerate(basis):
                w = PolyForm.monomial(n, k, expo, midx)
                fresh = exterior_derivative(w) if k < n else PolyForm(n, k + 1)
                assert np.array_equal(D[:, j], fresh.coefficient_vector())
            w = random_polyform(n, k, 3, rng)
            fresh = exterior_derivative(w) if k < n else PolyForm(n, k + 1)
            assert np.allclose(D @ w.coefficient_vector(), fresh.coefficient_vector(), rtol=0, atol=1e-12)
            if k + 1 < n:
                assert not np.any(derivative_matrix(n, k + 1) @ D)

    def test_coefficient_vector_lists_every_term(self):
        rng = np.random.default_rng(45)
        w = random_polyform(3, 1, 3, rng)
        vec = w.coefficient_vector()
        basis = coefficient_basis(3, 1)
        assert len(basis) == 3 * 20
        assert {basis[i]: vec[i] for i in np.flatnonzero(vec)} == w.terms

import numpy as np
import pytest

from padfeec.forms import (
    CellGeometry,
    PolyForm,
    codifferential,
    exterior_derivative,
    integral_over_subsimplex,
    l2_inner,
)
from padfeec.linalg import Subspace, subspace_equal
from padfeec.local import (
    curl_components,
    div_of,
    edge_bubble,
    gallery_2d,
    grad_components,
    interior_quadratic,
    rot_of,
    star_local,
    vec_inner,
    trimmed_local,
    whitney_form,
)

from oracles import (
    contains,
    JITTERED,
    decompose_pair,
    fast_local_constants,
    local_constants,
    is_independent,
    ladder_locals,
)

rng = np.random.default_rng(42)


def random_triangle(generator=rng, spread=1.0):
    while True:
        V = generator.standard_normal((3, 2)) * spread
        cell = None
        try:
            cell = CellGeometry(V)
        except Exception:
            continue
        if cell.volume > 0.05:
            return cell


def random_tet(generator=rng):
    while True:
        V = generator.standard_normal((4, 3))
        try:
            cell = CellGeometry(V)
        except Exception:
            continue
        if cell.volume > 0.02:
            return cell


class TestWhitneyLocal:
    @pytest.mark.parametrize(
        "n,k,variant,dim",
        [
            (2, 0, "primal", 3),
            (2, 1, "primal", 3),
            (2, 2, "primal", 1),
            (3, 0, "primal", 4),
            (3, 1, "primal", 6),
            (3, 2, "primal", 4),
            (2, 1, "dual", 3),
            (2, 2, "dual", 3),
            (3, 2, "dual", 6),
        ],
    )
    def test_dimensions(self, n, k, variant, dim):
        cell = random_triangle() if n == 2 else random_tet()
        space = trimmed_local(cell, k, variant)
        assert space.dim == dim
        assert is_independent(space)

    def test_summands_orthogonal(self):
        cell = random_triangle()
        space = trimmed_local(cell, 1, "primal")
        const = space.basis[:2]
        koszul_part = space.basis[2:]
        for a in const:
            for b in koszul_part:
                assert abs(l2_inner(a, b, cell)) < 1e-14

    def test_dual_summands_orthogonal(self):
        cell = random_triangle()
        space = trimmed_local(cell, 2, "dual")
        const = space.basis[:1]
        conj = space.basis[1:]
        for a in const:
            for b in conj:
                assert abs(l2_inner(a, b, cell)) < 1e-14

    def test_primal_k1_matches_rotated_rt(self):
        # the trimmed 1-forms and the circulation forms of a + b x_perp agree
        cell = random_triangle()
        trimmed = trimmed_local(cell, 1, "primal")
        rtp = gallery_2d(cell, "RTperp")
        A = np.column_stack([trimmed.expand(w) for w in rtp.basis])
        assert np.linalg.matrix_rank(A) == 3


class TestRangeKernel:
    """Range and kernel of d or delta on a local space, from the rank of its
    images as coefficient columns."""

    @staticmethod
    def images(space):
        return np.column_stack(
            [space.op_image(i).coefficient_vector() for i in range(space.dim)]
        )

    def test_gradient_of_scalars(self):
        cell = random_triangle()
        space = trimmed_local(cell, 0, "primal")
        T = self.images(space)
        assert np.linalg.matrix_rank(T) == 2  # the kernel is the constants
        consts = np.column_stack(
            [PolyForm.basis_form(2, m).coefficient_vector() for m in ((0,), (1,))]
        )
        assert np.linalg.matrix_rank(np.hstack([T, consts])) == 2

    def test_delta_on_dual_volume_forms(self):
        cell = random_triangle()
        space = trimmed_local(cell, 2, "dual")
        assert space.dim == 3
        assert np.linalg.matrix_rank(self.images(space)) == 2

    def test_rt_divergence(self):
        cell = random_triangle()
        rt = gallery_2d(cell, "RT")
        T = self.images(rt)
        assert np.linalg.matrix_rank(T) == 1  # constants
        assert rt.dim - np.linalg.matrix_rank(T) == 2  # constant vector fields


class TestDecomposition:
    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_whitney_pair_has_trivial_null_part(self, n, k):
        cell = random_triangle() if n == 2 else random_tet()
        primal = trimmed_local(cell, k, "primal")
        dual = trimmed_local(cell, k + 1, "dual")
        dec = decompose_pair(primal, dual)
        assert dec.P0.dim == 0
        assert dec.PB.dim == primal.dim
        assert dec.dual_P0.dim == 0
        assert dec.dual_PB.dim == dual.dim

    def test_dimension_additivity_ebdm(self):
        cell = random_triangle()
        primal = gallery_2d(cell, "P1plus")
        dual = star_local(gallery_2d(cell, "P2plus"))
        # drop the bubble from the dual side: the enhanced-flux pair tests
        # against full quadratics
        dual.basis = dual.basis[:6]
        dual.__post_init__()
        dec = decompose_pair(primal, dual)
        assert dec.P0.dim + dec.PB.dim == primal.dim
        assert dec.dual_P0.dim + dec.dual_PB.dim == dual.dim

    def test_interior_quadratic_is_pairing_null_vs_linear_fluxes(self):
        # (grad psi0, tau) + (psi0, div tau) = 0 for every linear vector field
        cell = random_triangle()
        psi0 = interior_quadratic(cell)
        g = grad_components(psi0)
        lam = [cell.barycentric(i) for i in range(3)]
        for comp in range(2):
            for l in lam:
                zero = PolyForm(2, 0)
                tau = (l, zero) if comp == 0 else (zero, l)
                val = vec_inner(g, tau, cell) + l2_inner(psi0, div_of(*tau), cell)
                assert abs(val) < 1e-13

    def test_star_quadratics_null_part_contains_star_psi0(self):
        # dual-side pairing-null members of (linear fluxes, star quadratics)
        from padfeec.forms import hodge_star

        cell = random_triangle()
        primal = gallery_2d(cell, "P1plus")
        primal.basis = primal.basis[:6]  # plain linear fluxes
        primal.__post_init__()
        dual = star_local(gallery_2d(cell, "P2plus"))
        dual.basis = dual.basis[:6]
        dual.__post_init__()
        dec = decompose_pair(primal, dual)
        coeffs = dual.expand(hodge_star(interior_quadratic(cell)))
        assert dec.dual_P0.dim >= 1
        assert contains(dec.dual_P0, coeffs.reshape(-1, 1), tol=1e-8)


class TestLocalConstants:
    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_whitney_alpha_beta_one(self, n, k):
        cell = random_triangle() if n == 2 else random_tet()
        primal, dual = trimmed_local(cell, k, "primal"), trimmed_local(cell, k + 1, "dual")
        dec = decompose_pair(primal, dual)
        alpha, beta, gamma = local_constants(dec, primal, dual)
        assert alpha == pytest.approx(1.0, abs=1e-10)
        assert beta == pytest.approx(1.0, abs=1e-10)
        assert gamma > 0

    def test_ebdm_constants_positive(self):
        cell = random_triangle()
        primal = gallery_2d(cell, "P1plus")
        dual = star_local(gallery_2d(cell, "P2plus"))
        dual.basis = dual.basis[:6]
        dual.__post_init__()
        dec = decompose_pair(primal, dual)
        alpha, beta, gamma = local_constants(dec, primal, dual)
        assert alpha > 0 and beta > 0 and gamma > 0

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 1)])
    def test_local_exactness_of_twisted_parts(self, n, k):
        # range of d on the primal twisted part equals the kernel of delta on
        # the dual twisted part, and vice versa
        cell = random_triangle() if n == 2 else random_tet()
        primal = trimmed_local(cell, k, "primal")
        dual = trimmed_local(cell, k + 1, "dual")
        dec = decompose_pair(primal, dual)
        d_imgs = [
            dual.expand(exterior_derivative(primal.form_from_coeffs(dec.PB.basis[:, j])))
            for j in range(dec.PB.dim)
        ]
        Rd = Subspace.from_span(np.column_stack(d_imgs), dual.gram())
        ker_delta = dec.dual_ring_PB
        ok, ang = subspace_equal(Rd, ker_delta, dual.gram(), tol=1e-10)
        assert ok, ang
        delta_imgs = [
            primal.expand(codifferential(dual.form_from_coeffs(dec.dual_PB.basis[:, j])))
            for j in range(dec.dual_PB.dim)
        ]
        Rdel = Subspace.from_span(np.column_stack(delta_imgs), primal.gram())
        ok, ang = subspace_equal(Rdel, dec.ring_PB, primal.gram(), tol=1e-10)
        assert ok, ang


class TestGallery:
    def test_rt_duality_twenty_random_triangles(self):
        gen = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            cell = random_triangle(gen)
            lam = [cell.barycentric(i) for i in range(3)]
            rt = gallery_2d(cell, "RT")
            for i in range(3):
                w = rt.basis[i]
                u = w.coefficient((1,))
                v = -1.0 * w.coefficient((0,))
                for j in range(3):
                    g = grad_components(lam[j])
                    val = vec_inner((u, v), g, cell) + l2_inner(
                        div_of(u, v), lam[j], cell
                    )
                    worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
        assert worst < 1e-12

    def test_cr_companion_duality_twenty_random_triangles(self):
        gen = np.random.default_rng(8)
        worst = 0.0
        for _ in range(20):
            cell = random_triangle(gen)
            lam = [cell.barycentric(i) for i in range(3)]
            rtp = gallery_2d(cell, "RTperp")
            b = []
            for k in range(3):
                opp = [m for m in range(3) if m != k]
                L = np.linalg.norm(cell.vertices[opp[1]] - cell.vertices[opp[0]])
                b.append((lam[opp[0]] + lam[opp[1]] - lam[k]) * (1.0 / L))
            for i in range(3):
                w = rtp.basis[i]
                u, v = w.coefficient((0,)), w.coefficient((1,))
                for j in range(3):
                    c = curl_components(b[j])
                    val = vec_inner((u, v), c, cell) - l2_inner(
                        rot_of(u, v), b[j], cell
                    )
                    worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
        assert worst < 1e-12

    def test_rt_normal_traces(self):
        cell = random_triangle()
        rt = gallery_2d(cell, "RT")
        V = cell.vertices
        for i in range(3):
            w = rt.basis[i]
            u = w.coefficient((1,))
            v = -1.0 * w.coefficient((0,))
            for j in range(3):
                opp = [m for m in range(3) if m != j]
                p0, p1 = V[opp[0]], V[opp[1]]
                e = p1 - p0
                L = np.linalg.norm(e)
                nrm = np.array([e[1], -e[0]]) / L
                if nrm @ ((p0 + p1) / 2 - V[j]) < 0:
                    nrm = -nrm
                x = p0 + 0.37 * e
                val = u.coefficients_at(x)[0] * nrm[0] + v.coefficients_at(x)[0] * nrm[1]
                assert val == pytest.approx((1 - 2 * (i == j)) / L, abs=1e-12)

    def test_curl_bubble_normal_trace(self):
        # the flux of the curl of the cubic bubble on edge e_k is the zero-mean
        # quadratic (1 - 6 lambda_i lambda_j)/|e_k| up to the cell orientation
        gen = np.random.default_rng(9)
        for _ in range(5):
            cell = random_triangle(gen)
            lam = [cell.barycentric(i) for i in range(3)]
            cu, cv = curl_components(edge_bubble(cell))
            V = cell.vertices
            for k in range(3):
                opp = [m for m in range(3) if m != k]
                p0, p1 = V[opp[0]], V[opp[1]]
                e = p1 - p0
                L = np.linalg.norm(e)
                nrm = np.array([e[1], -e[0]]) / L
                if nrm @ ((p0 + p1) / 2 - V[k]) < 0:
                    nrm = -nrm
                for t in (0.15, 0.5, 0.85):
                    x = p0 + t * e
                    val = (
                        cu.coefficients_at(x)[0] * nrm[0]
                        + cv.coefficients_at(x)[0] * nrm[1]
                    )
                    ll = (
                        lam[opp[0]].coefficients_at(x)[0]
                        * lam[opp[1]].coefficients_at(x)[0]
                    )
                    expected = cell.orientation * (1.0 - 6.0 * ll) / L
                    assert val == pytest.approx(expected, abs=1e-11)

    def test_p2plus_dimension_and_independence(self):
        cell = random_triangle()
        space = gallery_2d(cell, "P2plus")
        assert space.dim == 7
        assert is_independent(space)

    def test_p1plus_is_linear_fluxes_plus_curl_bubble(self):
        cell = random_triangle()
        space = gallery_2d(cell, "P1plus")
        assert space.dim == 7
        assert is_independent(space)
        # the enrichment is exactly d of the bubble
        d_bubble = exterior_derivative(edge_bubble(cell))
        assert (space.named["curl_bubble"] - d_bubble).is_zero(tol=1e-14)


class TestWhitneyForms:
    def test_edge_form_unit_integral(self):
        cell = random_triangle()
        w = whitney_form(cell, (0, 1))
        val = integral_over_subsimplex(w, cell.vertices[[0, 1]])
        assert val == pytest.approx(1.0, abs=1e-13)
        assert integral_over_subsimplex(w, cell.vertices[[0, 2]]) == pytest.approx(
            0.0, abs=1e-13
        )

    def test_edge_form_constant_density(self):
        # the trace on its own edge is the constant 1/|e| times arclength
        cell = random_triangle()
        from padfeec.forms import trace_on

        w = whitney_form(cell, (1, 2))
        tr = trace_on(w, cell.vertices[[1, 2]])
        vals = {e: c for (e, m), c in tr.terms.items()}
        const = vals.get((0,), 0.0)
        assert const == pytest.approx(1.0, abs=1e-12)  # unit integral density
        assert abs(vals.get((1,), 0.0)) < 1e-12  # constant along the edge

    def test_face_form_unit_integral_3d(self):
        cell = random_tet()
        w = whitney_form(cell, (0, 2, 3))
        val = integral_over_subsimplex(w, cell.vertices[[0, 2, 3]])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_lives_in_trimmed_space(self):
        cell = random_tet()
        trimmed = trimmed_local(cell, 1, "primal")
        for edge in ((0, 1), (1, 3), (2, 3)):
            trimmed.expand(whitney_form(cell, edge))  # raises if outside


class TestMixedLocal:
    def test_dimension(self):
        cell = random_triangle()
        assert trimmed_local(cell, 1, "full").dim == 2 + 1 + 1
        cell3 = random_tet()
        assert trimmed_local(cell3, 1, "full").dim == 3 + 3 + 1
        assert trimmed_local(cell3, 2, "full").dim == 3 + 1 + 3

    def test_d_and_delta_land_in_constants(self):
        cell = random_triangle()
        space = trimmed_local(cell, 1, "full")
        for w in space.basis:
            dw = exterior_derivative(w)
            assert dw.poly_degree() == 0
            deltaw = codifferential(w)
            assert deltaw.poly_degree() == 0


class TestFastLocalConstants:
    @pytest.mark.parametrize(
        "dim,n,domain",
        [(2, 2, "box"), (2, 4, "hole"), (3, 1, "box"), (3, 4, "tunnel")]
        + [pytest.param(None, None, name, id=name) for name, _ in JITTERED],
    )
    def test_matches_full_decomposition(self, dim, n, domain):
        from padfeec.mesh import generate_structured
        from padfeec.spaces import ladder

        mesh = dict(JITTERED)[domain] if dim is None else generate_structured(dim, n, domain)
        lad = ladder(mesh)
        worst = 0.0
        for k in range(mesh.dim):
            primal, dual = ladder_locals(lad.primal(k)), ladder_locals(lad.dual(k + 1))
            for ci in range(mesh.num_cells):
                p, q = primal[ci], dual[ci]
                fast = fast_local_constants(p, q)
                full = local_constants(decompose_pair(p, q), p, q)
                worst = max(worst, float(np.abs(np.subtract(fast, full)).max()))
        assert worst <= 1e-12

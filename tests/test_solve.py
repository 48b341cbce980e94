import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from oracles import constraint_atlas_hodge, constraint_atlas_source
from padfeec.errors import InvalidParameter
from padfeec.forms import PolyForm
from padfeec.linalg import rank
from padfeec.mesh import generate_structured
from padfeec.solve import (
    p0_moments,
    primal_energy_error,
    random_polynomial_load,
    solve_eigen_pair,
    solve_hodge,
    solve_source_dual,
    solve_source_primal,
    verify_hodge_equivalences,
    verify_source_equivalence,
)
from padfeec.spaces import ladder

BOX2 = generate_structured(2, 2)
BOX3 = generate_structured(2, 3)
HOLE4 = generate_structured(2, 4, "hole")
HOLE8 = generate_structured(2, 8, "hole")


class TestSourceSchemes:
    @pytest.mark.parametrize("mesh", [BOX2, BOX3, HOLE4])
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("bc", ["none", "homogeneous"])
    def test_equivalence_matrix(self, mesh, k, bc):
        load = random_polynomial_load(mesh, k, seed=11)
        sp = solve_source_primal(mesh, k, load, bc)
        sd = solve_source_dual(mesh, k, load, bc)
        rep = verify_source_equivalence(mesh, sp, sd)
        assert rep.passed, rep.residuals

    def test_zero_load_gives_zero(self):
        F = np.zeros(ladder(BOX2).p0(0).dim)
        sp = solve_source_primal(BOX2, 0, F)
        sd = solve_source_dual(BOX2, 0, F)
        assert np.abs(sp.components["omega"]).max() == 0.0
        assert np.abs(sd.components["zeta"]).max() == 0.0
        rep = verify_source_equivalence(BOX2, sp, sd)
        assert rep.passed
        assert all(v == 0.0 for v in rep.residuals.values())

    def test_constant_load_reproduced(self):
        c = 2.5
        load = [c * PolyForm.one(2) for _ in range(BOX2.num_cells)]
        sp = solve_source_primal(BOX2, 0, load)
        lad = ladder(BOX2)
        om = sp.components["omega_broken"]
        proj = lad.p0_projection(0) @ om
        assert np.abs(proj - c).max() < 1e-12
        assert np.abs(lad.d_matrix(0) @ om).max() < 1e-12

    def test_constant_load_dual_flux_vanishes(self):
        load = [1.5 * PolyForm.one(2) for _ in range(BOX2.num_cells)]
        sd = solve_source_dual(BOX2, 0, load)
        assert np.abs(sd.components["zeta"]).max() < 1e-12
        assert np.abs(sd.components["omega_bar"] - 1.5).max() < 1e-12

    def test_assembled_system_symmetric(self):
        lad = ladder(BOX2)
        gs, _ = lad.abc(0, "none")
        A = gs.atlas
        DA = lad.d_matrix(0) @ A
        P = lad.p0_projection(0) @ A
        K = DA.T @ lad.p0(1).gram @ DA + P.T @ lad.p0(0).gram @ P
        assert np.abs(K - K.T).max() < 1e-13 * np.abs(K).max()

    def test_galerkin_energy_identity(self):
        load = random_polynomial_load(BOX3, 0, seed=5)
        sp = solve_source_primal(BOX3, 0, load)
        lad = ladder(BOX3)
        om = sp.components["omega_broken"]
        d = lad.d_matrix(0) @ om
        P = lad.p0_projection(0) @ om
        lhs = d @ lad.p0(1).gram @ d + P @ lad.p0(0).gram @ P
        rhs = P @ sp.meta["moments"]
        assert abs(lhs - rhs) < 1e-11 * max(abs(rhs), 1.0)

    def test_manufactured_solution_rate(self):
        # smooth compatible field: first-order energy convergence under one
        # refinement (the classical nonconforming behaviour)
        freq = math.pi

        def u(p):
            return [math.cos(freq * p[0]) * math.cos(freq * p[1])]

        def du(p):
            return [
                -freq * math.sin(freq * p[0]) * math.cos(freq * p[1]),
                -freq * math.cos(freq * p[0]) * math.sin(freq * p[1]),
            ]

        def f(p):
            return [(1.0 + 2.0 * freq**2) * u(p)[0]]

        errors = []
        for N in (4, 8):
            mesh = generate_structured(2, N)
            sol = solve_source_primal(mesh, 0, f)
            errors.append(primal_energy_error(mesh, sol, u, du))
        assert errors[1] / errors[0] < 0.6


class TestEigenSchemes:
    @pytest.mark.parametrize("mesh,k", [(BOX2, 0), (BOX2, 1), (BOX3, 0), (HOLE4, 0)])
    def test_nonzero_spectra_match(self, mesh, k):
        pv, dv, rep, meta = solve_eigen_pair(mesh, k)
        assert rep.passed, rep.residuals
        assert rep.residuals["count_primal"] == rep.residuals["count_dual"]

    def test_zero_multiplicity_rank_oracle(self):
        # finite zero modes = kernel of the stiffness with projected mass,
        # counted through ranks of the assembled blocks
        mesh = BOX2
        lad = ladder(mesh)
        gs, _ = lad.abc(0, "none")
        A = gs.atlas
        DA = lad.d_matrix(0) @ A
        P = lad.p0_projection(0) @ A
        kernel_dim = A.shape[1] - rank(DA)
        mass_free = A.shape[1] - rank(np.vstack([DA, P]))
        expected_zeros = kernel_dim - mass_free
        _, _, _, meta = solve_eigen_pair(mesh, 0)
        assert meta["primal_zero_multiplicity"] == expected_zeros

    def test_neumann_sanity_band(self):
        mesh = generate_structured(2, 8)
        pv, _, rep, _ = solve_eigen_pair(mesh, 0)
        assert rep.passed
        target = math.pi**2
        assert abs(pv[0] - target) <= 0.1 * target


class TestHodgeSchemes:
    @pytest.mark.parametrize("mesh", [BOX2, HOLE4, HOLE8])
    def test_all_equivalences(self, mesh):
        load = random_polynomial_load(mesh, 1, seed=17)
        sols = {
            s: solve_hodge(mesh, 1, load, s)
            for s in ("complete", "mixed_primal", "mixed_dual", "lowest_primal")
        }
        for s in sols.values():
            assert s.residual < 1e-10
        rep = verify_hodge_equivalences(mesh, 1, sols)
        assert rep.passed, {n: v for n, v in rep.residuals.items() if v >= 1e-9}

    def test_zero_load(self):
        F = np.zeros(ladder(BOX2).p0(1).dim)
        for s in ("complete", "mixed_primal", "mixed_dual", "lowest_primal"):
            sol = solve_hodge(BOX2, 1, F, s)
            for name, vec in sol.components.items():
                assert np.abs(vec).max(initial=0.0) == 0.0, (s, name)

    def test_contractible_mesh_has_empty_multiplier(self):
        sol = solve_hodge(BOX2, 1, np.zeros(ladder(BOX2).p0(1).dim), "complete")
        assert sol.components["theta"].size == 0

    def test_harmonic_load_recovered_in_theta(self):
        # load inside the harmonic space: the state is harmonic-orthogonal and
        # the multiplier returns the harmonic part
        mesh = HOLE8
        lad = ladder(mesh)
        from padfeec.adjoint import harmonic_space

        H = harmonic_space(mesh, 1, "abc").basis
        g0 = lad.p0(1).gram
        F = g0 @ H[:, 0]
        sol = solve_hodge(mesh, 1, F, "complete")
        theta = sol.components["theta_p0"]
        err = np.sqrt((theta - H[:, 0]) @ g0 @ (theta - H[:, 0]))
        assert err < 1e-10
        omega = sol.components["omega"]
        assert abs(H[:, 0] @ g0 @ omega) < 1e-10

    def test_state_orthogonal_to_multiplier_space(self):
        mesh = HOLE4
        lad = ladder(mesh)
        from padfeec.adjoint import harmonic_space

        load = random_polynomial_load(mesh, 1, seed=23)
        sol = solve_hodge(mesh, 1, load, "complete")
        H = harmonic_space(mesh, 1, "abc").basis
        g0 = lad.p0(1).gram
        resid = np.abs(H.T @ g0 @ sol.components["omega"]).max(initial=0.0)
        assert resid < 1e-10 * max(np.linalg.norm(sol.meta["moments"]), 1.0)

    def test_invalid_degree_rejected(self):
        with pytest.raises(InvalidParameter):
            solve_hodge(BOX2, 0, np.zeros(8), "complete")

    def test_residual_tracks_solver_not_mesh(self):
        # equivalence residuals stay near machine precision across levels
        worst = []
        for N in (2, 4, 8):
            mesh = generate_structured(2, N)
            load = random_polynomial_load(mesh, 1, seed=29)
            sols = {
                s: solve_hodge(mesh, 1, load, s)
                for s in ("complete", "mixed_primal", "mixed_dual", "lowest_primal")
            }
            rep = verify_hodge_equivalences(mesh, 1, sols)
            worst.append(max(rep.residuals.values()))
        assert worst[2] < 10 * max(worst[0], 1e-13) or worst[2] < 1e-12


class TestMoments:
    def test_callable_matches_polynomial(self):
        form = PolyForm.monomial(2, 0, (1, 1), (), 3.0)
        exact = p0_moments(BOX2, 0, [form] * BOX2.num_cells)
        approx = p0_moments(BOX2, 0, lambda p: [3.0 * p[0] * p[1]])
        assert np.abs(exact - approx).max() < 1e-14

    def test_polynomial_moments_match_l2_inner(self):
        # the first moments of each cell against the exact dict algebra, with
        # a different cubic form on every cell and cells of differing shapes
        from padfeec.forms import l2_inner, multiindices, random_polyform
        from padfeec.mesh import Mesh

        rng = np.random.default_rng(5)
        V = np.array(HOLE4.vertices)
        inner = np.all((V > 0) & (V < 1), axis=1)
        V[inner] += rng.uniform(-0.03, 0.03, size=(int(inner.sum()), 2))
        mesh = Mesh(2, V, HOLE4.cells)
        for k in range(3):
            load = [random_polyform(2, k, 3, rng) for _ in range(mesh.num_cells)]
            units = [PolyForm.basis_form(2, m) for m in multiindices(k, 2)]
            expected = np.array([
                [l2_inner(form, u, mesh.cell_geometry(ci)) for u in units]
                for ci, form in enumerate(load)
            ]).ravel()
            got = p0_moments(mesh, k, load)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_load_of_the_wrong_degree_is_refused(self):
        from padfeec.errors import DegreeMismatch

        form = PolyForm.basis_form(2, (0,))
        with pytest.raises(DegreeMismatch):
            p0_moments(BOX2, 0, [form] * BOX2.num_cells)


class TestSymmetryCheck:
    def test_asymmetric_diagonal_block_raises(self):
        from padfeec.errors import AssemblyError
        from padfeec.solve import _block_system

        rng = np.random.default_rng(0)
        S = rng.standard_normal((300, 300))
        S = S + S.T
        C = rng.standard_normal((300, 4))
        K, _, _ = _block_system((300, 4), {(0, 0): S, (0, 1): C}, {}, "test")
        assert np.array_equal(K, K.T)
        # one entry below the diagonal breaks the symmetry
        S[290, 280] += 1e-6
        with pytest.raises(AssemblyError, match="test system lost symmetry"):
            _block_system((300, 4), {(0, 0): S, (0, 1): C}, {}, "test")

    def test_asymmetry_is_scaled_by_the_whole_system(self):
        from padfeec.solve import _block_system

        # 1e-12 off in a block of unit entries, but the system's largest entry is 1e4
        S = np.ones((3, 3))
        S[0, 1] += 1e-12
        _block_system((3, 2), {(0, 0): S, (0, 1): np.full((3, 2), 1e4)}, {}, "test")

    def test_unassembled_system_is_checked_whole(self):
        from padfeec.errors import AssemblyError
        from padfeec.solve import _check_symmetric

        K = np.eye(200)
        K[0, 199] = 1e-3
        with pytest.raises(AssemblyError, match="source-primal system lost symmetry"):
            _check_symmetric(K, "source-primal")


    def test_sparse_asymmetric_diagonal_block_raises(self):
        from padfeec.errors import AssemblyError
        from padfeec.solve import _block_system

        rng = np.random.default_rng(0)
        S = scipy.sparse.random_array((300, 300), density=0.01, rng=rng)
        S = (S + S.T).tolil()
        C = scipy.sparse.random_array((300, 4), density=0.05, rng=rng)
        K, _, _ = _block_system((300, 4), {(0, 0): S.tocsr(), (0, 1): C}, {}, "test")
        assert scipy.sparse.issparse(K) and abs(K - K.T).max() == 0.0
        assert np.array_equal(K.toarray()[:300, :300], S.toarray())
        # one entry below the diagonal breaks the symmetry
        S[290, 280] += 1e-6
        with pytest.raises(AssemblyError, match="test system lost symmetry"):
            _block_system((300, 4), {(0, 0): S.tocsr(), (0, 1): C}, {}, "test")

    def test_sparse_asymmetry_is_scaled_by_the_whole_system(self):
        from padfeec.errors import AssemblyError
        from padfeec.solve import _block_system

        # 1e-12 off in a block of unit entries: within 1e-13 of the system's
        # largest entry 1e4, not of the block's own 1
        S = scipy.sparse.eye_array(100, format="lil")
        S[0, 1], S[1, 0] = 1.0 + 1e-12, 1.0
        for big, fails in ((1e4, False), (1.0, True)):
            C = scipy.sparse.coo_array(([big], ([0], [0])), shape=(100, 2))
            if fails:
                with pytest.raises(AssemblyError):
                    _block_system((100, 2), {(0, 0): S.tocsr(), (0, 1): C}, {}, "test")
            else:
                K, _, _ = _block_system((100, 2), {(0, 0): S.tocsr(), (0, 1): C}, {}, "test")
                assert scipy.sparse.issparse(K)

    def test_sparse_unassembled_system_is_checked_whole(self):
        from padfeec.errors import AssemblyError
        from padfeec.solve import _check_symmetric

        K = scipy.sparse.eye_array(200, format="lil")
        K[0, 199] = 1e-3
        with pytest.raises(AssemblyError, match="source-primal system lost symmetry"):
            _check_symmetric(K.tocsr(), "source-primal")


MESH_SPECS = {"box": (2, "box"), "hole": (2, "hole"), "tetbox": (3, "box"), "tunnel": (3, "tunnel")}


def _mesh(spec):
    name, n = spec.split(":")
    dim, domain = MESH_SPECS[name]
    return generate_structured(dim, int(n), domain)


def _close(new, old):
    return np.linalg.norm(new - old) <= 1e-9 * max(np.linalg.norm(new), np.linalg.norm(old))


class TestConstraintAtlasOracle:
    """The sparse compact-basis solves against the dense constraint-atlas solves."""

    @pytest.mark.parametrize("spec", ["box:2", "box:4", "hole:4", "tetbox:1", "tunnel:4"])
    def test_hodge_schemes(self, spec):
        mesh = _mesh(spec)
        for k in range(1, mesh.dim):
            F = p0_moments(mesh, k, random_polynomial_load(mesh, k, seed=31))
            for scheme in ("complete", "mixed_primal", "mixed_dual", "lowest_primal"):
                new = solve_hodge(mesh, k, F, scheme).components
                for name, vec in constraint_atlas_hodge(mesh, k, F, scheme).items():
                    assert _close(new[name], vec), (spec, k, scheme, name)

    @pytest.mark.parametrize("spec", ["box:2", "box:4", "hole:4", "tetbox:1", "tunnel:4"])
    def test_source_schemes(self, spec):
        mesh = _mesh(spec)
        lad = ladder(mesh)
        for k in range(mesh.dim):
            F = p0_moments(mesh, k, random_polynomial_load(mesh, k, seed=37))
            for bc, partner_bc in (("none", "homogeneous"), ("homogeneous", "none")):
                old = constraint_atlas_source(mesh, k, F, bc)
                primal = solve_source_primal(mesh, k, F, bc).components
                dual = solve_source_dual(mesh, k, F, bc).components
                zeta = lad.star_basis(k + 1, partner_bc) @ dual["zeta"]
                assert _close(primal["omega_broken"], old["omega_broken"]), (spec, k, bc)
                assert _close(zeta, old["zeta_broken"]), (spec, k, bc)
                assert _close(dual["omega_bar"], old["omega_bar"]), (spec, k, bc)


class TestSparseRoute:
    def test_hodge_builds_no_constraint_atlas(self):
        mesh = generate_structured(2, 4, "hole")
        load = random_polynomial_load(mesh, 1, seed=17)
        sols = {
            s: solve_hodge(mesh, 1, load, s)
            for s in ("complete", "mixed_primal", "mixed_dual", "lowest_primal")
        }
        assert verify_hodge_equivalences(mesh, 1, sols).passed
        built = [key for key in ladder(mesh)._cache if isinstance(key, tuple) and key[0] == "abc"]
        assert built == []
        # nor a one-field space: that scheme is solved bordered by its constraints
        assert not [key for key in ladder(mesh)._cache if key[0] == "mixed-space"]

    @pytest.mark.parametrize("spec", ["hole:4", "tetbox:1"])
    def test_base_pair_splits_and_eigen_build_no_constraint_atlas(self, spec):
        from padfeec.cli import cmd_solve_eigen, cmd_verify_base_pair, cmd_verify_decomposition
        from padfeec.report import Report, RunConfig

        mesh = _mesh(spec)
        for name, command in (("verify base-pair", cmd_verify_base_pair),
                              ("verify decomposition", cmd_verify_decomposition),
                              ("solve eigen", cmd_solve_eigen)):
            for k in range(mesh.dim):
                for bc in ("none", "homogeneous"):
                    config = RunConfig(command=name, mesh=spec, k=k, bc=bc).validate()
                    report = Report(config)
                    command(mesh, config, report)
                    assert report.all_passed, (name, k, bc)
        assert [key for key in ladder(mesh)._cache if key[0] == "abc"] == []

    def test_sparse_systems_do_not_reach_dense_lu(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("dense LU called")

        monkeypatch.setattr(scipy.linalg, "lu_factor", fail)
        mesh = generate_structured(2, 8)
        load = random_polynomial_load(mesh, 1, seed=17)
        for scheme in ("complete", "mixed_primal", "mixed_dual", "lowest_primal"):
            assert solve_hodge(mesh, 1, load, scheme).residual < 1e-10
        assert solve_source_primal(mesh, 0, random_polynomial_load(mesh, 0)).residual < 1e-10
        assert solve_source_dual(mesh, 0, random_polynomial_load(mesh, 0)).residual < 1e-10

    @pytest.mark.parametrize("spec,sparse", [("hole:4", False), ("hole:8", True)])
    def test_unit_scaled_bases(self, spec, sparse):
        # hole:4 has 24 cells, under SPARSE_CELLS, and hole:8 has 96
        lad = ladder(_mesh(spec))
        for B, G in ((lad.abc_basis(1), lad.primal(1).gram()),
                     (lad.star_basis(1, "homogeneous"), lad.dual(1).gram())):
            assert (B.format == "csc") if sparse else isinstance(B, np.ndarray)
            assert np.abs((B * (G @ B)).sum(axis=0) - 1.0).max() < 1e-13

    def test_sparse_and_dense_bases_agree(self, monkeypatch):
        import padfeec.spaces

        mesh = generate_structured(2, 4, "hole")
        load, load_0 = (random_polynomial_load(mesh, k, seed=5) for k in (1, 0))
        schemes = ("complete", "mixed_primal", "mixed_dual", "lowest_primal")
        dense = {s: solve_hodge(mesh, 1, load, s) for s in schemes}
        source = (solve_source_primal(mesh, 0, load_0), solve_source_dual(mesh, 0, load_0))
        monkeypatch.setattr(padfeec.spaces, "SPARSE_CELLS", 0)
        mesh = generate_structured(2, 4, "hole")
        assert scipy.sparse.issparse(ladder(mesh).abc_basis(0))
        sparse = {s: solve_hodge(mesh, 1, load, s) for s in dense}
        pairs = [(dense[s], sparse[s]) for s in dense] + list(
            zip(source, (solve_source_primal(mesh, 0, load_0), solve_source_dual(mesh, 0, load_0)))
        )
        for old, new in pairs:
            for name, vec in old.components.items():
                if name == "multiplier":  # the one-field scheme's: zero but for round-off
                    assert np.abs(new.components[name]).max(initial=0.0) <= 1e-12
                else:
                    assert _close(new.components[name], vec), (old.scheme, name)
            assert abs(new.condition - old.condition) <= 1e-5 * old.condition, old.scheme


class TestConstraintRouteEigenOracle:
    """The pencils on the compact bases give the nonzero spectra and zero
    multiplicities of the pencils on the constraint-route atlases."""

    @pytest.mark.parametrize("spec", ["box:4", "hole:8", "tetbox:2", "tunnel:4"])
    def test_nonzero_spectra(self, spec):
        from oracles import constraint_route_eigen

        mesh = _mesh(spec)
        for k in range(mesh.dim):
            for bc in ("none", "homogeneous"):
                primal, dual, _, meta = solve_eigen_pair(mesh, k, bc)
                (old_primal, old_zero), (old_dual, old_dual_zero) = constraint_route_eigen(mesh, k, bc)
                assert meta == {"primal_zero_multiplicity": old_zero,
                                "dual_zero_multiplicity": old_dual_zero}, (k, bc)
                for new, old in ((primal, old_primal), (dual, old_dual)):
                    assert new.size == old.size, (k, bc)
                    assert np.all(np.abs(new - old) <= 1e-9 * np.abs(old)), (k, bc)

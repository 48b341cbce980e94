import functools

import numpy as np
import pytest
import scipy.sparse

from padfeec.adjoint import (
    base_pair_report,
    harmonic_space,
    helmholtz_check,
    hodge_check,
    horizontal_duality_check,
    partial_adjoint_of,
    pl_duality_check,
    quantified_crt_check,
    whitney_pair,
)
from padfeec.forms import CellGeometry, PolyForm
from padfeec.linalg import Subspace, icr_of, infsup, nullspace, subspace_equal
from padfeec.linalg import Gram, block_diagonal
from padfeec.local import (
    LocalSpace,
    block_d_expand,
    gallery_2d,
    local_constants,
    pairing_matrix,
    star_local,
    trimmed_local,
)
from padfeec.mesh import Mesh, generate_structured
from padfeec.spaces import ladder

import oracles
from oracles import (
    JITTERED,
    _complex_kernel,
    _domain_kernel_p0,
    betti_numbers,
    broken_kernel_p0,
    cell_icr,
    contains,
    decompose_pair,
    fast_local_constants,
    full_range_hypotheses,
    full_subspace,
    gram_complement,
    harmonic_by_complement,
    helmholtz_by_domain_kernels,
    ladder_locals,
    max_diameter,
    slices_by_complement,
    zero_subspace,
)

BOX2 = generate_structured(2, 2)
BOX4 = generate_structured(2, 4)
HOLE = generate_structured(2, 4, "hole")
BOX3D = generate_structured(3, 1)


class TestBuildPairing:
    @pytest.mark.parametrize("k", [0, 1])
    def test_conforming_conforming_gives_zero(self, k):
        lad = ladder(BOX2)
        primal = lad.whitney(k, "none")
        dual = lad.whitney_star(k + 1, "homogeneous")
        B = primal.atlas.T @ lad.pairing(k) @ dual.atlas
        assert np.abs(B).max() < 1e-12

    def test_empty_dual_space(self):
        lad = ladder(BOX2)
        primal = lad.whitney(0, "none")
        empty = np.zeros((lad.dual(1).dim, 0))
        B = primal.atlas.T @ lad.pairing(0) @ empty
        assert B.shape == (9, 0)


class TestBasePair:
    @pytest.mark.parametrize("mesh,k", [(BOX2, 0), (BOX2, 1), (HOLE, 0), (BOX3D, 0), (BOX3D, 1), (BOX3D, 2)])
    def test_whitney_constants(self, mesh, k):
        rep = base_pair_report(mesh, k)
        assert rep.uM_dim == 0 and rep.uN_dim == 0
        assert rep.alpha == pytest.approx(1.0, abs=1e-10)
        assert rep.beta == pytest.approx(1.0, abs=1e-10)
        assert rep.icr_under == 0.0
        assert 0 < rep.icr_tilde <= 1.5 * max_diameter(mesh)
        assert all(rep.assumptions_ok.values())

    def test_vertical_constants_on_the_next_rung(self):
        # kappa and varpi of the (0, 1) rung are the beta and alpha of the
        # (1, 2) base pair; chi and epsilon keep their convention value 1
        # because each cell's harmonic slice, ker d / ran d at degree 1, is empty
        from padfeec.linalg import rank

        rep = base_pair_report(BOX2, 1)
        assert rep.beta == pytest.approx(1.0, abs=1e-10)
        assert rep.alpha == pytest.approx(1.0, abs=1e-10)
        lad = ladder(BOX2)
        for ci in range(BOX2.num_cells):
            d0 = lad.d_matrix(0)[lad.p0(1).cell_slice(ci), lad.primal(0).cell_slice(ci)]
            d1 = lad.d_matrix(1)[lad.p0(2).cell_slice(ci), lad.primal(1).cell_slice(ci)]
            kernel = lad.primal(1).block_dims[ci] - rank(d1)
            assert kernel == rank(d0) > 0

    def test_trivial_twisted_parts_give_convention_value(self):
        cell = CellGeometry([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        primal = trimmed_local(cell, 2, "primal")  # constants, d == 0
        empty_dual = LocalSpace(cell, 3, [], op="delta")
        dec = decompose_pair(primal, empty_dual)
        alpha, beta, gamma = local_constants(dec, primal, empty_dual)
        assert alpha == 1.0 and beta == 1.0 and gamma == 1.0

    def test_ebdm_pair_constants_positive_on_reference_cell(self):
        cell = CellGeometry([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        primal = gallery_2d(cell, "P1plus")
        dual = star_local(gallery_2d(cell, "P2plus"))
        dual.basis = dual.basis[:6]
        dual.__post_init__()
        alpha, beta, gamma = local_constants(decompose_pair(primal, dual), primal, dual)
        assert alpha > 0 and beta > 0 and gamma > 0


def _global_base_pair_report(mesh, k, eig_tol=1e-10):
    """The earlier global route: dense copies and one SVD of the whole pairing.

    Kept here as the oracle of the cellwise report.  Only the trivial-core
    branch is copied; no input below reaches the other.
    """
    from padfeec.adjoint import BasePairReport

    lad = ladder(mesh)
    primal, dual = lad.primal(k), lad.dual(k + 1)
    primal_locals, dual_locals = ladder_locals(primal), ladder_locals(dual)
    B = lad.pairing(k).toarray()
    scale = max(np.abs(B).max(), 1.0)
    U, s, Vt = np.linalg.svd(B / scale)
    r = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    uM = Subspace(primal.dim, U[:, r:])
    uN = Subspace(dual.dim, Vt[r:].T.copy())
    assert uM.dim == 0 and uN.dim == 0
    alphas, betas, gammas = [], [], []
    for ci in range(mesh.num_cells):
        Bk = B[primal.cell_slice(ci), dual.cell_slice(ci)]
        a, b, g = fast_local_constants(primal_locals[ci], dual_locals[ci], Bk)
        alphas.append(a)
        betas.append(b)
        gammas.append(g)
    D = lad.d_matrix(k).toarray()
    Delta = lad.delta_matrix(k + 1).toarray()
    p0_hi, p0_lo = lad.p0(k + 1), lad.p0(k)
    icr_tilde = max(
        cell_icr(
            D[p0_hi.cell_slice(ci), primal.cell_slice(ci)],
            primal_locals[ci].gram(),
            p0_hi.volumes[ci],
            eig_tol,
        )
        for ci in range(mesh.num_cells)
    )
    icr_tilde_adj = max(
        cell_icr(
            Delta[p0_lo.cell_slice(ci), dual.cell_slice(ci)],
            dual_locals[ci].gram(),
            p0_lo.volumes[ci],
            eig_tol,
        )
        for ci in range(mesh.num_cells)
    )

    def blockdiag_rank(T, p0, broken):
        total = 0
        for ci in range(broken.mesh.num_cells):
            block = T[p0.cell_slice(ci), broken.cell_slice(ci)]
            if block.size:
                sv = np.linalg.svd(block, compute_uv=False)
                if sv.size and sv[0] > 0:
                    total += int(np.sum(sv > 1e-12 * sv[0]))
        return total

    rank_D = blockdiag_rank(D, p0_hi, primal)
    rank_Delta = blockdiag_rank(Delta, p0_lo, dual)
    assumptions = {
        "annihilator_cores_trivial": True,
        "twisted_kernel_dims_match": primal.dim - rank_D == rank_Delta
        and dual.dim - rank_Delta == rank_D,
        "alpha_positive": min(alphas) > 0,
        "beta_positive": min(betas) > 0,
    }
    return BasePairReport(
        uM_dim=uM.dim,
        uN_dim=uN.dim,
        alpha=float(min(alphas)),
        beta=float(min(betas)),
        gamma=float(min(gammas)),
        icr_tilde=float(icr_tilde),
        icr_tilde_adjoint=float(icr_tilde_adj),
        icr_under=0.0,
        icr_under_adjoint=0.0,
        alpha_cells=np.asarray(alphas),
        beta_cells=np.asarray(betas),
        assumptions_ok=assumptions,
    )


ORACLE_MESHES = [(2, 2, "box"), (2, 4, "hole"), (3, 1, "box")]
CLOSE_MESHES = {**dict(JITTERED), "tunnel:4": generate_structured(3, 4, "tunnel")}


def _base_pair_differences(got, want):
    """Fields whose integers or flags differ, and the largest float difference.

    Every constant is at most about 1, so the float difference is absolute.
    """
    unequal, worst = [], 0.0
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, (int, dict)):
            if a != b:
                unequal.append(name)
        else:
            worst = max(worst, float(np.abs(np.subtract(a, b)).max()))
    return unequal, worst


def _fresh(mesh):
    """A copy of a mesh with a ladder of its own."""
    return Mesh(mesh.dim, mesh.vertices, mesh.cells)


class TestCellwiseBasePairOracle:
    """The batched report equals the per-cell global route it replaced, field by field."""

    @pytest.mark.parametrize(
        "dim,n,domain,k",
        [(dim, n, domain, k) for dim, n, domain in ORACLE_MESHES for k in range(dim)],
    )
    def test_equal_to_global_route(self, dim, n, domain, k):
        mesh = generate_structured(dim, n, domain)
        cellwise = base_pair_report(mesh, k)
        oracle = _global_base_pair_report(mesh, k)
        for name in oracle.__dataclass_fields__:
            got, want = getattr(cellwise, name), getattr(oracle, name)
            if name in ("alpha_cells", "beta_cells"):
                assert np.array_equal(got, want), name
            else:
                assert got == want, name

    @pytest.mark.parametrize(
        "name,k", [(name, k) for name, mesh in CLOSE_MESHES.items() for k in range(mesh.dim)]
    )
    def test_close_to_global_route(self, name, k):
        # every cell has its own shape on the jittered meshes
        mesh = CLOSE_MESHES[name]
        unequal, worst = _base_pair_differences(
            base_pair_report(_fresh(mesh), k), _global_base_pair_report(_fresh(mesh), k)
        )
        assert unequal == [] and worst <= 1e-14, (unequal, worst)

    @pytest.mark.parametrize("name", [name for name, _ in JITTERED])
    def test_reversed_gram_stack_fails_the_comparison(self, name, monkeypatch):
        from padfeec.spaces import BrokenSpace

        mesh = CLOSE_MESHES[name]
        oracle = _global_base_pair_report(_fresh(mesh), 0)
        # the Gram owns the one stack that the runtime reads, and its factor
        original = BrokenSpace.gram
        monkeypatch.setattr(BrokenSpace, "gram", lambda self: Gram(original(self).stack[::-1]))
        _, worst = _base_pair_differences(base_pair_report(_fresh(mesh), 0), oracle)
        assert worst > 1e-3, worst


def _zero_cell_block(mesh, k, ci):
    """Replace the ladder's pairing by one whose block on cell ``ci`` is zero."""
    import scipy.sparse

    lad = ladder(mesh)
    B = lad.pairing(k).toarray()
    B[lad.primal(k).cell_slice(ci), lad.dual(k + 1).cell_slice(ci)] = 0.0
    lad._cache[("pairing", k)] = scipy.sparse.csr_array(B)
    return lad.primal(k).block_dims[ci], lad.dual(k + 1).block_dims[ci]


class TestBasePairCore:
    def test_zeroed_cell_block_counts_the_core(self):
        mesh = generate_structured(2, 2)
        p, q = _zero_cell_block(mesh, 0, 3)
        rep = base_pair_report(mesh, 0)
        assert (rep.uM_dim, rep.uN_dim) == (p, q)
        assert rep.assumptions_ok["annihilator_cores_trivial"] is False
        assert rep.assumptions_ok["twisted_kernel_dims_match"] is False
        assert np.isnan(rep.alpha_cells[3]) and np.isnan(rep.beta_cells[3])
        # the other cells still give their constants
        assert rep.alpha == pytest.approx(1.0, abs=1e-10)
        assert rep.icr_under == rep.icr_under_adjoint == 0.0

    def test_verify_base_pair_fails_without_raising(self):
        from padfeec.cli import cmd_verify_base_pair
        from padfeec.report import Report, RunConfig

        mesh = generate_structured(2, 2)
        p, q = _zero_cell_block(mesh, 0, 3)
        config = RunConfig(command="verify base-pair", mesh="box:2", k=0).validate()
        report = Report(config)
        cmd_verify_base_pair(mesh, config, report)
        (record,) = report.records
        assert record.verdict == "fail"
        assert record.numbers["annihilator_dim"] == p
        assert record.numbers["annihilator_dim_adjoint"] == q
        assert record.numbers["icr_core"] == 0.0

    def test_partial_adjoint_refuses_a_nontrivial_core(self):
        from padfeec.errors import NotAdmissible

        mesh = generate_structured(2, 2)
        _zero_cell_block(mesh, 0, 0)
        lad = ladder(mesh)
        D = full_subspace(lad.primal(0).dim, lad.primal(0).gram())
        with pytest.raises(NotAdmissible, match="annihilator core"):
            partial_adjoint_of(D, mesh, 0)

    def test_fast_constants_refuse_a_singular_block(self):
        from padfeec.errors import NotAdmissible

        cell = CellGeometry([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        p, q = trimmed_local(cell, 0, "primal"), trimmed_local(cell, 1, "dual")
        with pytest.raises(NotAdmissible):
            fast_local_constants(p, q, np.zeros((p.dim, q.dim)))


class TestBasePairCache:
    def test_one_report_per_k_and_tolerance(self):
        mesh = generate_structured(2, 2)
        rep = base_pair_report(mesh, 0)
        assert base_pair_report(mesh, 0) is rep
        assert base_pair_report(mesh, 0, eig_tol=1e-12) is not rep
        with pytest.raises(ValueError):
            rep.alpha_cells[0] = 0.0

    def test_stability_and_horizontal_duality_reuse_the_report(self, monkeypatch):
        import padfeec.adjoint as adjoint
        from padfeec.forms import random_polyform
        from padfeec.interp import global_field, stability_report

        mesh = generate_structured(2, 2)
        base_pair_report(mesh, 0)
        calls = []
        original = adjoint.cell_constants

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(adjoint, "cell_constants", counted)
        rng = np.random.default_rng(0)
        stability_report(mesh, 0, [global_field(mesh, random_polyform(2, 0, 2, rng))])
        horizontal_duality_check(mesh, 0)
        assert calls == []
        # a fresh mesh does count, one batched call per build, so the patch is live
        base_pair_report(generate_structured(2, 2), 0)
        assert len(calls) == 1


class TestPartialAdjoint:
    def test_full_domain_gives_trivial_adjoint(self):
        lad = ladder(BOX2)
        D = full_subspace(lad.primal(0).dim, lad.primal(0).gram())
        pair = partial_adjoint_of(D.basis, BOX2, 0)
        assert pair.adjoint_domain.shape[1] == 0  # the annihilator core is trivial

    def test_zero_domain_gives_full_adjoint(self):
        lad = ladder(BOX2)
        D = zero_subspace(lad.primal(0).dim, lad.primal(0).gram())
        pair = partial_adjoint_of(D.basis, BOX2, 0)
        assert pair.adjoint_domain.shape[1] == lad.dual(1).dim

    def test_conforming_domain_pairs_with_flux_space(self):
        # scalar conforming space with boundary condition: its partner is the
        # flux-type nonconforming space on the conjugated side
        lad = ladder(BOX2)
        wh = lad.whitney(0, "homogeneous")
        pair = partial_adjoint_of(wh.subspace().basis, BOX2, 0)
        assert pair.meta["roundtrip_angle"] < 1e-9
        assert pair.adjoint_domain.shape[1] == lad.dual(1).dim - wh.dim
        assert pair.pairing_residual() < 1e-11

    def test_roundtrip_on_nonconforming_domain(self):
        lad = ladder(BOX2)
        gs, _ = lad.abc(0, "homogeneous")
        pair = partial_adjoint_of(gs.subspace().basis, BOX2, 0)
        assert pair.meta["roundtrip_angle"] < 1e-9
        # the adjoint domain contains the star-conjugated conforming partner
        partner = lad.whitney_star(1, "none")
        adjoint = Subspace(lad.dual(1).dim, pair.adjoint_domain)  # Euclidean-orthonormal
        assert contains(adjoint, partner.subspace().basis, tol=1e-8)


class TestQuantifiedCrt:
    def test_whitney_pair_bound(self):
        rep = base_pair_report(BOX4, 0)
        pair = whitney_pair(BOX4, 0, "none")
        icr_p, icr_a, ok = quantified_crt_check(pair, rep)
        assert ok
        assert abs(icr_p - icr_a) < 0.3 * max_diameter(BOX4) * max(icr_p, icr_a)

    def test_zero_maps(self):
        D = full_subspace(3)
        assert icr_of(np.zeros((2, 3)), D.basis) == 0.0

    def test_genuinely_adjoint_finite_dimensional_pair(self):
        # adjoint matrices share the index of closed range to high accuracy
        rng = np.random.default_rng(12)
        for _ in range(5):
            n, m = 7, 5
            T = rng.standard_normal((m, n))
            Gx = rng.standard_normal((n, n))
            Gx = Gx @ Gx.T + n * np.eye(n)
            Gy = rng.standard_normal((m, m))
            Gy = Gy @ Gy.T + m * np.eye(m)
            Tstar = np.linalg.solve(Gx, T.T @ Gy)
            a = icr_of(T, full_subspace(n, Gx).basis, Gx, Gy)
            b = icr_of(Tstar, full_subspace(m, Gy).basis, Gy, Gx)
            assert abs(a - b) <= 1e-9 * max(a, b)


class TestHelmholtz:
    @pytest.mark.parametrize("mesh", [BOX2, BOX4, HOLE])
    @pytest.mark.parametrize("k,bc", [(0, "none"), (0, "homogeneous"), (1, "none"), (1, "homogeneous")])
    def test_pass_and_dims(self, mesh, k, bc):
        pair = whitney_pair(mesh, k, bc)
        rep = helmholtz_check(pair)
        assert rep.passed
        assert rep.orthogonality_residual < 1e-10

    def test_spec_dims_on_n2_box(self):
        # decomposition of the piecewise-constant 1-forms (16 dimensions):
        # gradients of the interior hat (1) plus the nonconforming flux kernel (15)
        pair = whitney_pair(BOX2, 1, "none")
        rep = helmholtz_check(pair)
        low = rep.detail["low"]
        assert sum(low.lhs_dims.values()) == 16
        assert low.rhs_dims["range_adjoint_domain"] == 1
        assert low.rhs_dims["kernel_domain"] == 15

    def test_swapped_roles_on_n2_box(self):
        pair = whitney_pair(BOX2, 1, "homogeneous")
        rep = helmholtz_check(pair)
        low = rep.detail["low"]
        assert low.rhs_dims["range_adjoint_domain"] == 8
        assert low.rhs_dims["kernel_domain"] == 8

    def test_a_pair_without_a_bc_is_refused(self):
        from padfeec.errors import NotAdmissible

        # the pieces come from the ladder by the pair's bc, which only a
        # whitney_pair names; another domain would be judged on the wrong pieces
        pair = partial_adjoint_of(ladder(BOX2).abc_basis(0, "none"), BOX2, 0)
        with pytest.raises(NotAdmissible, match="whitney_pair"):
            helmholtz_check(pair)

    def test_top_degree_edge_case(self):
        # at k = n-1 the high split has the whole space as kernel complement
        pair = whitney_pair(BOX2, 1, "none")
        rep = helmholtz_check(pair)
        assert rep.passed


HYPOTHESIS_MESHES = {
    "box:2": BOX2,
    "box:4": BOX4,
    "hole:4": HOLE,
    "tetbox:1": BOX3D,
}


class TestFullRangeHypothesesOracle:
    """The reference-block hypotheses and full-range dimensions equal the whole-space route."""

    @pytest.mark.parametrize(
        "name,k,bc",
        [
            (name, k, bc)
            for name, mesh in HYPOTHESIS_MESHES.items()
            for k in range(mesh.dim)
            for bc in ("none", "homogeneous")
        ],
    )
    def test_equal_to_the_full_space_oracle(self, name, k, bc):
        from padfeec.adjoint import _full_ranges

        pair = whitney_pair(HYPOTHESIS_MESHES[name], k, bc)
        got = _full_ranges(ladder(pair.meta["mesh"]), k, pair)
        assert got == full_range_hypotheses(pair)
        assert got[0] == (True, True)
        rep = helmholtz_check(pair)
        assert rep.lhs_dims["high_range_full"] == got[1][0]
        assert rep.lhs_dims["low_range_adjoint_full"] == got[1][1]

    def test_a_short_reference_kernel_fails_the_named_hypothesis(self, monkeypatch):
        import oracles
        import padfeec.adjoint as adjoint

        pair = whitney_pair(_fresh(BOX2), 0, "none")
        reference = adjoint._reference_kernel
        short = lambda *args: reference(*args)[:, 1:]  # noqa: E731
        monkeypatch.setattr(adjoint, "_reference_kernel", short)
        monkeypatch.setattr(oracles, "_reference_kernel", short)
        rep = helmholtz_check(pair)
        assert rep.verdict == "fail"
        assert rep.detail == {"failed_hypothesis": "twisted ranges do not match opposite kernels"}
        assert rep.lhs_dims == rep.rhs_dims == {}
        hypotheses = adjoint._full_ranges(ladder(pair.meta["mesh"]), 0, pair)[0]
        assert hypotheses == full_range_hypotheses(pair)[0] == (False, False)


class TestHarmonic:
    def test_contractible_box(self):
        assert harmonic_space(BOX2, 1, "abc").dim == 0
        assert harmonic_space(BOX4, 1, "abc0").dim == 0

    def test_hole_first_betti(self):
        assert harmonic_space(HOLE, 1, "abc").dim == 1
        assert harmonic_space(HOLE, 1, "abc0").dim == 1
        assert harmonic_space(HOLE, 1, "star0").dim == 1

    def test_constants_at_degree_zero(self):
        assert harmonic_space(BOX2, 0, "conforming").dim == 1
        assert harmonic_space(BOX2, 0, "abc").dim == 1

    def test_star_flavor_agrees_with_abc(self):
        H1 = harmonic_space(HOLE, 1, "abc")
        H2 = harmonic_space(HOLE, 1, "star0")
        lad = ladder(HOLE)
        ok, ang = subspace_equal(H1, H2, lad.p0(1).gram, tol=1e-8)
        assert ok, ang


HARMONIC_FLAVORS = ("abc", "abc0", "conforming", "conforming0", "star", "star0")


class TestHarmonicCache:
    def test_second_call_returns_the_cached_space(self):
        mesh = generate_structured(2, 2)
        assert harmonic_space(mesh, 1, "abc") is harmonic_space(mesh, 1, "abc")

    def test_hodge_all_builds_each_space_once(self, monkeypatch, capsys):
        import padfeec.adjoint as adjoint
        from padfeec.cli import main

        built = []
        builder = adjoint._build_harmonic_space

        def counting(mesh, k, flavor):
            built.append((k, flavor))
            return builder(mesh, k, flavor)

        monkeypatch.setattr(adjoint, "_build_harmonic_space", counting)
        code = main(["solve", "hodge", "--mesh", "box:2", "--k", "1", "--scheme", "all"])
        capsys.readouterr()
        assert code == 0
        assert built == [(1, "abc"), (1, "star0")]

    def test_cached_spaces_equal_fresh_builds(self):
        from padfeec.adjoint import _build_harmonic_space

        mesh = generate_structured(2, 4, "hole")
        cached = {flavor: harmonic_space(mesh, 1, flavor) for flavor in HARMONIC_FLAVORS}
        for flavor, space in cached.items():
            fresh = _build_harmonic_space(generate_structured(2, 4, "hole"), 1, flavor)
            assert space.dim == fresh.dim == 1
            assert np.array_equal(space.basis, fresh.basis), flavor
            with pytest.raises(ValueError):
                space.basis[0, 0] = 1.0

    def test_unknown_flavor_caches_nothing(self):
        from padfeec.errors import AssemblyError

        mesh = generate_structured(2, 2)
        with pytest.raises(AssemblyError, match="unknown harmonic flavor"):
            harmonic_space(mesh, 1, "bogus")
        assert not [key for key in ladder(mesh)._cache if key[0] == "harmonic"]


KERNEL_MESHES = {
    **CLOSE_MESHES,
    "hole:8": generate_structured(2, 8, "hole"),
    "cavity:4": generate_structured(3, 4, "cavity"),
}


class TestConstraintKernel:
    """The oracle's ker d on the nonconforming space, from its constraints, equals the atlas route."""

    @pytest.mark.parametrize(
        "name,k,bc",
        [
            (name, k, bc)
            for name, mesh in KERNEL_MESHES.items()
            for k in range(mesh.dim)
            for bc in ("none", "homogeneous")
        ],
    )
    def test_equal_to_atlas_route(self, name, k, bc):
        lad = ladder(_fresh(KERNEL_MESHES[name]))
        g = lad.p0(k).gram
        N = _complex_kernel(lad, "abc", k, bc)
        atlas = _domain_kernel_p0(lad, k, lad.primal(k), lad.d_matrix(k), lad.abc(k, bc)[0].atlas)
        assert N.dim == atlas.dim
        ok, angle = subspace_equal(N, atlas, g, tol=1e-10)
        assert ok, angle
        assert np.abs(N.basis.T @ (g @ N.basis) - np.eye(N.dim)).max(initial=0.0) <= 1e-12

    def test_d_must_vanish_on_every_constant(self, monkeypatch):
        import padfeec.adjoint as adjoint
        from padfeec.errors import AssemblyError

        # a reference kernel that misses a constant breaks the premise of the
        # oracle's kernel and of the runtime's nonconforming conditions
        reference = adjoint._reference_kernel
        short = lambda *args: reference(*args)[:, 1:]  # noqa: E731
        monkeypatch.setattr(oracles, "_reference_kernel", short)
        monkeypatch.setattr(adjoint, "_reference_kernel", short)
        with pytest.raises(AssemblyError, match="constants"):
            _complex_kernel(ladder(generate_structured(2, 2)), "abc", 1, "none")
        with pytest.raises(AssemblyError, match="constants"):
            harmonic_space(generate_structured(2, 2), 1, "abc")
        # and of the eigen pencils' shared-kernel-free K + M
        from padfeec.solve import solve_eigen_pair

        with pytest.raises(AssemblyError, match="constants"):
            solve_eigen_pair(generate_structured(2, 2), 0)


class TestEmptyComplement:
    def test_range_leaving_the_kernel_still_raises(self, monkeypatch):
        from padfeec.errors import NotAComplex

        mesh = generate_structured(2, 2)
        lad = ladder(mesh)
        A = np.array(lad.abc_basis(0, "none"))
        # one column swapped for a linear form on one cell: the basis keeps its
        # width, but d of that form is not a nonconforming 1-form
        A[:, -1] = 0.0
        A[lad.primal(0).cell_slice(0).start + 1, -1] = 1.0
        monkeypatch.setitem(lad._cache, ("abc-basis", 0, "none"), A)
        with pytest.raises(NotAComplex, match="not contained in the kernel"):
            harmonic_space(mesh, 1, "abc")

    @pytest.mark.parametrize(
        "degree,reason", [(1, "d is not the coboundary"), (2, "does not square to zero")]
    )
    def test_conforming_with_a_wrong_incidence_sign_raises(self, monkeypatch, degree, reason):
        from padfeec.errors import NotAComplex

        mesh = generate_structured(2, 2)
        boundary = mesh.boundary_matrix

        def flipped(j):
            D = boundary(j)
            if j == degree:
                D = D.copy()
                D.data[0] = -D.data[0]
            return D

        # degree 1 feeds the coboundary from the vertices, checked against d of
        # the Whitney 0-forms; degree 2 the one from the edges, checked in integers
        monkeypatch.setattr(mesh, "boundary_matrix", flipped)
        with pytest.raises(NotAComplex, match=reason):
            harmonic_space(mesh, 1, "conforming")

    def test_star_with_a_corrupted_lower_atlas_raises(self, monkeypatch):
        import dataclasses

        from padfeec.errors import NotAComplex

        mesh = generate_structured(2, 4)
        lad = ladder(mesh)
        lower = lad.whitney_star(2, "homogeneous")
        atlas = lower.atlas.toarray()
        atlas[:, 0] *= -1.0
        monkeypatch.setitem(
            lad._cache, ("whitney-star", 2, "homogeneous"), dataclasses.replace(lower, atlas=atlas)
        )
        with pytest.raises(NotAComplex, match="d is not the coboundary"):
            harmonic_space(mesh, 1, "star0")

    def test_zero_space_without_a_complement(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gram_complement called for an empty complement")

        mesh = generate_structured(2, 2)
        monkeypatch.setattr(oracles, "gram_complement", refuse)
        H = harmonic_space(mesh, 1, "abc")
        assert H.basis.shape == (ladder(mesh).p0(1).dim, 0)
        assert H.basis.flags.writeable is False


class TestStackedRoute:
    def test_builds_no_kernel_range_or_complement(self, monkeypatch):
        import padfeec.adjoint as adjoint
        import padfeec.linalg as linalg

        def refuse(*args, **kwargs):
            raise AssertionError("the complement route was called")

        # the complement route is the oracles' alone
        for name in ("_complex_kernel", "_complex_range", "gram_complement"):
            assert not hasattr(adjoint, name) and not hasattr(linalg, name)
            monkeypatch.setattr(oracles, name, refuse)
        monkeypatch.setattr(oracles, "contains", refuse)
        assert not hasattr(Subspace, "contains")
        # every span orthonormalized is a lift of null vectors, no wider than
        # the widest slice with its harmonic space, and every pivoted QR
        # nullspace a reference block's
        spans, kernels = [], []
        from_span, pivoted = Subspace.from_span.__func__, linalg.pivoted_nullspace

        def recording_span(cls, vectors, *args, **kwargs):
            spans.append(np.shape(vectors)[1])
            return from_span(cls, vectors, *args, **kwargs)

        def recording_nullspace(M, *args, **kwargs):
            kernels.append(np.shape(M)[1])
            return pivoted(M, *args, **kwargs)

        monkeypatch.setattr(Subspace, "from_span", classmethod(recording_span))
        monkeypatch.setattr(linalg, "pivoted_nullspace", recording_nullspace)
        for args in ((2, 4, "hole"), (3, 1)):
            mesh = generate_structured(*args)
            # the base pair's reference-block ranks are the one float rank
            for k in range(mesh.dim):
                base_pair_report(mesh, k)
            with monkeypatch.context() as m:
                m.setattr(adjoint, "rank", refuse)
                dims = {
                    flavor: [harmonic_space(mesh, k, flavor).dim for k in range(mesh.dim + 1)]
                    for flavor in HARMONIC_FLAVORS
                }
                slices = [horizontal_duality_check(mesh, k) for k in range(mesh.dim)]
                splits = [hodge_check(mesh, k) for k in range(1, mesh.dim)]
            assert dims["abc"] == betti_numbers(mesh)
            assert all(rep.passed for rep in slices + splits)
            widest = max(max(rep.lhs_dims.values()) for rep in slices) + max(map(max, dims.values()))
            assert spans and max(spans) <= widest
            spans.clear()
        assert kernels and max(kernels) < 10

    @pytest.mark.parametrize("args", [(2, 4, "hole"), (3, 4, "tunnel")])
    def test_theta_survives_a_round_off_change_of_the_lower_basis(self, args):
        from padfeec.solve import random_polynomial_load, solve_hodge

        thetas = []
        for scale in (1.0, 1.0 + 1e-14):
            mesh = generate_structured(*args)
            lad = ladder(mesh)
            lad._cache[("abc-basis", 0, "none")] = lad.abc_basis(0, "none") * scale
            load = random_polynomial_load(mesh, 1, seed=5)
            thetas.append(
                [solve_hodge(mesh, 1, load, s).components["theta"] for s in ("complete", "mixed_primal")]
            )
        for before, after in zip(*thetas):
            assert before.size == 1
            assert abs(after[0] - before[0]) <= 1e-10 * abs(before[0])

    def test_one_column_sign_depends_on_the_span_only(self):
        from padfeec.adjoint import _span_signs

        rng = np.random.default_rng(3)
        h = rng.standard_normal((12, 1))
        h[4] = -1.5 * np.abs(h).max()
        h[9] = -h[4] * (1.0 - 1e-12)  # a tie within 1e-8: the first entry decides
        assert np.array_equal(_span_signs(h), _span_signs(-h))
        assert _span_signs(h)[4, 0] > 0.0
        assert _span_signs(np.zeros((5, 0))).shape == (5, 0)


# every flavor and degree of these meshes is compared with the oracles; those
# of 96 cells or more (box:16, hole:8, hole:16, tunnel:4, cavity:4) take the
# sparse route
ORACLE_BATTERY = [
    "box:2", "box:4", "box:16", "hole:4", "hole:8", "hole:16",
    "tetbox:1", "tetbox:2", "tunnel:4", "cavity:4",
]


class TestSizedByBetti:
    """Each harmonic space has the Betti number's dimension, found without a pivoted QR."""

    @pytest.mark.parametrize("args", [(2, 4, "hole"), (2, 16, "hole")], ids=["dense", "sparse"])
    def test_no_nullspace_past_the_reference_blocks(self, monkeypatch, args):
        import padfeec.linalg as linalg
        import padfeec.spaces as spaces

        widths = []
        pivoted = linalg.pivoted_nullspace

        def recording(M, *rest, **kw):
            widths.append(np.shape(M)[1])
            return pivoted(M, *rest, **kw)

        def refuse(*args, **kwargs):
            raise AssertionError("the constraint-route nullspace was called")

        # every `nullspace` goes through linalg's pivoted_nullspace; what runs
        # is the reference blocks' (the premise check and the local bases)
        monkeypatch.setattr(linalg, "pivoted_nullspace", recording)
        monkeypatch.setattr(spaces, "pivoted_nullspace", refuse)
        mesh = generate_structured(*args)
        lad = ladder(mesh)
        for flavor in HARMONIC_FLAVORS:
            for k in range(mesh.dim + 1):
                harmonic_space(mesh, k, flavor)
        reference = max(
            lad.broken(k, family).reference.dim for k in range(3) for family in ("primal", "dual")
        )
        assert widths and max(widths) <= reference < 10
        assert lad.sparse == (args[1] == 16)

    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("args", [(2, 4, "hole"), (2, 16, "hole")], ids=["dense", "sparse"])
    @pytest.mark.parametrize("flavor", ["abc", "star0", "conforming0"])
    def test_a_wrong_betti_number_raises(self, monkeypatch, args, flavor, shift):
        from padfeec.errors import ToleranceFailure
        from padfeec.mesh import Mesh

        betti = Mesh.betti_numbers

        def shifted(self, relative=False):
            return tuple(b + shift for b in betti(self, relative))

        monkeypatch.setattr(Mesh, "betti_numbers", shifted)
        mesh = generate_structured(*args)
        # b_1 = 1 for each flavor on the holed square
        reason = "harmonic %s 1-forms, Betti number %d: nullity" % (flavor, 1 + shift)
        with pytest.raises(ToleranceFailure, match=reason):
            harmonic_space(mesh, 1, flavor)
        assert not [key for key in ladder(mesh)._cache if key[0] == "harmonic"]


@functools.lru_cache(maxsize=None)
def _oracle_mesh(name):
    kind, n = name.split(":")
    dim = 3 if kind in ("tetbox", "tunnel", "cavity") else 2
    domain = {"tetbox": "box"}.get(kind, kind)
    return generate_structured(dim, int(n), domain)


class TestHarmonicByComplementOracle:
    """The Betti-sized null space equals the kernel-range complement, at every degree."""

    @pytest.mark.parametrize("flavor", HARMONIC_FLAVORS)
    @pytest.mark.parametrize("name", ORACLE_BATTERY)
    def test_equal_to_the_complement_route(self, name, flavor):
        from padfeec.adjoint import _FLAVORS, _conditions
        from padfeec.linalg import RANK_TOL, null_vectors, principal_angles

        mesh = _oracle_mesh(name)
        lad = ladder(mesh)
        relative = flavor not in ("abc", "conforming", "star0")
        betti = betti_numbers(mesh, relative=relative)
        for k in range(mesh.dim + 1):
            H = harmonic_space(mesh, k, flavor)
            oracle = harmonic_by_complement(mesh, k, flavor)
            assert H.dim == oracle.dim == betti[k], k
            angles = principal_angles(H, oracle, lad.p0(k).gram)
            assert angles.max(initial=0.0) <= 1e-10, k
            # the rank cut on the residuals relative to the largest row norm
            # sits in a gap of at least 1e3 on both sides
            complex_, bc = _FLAVORS[flavor]
            conditions = _conditions(lad, complex_, k, bc, bc)[0]
            resid = null_vectors(conditions, H.dim, sparse=lad.sparse)[1]
            assert resid[: H.dim].max(initial=0.0) <= RANK_TOL / 1e3, k
            if resid.size > H.dim:
                assert resid[H.dim] >= 1e3 * RANK_TOL, k


BETTI_MESHES = {
    "box:2": ((2, 2, "box"), [1, 0, 0]),
    "hole:4": ((2, 4, "hole"), [1, 1, 0]),
    "tetbox:1": ((3, 1, "box"), [1, 0, 0, 0]),
    "tunnel:4": ((3, 4, "tunnel"), [1, 1, 0, 0]),
    "cavity:4": ((3, 4, "cavity"), [1, 0, 1, 0]),
}


class TestBettiOracle:
    """Every harmonic dimension is a Betti number of the mesh (de Rham).

    The Betti numbers come from exact integer ranks of the chain boundary
    matrices, so no finite element or tolerance enters the oracle.
    """

    @pytest.mark.parametrize("name", list(BETTI_MESHES))
    def test_oracle_knows_the_topology(self, name):
        args, betti = BETTI_MESHES[name]
        mesh = generate_structured(*args)
        assert betti_numbers(mesh) == betti
        # Lefschetz duality: b_k(mesh, boundary) = b_{n-k}(mesh)
        assert betti_numbers(mesh, relative=True) == betti[::-1]

    @pytest.mark.parametrize("name", sorted(set(BETTI_MESHES) | set(ORACLE_BATTERY)))
    def test_runtime_betti_numbers_equal_the_oracle(self, name):
        mesh = _oracle_mesh(name)
        for relative in (False, True):
            assert mesh.betti_numbers(relative) == tuple(betti_numbers(mesh, relative))

    @pytest.mark.parametrize("name", list(BETTI_MESHES))
    def test_harmonic_dimensions(self, name):
        mesh = generate_structured(*BETTI_MESHES[name][0])
        absolute, relative = betti_numbers(mesh), betti_numbers(mesh, relative=True)
        want = {
            flavor: absolute if flavor in ("abc", "conforming", "star0") else relative
            for flavor in HARMONIC_FLAVORS
        }
        got = {
            flavor: [harmonic_space(mesh, k, flavor).dim for k in range(mesh.dim + 1)]
            for flavor in HARMONIC_FLAVORS
        }
        assert got == want


class TestOrthonormalInvariant:
    """Each basis is orthonormal in the Gram its subspace carries."""

    @staticmethod
    def _deviation(sub):
        Q = sub.basis
        return float(np.abs(Q.T @ sub.gram @ Q - np.eye(sub.dim)).max(initial=0.0))

    @pytest.mark.parametrize("dim,n,domain", [(2, 4, "hole"), (3, 1, "box")])
    def test_spaces_and_complements(self, dim, n, domain):
        mesh = generate_structured(dim, n, domain)
        lad = ladder(mesh)
        subs = []
        for k in range(mesh.dim + 1):
            subs.append(lad.abc(k)[0].subspace())
            subs.extend(harmonic_space(mesh, k, f) for f in HARMONIC_FLAVORS)
        for k in range(mesh.dim):
            g = lad.p0(k + 1).gram
            big = Subspace.from_span(lad.d_matrix(k) @ lad.abc(k, "none")[0].atlas, g)
            small = Subspace.from_span(lad.d_matrix(k) @ lad.abc(k, "homogeneous")[0].atlas, g)
            subs.append(gram_complement(small, big, g))
        assert max(self._deviation(sub) for sub in subs) <= 1e-12


class TestPlDuality:
    def test_hole_identity(self):
        rep = pl_duality_check(HOLE, 1)
        assert rep.passed
        assert rep.lhs_dims == {"abc": 1, "abc0": 1}
        assert rep.identity_angle < 1e-8

    def test_box_trivial(self):
        rep = pl_duality_check(BOX2, 1)
        assert rep.passed
        assert rep.lhs_dims == {"abc": 0, "abc0": 0}

    def test_degree_zero_constants_vs_volume_forms(self):
        rep = pl_duality_check(BOX2, 0)
        assert rep.passed
        assert rep.lhs_dims["abc"] == 1  # constants against volume forms


class TestHodge:
    def test_n2_box_dims(self):
        rep = hodge_check(BOX2, 1)
        assert rep.passed
        none = rep.detail["none"]
        assert none.rhs_dims == {"range_below": 15, "harmonic": 0, "corange_above": 1}

    def test_hole_middle_dim(self):
        rep = hodge_check(HOLE, 1)
        assert rep.passed
        for bc in ("none", "homogeneous"):
            assert rep.detail[bc].rhs_dims["harmonic"] == 1

    def test_orthogonality(self):
        rep = hodge_check(BOX4, 1)
        assert rep.orthogonality_residual < 1e-10

    # at the ends of the complex one range is empty
    @pytest.mark.parametrize("mesh,k,dims", [
        (BOX2, 0, {"range_below": 0, "harmonic": 1, "corange_above": 7}),
        (BOX2, 2, {"range_below": 8, "harmonic": 0, "corange_above": 0}),
        (HOLE, 0, {"range_below": 0, "harmonic": 1, "corange_above": 23}),
        (HOLE, 2, {"range_below": 24, "harmonic": 0, "corange_above": 0}),
    ])
    def test_end_degrees(self, mesh, k, dims):
        rep = hodge_check(mesh, k)
        assert rep.passed and rep.orthogonality_residual < 1e-10
        assert rep.detail["none"].rhs_dims == dims


def _tilted(sub, seed=0, amount=1e-3):
    """A subspace of the same dimension as ``sub``, turned out of it by about ``amount``."""
    noise = np.random.default_rng(seed).standard_normal(sub.basis.shape)
    tilted = Subspace.from_span(sub.basis + amount * np.abs(sub.basis).max() * noise, sub.gram)
    assert tilted.dim == sub.dim
    return tilted


class TestWrongPieceOfTheRightDimension:
    """A split whose pieces still add up to the whole space fails on orthogonality alone.

    Each split's pieces sum to the ambient dimension, so a piece replaced by
    a tilted subspace of the same dimension keeps every dimension count; its
    sum with the other pieces is still the whole space, so their span shows
    nothing either.  The orthogonality residual is the figure that catches it.
    """

    def test_hodge_with_a_tilted_harmonic_piece(self, monkeypatch):
        import padfeec.adjoint as adjoint

        mesh = _fresh(HOLE)
        honest = hodge_check(mesh, 1)
        harmonic = adjoint.harmonic_space

        # the integer ranks ask for empty harmonic spaces too, which cannot tilt
        def tilted_harmonic(mesh, k, flavor):
            H = harmonic(mesh, k, flavor)
            return _tilted(H) if H.dim else H

        monkeypatch.setattr(adjoint, "harmonic_space", tilted_harmonic)
        rep = hodge_check(mesh, 1)
        assert honest.passed and honest.orthogonality_residual < 1e-10
        for bc in ("none", "homogeneous"):
            assert rep.detail[bc].rhs_dims == honest.detail[bc].rhs_dims
            assert rep.detail[bc].rhs_dims["harmonic"] == 1
            assert rep.detail[bc].verdict == "fail"
        assert rep.verdict == "fail"
        assert rep.orthogonality_residual > 1e-6
        assert rep.identity_angle < 1e-8

    def test_hodge_with_a_tilted_range_below(self, monkeypatch):
        mesh = _fresh(HOLE)
        honest = hodge_check(mesh, 1)
        lad = ladder(mesh)
        # the compact basis one degree down, each entry moved by about 1e-3 of
        # the largest: its width, and so every integer dimension, stays
        A = lad.abc_basis(0, "none")
        noise = np.random.default_rng(1).standard_normal(A.shape)
        monkeypatch.setitem(lad._cache, ("abc-basis", 0, "none"), A + 1e-3 * np.abs(A).max() * noise)
        rep = hodge_check(mesh, 1)
        assert honest.passed and honest.orthogonality_residual < 1e-10
        for bc in ("none", "homogeneous"):
            assert rep.detail[bc].rhs_dims == honest.detail[bc].rhs_dims
        assert rep.detail["none"].verdict == "fail" and rep.detail["homogeneous"].passed
        assert rep.verdict == "fail"
        assert rep.orthogonality_residual > 1e-6

    @pytest.mark.parametrize("mesh", [BOX2, HOLE], ids=["box:2", "hole:4"])
    @pytest.mark.parametrize("k,bc", [(0, "none"), (1, "homogeneous")])
    def test_helmholtz_with_a_tilted_kernel_piece(self, monkeypatch, mesh, k, bc):
        import padfeec.adjoint as adjoint

        mesh = _fresh(mesh)
        honest = helmholtz_check(whitney_pair(mesh, k, bc))
        # the kernel piece is the harmonic space plus d of the compact basis one
        # degree down: tilt the harmonic space where it is not empty, else that
        # basis, whose width, and so every integer dimension, stays
        flavor = "abc" if bc == "none" else "abc0"
        harmonic = adjoint.harmonic_space
        if harmonic(mesh, k, flavor).dim:
            def tilted_harmonic(m, j, f):
                H = harmonic(m, j, f)
                return _tilted(H) if (j, f) == (k, flavor) else H

            monkeypatch.setattr(adjoint, "harmonic_space", tilted_harmonic)
        else:
            lad = ladder(mesh)
            A = lad.abc_basis(k - 1, bc)
            noise = np.random.default_rng(1).standard_normal(A.shape)
            monkeypatch.setitem(lad._cache, ("abc-basis", k - 1, bc), A + 1e-3 * np.abs(A).max() * noise)
        rep = helmholtz_check(whitney_pair(mesh, k, bc))
        assert honest.passed and honest.orthogonality_residual < 1e-10
        assert rep.lhs_dims == honest.lhs_dims and rep.rhs_dims == honest.rhs_dims
        assert rep.verdict == "fail"
        assert rep.orthogonality_residual > 1e-6
        assert rep.identity_angle < 1e-8


class TestHorizontal:
    def test_boundary_vertex_count_slice(self):
        rep = horizontal_duality_check(BOX2, 0)
        assert rep.passed
        assert rep.lhs_dims["range_slice_high"] == 7  # boundary vertices minus one
        assert rep.rhs_dims["kernel_slice_high"] == 7

    def test_identical_domains_give_trivial_slices(self):
        lad = ladder(BOX2)
        gs, _ = lad.abc(0, "none")
        sub = gs.subspace()
        assert gram_complement(sub, sub, lad.primal(0).gram()).dim == 0

    def test_hole_slices(self):
        rep = horizontal_duality_check(HOLE, 0)
        assert rep.passed


# every degree below the top; tunnel:4 at k = 1 only, where its slices are widest
SLICE_CASES = [
    (name, k) for name in ("box:2", "box:4", "hole:4", "tetbox:1") for k in range(_oracle_mesh(name).dim)
] + [("tunnel:4", 1)]


class TestSlicesByComplementOracle:
    """Each slice, the null space of its stacked conditions, is the complement route's slice."""

    @pytest.mark.parametrize("name,k", SLICE_CASES)
    def test_equal_to_the_complement_route(self, name, k):
        from padfeec.adjoint import horizontal_slices
        from padfeec.linalg import principal_angles

        mesh = _oracle_mesh(name)
        got, want = horizontal_slices(mesh, k), slices_by_complement(mesh, k)
        assert list(got) == list(want)
        assert any(S.dim for S in got.values())
        for key, S in got.items():
            assert S.dim == want[key].dim, key
            assert principal_angles(S, want[key], S.gram).max(initial=0.0) <= 1e-8, key
            assert np.abs(S.basis.T @ (S.gram @ S.basis) - np.eye(S.dim)).max(initial=0.0) <= 1e-10

    def test_a_wrong_betti_number_names_the_slice(self, monkeypatch):
        from padfeec.errors import ToleranceFailure
        from padfeec.mesh import Mesh

        mesh = _fresh(HOLE)
        # every harmonic space is built, and kept, with the true Betti numbers
        honest = horizontal_duality_check(mesh, 0)
        betti = Mesh.betti_numbers

        def shifted(self, relative=False):
            return tuple(b + (k == 0 and not relative) for k, b in enumerate(betti(self, relative)))

        # b_0 one too large takes one from the rank of d from degree 0
        monkeypatch.setattr(Mesh, "betti_numbers", shifted)
        dim = honest.lhs_dims["range_slice_high"] - 1
        with pytest.raises(ToleranceFailure, match="^range slice of d from degree 0, dimension %d: " % dim):
            horizontal_duality_check(mesh, 0)


class TestSlicesStaySparse:
    def test_range_slice_conditions_hold_no_dense_rows(self, monkeypatch):
        import padfeec.adjoint as adjoint

        # tunnel:4 has b_1 = 1: the harmonic space is taken out of the range
        # slice after its null space, not as a dense row of its conditions
        mesh = generate_structured(3, 4, "tunnel")
        conditions, recorded = adjoint._conditions, []

        def recording(lad, *args, **kwargs):
            M, lift = conditions(lad, *args, **kwargs)
            if args[:4] == ("abc", 1, "none", "homogeneous"):
                recorded.append(M)
            return M, lift

        monkeypatch.setattr(adjoint, "_conditions", recording)
        adjoint.horizontal_slices(mesh, 0)
        (M,) = recorded
        n = ladder(mesh).p0(1).dim
        assert M.shape[1] == n == 864
        assert scipy.sparse.issparse(M) and (M.T @ M).nnz < 0.1 * n * n


# every degree below the top and both bcs on the small meshes; the larger
# ones at k = 1 only
HELMHOLTZ_CASES = [
    (name, k, bc)
    for name in ("box:2", "box:4", "hole:4", "hole:8", "tetbox:1", "tetbox:2")
    for k in range(_oracle_mesh(name).dim)
    for bc in ("none", "homogeneous")
] + [(name, 1, bc) for name in ("box:16", "tunnel:4", "cavity:4") for bc in ("none", "homogeneous")]


class TestHelmholtzByDomainKernelsOracle:
    """The Helmholtz splits from the Hodge pieces equal the domain-kernel route."""

    @pytest.mark.parametrize("name,k,bc", HELMHOLTZ_CASES)
    def test_equal_to_the_domain_kernel_route(self, name, k, bc):
        pair = whitney_pair(_oracle_mesh(name), k, bc)
        got, want = helmholtz_check(pair), helmholtz_by_domain_kernels(pair)
        assert got.lhs_dims == want.lhs_dims
        assert got.rhs_dims == want.rhs_dims
        assert got.passed and want.passed
        assert got.orthogonality_residual < 1e-10

    def test_no_nullspace_or_orthonormalize_past_the_reference_blocks(self, monkeypatch):
        import padfeec.linalg as linalg

        widths = []
        for name in ("pivoted_nullspace", "orthonormalize"):
            def recording(M, *rest, _original=getattr(linalg, name), **kw):
                widths.append(np.shape(M)[1])
                return _original(M, *rest, **kw)

            monkeypatch.setattr(linalg, name, recording)
        # hole:16 takes the sparse route; every QR left is a reference block's
        # or a lift of a harmonic space's few null vectors
        mesh = generate_structured(2, 16, "hole")
        lad = ladder(mesh)
        for k in range(mesh.dim):
            for bc in ("none", "homogeneous"):
                assert helmholtz_check(whitney_pair(mesh, k, bc)).passed
        reference = max(
            lad.broken(k, family).reference.dim
            for k in range(mesh.dim + 1)
            for family in ("primal", "dual")
        )
        assert lad.sparse
        assert widths and max(widths) <= reference < 10


class TestIntegerRanks:
    """Each integer rank of a complex equals the float rank of its operator on an atlas."""

    @pytest.mark.parametrize("name", ["box:4", "hole:4", "tetbox:2", "cavity:4"])
    def test_equal_to_the_float_rank(self, name):
        from padfeec.adjoint import complex_rank
        from padfeec.linalg import rank

        mesh = _oracle_mesh(name)
        lad = ladder(mesh)
        for bc in ("none", "homogeneous"):
            for k in range(mesh.dim + 1):
                dA = lad.d_matrix(k) @ lad.abc(k, bc)[0].atlas
                assert complex_rank(mesh, "abc", k, bc) == rank(dA), (bc, k)
                deltaA = lad.delta_matrix(k) @ lad.whitney_star(k, bc).atlas
                assert complex_rank(mesh, "star", k, bc) == rank(deltaA), (bc, k)


class TestOrthogonalDualityInvariant:
    @pytest.mark.parametrize("k,bc", [(0, "none"), (0, "homogeneous"), (1, "none")])
    def test_kernel_is_annihilator_of_adjoint_range(self, k, bc):
        mesh = BOX2
        lad = ladder(mesh)
        pair = whitney_pair(mesh, k, bc)
        g = lad.p0(k).gram
        N_dom = _domain_kernel_p0(lad, k, lad.primal(k), pair.T, pair.domain)
        N_full = broken_kernel_p0(lad, k, lad.primal(k), pair.T)
        R_adj = Subspace.from_span(pair.adjoint_T @ pair.adjoint_domain, g)
        expected = gram_complement(R_adj, N_full, g)
        ok, ang = subspace_equal(N_dom, expected, g, tol=1e-9)
        assert ok, ang


class TestComplexGuard:
    def test_harmonic_space_demands_a_complex(self):
        from padfeec.errors import NotAComplex
        # sabotage: feed the complement machinery a non-nested pair directly
        lad = ladder(BOX2)
        g = lad.p0(1).gram
        A = Subspace.from_span(np.eye(lad.p0(1).dim)[:, :3], g)
        B = Subspace.from_span(np.eye(lad.p0(1).dim)[:, 5:7], g)
        from padfeec.errors import NotNested

        with pytest.raises(NotNested):
            gram_complement(A, B, g)


def _quadratic_conforming_atlas(mesh, broken, bc):
    """Conforming quadratic scalars over a 6-column-per-cell Lagrange broken space."""
    verts = mesh.subsimplices(0)
    edges = mesh.subsimplices(1)
    edge_order = ((0, 1), (0, 2), (1, 2))
    cols = []
    for vid in range(verts.count):
        if bc == "homogeneous" and verts.boundary[vid]:
            continue
        v = verts.simplices[vid][0]
        col = np.zeros(broken.dim)
        for ci, cell in enumerate(mesh.cells):
            if v in cell:
                col[broken.cell_slice(ci).start + cell.index(v)] = 1.0
        cols.append(col)
    for eid in range(edges.count):
        if bc == "homogeneous" and edges.boundary[eid]:
            continue
        a, b = edges.simplices[eid]
        col = np.zeros(broken.dim)
        for ci, cell in enumerate(mesh.cells):
            if a in cell and b in cell:
                pair_local = tuple(sorted((cell.index(a), cell.index(b))))
                col[broken.cell_slice(ci).start + 3 + edge_order.index(pair_local)] = 1.0
        cols.append(col)
    return np.column_stack(cols) if cols else np.zeros((broken.dim, 0))


class _CellSpaces:
    """The block product of one given local space per cell."""

    def __init__(self, spaces):
        self.locals = spaces
        self.offsets = np.concatenate([[0], np.cumsum([sp.dim for sp in spaces])])
        self.dim = int(self.offsets[-1])

    def cell_slice(self, i):
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def gram(self):
        return Gram(np.stack([sp.gram() for sp in self.locals]))


class TestEnhancedFluxSlices:
    def test_slice_infsup_bounded_by_beta(self):
        mesh = BOX2

        def flux_factory(cell):
            return gallery_2d(cell, "P1plus")

        def star_p2_factory(cell):
            sp = gallery_2d(cell, "P2plus")
            sp.basis = sp.basis[:6]
            sp.__post_init__()
            return star_local(sp)

        cells = [mesh.cell_geometry(i) for i in range(mesh.num_cells)]
        flux = _CellSpaces([flux_factory(cell) for cell in cells])
        starq = _CellSpaces([star_p2_factory(cell) for cell in cells])
        B = block_diagonal(
            np.stack([pairing_matrix(p, q) for p, q in zip(flux.locals, starq.locals)])
        )
        A_h0 = _quadratic_conforming_atlas(mesh, starq, "homogeneous")
        A_h = _quadratic_conforming_atlas(mesh, starq, "none")
        # nonconforming flux spaces for both boundary placements
        big = nullspace((B @ A_h0).T / max(np.abs(B).max(), 1.0))
        small = nullspace((B @ A_h).T / max(np.abs(B).max(), 1.0))
        D = block_d_expand(flux.locals, starq.locals)
        g = starq.gram()
        R_big = Subspace.from_span(D @ big.basis, g)
        R_small = Subspace.from_span(D @ small.basis, g)
        dR = gram_complement(R_small, R_big, g)
        # kernel slices of the conjugated gradient on the conforming spaces
        E = D.T  # placeholder shape; kernels come from the energy of delta
        from padfeec.forms import codifferential

        def delta_kernel(atlas):
            cols = []
            for j in range(atlas.shape[1]):
                img = np.zeros(0)
            # delta on the star space equals the conjugated gradient; compute
            # its energy through the broken machinery
            Dd = np.zeros((flux.dim, starq.dim))
            for ci in range(mesh.num_cells):
                src, tgt = starq.locals[ci], flux.locals[ci]
                block = []
                for w in src.basis:
                    block.append(tgt.expand(codifferential(w), tol=1e-7))
                Dd[flux.cell_slice(ci), starq.cell_slice(ci)] = np.column_stack(block)
            img = Dd @ atlas
            ns = nullspace(img / max(np.abs(img).max(), 1e-300))
            return Subspace.from_span(atlas @ ns.basis, g)

        N_big = delta_kernel(A_h)
        N_small = delta_kernel(A_h0)
        dN = gram_complement(N_small, N_big, g)
        assert dR.dim == dN.dim == 1
        # cell-level twisted inf-sup lower bound
        betas = []
        for ci in range(mesh.num_cells):
            dec = decompose_pair(flux.locals[ci], starq.locals[ci])
            _, b, _ = local_constants(dec, flux.locals[ci], starq.locals[ci])
            betas.append(b)
        beta_G = min(betas)
        val = infsup(dR, dN, g)
        assert val >= beta_G - 1e-10


class TestComplexDuality:
    @pytest.mark.parametrize("mesh_name", ["box", "hole"])
    def test_joint_containments(self, mesh_name):
        mesh = BOX2 if mesh_name == "box" else HOLE
        lad = ladder(mesh)
        for bc, star_bc in (("none", "homogeneous"), ("homogeneous", "none")):
            for k in range(mesh.dim - 1):
                # primal chain: image of the lower nonconforming space lies in
                # the kernel of the next derivative
                lo, _ = lad.abc(k, bc)
                hi, _ = lad.abc(k + 1, bc)
                img = lad.d_matrix(k) @ lo.atlas
                DA = lad.d_matrix(k + 1) @ (
                    lad.p0_injection(k + 1) @ img
                )
                primal_contained = np.abs(DA).max(initial=0.0) < 1e-11
                # adjoint chain: image of the conjugated space two levels up
                # lies in the kernel of the next codifferential
                top = lad.whitney_star(k + 2, star_bc)
                img2 = lad.delta_matrix(k + 2) @ top.atlas.toarray()
                DD = lad.delta_matrix(k + 1) @ (
                    lad.p0_injection(k + 1, "dual") @ img2
                )
                adjoint_contained = np.abs(DD).max(initial=0.0) < 1e-11
                assert primal_contained == adjoint_contained == True  # noqa: E712

    def test_pl_duality_top_degree(self):
        # at the top degree the bc-placed harmonic space matches the starred
        # constants, the other one is trivial
        rep = pl_duality_check(BOX2, 2)
        assert rep.passed
        assert rep.lhs_dims == {"abc": 0, "abc0": 1}
        assert rep.identity_angle < 1e-12


class TestConstraintRoutePairOracle:
    """The pair on the compact basis and the partner atlas gives the domain
    indices of the pair on the constraint route's orthonormal atlases."""

    @pytest.mark.parametrize("name", ["box:4", "hole:8", "tetbox:2", "tunnel:4"])
    def test_domain_indices(self, name):
        mesh = _oracle_mesh(name)
        for k in range(mesh.dim):
            rep = base_pair_report(mesh, k)
            for bc in ("none", "homogeneous"):
                new = quantified_crt_check(whitney_pair(mesh, k, bc), rep)
                old = quantified_crt_check(oracles.constraint_route_pair(mesh, k, bc), rep)
                assert new[2] and old[2], (k, bc)
                for a, b in zip(new[:2], old[:2]):
                    assert abs(a - b) <= 1e-10 * b, (k, bc, a, b)

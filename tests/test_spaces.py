import numpy as np
import pytest
import scipy.sparse

from padfeec.errors import ToleranceFailure
from padfeec.forms import CellGeometry, hodge_star, inner_matrix, l2_inner
from padfeec.linalg import Subspace, gram_factor, rank, subspace_equal
from padfeec.local import block_d_expand, pairing_matrix, trimmed_local
from padfeec.mesh import generate_structured
from padfeec.spaces import (
    GlobalSpace,
    abcfes_by_constraints,
    broken_space,
    conforming_whitney,
    d_pairing,
    ladder,
    space_summary,
    star_space,
    verify_trace_continuity,
    whitney_dofs,
)

from oracles import (
    decompose_pair,
    dense_constraints,
    dense_star_atlas,
    dense_whitney_atlas,
    jittered,
    ladder_locals,
    trace_mismatch_all_columns,
)

BOX2 = generate_structured(2, 2)
BOX3 = generate_structured(3, 1)


class TestBrokenSpaces:
    def test_dimension_counts(self):
        lad = ladder(BOX2)
        assert lad.primal(0).dim == 8 * 3
        assert lad.primal(1).dim == 8 * 3
        assert lad.primal(2).dim == 8 * 1
        assert lad.dual(1).dim == 8 * 3
        assert lad.dual(2).dim == 8 * 3
        assert lad.full(1).dim == 8 * 4

    def test_top_degree_has_zero_differential_energy(self):
        lad = ladder(BOX2)
        gs = broken_space(BOX2, 2, "primal")
        # d vanishes identically at the top degree: no admissible image space
        D = lad.d_matrix(2)
        assert not D.toarray().any()

    def test_gram_block_diagonal_spd(self):
        lad = ladder(BOX2)
        G = lad.primal(1).gram().matrix.toarray()
        w = np.linalg.eigvalsh(G)
        assert w[0] > 0

    def test_d_then_d_vanishes(self):
        lad = ladder(BOX2)
        D0 = lad.d_matrix(0)
        D1 = lad.d_matrix(1)
        J = lad.p0_injection(1)
        assert np.abs(D1 @ J @ D0).max() < 1e-13

    def test_projection_of_injection_is_identity(self):
        lad = ladder(BOX2)
        J = lad.p0_injection(1)
        P = lad.p0_projection(1)
        assert np.allclose((P @ J).toarray(), np.eye(lad.p0(1).dim), atol=1e-13)


class TestConformingWhitney:
    def test_vertex_count_no_bc(self):
        gs = conforming_whitney(BOX2, 0, "none")
        assert gs.dim == 9

    def test_interior_edges_with_bc(self):
        gs = conforming_whitney(BOX2, 1, "homogeneous")
        assert gs.dim == 8

    def test_interior_vertex_with_bc_and_gradient_image(self):
        gs = conforming_whitney(BOX2, 0, "homogeneous")
        assert gs.dim == 1
        lad = ladder(BOX2)
        img = lad.d_matrix(0) @ gs.atlas
        assert rank(img) == 1

    @pytest.mark.parametrize("k,bc", [(0, "none"), (0, "homogeneous"), (1, "none"), (1, "homogeneous")])
    def test_trace_continuity(self, k, bc):
        gs = conforming_whitney(BOX2, k, bc)
        assert verify_trace_continuity(gs) < 1e-11

    def test_trace_continuity_3d_edges(self):
        gs = conforming_whitney(BOX3, 1, "none")
        assert gs.dim == BOX3.subsimplices(1).count
        assert verify_trace_continuity(gs) < 1e-11

    @pytest.mark.parametrize("bc", ["none", "homogeneous"])
    @pytest.mark.parametrize("spec", [(2, 2, "box"), (2, 4, "hole"), (3, 1, "box")])
    def test_trace_mismatch_matches_every_column_oracle(self, spec, bc):
        mesh = generate_structured(*spec)
        for k in range(mesh.dim):
            gs = conforming_whitney(mesh, k, bc)
            assert verify_trace_continuity(gs) == trace_mismatch_all_columns(gs), k

    def test_broken_mismatch_matches_every_column_oracle(self):
        # broken columns live on one cell each, so their traces do not match
        gs = broken_space(BOX2, 1, "primal")
        mismatch = verify_trace_continuity(gs)
        assert mismatch > 0.1 and mismatch == trace_mismatch_all_columns(gs)

    def test_trace_check_compares_only_the_columns_of_each_facet(self, monkeypatch):
        from math import comb

        from padfeec import spaces

        calls = []
        trace_on = spaces.trace_on

        def counting(*args):
            calls.append(args)
            return trace_on(*args)

        monkeypatch.setattr(spaces, "trace_on", counting)
        mesh = generate_structured(2, 4)
        gs = conforming_whitney(mesh, 1, "none")
        assert verify_trace_continuity(gs) < 1e-11
        interior = sum(len(owners) == 2 for owners in mesh.subsimplices(1).owners)
        # two triangles sharing an edge hold 3 + 3 - 1 Whitney 1-forms
        pair = 2 * comb(3, 2) - comb(2, 2)
        assert 0 < len(calls) <= 2 * interior * pair


class TestStarSpace:
    def test_dim_and_gram_preserved(self):
        gs = conforming_whitney(BOX2, 0, "homogeneous")
        st = star_space(gs)
        assert st.dim == gs.dim
        assert st.k == 2
        G1 = gs.atlas.T @ gs.broken.gram() @ gs.atlas
        G2 = st.atlas.T @ st.broken.gram() @ st.atlas
        assert np.abs(G1 - G2).max() < 1e-13

    def test_double_star_is_signed_identity(self):
        lad = ladder(BOX2)
        primal, dual = _fresh_locals(BOX2, 1, "primal"), _fresh_locals(BOX2, 1, "dual")
        S1 = star_block_matrix(primal, dual)
        S2 = star_block_matrix(dual, primal)
        sign = (-1.0) ** (1 * (2 - 1))
        assert np.abs(S2 @ S1 - sign * np.eye(lad.primal(1).dim)).max() < 1e-12


class TestAbcByConstraints:
    def test_cr_dimension_with_bc(self):
        gs, _ = abcfes_by_constraints(BOX2, 0, "homogeneous")
        assert gs.dim == 8  # interior edge count
        assert gs.constraint_rank == 16

    def test_k1_dimension_no_bc(self):
        gs, _ = abcfes_by_constraints(BOX2, 1, "none")
        assert gs.dim == 24 - 1
        assert gs.constraint_rank == 1

    def test_top_degree_is_broken_constants(self):
        gs, cons = abcfes_by_constraints(BOX2, 2, "none")
        assert gs.dim == 8
        assert cons.matrix.shape[0] == 0

    def test_conforming_space_embeds(self):
        # conforming members satisfy the nonconforming constraints exactly
        gs, cons = abcfes_by_constraints(BOX2, 0, "none")
        wh = conforming_whitney(BOX2, 0, "none")
        assert np.abs(cons.matrix @ wh.atlas).max() < 1e-12

    def test_complex_property(self):
        lad = ladder(BOX2)
        lower, _ = lad.abc(0, "none")
        upper, cons_upper = lad.abc(1, "none")
        D = lad.d_matrix(0)
        J = lad.p0_injection(1)
        image = J @ D @ lower.atlas
        assert np.abs(cons_upper.matrix @ image).max() < 1e-11

    @pytest.mark.parametrize("weak, ambiguous", [(3e-11, True), (0.0, False)])
    def test_rank_gap_below_1e3_is_ambiguous(self, weak, ambiguous):
        # partner columns a, a + 1e-9 b and a + weak c give constraint rows
        # whose pivoted-QR |diag R| fall to 1e-9 and to `weak` relative (the
        # third is round-off when weak = 0), so the rank cut at 1e-10 sits
        # in a gap of about 30, or of about 5e6
        mesh = generate_structured(2, 2)
        lad = ladder(mesh)
        star = lad.whitney_star(1, "homogeneous")
        a, b, c = star.atlas.toarray()[:, :3].T
        columns = np.column_stack([a, a + 1e-9 * b, a + weak * c])
        lad._cache[("whitney-star", 1, "homogeneous")] = GlobalSpace(star.broken, columns, "star")
        if ambiguous:
            with pytest.raises(ToleranceFailure, match="ambiguous"):
                abcfes_by_constraints(mesh, 0, "none", lad)
        else:
            gs, _ = abcfes_by_constraints(mesh, 0, "none", lad)
            assert gs.constraint_rank == 2 and gs.dim == gs.broken.dim - 2

    @pytest.mark.parametrize("bc", ["none", "homogeneous"])
    def test_exactness_on_contractible_box(self, bc):
        mesh = generate_structured(2, 2)
        lad = ladder(mesh)
        dims_kernel = {}
        dims_range = {0: 0}
        for k in range(0, 3):
            gs, _ = lad.abc(k, bc)
            if k < 2:
                D = lad.d_matrix(k) @ gs.atlas
                dims_kernel[k] = gs.dim - rank(D)
                dims_range[k + 1] = rank(D)
            else:
                dims_kernel[k] = gs.dim
        # constants live at the bottom only when no boundary condition is set
        expected0 = 1 if bc == "none" else 0
        assert dims_kernel[0] - dims_range[0] == expected0
        assert dims_kernel[1] - dims_range[1] == 0


class TestLocalBasisRoute:
    @pytest.mark.parametrize("k,bc", [(0, "none"), (0, "homogeneous"), (1, "none"), (1, "homogeneous"), (2, "none")])
    def test_route_equivalence_box(self, k, bc):
        mesh = BOX2
        lad = ladder(mesh)
        gs, _ = lad.abc(k, bc)
        atlas = lad.abc_atlas(k, bc)
        assert atlas.dim == gs.dim
        A = Subspace.from_span(atlas.matrix(), lad.primal(k).gram())
        Bsub = gs.subspace()
        ok, ang = subspace_equal(A, Bsub, lad.primal(k).gram(), tol=1e-9)
        assert ok, ang

    def test_type_ii_counts_interior_vertex(self):
        # anchor = interior vertex with an m-cell patch: m-1 chained functions
        mesh = BOX2
        atlas = ladder(mesh).abc_atlas(1, "none")
        per_anchor = {}
        for f in atlas.functions:
            if f.category == "type-II":
                per_anchor[f.anchor] = per_anchor.get(f.anchor, 0) + 1
        verts = mesh.subsimplices(0)
        interior = [v for i, v in enumerate(verts.simplices) if not verts.boundary[i]]
        assert len(interior) == 1
        v = interior[0]
        m = len(mesh.vertex_patch(v[0]).cells)
        assert per_anchor[("subsimplex", v)] == m - 1

    def test_type_ii_supports_are_two_adjacent_cells(self):
        mesh = BOX2
        lad = ladder(mesh)
        atlas = lad.abc_atlas(1, "none")
        br = lad.primal(1)
        for f in atlas.functions:
            if f.category != "type-II":
                continue
            cells = [
                ci
                for ci in range(mesh.num_cells)
                if np.abs(f.vector[br.cell_slice(ci)]).max() > 1e-12
            ]
            assert len(cells) == 2
            shared = set(mesh.cells[cells[0]]) & set(mesh.cells[cells[1]])
            assert len(shared) == 2  # sharing an edge

    def test_dependent_partner_restrictions_are_refused(self):
        from padfeec.errors import AssumptionViolation

        lad = ladder(generate_structured(2, 2))
        dec = lad.local_decompositions(0)[3]
        # with cell 3's twisted part zeroed, its partner functionals restricted to it vanish
        dec.PB = Subspace(dec.PB.ambient_dim, np.zeros_like(dec.PB.basis), dec.PB.gram)
        with pytest.raises(AssumptionViolation, match="dependent on cell 3"):
            lad.abc_atlas(0, "none")

    def test_route_equivalence_3d(self):
        mesh = BOX3
        lad = ladder(mesh)
        for k in (0, 1, 2):
            gs, _ = lad.abc(k, "none")
            atlas = lad.abc_atlas(k, "none")
            assert atlas.dim == gs.dim
            A = Subspace.from_span(atlas.matrix(), lad.primal(k).gram())
            ok, ang = subspace_equal(A, gs.subspace(), lad.primal(k).gram(), tol=1e-9)
            assert ok, ang


class TestSummary:
    def test_summary_fields(self):
        mesh = BOX2
        lad = ladder(mesh)
        gs, _ = lad.abc(0, "homogeneous")
        atlas = lad.abc_atlas(0, "homogeneous")
        s = space_summary(gs, atlas)
        assert s["dim"] == 8
        assert s["type_I_count"] + s["type_II_count"] == 8


class TestEnergyGram:
    def test_top_degree_energy_gram_is_zero(self):
        gs = broken_space(BOX2, 2, "primal")
        lad = ladder(BOX2)
        DA = lad.d_matrix(2) @ gs.atlas
        assert not (DA.T @ lad.p0(3).gram @ DA).toarray().any()

    def test_gradient_energy_positive_semidefinite(self):
        gs = conforming_whitney(BOX2, 0, "none")
        lad = ladder(BOX2)
        DA = lad.d_matrix(0) @ gs.atlas.toarray()
        E = DA.T @ lad.p0(1).gram @ DA
        w = np.linalg.eigvalsh(E)
        assert w[0] > -1e-12
        assert w[-1] > 0


class TestExactness3D:
    def test_contractible_tet_box(self):
        mesh = generate_structured(3, 1)
        lad = ladder(mesh)
        kernels, ranges = {}, {0: 0}
        for k in range(4):
            gs, _ = lad.abc(k, "none")
            if k < 3:
                D = lad.d_matrix(k) @ gs.atlas
                kernels[k] = gs.dim - rank(D)
                ranges[k + 1] = rank(D)
            else:
                kernels[k] = gs.dim
        assert kernels[0] - ranges[0] == 1  # constants
        assert kernels[1] - ranges[1] == 0
        assert kernels[2] - ranges[2] == 0


class TestLadderOwnership:
    def test_ladder_and_interpolator_freed_with_mesh(self):
        import gc
        import weakref

        from padfeec.interp import global_interpolator

        mesh = generate_structured(2, 2)
        ref = weakref.ref(mesh)
        assert ladder(mesh) is ladder(mesh)
        assert global_interpolator(mesh, 0) is global_interpolator(mesh, 0)
        del mesh
        gc.collect()
        assert ref() is None

    def test_suite_builds_one_ladder_per_mesh_spec(self, monkeypatch):
        from padfeec import cli, spaces
        from padfeec.report import RunConfig

        built = []
        init = spaces.DeRhamLadder.__init__

        def counted(self, mesh):
            built.append(mesh)
            init(self, mesh)

        monkeypatch.setattr(spaces.DeRhamLadder, "__init__", counted)
        report = cli.run(RunConfig("suite all").validate(), fast=True)
        assert report.all_passed
        assert len(built) == 3


    def test_suite_frees_each_mesh_before_the_next(self, monkeypatch):
        # a mesh and its ladder form a reference cycle; with little other
        # allocation the collector might not free it before the next spec
        import weakref

        from padfeec import cli
        from padfeec.report import RunConfig

        alive = []
        parse = cli.parse_mesh

        def tracked(cfg):
            assert all(ref() is None for ref in alive)
            mesh = parse(cfg)
            alive.append(weakref.ref(mesh))
            return mesh

        monkeypatch.setattr(cli, "parse_mesh", tracked)
        assert cli.run(RunConfig("suite all").validate(), fast=True).all_passed
        assert len(alive) == 3

    def test_suite_collects_only_when_a_mesh_is_done(self, monkeypatch):
        import gc

        from padfeec import cli
        from padfeec.report import RunConfig

        collections, frozen = [], []
        complex_job = cli.cmd_verify_complex

        def counting(*args):
            frozen.append(gc.get_freeze_count())
            return complex_job(*args)

        monkeypatch.setattr(gc, "collect", lambda *args: collections.append(args) or 0)
        monkeypatch.setattr(cli, "cmd_verify_complex", counting)
        assert cli.run(RunConfig("suite all").validate(), fast=True).all_passed
        # three mesh specs, so two switches with a mesh to free; the jobs run
        # with the objects alive before the loop frozen, and none stay frozen
        assert len(collections) == 2
        assert len(frozen) == 3 and min(frozen) > 0
        assert gc.get_freeze_count() == 0

    def test_suite_unfreezes_the_collector_when_a_job_raises(self, monkeypatch):
        import gc

        from padfeec import cli
        from padfeec.report import RunConfig

        def broken(*args):
            raise RuntimeError("not a padfeec error")

        monkeypatch.setattr(cli, "cmd_verify_complex", broken)
        with pytest.raises(RuntimeError, match="not a padfeec error"):
            cli.run(RunConfig("suite all").validate(), fast=True)
        assert gc.get_freeze_count() == 0


class TestLadderOperators:
    @pytest.mark.parametrize("mesh", [BOX2, BOX3], ids=["box:2", "tetbox:1"])
    @pytest.mark.parametrize("family", ["primal", "dual", "full"])
    def test_p0_projection_inverts_injection(self, mesh, family):
        lad = ladder(mesh)
        for k in range(mesh.dim + 1):
            J = lad.p0_injection(k, family)
            P = lad.p0_projection(k, family)
            dims = (lad.p0(k).dim, lad.broken(k, family).dim)
            assert P.shape == dims and J.shape == dims[::-1]
            assert np.allclose((P @ J).toarray(), np.eye(dims[0]), atol=1e-13)
            assert lad.p0_projection(k, family) is P

    @pytest.mark.parametrize("family", ["primal", "dual", "full"])
    def test_d_and_delta_land_in_constants_of_the_next_degree(self, family):
        lad = ladder(BOX2)
        for k in range(3):
            assert lad.d_matrix(k, family).shape == (lad.p0(k + 1).dim, lad.broken(k, family).dim)
            assert lad.delta_matrix(k, family).shape == (
                lad.p0(k - 1).dim,
                lad.broken(k, family).dim,
            )
        assert lad.d_matrix(2, family).shape[0] == 0
        assert lad.delta_matrix(0, family).shape[0] == 0

    def test_unknown_family_refused(self):
        from padfeec.errors import InvalidParameter

        with pytest.raises(InvalidParameter):
            ladder(BOX2).d_matrix(0, "whitney")

    def test_interpolator_reuses_the_cell_decompositions(self, monkeypatch):
        import padfeec
        from padfeec import local
        from padfeec.interp import global_interpolator

        calls = []
        original = local.decompose_local

        def counted(Mp, *stacks):
            calls.extend(range(len(Mp.stack)))
            return original(Mp, *stacks)

        # patch every module-level binding of the function
        for name in dir(padfeec):
            module = getattr(padfeec, name)
            if getattr(module, "decompose_local", None) is original:
                monkeypatch.setattr(module, "decompose_local", counted)
        mesh = generate_structured(2, 2)
        ladder(mesh).abc_atlas(0)
        global_interpolator(mesh, 0)
        assert len(calls) == mesh.num_cells


# -- cellwise operators against freshly built local spaces ------------------------
#
# The ladder builds every cellwise operator from reference blocks and per-mesh
# geometry arrays; the oracle builds each cell's trimmed local space anew and
# integrates with the PolyForm algebra (inner_matrix, pairing_matrix, expand).
# The two routes share no arithmetic, so they agree to round-off, compared
# relative to the oracle's largest entry.

GRAM_RTOL = 1e-13
ATLAS_RTOL = 1e-11


def _fresh_cells(mesh):
    """Every cell's geometry, built from the vertices outside the mesh's cache."""
    return [CellGeometry(mesh.vertices[list(cell)]) for cell in mesh.cells]


def _fresh_locals(mesh, k, family, cells=None):
    """Every cell's trimmed local space, built outside the ladder."""
    return [trimmed_local(geo, k, family) for geo in cells or _fresh_cells(mesh)]


def _dense_blocks(blocks):
    return scipy.sparse.block_diag(blocks).toarray()


def _rel_error(actual, expected):
    actual = actual.toarray() if scipy.sparse.issparse(actual) else np.asarray(actual)
    scale = max(np.abs(expected).max(initial=0.0), 1e-300)
    return float(np.abs(actual - expected).max(initial=0.0)) / scale


def star_block_matrix(sources, targets):
    """Cellwise Hodge star between two lists of local spaces, by expansion."""
    return _dense_blocks([
        np.column_stack([tgt.expand(hodge_star(w)) for w in src.basis])
        for src, tgt in zip(sources, targets)
    ])


def _gram_errors(mesh):
    """Largest relative gap of the ladder's Grams, energy Grams and pairings."""
    lad = ladder(mesh)
    cells = _fresh_cells(mesh)
    worst = 0.0
    for k in range(mesh.dim + 1):
        for family in ("primal", "dual", "full"):
            fresh, broken = _fresh_locals(mesh, k, family, cells), lad.broken(k, family)
            expected = _dense_blocks([inner_matrix(sp.basis, sp.basis, sp.cell) for sp in fresh])
            worst = max(worst, _rel_error(broken.gram().matrix, expected))
            energy = _dense_blocks([sp.energy_gram() for sp in fresh])
            if energy.any():
                ladder_energy = _dense_blocks(list(broken.energy_blocks()))
                worst = max(worst, _rel_error(ladder_energy, energy))
        if k < mesh.dim:
            duals = _fresh_locals(mesh, k + 1, "dual", cells)
            for family in ("primal", "full"):
                fresh = _fresh_locals(mesh, k, family, cells)
                expected = _dense_blocks([pairing_matrix(p, q) for p, q in zip(fresh, duals)])
                B = lad.pairing(k) if family == "primal" else d_pairing(lad.full(k), lad.dual(k + 1))
                worst = max(worst, _rel_error(B, expected))
    return worst


def _star_errors(mesh):
    """Largest relative gap of each starred Whitney atlas from the expanded star."""
    lad = ladder(mesh)
    n = mesh.dim
    worst = 0.0
    for k in range(n + 1):
        for bc in ("none", "homogeneous"):
            source = lad.whitney(n - k, bc)
            S = star_block_matrix(_fresh_locals(mesh, n - k, "primal"), _fresh_locals(mesh, k, "dual"))
            worst = max(worst, _rel_error(lad.whitney_star(k, bc).atlas, S @ source.atlas))
    return worst


def _old_p0_star(p0):
    from padfeec.forms import multiindices, star_sign

    n = p0.mesh.dim
    target = multiindices(n - p0.k, n)
    pos = {m: i for i, m in enumerate(target)}
    S = np.zeros((len(target) * p0.mesh.num_cells, p0.dim))
    for ci in range(p0.mesh.num_cells):
        for mi, m in enumerate(p0.midx):
            sign, comp = star_sign(m, n)
            S[ci * len(target) + pos[comp], ci * p0.ncomp + mi] = sign
    return S


def _constant_images(locals_, target_degree, n, op):
    """Coefficients of the constant d or delta images, one block per cell."""
    from padfeec.forms import multiindices

    midx = multiindices(target_degree, n) if 0 <= target_degree <= n else ()
    blocks = []
    for sp in locals_:
        block = np.zeros((len(midx), sp.dim))
        for j, w in enumerate(sp.basis):
            if not midx:
                continue
            image = op(w)
            assert image.poly_degree() == 0
            for (_, m), c in image.terms.items():
                block[midx.index(m), j] = c
        blocks.append(block)
    return _dense_blocks(blocks)


def _p0_projection(locals_, k, n):
    from padfeec.forms import PolyForm, multiindices

    units = [PolyForm.basis_form(n, m) for m in multiindices(k, n)]
    return _dense_blocks([
        np.array([[l2_inner(u, w, sp.cell) / sp.cell.volume for w in sp.basis] for u in units])
        for sp in locals_
    ])


def _old_projectivity(mesh, k):
    from padfeec.interp import global_interpolator, interpolate_local

    I = global_interpolator(mesh, k)
    J = np.zeros((I.broken.dim, I.broken.dim))
    for ci, spec in enumerate(I.specs):
        s = I.broken.cell_slice(ci)
        J[s, s] = np.column_stack([interpolate_local(spec, b) for b in spec.primal.basis])
    return J


ORACLE_MESHES = {
    "box:2": lambda: generate_structured(2, 2),
    "hole:4": lambda: generate_structured(2, 4, "hole"),
    "tetbox:1": lambda: generate_structured(3, 1),
}

# structured meshes have few distinct cell shapes; with jitter every cell differs
OPERATOR_MESHES = {
    **ORACLE_MESHES,
    "box:4-jittered": lambda: jittered(generate_structured(2, 4), 7, 0.04),
    "tetbox:1-jittered": lambda: jittered(generate_structured(3, 1), 8, 0.1, everywhere=True),
}


def _assert_cellwise(op, rows, cols):
    """``op`` is stored sparse, with no more entries than its cell blocks hold.

    ``rows`` and ``cols`` are the per-cell block heights and widths.
    """
    assert scipy.sparse.issparse(op)
    assert op.nnz <= sum(r * c for r, c in zip(rows, cols))


def _p0_blocks(p0):
    return [p0.ncomp] * p0.mesh.num_cells


class TestBlockAssemblyOracle:
    """Each cellwise operator matches the per-cell PolyForm route at round-off."""

    @pytest.fixture(scope="class", params=list(OPERATOR_MESHES))
    def mesh(self, request):
        return OPERATOR_MESHES[request.param]()

    def test_grams_and_pairings(self, mesh):
        lad = ladder(mesh)
        for k in range(mesh.dim + 1):
            for family in ("primal", "dual", "full"):
                broken = lad.broken(k, family)
                _assert_cellwise(broken.gram().matrix, broken.block_dims, broken.block_dims)
            if k < mesh.dim:
                primal, dual = lad.primal(k), lad.dual(k + 1)
                _assert_cellwise(lad.pairing(k), primal.block_dims, dual.block_dims)
        assert _gram_errors(mesh) <= GRAM_RTOL

    def test_star_matrices_and_d_expansion(self, mesh):
        from padfeec.forms import exterior_derivative

        lad = ladder(mesh)
        n = mesh.dim
        for k in range(n + 1):
            p0 = lad.p0(k)
            _assert_cellwise(p0.star_matrix(), _p0_blocks(lad.p0(n - k)), _p0_blocks(p0))
            # a signed permutation: no arithmetic, so equal to the bit
            assert np.array_equal(p0.star_matrix().toarray(), _old_p0_star(p0))
            if k < n:
                source, target = lad.primal(k), lad.primal(k + 1)
                d = block_d_expand(ladder_locals(source), ladder_locals(target))
                _assert_cellwise(d, target.block_dims, source.block_dims)
                fresh_s, fresh_t = _fresh_locals(mesh, k, "primal"), _fresh_locals(mesh, k + 1, "primal")
                expected = _dense_blocks([
                    np.column_stack([t.expand(exterior_derivative(w)) for w in s.basis])
                    for s, t in zip(fresh_s, fresh_t)
                ])
                assert _rel_error(d, expected) <= GRAM_RTOL
        assert _star_errors(mesh) <= GRAM_RTOL

    @pytest.mark.parametrize("family", ["primal", "dual", "full"])
    def test_d_delta_and_p0_maps(self, mesh, family):
        from padfeec.forms import codifferential, exterior_derivative

        lad = ladder(mesh)
        n = mesh.dim
        for k in range(n + 1):
            broken, p0 = lad.broken(k, family), lad.p0(k)
            blocks = broken.block_dims
            for op, target in ((lad.d_matrix(k, family), k + 1), (lad.delta_matrix(k, family), k - 1)):
                height = lad.p0(target).ncomp if 0 <= target <= n else 0
                _assert_cellwise(op, [height] * mesh.num_cells, blocks)
            _assert_cellwise(lad.p0_injection(k, family), blocks, _p0_blocks(p0))
            _assert_cellwise(lad.p0_projection(k, family), _p0_blocks(p0), blocks)
            fresh = _fresh_locals(mesh, k, family)
            d = _constant_images(fresh, k + 1, n, exterior_derivative)
            delta = _constant_images(fresh, k - 1, n, codifferential)
            assert lad.d_matrix(k, family).shape == d.shape
            assert lad.delta_matrix(k, family).shape == delta.shape
            if d.size:
                assert _rel_error(lad.d_matrix(k, family), d) <= GRAM_RTOL
            if delta.size:
                assert _rel_error(lad.delta_matrix(k, family), delta) <= GRAM_RTOL
            P = _p0_projection(fresh, k, n)
            assert _rel_error(lad.p0_projection(k, family), P) <= GRAM_RTOL
            # the constants are the leading members of every local basis
            J = _dense_blocks([np.eye(sp.dim, p0.ncomp) for sp in fresh])
            assert np.array_equal(lad.p0_injection(k, family).toarray(), J)

    def test_projectivity_matrix(self, mesh):
        from padfeec.interp import projectivity_matrix

        for k in range(mesh.dim + 1):
            J = projectivity_matrix(mesh, k)
            blocks = ladder(mesh).primal(k).block_dims
            _assert_cellwise(J, blocks, blocks)
            assert np.array_equal(J.toarray(), _old_projectivity(mesh, k))

    def test_local_decompositions(self, mesh):
        # every part of the batched cell decompositions spans what the
        # decomposition of freshly built trimmed local spaces spans, in a
        # basis orthonormal in the cell's Gram
        from padfeec.local import LocalSpace

        lad = ladder(mesh)
        cells = _fresh_cells(mesh)
        parts = ("P0", "ring_P0", "P0_perp", "PB", "ring_PB", "dual_P0", "dual_PB", "dual_ring_PB")
        for k in range(mesh.dim + 1):
            primals = _fresh_locals(mesh, k, "primal", cells)
            if k < mesh.dim:
                duals = _fresh_locals(mesh, k + 1, "dual", cells)
            else:
                duals = [LocalSpace(cell, k + 1, [], op="delta") for cell in cells]
            for dec, p, q in zip(lad.local_decompositions(k), primals, duals):
                fresh = decompose_pair(p, q)
                for part in parts:
                    got, want = getattr(dec, part), getattr(fresh, part)
                    ok, angle = subspace_equal(got, want, want.gram, tol=1e-10)
                    assert ok, (k, part, got.dim, want.dim, angle)
                    # orthonormal in the cell's own Gram, not another cell's
                    assert _orthonormality_defect(got.basis, want.gram) <= ATLAS_RTOL, (k, part)

    def test_p0_gram_is_the_diagonal_of_volumes(self, mesh):
        lad = ladder(mesh)
        for k in range(mesh.dim + 1):
            p0 = lad.p0(k)
            _assert_cellwise(p0.gram.matrix, [1] * p0.dim, [1] * p0.dim)
            assert np.array_equal(p0.gram.matrix.diagonal(), np.repeat(p0.volumes, p0.ncomp))


class TestOracleSeesMappingErrors:
    """The oracle comparisons fail on the mapping errors they are meant to catch."""

    @pytest.mark.parametrize("name", ["box:4-jittered", "tetbox:1-jittered"])
    def test_uncentred_second_moments_fail(self, name):
        mesh = OPERATOR_MESHES[name]()
        geo = ladder(mesh).geometry
        # moments about the origin instead of the centroid: Sigma + vol c c^T
        c = geo.centroids
        geo.second_moments = geo.second_moments + geo.volumes[:, None, None] * (
            c[:, :, None] * c[:, None, :]
        )
        assert _gram_errors(mesh) > 1e-3

    @pytest.mark.parametrize("name", ["box:4-jittered", "tetbox:1-jittered"])
    def test_sign_flipped_star_block_fails(self, name, monkeypatch):
        from padfeec import spaces

        original = spaces.reference_star

        def flipped(n, k):
            S = original(n, k).copy()
            S[-1] *= -1.0  # the last Koszul (or constant) member changes sign
            return S

        monkeypatch.setattr(spaces, "reference_star", flipped)
        assert _star_errors(OPERATOR_MESHES[name]()) > 1.0


class TestHodgeWithoutL2Inner:
    def test_solve_hodge_passes_with_l2_inner_raising(self, monkeypatch, capsys):
        # no operator of the Hodge schemes may go through the dict algebra
        import importlib
        import json

        from padfeec.cli import main

        def refuse(*args, **kwargs):
            raise AssertionError("l2_inner reached")

        names = ("forms", "linalg", "local", "mesh", "spaces", "adjoint", "interp", "solve", "cli")
        modules = [importlib.import_module("padfeec." + name) for name in names]
        original = modules[0].l2_inner
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, refuse)
        # the patch is live: the PolyForm route does reach it
        cell = CellGeometry([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(AssertionError, match="l2_inner reached"):
            trimmed_local(cell, 1, "primal").gram()
        code = main([
            "solve", "hodge", "--mesh", "box:2", "--k", "1", "--scheme", "all",
            "--check-equivalence",
        ])
        records = json.loads(capsys.readouterr().out)["records"]
        assert code == 0 and len(records) == 5
        assert all(r["verdict"] == "pass" for r in records), records


class TestGramsFactoredOnce:
    def test_suite_factors_each_gram_once(self, monkeypatch, capsys):
        # every (cells, m, m) stack that is factored is the stack of a Gram,
        # which factors it once and hands its stacked factor to the batched
        # cell passes: over the jobs of `suite all --fast` (box:4 among them)
        # no Gram is factored twice and no pass factors a stack itself
        import json

        from padfeec import linalg
        from padfeec.cli import main
        from padfeec.linalg import Gram

        grams = []  # every Gram built; the list keeps each alive, so ids stay distinct
        stacks = []  # every stack that reaches dense_factor
        init, factor = Gram.__init__, linalg.dense_factor

        def counting_init(self, stack):
            grams.append(self)
            init(self, stack)

        def counting_factor(G):
            if G.ndim == 3:
                stacks.append(G)
            return factor(G)

        monkeypatch.setattr(Gram, "__init__", counting_init)
        monkeypatch.setattr(linalg, "dense_factor", counting_factor)
        assert main(["suite", "all", "--fast"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert records and all(r["verdict"] == "pass" for r in records)
        owners = [next((g for g in grams if g.stack is G), None) for G in stacks]
        assert all(g is not None for g in owners), "a stack factored outside a Gram"
        factored = {id(g) for g in owners}
        assert len(stacks) == len(factored) >= 20, (len(stacks), len(factored))


class TestRuntimeWithoutLocalSpace:
    def test_suite_and_interp_pass_with_local_space_refused(self, monkeypatch, capsys):
        # no runtime path may build a cell's LocalSpace: every cellwise array
        # comes from the reference blocks and the mesh geometry
        import importlib
        import json

        from padfeec import local
        from padfeec.cli import main

        class Refused:
            def __init__(self, *args, **kwargs):
                raise AssertionError("LocalSpace built")

        names = ("forms", "linalg", "local", "mesh", "spaces", "adjoint", "interp", "solve", "cli")
        original = local.LocalSpace
        for module in (importlib.import_module("padfeec." + name) for name in names):
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, Refused)
        # the patch is live: the oracle route does build one
        cell = CellGeometry([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(AssertionError, match="LocalSpace built"):
            trimmed_local(cell, 1, "primal")
        interp = ["verify", "interp", "--mesh", "box:8", "--k", "0"]
        for argv in (["suite", "all", "--fast"], interp):
            code = main(argv)
            records = json.loads(capsys.readouterr().out)["records"]
            assert code == 0 and records, argv
            assert all(r["verdict"] == "pass" for r in records), records


# -- sub-simplex owners against the cell scan they replaced -----------------------


def _scanned_owners(mesh, table):
    return [
        [(ci, tuple(cell.index(v) for v in sub)) for ci, cell in enumerate(mesh.cells)
         if set(sub) <= set(cell)]
        for sub in table.simplices
    ]


def _scanned_whitney_atlas(mesh, k, bc):
    """Whitney atlas by a scan of all cells, each form expanded in a fresh local space."""
    from padfeec.local import whitney_form

    broken = ladder(mesh).primal(k)
    fresh = _fresh_locals(mesh, k, "primal")
    table = mesh.subsimplices(k)
    order = sorted(range(table.count), key=lambda i: table.simplices[i])
    dofs = [i for i in order if bc == "none" or not table.boundary[i]]
    A = np.zeros((broken.dim, len(dofs)))
    for col, sid in enumerate(dofs):
        sub = table.simplices[sid]
        for ci, cell in enumerate(mesh.cells):
            if not set(sub) <= set(cell):
                continue
            w = whitney_form(fresh[ci].cell, [cell.index(v) for v in sub])
            A[broken.cell_slice(ci), col] = fresh[ci].expand(w)
    return A


INCIDENCE_MESHES = {
    "box:4": lambda: generate_structured(2, 4),
    "hole:8": lambda: generate_structured(2, 8, "hole"),
    "tetbox:2": lambda: generate_structured(3, 2),
    "box:4-jittered": OPERATOR_MESHES["box:4-jittered"],
    "tetbox:1-jittered": OPERATOR_MESHES["tetbox:1-jittered"],
}


class TestIncidenceOracle:
    """Owner tables reproduce the cell scans, and so do the atlases read from them."""

    @pytest.fixture(scope="class", params=list(INCIDENCE_MESHES))
    def meshes(self, request):
        build = INCIDENCE_MESHES[request.param]
        mesh, scanned = build(), build()
        # the reference mesh answers every owner query by the old cell scan
        for k in range(scanned.dim + 1):
            table = scanned.subsimplices(k)
            table.owners = _scanned_owners(scanned, table)
        return mesh, scanned

    def test_owners_match_cell_scan(self, meshes):
        mesh, scanned = meshes
        for k in range(mesh.dim + 1):
            assert mesh.subsimplices(k).owners == scanned.subsimplices(k).owners
        for v in range(mesh.num_vertices):
            cells = [ci for ci, cell in enumerate(mesh.cells) if v in cell]
            if mesh.dim == 2 and len(cells) > 1:
                cells = mesh._order_patch(v, cells)
            assert mesh.vertex_patch(v).cells == cells

    @pytest.mark.parametrize("bc", ["none", "homogeneous"])
    def test_atlases_match_cell_scan(self, meshes, bc):
        mesh, scanned = meshes
        lad, ref = ladder(mesh), ladder(scanned)
        for k in range(mesh.dim + 1):
            expected = _scanned_whitney_atlas(mesh, k, bc)
            assert lad.whitney(k, bc).atlas.shape == expected.shape
            assert _rel_error(lad.whitney(k, bc).atlas, expected) <= ATLAS_RTOL
            # both ladders take the same arithmetic; only their owner tables differ
            assert np.array_equal(
                lad.abc_atlas(k, bc).matrix(), ref.abc_atlas(k, bc).matrix()
            )


# -- Gram-orthonormal constraint bases against orthonormalizing the nullspace ------


def _old_route(C, gram):
    from padfeec.linalg import nullspace, orthonormalize

    return orthonormalize(nullspace(C).basis, gram)


def _largest_angle(A, B, gram):
    from padfeec.linalg import principal_angles

    n = A.shape[0]
    angles = principal_angles(Subspace(n, A, gram), Subspace(n, B, gram), gram)
    return float(angles.max(initial=0.0))


def _orthonormality_defect(A, gram):
    return float(np.abs(A.T @ gram @ A - np.eye(A.shape[1])).max(initial=0.0))


class TestGramOrthonormalConstraintBases:
    """R^-1 nullspace(C R^-1) spans what orthonormalize(nullspace(C)) spans."""

    @pytest.fixture(scope="class", params=list(ORACLE_MESHES))
    def mesh(self, request):
        return ORACLE_MESHES[request.param]()

    @pytest.mark.parametrize("bc", ["none", "homogeneous"])
    def test_abc_atlas(self, mesh, bc):
        lad = ladder(mesh)
        for k in range(mesh.dim):
            gs, cons = lad.abc(k, bc)
            G = gs.broken.gram()
            old = _old_route(cons.matrix, G)
            assert gs.dim == old.shape[1]
            assert gs.constraint_rank == gs.broken.dim - old.shape[1]
            assert _largest_angle(gs.atlas, old, G) <= 1e-10
            assert _orthonormality_defect(gs.atlas, G) <= 1e-12

    def test_one_field_constraints(self, mesh):
        # the bordered one-field system is nonsingular only if its constraint
        # rows C have full rank, and its solution lies in their kernel
        from padfeec.solve import _mixed_constraints, p0_moments, random_polynomial_load, solve_hodge

        lad = ladder(mesh)
        for k in range(1, mesh.dim):
            C = _mixed_constraints(lad, k)
            C = C.toarray() if scipy.sparse.issparse(C) else C
            s = np.linalg.svd(C, compute_uv=False)
            assert C.shape[0] <= C.shape[1] and s[-1] > 1e-3 * s[0]
            F = p0_moments(mesh, k, random_polynomial_load(mesh, k, seed=41))
            omega = solve_hodge(mesh, k, F, "lowest_primal").components["omega_broken"]
            assert np.linalg.norm(omega) > 0.0
            assert np.linalg.norm(C @ omega) <= 1e-12 * s[0] * np.linalg.norm(omega)

    def test_factor_inverse_whitens_every_gram(self, mesh):
        lad = ladder(mesh)
        for k in range(mesh.dim + 1):
            for family in ("primal", "dual", "full"):
                broken = lad.broken(k, family)
                Rinv = gram_factor(broken.gram())[1]
                _assert_cellwise(Rinv, broken.block_dims, broken.block_dims)
                assert _orthonormality_defect(Rinv.toarray(), broken.gram()) <= 1e-12

    def test_factor_inverse_matches_the_cell_loop(self, mesh):
        # reference: one Cholesky factor and triangular inverse per cell
        import scipy.linalg

        lad = ladder(mesh)
        for k in range(mesh.dim + 1):
            broken = lad.broken(k, "full")
            ref = [
                scipy.linalg.solve_triangular(scipy.linalg.cholesky(sp.gram()), np.eye(sp.dim))
                for sp in ladder_locals(broken)
            ]
            Rinv = gram_factor(broken.gram())[1]
            for i, block in enumerate(ref):
                cells = broken.cell_slice(i)
                np.testing.assert_array_equal(Rinv[cells, cells].toarray(), block)


# -- CSC atlases and constraints against the dense cell-block writes ------------

SPARSE_ATLAS_MESHES = {
    "box:2": lambda: generate_structured(2, 2),
    "box:4": lambda: generate_structured(2, 4),
    "hole:4": lambda: generate_structured(2, 4, "hole"),
    "tetbox:1": lambda: generate_structured(3, 1),
    "tetbox:2": lambda: generate_structured(3, 2),
    "tunnel:4": lambda: generate_structured(3, 4, "tunnel"),
}


class TestSparseAtlasesMatchDenseWrites:
    """The CSC Whitney and starred atlases and the CSR constraints equal the dense writes."""

    @pytest.fixture(scope="class", params=list(SPARSE_ATLAS_MESHES))
    def mesh(self, request):
        return SPARSE_ATLAS_MESHES[request.param]()

    @pytest.mark.parametrize("bc", ["none", "homogeneous"])
    def test_whitney_and_star_atlases_are_the_dense_ones(self, mesh, bc):
        lad, n = ladder(mesh), mesh.dim
        for k in range(n + 1):
            table = mesh.subsimplices(k)
            whitney, star = lad.whitney(k, bc), lad.whitney_star(n - k, bc)
            anchors = [table.simplices[sid] for sid in whitney_dofs(mesh, k, bc)]
            assert whitney.atlas.format == "csc" and star.atlas.format == "csc"
            assert whitney.anchors == anchors and star.anchors == anchors
            assert np.array_equal(whitney.atlas.toarray(), dense_whitney_atlas(mesh, k, bc))
            assert np.array_equal(star.atlas.toarray(), dense_star_atlas(mesh, n - k, bc))

    @pytest.mark.parametrize("bc", ["none", "homogeneous"])
    def test_constraints_are_the_dense_ones(self, mesh, bc):
        lad = ladder(mesh)
        for k in range(mesh.dim + 1):
            C, expected = lad.abc_constraints(k, bc), dense_constraints(mesh, k, bc)
            assert C.format == "csr" and C.shape == expected.shape
            scale = np.abs(expected).max(initial=0.0)
            assert np.abs(C.toarray() - expected).max(initial=0.0) <= 1e-15 * scale


class TestCompactBasesWithoutDenseAtlas:
    def test_box16_builds_allocate_less_than_one_dense_partner_atlas(self):
        # the dense partner atlas of abc_atlas(0, "none") on box:16 is
        # 1536 x 736 float64, 9.0 MB; the sparse builds stay well below it
        import tracemalloc

        mesh = generate_structured(2, 16)
        lad = ladder(mesh)
        tracemalloc.start()
        try:
            lad.abc_basis(0, "none")
            lad.star_basis(1, "homogeneous")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lad.partner(0, "none").atlas.shape == (1536, 736)
        assert peak < 1536 * 736 * 8


class TestSparseIdentityAtlases:
    def test_box16_broken_space_allocates_less_than_one_megabyte(self):
        # the dense identity atlas of the broken 1-forms on box:16 is
        # 1536 x 1536 float64, 18.9 MB
        import tracemalloc

        mesh = generate_structured(2, 16)
        tracemalloc.start()
        try:
            gs = broken_space(mesh, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gs.dim == 1536 and scipy.sparse.issparse(gs.atlas)
        assert peak < 2**20

    def test_top_degree_constraint_atlas_is_a_sparse_identity(self):
        gs, cons = abcfes_by_constraints(BOX2, 2, "none")
        assert scipy.sparse.issparse(gs.atlas)
        assert np.array_equal(gs.atlas.toarray(), np.eye(8))
        assert cons.matrix.shape == (0, 8)

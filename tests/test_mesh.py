import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padfeec.cli import main
from padfeec.errors import InvalidParameter, MeshError, Unsupported
from padfeec.mesh import (
    Mesh,
    generate_structured,
    refine_uniform,
    shape_report,
)

from oracles import boundary_matrix_by_loop, canonically_equal


class TestGeneration:
    def test_counts_n2(self):
        m = generate_structured(2, 2)
        assert m.num_vertices == 9
        assert m.num_cells == 8
        assert m.subsimplices(1).count == 16
        verts = m.subsimplices(0)
        assert sum(not b for b in verts.boundary) == 1

    def test_counts_n1(self):
        m = generate_structured(2, 1)
        assert m.num_vertices == 4
        assert m.num_cells == 2
        assert m.subsimplices(1).count == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_formulas(self, n):
        m = generate_structured(2, n)
        assert m.num_vertices == (n + 1) ** 2
        assert m.num_cells == 2 * n * n
        assert m.subsimplices(1).count == 3 * n * n + 2 * n

    def test_hole_euler_characteristic(self):
        m = generate_structured(2, 4, domain="hole")
        V = m.subsimplices(0).count
        E = m.subsimplices(1).count
        F = m.num_cells
        assert V - E + F == 0  # annulus

    def test_box_euler_characteristic(self):
        m = generate_structured(2, 3)
        assert m.subsimplices(0).count - m.subsimplices(1).count + m.num_cells == 1

    def test_hole_needs_divisible_by_four(self):
        with pytest.raises(InvalidParameter):
            generate_structured(2, 6, domain="hole")

    def test_volumes(self):
        assert generate_structured(2, 3).total_volume() == pytest.approx(1.0, abs=1e-12)
        assert generate_structured(2, 4, "hole").total_volume() == pytest.approx(
            0.75, abs=1e-12
        )
        assert generate_structured(3, 2).total_volume() == pytest.approx(1.0, abs=1e-12)

    def test_3d_counts(self):
        m = generate_structured(3, 2)
        assert m.num_vertices == 27
        assert m.num_cells == 48


class TestHoled3D:
    """The tunnel (a solid torus) and the cavity (a ball with a void)."""

    @pytest.mark.parametrize(
        "domain,cells,volume,euler",
        [("tunnel", 288, 0.75, 0), ("cavity", 336, 0.875, 2)],
    )
    def test_counts_volume_and_euler_characteristic(self, domain, cells, volume, euler):
        m = generate_structured(3, 4, domain)
        assert m.num_cells == cells
        assert m.total_volume() == pytest.approx(volume, abs=1e-12)
        counts = [m.subsimplices(k).count for k in range(4)]
        assert counts[0] - counts[1] + counts[2] - counts[3] == euler

    @pytest.mark.parametrize("domain", ["tunnel", "cavity"])
    def test_conforming_with_a_closed_boundary_surface(self, domain):
        m = generate_structured(3, 4, domain)
        faces = m.subsimplices(2)
        # every face has one or two cells; the one-cell faces close up: each of
        # their edges lies on exactly two of them
        assert {len(o) for o in faces.owners} == {1, 2}
        edge_uses = {}
        for face, owners in zip(faces.simplices, faces.owners):
            if len(owners) == 1:
                for e in ((face[0], face[1]), (face[0], face[2]), (face[1], face[2])):
                    edge_uses[e] = edge_uses.get(e, 0) + 1
        assert set(edge_uses.values()) == {2}
        # outer box surface (192 triangles) plus the hole's walls
        assert sum(faces.boundary) == 240

    @pytest.mark.parametrize("domain", ["tunnel", "cavity"])
    def test_positive_orientation_and_no_unused_vertices(self, domain):
        m = generate_structured(3, 4, domain)
        assert all(m.signed_volume(i) > 0 for i in range(m.num_cells))
        assert {v for cell in m.cells for v in cell} == set(range(m.num_vertices))

    @pytest.mark.parametrize("domain", ["tunnel", "cavity"])
    def test_needs_3d_and_divisible_by_four(self, domain):
        with pytest.raises(InvalidParameter):
            generate_structured(3, 6, domain)
        with pytest.raises(InvalidParameter):
            generate_structured(2, 4, domain)


class TestSubsimplices:
    def test_edge_boundary_split_n1(self):
        m = generate_structured(2, 1)
        edges = m.subsimplices(1)
        assert edges.count == 5
        assert sum(edges.boundary) == 4
        assert sum(~edges.boundary) == 1

    def test_vertex_boundary_split_n2(self):
        m = generate_structured(2, 2)
        verts = m.subsimplices(0)
        assert verts.count == 9
        assert sum(verts.boundary) == 8

    def test_top_level_is_cells(self):
        m = generate_structured(2, 2)
        table = m.subsimplices(2)
        assert table.count == m.num_cells
        assert not table.boundary.any()

    @pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
    def test_facets_shared_by_at_most_two(self, dim, n):
        m = generate_structured(dim, n)
        facets = m.subsimplices(dim - 1)
        owners = np.zeros(facets.count, dtype=int)
        for row in facets.cell_incidence:
            for gid in row:
                owners[gid] += 1
        assert set(owners) <= {1, 2}
        assert all((owners[i] == 1) == facets.boundary[i] for i in range(facets.count))

    @pytest.mark.parametrize("dim,n", [(2, 2), (2, 4), (3, 2)])
    def test_chain_complex(self, dim, n):
        m = generate_structured(dim, n)
        for k in range(2, dim + 1):
            prod = m.boundary_matrix(k - 1) @ m.boundary_matrix(k)
            assert prod.dtype.kind == "i"
            assert prod.count_nonzero() == 0

    @pytest.mark.parametrize(
        "args", [(2, 2), (2, 4, "hole"), (3, 1), (3, 2), (3, 4, "tunnel"), (3, 4, "cavity")]
    )
    def test_boundary_matrix_equals_the_face_loop(self, args):
        m = generate_structured(*args)
        for k in range(1, m.dim + 1):
            D = m.boundary_matrix(k)
            assert D.format == "csc" and D.dtype.kind == "i"
            assert np.array_equal(D.toarray(), boundary_matrix_by_loop(m, k))


class TestVertexPatch:
    def test_center_vertex_six_cells(self):
        m = generate_structured(2, 2)
        center = None
        for i, v in enumerate(m.vertices):
            if np.allclose(v, [0.5, 0.5]):
                center = i
        patch = m.vertex_patch(center)
        assert len(patch.cells) == 6
        # adjacency ordering: consecutive cells share an edge through the center
        for a, b in zip(patch.cells, patch.cells[1:]):
            shared = set(m.cells[a]) & set(m.cells[b])
            assert center in shared and len(shared) == 2

    def test_diagonal_corner_two_cells(self):
        m = generate_structured(2, 2)
        corner = int(np.argmin(np.linalg.norm(m.vertices, axis=1)))  # (0,0)
        assert len(m.vertex_patch(corner).cells) == 2

    def test_n1_diagonal_vertices(self):
        m = generate_structured(2, 1)
        diag = [i for i, v in enumerate(m.vertices) if np.isclose(v[0], v[1])]
        for v in diag:
            assert len(m.vertex_patch(v).cells) == 2


class TestRefinement:
    def test_cell_count_quadruples(self):
        m = generate_structured(2, 1)
        assert refine_uniform(m).num_cells == 8

    def test_double_refine_is_16x(self):
        m = generate_structured(2, 1)
        assert refine_uniform(refine_uniform(m)).num_cells == 16 * m.num_cells

    def test_refined_equals_regenerated(self):
        fine = refine_uniform(generate_structured(2, 2))
        direct = generate_structured(2, 4)
        assert canonically_equal(fine, direct)

    def test_3d_unsupported(self):
        with pytest.raises(Unsupported):
            refine_uniform(generate_structured(3, 1))

    def test_shape_regularity_preserved(self):
        m = generate_structured(2, 2)
        before = shape_report(m)
        after = shape_report(refine_uniform(m))
        assert after["min_angle_deg"] == pytest.approx(before["min_angle_deg"], abs=1e-9)


class TestValidation:
    def test_nonconforming_rejected_with_named_facet(self):
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -1.0]]
        cells = [(0, 1, 2), (1, 3, 2), (0, 1, 3), (0, 1, 4)]
        with pytest.raises(MeshError, match=r"\(0, 1\)"):
            Mesh(2, vertices, cells)

    def test_degenerate_cell_rejected(self):
        with pytest.raises(MeshError):
            Mesh(2, [[0, 0], [1, 0], [2, 0]], [(0, 1, 2)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(MeshError):
            Mesh(2, [[0, 0], [1, 0], [0, 1]], [(0, 1, 1)])

    def test_roundtrip_json(self, tmp_path):
        m = generate_structured(2, 2)
        path = tmp_path / "mesh.json"
        m.save(path)
        loaded = Mesh.load(path)
        assert canonically_equal(m, loaded)
        data = json.loads(path.read_text())
        assert set(data) == {"dim", "vertices", "cells"}

    def test_vertex_hypothesis_flag_matches_oracle(self):
        # independent recomputation: a boundary vertex needs an interior neighbour
        for mesh in (generate_structured(2, 2), generate_structured(2, 4, "hole")):
            verts = mesh.subsimplices(0)
            interior = {
                v[0] for i, v in enumerate(verts.simplices) if not verts.boundary[i]
            }
            ok = True
            for i, v in enumerate(verts.simplices):
                if not verts.boundary[i]:
                    continue
                nbrs = set()
                for a, b in mesh.subsimplices(1).simplices:
                    if a == v[0]:
                        nbrs.add(b)
                    if b == v[0]:
                        nbrs.add(a)
                if not nbrs & interior:
                    ok = False
            assert mesh.satisfies_vertex_hypothesis == ok

    def test_signed_volume_positive_under_stored_orientation(self):
        for mesh in (generate_structured(2, 2), generate_structured(3, 1)):
            for i in range(mesh.num_cells):
                assert mesh.signed_volume(i) > 0


# -- malformed mesh files ----------------------------------------------------------

VALID = {
    "dim": 2,
    "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
    "cells": [[0, 1, 3], [0, 3, 2]],
}

JUNK = st.one_of(
    st.text(max_size=5),
    st.none(),
    st.booleans(),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.lists(st.integers(), max_size=2),
)
BAD_COORDINATE = st.one_of(
    JUNK,
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400]),
)
BAD_INDEX = st.one_of(
    JUNK,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers().filter(lambda v: not 0 <= v < 4),
)


def _with(path, value):
    """VALID with the entry at ``path`` replaced by ``value``."""
    data = json.loads(json.dumps(VALID))
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    return data


WRONG_DIM = st.one_of(JUNK, st.floats(), st.integers().filter(lambda d: d != 2))
WRONG_VERTICES = st.one_of(
    JUNK, st.lists(st.lists(st.floats(0, 1), min_size=3, max_size=3), min_size=1, max_size=4)
)
WRONG_CELLS = st.one_of(
    JUNK,
    st.just([]),
    st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=2),
)
WRONG_CELL = st.one_of(
    JUNK.filter(lambda v: not isinstance(v, list)), st.lists(st.integers(0, 3), max_size=2)
)
VERTEX_ENTRY = st.tuples(st.just("vertices"), st.integers(0, 3), st.integers(0, 1))
CELL_ENTRY = st.tuples(st.just("cells"), st.integers(0, 1), st.integers(0, 2))

# Each member is malformed: one corrupted entry, field or key, or no object at all.
MALFORMED_MESH = st.one_of(
    st.builds(_with, VERTEX_ENTRY, BAD_COORDINATE),
    st.builds(_with, CELL_ENTRY, BAD_INDEX),
    st.builds(_with, st.just(("dim",)), WRONG_DIM),
    st.builds(_with, st.just(("vertices",)), WRONG_VERTICES),
    st.builds(_with, st.just(("cells",)), WRONG_CELLS),
    st.builds(_with, st.tuples(st.just("cells"), st.integers(0, 1)), WRONG_CELL),
    st.sampled_from(sorted(VALID)).map(lambda key: {k: v for k, v in VALID.items() if k != key}),
    JUNK.filter(lambda v: not isinstance(v, dict)),
)


class TestMalformedMeshFiles:
    def _info(self, tmp_path, capsys, text):
        path = tmp_path / "mesh.json"
        path.write_text(text)
        code = main(["mesh", "info", "--mesh-file", str(path)])
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_valid_file_loads(self, tmp_path, capsys):
        code, out, _ = self._info(tmp_path, capsys, json.dumps(VALID))
        assert code == 0 and json.loads(out)["records"][0]["numbers"]["cells"] == 2

    @pytest.mark.parametrize(
        "data,reason",
        [
            (_with(("vertices", 1, 1), "a"), "numbers"),
            (_with(("vertices", 1, 1), "1"), "numbers"),
            (_with(("vertices", 1, 1), float("nan")), "finite"),
            (_with(("vertices", 1, 1), float("inf")), "finite"),
            (_with(("cells", 0, 2), 2.5), "not an integer"),
            (_with(("cells", 0, 2), 3.0), "not an integer"),
        ],
        ids=["coordinate-text", "coordinate-numeric-text", "coordinate-nan", "coordinate-inf",
             "index-fraction", "index-float"],
    )
    def test_bad_entries_refused(self, tmp_path, capsys, data, reason):
        code, out, err = self._info(tmp_path, capsys, json.dumps(data))
        assert code == 2 and out == ""
        assert err.startswith("error: MeshError") and reason in err
        assert err.count("\n") == 1

    def test_not_json_refused(self, tmp_path, capsys):
        code, out, err = self._info(tmp_path, capsys, "{not json")
        assert code == 2 and out == ""
        assert err.startswith("error: MeshError") and err.count("\n") == 1

    @given(MALFORMED_MESH)
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fuzz_malformed_exits_2_with_one_line(self, tmp_path, capsys, data):
        code, out, err = self._info(tmp_path, capsys, json.dumps(data))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_degenerate_cell_refused(self, tmp_path, capsys):
        # area 1e-17: the determinant is not exactly zero, but negligible
        # against the longest edge squared
        data = {"dim": 2, "vertices": [[0, 0], [1, 0], [0.5, 2e-17]], "cells": [[0, 1, 2]]}
        code, out, err = self._info(tmp_path, capsys, json.dumps(data))
        assert code == 2 and out == ""
        assert err.startswith("error: MeshError") and "degenerate" in err
        assert err.count("\n") == 1

    def test_small_well_shaped_cell_loads(self, tmp_path, capsys):
        data = {"dim": 2, "vertices": [[0, 0], [1e-9, 0], [0, 1e-9]], "cells": [[0, 1, 2]]}
        code, _, _ = self._info(tmp_path, capsys, json.dumps(data))
        assert code == 0


# every generated level that the tests, demos and benchmark run, and the
# ROADMAP's tetbox targets
BUILTIN_LEVELS = (
    ["box:%d" % n for n in (1, 2, 3, 4, 8, 16)]
    + ["hole:%d" % n for n in (4, 8, 12)]
    + ["tetbox:%d" % n for n in (1, 2, 3, 4)]
    + ["tunnel:4", "cavity:4"]
)


class TestBuiltinLevels:
    @pytest.mark.parametrize("spec", BUILTIN_LEVELS)
    def test_level_loads_and_passes_the_size_guard(self, spec):
        from padfeec.cli import parse_mesh
        from padfeec.report import RunConfig
        from padfeec.spaces import ladder

        mesh = parse_mesh(RunConfig(command="mesh info", mesh=spec))
        assert (mesh.cell_orientations != 0).all()
        assert ladder(mesh).mesh is mesh

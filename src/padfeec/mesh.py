"""Simplicial complexes in dimension 2 and 3.

Cells are stored with vertex indices sorted ascending together with an
orientation sign (the sign of the volume form in that order), so incidence
data is reproducible regardless of how input files order their vertices.
Structured generators cover the unit box, the box with a central square hole
(nontrivial first Betti number), the 6-tets-per-cube unit box in 3-D, the
3-D box with a central tunnel (a solid torus, first Betti number 1) and the
3-D box with a central cavity (a ball with a void, second Betti number 1).
The Betti numbers, absolute and relative to the boundary, are exact ranks
of the integer chain boundaries.
"""

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, MeshError, Unsupported
from .forms import CellGeometry


# A cell is degenerate when |det| of its edge vectors is at most this times
# its longest edge to the power n: the test does not depend on the mesh scale.
DEGENERACY_TOL = 1e-10


@dataclass
class SubSimplexTable:
    """All k-sub-simplices of a mesh plus cell incidence and boundary flags.

    ``owners[gid]`` lists the cells that hold sub-simplex ``gid`` as pairs
    (cell, local vertex positions), in ascending cell order; it is the one
    answer to "which cells hold this sub-simplex".
    """

    k: int
    simplices: list
    index: dict = field(repr=False)
    boundary: np.ndarray = field(repr=False)
    cell_incidence: np.ndarray = field(repr=False)  # (cells, faces-per-cell) global ids
    owners: list = field(repr=False)

    @property
    def count(self):
        return len(self.simplices)


@dataclass
class Patch:
    """Cells sharing one vertex, adjacency-ordered when the dimension allows."""

    center: int
    cells: list


class Mesh:
    """Immutable conforming simplicial complex."""

    def __init__(self, dim, vertices, cells, domain_volume=None):
        if dim not in (2, 3):
            raise Unsupported("mesh dimension must be 2 or 3")
        self.dim = dim
        self.vertices = _coordinates(vertices, dim)
        try:
            raw = [tuple(_vertex_index(v) for v in c) for c in cells]
        except TypeError as exc:
            raise MeshError("cells must be lists of vertex indices") from exc
        if not raw:
            raise MeshError("mesh has no cells")
        for c in raw:
            if len(c) != dim + 1:
                raise MeshError("cell %s must have %d vertices" % (c, dim + 1))
            if len(set(c)) != dim + 1:
                raise MeshError("cell %s has repeated vertices" % (c,))
            if max(c) >= len(self.vertices) or min(c) < 0:
                raise MeshError("cell %s references a missing vertex" % (c,))
        self.cells = tuple(tuple(sorted(c)) for c in raw)
        corners = self.vertices[np.array(self.cells)]  # (cells, n+1, n)
        dets = np.linalg.det(np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2))
        longest = np.max(
            [np.linalg.norm(corners[:, a] - corners[:, b], axis=1)
             for a, b in itertools.combinations(range(dim + 1), 2)],
            axis=0,
        )
        bad = np.flatnonzero(np.abs(dets) <= DEGENERACY_TOL * longest**dim)
        if bad.size:
            ci = bad[0]
            raise MeshError(
                "cell %s is degenerate: |det| %.3g <= %g x longest edge^%d"
                % (raw[ci], abs(dets[ci]), DEGENERACY_TOL, dim)
            )
        # the stored orientation is the sign of the volume form in the
        # ascending vertex order, so the oriented volume is positive
        self.cell_orientations = np.sign(dets).astype(int)
        self.domain_volume = domain_volume
        self._tables = {}
        self._geometry = {}
        self._patches = {}
        self._betti = {}
        self._ladder = None  # the DeRhamLadder of spaces.ladder, built on first use
        self._validate_facets()
        self.satisfies_vertex_hypothesis = self._check_vertex_hypothesis()

    # -- construction checks --------------------------------------------------

    def _validate_facets(self):
        facets = self.subsimplices(self.dim - 1)
        for facet, owners in zip(facets.simplices, facets.owners):
            if len(owners) > 2:
                raise MeshError(
                    "facet %s is shared by %d cells; complex is not conforming"
                    % (facet, len(owners))
                )

    def _check_vertex_hypothesis(self):
        verts = self.subsimplices(0)
        edges = self.subsimplices(1)
        interior = {v[0] for i, v in enumerate(verts.simplices) if not verts.boundary[i]}
        neighbours = {}
        for a, b in edges.simplices:
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        for i, v in enumerate(verts.simplices):
            if verts.boundary[i] and not (neighbours.get(v[0], set()) & interior):
                return False
        return True

    # -- queries ---------------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    def cell_geometry(self, i):
        geo = self._geometry.get(i)
        if geo is None:
            geo = CellGeometry(self.vertices[list(self.cells[i])])
            self._geometry[i] = geo
        return geo

    def signed_volume(self, i):
        geo = self.cell_geometry(i)
        return geo.volume * geo.orientation * self.cell_orientations[i]

    def total_volume(self):
        return float(sum(self.signed_volume(i) for i in range(self.num_cells)))

    def subsimplices(self, k):
        """Complete duplicate-free table of k-sub-simplices with boundary flags."""
        if not 0 <= k <= self.dim:
            raise InvalidParameter("sub-simplex dimension %d outside 0..%d" % (k, self.dim))
        table = self._tables.get(k)
        if table is not None:
            return table
        combos = list(itertools.combinations(range(self.dim + 1), k + 1))
        index = {}
        simplices = []
        owners = []
        incidence = np.zeros((self.num_cells, len(combos)), dtype=int)
        for ci, cell in enumerate(self.cells):
            for fi, combo in enumerate(combos):
                sub = tuple(cell[j] for j in combo)
                gid = index.get(sub)
                if gid is None:
                    gid = len(simplices)
                    index[sub] = gid
                    simplices.append(sub)
                    owners.append([])
                incidence[ci, fi] = gid
                # cells are sorted, so the combo is the sub-simplex's local positions
                owners[gid].append((ci, combo))
        # a boundary facet has one owner; the boundary is its closure
        boundary = np.zeros(len(simplices), dtype=bool)
        if k == self.dim - 1:
            boundary[:] = [len(cells) == 1 for cells in owners]
        elif k < self.dim - 1:
            facets = self.subsimplices(self.dim - 1)
            for facet, cells in zip(facets.simplices, facets.owners):
                if len(cells) == 1:
                    for sub in itertools.combinations(facet, k + 1):
                        boundary[index[sub]] = True
        table = SubSimplexTable(
            k=k,
            simplices=simplices,
            index=index,
            boundary=boundary,
            cell_incidence=incidence,
            owners=owners,
        )
        self._tables[k] = table
        return table

    def boundary_matrix(self, k):
        """Integer chain boundary from k-chains to (k-1)-chains, a sparse CSC array.

        Column s holds its k+1 faces in the order of its vertices: the face
        that drops the j-th vertex of s has the row ``indices[(k+1) s + j]``
        and the sign (-1)^j.  Cells list their vertices in ascending order,
        so each cell's local faces of a local k-simplex give them, through
        the two incidence tables; every sub-simplex is read from its first
        cell, and the arrays are written without a format conversion.
        """
        # imported here: `padfeec.cli` imports this module, and loading scipy
        # costs every command about 0.3 s before it starts
        import scipy.sparse

        if not 1 <= k <= self.dim:
            raise InvalidParameter("chain degree out of range")
        upper = self.subsimplices(k)
        lower = self.subsimplices(k - 1)
        positions = range(self.dim + 1)
        lower_local = {c: i for i, c in enumerate(itertools.combinations(positions, k))}
        faces = np.array([
            [lower_local[c[:j] + c[j + 1 :]] for j in range(k + 1)]
            for c in itertools.combinations(positions, k + 1)
        ])
        # every sub-simplex id occurs, so ``first`` lists one cell slot per id, in id order
        _, first = np.unique(upper.cell_incidence.ravel(), return_index=True)
        rows = lower.cell_incidence[:, faces].reshape(-1, k + 1)[first]
        return scipy.sparse.csc_array(
            (np.tile((-1) ** np.arange(k + 1), upper.count), rows.ravel(),
             np.arange(0, rows.size + 1, k + 1)),
            shape=(lower.count, upper.count),
        )

    def betti_numbers(self, relative=False):
        """Betti numbers b_0..b_n, or the relative b_k(mesh, boundary) if ``relative``.

        b_k = dim C_k - rank of the boundary from C_k - rank of the boundary
        into C_k, for the chains of `boundary_matrix`; the relative chains
        are the interior sub-simplices.  The ranks are exact (`_rank_mod_prime`),
        so no tolerance enters.  Kept per mesh.
        """
        betti = self._betti.get(relative)
        if betti is None:
            n = self.dim
            keep = [
                ~table.boundary if relative else np.ones(table.count, dtype=bool)
                for table in map(self.subsimplices, range(n + 1))
            ]
            ranks = [0] + [
                _rank_mod_prime(self.boundary_matrix(k)[keep[k - 1]][:, keep[k]])
                for k in range(1, n + 1)
            ] + [0]
            betti = self._betti[relative] = tuple(
                int(keep[k].sum()) - ranks[k] - ranks[k + 1] for k in range(n + 1)
            )
        return betti

    def vertex_patch(self, v):
        """All cells containing vertex v, adjacency-ordered in 2-D."""
        if not 0 <= v < self.num_vertices:
            raise InvalidParameter("vertex index out of range")
        patch = self._patches.get(v)
        if patch is not None:
            return patch
        verts = self.subsimplices(0)
        gid = verts.index.get((v,))
        cells = [] if gid is None else [ci for ci, _ in verts.owners[gid]]
        if self.dim == 2 and len(cells) > 1:
            cells = self._order_patch(v, cells)
        patch = Patch(center=v, cells=cells)
        self._patches[v] = patch
        return patch

    def _order_patch(self, v, cells):
        # cells around v form a path or a cycle along shared edges through v
        adj = {c: [] for c in cells}
        for a, b in itertools.combinations(cells, 2):
            shared = set(self.cells[a]) & set(self.cells[b])
            if v in shared and len(shared) == 2:
                adj[a].append(b)
                adj[b].append(a)
        ends = sorted(c for c in cells if len(adj[c]) <= 1)
        start = ends[0] if ends else min(cells)
        ordered = [start]
        seen = {start}
        while True:
            nxt = [c for c in adj[ordered[-1]] if c not in seen]
            if not nxt:
                break
            ordered.append(min(nxt))
            seen.add(ordered[-1])
        return ordered if len(ordered) == len(cells) else cells

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "dim": self.dim,
            "vertices": [[float(x) for x in v] for v in self.vertices],
            "cells": [list(c) for c in self.cells],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def from_json(cls, data):
        try:
            dim = data["dim"]
            vertices = data["vertices"]
            cells = data["cells"]
        except (KeyError, TypeError) as exc:
            raise MeshError("mesh file must carry dim, vertices and cells") from exc
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise MeshError("dim must be an integer, got %r" % (dim,))
        return cls(dim, vertices, cells)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise MeshError("mesh file is not valid JSON: %s" % exc) from exc
        return cls.from_json(data)


_PRIME = 2**31 - 1


def _rank_mod_prime(B, p=_PRIME):
    """Exact rank of the sparse integer matrix B over the integers modulo the prime ``p``.

    Column elimination on residues held in dicts: each column is reduced
    by the stored columns whose last nonzero row matches its own, until it
    vanishes or has a new last row.  It equals the rank over the rationals
    unless ``p`` divides every nonzero minor of that order.
    """
    B = B.tocsc()
    rows, values, ptr = B.indices.tolist(), (B.data % p).tolist(), B.indptr.tolist()
    pivots = {}  # last row -> reduced column scaled to 1 there
    for j in range(B.shape[1]):
        col = dict(zip(rows[ptr[j] : ptr[j + 1]], values[ptr[j] : ptr[j + 1]]))
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                inverse = pow(col[low], p - 2, p)
                pivots[low] = {r: v * inverse % p for r, v in col.items()}
                break
            f = col[low]
            for r, v in pivot.items():
                w = (col.get(r, 0) - f * v) % p
                if w:
                    col[r] = w
                else:
                    del col[r]
    return len(pivots)


def _is_number(x):
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(
        x, (bool, np.bool_)
    )


def _coordinates(vertices, dim):
    """Vertex array of finite numbers, shaped (num_vertices, dim)."""
    try:
        numeric = all(_is_number(x) for row in vertices for x in row)
    except TypeError:
        numeric = False
    if not numeric:
        raise MeshError("vertex coordinates must be numbers")
    try:
        array = np.asarray(vertices, dtype=float)
    except OverflowError as exc:
        raise MeshError("vertex coordinates must be finite") from exc
    except (TypeError, ValueError) as exc:
        raise MeshError("vertex array must be (num_vertices, dim)") from exc
    if array.ndim != 2 or array.shape[1] != dim:
        raise MeshError("vertex array must be (num_vertices, dim)")
    if not np.isfinite(array).all():
        raise MeshError("vertex coordinates must be finite")
    return array


def _vertex_index(v):
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
        raise MeshError("cell vertex index %r is not an integer" % (v,))
    return int(v)


# -- structured generation ------------------------------------------------------


def generate_structured(dim, n, domain="box"):
    """Structured triangulations of the unit box and of boxes with a hole.

    The 2-D box is split into 2 n^2 triangles with a uniform diagonal; the hole
    variant removes the central (n/2)^2 sub-squares.  The 3-D box splits each
    of the n^3 cubes into 6 tetrahedra; the tunnel variant removes the
    central (n/2)^2 column of cubes through every layer, and the cavity
    variant the central (n/2)^3 cubes.  The holed domains need n divisible
    by 4.
    """
    if n < 1:
        raise InvalidParameter("need at least one cell per side")
    if domain == "box":
        if dim == 2:
            return _box_2d(n, hole=False)
        if dim == 3:
            return _box_3d(n)
        raise Unsupported("dimension must be 2 or 3")
    holed = {"hole": 2, "tunnel": 3, "cavity": 3}
    if domain not in holed:
        raise InvalidParameter("unknown domain %r" % (domain,))
    if dim != holed[domain]:
        raise InvalidParameter("the %s domain is only generated in %d-D" % (domain, holed[domain]))
    if n % 4 != 0:
        raise InvalidParameter("%s meshes need the side count divisible by 4" % domain)
    return _box_2d(n, hole=True) if dim == 2 else _box_3d(n, domain)


def _box_2d(n, hole):
    idx = lambda i, j: j * (n + 1) + i
    vertices = [
        (i / n, j / n) for j in range(n + 1) for i in range(n + 1)
    ]
    lo, hi = n // 4, 3 * n // 4
    in_hole = lambda i, j: hole and lo <= i < hi and lo <= j < hi
    cells = []
    for j in range(n):
        for i in range(n):
            if in_hole(i, j):
                continue
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i, j + 1), idx(i + 1, j + 1)
            cells.append((a, b, d))
            cells.append((a, d, c))
    used = sorted({v for cell in cells for v in cell})
    remap = {v: i for i, v in enumerate(used)}
    vertices = [vertices[v] for v in used]
    cells = [tuple(remap[v] for v in cell) for cell in cells]
    volume = 1.0 - (0.25 if hole else 0.0)
    return Mesh(2, vertices, cells, domain_volume=volume)


def _box_3d(n, domain="box"):
    idx = lambda i, j, k: (k * (n + 1) + j) * (n + 1) + i
    vertices = [
        (i / n, j / n, k / n)
        for k in range(n + 1)
        for j in range(n + 1)
        for i in range(n + 1)
    ]
    # the hole is the cubes whose first `axes` indices are all central
    axes = {"box": 0, "tunnel": 2, "cavity": 3}[domain]
    lo, hi = n // 4, 3 * n // 4
    offsets = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    cells = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                if axes and all(lo <= t < hi for t in (i, j, k)[:axes]):
                    continue
                corner = np.array([i, j, k])
                for perm in itertools.permutations(range(3)):
                    path = [corner.copy()]
                    for axis in perm:
                        path.append(path[-1] + np.array(offsets[axis]))
                    cells.append(tuple(idx(*p) for p in path))
    used = sorted({v for cell in cells for v in cell})
    remap = {v: i for i, v in enumerate(used)}
    vertices = [vertices[v] for v in used]
    cells = [tuple(remap[v] for v in cell) for cell in cells]
    volume = 1.0 - (0.5**axes if axes else 0.0)
    return Mesh(3, vertices, cells, domain_volume=volume)


def refine_uniform(mesh):
    """Split every triangle into 4 via edge midpoints (2-D only)."""
    if mesh.dim != 2:
        raise Unsupported("uniform refinement is implemented for 2-D meshes")
    edges = mesh.subsimplices(1)
    nv = mesh.num_vertices
    vertices = [tuple(v) for v in mesh.vertices]
    mid = {}
    for eid, (a, b) in enumerate(edges.simplices):
        mid[(a, b)] = nv + eid
        vertices.append(tuple((mesh.vertices[a] + mesh.vertices[b]) / 2.0))
    cells = []
    for a, b, c in mesh.cells:
        mab, mac, mbc = mid[(a, b)], mid[(a, c)], mid[(b, c)]
        cells.extend(
            [(a, mab, mac), (b, mab, mbc), (c, mac, mbc), (mab, mac, mbc)]
        )
    return Mesh(2, vertices, cells, domain_volume=mesh.domain_volume)


def shape_report(mesh):
    """Minimum angle (2-D, degrees) and worst diameter/inradius aspect ratio."""
    worst_ratio = 0.0
    min_angle = 180.0
    for i in range(mesh.num_cells):
        geo = mesh.cell_geometry(i)
        V = geo.vertices
        nfaces = mesh.dim + 1
        face_measures = []
        for j in range(nfaces):
            F = np.delete(V, j, axis=0)
            E = F[1:] - F[0]
            G = E @ E.T
            face_measures.append(
                math.sqrt(max(np.linalg.det(G), 0.0)) / math.factorial(mesh.dim - 1)
            )
        inradius = mesh.dim * geo.volume / sum(face_measures)
        worst_ratio = max(worst_ratio, geo.diameter / inradius)
        if mesh.dim == 2:
            for j in range(3):
                a = V[(j + 1) % 3] - V[j]
                b = V[(j + 2) % 3] - V[j]
                cosang = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
                min_angle = min(min_angle, math.degrees(math.acos(np.clip(cosang, -1, 1))))
    return {"min_angle_deg": min_angle, "max_aspect_ratio": worst_ratio}

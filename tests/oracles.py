"""Oracle helpers that several test modules share.

`jittered` gives every cell of a structured mesh its own shape, so that a
mapping error cannot hide behind congruent cells; `ladder_locals` builds
the cells' trimmed `LocalSpace`s of a broken space with the ladder's Grams;
`decompose_pair` runs `decompose_local` on one cell's pair of local spaces.
"""

import numpy as np

from padfeec.local import decompose_local, pairing_matrix, trimmed_local
from padfeec.mesh import Mesh, generate_structured


def jittered(mesh, seed, amount, everywhere=False):
    """A copy of a unit-box mesh with its vertices moved by up to ``amount``.

    Only interior vertices move unless ``everywhere``; either way every cell
    gets its own shape, so a mapping error cannot hide behind congruent cells.
    """
    rng = np.random.default_rng(seed)
    V = np.array(mesh.vertices, dtype=float)
    movable = np.ones(len(V), dtype=bool) if everywhere else np.all((V > 0) & (V < 1), axis=1)
    V[movable] += rng.uniform(-amount, amount, size=(int(movable.sum()), mesh.dim))
    return Mesh(mesh.dim, V, mesh.cells)


# box:4 with interior vertices moved; tetbox:1 has none, so all of its move
JITTERED = [
    ("box4-jittered", jittered(generate_structured(2, 4), 7, 0.04)),
    ("tetbox1-jittered", jittered(generate_structured(3, 1), 8, 0.1, everywhere=True)),
]


def decompose_pair(primal, dual):
    """The `LocalDecomposition` of one cell's pair of local spaces."""
    stacks = (
        primal.gram(), primal.energy_gram(), dual.gram(), dual.energy_gram(),
        pairing_matrix(primal, dual),
    )
    (dec,) = decompose_local(*(a[None] for a in stacks))
    return dec


def ladder_locals(broken):
    """Every cell's trimmed `LocalSpace` of a broken space, with the ladder's Grams.

    Each space takes its Gram and energy Gram from the broken space's
    stacks, so a route compared on them differs only in what it does with
    the Grams.
    """
    spaces = []
    for i, (G, E) in enumerate(zip(broken.gram_blocks(), broken.energy_blocks())):
        sp = trimmed_local(broken.mesh.cell_geometry(i), broken.k, broken.name)
        sp._gram, sp._energy = G, E
        spaces.append(sp)
    return spaces

"""Three-dimensional ladder: every capability exercised on tetrahedral boxes."""

import numpy as np
import pytest

from padfeec.adjoint import (
    helmholtz_check,
    hodge_check,
    pl_duality_check,
    whitney_pair,
)
from padfeec.forms import random_polyform
from padfeec.interp import commute_check, global_field
from padfeec.mesh import generate_structured
from padfeec.solve import (
    random_polynomial_load,
    solve_eigen_pair,
    solve_hodge,
    solve_source_dual,
    solve_source_primal,
    verify_hodge_equivalences,
    verify_source_equivalence,
)

TET1 = generate_structured(3, 1)
TET2 = generate_structured(3, 2)


class TestDecompositions3D:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("bc", ["none", "homogeneous"])
    def test_helmholtz(self, k, bc):
        rep = helmholtz_check(whitney_pair(TET1, k, bc))
        assert rep.passed
        assert rep.orthogonality_residual < 1e-10

    def test_helmholtz_finer(self):
        rep = helmholtz_check(whitney_pair(TET2, 1, "none"))
        assert rep.passed

    @pytest.mark.parametrize(
        "k,dims",
        [
            (0, {"abc": 1, "abc0": 0}),
            (1, {"abc": 0, "abc0": 0}),
            (2, {"abc": 0, "abc0": 0}),
            (3, {"abc": 0, "abc0": 1}),
        ],
    )
    def test_pl_duality_dims(self, k, dims):
        rep = pl_duality_check(TET1, k)
        assert rep.passed
        assert rep.lhs_dims == dims

    @pytest.mark.parametrize("k", [1, 2])
    def test_hodge_split(self, k):
        assert hodge_check(TET1, k).passed


class TestSchemes3D:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_source_equivalence(self, k):
        load = random_polynomial_load(TET1, k, seed=3)
        sp = solve_source_primal(TET1, k, load)
        sd = solve_source_dual(TET1, k, load)
        rep = verify_source_equivalence(TET1, sp, sd)
        assert rep.passed, rep.residuals

    def test_eigen_match(self):
        _, _, rep, _ = solve_eigen_pair(TET2, 0)
        assert rep.passed
        assert rep.residuals["count_primal"] == rep.residuals["count_dual"]

    @pytest.mark.parametrize("k", [1, 2])
    def test_hodge_equivalences(self, k):
        load = random_polynomial_load(TET1, k, seed=5)
        sols = {
            s: solve_hodge(TET1, k, load, s)
            for s in ("complete", "mixed_primal", "mixed_dual", "lowest_primal")
        }
        rep = verify_hodge_equivalences(TET1, k, sols)
        assert rep.passed, {n: v for n, v in rep.residuals.items() if v >= 1e-9}


class TestInterp3D:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_commutation(self, k):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(5):
            field = global_field(TET1, random_polyform(3, k, 2, rng))
            worst = max(worst, commute_check(TET1, k, field))
        assert worst < 1e-11


class TestTopology3D:
    """Harmonic spaces that are not empty: the tunnel and the cavity."""

    @staticmethod
    def _duality(mesh, capsys, k=1):
        import json

        from padfeec.cli import main

        code = main(["verify", "duality", "--mesh", mesh, "--k", str(k)])
        records = {r["name"]: r for r in json.loads(capsys.readouterr().out)["records"]}
        assert code == 0
        assert [r["verdict"] for r in records.values()] == ["pass", "pass"]
        return records

    def test_tunnel_duality_compares_one_harmonic_field(self, capsys):
        pl = self._duality("tunnel:4", capsys)["poincare-lefschetz"]
        assert (pl["numbers"]["dim_abc"], pl["numbers"]["dim_abc0"]) == (1, 0)
        assert pl["note"] == "vacuous: pl-duality-abc0 compared two zero-dimensional spaces"

    def test_cavity_duality_passes(self, capsys):
        # its 455 x 456 harmonic cross-Gram made the SVD route fail to converge
        pl = self._duality("cavity:4", capsys)["poincare-lefschetz"]
        assert (pl["numbers"]["dim_abc"], pl["numbers"]["dim_abc0"]) == (0, 1)

    def test_tunnel_duality_k2_dims(self, capsys):
        pl = self._duality("tunnel:4", capsys, k=2)["poincare-lefschetz"]
        assert (pl["numbers"]["dim_abc"], pl["numbers"]["dim_abc0"]) == (0, 1)

    def test_cavity_duality_k2_dims(self, capsys):
        pl = self._duality("cavity:4", capsys, k=2)["poincare-lefschetz"]
        assert (pl["numbers"]["dim_abc"], pl["numbers"]["dim_abc0"]) == (1, 0)

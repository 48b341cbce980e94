import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padfeec.cli import main
from padfeec.report import CheckRecord, Report, RunConfig

from oracles import roundtrip


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_mesh_info(self, capsys):
        code, out, _ = run_cli(["mesh", "info", "--mesh", "box:2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["records"][0]["numbers"]["cells"] == 8

    def test_mesh_gen_writes_file(self, tmp_path, capsys):
        out = tmp_path / "mesh.json"
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["mesh", "gen", "--mesh", "hole:4", "--out", str(out)], capsys
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["dim"] == 2

    def test_verify_decomposition_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "decomposition", "--mesh", "box:2", "--k", "1"], capsys
        )
        assert code == 0
        data = json.loads(out)
        names = [r["name"] for r in data["records"]]
        assert "helmholtz-none" in names and "hodge" in names
        assert all(r["verdict"] == "pass" for r in data["records"])

    def test_solve_hodge_with_equivalence(self, capsys):
        code, out, _ = run_cli(
            [
                "solve",
                "hodge",
                "--mesh",
                "hole:4",
                "--k",
                "1",
                "--scheme",
                "all",
                "--check-equivalence",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        names = [r["name"] for r in data["records"]]
        assert "hodge-equivalences" in names

    def test_malformed_mesh_file_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "vertices": [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, -1]],
                    "cells": [[0, 1, 2], [1, 3, 2], [0, 1, 3], [0, 1, 4]],
                }
            )
        )
        code, _, err = run_cli(["mesh", "info", "--mesh-file", str(bad)], capsys)
        assert code == 2
        assert err.startswith("error: MeshError")
        assert "(0, 1)" in err  # names the offending facet

    def test_unknown_mesh_spec(self, capsys):
        code, _, err = run_cli(["mesh", "info", "--mesh", "torus:3"], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert err.count("\n") == 1  # single-line machine-parsable prefix

    def test_config_file_precedence(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"mesh": "box:4", "k": 1}))
        code, out, _ = run_cli(
            ["--config", str(conf), "mesh", "info", "--mesh", "box:2"], capsys
        )
        data = json.loads(out)
        assert data["config"]["mesh"] == "box:2"  # CLI beats config file
        assert data["config"]["k"] == 1  # config file beats default

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("[1, 2]", "JSON object"),
            ('{"k": "a"}', "integer"),
            ('{"k": true}', "integer"),
            ('{"eig_tol": "small"}', "number"),
            ('{"mesh": 4}', "string"),
            ('{"bc": "dirichlet"}', "none or homogeneous"),
            ("not json", "valid JSON"),
        ],
        ids=["list", "k-string", "k-bool", "eig_tol-string", "mesh-number", "bc-unknown", "not-json"],
    )
    def test_malformed_config_rejected(self, tmp_path, capsys, text, reason):
        conf = tmp_path / "conf.json"
        conf.write_text(text)
        code, out, err = run_cli(["--config", str(conf), "mesh", "info"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and reason in err
        assert err.count("\n") == 1

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"mesh_fle": "x"}))
        code, out, err = run_cli(["--config", str(conf), "mesh", "info"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and "mesh_fle" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("eig_tol", ["1", "2"])
    def test_eig_tol_at_or_above_one_refused(self, capsys, eig_tol):
        # a relative eigenvalue cut at or above 1 drops every eigenvalue, so
        # every index would read 0.0 and the pass would have checked nothing
        argv = ["verify", "base-pair", "--mesh", "box:4", "--k", "0", "--eig-tol", eig_tol]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1
        assert "eig_tol" in err

    @pytest.mark.parametrize("load", ["poly:x", "poly:-1", "poly:"])
    def test_bad_poly_seed_rejected(self, capsys, load):
        code, out, err = run_cli(["solve", "source", "--mesh", "box:2", "--load", load], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,mesh,k",
        [
            ("source", "box:2", 2),
            ("eigen", "box:2", 2),
            ("eigen", "tetbox:1", 3),
            # space build and verify duality take every degree 0..n, so they refuse k = n + 1
            ("space build --kind star", "box:2", 3),
            ("space build --kind conforming", "box:2", 3),
            ("verify duality", "box:2", 3),
        ],
    )
    def test_source_and_eigen_refuse_top_degree(self, capsys, command, mesh, k):
        argv = command.split() if " " in command else ["solve", command]
        code, out, err = run_cli(argv + ["--mesh", mesh, "--k", str(k)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1
        assert "0..%d" % (k - 1) in err and " ".join(argv[:2]) in err

    def test_check_equivalence_needs_every_scheme(self, capsys):
        code, out, err = run_cli(
            ["solve", "hodge", "--mesh", "box:2", "--k", "1", "--scheme", "complete",
             "--check-equivalence"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1
        assert "--scheme all" in err

    @pytest.mark.parametrize(
        "argv,command",
        [
            (["verify", "complex", "--scheme", "bogus"], "verify complex"),
            (["verify", "complex", "--scheme", "all"], "verify complex"),
            (["verify", "base-pair", "--k", "0", "--scheme", "complete"], "verify base-pair"),
            (["suite", "all", "--fast", "--scheme", "all"], "suite all"),
            (["solve", "eigen", "--k", "0", "--check-equivalence"], "solve eigen"),
            (["solve", "source", "--k", "0", "--check-equivalence"], "solve source"),
            (["solve", "source", "--k", "0", "--scheme", "all"], "solve source"),
            (["solve", "hodge", "--k", "1", "--scheme", "bogus"], "solve hodge"),
            # one flag per command that the command does not read
            (["mesh", "gen", "--k", "1"], "mesh gen"),
            (["mesh", "info", "--load", "poly:1"], "mesh info"),
            (["space", "build", "--eig-tol", "0.5"], "space build"),
            (["verify", "base-pair", "--load", "poly:1"], "verify base-pair"),
            (["verify", "decomposition", "--k", "1", "--bc", "homogeneous"], "verify decomposition"),
            (["verify", "duality", "--levels", "2,4"], "verify duality"),
            (["verify", "complex", "--k", "1"], "verify complex"),
            (["verify", "interp", "--eig-tol", "0.5"], "verify interp"),
            (["solve", "source", "--eig-tol", "0.5"], "solve source"),
            (["solve", "eigen", "--export-solutions", "x.json"], "solve eigen"),
            (["solve", "hodge", "--k", "1", "--bc", "homogeneous"], "solve hodge"),
            (["suite", "all", "--fast", "--k", "1"], "suite all"),
        ],
    )
    def test_flags_a_command_ignores_are_refused(self, capsys, argv, command):
        code, out, err = run_cli(argv + ["--mesh", "box:2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1
        assert command in err

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["verify", "duality", "--bogus", "1"], "--bogus"),
            (["solve", "eigen", "--bc", "bogus"], "invalid choice"),
            (["verify", "duality", "--k", "x"], "invalid int"),
            (["verify"], "required"),
        ],
        ids=["unknown-flag", "bad-choice", "bad-int", "no-subcommand"],
    )
    def test_parse_errors_are_one_line(self, capsys, argv, reason):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter: ") and err.count("\n") == 1
        assert reason in err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "hodge", "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert "--scheme" in usage and "--bc" not in usage and "--levels" not in usage

    @pytest.mark.parametrize("command", [["verify", "complex"], ["mesh", "info"]])
    def test_unknown_scheme_in_config_refused_by_every_command(self, tmp_path, capsys, command):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"scheme": "bogus"}))
        code, out, err = run_cli(["--config", str(conf)] + command, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1
        assert " ".join(command) in err and "bogus" in err

    @pytest.mark.parametrize("command", ["base-pair", "decomposition"])
    @pytest.mark.parametrize("mesh,k", [("box:2", 2), ("tetbox:1", 3)])
    def test_base_pair_refuses_top_degree(self, capsys, mesh, k, command):
        code, out, err = run_cli(["verify", command, "--mesh", mesh, "--k", str(k)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1
        assert "verify " + command in err and "0..%d" % (k - 1) in err

    @pytest.mark.parametrize(
        "mesh,k,degrees", [("box:2", 3, "1..1"), ("box:2", 0, "1..1"), ("tetbox:1", 3, "1..2")]
    )
    def test_solve_hodge_refuses_a_degree_before_reading_the_load(self, capsys, mesh, k, degrees):
        args = ["solve", "hodge", "--mesh", mesh, "--k", str(k), "--scheme", "all"]
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1
        assert "solve hodge" in err and degrees in err

    def test_split_records_carry_no_identity_angle(self, capsys):
        code, out, _ = run_cli(["verify", "decomposition", "--mesh", "hole:4", "--k", "1"], capsys)
        assert code == 0
        records = {r["name"]: r for r in json.loads(out)["records"]}
        assert sorted(records) == ["helmholtz-homogeneous", "helmholtz-none", "hodge"]
        for record in records.values():
            assert record["verdict"] == "pass"
            assert "identity_angle" not in record["numbers"]
            assert record["numbers"]["orthogonality_residual"] < 1e-10

    def test_lapack_failure_is_one_line(self, capsys, monkeypatch):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(scipy.linalg, "lu_factor", fail)
        code, out, err = run_cli(["solve", "source", "--mesh", "box:2", "--k", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "error: SolverFailure: singular matrix\n"

    def test_sparse_lu_failure_is_one_line(self, capsys, monkeypatch):
        import scipy.sparse.linalg

        def fail(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", fail)
        code, out, err = run_cli(
            ["solve", "hodge", "--mesh", "box:8", "--k", "1", "--scheme", "complete"], capsys
        )
        assert code == 2 and out == ""
        assert err == "error: SolverFailure: sparse LU failed: Factor is exactly singular\n"

    @pytest.mark.parametrize("mesh,route", [("box:2", "dense"), ("box:8", "sparse")])
    def test_rank_deficient_one_field_constraints_fail(self, capsys, monkeypatch, mesh, route):
        # a duplicated constraint row makes the bordered one-field system singular
        import warnings

        import scipy.sparse

        import padfeec.solve

        constraints = padfeec.solve._mixed_constraints

        def duplicated(lad, k):
            C = constraints(lad, k)
            if scipy.sparse.issparse(C):
                return scipy.sparse.vstack([C, C[:1]], format="csr")
            return np.vstack([C, C[:1]])

        monkeypatch.setattr(padfeec.solve, "_mixed_constraints", duplicated)
        args = ["solve", "hodge", "--mesh", mesh, "--k", "1", "--scheme", "lowest_primal"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "" and caught == []
        assert err == "error: SolverFailure: %s LU failed: Factor is exactly singular\n" % route

    def test_memory_failure_is_one_line(self, capsys, monkeypatch):
        import padfeec.cli

        def fail(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(padfeec.cli, "generate_structured", fail)
        code, out, err = run_cli(["mesh", "info", "--mesh", "box:2"], capsys)
        assert code == 2 and out == ""
        assert err == "error: MemoryError: out of memory\n"

    def test_oversized_mesh_refused_before_allocating(self, capsys):
        import time
        import tracemalloc

        import padfeec.solve  # noqa: F401  (keep the import out of the timing)

        args = ["solve", "hodge", "--mesh", "box:64", "--k", "1"]
        t0 = time.perf_counter()
        code, out, err = run_cli(args, capsys)
        elapsed = time.perf_counter() - t0
        assert code == 2 and out == "" and elapsed < 1.0
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1
        assert "32768 x 32768" in err
        tracemalloc.start()
        try:
            run_cli(args, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_interp_top_degree_skips_stability(self, capsys):
        code, out, _ = run_cli(["verify", "interp", "--mesh", "box:2", "--k", "2"], capsys)
        assert code == 0
        records = {r["name"]: r for r in json.loads(out)["records"]}
        assert list(records) == [
            "interp-projectivity",
            "interp-commutation",
            "interp-domain-preservation",
            "interp-stability",
        ]
        assert records["interp-stability"]["verdict"] == "skipped"
        assert "top degree" in records["interp-stability"]["note"]
        assert all(r["verdict"] == "pass" for r in list(records.values())[:3])

    def test_bad_levels_rejected(self, capsys):
        code, _, err = run_cli(
            ["verify", "base-pair", "--mesh", "box:2", "--levels", "2,x"], capsys
        )
        assert code == 2
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1

    # an empty list would run one unlevelled check, and a repeated size two
    # records of one name
    @pytest.mark.parametrize("levels", [",", "", "2,2", "1,2,1"])
    def test_empty_or_repeated_levels_rejected(self, capsys, levels):
        code, out, err = run_cli(
            ["verify", "base-pair", "--mesh", "box:2", "--k", "0", "--levels", levels], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter: --levels") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [["suite", "all", "--fast"], ["verify", "base-pair", "--levels", "2,4"]],
    )
    def test_mesh_file_refused_where_meshes_are_generated(self, tmp_path, capsys, command):
        mesh = tmp_path / "mesh.json"
        run_cli(["mesh", "gen", "--mesh", "box:2", "--out", str(mesh)], capsys)
        code, out, err = run_cli(command + ["--mesh-file", str(mesh)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1

    @staticmethod
    def _shift_betti(monkeypatch, shift):
        from padfeec.mesh import Mesh

        betti = Mesh.betti_numbers

        def shifted(self, relative=False):
            return tuple(b + shift for b in betti(self, relative))

        monkeypatch.setattr(Mesh, "betti_numbers", shifted)

    @pytest.mark.parametrize("mesh", ["hole:4", "hole:16"])
    def test_wrong_betti_number_is_one_line(self, capsys, monkeypatch, mesh):
        self._shift_betti(monkeypatch, 1)
        code, out, err = run_cli(
            ["solve", "hodge", "--mesh", mesh, "--k", "1", "--scheme", "complete"], capsys
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ToleranceFailure: harmonic abc 1-forms, Betti number 2: ")

    @pytest.mark.parametrize(
        "mesh,k,betti",
        [
            ("box:2", 1, [0, 0]),
            ("hole:4", 1, [1, 1]),
            ("tunnel:4", 1, [1, 0]),
            ("cavity:4", 2, [1, 0]),
        ],
    )
    def test_poincare_lefschetz_carries_the_betti_numbers(self, capsys, mesh, k, betti):
        code, out, _ = run_cli(["verify", "duality", "--mesh", mesh, "--k", str(k)], capsys)
        (rec,) = [r for r in json.loads(out)["records"] if r["name"] == "poincare-lefschetz"]
        assert code == 0 and rec["verdict"] == "pass"
        numbers = rec["numbers"]
        assert [numbers["betti"], numbers["betti_relative"]] == betti
        assert [numbers["dim_abc"], numbers["dim_abc0"]] == betti

    def test_wrong_betti_number_fails_the_duality_record(self, capsys, monkeypatch):
        self._shift_betti(monkeypatch, -1)
        code, out, err = run_cli(["verify", "duality", "--mesh", "hole:4", "--k", "1"], capsys)
        (rec,) = [r for r in json.loads(out)["records"] if r["name"] == "poincare-lefschetz"]
        assert code == 1 and err == ""
        assert rec["verdict"] == "fail"
        assert rec["note"].startswith("ToleranceFailure: harmonic abc 1-forms, Betti number 0: ")
        assert rec["numbers"] == {"betti": 0, "betti_relative": 0}

    def test_verify_complex_takes_integer_ranks(self, capsys, monkeypatch):
        import padfeec.linalg as linalg

        def refuse(*args, **kwargs):
            raise AssertionError("a float rank was taken")

        monkeypatch.setattr(linalg, "rank", refuse)
        code, out, _ = run_cli(["verify", "complex", "--mesh", "hole:4"], capsys)
        records = {r["name"]: r for r in json.loads(out)["records"]}
        assert code == 0
        # the kernel of d at degree 1 is the harmonic space (b_1 = 1) plus the range
        numbers = records["complex-property-none"]["numbers"]
        assert numbers["kernel_1"] == 1 + numbers["range_1"]

    def test_a_slice_of_the_wrong_dimension_is_one_line(self, capsys, monkeypatch):
        import padfeec.cli as cli
        from padfeec.adjoint import horizontal_duality_check
        from padfeec.mesh import Mesh, generate_structured

        mesh = generate_structured(2, 4, "hole")
        # every harmonic space is built, and kept, with the true Betti numbers
        dim = horizontal_duality_check(mesh, 0).lhs_dims["range_slice_high"]
        monkeypatch.setattr(cli, "parse_mesh", lambda config: mesh)
        betti = Mesh.betti_numbers

        # b_0 one too large takes one from the rank of d from degree 0
        def shifted(self, relative=False):
            return tuple(b + (k == 0 and not relative) for k, b in enumerate(betti(self, relative)))

        monkeypatch.setattr(Mesh, "betti_numbers", shifted)
        code, out, err = run_cli(["verify", "duality", "--mesh", "hole:4", "--k", "0"], capsys)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(
            "error: ToleranceFailure: range slice of d from degree 0, dimension %d: " % (dim - 1)
        )

    @pytest.mark.parametrize(
        "mesh,k,betti,slices",
        [
            ("box:2", 1, [0, 0], [1, 7, 1, 7]),
            ("hole:4", 1, [1, 1], [1, 23, 1, 23]),
            ("tetbox:1", 1, [0, 0], [7, 11, 7, 11]),
        ],
    )
    def test_horizontal_duality_carries_betti_and_slice_dims(self, capsys, mesh, k, betti, slices):
        code, out, _ = run_cli(["verify", "duality", "--mesh", mesh, "--k", str(k)], capsys)
        (rec,) = [r for r in json.loads(out)["records"] if r["name"] == "horizontal-duality"]
        assert code == 0 and rec["verdict"] == "pass"
        numbers = rec["numbers"]
        assert [numbers["betti"], numbers["betti_relative"]] == betti
        assert [
            numbers["dim_range_slice_high"],
            numbers["dim_corange_slice_low"],
            numbers["dim_kernel_slice_high"],
            numbers["dim_kernel_slice_low"],
        ] == slices

    def test_hodge_carries_betti_and_piece_dims(self, capsys):
        code, out, _ = run_cli(["verify", "decomposition", "--mesh", "hole:4", "--k", "1"], capsys)
        (rec,) = [r for r in json.loads(out)["records"] if r["name"] == "hodge"]
        assert code == 0 and rec["verdict"] == "pass"
        numbers = rec["numbers"]
        assert [numbers["betti"], numbers["betti_relative"]] == [1, 1]
        pieces = ("range_below", "harmonic", "corange_above")
        dims = {bc: [numbers["dim_%s_%s" % (bc, p)] for p in pieces] for bc in ("none", "homogeneous")}
        assert dims["none"][1] == dims["homogeneous"][1] == 1
        # each split fills the 48 constant 1-forms of hole:4
        assert sum(dims["none"]) == sum(dims["homogeneous"]) == 48

    def test_determinism_byte_identical(self, capsys):
        _, out1, _ = run_cli(["verify", "base-pair", "--mesh", "box:2", "--k", "0"], capsys)
        _, out2, _ = run_cli(["verify", "base-pair", "--mesh", "box:2", "--k", "0"], capsys)
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "base-pair", "--mesh", "box:2", "--k", "0", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "record,key,value,verdict"
        assert any("alpha" in line for line in lines)


# The flags each command reads besides --out, --format and --timings.
MESH = ("--mesh", "--mesh-file")
READS = {
    "mesh gen": MESH,
    "mesh info": MESH,
    "space build": MESH + ("--k", "--bc", "--kind"),
    "verify base-pair": MESH + ("--k", "--bc", "--eig-tol", "--levels"),
    "verify decomposition": MESH + ("--k",),
    "verify duality": MESH + ("--k",),
    "verify complex": MESH,
    "verify interp": MESH + ("--k",),
    "solve source": MESH + ("--k", "--bc", "--load", "--export-solutions"),
    "solve eigen": MESH + ("--k", "--bc"),
    "solve hodge": MESH + ("--k", "--load", "--scheme", "--check-equivalence", "--export-solutions"),
    "suite all": ("--fast", "--bc", "--load", "--eig-tol"),
}
UNIVERSAL = ("--out", "--format", "--timings")
FLAG_VALUES = {
    "--mesh": ["box:4"],
    "--mesh-file": ["mesh.json"],
    "--k": ["1"],
    "--bc": ["homogeneous"],
    "--kind": ["star"],
    "--load": ["poly:3"],
    "--scheme": ["all"],
    "--eig-tol": ["0.5"],
    "--levels": ["2,4"],
    "--export-solutions": ["x.json"],
    "--check-equivalence": [],
    "--fast": [],
    "--out": ["report.json"],
    "--format": ["csv"],
    "--timings": [],
}


class TestFlagTable:
    def test_the_table_declares_each_command_once(self):
        from padfeec.cli import COMMANDS

        assert {c: tuple(flags) for c, (_, flags) in COMMANDS.items()} == READS
        assert sum(len(flags) + len(UNIVERSAL) for flags in READS.values()) == 83

    @pytest.mark.parametrize("command", sorted(READS))
    def test_each_command_takes_exactly_its_flags(self, capsys, monkeypatch, command):
        import padfeec.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("a command ran")

        monkeypatch.setattr(cli, "run", refuse)
        for flag in FLAG_VALUES:
            argv = command.split() + [flag] + FLAG_VALUES[flag]
            if flag in READS[command] + UNIVERSAL:
                args, unread = cli.build_parser().parse_known_args(argv)
                assert unread == [], (command, flag)
                cli.merge_config(args)
            else:
                code, out, err = run_cli(argv, capsys)
                assert code == 2 and out == "" and err.count("\n") == 1, (command, flag)
                assert err.startswith("error: InvalidParameter: %s " % command), err
                assert flag in err


CONFIG_KEYS = ("mesh", "mesh_file", "k", "bc", "scheme", "load", "eig_tol", "out", "fmt")
NOT_STRING = st.one_of(st.integers(), st.floats(), st.booleans(), st.lists(st.text(), max_size=2))
NOT_NUMBER = st.one_of(st.text(max_size=5), st.booleans(), st.lists(st.integers(), max_size=2))

# Each member holds exactly one bad entry; None values count as absent.
MALFORMED_CONFIG = st.one_of(
    st.dictionaries(
        st.text(max_size=8).filter(lambda key: key not in CONFIG_KEYS),
        st.integers(),
        min_size=1,
        max_size=2,
    ),
    st.sampled_from(["mesh", "mesh_file", "bc", "scheme", "load", "out", "fmt"]).flatmap(
        lambda key: NOT_STRING.map(lambda value: {key: value})
    ),
    st.one_of(NOT_NUMBER, st.floats(), st.integers().filter(lambda k: not 0 <= k <= 3)).map(
        lambda value: {"k": value}
    ),
    st.one_of(
        NOT_NUMBER,
        st.floats(max_value=0.0),
        st.floats(min_value=1.0, allow_infinity=False),
        st.just(float("inf")),
        st.just(float("nan")),
    ).map(lambda value: {"eig_tol": value}),
    st.text(max_size=12)
    .filter(lambda v: v not in ("none", "homogeneous"))
    .map(lambda value: {"bc": value}),
    st.text(max_size=6).filter(lambda v: v not in ("json", "csv")).map(lambda v: {"fmt": v}),
)


class TestConfigFuzz:
    @given(MALFORMED_CONFIG)
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_malformed_config_exits_2_with_one_line(self, tmp_path, capsys, data):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(data))
        code, out, err = run_cli(["--config", str(conf), "mesh", "info"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter") and err.count("\n") == 1


class TestReport:
    def test_roundtrip_lossless(self):
        config = RunConfig(command="test").validate()
        report = Report(config)
        report.add(
            CheckRecord(
                "demo",
                "pass",
                numbers={"value": 1.0 / 3.0, "count": 7, "tiny": 1.2345678901234567e-13},
            )
        )
        data = roundtrip(report)
        rec = data["records"][0]
        assert rec["numbers"]["value"] == 1.0 / 3.0
        assert rec["numbers"]["tiny"] == 1.2345678901234567e-13
        assert isinstance(data["config"]["eig_tol"], float)

    def test_empty_report_valid(self):
        report = Report(RunConfig(command="noop").validate())
        data = roundtrip(report)
        assert data["records"] == []

    def test_bad_verdict_rejected(self):
        from padfeec.errors import InvalidParameter

        with pytest.raises(InvalidParameter):
            CheckRecord("x", "maybe")

    def test_determinism_across_processes(self):
        args = [sys.executable, "-m", "padfeec.cli", "verify", "duality",
                "--mesh", "hole:4", "--k", "1"]
        first = subprocess.run(args, capture_output=True).stdout
        second = subprocess.run(args, capture_output=True).stdout
        assert first == second and first

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "padfeec.cli", "mesh", "info", "--mesh", "box:2"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert b"mesh-info" in proc.stdout


class TestWorkerCount:
    def test_run_entry_point(self):
        from padfeec.cli import run
        from padfeec.report import RunConfig

        report = run(RunConfig(command="mesh info", mesh="box:2").validate())
        assert report.all_passed
        assert report.records[0].numbers["cells"] == 8

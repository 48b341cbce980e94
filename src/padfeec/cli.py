"""Command-line driver: mesh generation, space building, verification suites
and scheme solves, with JSON/CSV reports.

`COMMANDS` declares each command, the function that runs it and the flags
it reads; the parser, the dispatch and the refusal of any other flag all
come from it.  Configuration precedence is CLI flags over a JSON config
file over defaults.  Every command but `suite all` runs on a mesh its
caller parses: `run` parses one for a single command, and `suite all`
parses each mesh spec once for all of its jobs.
"""

import argparse
import dataclasses
import gc
import json
import math
import sys
import time
import warnings

import numpy as np

from .errors import InvalidParameter, PadfeecError, ToleranceFailure
from .mesh import Mesh, generate_structured, shape_report
from .report import HODGE_SCHEMES, CheckRecord, Report, RunConfig, emit


def parse_mesh(config: RunConfig):
    if config.mesh_file:
        return Mesh.load(config.mesh_file)
    spec = config.mesh
    try:
        kind, _, size = spec.partition(":")
        n = int(size)
    except ValueError:
        raise PadfeecError("mesh spec must look like box:4, hole:8, tetbox:2, tunnel:4 or cavity:4")
    families = {
        "box": (2, "box"),
        "hole": (2, "hole"),
        "tetbox": (3, "box"),
        "tunnel": (3, "tunnel"),
        "cavity": (3, "cavity"),
    }
    if kind not in families:
        raise PadfeecError("unknown mesh family %r" % (kind,))
    dim, domain = families[kind]
    return generate_structured(dim, n, domain)


def parse_load(mesh, k, spec):
    from .solve import p0_moments, random_polynomial_load

    if spec == "zero":
        from .spaces import ladder

        return np.zeros(ladder(mesh).p0(k).dim)
    if spec.startswith("poly:"):
        seed = spec.split(":", 1)[1]
        if not (seed.isascii() and seed.isdigit()):
            raise InvalidParameter(
                "load poly:<seed> needs a non-negative integer seed, got %r" % (spec,)
            )
        return random_polynomial_load(mesh, k, seed=int(seed))
    if spec == "trig":
        from .forms import multiindices

        comps = len(multiindices(k, mesh.dim))

        def fn(p):
            base = math.cos(math.pi * p[0]) * math.cos(math.pi * p[1])
            return [base] * comps

        return p0_moments(mesh, k, fn)
    raise PadfeecError("unknown load %r (use zero, poly:<seed> or trig)" % (spec,))


# -- subcommand implementations ---------------------------------------------------


def cmd_mesh_gen(mesh, config, report):
    if config.out:
        mesh.save(config.out)
        config.out = ""  # the report goes to stdout; --out names the mesh file
    report.add(
        CheckRecord(
            "mesh-gen",
            "pass",
            numbers={
                "vertices": mesh.num_vertices,
                "cells": mesh.num_cells,
                "volume": mesh.total_volume(),
            },
            inputs={"mesh": config.mesh},
        )
    )


def cmd_mesh_info(mesh, config, report):
    shape = shape_report(mesh)
    tables = {k: mesh.subsimplices(k).count for k in range(mesh.dim + 1)}
    euler = sum(((-1) ** k) * c for k, c in tables.items())
    report.add(
        CheckRecord(
            "mesh-info",
            "pass",
            numbers={
                "dim": mesh.dim,
                "vertices": mesh.num_vertices,
                "cells": mesh.num_cells,
                "volume": mesh.total_volume(),
                "euler_characteristic": euler,
                "min_angle_deg": shape["min_angle_deg"],
                "max_aspect_ratio": shape["max_aspect_ratio"],
                "boundary_vertex_hypothesis": mesh.satisfies_vertex_hypothesis,
                **{"count_dim_%d" % k: c for k, c in tables.items()},
            },
        )
    )


def cmd_space_build(mesh, config, report, kind="abc"):
    from .spaces import broken_space, ladder, space_summary, verify_trace_continuity

    _require_degree(mesh, config.k, "space build", mesh.dim)
    lad = ladder(mesh)
    if kind == "broken":
        gs = broken_space(mesh, config.k, "primal")
        summary = space_summary(gs)
        verdict = "pass"
    elif kind == "conforming":
        gs = lad.whitney(config.k, config.bc)
        mismatch = verify_trace_continuity(gs)
        summary = space_summary(gs)
        summary["trace_mismatch"] = mismatch
        verdict = "pass" if mismatch < 1e-11 else "fail"
    elif kind == "star":
        gs = lad.whitney_star(config.k, config.bc)
        summary = space_summary(gs)
        verdict = "pass"
    elif kind == "abc":
        gs, cons = lad.abc(config.k, config.bc)
        atlas = lad.abc_atlas(config.k, config.bc)
        summary = space_summary(gs, atlas)
        verdict = "pass" if atlas.dim == gs.dim else "fail"
    else:
        raise PadfeecError("unknown space kind %r" % (kind,))
    report.add(CheckRecord("space-build-%s" % kind, verdict, numbers=summary))


def cmd_verify_base_pair(mesh, config, report):
    """The base-pair record; the pair and its domain indices only if every hypothesis holds."""
    from .adjoint import base_pair_report, quantified_crt_check, whitney_pair

    _require_degree(mesh, config.k, "verify base-pair", mesh.dim - 1)
    rep = base_pair_report(mesh, config.k, eig_tol=config.eig_tol)
    numbers = {
        "alpha": rep.alpha,
        "beta": rep.beta,
        "gamma": rep.gamma,
        "icr_broken": rep.icr_tilde,
        "icr_broken_adjoint": rep.icr_tilde_adjoint,
        "icr_core": rep.icr_under,
    }
    failed = [h for h, ok in rep.assumptions_ok.items() if not ok]
    verdict, note = "fail", "failed hypothesis: %s; no domain index taken" % ", ".join(failed)
    if not failed:
        pair = whitney_pair(mesh, config.k, config.bc)
        icr_p, icr_a, bound_ok = quantified_crt_check(pair, rep, eig_tol=config.eig_tol)
        numbers.update(icr_domain=icr_p, icr_adjoint_domain=icr_a)
        verdict, note = "pass" if bound_ok else "fail", ""
    numbers.update(annihilator_dim=rep.uM_dim, annihilator_dim_adjoint=rep.uN_dim)
    inputs = {"k": config.k, "mesh": config.mesh}
    report.add(CheckRecord("base-pair", verdict, numbers=numbers, inputs=inputs, note=note))


def cmd_verify_decomposition(mesh, config, report):
    from .adjoint import helmholtz_check, hodge_check, whitney_pair

    _require_degree(mesh, config.k, "verify decomposition", mesh.dim - 1)
    splits = [
        ("helmholtz-%s" % bc, helmholtz_check(whitney_pair(mesh, config.k, bc)), {"bc": bc})
        for bc in ("none", "homogeneous")
    ]
    if config.k >= 1:
        splits.append(("hodge", hodge_check(mesh, config.k), {}))
    for name, rep, inputs in splits:
        report.add(
            CheckRecord(
                name,
                rep.verdict,
                numbers={
                    "orthogonality_residual": rep.orthogonality_residual,
                    **_betti_numbers(mesh, config.k),
                    **{"dim_%s" % n: d for n, d in rep.rhs_dims.items()},
                },
                inputs={"k": config.k, **inputs},
                note=_vacuous_note(rep),
            )
        )


def _betti_numbers(mesh, k):
    """The absolute and relative Betti numbers at degree k, as record numbers."""
    return {
        "betti": mesh.betti_numbers()[k],
        "betti_relative": mesh.betti_numbers(relative=True)[k],
    }


def _vacuous_note(rep):
    """The note of a decomposition record whose pass compared empty spaces."""
    if not rep.vacuous:
        return ""
    return "vacuous: %s compared two zero-dimensional spaces" % ", ".join(rep.vacuous)


def cmd_verify_duality(mesh, config, report):
    from .adjoint import horizontal_duality_check, pl_duality_check

    _require_degree(mesh, config.k, "verify duality", mesh.dim)
    # a harmonic space that does not have its Betti number's dimension fails
    # the record with its ToleranceFailure, and the slices sized with it fail
    failure = ""
    try:
        rep = pl_duality_check(mesh, config.k)
    except ToleranceFailure as exc:
        failure = "ToleranceFailure: %s" % exc
        verdict, numbers, note = "fail", {}, failure
    else:
        verdict, note = rep.verdict, _vacuous_note(rep)
        numbers = {
            "identity_angle": rep.identity_angle,
            **{"dim_%s" % n: d for n, d in rep.lhs_dims.items()},
        }
    numbers.update(_betti_numbers(mesh, config.k))
    report.add(
        CheckRecord(
            "poincare-lefschetz", verdict, numbers=numbers, inputs={"k": config.k}, note=note
        )
    )
    if config.k <= mesh.dim - 1:
        verdict, numbers, note = "fail", _betti_numbers(mesh, config.k), failure
        if not failure:
            # a slice that does not have its integer dimension raises
            rep = horizontal_duality_check(mesh, config.k)
            verdict, note = rep.verdict, _vacuous_note(rep)
            numbers = {
                "identity_angle": rep.identity_angle,
                **numbers,
                **{"dim_%s" % n: d for n, d in {**rep.lhs_dims, **rep.rhs_dims}.items()},
            }
        report.add(
            CheckRecord(
                "horizontal-duality", verdict, numbers=numbers, inputs={"k": config.k}, note=note
            )
        )


def cmd_verify_complex(mesh, config, report):
    """The complex on the compact basis, and its route equivalence with the constraint route."""
    from .adjoint import complex_rank
    from .linalg import Subspace, abs_max, subspace_equal
    from .spaces import ladder

    lad = ladder(mesh)
    for bc in ("none", "homogeneous"):
        worst = 0.0
        dims = {}
        for k in range(mesh.dim):
            A = lad.abc_basis(k, bc)
            C = lad.abc_constraints(k + 1, bc)
            if C.shape[0]:
                image = lad.p0_injection(k + 1) @ (lad.d_matrix(k) @ A)
                worst = max(worst, abs_max(C @ image))
            r = complex_rank(mesh, "abc", k, bc)
            dims["kernel_%d" % k] = A.shape[1] - r
            dims["range_%d" % (k + 1)] = r
        report.add(
            CheckRecord(
                "complex-property-%s" % bc,
                "pass" if worst < 1e-11 else "fail",
                numbers={"containment_residual": worst, **dims},
                inputs={"bc": bc},
            )
        )
        angles = []
        for k in range(mesh.dim + 1):
            gs, _ = lad.abc(k, bc)
            basis = lad.abc_basis(k, bc)
            A = Subspace.from_span(basis, lad.primal(k).gram())
            ok, ang = subspace_equal(A, gs.subspace(), lad.primal(k).gram(), tol=1e-9)
            angles.append(ang if basis.shape[1] == gs.dim and ok else np.inf)
        report.add(
            CheckRecord(
                "route-equivalence-%s" % bc,
                "pass" if max(angles) < 1e-9 else "fail",
                numbers={"max_angle": max(angles)},
                inputs={"bc": bc},
            )
        )


def _require_degree(mesh, k, command, top, bottom=0):
    """Refuse a degree outside bottom..top; the commands that pair k with k+1 take top n - 1."""
    if not bottom <= k <= top:
        raise InvalidParameter(
            "%s needs degree k in %d..%d on a %d-D mesh, got %d"
            % (command, bottom, top, mesh.dim, k)
        )


def cmd_verify_interp(mesh, config, report):
    from .forms import random_polyform
    from .interp import (
        commute_check,
        constraint_residual,
        global_field,
        interpolate_global,
        projectivity_matrix,
        stability_report,
    )

    k = config.k
    J = projectivity_matrix(mesh, k)
    proj = float(np.abs(J @ J - J).max())
    report.add(
        CheckRecord(
            "interp-projectivity",
            "pass" if proj < 1e-12 else "fail",
            numbers={"idempotency_residual": proj},
            inputs={"k": k},
        )
    )
    rng = np.random.default_rng(0)
    worst_commute = 0.0
    worst_domain = 0.0
    fields = []
    for _ in range(20):
        form = random_polyform(mesh.dim, k, 2, rng)
        field = global_field(mesh, form)
        fields.append(field)
        if k < mesh.dim:
            worst_commute = max(worst_commute, commute_check(mesh, k, field))
        vec = interpolate_global(mesh, k, field)
        worst_domain = max(worst_domain, constraint_residual(mesh, k, "none", vec))
    report.add(
        CheckRecord(
            "interp-commutation",
            "pass" if worst_commute < 1e-11 else "fail",
            numbers={"residual": worst_commute},
            inputs={"k": k},
        )
    )
    report.add(
        CheckRecord(
            "interp-domain-preservation",
            "pass" if worst_domain < 1e-11 else "fail",
            numbers={"residual": worst_domain},
            inputs={"k": k},
        )
    )
    if k == mesh.dim:
        # the stability bounds come from the (k, k+1) base pair
        report.add(
            CheckRecord(
                "interp-stability",
                "skipped",
                inputs={"k": k},
                note="no (n, n+1) base pair at the top degree",
            )
        )
        return
    stab = stability_report(mesh, k, fields)
    ok = (
        stab["energy_ratio"] <= stab["energy_bound"] + 1e-9
        and stab["graph_ratio"] <= stab["graph_bound"] + 1e-9
    )
    report.add(
        CheckRecord(
            "interp-stability",
            "pass" if ok else "fail",
            numbers=stab,
            inputs={"k": k},
        )
    )


def _export_solutions(path, solutions):
    """Write coefficient vectors keyed by degree-of-freedom id, per scheme."""
    payload = {
        tag: {
            name: {str(i): float(v) for i, v in enumerate(vec)}
            for name, vec in sol.components.items()
            if hasattr(vec, "__len__")
        }
        for tag, sol in solutions.items()
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def cmd_solve_source(mesh, config, report, export=None):
    from .solve import solve_source_dual, solve_source_primal, verify_source_equivalence

    _require_degree(mesh, config.k, "solve source", mesh.dim - 1)
    load = parse_load(mesh, config.k, config.load)
    sp = solve_source_primal(mesh, config.k, load, config.bc)
    sd = solve_source_dual(mesh, config.k, load, config.bc)
    rep = verify_source_equivalence(mesh, sp, sd)
    if export:
        _export_solutions(export, {"primal": sp, "dual": sd})
    report.add(
        CheckRecord(
            "source-equivalence",
            rep.verdict,
            numbers={**rep.residuals, "primal_residual": sp.residual, "dual_residual": sd.residual},
            inputs={"k": config.k, "bc": config.bc, "load": config.load},
        )
    )


def cmd_solve_eigen(mesh, config, report):
    from .solve import solve_eigen_pair

    _require_degree(mesh, config.k, "solve eigen", mesh.dim - 1)
    pv, dv, rep, meta = solve_eigen_pair(mesh, config.k, config.bc)
    numbers = {
        "nonzero_spectrum_gap": rep.residuals["nonzero_spectrum_gap"],
        "count_primal": rep.residuals["count_primal"],
        "count_dual": rep.residuals["count_dual"],
        **meta,
    }
    for i, v in enumerate(pv[:5]):
        numbers["lambda_%d" % (i + 1)] = float(v)
    report.add(
        CheckRecord("eigen-equivalence", rep.verdict, numbers=numbers, inputs={"k": config.k})
    )


def cmd_solve_hodge(mesh, config, report, export=None):
    """The chosen Hodge schemes; with --scheme all, also their equivalences."""
    from .solve import p0_moments, solve_hodge, verify_hodge_equivalences

    _require_degree(mesh, config.k, "solve hodge", mesh.dim - 1, bottom=1)
    load = parse_load(mesh, config.k, config.load)
    # every scheme reads only the constant moments of the load: take them once
    moments = load if isinstance(load, np.ndarray) else p0_moments(mesh, config.k, load)
    schemes = HODGE_SCHEMES if config.scheme == "all" else (config.scheme,)
    sols = {}
    for scheme in schemes:
        sols[scheme] = solve_hodge(mesh, config.k, moments, scheme)
    if export:
        _export_solutions(export, sols)
    for scheme in schemes:
        report.add(
            CheckRecord(
                "hodge-%s" % scheme,
                "pass" if sols[scheme].residual < 1e-10 else "fail",
                numbers={
                    "solver_residual": sols[scheme].residual,
                    "condition": sols[scheme].condition,
                },
                inputs={"k": config.k, "load": config.load},
            )
        )
    if config.scheme == "all":
        rep = verify_hodge_equivalences(mesh, config.k, sols)
        report.add(
            CheckRecord(
                "hodge-equivalences",
                rep.verdict,
                numbers=rep.residuals,
                inputs={"k": config.k, "load": config.load},
            )
        )


def cmd_suite_all(config, report, fast=False):
    """The whole verification battery on a fixed mesh matrix, run serially."""
    if config.mesh_file:
        raise InvalidParameter("suite all runs its fixed mesh matrix and takes no --mesh-file")
    jobs = []

    def job(command, mesh, k=config.k):
        jobs.append(RunConfig(**{**config.to_dict(), "command": command, "mesh": mesh, "k": k}))

    specs = ["box:2", "box:4", "hole:4"] if fast else ["box:2", "box:4", "box:8", "hole:4", "hole:8"]
    for spec in specs:
        for k in (0, 1):
            job("verify base-pair", spec, k)
            job("verify decomposition", spec, k)
        job("verify duality", spec, 1)
        job("verify complex", spec)
        job("verify interp", spec, 0)
        job("solve source", spec, 0)
        job("solve eigen", spec, 0)
        job("solve hodge", spec, 1)
    if not fast:
        job("verify base-pair", "tetbox:1", 1)
        job("verify complex", "tetbox:1")
        job("verify interp", "tetbox:1", 1)
        # a solid torus: the 3-D duality check compares nonzero harmonic spaces
        job("verify duality", "tunnel:4", 1)
    # The jobs of one spec are adjacent and share one mesh, and with it the
    # ladder the mesh owns.  A mesh and its ladder refer to each other, so
    # only the cycle collector frees them: it runs when a spec's mesh is
    # done, and one spec's mesh is alive at a time.  The jobs' modules are
    # imported first and everything alive then is frozen, so each collection
    # walks only what the jobs made.  A mesh that fails to parse is retried,
    # and fails, job by job.
    from . import adjoint, interp, solve  # noqa: F401

    gc.freeze()
    try:
        spec = mesh = None
        for cfg in jobs:
            local = Report(cfg)
            try:
                if cfg.mesh != spec:
                    spec = None
                    if mesh is not None:
                        mesh = None
                        gc.collect()
                    mesh, spec = parse_mesh(cfg), cfg.mesh
                globals()[COMMANDS[cfg.command][0]](mesh, cfg, local)
            except PadfeecError as exc:
                local.add(
                    CheckRecord(
                        cfg.command.replace(" ", "-"),
                        "fail",
                        note="%s: %s" % (type(exc).__name__, exc),
                    )
                )
            for rec in local.records:
                rec.inputs = {**rec.inputs, "mesh": cfg.mesh}
                rec.name = "%s/%s" % (cfg.mesh, rec.name)
                report.add(rec)
    finally:
        gc.unfreeze()


# -- argument parsing --------------------------------------------------------------

_MESH = ("--mesh", "--mesh-file")

# Each command: the function that runs it, and the flags it reads besides
# --out, --format and --timings, which every command reads.  A command's
# parser takes only these, and refuses every other flag.
COMMANDS = {
    "mesh gen": ("cmd_mesh_gen", _MESH),
    "mesh info": ("cmd_mesh_info", _MESH),
    "space build": ("cmd_space_build", _MESH + ("--k", "--bc", "--kind")),
    "verify base-pair": ("cmd_verify_base_pair", _MESH + ("--k", "--bc", "--eig-tol", "--levels")),
    # decomposition, duality and interp run both bcs (or none) themselves,
    # and verify complex every degree as well
    "verify decomposition": ("cmd_verify_decomposition", _MESH + ("--k",)),
    "verify duality": ("cmd_verify_duality", _MESH + ("--k",)),
    "verify complex": ("cmd_verify_complex", _MESH),
    "verify interp": ("cmd_verify_interp", _MESH + ("--k",)),
    "solve source": ("cmd_solve_source", _MESH + ("--k", "--bc", "--load", "--export-solutions")),
    "solve eigen": ("cmd_solve_eigen", _MESH + ("--k", "--bc")),
    # every Hodge scheme fixes its own boundary conditions
    "solve hodge": (
        "cmd_solve_hodge",
        _MESH + ("--k", "--load", "--scheme", "--check-equivalence", "--export-solutions"),
    ),
    # suite all runs its fixed mesh matrix and passes these on to its jobs
    "suite all": ("cmd_suite_all", ("--fast", "--bc", "--load", "--eig-tol")),
}

FLAGS = {
    "--mesh": dict(help="box:N, hole:N, tetbox:N, tunnel:N or cavity:N"),
    "--mesh-file": dict(),
    "--k": dict(type=int),
    "--bc": dict(choices=("none", "homogeneous")),
    "--kind": dict(choices=("broken", "conforming", "star", "abc"), default="abc"),
    "--load": dict(help="zero, poly:<seed> or trig"),
    "--scheme": dict(help="all, " + ", ".join(HODGE_SCHEMES)),
    "--eig-tol": dict(type=float),
    "--levels": dict(help="comma list of mesh sizes"),
    "--export-solutions": dict(metavar="FILE"),
    "--check-equivalence": dict(action="store_true"),
    "--fast": dict(action="store_true"),
    "--out": dict(),
    "--format": dict(choices=("json", "csv")),
    "--timings": dict(action="store_true"),
}

# The flags that are not config keys, by the `run` option that carries each.
OPTIONS = {"--kind": "kind", "--levels": "levels", "--export-solutions": "export", "--fast": "fast"}


class _Parser(argparse.ArgumentParser):
    """A parse error is one `InvalidParameter`, not a usage block and an exit."""

    def error(self, message):
        raise InvalidParameter(message)


def build_parser():
    parser = _Parser(
        prog="padfeec", description="Partially adjoint discretizations on simplicial meshes"
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    groups = parser.add_subparsers(dest="group", required=True)
    actions = {}
    for command, (_, flags) in COMMANDS.items():
        group, action = command.split()
        if group not in actions:
            actions[group] = groups.add_parser(group).add_subparsers(dest="action", required=True)
        p = actions[group].add_parser(action)
        for flag in flags + ("--out", "--format", "--timings"):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def merge_config(args):
    """The run's config: each flag given over the config file over `RunConfig`'s defaults."""
    keys = [f.name for f in dataclasses.fields(RunConfig) if f.name != "command"]
    file_conf = {}
    if args.config:
        with open(args.config) as fh:
            try:
                file_conf = json.load(fh)
            except ValueError as exc:
                raise InvalidParameter("config file is not valid JSON: %s" % exc)
        if not isinstance(file_conf, dict):
            raise InvalidParameter(
                "config file must hold a JSON object, not %s" % type(file_conf).__name__
            )
    unknown = sorted(set(file_conf) - set(keys))
    if unknown:
        raise InvalidParameter("unknown config key(s): %s" % ", ".join(map(repr, unknown)))
    merged = {key: file_conf[key] for key in keys if file_conf.get(key) is not None}
    # a flag the command does not read is not in its namespace
    for key in keys:
        value = getattr(args, "format" if key == "fmt" else key, None)
        if value is not None:
            merged[key] = value
    config = RunConfig(command="%s %s" % (args.group, args.action), **merged)
    # the scheme equivalences run exactly when every scheme does
    if getattr(args, "check_equivalence", False) and config.scheme != "all":
        raise InvalidParameter(
            "--check-equivalence needs --scheme all, got --scheme %s" % (config.scheme,)
        )
    return config.validate()


def parse_levels(text):
    """Mesh sizes from a comma list such as ``2,4,8``: at least one, none repeated."""
    try:
        levels = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        levels = []
    if not levels or len(set(levels)) < len(levels):
        raise InvalidParameter("--levels needs a comma list of distinct integers, got %r" % (text,))
    return levels


def _run_levels(fn, config, report, levels):
    """The command on one mesh per level of the --mesh family; each record is named by its mesh."""
    if config.mesh_file:
        raise InvalidParameter("--levels builds its meshes from the --mesh family, not a file")
    family = config.mesh.split(":", 1)[0]
    for n in levels:
        sub = RunConfig(**{**config.to_dict(), "mesh": "%s:%d" % (family, n)})
        local = Report(sub)
        fn(parse_mesh(sub), sub, local)
        for rec in local.records:
            rec.name = "%s-%s" % (rec.name, sub.mesh)
            report.add(rec)


def run(config: RunConfig, **options):
    """Execute the command named by config.command and return its Report.

    ``options`` holds the values of the flags that are not config keys, by
    the names in `OPTIONS`; the command gets those of the flags it reads.
    """
    if config.command not in COMMANDS:
        raise PadfeecError("unknown command %r" % (config.command,))
    name, flags = COMMANDS[config.command]
    fn = globals()[name]  # looked up here, so a wrapped or patched command runs
    kw = {key: options[key] for flag, key in OPTIONS.items() if flag in flags and key in options}
    levels = kw.pop("levels", None)
    report = Report(config)
    t0 = time.time()
    if "--mesh" not in flags:  # suite all parses the meshes of its matrix itself
        fn(config, report, **kw)
    elif levels:
        _run_levels(fn, config, report, levels)
    else:
        fn(parse_mesh(config), config, report, **kw)
    report.timings["total_seconds"] = time.time() - t0
    return report


def main(argv=None):
    # `linalg.solve_symmetric` raises the SolverFailure of an exactly singular
    # dense factor; LAPACK's own warning of it would be a second line
    warnings.filterwarnings("ignore", message="Diagonal number .* is exactly zero")
    try:
        args, unread = build_parser().parse_known_args(argv)
        command = "%s %s" % (args.group, args.action)
        if unread:
            flags = [a.split("=", 1)[0] for a in unread if a.startswith("--")] or unread
            raise InvalidParameter(
                "%s does not read %s (see padfeec %s --help)" % (command, ", ".join(flags), command)
            )
        config = merge_config(args)
        levels = None
        if getattr(args, "levels", None) is not None:
            levels = parse_levels(args.levels)
        report = run(
            config,
            kind=getattr(args, "kind", "abc"),
            levels=levels,
            export=getattr(args, "export_solutions", None),
            fast=getattr(args, "fast", False),
        )
        payload = emit(report, config.fmt, include_timings=args.timings)
        if config.out:
            with open(config.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
        return 0 if report.all_passed else 1
    except np.linalg.LinAlgError as exc:
        # a LAPACK factorization that failed: singular, indefinite or not converged
        sys.stderr.write("error: SolverFailure: %s\n" % exc)
        return 2
    except MemoryError as exc:
        sys.stderr.write("error: MemoryError: %s\n" % (str(exc) or "out of memory"))
        return 2
    except (PadfeecError, OSError) as exc:
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

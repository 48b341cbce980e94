"""Span and counter tracing of padfeec, installed from outside the package.

`install()` wraps every public function of the ten padfeec modules, plus the
`Mesh` and `DeRhamLadder` constructors, at every name that binds it (a name
imported with `from .forms import l2_inner` is a separate binding in each
importing module).  It also wraps `scipy.linalg.eigh` and `eigvalsh`, which
padfeec.linalg calls for every dense symmetric eigenproblem.  Nothing under
`src/` changes.

Two kinds of wrapper share one per-thread frame stack:

* span functions (the coarse entry points listed in `SPANS`) record one span
  per call: name, start, end, parent span and job id;
* every other public function is a kernel: counted and timed in aggregate,
  never one record per call.

A frame's self time is its duration minus the time its child frames cover;
it is charged to the frame's module.  Time in unwrapped code (private
helpers, class methods) is therefore charged to the nearest wrapped caller.
Suite jobs run on worker threads: a frame that opens on an empty worker
stack takes the main thread's innermost span as its parent, and the union of
such frames' intervals is subtracted from that parent's self time.

Everything is kept in memory; `Tracer.layers()` and `Tracer.span_records()`
read it out once the command has finished.
"""

import functools
import hashlib
import importlib
import inspect
import itertools
import threading
import time

import numpy as np

MODULES = ("cli", "report", "mesh", "forms", "local", "spaces", "adjoint", "interp", "solve", "linalg")

# Functions recording one span per call; all other wrapped functions are kernels.
SPANS = {
    "cli.merge_config", "cli.run", "cli.parse_mesh", "cli.parse_load",
    "cli.cmd_mesh_gen", "cli.cmd_mesh_info", "cli.cmd_space_build",
    "cli.cmd_verify_base_pair", "cli.cmd_verify_decomposition", "cli.cmd_verify_duality",
    "cli.cmd_verify_complex", "cli.cmd_verify_interp", "cli.cmd_solve_source",
    "cli.cmd_solve_eigen", "cli.cmd_solve_hodge", "cli.cmd_suite_all",
    "report.emit",
    "mesh.generate_structured", "mesh.refine_uniform",
    "spaces.conforming_whitney", "spaces.star_space", "spaces.abcfes_by_constraints",
    "spaces.abcfes_local_basis",
    "adjoint.base_pair_report", "adjoint.whitney_pair", "adjoint.quantified_crt_check",
    "adjoint.helmholtz_check", "adjoint.hodge_check", "adjoint.harmonic_space",
    "adjoint.pl_duality_check", "adjoint.horizontal_duality_check",
    "interp.projectivity_matrix", "interp.commute_check", "interp.stability_report",
    "solve.solve_source_primal", "solve.solve_source_dual", "solve.verify_source_equivalence",
    "solve.solve_eigen_pair", "solve.solve_hodge", "solve.verify_hodge_equivalences",
}

# Span functions that start a job: one command's unit of work.  `cmd_suite_all`
# is not one; it runs the suite's jobs.
JOBS = {name for name in SPANS if name.startswith("cli.cmd_")} - {"cli.cmd_suite_all"}

# Inclusive-time metrics: time inside any member, counted at the outermost
# member only, so nested or recursive calls are not counted twice.
GROUPS = {
    "interp.spec_build_s": ["interp.interpolator_spec"],
    "interp.projectivity_s": ["interp.projectivity_matrix"],
    "local.decompose_s": ["local.decompose_local"],
    "spaces.abc_s": ["spaces.abcfes_by_constraints"],
    "spaces.abc_atlas_s": ["spaces.abcfes_local_basis"],
    "spaces.whitney_s": ["spaces.conforming_whitney", "spaces.star_space"],
    "linalg.nullspace_s": ["linalg.nullspace"],
    "linalg.orthonormalize_s": ["linalg.orthonormalize"],
    "linalg.eig_s": ["scipy.linalg.eigh", "scipy.linalg.eigvalsh"],
    "solve.hodge_s": ["solve.solve_hodge"],
    "solve.equivalence_s": ["solve.verify_hodge_equivalences", "solve.verify_source_equivalence"],
    "adjoint.base_pair_s": ["adjoint.base_pair_report"],
    "adjoint.checks_s": [
        "adjoint.quantified_crt_check", "adjoint.helmholtz_check", "adjoint.hodge_check",
        "adjoint.pl_duality_check", "adjoint.horizontal_duality_check",
    ],
    "report.emit_s": ["report.emit"],
}
# Every public forms function belongs to this group: time spent in the form algebra.
FORMS_GROUP = "forms.kernel_s"

# Call-count metrics.
COUNTS = {
    "mesh.meshes_built": "mesh.Mesh.__init__",
    "spaces.ladder_builds": "spaces.DeRhamLadder.__init__",
    "spaces.abc_builds": "spaces.abcfes_by_constraints",
    "interp.local_solves": "interp.interpolate_local",
    "forms.l2_inner_calls": "forms.l2_inner",
    "local.decompose_calls": "local.decompose_local",
    "linalg.nullspace_calls": "linalg.nullspace",
}

CONSTRUCTORS = (("mesh", "Mesh"), ("spaces", "DeRhamLadder"))

# The dense symmetric eigensolvers, which padfeec.linalg looks up in the
# scipy.linalg namespace at each call; their frames belong to linalg.
EIGENSOLVERS = ("eigh", "eigvalsh")

# Index and sign helpers called inside the form kernels, up to millions of
# times; wrapping them would multiply the tracing cost and move no time
# between layers.
UNWRAPPED = {"forms.multiindices", "forms.star_sign", "forms.codifferential_sign"}


def mesh_fingerprint(mesh):
    """Content key of a mesh: equal for two meshes built from one spec."""
    digest = hashlib.sha1(np.ascontiguousarray(mesh.vertices).tobytes())
    digest.update(repr(mesh.cells).encode())
    return digest.hexdigest()


class ThreadState:
    def __init__(self, n_fn, n_mod, n_group):
        self.stack = []  # frames: [start, child time, enclosing span id, job id]
        self.counts = [0] * n_fn
        self.self_time = [0.0] * n_mod
        self.group_depth = [0] * n_group
        self.group_time = [0.0] * n_group
        self.spans = []  # (span id, fn index, start, end, parent span id, job id, thread)
        self.cross = []  # worker-thread root frames: (parent span id, start, end)
        self.max_operand_bytes = 0
        self.abc_keys = []


class Tracer:
    def __init__(self):
        self.fn_names = []
        self.group_names = list(GROUPS) + [FORMS_GROUP]
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._job_ids = itertools.count(1)
        self._main = None

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap padfeec's public functions at every binding site; returns self."""
        mods = {name: importlib.import_module("padfeec." + name) for name in MODULES}
        package = importlib.import_module("padfeec")
        wrappers = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                name = "%s.%s" % (mname, attr)
                if getattr(obj, "__module__", None) != mod.__name__ or name in UNWRAPPED:
                    continue
                wrappers[id(obj)] = self._wrap(obj, mname, name)
        for mod in list(mods.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not attr.startswith("__"):
                    setattr(mod, attr, wrappers[id(obj)])
        for mname, cls_name in CONSTRUCTORS:
            cls = getattr(mods[mname], cls_name)
            cls.__init__ = self._wrap(cls.__init__, mname, "%s.%s.__init__" % (mname, cls_name))
        scipy_linalg = importlib.import_module("scipy.linalg")
        for attr in EIGENSOLVERS:
            fn = getattr(scipy_linalg, attr)
            setattr(scipy_linalg, attr, self._wrap(fn, "linalg", "scipy.linalg." + attr))
        self._main = self._state()
        return self

    def _state(self):
        st = ThreadState(len(self.fn_names), len(MODULES), len(self.group_names))
        with self._lock:
            self._states.append(st)
        self._local.state = st
        return st

    def _wrap(self, fn, module, name):
        idx = len(self.fn_names)
        self.fn_names.append(name)
        mod = MODULES.index(module)
        groups = tuple(
            g for g, gname in enumerate(self.group_names) if name in GROUPS.get(gname, ())
        )
        if module == "forms":
            groups += (self.group_names.index(FORMS_GROUP),)
        is_span = name in SPANS
        is_job = name in JOBS
        sized = module == "linalg"
        keyed = name == "spaces.abcfes_by_constraints"
        local = self._local
        new_state = self._state
        span_ids = self._span_ids
        job_ids = self._job_ids
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = new_state()
            st.counts[idx] += 1
            if sized:
                for a in itertools.chain(args, kwargs.values()):
                    if isinstance(a, np.ndarray) and a.nbytes > st.max_operand_bytes:
                        st.max_operand_bytes = a.nbytes
            if keyed:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                st.abc_keys.append((mesh_fingerprint(a["mesh"]), a["k"], a["bc"]))
            stack = st.stack
            root = not stack
            if stack:
                enclosing, job = stack[-1][2], stack[-1][3]
            elif st is not self._main and self._main.stack:
                outer = self._main.stack[-1]
                enclosing, job = outer[2], outer[3]
            else:
                enclosing, job = None, 0
            parent = enclosing
            if is_span:
                sid = next(span_ids)
                if is_job:
                    job = next(job_ids)
                enclosing = sid
            depth = st.group_depth
            for g in groups:
                depth[g] += 1
            frame = [0.0, 0.0, enclosing, job]
            stack.append(frame)
            t0 = frame[0] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                st.self_time[mod] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                elif root and st is not self._main and parent is not None:
                    st.cross.append((parent, t0, t1))
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        st.group_time[g] += dur
                if is_span:
                    st.spans.append((sid, idx, t0, t1, parent, job, threading.get_ident()))

        return traced

    # -- read-out ----------------------------------------------------------------

    def span_records(self, origin):
        """All spans, start-ordered, with times in seconds after `origin`."""
        rows = sorted(s for st in self._states for s in st.spans)
        return [
            {
                "id": sid,
                "name": self.fn_names[idx],
                "start": t0 - origin,
                "end": t1 - origin,
                "parent": parent,
                "job": job,
                "thread": thread,
            }
            for sid, idx, t0, t1, parent, job, thread in rows
        ]

    def layers(self, wall_s):
        """Per-layer metrics of everything traced so far."""
        states = list(self._states)
        counts = [sum(st.counts[i] for st in states) for i in range(len(self.fn_names))]
        by_name = dict(zip(self.fn_names, counts))
        self_time = [sum(st.self_time[m] for st in states) for m in range(len(MODULES))]
        spans = {s[0]: s for st in states for s in st.spans}
        # frames run by worker threads cover part of their parent span
        covered = {}
        for st in states:
            for parent, t0, t1 in st.cross:
                covered.setdefault(parent, []).append((t0, t1))
        for parent, intervals in covered.items():
            _, idx, p0, p1, *_ = spans[parent]
            self_time[MODULES.index(self.fn_names[idx].split(".")[0])] -= union_length(
                intervals, p0, p1
            )
        out = {}
        jobs = [s for s in spans.values() if self.fn_names[s[1]] in JOBS]
        suites = [s for s in spans.values() if self.fn_names[s[1]] == "cli.cmd_suite_all"]
        out["cli.jobs"] = len(jobs)
        span_wall = sum(s[3] - s[2] for s in suites) if suites else wall_s
        out["cli.job_overlap"] = sum(s[3] - s[2] for s in jobs) / span_wall
        for metric, fn_name in COUNTS.items():
            out[metric] = by_name[fn_name]
        keys = [k for st in states for k in st.abc_keys]
        out["spaces.abc_distinct_share"] = len(set(keys)) / len(keys) if keys else 1.0
        for g, name in enumerate(self.group_names):
            out[name] = sum(st.group_time[g] for st in states)
        out["linalg.max_operand_mb"] = max(st.max_operand_bytes for st in states) / 2**20
        for m, mname in enumerate(MODULES):
            out["%s.self_s" % mname] = self_time[m]
        return out


def union_length(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total

"""padfeec benchmark: time to a verdict, memory and failures per workload.

    python3 perfbench/run.py --workload suite-fast --seed 1 --seconds 30 --trace 0

Run from the root of a padfeec checkout.  Each workload is one padfeec
command run as a closed loop: one caller issues the command, waits for the
report, and issues it again in a fresh Python process for as long as the next
command, taking as long as the last one, ends within `--seconds` (at least
once).  The environment is passed through unchanged, so
`PADFEEC_THREADS` and `OPENBLAS_NUM_THREADS` keep the user's default.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json: the median wall time from `merge_config` to the emitted
report bytes (`wall_s`), the median peak RSS of the command's process
(`peak_rss_mb`) and the median of five fresh-process imports (`setup_s`).
With `--trace 1` the untraced loop is followed by one traced command, and the
last line carries the per-layer metrics plus `trace.overhead_s`; the spans are
written to perfbench/out/.  Either way every measured metric is printed, by
name and with its unit, above the last line.

Every command's records must all pass and their count must match the
workload, or the run is not correct.  The sha256 of each report is printed;
a changed digest is information, not a failure.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
BUDGET_S = 170.0  # a child still running this long after the run started is killed


@dataclass(frozen=True)
class Workload:
    argv: tuple  # padfeec arguments; "{seed}" is replaced by the load seed
    records: int  # records the report must hold, all "pass"

    @property
    def seeded(self):
        return any("{seed}" in a for a in self.argv)

    def command(self, seed):
        return [a.replace("{seed}", str(seed % 2**32)) for a in self.argv]


WORKLOADS = {
    "suite-fast": Workload(("suite", "all", "--fast", "--load", "poly:{seed}"), 72),
    "interp-box8": Workload(("verify", "interp", "--mesh", "box:8", "--k", "0"), 4),
    "hodge-box16": Workload(
        ("solve", "hodge", "--mesh", "box:16", "--k", "1", "--scheme", "all",
         "--check-equivalence", "--load", "poly:{seed}"),
        5,
    ),
}


def child(args, deadline):
    """Run perfbench/child.py once; its last stdout line, parsed."""
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args], capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %.0f s" % timeout}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        out = {}
    if proc.returncode != 0 and "error" not in out:
        out["error"] = "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
    return out


def check(out, expected):
    """Records of one command that did not pass; all of them if it raised."""
    if "error" in out or out.get("records") != expected:
        return expected
    return expected - out["passed"]


def measure(workload, seed, seconds, trace, log=print):
    """Run one workload; returns (metrics by name, attempted, failed)."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    argv = workload.command(seed)
    metrics = {}
    attempted = failed = 0
    probes = [child(["setup"], deadline) for _ in range(SETUP_PROBES)]
    for p in probes:
        if "error" in p:
            raise RuntimeError("setup probe failed: %s" % p["error"])
    metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    log("setup_s probes: " + " ".join("%.4f" % p["setup_s"] for p in probes))
    runs = []
    while True:
        t0 = time.monotonic()
        out = child(["command", "--", *argv], deadline)
        runs.append(out)
        attempted += workload.records
        failed += check(out, workload.records)
        log("command %d: %s" % (len(runs), summary(out, workload.records)))
        now = time.monotonic()
        # start no command that, taking as long as the last one, would end
        # after `seconds`
        if now - start + (now - t0) > seconds:
            break
    good = [r for r in runs if "error" not in r]
    if good:
        metrics["wall_s"] = statistics.median(r["wall_s"] for r in good)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in good)
    digests = sorted({r["sha256"] for r in good})
    log("report sha256: %s" % ", ".join(digests) + ("" if len(digests) < 2 else " (changed between commands)"))
    if trace:
        spans = spans_path(argv, seed)
        out = child(["command", "--spans", spans, "--", *argv], deadline)
        attempted += workload.records
        failed += check(out, workload.records)
        log("traced command: %s; %s spans in %s" % (summary(out, workload.records), out.get("spans"), spans))
        if "layers" in out:
            metrics.update(out["layers"])
            if "wall_s" in metrics:
                metrics["trace.overhead_s"] = out["wall_s"] - metrics["wall_s"]
    return metrics, attempted, failed


def spans_path(argv, seed):
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, "spans-%s-%d.json" % ("-".join(argv[:2]), seed))


def summary(out, expected):
    if "error" in out:
        return "error: %s" % out["error"]
    return "wall_s=%.4f peak_rss_mb=%.1f records=%d/%d pass sha256=%s" % (
        out["wall_s"], out["peak_rss_mb"], out["passed"], expected, out["sha256"][:16]
    )


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "PADFEEC_THREADS": os.environ.get("PADFEEC_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": git_commit(),
    }


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared_metrics(spec, trace):
    """The metrics the result line carries: per-layer when traced, else end-to-end."""
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "padfeec", "cli.py")):
        sys.stderr.write("perfbench: no padfeec source under %s\n" % os.path.join(ROOT, "src"))
        return 2
    workload = WORKLOADS[args.workload]
    spec = load_spec()
    print("perfbench: workload=%s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("command: padfeec %s" % " ".join(workload.command(args.seed)))
    if not workload.seeded:
        print("seed: not used; %s draws its sample fields from the CLI's fixed default_rng(0)" % args.workload)
    print("environment: %s" % json.dumps(environment(), sort_keys=True))
    values, attempted, failed = measure(workload, args.seed, args.seconds, args.trace)
    print("fail_share: %.6g share (%d of %d records not pass)" % (failed / attempted, failed, attempted))
    print("metrics:")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in values:
            print("  %-26s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    out = result(declared_metrics(spec, args.trace), values, attempted, failed)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def result(declared, values, attempted, failed):
    """The result line: every declared metric that was measured, with its unit."""
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values
    }
    correct = failed == 0 and len(metrics) == len(declared)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())

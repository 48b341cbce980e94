"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs the box:2 versions of interp-box8 and hodge-box16, and suite-fast itself
(`suite all --fast` is the smallest suite the CLI offers), then checks that

* every record passes and every declared metric is emitted with its unit;
* the count metrics are identical across two traced runs;
* module self times are non-negative and the top-level spans sum to no more
  than the traced wall time;
* a command that fails or raises is counted as failed;
* a directory holding only BENCHMARK.json and perfbench/ makes run.py exit
  non-zero without a result line.

Exits 0 when every check holds; prints one line per failed check otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

from run import OUT, ROOT, WORKLOADS, Workload, check, declared_metrics, load_spec, measure, result, spans_path

TINY = {
    "suite-fast": WORKLOADS["suite-fast"],
    "interp-box8": Workload(("verify", "interp", "--mesh", "box:2", "--k", "0"), 4),
    "hodge-box16": Workload(
        ("solve", "hodge", "--mesh", "box:2", "--k", "1", "--scheme", "all",
         "--check-equivalence", "--load", "poly:{seed}"),
        5,
    ),
}
SEED = 1


def is_count(name):
    return name.endswith(("_calls", "_builds", "_built")) or name in ("interp.local_solves", "cli.jobs")


def quiet(line):
    pass


def emitted(trace, values, attempted, failed):
    """Problems with the result line built from these values."""
    declared = declared_metrics(load_spec(), trace)
    out = result(declared, values, attempted, failed)
    problems = []
    if not out["correct"]:
        problems.append("result is not correct: %d of %d failed" % (failed, attempted))
    for m in declared:
        got = out["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append("metric %s not emitted with unit %s" % (m["name"], m["unit"]))
    return problems


def spans_problems(path, layers):
    with open(path) as fh:
        data = json.load(fh)
    problems = []
    top = sum(s["end"] - s["start"] for s in data["spans"] if s["parent"] is None)
    if top > data["wall_s"]:
        problems.append("top-level spans sum to %.6f s > wall_s %.6f s" % (top, data["wall_s"]))
    for name, value in layers.items():
        if name.endswith(".self_s") and value < -1e-9:
            problems.append("%s is negative: %g" % (name, value))
    return problems


def bare_directory_problems():
    """run.py in a directory holding only BENCHMARK.json and perfbench/."""
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py without padfeec sources exited %d with output %r" % (proc.returncode, proc.stdout[-200:])]
    return []


def main():
    problems = []
    if check({"records": 4, "passed": 3}, 4) != 1 or check({"error": "x"}, 4) != 4:
        problems.append("check() does not count failed or raising commands")
    if check({"records": 3, "passed": 3}, 4) != 4:
        problems.append("check() accepts a report with a missing record")
    for name, workload in TINY.items():
        traced = []
        for _ in range(2):
            # a traced run measures the end-to-end metrics too
            values, attempted, failed = measure(workload, SEED, 0, 1, log=quiet)
            for trace in (0, 1):
                problems += ["%s: %s" % (name, p) for p in emitted(trace, values, attempted, failed)]
            path = spans_path(workload.command(SEED), SEED)
            problems += ["%s spans: %s" % (name, p) for p in spans_problems(path, values)]
            traced.append(values)
        for metric in sorted(traced[0]):
            if is_count(metric) and traced[0][metric] != traced[1].get(metric):
                problems.append(
                    "%s: count %s differs between traced runs: %s != %s"
                    % (name, metric, traced[0][metric], traced[1].get(metric))
                )
        print("%s: checked" % name)
    problems += bare_directory_problems()
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

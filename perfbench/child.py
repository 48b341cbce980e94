"""One measurement in a fresh Python process; prints one JSON line.

    python3 perfbench/child.py setup
    python3 perfbench/child.py command [--spans FILE] -- <padfeec arguments>

`setup` times the import of `padfeec.cli` and of the modules its commands
load (numpy and scipy included).  `command` runs one padfeec command through
the public entry points `build_parser`, `merge_config`, `run` and
`report.emit`, and reports the wall time from `merge_config` to the emitted
report bytes, the process's peak RSS, the record verdicts and the sha256 of
the report.  With `--spans` the run is traced (see `tracer.py`): the
per-layer metrics join the output and the spans are written to FILE.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def setup():
    t0 = time.perf_counter()
    import padfeec.cli  # noqa: F401  (numpy)
    import padfeec.adjoint, padfeec.interp, padfeec.solve  # noqa: E401,F401  (scipy, the rest)

    return {"setup_s": time.perf_counter() - t0}


def command(argv, spans_path):
    from padfeec import cli, report

    args = cli.build_parser().parse_args(argv)
    levels = None
    if getattr(args, "levels", None):
        levels = [int(v) for v in args.levels.split(",") if v.strip()]
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer().install()
    t0 = time.perf_counter()
    config = cli.merge_config(args)
    rep = cli.run(
        config,
        kind=getattr(args, "kind", "abc"),
        levels=levels,
        export=getattr(args, "export_solutions", None),
        check_equivalence=getattr(args, "check_equivalence", False),
        fast=getattr(args, "fast", False),
    )
    payload = report.emit(rep, config.fmt, include_timings=False)
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": len(rep.records),
        "passed": sum(1 for r in rep.records if r.verdict == "pass"),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    if tracer is not None:
        spans = tracer.span_records(t0)
        out["layers"] = tracer.layers(wall)
        out["spans"] = len(spans)
        out["top_level_s"] = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        with open(spans_path, "w") as fh:
            json.dump({"argv": argv, "wall_s": wall, "spans": spans}, fh)
    return out


def main():
    head, argv = sys.argv[1:], []
    if "--" in head:
        cut = head.index("--")
        head, argv = head[:cut], head[cut + 1 :]
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "command"))
    parser.add_argument("--spans", default=None)
    opts = parser.parse_args(head)
    try:
        out = setup() if opts.mode == "setup" else command(argv, opts.spans)
    except Exception as exc:  # report any failure of the measured program as data
        traceback.print_exc()
        print(json.dumps({"error": "%s: %s" % (type(exc).__name__, exc)}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

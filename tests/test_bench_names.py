"""The benchmark tracer names padfeec functions by string; a rename would
silently zero its per-layer metrics, so every name must still resolve."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name):
    parts = name.split(".")
    if parts[0] == "scipy":
        obj, attrs = importlib.import_module("scipy.linalg"), parts[2:]
    else:
        obj, attrs = importlib.import_module("padfeec." + parts[0]), parts[1:]
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_traced_name_resolves():
    tracer = _tracer()
    names = set(tracer.SPANS) | set(tracer.COUNTS.values())
    for members in tracer.GROUPS.values():
        names |= set(members)
    missing = []
    for name in sorted(names):
        try:
            obj = _resolve(name)
        except AttributeError:
            missing.append(name)
        else:
            assert callable(obj), name
    assert not missing, missing

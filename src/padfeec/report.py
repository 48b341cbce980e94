"""Machine-readable run reports.

Reports serialize deterministically: fixed key order, floats printed with 17
significant digits, and no volatile data (timings are kept on the object but
excluded from emission unless requested), so identical configurations produce
byte-identical output.
"""

import json
from dataclasses import dataclass, field

from . import __version__
from .errors import InvalidParameter

VERDICTS = ("pass", "fail", "skipped")
# the Hodge-Laplace schemes `solve hodge` runs; "all" runs each in turn
HODGE_SCHEMES = ("complete", "mixed_primal", "mixed_dual", "lowest_primal")


@dataclass
class RunConfig:
    command: str
    mesh: str = "box:2"
    mesh_file: str = ""
    k: int = 0
    bc: str = "none"
    scheme: str = "all"
    load: str = "poly:0"
    eig_tol: float = 1e-10
    out: str = ""
    fmt: str = "json"

    def validate(self):
        for name in ("mesh", "mesh_file", "bc", "scheme", "load", "out", "fmt"):
            if not isinstance(getattr(self, name), str):
                raise InvalidParameter("%s must be a string" % name)
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise InvalidParameter("degree k must be an integer")
        if isinstance(self.eig_tol, bool) or not isinstance(self.eig_tol, (int, float)):
            raise InvalidParameter("eig_tol must be a number")
        if not 0 < self.eig_tol < 1:
            # a relative eigenvalue cut at or above 1 drops every eigenvalue
            raise InvalidParameter("eig_tol must lie strictly between 0 and 1")
        if self.k < 0 or self.k > 3:
            raise InvalidParameter("degree k out of range")
        if self.fmt not in ("json", "csv"):
            raise InvalidParameter("format must be json or csv")
        if self.bc not in ("none", "homogeneous"):
            raise InvalidParameter("bc must be none or homogeneous")
        if self.scheme not in ("all",) + HODGE_SCHEMES:
            raise InvalidParameter(
                "%s: unknown scheme %r (use all, %s)"
                % (self.command, self.scheme, ", ".join(HODGE_SCHEMES))
            )
        return self

    def to_dict(self):
        return {
            "command": self.command,
            "mesh": self.mesh,
            "mesh_file": self.mesh_file,
            "k": self.k,
            "bc": self.bc,
            "scheme": self.scheme,
            "load": self.load,
            "eig_tol": self.eig_tol,
        }


@dataclass
class CheckRecord:
    name: str
    verdict: str
    numbers: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    note: str = ""

    def __post_init__(self):
        base = self.verdict.split("(")[0]
        if base not in VERDICTS:
            raise InvalidParameter("invalid verdict %r" % (self.verdict,))


@dataclass
class Report:
    config: RunConfig
    records: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    version: str = __version__

    def add(self, record: CheckRecord):
        self.records.append(record)
        return record

    @property
    def all_passed(self):
        return all(r.verdict.startswith(("pass", "skipped")) for r in self.records)

    def to_dict(self, include_timings=False):
        out = {
            "version": self.version,
            "config": self.config.to_dict(),
            "records": [
                {
                    "name": r.name,
                    "verdict": r.verdict,
                    "inputs": r.inputs,
                    "numbers": r.numbers,
                    "note": r.note,
                }
                for r in self.records
            ],
        }
        if include_timings:
            out["timings"] = self.timings
        return out


def _fmt_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = format(value, ".17g")
        if value == value and all(c not in text for c in ".enai"):
            text += ".0"  # keep integral floats typed as floats
        return text
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return json.dumps(str(value))


def _serialize(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            '%s  %s: %s' % (pad, json.dumps(str(k)), _serialize(v, indent + 1))
            for k, v in obj.items()
        )
        return "{\n%s\n%s}" % (inner, pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("%s  %s" % (pad, _serialize(v, indent + 1)) for v in obj)
        return "[\n%s\n%s]" % (inner, pad)
    return _fmt_value(obj)


def emit(report: Report, fmt="json", include_timings=False):
    """Serialize a report; returns bytes with stable ordering."""
    data = report.to_dict(include_timings=include_timings)
    if fmt == "json":
        return (_serialize(data) + "\n").encode()
    if fmt == "csv":
        lines = ["record,key,value,verdict"]
        for r in report.records:
            if not r.numbers:
                lines.append("%s,,,%s" % (r.name, r.verdict))
            for key in r.numbers:
                lines.append(
                    "%s,%s,%s,%s" % (r.name, key, _fmt_value(r.numbers[key]).strip('"'), r.verdict)
                )
        return ("\n".join(lines) + "\n").encode()
    raise InvalidParameter("unknown report format %r" % (fmt,))

"""Run one atlab CLI job with spans around every public function.

Usage: python perfbench/traced_cli.py SPANS_OUT JOB_ID -- <atlab arguments>

Imports atlab, wraps the public functions of its six modules (and every
alias of them bound in another module), the methods ``FourierTable.density``,
``FourierTable.from_nonneg``, ``GaussianSpec.from_fourier_table`` and each
``NameSource`` subclass's ``sample_names``, then calls ``cli.main``. Spans stay
in memory and are written to SPANS_OUT as JSON when the job ends. The exit
code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

from spans import IMPORT_SPAN

MODULES = ("fourier", "sbh", "systems", "gaussian", "funny", "cli")
# cli glue (argparse, dispatch, the cmd_* bodies) counts as cli.main self time
UNTRACED = {"cli.build_parser"} | {f"cli.cmd_{c}" for c in
                                   ("measure", "certify", "system", "gaussian", "funny")}
TRACED_PRIVATE = {"cli._emit"}
SIZE_KEYS = {"N": "N", "grid_size": "grid", "k": "k", "window": "window", "budget": "budget",
             "heuristic_budget": "budget", "L": "L", "n_max": "nmax", "nmax": "nmax",
             "samples": "samples", "M": "M", "level": "level", "m": "m"}


def describe(bound: inspect.BoundArguments, result) -> dict:
    """Sizes of one call, read from its arguments and result."""
    attrs = {}
    args = bound.arguments
    for key, val in args.items():
        if key in SIZE_KEYS and isinstance(val, int) and not isinstance(val, bool):
            attrs[SIZE_KEYS[key]] = val
        elif hasattr(val, "half_width") and key in ("t", "self", "spec"):
            attrs["N"] = int(val.half_width)
        elif key == "thetas":
            attrs["grid"] = int(getattr(val, "size", 1))
        elif key == "signs" and hasattr(val, "size"):
            attrs["L"] = int(val.size)
        elif key == "bits" and hasattr(val, "size"):
            attrs["count_x_length"] = int(val.size)
        elif key == "family":
            attrs["k"], attrs["horizon"] = int(val.k), int(val.horizon)
        elif key == "path" and isinstance(val, (str, os.PathLike)) and os.path.exists(val):
            attrs["bytes"] = os.path.getsize(val)
        elif key == "payload" and isinstance(val, str):
            attrs["bytes"] = len(val.encode())
    if "count" in args and "length" in args:
        attrs["count_x_length"] = int(args["count"]) * int(args["length"])
    if hasattr(result, "verdict"):
        attrs["verdict"] = result.verdict
    if hasattr(result, "rows"):
        attrs["candidates"] = len(result.rows)
    return attrs


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def record(self, name: str, t0: float, t1: float) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([len(self.spans), parent, name, t0, t1, {}])

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[0]:
                # recursive call: only the outermost call is a span
                return fn(*args, **kwargs)
            span = [len(self.spans), self.stack[-1] if self.stack else None, name, 0.0, 0.0, {}]
            self.spans.append(span)
            self.stack.append(span[0])
            depth[0] += 1
            result = None
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[4] = perf_counter()
                depth[0] -= 1
                self.stack.pop()
                span[5] = describe(sig.bind(*args, **kwargs), result)

        return traced

    def instrument(self, package) -> None:
        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in TRACED_PRIVATE)
                        and name not in UNTRACED):
                    wrapped[obj] = self.wrap(name, obj)
        # re-bind every alias, e.g. sbh.density_sup and gaussian.is_positive_definite
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        fourier, gaussian, systems = mods["fourier"], mods["gaussian"], mods["systems"]
        self._wrap_method(fourier.FourierTable, "density", "fourier")
        self._wrap_method(fourier.FourierTable, "from_nonneg", "fourier")
        self._wrap_method(gaussian.GaussianSpec, "from_fourier_table", "gaussian")
        for cls in vars(systems).values():
            if (inspect.isclass(cls) and issubclass(cls, systems.NameSource)
                    and cls is not systems.NameSource and "sample_names" in vars(cls)):
                self._wrap_method(cls, "sample_names", "systems")

    def _wrap_method(self, cls, attr: str, module: str) -> None:
        raw = vars(cls)[attr]
        name = f"{module}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, self.wrap(name, raw))


def main() -> int:
    spans_out, job = sys.argv[1], sys.argv[2]
    if sys.argv[3:4] != ["--"]:
        print("usage: traced_cli.py SPANS_OUT JOB_ID -- <atlab arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    t0 = perf_counter()
    import atlab
    import atlab.cli
    tracer.record(IMPORT_SPAN, t0, perf_counter())
    tracer.instrument(atlab)
    try:
        return atlab.cli.main(sys.argv[4:])
    finally:
        with open(spans_out, "w") as fh:
            json.dump({"job": job, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())

"""Run one permrat CLI command with spans recorded at the layer boundaries.

Usage: python3 perfbench/tracer.py SPANS_OUT -- PERMRAT_ARGS...

The command runs in-process through permrat.cli.main, exactly as
`python3 -m permrat.cli PERMRAT_ARGS...` would run it; stdout and the exit
code are the command's own.  Spans stay in memory and are written to
SPANS_OUT as a JSON list when the command ends.  Nothing under src/ changes:
the wrappers are installed over the module attributes at start-up.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from layers import AGGREGATED, TARGETS


def _perm_meta(out, args):
    spec = args[0]
    return {"q": spec.field.order, "is_permutation": out.is_permutation,
            "evaluations": out.evaluations,
            "i2": out.witness[1].index if out.witness else None}


_META = {
    "maps.is_permutation": _perm_meta,
    "field.first_elem_with_trace": lambda out, args: {"index": out.index},
    "curves.count_infinity": lambda out, args: {"q": args[0].field.order},
    "verify.run_cases": lambda out, args: {"cases": len(out)},
}


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int | None] = [None]
        self._leaves: dict[tuple, dict] = {}

    def wrap(self, name: str, fn, meta=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if name in AGGREGATED:
            leaves = self._leaves

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    span = leaves.get((stack[-1], name))
                    if span is None:
                        span = leaves[(stack[-1], name)] = self._open(name, t0)
                        span["dur"] = 0.0
                        span["calls"] = 0
                    span["end"] = t1
                    span["dur"] += t1 - t0
                    span["calls"] += 1
            return leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, clock())
            stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = clock()
                span["dur"] = span["end"] - span["start"]
            if meta is not None:
                span["meta"] = meta(out, args)
            return out
        return traced

    def _open(self, name, start):
        span = {"name": name, "id": len(self.spans), "parent": self._stack[-1],
                "start": start, "end": None, "dur": None, "calls": 1, "meta": None}
        self.spans.append(span)
        return span


class _KernelProxy:
    """Stands in for a kernel module and records its scans and counts."""

    def __init__(self, kern, tracer: Tracer):
        self.BACKEND = kern.BACKEND
        self.perm_scan = tracer.wrap("kernel.perm_scan", kern.perm_scan,
                                     lambda out, args: {"backend": kern.BACKEND})
        self.count_zeros = tracer.wrap(
            "kernel.count_zeros", kern.count_zeros,
            lambda out, args: {"backend": kern.BACKEND, "points": (args[0] ** args[1]) ** 2})


def install(tracer: Tracer) -> None:
    """Wrap every target in every permrat module namespace that binds it
    (verify and cli import is_permutation by name, for instance)."""
    from permrat import backend

    for modname in TARGETS:
        importlib.import_module(modname)
    modules = [m for name, m in sys.modules.items()
               if name == "permrat" or name.startswith("permrat.")]
    for modname, attrs in TARGETS.items():
        owner = sys.modules[modname]
        short = modname.split(".")[-1]
        for attr in attrs:
            name = f"{short}.{attr}"
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), _META.get(name)))
                continue
            orig = getattr(owner, attr)
            wrapped = tracer.wrap(name, orig, _META.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    proxies = {}
    select = backend.select

    def traced_select(p, name=None):
        kern = select(p, name)
        if kern not in proxies:
            proxies[kern] = _KernelProxy(kern, tracer)
        return proxies[kern]

    backend.select = traced_select


def main(argv: list[str]) -> int:
    spans_out, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT -- PERMRAT_ARGS...")
    from permrat import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

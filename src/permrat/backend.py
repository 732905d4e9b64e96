"""The kernel module that scans and counts run on.

There is one kernel, the pure-Python `_kernel_py`, whose `count_zeros` is
loaded from `_count` on first use.  PERMRAT_BACKEND may name it ("pure");
any other value is rejected.  `maps` and `curves` look the kernel up through
`select` at call time, so a wrapper installed there sees every scan and
count.  The kernel module is imported only when `select` is first called.
"""

from __future__ import annotations

import os


def have_compiled() -> bool:
    """Always False: there is no compiled kernel."""
    return False


def backend_name(name: str | None = None) -> str:
    """Validate `name`, else PERMRAT_BACKEND, and return it: "pure" is the
    only backend."""
    name = name or os.environ.get("PERMRAT_BACKEND", "pure")
    if name != "pure":
        raise ValueError(f"unknown backend {name!r} (expected 'pure')")
    return name


def select(p: int, name: str | None = None):
    """The kernel module for work in characteristic p (the same for every p)."""
    backend_name(name)
    from . import _kernel_py

    return _kernel_py

"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python twin is
always available.  Set PERMRAT_BACKEND=pure or PERMRAT_BACKEND=compiled to
force a choice (the latter raises if the extension was not built).

The compiled kernels do 64-bit arithmetic and require p < 2^31; select()
silently falls back to the pure kernels above that, where Python integers
take over.

A backend is resolved by name first (`backend_name`, `select_name`), so a
command that only reports which kernel it would run never imports the pure
kernel module.
"""

from __future__ import annotations

import os

try:
    from . import _kernel as _compiled
except ImportError:  # extension not built; pure fallback only
    _compiled = None

COMPILED_P_LIMIT = 1 << 31


def have_compiled() -> bool:
    return _compiled is not None


def backend_name(name: str | None = None) -> str:
    """The backend `name` resolves to: the argument, else PERMRAT_BACKEND,
    else compiled when built and pure otherwise."""
    name = name or os.environ.get("PERMRAT_BACKEND")
    if name is None:
        return "compiled" if _compiled is not None else "pure"
    if name == "compiled" and _compiled is None:
        raise RuntimeError("compiled kernel requested but the extension is not built")
    if name not in ("pure", "compiled"):
        raise ValueError(f"unknown backend {name!r} (expected 'pure' or 'compiled')")
    return name


def select_name(p: int, name: str | None = None) -> str:
    """The backend for work in characteristic p, honoring the compiled p-limit."""
    name = backend_name(name)
    return "pure" if p >= COMPILED_P_LIMIT else name


def _module(name: str):
    if name == "compiled":
        return _compiled
    from . import _kernel_py

    return _kernel_py


def get_backend(name: str | None = None):
    """Return the kernel module for `name` (or the environment/default choice)."""
    return _module(backend_name(name))


def select(p: int, name: str | None = None):
    """Kernel module for work in characteristic p, honoring the compiled p-limit."""
    return _module(select_name(p, name))

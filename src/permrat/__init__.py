"""permrat: the rational map family x + 1/(x^{p^d} - x + b) over F_{p^n}.

Exhaustive permutation scans with collision witnesses, plane-curve point
counts in exact arithmetic, Hasse-Weil-style bound audits as pure integer
comparisons, and the verification campaigns tying them together.

The names below are re-exported from their submodules on first access
(PEP 562), so importing the package, or `permrat.cli`, loads no submodule
that the caller does not use.
"""

import importlib

_EXPORTS = {
    "backend": ("backend_name", "have_compiled"),
    "curves": (
        "BiPoly",
        "CurveReport",
        "UniPoly",
        "affine_zeros",
        "audit_curve",
        "collision_curve",
        "count_affine",
        "count_infinity",
        "criterion_sextic",
        "homogenization_quartic",
        "is_squarefree",
        "parse_bipoly",
        "phi_fibers",
        "symmetric_quartic",
        "uni_derivative",
        "uni_gcd",
        "uni_square_root",
        "weil_lower_check",
        "weil_upper_check",
    ),
    "field": (
        "Elem",
        "Field",
        "absolute_trace",
        "first_elem_with_trace",
        "frobenius",
        "is_irreducible",
        "is_prime",
        "make_field",
        "subfield_elements",
        "trace_rel",
    ),
    "maps": (
        "MapSpec",
        "PermReport",
        "conjugate_b",
        "difference_value",
        "eval_f",
        "is_permutation",
        "subfield_trace_reps",
        "trace_class_reps",
        "verify_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})

"""The package's surface: each name lives in its module, and its value classes."""

import copy
import importlib
import pickle

import pytest

import permrat
from permrat.field import make_field
from permrat.maps import MapSpec, PermReport, is_permutation

# Names that once had a second home in the package namespace, by module.
NAMES = {
    "backend": ["backend_name", "have_compiled"],
    "curves": ["BiPoly", "UniPoly", "affine_zeros", "collision_curve", "count_affine",
               "count_infinity", "criterion_sextic", "homogenization_quartic",
               "is_squarefree", "parse_bipoly", "phi_fibers", "symmetric_quartic",
               "uni_derivative", "uni_gcd", "uni_square_root", "weil_lower_check",
               "weil_upper_check"],
    "field": ["Elem", "Field", "absolute_trace", "first_elem_with_trace", "frobenius",
              "is_irreducible", "is_prime", "make_field", "subfield_elements", "trace_rel"],
    "maps": ["MapSpec", "PermReport", "eval_f", "is_permutation", "subfield_trace_reps",
             "trace_class_reps", "verify_witness"],
}

# Helpers that only tests reached, and the layers the literal pencils of G and
# H replaced; they are gone, or live in tests/oracles.py.
GONE = {
    "curve_cases": ["_AUDITS"],
    "curves": ["audit_curve", "CurveReport", "_sextic_terms", "_pencil", "PencilTables",
               "pencil_tables", "off_pencil"],
    "maps": ["conjugate_b", "difference_value"],
    "verify": ["conjugation_identity_mismatches"],
}


def test_package_exposes_only_its_version():
    assert permrat.__version__ == "0.1.0"
    public = {name for name in vars(permrat) if not name.startswith("_")}
    assert public <= {"backend", "cli", "curve_cases", "curves", "field", "maps",
                      "verify"}  # submodules
    for module, names in NAMES.items():
        mod = importlib.import_module(f"permrat.{module}")
        for name in names:
            ns = {}
            exec(f"from permrat.{module} import {name}", ns)
            assert ns[name] is getattr(mod, name), name
            with pytest.raises(ImportError):
                exec(f"from permrat import {name}", {})
    with pytest.raises(AttributeError, match="make_field"):
        permrat.make_field  # noqa: B018
    for module, names in GONE.items():
        mod = importlib.import_module(f"permrat.{module}")
        for name in names:
            assert not hasattr(mod, name), name
    assert not hasattr(importlib.import_module("permrat.curves").BiPoly, "swap_vars")
    assert not hasattr(importlib.import_module("permrat.curves").UniPoly, "monic")


def test_submodules_still_import_from_the_package():
    ns = {}
    exec("from permrat import verify, cli", ns)
    assert callable(ns["verify"].verify_squarefree_gcd_chain)
    assert callable(ns["cli"].main)


def _frozen(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)


def test_mapspec_value_semantics():
    f = make_field(5, 2)
    spec = MapSpec(f, f.element(3))
    assert spec == MapSpec(f, f.element(3), 1)
    assert spec != MapSpec(f, f.element(4)) and spec != MapSpec(f, f.element(3), 2)
    assert spec != (f, f.element(3), 1)
    assert hash(spec) == hash(MapSpec(f, f.element(3)))
    assert repr(spec) == f"MapSpec(field={f!r}, b={f.element(3)!r}, d=1)"
    assert (spec.field, spec.b, spec.d) == (f, f.element(3), 1)
    for name in ("field", "b", "d"):
        _frozen(spec, name)
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert pickle.loads(pickle.dumps(spec)) == spec and copy.copy(spec) == spec


def test_mapspec_validation_errors():
    f4 = make_field(2, 2)
    with pytest.raises(ValueError, match="trace hypothesis"):
        MapSpec(f4, f4.one)  # Tr(1) = 1 + 1 = 0 over F_4
    f5 = make_field(5, 5)
    with pytest.raises(ValueError, match="trace hypothesis"):
        MapSpec(f5, f5.from_int(2))  # constants have trace 5c = 0
    f25 = make_field(5, 2)
    with pytest.raises(ValueError, match="must live in the map's field"):
        MapSpec(f25, make_field(5, 1).from_int(1))
    for d in (0, 3):
        with pytest.raises(ValueError, match="must divide n"):
            MapSpec(f25, f25.element(3), d)


def test_permreport_value_semantics():
    f = make_field(5, 2)
    report = is_permutation(MapSpec(f, f.element(1)))
    assert report == is_permutation(MapSpec(f, f.element(1)))
    x1, x2 = report.witness
    assert report == PermReport(False, (x1, x2), report.evaluations)
    assert report != PermReport(False, (x1, x2), report.evaluations + 1)
    assert repr(report) == (f"PermReport(is_permutation=False, witness=({x1!r}, {x2!r}), "
                            f"evaluations={report.evaluations})")
    assert hash(report) == hash(PermReport(False, (x1, x2), report.evaluations))
    for name in ("is_permutation", "witness", "evaluations"):
        _frozen(report, name)


def test_campaign_returns_its_report_dict():
    # the report is a plain dict, in the key order the CLI prints
    from permrat.verify import verify_squarefree_gcd_chain

    report = verify_squarefree_gcd_chain(7)
    assert list(report) == ["campaign", "config", "cases", "totals", "counterexamples", "ok"]
    assert report["campaign"] == "lemmaL" and report["config"] == {"p_max": 7}
    assert report["totals"] == {"cases": 2, "passed": 2, "failed": 0, "counterexamples": 0}
    assert report["counterexamples"] == [] and report["ok"] is True

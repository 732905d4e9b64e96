"""The package's surface: each name lives in its module, and its value classes."""

import copy
import importlib
import pathlib
import pickle

import pytest

import permrat
from permrat import _kernel_py
from permrat.curves import collision_curve
from permrat.field import first_elem_with_trace, make_field, subfield_elements, trace_rel
from permrat.maps import MapSpec, PermReport, eval_f, is_permutation, verify_witness

# Names that once had a second home in the package namespace, by module.
NAMES = {
    "backend": ["backend_name", "have_compiled"],
    "curves": ["BiPoly", "affine_zeros", "collision_curve", "count_affine",
               "count_infinity", "criterion_sextic", "homogenization_quartic",
               "is_squarefree", "parse_bipoly", "phi_fibers", "symmetric_quartic",
               "uni_derivative", "uni_gcd", "uni_square_root", "weil_lower_check",
               "weil_upper_check"],
    "field": ["Elem", "Field", "absolute_trace", "first_elem_with_trace", "frobenius",
              "is_irreducible", "is_prime", "make_field", "subfield_elements", "trace_rel"],
    "maps": ["MapSpec", "PermReport", "eval_f", "is_permutation", "subfield_trace_reps",
             "trace_class_reps", "verify_witness", "witness_record"],
}

# Helpers that only tests reached, the layers the literal pencils of G and H
# replaced, the list-based element inverse and the kernel's copy of the
# packed arithmetic, which `field` now owns, and the count kernel's
# discrete-log tables, which the power planes of `field._Slots` replaced, and
# the univariate polynomial class with its one-caller sum, whose toolkit now
# takes `field`'s coefficient lists, and the trace columns that the cached
# trace matrix `Field.trace_rows` replaced, and the scan campaigns' copy of
# the witness record that `maps.witness_record` replaced; they are gone, or
# live in tests/oracles.py.
GONE = {
    "_count": ["_field_tables"],
    "curve_cases": ["_AUDITS"],
    "curves": ["audit_curve", "CurveReport", "_sextic_terms", "_pencil", "PencilTables",
               "pencil_tables", "off_pencil", "UniPoly"],
    "field": ["pinvmod", "padd", "_trace_columns"],
    "_kernel_py": ["_Packed", "_slot_barrett"],
    "maps": ["conjugate_b", "difference_value"],
    "verify": ["conjugation_identity_mismatches", "_witness_dict"],
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


def test_pickled_and_copied_specs_reverify_their_witness():
    f = make_field(5, 2)
    spec = MapSpec(f, f.element(1))
    witness = is_permutation(spec).witness
    for other in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert other.field is f and other == spec
        assert verify_witness(other, witness)
        assert eval_f(other, witness[0]) == eval_f(spec, witness[0])
    assert verify_witness(spec, pickle.loads(pickle.dumps(witness)))


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
        with pytest.raises(ValueError, match=f"^level {d} is not a positive divisor of n = 2$"):
            MapSpec(f25, f25.element(3), d)


LEVEL_TEXT = "^level {d} is not a positive divisor of n = {n}$"
HYPOTHESIS_TEXT = "^trace hypothesis violated: the level-{d} trace of b is zero$"


@pytest.mark.parametrize("d", [0, 3, -1, 5])
def test_every_bad_level_reads_one_text(d):
    # the maps, the scan kernel's entry, the traces and the subfields refuse
    # a level that is not a positive divisor of n through Field.check_level
    f = make_field(3, 4)
    b = f.element(1)
    refusals = [lambda: MapSpec(f, b, d), lambda: _kernel_py.perm_scan(3, 4, d, b.coeffs),
                lambda: trace_rel(b, d), lambda: subfield_elements(f, d),
                lambda: first_elem_with_trace(f, 1, d), lambda: f.check_level(d)]
    for refuse in refusals:
        with pytest.raises(ValueError, match=LEVEL_TEXT.format(d=d, n=4)):
            refuse()


@pytest.mark.parametrize("p,n,d", [(2, 2, 1), (5, 5, 1), (5, 2, 1), (3, 4, 2), (3, 4, 1)])
def test_every_trace_zero_parameter_reads_one_text(p, n, d):
    # the map, the scan kernel's entry and (at level 1) the collision curve
    # refuse a b of level-d trace zero through Field.check_trace_hypothesis
    f = make_field(p, n)
    for b in [b for b in f if not trace_rel(b, d)][:4]:
        refusals = [lambda: MapSpec(f, b, d), lambda: _kernel_py.perm_scan(p, n, d, b.coeffs),
                    lambda: f.check_trace_hypothesis(b.coeffs, d)]
        if d == 1:
            refusals.append(lambda: collision_curve(f, b))
        for refuse in refusals:
            with pytest.raises(ValueError, match=HYPOTHESIS_TEXT.format(d=d)):
                refuse()


def test_each_rule_has_one_raise_site():
    # each text is written once in the package: Field.check_level and
    # Field.check_trace_hypothesis are the one raise site of each rule
    src = pathlib.Path(permrat.__file__).parent
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py")))
    assert text.count("is not a positive divisor of n") == 1
    assert text.count("trace hypothesis violated") == 1


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

"""Acceptance suite.

One test per criterion; each prints a single pass/fail line.  All checks are
exact (integer arithmetic throughout), so the tolerance everywhere is zero.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import pytest

from permrat import verify
from permrat.field import make_field
from permrat.maps import MapSpec, eval_f

from oracles import conjugation_identity_mismatches


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def curve_suite_report():
    return verify.verify_curve_bounds(p_max=97, f_p=5, f_degrees=(2, 3),
                                      ident_p_max=13, eq28_p_max=97)


def test_criterion_1_small_characteristic_baseline():
    report = verify.verify_small_characteristic_baseline(n_max_2=12, n_max_3=8)
    ok = report.ok and all(c["observed_permutation"] for c in report.cases)
    _verdict(1, "p=2,3 baseline permutes (n<=12 / n<=8)", ok,
             f"{report.totals['cases']} scans")


def test_criterion_2_degree_five_nonpermutation():
    report = verify.verify_degree_five_nonpermutation((5, 7, 11, 13))
    ok = report.ok and all(
        c["observed_permutation"] is False and c["witness"] is not None
        for c in report.cases
    )
    # witnesses were re-verified case-side; re-check one end to end here
    case = report.cases[-1]
    ctx = make_field(case["params"]["p"], 5)
    spec = MapSpec(ctx, ctx.element(case["params"]["b_index"]))
    x1 = ctx.element(case["witness"]["i1"])
    x2 = ctx.element(case["witness"]["i2"])
    ok = ok and x1 != x2 and eval_f(spec, x1) == eval_f(spec, x2)
    _verdict(2, "no class permutes F_{p^5}, p in {5,7,11,13}", ok,
             f"{report.totals['cases']} witnessed scans")


def test_criterion_3_quadratic_trace_criterion():
    report = verify.verify_quadratic_trace_criterion(p_max=100, full_primes=(3, 5, 7))
    _verdict(3, "F_{p^2} permutes iff trace is +-1 (p<=100; full b for 3,5,7)",
             report.ok, f"{report.totals['cases']} scans")


def test_criterion_4_prime_power_criterion():
    report = verify.verify_prime_power_trace_criterion((9, 25, 27, 49))
    _verdict(4, "prime-power criterion for q in {9,25,27,49}", report.ok,
             f"{report.totals['cases']} scans")


def test_criterion_5_conjecture_searches():
    r3 = verify.conjecture_search(3, (5, 7, 11, 13, 17, 19))
    r4 = verify.conjecture_search(4, (5, 7, 11))
    flagged = r3.counterexamples + r4.counterexamples
    ok = r3.ok and r4.ok and not flagged
    searched = [c for c in r3.cases + r4.cases if c["params"]["role"] == "search"]
    ok = ok and all(c["witness"] is not None for c in searched)
    _verdict(5, "n=3,4 searches: all non-permuting with witnesses", ok,
             f"{len(searched)} classes searched, counterexamples={flagged}")


def test_criterion_6_curve_counts_and_bounds(curve_suite_report):
    report = curve_suite_report
    f_cases = [c for c in report.cases if c["kind"] == "curve_f"]
    gh_cases = [c for c in report.cases if c["kind"] == "curve_gh"]
    ok = bool(f_cases) and bool(gh_cases)
    ok = ok and all(c["pass"] and c["infinity"] == 2 for c in f_cases)
    ok = ok and all(
        c["pass"] and c["g"]["infinity"] == 3 and c["h"]["infinity"] == 3
        and set(c["phi"]["fiber_sizes"]) <= {2}
        for c in gh_cases
    )
    _verdict(6, "exact counts within bounds; infinity counts 2/3/3; 2-to-1 fibers",
             ok, f"{len(f_cases)} collision-curve cases, {len(gh_cases)} sextic/quartic cases")


def test_criterion_7_identity_suites(curve_suite_report):
    report = curve_suite_report
    eq28 = [c for c in report.cases if c["kind"] == "ident_eq28"]
    subst = [c for c in report.cases if c["kind"] == "ident_subst"]
    ok = len(eq28) == 24 and all(c["pass"] and c["mismatches"] == 0 for c in eq28)
    ok = ok and all(
        c["pass"] and c["substitution_mismatches"] == 0
        and c["factorization_mismatches"] == 0
        for c in subst
    )
    conj_53 = conjugation_identity_mismatches(5, 3, trials=20)
    conj_72 = conjugation_identity_mismatches(7, 2, trials=20)
    ok = ok and conj_53["mismatches"] == 0 and conj_72["mismatches"] == 0
    _verdict(7, "identity suites: zero mismatches", ok,
             f"conjugation points {conj_53['points']} + {conj_72['points']}")


def test_criterion_8_lemma_checks():
    r22 = verify.verify_square_obstruction(100)
    rl = verify.verify_squarefree_gcd_chain(97)
    ok = r22.ok and rl.ok
    _verdict(8, "square obstruction (p<=100) and gcd chain (5<=p<=97)", ok,
             f"{r22.totals['cases']} + {rl.totals['cases']} prime cases")

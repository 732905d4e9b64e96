"""Campaign behavior: determinism, resume, cross-checks between campaigns."""

import hashlib
import json
import os
import time

import pytest

from permrat import _kernel_py, curve_cases, curves, maps, verify
from permrat.cli import emit_report, main
from permrat.curves import BiPoly
from permrat.field import make_field
from permrat.maps import MapSpec, eval_f, is_permutation

from oracles import conjugation_identity_mismatches
from test_report_contract import _PINNED, _PINNED_PROGRESS


def test_baseline_small_grid():
    report = verify.verify_small_characteristic_baseline(4, 3)
    assert report["ok"]
    assert all(c["observed_permutation"] for c in report["cases"])
    assert report["totals"]["failed"] == 0


def test_degree_five_smoke():
    report = verify.verify_degree_five_nonpermutation((5,))
    assert report["ok"]
    assert all(c["witness"] is not None for c in report["cases"])
    for c in report["cases"]:
        assert c["witness"]["i1"] < c["witness"]["i2"]


def test_quadratic_criterion_small():
    report = verify.verify_quadratic_trace_criterion(13, (3, 5))
    assert report["ok"]
    # p = 5 class mode: b = 1 fails (trace 2), b = 2 permutes (trace 4 = -1)
    by_key = {c["key"]: c for c in report["cases"]}
    assert by_key["class,p=5,b=1"]["observed_permutation"] is False
    assert by_key["class,p=5,b=2"]["observed_permutation"] is True
    # p = 3: the only class has 2b = 2 = -1, consistent with the baseline
    assert by_key["class,p=3,b=1"]["observed_permutation"] is True
    # class mode records the trace of the constant b: Tr(b) = 2b mod p
    assert by_key["class,p=5,b=1"]["params"]["trace"] == 2
    for c in report["cases"]:
        if c["key"].startswith("class,"):
            p, b = c["params"]["p"], c["params"]["b_index"]
            assert c["params"]["trace"] == (2 * b) % p


def test_prime_power_criterion_degenerate_prime_matches_class_mode():
    # q = p reproduces the quadratic criterion verdict per trace class
    rq = verify.verify_prime_power_trace_criterion((5,))
    rc = verify.verify_quadratic_trace_criterion(5, ())
    def classes(cases, keyfield):
        out = {}
        for c in cases:
            tr = c["params"][keyfield]
            out[frozenset((tr % 5, (5 - tr) % 5))] = c["observed_permutation"]
        return out
    # only the p = 5 classes are comparable: p = 3 traces live mod 3
    cq = classes(rq["cases"], "t_index")
    cc = classes([c for c in rc["cases"] if c["params"]["p"] == 5], "trace")
    assert cq == cc
    assert set(cq) == {frozenset((1, 4)), frozenset((2, 3))}


@pytest.mark.parametrize("q,error", [
    (1, "1 is not a prime power"), (6, "6 is not a prime power"),
    (12, "12 is not a prime power"), (8, "odd characteristic required"), (9, None),
])
def test_prime_power_criterion_parses_q(q, error):
    if error is None:
        report = verify.verify_prime_power_trace_criterion((q,))
        assert report["ok"] and {c["params"]["p"] for c in report["cases"]} == {3}
        assert {c["params"]["d"] for c in report["cases"]} == {2}
    else:
        with pytest.raises(ValueError, match=f"^{error}$"):
            verify.verify_prime_power_trace_criterion((q,))


def test_prime_power_criterion_checks_the_field_size_before_factoring(monkeypatch, capsys):
    # q = (2^31 - 1)^2: trial division of q would take minutes, and F_{q^2} is
    # far above the 2^40 cap anyway
    q = (2 ** 31 - 1) ** 2

    def refuse(m):
        raise AssertionError(f"prime_divisors({m}) called")

    monkeypatch.setattr(verify, "prime_divisors", refuse)
    with pytest.raises(ValueError, match=rf"^field order {q}\^2 exceeds the 2\^40 cap$"):
        verify.verify_prime_power_trace_criterion((q,))
    assert main(["verify", "remark43", "--q-list", str(q)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds the 2^40 cap" in captured.err


def test_conjecture_search_small():
    report = verify.conjecture_search(3, (5, 7))
    assert report["ok"] and not report["counterexamples"]
    assert all(c["witness"] is not None for c in report["cases"])


def test_conjecture_n4_includes_trace_filter_cases():
    report = verify.conjecture_search(4, (5,))
    roles = {c["params"]["role"] for c in report["cases"]}
    assert roles == {"search", "filter"}
    # the filter pairs: b with 2b != +-1 fails over both F_25 and F_625
    filters = [c for c in report["cases"] if c["params"]["role"] == "filter"]
    assert {c["params"]["n"] for c in filters} == {2, 4}
    assert all(c["observed_permutation"] is False for c in filters)
    search = [c for c in report["cases"] if c["params"]["role"] == "search"]
    assert [c["params"]["b_index"] for c in search] == [3]  # 1/2 mod 5


def test_lemma_campaigns_smoke():
    assert verify.verify_square_obstruction(13)["ok"]
    r = verify.verify_squarefree_gcd_chain(13)
    assert r["ok"]
    assert all(c["final_const"] in (c["params"]["p"] - 1, c["params"]["p"] - 3)
               for c in r["cases"])


def test_curve_bounds_small_grid():
    report = verify.verify_curve_bounds(p_max=13, f_p=5, f_degrees=(2,),
                                        ident_p_max=5, eq28_p_max=7)
    assert report["ok"]
    kinds = {c["kind"] for c in report["cases"]}
    assert kinds == {"curve_f", "curve_gh", "ident_eq28", "ident_subst"}
    for c in report["cases"]:
        if c["kind"] == "curve_f":
            assert c["infinity"] == 2
        if c["kind"] == "curve_gh":
            assert c["g"]["infinity"] == 3 and c["h"]["infinity"] == 3
            assert set(c["phi"]["fiber_sizes"]) <= {2}


def test_reports_are_byte_identical_across_runs_and_jobs():
    r1 = verify.verify_quadratic_trace_criterion(13, (3,))
    r2 = verify.verify_quadratic_trace_criterion(13, (3,))
    r4 = verify.verify_quadratic_trace_criterion(13, (3,), jobs=3)
    b1 = emit_report(r1, "json")
    assert b1 == emit_report(r2, "json")
    assert b1 == emit_report(r4, "json")


def test_progress_resume_and_fingerprint(tmp_path):
    prog = tmp_path / "thm31.progress"
    full = verify.verify_quadratic_trace_criterion(11, ())
    ref = emit_report(full, "json")
    verify.verify_quadratic_trace_criterion(11, (), progress_path=str(prog))
    lines = prog.read_text().splitlines()
    assert len(lines) == 1 + full["totals"]["cases"]
    # drop half the completed cases and resume
    prog.write_text("\n".join(lines[: 1 + len(lines) // 2]) + "\n")
    resumed = verify.verify_quadratic_trace_criterion(11, (), progress_path=str(prog))
    assert emit_report(resumed, "json") == ref
    # a changed grid is refused
    with pytest.raises(verify.ProgressMismatch):
        verify.verify_quadratic_trace_criterion(13, (), progress_path=str(prog))


def test_progress_file_is_append_only_json_lines(tmp_path):
    prog = tmp_path / "p.progress"
    verify.verify_squarefree_gcd_chain(7, progress_path=str(prog))
    lines = prog.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["campaign"] == "lemmaL" and "fingerprint" in header
    for line in lines[1:]:
        rec = json.loads(line)
        assert set(rec) == {"key", "result"}


def test_conjugation_identity_helper():
    out = conjugation_identity_mismatches(5, 2, trials=4)
    assert out["mismatches"] == 0
    assert out["points"] == 4 * 2 * 25  # trials * classes * field size


def test_case_results_json_serializable():
    report = verify.verify_degree_five_nonpermutation((5,))
    json.dumps(report)


def test_witness_record_evaluates_f_twice_per_witness(monkeypatch):
    ctx = make_field(5, 3)
    spec = MapSpec(ctx, ctx.element(1))
    report = is_permutation(spec)
    x1, x2 = report.witness
    calls = []
    for module in (maps, verify):  # verify binds no eval_f today; a future import is counted
        monkeypatch.setattr(module, "eval_f", lambda s, x: calls.append(x) or eval_f(s, x),
                            raising=False)
    record, image = maps.witness_record(spec, report.witness)
    assert calls == [x1, x2]
    assert record == {"i1": x1.index, "i2": x2.index, "coeffs1": list(x1.coeffs),
                      "coeffs2": list(x2.coeffs)}
    assert list(record) == ["i1", "i2", "coeffs1", "coeffs2"]
    assert image == eval_f(spec, x2)
    # the scan case prints the same record with the image appended, evaluated once more
    calls.clear()
    case = verify._perm_case({"p": 5, "n": 3, "b_index": 1})
    assert calls == [x1, x2]
    assert case["witness"] == {**record, "image_index": image.index}
    assert list(case["witness"]) == ["i1", "i2", "coeffs1", "coeffs2", "image_index"]


def test_forged_witness_fails_reverification():
    ctx = make_field(5, 3)
    spec = MapSpec(ctx, ctx.element(1))
    x, y = ctx.element(0), ctx.element(1)
    assert eval_f(spec, x) != eval_f(spec, y)
    for forged in ((x, x), (x, y)):
        with pytest.raises(RuntimeError, match="^witness failed re-verification$"):
            maps.witness_record(spec, forged)
        with pytest.raises(RuntimeError, match="^witness failed re-verification$"):
            maps.witness_image(spec, forged)
        assert not maps.verify_witness(spec, forged)


def test_permcheck_prints_the_scan_campaigns_witness_record(capsys):
    # one record for a colliding map: permcheck's witness is thm31's class
    # case of the same b, less the common image the campaign appends
    assert main(["permcheck", "--p", "5", "--n", "2", "--b-index", "1"]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert (witness["i1"], witness["i2"]) == (1, 10)
    assert main(["verify", "thm31", "--p-max", "5", "--full-primes", ""]) == 0
    cases = {c["key"]: c for c in json.loads(capsys.readouterr().out)["cases"]}
    case_witness = dict(cases["class,p=5,b=1"]["witness"])
    del case_witness["image_index"]
    assert case_witness == witness and list(case_witness) == list(witness)


# ---------------------------------------------------------------------------
# the curve pair of (p, tau^2): tau and p - tau read one audit of the
# pencils' members at t = tau^2

_SMALL_AUDIT = ["weil-audit", "--p-max", "31", "--f-degrees", "2", "--ident-p-max", "3",
                "--eq28-p-max", "7"]


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_each_curve_pair_is_counted_once_per_tau_squared(capsys, monkeypatch):
    zeros, infinity, census, passes, tables = [], [], [], [], []
    _counting(monkeypatch, _kernel_py, "count_zeros", zeros)
    _counting(monkeypatch, curves, "count_infinity", infinity)
    _counting(monkeypatch, curves, "phi_fibers", census)
    _counting(monkeypatch, curves, "_pencil_zeros", passes)
    _counting(monkeypatch, curves, "_pencil_infinity", tables)
    # the builder, int_terms and expansion calls made inside each case
    work = {"G": [], "H": [], "int_terms": [], "expansions": [], "infinity": infinity}
    _counting(monkeypatch, curves, "criterion_sextic", work["G"])
    _counting(monkeypatch, curves, "symmetric_quartic", work["H"])
    _counting(monkeypatch, curves.BiPoly, "int_terms", work["int_terms"])
    _counting(monkeypatch, curve_cases, "_symmetric_expansion", work["expansions"])
    per_case = {"curve_gh": [], "ident_eq28": []}
    for kind, made in per_case.items():
        def case(args, real=verify._CASE_FUNCS[kind], made=made):
            before = {name: len(calls) for name, calls in work.items()}
            res = real(args)
            made.append({name: len(calls) - before[name] for name, calls in work.items()})
            return res

        monkeypatch.setitem(verify._CASE_FUNCS, kind, case)
    assert main(_SMALL_AUDIT) == 0
    cases = json.loads(capsys.readouterr().out)["cases"]
    kinds = [c["kind"] for c in cases]
    primes = verify.primes_upto(31, start=5)
    pairs = sum((p - 3) // 2 for p in primes)
    assert kinds.count("curve_gh") == 2 * pairs == 128
    # a GH case builds no curve: it reads the pencils' census (whose gcd
    # count of points at infinity reads integer terms once per count);
    # eq. (28) expands the quartic pencil's three coefficients
    assert [(w["G"], w["H"], w["int_terms"] - w["infinity"])
            for w in per_case["curve_gh"]] == [(0, 0, 0)] * 128
    assert [w["expansions"] for w in per_case["ident_eq28"]] == [3] * kinds.count("ident_eq28")
    # one audit, so one cover census, per pair; its zero sets come from one
    # pass of each pencil per prime, and its infinity counts from one pass of
    # each pencil's top form per prime (the sextic's has a pencil term X^4 Y^2)
    assert len(census) == pairs
    assert sorted(census) == sorted(
        {(p, tau * tau % p) for p in primes for tau in range(2, p - 1)})
    assert [(p, (4, 2) in pencil) for p, pencil in passes] == [
        (p, is_g) for p in primes for is_g in (True, False)]
    assert [(ctx.p, (4, 2) in pencil) for ctx, pencil in tables] == [
        (p, is_g) for p in primes for is_g in (True, False)]
    # the gcd count of points at infinity runs for the curve_f cases, and for
    # the one member per prime whose top form vanishes: the sextic at t = 0
    f_curves = [poly for poly, in infinity if poly.field.n > 1]
    drops = [poly for poly, in infinity if poly.field.n == 1]
    assert len(f_curves) == kinds.count("curve_f")
    assert drops == [curves._sextic(make_field(p, 1), 0) for p in primes]
    # the kernel counts zeros only for the curve_f and eq28 cases, one count each
    assert len(zeros) == kinds.count("curve_f") + kinds.count("ident_eq28")
    # the run's audits and census end with it
    assert curve_cases._gh_audit.cache_info().currsize == 0
    assert curves.pencil_census.cache_info().currsize == 0


def test_a_case_outside_a_run_shares_the_audit_of_its_curves(monkeypatch, fresh_curve_caches):
    census = []
    _counting(monkeypatch, curves, "phi_fibers", census)
    first, second = (curve_cases._curve_gh_case({"p": 7, "tau": tau}) for tau in (2, 5))
    assert census == [(7, 4)]
    assert curve_cases._gh_audit.cache_info().currsize == 1
    assert (first["phi"]["tau"], second["phi"]["tau"]) == (2, 5)
    assert {**first, "phi": None} == {**second, "phi": None}


def test_an_interrupted_pooled_run_has_recorded_every_case_before_it(tmp_path, monkeypatch):
    # cases go to the pool one at a time, so when case k fails, cases 0 .. k-1
    # are all in the progress file, and a resumed run picks up from there
    prog = tmp_path / "thm31.progress"
    full = verify.verify_quadratic_trace_criterion(31, ())
    keys = [c["key"] for c in full["cases"]]
    real_case = verify._CASE_FUNCS["perm"]

    def case(args):
        # pool workers inherit this table by fork
        if (args["p"], args["b_index"]) == (11, 4):
            raise RuntimeError("interrupted")
        return real_case(args)

    monkeypatch.setitem(verify._CASE_FUNCS, "perm", case)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        verify.verify_quadratic_trace_criterion(31, (), jobs=2, progress_path=str(prog))
    recorded = [json.loads(line)["key"] for line in prog.read_text().splitlines()[1:]]
    assert recorded == keys[:keys.index("class,p=11,b=4")] and len(recorded) == 9
    monkeypatch.setitem(verify._CASE_FUNCS, "perm", real_case)
    resumed = verify.verify_quadratic_trace_criterion(31, (), jobs=2, progress_path=str(prog))
    assert emit_report(resumed, "json") == emit_report(full, "json")


def _perturb_one_tau(monkeypatch, p, tau):
    sextic = curves.criterion_sextic

    def perturbed(ctx, t):
        g = sextic(ctx, t)
        return g + BiPoly(ctx, {(1, 0): 1}) if (ctx.p, t) == (p, tau) else g

    monkeypatch.setattr(curves, "criterion_sextic", perturbed)


def test_a_curve_that_differs_at_p_minus_tau_fails_the_run(capsys, monkeypatch):
    census = []
    _counting(monkeypatch, curves, "phi_fibers", census)
    _perturb_one_tau(monkeypatch, 7, 5)  # 5 > 7/2 shares t = 4 with tau = 2
    assert main(["weil-audit", "--p-max", "7", "--f-degrees", "2", "--ident-p-max", "7",
                 "--eq28-p-max", "3"]) == 1
    cases = json.loads(capsys.readouterr().out)["cases"]
    # the GH cases read the pencils, not the builder, so the builder's
    # divergence at tau = 5 shows in the substitution identity at p = 7
    assert [(c["key"], c["substitution_mismatches"]) for c in cases if not c["pass"]] == [
        ("subst,p=7", 48)]
    assert all(c["pass"] for c in cases if c["kind"] == "curve_gh")
    assert census == [(5, 4), (7, 4), (7, 2)]
    assert curve_cases._gh_audit.cache_info().currsize == 0


def test_a_sextic_perturbed_at_every_t_fails_the_run(capsys, monkeypatch):
    # the builder reads the perturbed pencil, so each case's curves are its
    # members and the census holds their zeros; its cover check finds the
    # perturbation
    monkeypatch.setattr(curves, "_SEXTIC",
                        {**curves._SEXTIC, (3, 0): (1, 0, 0), (2, 1): (-1, 0, 0)})
    with pytest.raises(RuntimeError, match="^cover image escapes the quartic's zero set$"):
        main(["weil-audit", "--p-max", "7", "--f-degrees", "2", "--ident-p-max", "3",
              "--eq28-p-max", "3"])
    assert capsys.readouterr().out == ""
    assert curve_cases._gh_audit.cache_info().currsize == 0
    assert curves.pencil_census.cache_info().currsize == 0


def test_resume_between_tau_and_p_minus_tau_keeps_the_pinned_bytes(capsys, tmp_path,
                                                                   monkeypatch):
    command = "weil-audit --p-max 31 --f-degrees 2,3,4 --ident-p-max 5 --eq28-p-max 31"
    prog = tmp_path / "progress"
    assert main(command.split() + ["--progress-file", str(prog)]) == 0
    capsys.readouterr()
    data = prog.read_bytes()
    cut = data.index(b"\n", data.index(b'"key": "GH,p=7,tau=2"')) + 1
    assert b'"GH,p=7,tau=5"' in data[cut:]
    prog.write_bytes(data[:cut])
    # each census is recorded as the (p, tau) of the case that took it
    census, in_flight = [], []
    real_case = verify._CASE_FUNCS["curve_gh"]
    monkeypatch.setitem(verify._CASE_FUNCS, "curve_gh",
                        lambda args: in_flight.append((args["p"], args["tau"]))
                        or real_case(args))
    real_census = curves.phi_fibers

    def counted(p, t):
        assert (p, t) == (in_flight[-1][0], in_flight[-1][1] ** 2 % p)
        census.append(in_flight[-1])
        return real_census(p, t)

    monkeypatch.setattr(curves, "phi_fibers", counted)
    assert main(command.split() + ["--progress-file", str(prog)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[command]
    assert hashlib.sha256(prog.read_bytes()).hexdigest() == _PINNED_PROGRESS[command]
    assert census[0] == (7, 3) and (7, 5) in census  # tau = 5 builds its pair anew


def test_tau_and_p_minus_tau_in_different_workers_match_serial(capsys, tmp_path,
                                                                monkeypatch):
    argv = ["weil-audit", "--p-max", "13", "--f-degrees", "2", "--ident-p-max", "3",
            "--eq28-p-max", "3"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    real_case = verify._CASE_FUNCS["curve_gh"]

    def case(args):
        # pool workers inherit this table by fork; the worker holding tau = 2
        # waits until another worker has started tau = 11
        key = tmp_path / f"{args['p']}-{args['tau']}"
        key.write_text(str(os.getpid()))
        if (args["p"], args["tau"]) == (13, 2):
            deadline = time.monotonic() + 60
            while not (tmp_path / "13-11").exists():
                assert time.monotonic() < deadline, "tau = 11 never started"
                time.sleep(0.01)
        return real_case(args)

    monkeypatch.setitem(verify._CASE_FUNCS, "curve_gh", case)
    # a prime's GH cases share a group, which one worker runs whole; without
    # their groups tau = 2 and tau = 11 can reach two workers
    real_checked = verify._checked
    monkeypatch.setattr(verify, "_checked",
                        lambda kind, head, params, group=None: real_checked(kind, head, params))
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert (tmp_path / "13-2").read_text() != (tmp_path / "13-11").read_text()
    assert (tmp_path / "13-2").read_text() != str(os.getpid())


def test_pool_workers_take_whole_primes(capsys, tmp_path, monkeypatch):
    # each prime's GH cases go to one worker, so across the workers of a
    # --jobs 2 run every prime's census is two passes, one per pencil
    log = tmp_path / "passes"
    real = curves._pencil_zeros

    def logged(p, pencil):
        # pool workers inherit this by fork
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {p}\n")
        return real(p, pencil)

    monkeypatch.setattr(curves, "_pencil_zeros", logged)
    assert main(_SMALL_AUDIT) == 0
    serial = capsys.readouterr().out
    log.write_text("")
    assert main(_SMALL_AUDIT + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    passes = [line.split() for line in log.read_text().splitlines()]
    primes = verify.primes_upto(31, start=5)
    assert sorted(int(p) for _, p in passes) == sorted(primes * 2)
    assert all(len({pid for pid, q in passes if int(q) == p}) == 1 for p in primes)
    assert str(os.getpid()) not in {pid for pid, _ in passes}


@pytest.mark.parametrize("argv", [
    ["verify", "baseline", "--n2-max", "33"],
    ["verify", "baseline", "--n3-max", "21"],
    ["verify", "remark43", "--q-list", "65537"],
    ["verify", "remark43", "--q-list", "9,65537"],
    ["verify", "thm31", "--p-max", "65537", "--full-primes", "3"],
    ["verify", "thm31", "--p-max", "7", "--full-primes", "3,65537"],
    ["verify", "thm11", "--primes", "5,89"],
    ["conjecture", "--n", "3", "--primes", "5,1627"],
    ["conjecture", "--n", "4", "--primes", "5,257"],
], ids=["baseline-2", "baseline-3", "remark43", "remark43-after-9", "thm31-class", "thm31-full", "thm11",
        "conjecture-n3", "conjecture-n4"])
def test_campaign_refuses_a_field_above_the_scan_cap_before_any_grid(capsys, monkeypatch,
                                                                      argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid or scan ran before the scan cap was checked")

    for module in (maps, verify):
        for name in ("subfield_trace_reps", "trace_class_reps", "is_permutation"):
            monkeypatch.setattr(module, name, refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: field order ")
    assert captured.err.endswith(f" exceeds the scan cap {maps.HARD_SCAN_CAP}\n")

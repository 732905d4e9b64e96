"""CLI behavior: subcommands, formats, exit codes, resume."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys

import pytest

from permrat import _kernel_py, cli, verify
from permrat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_permcheck_permuting_case(capsys):
    code, out, _ = run_cli(capsys, "permcheck", "--p", "5", "--n", "2", "--b-trace", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_permutation"] is True
    assert doc["b"]["index"] == 3
    assert doc["modulus"] == [2, 0, 1]


def test_permcheck_witness_case(capsys):
    code, out, _ = run_cli(capsys, "permcheck", "--p", "5", "--n", "2", "--b-index", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_permutation"] is False
    assert doc["witness"]["i1"] < doc["witness"]["i2"]


def test_permcheck_refuses_a_witness_that_does_not_reverify(capsys, monkeypatch):
    # a kernel witness that is no collision stops permcheck as it stops a
    # campaign: f(0) = 1/b and f(1) = 1 + 1/b differ
    from permrat import _kernel_py, verify

    monkeypatch.setattr(_kernel_py, "perm_scan", lambda p, n, d, b: (False, (0, 1), 3))
    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        main(["permcheck", "--p", "5", "--n", "2", "--b-index", "1"])
    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        verify._perm_case({"p": 5, "n": 2, "b_index": 1})
    assert capsys.readouterr().out == ""


def test_permcheck_requires_valid_parameter(capsys):
    # trace-zero b is a usage error, not a crash
    code, _out, err = run_cli(capsys, "permcheck", "--p", "5", "--n", "5", "--b-index", "1")
    assert code == 2
    assert "trace" in err


def test_permcheck_scan_cap(capsys):
    # the scan cap is maps.HARD_SCAN_CAP alone: --scan-cap is no option
    code, out, err = run_cli(capsys, "permcheck", "--p", "5", "--n", "2",
                             "--b-trace", "1", "--scan-cap", "10")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --scan-cap 10" in err


def test_permcheck_reports_the_level_d_trace(capsys):
    # b = element 25 has absolute trace 0 but level-2 trace element 50 over F_{5^4}
    code, out, _ = run_cli(capsys, "permcheck", "--p", "5", "--n", "4", "--frob-level", "2",
                           "--b-index", "25")
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == {"index": 25, "coeffs": [0, 0, 1, 0], "trace_index": 50}
    code, out, _ = run_cli(capsys, "permcheck", "--p", "5", "--n", "4", "--frob-level", "2",
                           "--b-trace", "2")
    assert code == 0 and json.loads(out)["b"]["trace_index"] == 2
    code, out, _ = run_cli(capsys, "permcheck", "--p", "5", "--n", "4", "--b-index", "3")
    assert json.loads(out)["b"] == {"index": 3, "coeffs": [3, 0, 0, 0], "trace": 2}


def test_b_trace_names_a_level_d_trace_by_element_index(capsys):
    # element 25 of F_{5^4} is the first with level-2 trace element 50
    argv = ("permcheck", "--p", "5", "--n", "4", "--frob-level", "2", "--b-trace")
    code, out, _ = run_cli(capsys, *argv, "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["b"]["index"] == 25 and doc["b"]["trace_index"] == 50
    code, out, err = run_cli(capsys, *argv, "7")  # element 7 is not in F_{5^2}
    assert code == 2 and out == ""
    assert err == "error: trace target is not in the requested subfield\n"
    code, out, err = run_cli(capsys, *argv, "625")
    assert code == 2 and out == ""
    assert err == "error: element index 625 out of range for F(5^4)\n"


@pytest.mark.parametrize("cmd", [["permcheck", "--n", "2"], ["count", "--builtin", "F", "--n", "2"]])
def test_b_index_and_b_trace_are_exclusive(capsys, cmd):
    code, out, err = run_cli(capsys, *cmd, "--p", "5", "--b-index", "1", "--b-trace", "1")
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


def test_count_builtin_sextic(capsys):
    code, out, _ = run_cli(capsys, "count", "--builtin", "G", "--p", "5", "--tau", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["affine"] == 1 and doc["infinity"] == 3 and doc["degree"] == 6


def test_count_builtin_collision_curve(capsys):
    code, out, _ = run_cli(capsys, "count", "--builtin", "F", "--p", "5", "--n", "2",
                           "--b-trace", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["affine"] == 5 and doc["infinity"] == 2


def test_count_poly_file(capsys, tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("X^2 + Y^2 - 1\n")
    code, out, _ = run_cli(capsys, "count", "--p", "13", "--poly-file", str(path))
    assert code == 0
    doc = json.loads(out)
    # the circle over F_13 has q - chi(-1)-adjusted point count; verify directly
    expected = sum(1 for x in range(13) for y in range(13) if (x * x + y * y - 1) % 13 == 0)
    assert doc["affine"] == expected


def test_count_poly_file_with_a_huge_exponent(capsys, tmp_path):
    # on F_9, x^e is x^((e - 1) mod 8 + 1): y = -x^e has one point per x, and
    # the top form X^e vanishes only at x = 0
    path = tmp_path / "poly.txt"
    path.write_text("Y + X^99999999999999999999\n")
    code, out, _ = run_cli(capsys, "count", "--p", "3", "--n", "2", "--poly-file", str(path))
    assert code == 0
    doc = json.loads(out)
    assert (doc["affine"], doc["infinity"], doc["degree"]) == (9, 1, 10 ** 20 - 1)


def test_count_poly_file_rejects_leading_star(capsys, tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("X^2 + * Y\n")
    code, out, err = run_cli(capsys, "count", "--p", "5", "--n", "1",
                             "--poly-file", str(path))
    assert code == 2 and out == ""
    assert "'*Y'" in err


def test_count_missing_parameter_is_usage_error(capsys):
    code, _out, err = run_cli(capsys, "count", "--builtin", "G", "--p", "5")
    assert code == 2 and "tau" in err


def test_count_builtin_and_poly_file_are_exclusive(capsys, tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("X^2 + Y^2 - 1\n")
    code, out, err = run_cli(capsys, "count", "--p", "7", "--builtin", "G", "--tau", "3",
                             "--poly-file", str(path))
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


# count: each curve with the flags it reads; --poly-file reads none
_COUNT_CURVES = {"F": ["--builtin", "F", "--b-index", "1"],
                 "G": ["--builtin", "G", "--tau", "2"],
                 "H": ["--builtin", "H", "--tau", "2"],
                 "A": ["--builtin", "A", "--t", "1"],
                 "poly-file": ["--poly-file"]}


@pytest.mark.parametrize("curve,flag", [
    ("F", "--tau"), ("A", "--tau"), ("F", "--t"), ("G", "--t"), ("H", "--t"),
    ("G", "--b-index"), ("H", "--b-trace"), ("A", "--b-index"),
    ("poly-file", "--b-trace"), ("poly-file", "--tau"), ("poly-file", "--t")])
def test_count_flag_the_curve_does_not_read_exits_two(capsys, tmp_path, curve, flag):
    argv = _COUNT_CURVES[curve]
    if curve == "poly-file":
        path = tmp_path / "poly.txt"
        path.write_text("X^2 + Y^2 - 1\n")
        argv = argv + [str(path)]
    code, out, err = run_cli(capsys, "count", "--p", "5", *argv, flag, "1")
    assert code == 2 and out == ""
    name = "--poly-file" if curve == "poly-file" else f"--builtin {curve}"
    assert err == f"error: {flag} does not apply to count {name}\n"


@pytest.mark.parametrize("argv,power", [(["--p", "1000003", "--n", "1"], "1000003^1 = 1000003"),
                                        (["--p", "2", "--n", "40", "--d", "20"], "2^20 = 1048576"),
                                        (["--p", "2", "--n", "34", "--d", "17"], "2^17 = 131072")])
def test_reps_refuses_a_subfield_above_the_bound(capsys, argv, power):
    # the bound is on p^d*n, the size of the report, so even p^d = 2^17 is
    # refused at n = 34
    code, out, err = run_cli(capsys, "reps", *argv)
    n, order = int(argv[3]), int(power.split(" = ")[1])
    assert code == 2 and out == ""
    assert f"p^d = {power} and n = {n}, p^d*n = {order * n} exceeds the bound 131072" in err


def test_bad_flags_exit_two(capsys):
    assert main(["permcheck", "--p", "5"]) == 2          # missing --n
    assert main(["no-such-command"]) == 2


# The options each subcommand accepts; a new flag is added here on purpose.
_OPTIONS = {
    "permcheck": {"--p", "--n", "--b-index", "--b-trace", "--frob-level"},
    "count": {"--p", "--n", "--builtin", "--poly-file", "--b-index", "--b-trace", "--tau", "--t"},
    "weil-audit": {"--progress-file", "--p-max", "--f-p", "--f-degrees", "--ident-p-max",
                   "--eq28-p-max"},
    "verify": {"--progress-file", "--n2-max", "--n3-max", "--primes", "--p-max",
               "--full-primes", "--q-list"},
    "conjecture": {"--progress-file", "--n", "--primes", "--p-max"},
    "reps": {"--p", "--n", "--d"},
}
_COMMON_OPTIONS = {"-h", "--help", "--format", "--jobs"}


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_accepts_exactly_its_options():
    accepted = {name: {opt for action in sub._actions for opt in action.option_strings}
                for name, sub in _subparsers().items()}
    assert accepted == {name: own | _COMMON_OPTIONS for name, own in _OPTIONS.items()}


class _ReadLog(argparse.Namespace):
    """A parsed namespace that records the name of every attribute read."""

    def __init__(self, reads, **values):
        super().__init__(**values)
        self._reads = reads

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    ["permcheck", "--p", "5", "--n", "2", "--b-trace", "1"],
    ["count", "--p", "5", "--builtin", "G", "--tau", "2"],
    ["weil-audit", "--p-max", "3", "--f-degrees", "2", "--eq28-p-max", "3", "--ident-p-max", "3"],
    ["verify", "thm11", "--primes", "5"],
    ["conjecture", "--n", "3", "--primes", "5"],
    ["reps", "--p", "3", "--n", "4"],
], ids=lambda argv: argv[0])
def test_every_option_is_read_by_its_command(capsys, monkeypatch, argv):
    # an option that its command never reads would be accepted and ignored
    reads = set()
    build = cli.build_parser

    def recording_parser():
        parser = build()
        parse = parser.parse_args
        parser.parse_args = lambda args: _ReadLog(reads, **vars(parse(args)))
        return parser

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    assert main(argv) == 0
    sub = _subparsers()[argv[0]]
    assert {a.dest for a in sub._actions if a.option_strings} - {"help"} <= reads


def test_campaign_flags_left_out_take_the_verify_defaults(capsys, monkeypatch):
    # the CLI passes only the flags given, so each default lives in `verify`
    from permrat import verify

    monkeypatch.delenv("PERMRAT_JOBS", raising=False)
    assert verify.verify_squarefree_gcd_chain.__defaults__[0] == 100  # as the CLI always ran
    for target, (command, name, flags) in cli._CAMPAIGNS.items():
        assert all("default" not in kw for _, kw in flags), target
        seen = {}
        monkeypatch.setattr(verify, name, lambda **kwargs: seen.update(kwargs) or
                            {"campaign": target, "ok": True})
        argv = {"verify": ["verify", target], "weil-audit": ["weil-audit"],
                "conjecture": ["conjecture", "--n", "3"]}[command]
        assert main(argv) == 0
        given = {"n": 3} if command == "conjecture" else {}
        assert seen == {**given, "jobs": 1, "progress_path": None}, target
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["permcheck", "--p", "5", "--n", "2", "--b-trace", "1"],
    ["count", "--p", "5", "--builtin", "G", "--tau", "2"],
    ["reps", "--p", "5", "--n", "2"],
], ids=lambda argv: argv[0])
def test_progress_file_outside_campaigns_exits_two(capsys, tmp_path, argv):
    # only campaigns resume; elsewhere the flag would be silently ignored
    prog = tmp_path / "prog"
    code, out, err = run_cli(capsys, *argv, "--progress-file", str(prog))
    assert code == 2 and out == ""
    assert f"unrecognized arguments: --progress-file {prog}" in err
    assert not prog.exists()


def test_reps_output(capsys):
    code, out, _ = run_cli(capsys, "reps", "--p", "5", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert [r["index"] for r in doc["reps"]] == [2500, 1875]
    assert [r["trace"] for r in doc["reps"]] == [1, 2]


def test_verify_exit_zero_and_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemmaL", "--p-max", "13")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert json.loads(json.dumps(doc)) == doc


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemmaL", "--p-max", "13", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "key"
    assert len(rows) == 1 + 4  # header + primes 5, 7, 11, 13


def test_verify_human_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma22", "--p-max", "7", "--format", "human")
    assert code == 0
    assert "[pass]" in out and "campaign: lemma22" in out


def test_conjecture_subcommand(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "3", "--primes", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["counterexamples"] == []
    assert all(c["witness"] for c in doc["cases"])


@pytest.mark.parametrize("argv,flag", [
    (["verify", "lemma22", "--p-max", "7", "--q-list", "9"], "--q-list"),
    (["verify", "thm11", "--primes", "5", "--p-max", "7"], "--p-max"),
    (["verify", "baseline", "--full-primes", "3"], "--full-primes"),
], ids=["lemma22", "thm11", "baseline"])
def test_verify_rejects_flags_the_target_does_not_read(capsys, tmp_path, argv, flag):
    prog = tmp_path / "prog"
    code, out, err = run_cli(capsys, *argv, "--progress-file", str(prog))
    assert code == 2 and out == ""
    assert err == f"error: {flag} does not apply to verify {argv[1]}\n"
    assert not prog.exists()


def test_conjecture_primes_and_p_max_are_exclusive(capsys):
    code, out, err = run_cli(capsys, "conjecture", "--n", "3", "--primes", "7", "--p-max", "5")
    assert code == 2 and out == ""
    assert "argument --p-max: not allowed with argument --primes" in err
    code, out, _ = run_cli(capsys, "conjecture", "--n", "3", "--p-max", "5")
    assert code == 0 and json.loads(out)["config"]["primes"] == [5]


def test_output_bytes_are_stable(capsys):
    _, out1, _ = run_cli(capsys, "verify", "thm31", "--p-max", "7", "--full-primes", "")
    _, out2, _ = run_cli(capsys, "verify", "thm31", "--p-max", "7", "--full-primes", "")
    assert out1 == out2
    _, out4, _ = run_cli(capsys, "verify", "thm31", "--p-max", "7", "--full-primes", "",
                         "--jobs", "2")
    assert out1 == out4


def test_cli_resume_byte_identical(capsys, tmp_path):
    prog = tmp_path / "prog"
    _, ref, _ = run_cli(capsys, "verify", "lemmaL", "--p-max", "31")
    code, out, _ = run_cli(capsys, "verify", "lemmaL", "--p-max", "31",
                           "--progress-file", str(prog))
    assert code == 0 and out == ref
    lines = prog.read_text().splitlines()
    prog.write_text("\n".join(lines[:3]) + "\n")
    code, out, _ = run_cli(capsys, "verify", "lemmaL", "--p-max", "31",
                           "--progress-file", str(prog))
    assert code == 0 and out == ref


@pytest.mark.parametrize("cut", [10, 1])
def test_cli_resume_from_torn_record(capsys, tmp_path, cut):
    # a kill mid-write tears the last record; it is dropped and redone
    prog = tmp_path / "prog"
    argv = ("verify", "lemmaL", "--p-max", "13", "--progress-file", str(prog))
    _, ref, _ = run_cli(capsys, *argv[:4])
    run_cli(capsys, *argv)
    clean = prog.read_bytes()
    prog.write_bytes(clean[:-cut])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == ref
    assert prog.read_bytes() == clean
    assert all(json.loads(line) for line in prog.read_text().splitlines())


def test_cli_resume_from_torn_header(capsys, tmp_path):
    prog = tmp_path / "prog"
    argv = ("verify", "lemmaL", "--p-max", "13", "--progress-file", str(prog))
    _, ref, _ = run_cli(capsys, *argv[:4])
    run_cli(capsys, *argv)
    clean = prog.read_bytes()
    prog.write_bytes(clean[:20])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == ref
    assert prog.read_bytes() == clean


def test_cli_resume_refuses_corrupt_inner_record(capsys, tmp_path):
    prog = tmp_path / "prog"
    argv = ("verify", "lemmaL", "--p-max", "13", "--progress-file", str(prog))
    run_cli(capsys, *argv)
    lines = prog.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:15] + "\n"
    prog.write_text("".join(lines))
    code, _out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "corrupt at line 2" in err


def test_cli_resume_fingerprint_mismatch(capsys, tmp_path):
    prog = tmp_path / "prog"
    run_cli(capsys, "verify", "lemmaL", "--p-max", "13", "--progress-file", str(prog))
    code, _out, err = run_cli(capsys, "verify", "lemmaL", "--p-max", "17",
                              "--progress-file", str(prog))
    assert code == 2
    assert "configuration" in err


def test_weil_audit_small(capsys):
    code, out, _ = run_cli(capsys, "weil-audit", "--p-max", "7", "--f-degrees", "2",
                           "--ident-p-max", "3", "--eq28-p-max", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_report_names_the_backend_that_ran(capsys, monkeypatch):
    monkeypatch.delenv("PERMRAT_BACKEND", raising=False)
    code, out, _ = run_cli(capsys, "permcheck", "--p", "2147483659", "--n", "1",
                           "--b-index", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["backend"] == "pure"
    assert doc["is_permutation"] is True and doc["evaluations"] == 2147483659


@pytest.mark.parametrize("env,value,needle", [
    ("PERMRAT_BACKEND", "bogus", "unknown backend 'bogus'"),
    ("PERMRAT_BACKEND", "compiled", "unknown backend 'compiled'"),
    ("PERMRAT_JOBS", "abc", "PERMRAT_JOBS must be an integer"),
])
def test_bad_environment_value_exits_two(capsys, monkeypatch, env, value, needle):
    monkeypatch.setenv(env, value)
    for argv in (["reps", "--p", "5", "--n", "2"], ["verify", "lemmaL", "--p-max", "7"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and needle in err


def test_jobs_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("PERMRAT_JOBS", "abc")
    code, out, _ = run_cli(capsys, "verify", "lemmaL", "--p-max", "7", "--jobs", "1")
    assert code == 0 and json.loads(out)["ok"] is True


def test_process_pool_is_imported_only_when_used():
    # --jobs 1 must not pay for multiprocessing at start-up
    probe = ("import sys, permrat.cli; "
             "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_permcheck_does_not_import_numpy():
    # importing numpy costs 0.1-0.2 s and ~11 MB of peak RSS; the kernels are pure Python
    from permrat.field import first_elem_with_trace, make_field
    b = first_elem_with_trace(make_field(2, 8), 1).index
    probe = ("import sys; from permrat.cli import main; "
             f"code = main(['permcheck', '--p', '2', '--n', '8', '--b-index', '{b}']); "
             "print(code, 'numpy' in sys.modules, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert json.loads(out.stdout)["is_permutation"] is True
    assert out.stderr.split() == ["0", "False"]


@pytest.mark.parametrize("argv,bound", [
    (["verify", "baseline", "--n2-max", "-1"], "n_max_2"),
    (["verify", "baseline", "--n3-max", "-3"], "n_max_3"),
    (["verify", "thm31", "--p-max", "-1"], "p_max"),
    (["weil-audit", "--p-max", "-1"], "p_max"),
    (["weil-audit", "--eq28-p-max", "-4", "--ident-p-max", "-2"], "ident_p_max"),
], ids=["baseline-n2", "baseline-n3", "thm31", "weil-audit", "weil-audit-identities"])
def test_negative_bound_exits_two(capsys, argv, bound):
    # a bound below 0 would select the cases of 0 under a second config and
    # fingerprint; 0 itself stays valid and skips what it bounds
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {bound} must be at least 0, got {argv[-1]}\n"
    code, out, _ = run_cli(capsys, "verify", "baseline", "--n2-max", "0", "--n3-max", "1")
    assert code == 0 and [c["key"] for c in json.loads(out)["cases"]] == ["p=3,n=1,b=1"]


@pytest.mark.parametrize("argv", [
    ["weil-audit", "--f-degrees", "2,3,8"],
    ["weil-audit", "--f-p", "11", "--f-degrees", "2,5"],
], ids=["5^8", "11^5"])
def test_oversized_collision_curve_field_exits_two_before_any_case(capsys, tmp_path,
                                                                   monkeypatch, argv):
    # q^2 above the counting budget is refused before the grid, so no case
    # of the smaller fields runs or reaches the progress file
    def count_zeros(*args):
        raise AssertionError("a case was counted")

    monkeypatch.setattr(_kernel_py, "count_zeros", count_zeros)
    prog = tmp_path / "prog"
    code, out, err = run_cli(capsys, *argv, "--progress-file", str(prog))
    assert code == 2 and out == ""
    assert err == "error: affine counting budget exceeded (q^2 > 2^34)\n"
    assert not prog.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "thm11", "--primes", ""],
    ["verify", "thm31", "--p-max", "0", "--full-primes", ""],
    ["weil-audit", "--p-max", "3", "--f-degrees", "", "--eq28-p-max", "2",
     "--ident-p-max", "2"],
    ["conjecture", "--n", "3", "--p-max", "3"],
], ids=["thm11", "thm31", "weil-audit", "conjecture"])
def test_vacuous_configuration_exits_two(capsys, tmp_path, argv):
    # a campaign that checks nothing must not report "ok": true
    prog = tmp_path / "prog"
    code, out, err = run_cli(capsys, *argv, "--progress-file", str(prog))
    assert code == 2 and out == ""
    assert err == "error: configuration selects no cases\n"
    assert not prog.exists()


@pytest.mark.parametrize("argv,key", [
    (["verify", "thm11", "--primes", "5,5"], "p=5,t=1,b=2500"),
    (["verify", "thm31", "--p-max", "3", "--full-primes", "3,3"], "full,p=3,b_index=1"),
    (["verify", "remark43", "--q-list", "9,9"], "q=9,t=1,b=2"),
    (["conjecture", "--n", "3", "--primes", "5,5"], "p=5,n=3,b=1"),
    (["weil-audit", "--p-max", "3", "--f-degrees", "2,2", "--eq28-p-max", "2",
      "--ident-p-max", "2"], "F,p=5,n=2,b=3"),
], ids=["thm11-primes", "thm31-full-primes", "remark43-q-list", "conjecture-primes",
        "weil-audit-f-degrees"])
def test_repeated_case_exits_two(capsys, tmp_path, argv, key):
    # a repeated case would be counted twice in totals and in the progress file
    prog = tmp_path / "prog"
    code, out, err = run_cli(capsys, *argv, "--progress-file", str(prog))
    assert code == 2 and out == ""
    assert err == f"error: configuration repeats case {key}\n"
    assert not prog.exists()


@pytest.mark.parametrize("primes", ["3", "2,5"])
def test_thm11_rejects_primes_below_five(capsys, tmp_path, primes):
    # the theorem is about p >= 5; for p = 2, 3 every such map permutes
    prog = tmp_path / "prog"
    code, out, err = run_cli(capsys, "verify", "thm11", "--primes", primes,
                             "--progress-file", str(prog))
    assert code == 2 and out == ""
    assert err == "error: thm11 requires p >= 5\n"
    assert not prog.exists()


@pytest.mark.parametrize("n", ["3", "4"])
def test_conjecture_refuses_a_composite_prime_before_any_case(capsys, tmp_path, monkeypatch,
                                                              n):
    # p = 9 comes after p = 7, whose cases must not run or reach the file
    def refuse(args):
        raise AssertionError("a case ran before the primes were checked")

    monkeypatch.setattr(verify, "_perm_case", refuse)
    monkeypatch.setitem(verify._CASE_FUNCS, "perm", refuse)
    prog = tmp_path / "prog"
    code, out, err = run_cli(capsys, "conjecture", "--n", n, "--primes", "7,9",
                             "--progress-file", str(prog))
    assert code == 2 and out == ""
    assert err == "error: characteristic 9 is not prime\n"
    assert not prog.exists()


@pytest.mark.parametrize("flag,env,needle", [
    (["--jobs", "0"], None, "error: --jobs must be at least 1, got 0"),
    (["--jobs", "-1"], None, "error: --jobs must be at least 1, got -1"),
    ([], "0", "error: PERMRAT_JOBS must be at least 1, got '0'"),
    ([], "-3", "error: PERMRAT_JOBS must be at least 1, got '-3'"),
], ids=["flag-0", "flag-minus-1", "env-0", "env-minus-3"])
def test_nonpositive_jobs_exits_two(capsys, monkeypatch, flag, env, needle):
    if env is None:
        monkeypatch.delenv("PERMRAT_JOBS", raising=False)
    else:
        monkeypatch.setenv("PERMRAT_JOBS", env)
    for argv in (["reps", "--p", "5", "--n", "2"], ["verify", "lemmaL", "--p-max", "7"]):
        code, out, err = run_cli(capsys, *argv, *flag)
        assert code == 2 and out == ""
        assert err == needle + "\n"


def _fresh_process(*args, **env):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env})


_WATCHED = ("permrat.curves", "permrat.curve_cases", "permrat.verify", "permrat.maps",
            "permrat.backend", "permrat._kernel_py", "permrat._sliced", "permrat._count",
            "dataclasses")
_KERNELS = ("permrat._kernel_py", "permrat._sliced", "permrat._count")
_NOT_IN_SCANS = ("permrat.curves", "permrat.curve_cases", "permrat.verify", "permrat._count",
                 "dataclasses")
_NOT_IN_CAMPAIGNS = ("permrat.curves", "permrat.curve_cases", "permrat._count", "dataclasses")
_WEIL_SMALL = ["weil-audit", "--p-max", "11", "--f-degrees", "2", "--ident-p-max", "5",
               "--eq28-p-max", "7"]


def test_importing_the_cli_loads_no_command_module():
    out = _fresh_process("-c", "import sys, permrat.cli; "
                               f"print([m for m in {_WATCHED!r} if m in sys.modules])")
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv,ran,absent", [
    (["reps", "--p", "3", "--n", "4"], ("permrat.maps",), _NOT_IN_SCANS + _KERNELS),
    (["reps", "--p", "3", "--n", "4", "--d", "2"], ("permrat.maps",),
     _NOT_IN_SCANS + _KERNELS),
    (["permcheck", "--p", "5", "--n", "2", "--b-index", "3"],
     ("permrat.maps", "permrat._kernel_py"), _NOT_IN_SCANS + ("permrat._sliced",)),
    (["verify", "baseline", "--n2-max", "5", "--n3-max", "2"],
     ("permrat.verify", "permrat._kernel_py", "permrat._sliced"), _NOT_IN_CAMPAIGNS),
    (["verify", "thm11", "--primes", "5"], ("permrat.verify", "permrat._kernel_py"),
     _NOT_IN_CAMPAIGNS + ("permrat._sliced",)),
    (["verify", "thm31", "--p-max", "7", "--full-primes", "3"],
     ("permrat.verify", "permrat._sliced"), _NOT_IN_CAMPAIGNS),
    (["verify", "remark43", "--q-list", "9"], ("permrat.verify", "permrat._sliced"),
     _NOT_IN_CAMPAIGNS),
    (["conjecture", "--n", "3", "--primes", "5"], ("permrat.verify", "permrat._kernel_py"),
     _NOT_IN_CAMPAIGNS + ("permrat._sliced",)),
    (["conjecture", "--n", "4", "--primes", "5"], ("permrat.verify", "permrat._kernel_py"),
     _NOT_IN_CAMPAIGNS + ("permrat._sliced",)),
    (["count", "--p", "5", "--builtin", "G", "--tau", "2"], ("permrat.curves", "permrat._count"),
     ("dataclasses", "permrat._sliced", "permrat.curve_cases")),
    (["verify", "lemma22", "--p-max", "7"], ("permrat.curves", "permrat.curve_cases"),
     ("dataclasses",) + _KERNELS),
    (["verify", "lemmaL", "--p-max", "7"], ("permrat.curves", "permrat.curve_cases"),
     ("dataclasses",) + _KERNELS),
    (_WEIL_SMALL, ("permrat.curves", "permrat.curve_cases", "permrat._count"),
     ("dataclasses", "permrat._sliced")),
], ids=["reps", "reps-d2", "permcheck", "verify-baseline", "verify-thm11", "verify-thm31",
        "verify-remark43", "conjecture-n3", "conjecture-n4", "count", "verify-lemma22",
        "verify-lemmaL", "weil-audit"])
def test_subcommand_imports_only_what_it_runs(argv, ran, absent):
    # each process compiles only the modules its command runs; reps, lemma22
    # and lemmaL run no kernel, scans never load the count kernel, only
    # p = 2, 3 scans run the sliced one, and only curve and lemma campaigns
    # load their cases (curve_cases)
    probe = ("import json, sys; from permrat.cli import main; "
             f"code = main({argv!r}); "
             f"loaded = [m for m in {_WATCHED!r} if m in sys.modules]; "
             "print(json.dumps([code, loaded]), file=sys.stderr)")
    out = _fresh_process("-c", probe, PERMRAT_BACKEND="pure")
    code, loaded = json.loads(out.stderr)
    assert code == 0 and json.loads(out.stdout)
    assert set(ran) <= set(loaded)
    assert not set(absent) & set(loaded)


def test_weil_audit_in_pool_workers_matches_serial():
    # the parent never runs a curve case, so the workers import curves themselves
    serial = _fresh_process("-m", "permrat.cli", *_WEIL_SMALL, "--jobs", "1").stdout
    pooled = _fresh_process("-m", "permrat.cli", *_WEIL_SMALL, "--jobs", "2").stdout
    assert pooled == serial
    assert json.loads(serial)["ok"] is True

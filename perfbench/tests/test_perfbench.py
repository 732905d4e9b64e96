"""Self-tests of the benchmark harness: smoke runs of every workload, metric
names against BENCHMARK.json, the output checks, and the trace accounting."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from permrat import cli  # noqa: E402
from permrat.curves import collision_curve  # noqa: E402
from permrat.field import make_field  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _names_units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert _names_units(BENCH["per_layer"]) == layers.metric_units()
    setup = _names_units(BENCH["end_to_end"])["setup_s"]
    assert setup == "s"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_layer_metric(workload):
    res = _run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--smoke")
    assert res.returncode == 0, res.stderr
    env, result = (json.loads(line) for line in res.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, res.stderr
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names_units(BENCH["per_layer"])
    assert result["metrics"]["kernel.backend_mismatch"]["value"] == 0
    assert env["env"]["backend_ran"] in (["pure"], ["compiled"], [])


def test_smoke_run_prints_every_end_to_end_metric():
    res = _run_bench("--workload", "perm-full", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--smoke")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is True
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names_units(BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = _run_bench("--workload", "perm-full", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert res.returncode != 0
    assert res.stdout == ""


def _cli_json(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return json.loads(buf.getvalue())


def _failed_frac(outputs) -> float:
    bad = [cmd for cmd, rep in outputs
           if checks.check(cmd, 0, json.dumps(rep).encode())]
    return len(bad) / len(outputs)


def _outputs():
    census = checks.census_collision_curve(3, 2, 5)
    return [
        (Command(["permcheck", "--p", "5", "--n", "2", "--b-index", "1"],
                 expect={"b_index": 1}),
         _cli_json("permcheck", "--p", "5", "--n", "2", "--b-index", "1")),
        (Command(["permcheck", "--p", "2", "--n", "6", "--b-index", "35"],
                 expect={"b_index": 35}),
         _cli_json("permcheck", "--p", "2", "--n", "6", "--b-index", "35")),
        (Command(["count", "--p", "3", "--n", "2", "--builtin", "F", "--b-index", "5"],
                 expect={"b_index": 5, "census": census}),
         _cli_json("count", "--p", "3", "--n", "2", "--builtin", "F", "--b-index", "5")),
        (Command(["verify", "thm31", "--p-max", "11", "--full-primes", "3"]),
         _cli_json("verify", "thm31", "--p-max", "11", "--full-primes", "3")),
    ]


def _swap_witness(outputs):
    w = outputs[0][1]["witness"]
    w["i1"], w["i2"] = w["i2"], w["i1"]
    w["coeffs1"], w["coeffs2"] = w["coeffs2"], w["coeffs1"]


def _move_witness(outputs):
    outputs[0][1]["witness"]["i2"] += 1


def _flip_verdict(outputs):
    outputs[1][1]["is_permutation"] = False


def _flip_campaign_verdict(outputs):
    case = next(c for c in outputs[3][1]["cases"] if c["observed_permutation"])
    case["observed_permutation"] = False


def _wrong_count(outputs):
    outputs[2][1]["affine"] += 1


@pytest.mark.parametrize("tamper", [_swap_witness, _move_witness, _flip_verdict,
                                    _flip_campaign_verdict, _wrong_count])
def test_failed_frac_rises_on_tampered_output(tamper):
    outputs = _outputs()
    assert _failed_frac(outputs) == 0
    tamper(outputs)
    assert _failed_frac(outputs) == 1 / len(outputs)


def test_nonzero_exit_fails_the_check():
    assert checks.check(Command(["reps"]), 2, b"") == ["exit code 2"]


@pytest.mark.parametrize("p,n,b_index", [(3, 2, 5), (5, 2, 3), (2, 4, 8)])
def test_census_matches_a_full_brute_force(p, n, b_index):
    ctx = make_field(p, n)
    poly = collision_curve(ctx, ctx.element(b_index))
    full = sum(1 for x in ctx for y in ctx if not poly.eval(x, y))
    assert checks.census_collision_curve(p, n, b_index) == full


def _span(i, name, parent, start, end, calls=1, meta=None):
    return {"name": name, "id": i, "parent": parent, "start": start, "end": end,
            "dur": end - start, "calls": calls, "meta": meta}


def test_layer_metrics_count_nested_spans_once():
    spans = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "verify.verify_squarefree_gcd_chain", 0, 1.0, 9.0),
        _span(2, "verify.run_cases", 1, 1.5, 8.5, meta={"cases": 4}),
        _span(3, "curves.is_squarefree", 2, 2.0, 6.0),
        _span(4, "curves.uni_gcd", 3, 3.0, 5.0),
        _span(5, "curves.BiPoly.eval", 2, 6.0, 8.0, calls=50),
        _span(6, "cli.emit_report", 0, 9.0, 9.5),
    ]
    m = layers.layer_metrics([{"spans": spans, "backend": "pure", "report_bytes": 7,
                               "progress_bytes": 3}],
                             traced_wall=11.0, untraced_wall=10.0, setup_s=0.25)
    assert m["curves.uni_s"] == 4.0
    assert m["curves.bipoly_eval_calls"] == 50
    assert m["verify.run_cases_self_s"] == 1.0
    assert m["verify.campaign_s"] == 8.0
    assert m["verify.self_s"] == 1.0 + 1.0
    assert m["curves.self_s"] == 2.0 + 2.0 + 2.0
    assert m["cli.self_s"] == 1.5 + 0.5
    assert m["verify.cases"] == 4
    assert m["trace.residual_s"] == pytest.approx(11.0 - 0.25 - 10.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    assert m["kernel.backend_mismatch"] == 0


def test_backend_mismatch_counts_commands():
    spans = [_span(0, "cli.main", None, 0.0, 1.0),
             _span(1, "kernel.perm_scan", 0, 0.1, 0.9, meta={"backend": "pure"})]
    m = layers.layer_metrics([{"spans": spans, "backend": "compiled", "report_bytes": 1,
                               "progress_bytes": 0}],
                             traced_wall=1.2, untraced_wall=1.1, setup_s=0.1)
    assert m["kernel.backend_mismatch"] == 1
    assert m["kernel.pure_calls"] == 1

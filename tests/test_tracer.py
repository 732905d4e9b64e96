"""The benchmark's tracer sees every campaign through the CLI.

perfbench/tracer.py wraps module attributes by identity, so the CLI must
call each campaign through the `verify` module, and the campaign must call
run_cases through it too.  Likewise the lemma cases must reach the
univariate toolkit through its `curves` names, or the per-layer
`curves.uni_s` would read 0 on working code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _traced_spans(tmp_path, argv):
    """Run the CLI under the tracer; its report must pass.  Returns the spans."""
    spans_out = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    env.pop("PERMRAT_JOBS", None)
    env.pop("PERMRAT_BACKEND", None)
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                           str(spans_out), "--", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
    return json.loads(spans_out.read_text())


@pytest.mark.parametrize("argv,campaign", [
    (["verify", "lemmaL", "--p-max", "7"], "verify.verify_squarefree_gcd_chain"),
    (["conjecture", "--n", "3", "--primes", "5"], "verify.conjecture_search"),
], ids=["lemmaL", "conjecture"])
def test_tracer_records_campaign_and_run_cases(tmp_path, argv, campaign):
    spans = _traced_spans(tmp_path, argv)
    by_name = {s["name"]: s for s in spans}
    assert campaign in by_name and "verify.run_cases" in by_name
    assert by_name["verify.run_cases"]["parent"] == by_name[campaign]["id"]


@pytest.mark.parametrize("argv,names", [
    (["verify", "lemmaL", "--p-max", "7"],
     {"curves.uni_gcd", "curves.uni_derivative", "curves.is_squarefree"}),
    (["verify", "lemma22", "--p-max", "7"], {"curves.uni_square_root"}),
], ids=["lemmaL", "lemma22"])
def test_tracer_records_the_univariate_toolkit(tmp_path, argv, names):
    spans = _traced_spans(tmp_path, argv)
    assert names <= {s["name"] for s in spans}

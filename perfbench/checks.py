"""Correctness checks on permrat CLI output.

check() returns the list of problems found in one command's output; an
empty list means the command passed.  A command fails on a nonzero exit
code, a campaign that is not ok or has failed cases, a collision witness
that does not re-verify under maps.verify_witness (or has i1 >= i2), a
verdict that contradicts the paper, a reps answer with the wrong traces, or
a count that differs from the brute-force BiPoly.eval census.
"""

from __future__ import annotations

import json

from permrat import backend
from permrat.curves import collision_curve, count_affine, criterion_sextic
from permrat.field import absolute_trace, make_field, trace_rel
from permrat.maps import MapSpec, is_permutation, trace_class_reps, verify_witness


def paper_verdict(ctx, b, d: int):
    """The verdict the paper predicts for f_b at level d, or None if it does
    not settle the case: every map permutes for p = 2, 3 (d = 1), and when
    n = 2d the map permutes iff the level-d trace of b is +-1."""
    if d == 1 and ctx.p in (2, 3):
        return True
    if ctx.n == 2 * d:
        return trace_rel(b, d) in (1, -1)
    return None


def perm_problems(p: int, n: int, d: int, b_index: int, verdict, witness) -> list[str]:
    """Problems with one permutation verdict and its witness."""
    ctx = make_field(p, n)
    b = ctx.element(b_index)
    try:
        spec = MapSpec(ctx, b, d)
    except ValueError as exc:
        return [f"F_{p}^{n} b={b_index}: {exc}"]
    where = f"F_{p}^{n} d={d} b={b_index}"
    problems = []
    if verdict is not (witness is None):
        problems.append(f"{where}: verdict {verdict} with witness {witness}")
    if witness is not None:
        i1, i2 = witness["i1"], witness["i2"]
        if not 0 <= i1 < i2 < ctx.order:
            problems.append(f"{where}: witness indices ({i1}, {i2}) not increasing")
        else:
            x1, x2 = ctx.element(i1), ctx.element(i2)
            if [list(x1.coeffs), list(x2.coeffs)] != [witness["coeffs1"], witness["coeffs2"]]:
                problems.append(f"{where}: witness coefficients disagree with its indices")
            if not verify_witness(spec, (x1, x2)):
                problems.append(f"{where}: witness ({i1}, {i2}) does not collide")
    expected = paper_verdict(ctx, b, d)
    if expected is not None and verdict != expected:
        problems.append(f"{where}: verdict {verdict} contradicts the paper ({expected})")
    return problems


def _flag(argv: list[str], name: str, default=None):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _check_permcheck(cmd, rep) -> list[str]:
    p, n = _flag(cmd.argv, "--p"), _flag(cmd.argv, "--n")
    d = _flag(cmd.argv, "--frob-level", 1)
    if (rep["p"], rep["n"], rep["d"]) != (p, n, d):
        return [f"permcheck answered for F_{rep['p']}^{rep['n']}, asked F_{p}^{n}"]
    b = rep["b"]
    problems = []
    if "b_index" in cmd.expect and b["index"] != cmd.expect["b_index"]:
        problems.append(f"permcheck scanned b={b['index']}, asked b={cmd.expect['b_index']}")
    if "trace" in cmd.expect:
        got = absolute_trace(make_field(p, n).element(b["index"]))
        if got != cmd.expect["trace"] % p or b["trace"] != got:
            problems.append(f"permcheck picked b={b['index']} of trace {got}, "
                            f"asked trace {cmd.expect['trace']}")
    return problems + perm_problems(p, n, d, b["index"], rep["is_permutation"], rep["witness"])


def _check_campaign(cmd, rep) -> list[str]:
    problems = []
    if rep.get("ok") is not True or rep["totals"]["failed"]:
        problems.append(f"campaign {rep.get('campaign')}: ok={rep.get('ok')} "
                        f"failed={rep['totals']['failed']}")
    for case in rep["cases"]:
        if "observed_permutation" in case:
            prm = case["params"]
            problems += perm_problems(prm["p"], prm["n"], prm.get("d", 1), prm["b_index"],
                                      case["observed_permutation"], case["witness"])
    return problems


def _check_reps(cmd, rep) -> list[str]:
    p, n, d = rep["p"], rep["n"], rep["d"]
    ctx = make_field(p, n)
    problems = []
    elems = []
    for r in rep["reps"]:
        b = ctx.element(r["index"])
        if list(b.coeffs) != r["coeffs"]:
            problems.append(f"rep {r['index']}: coefficients disagree with its index")
        elems.append(b)
    if d == 1:
        want = [1] if p == 2 else list(range(1, (p - 1) // 2 + 1))
        got = [absolute_trace(b) for b in elems]
        if got != want or [r["trace"] for r in rep["reps"]] != want:
            problems.append(f"reps F_{p}^{n}: traces {got}, expected {want}")
    else:
        traces = [trace_rel(b, d) for b in elems]
        classes = {min(t.index, (-t).index) for t in traces if t}
        n_classes = p ** d - 1 if p == 2 else (p ** d - 1) // 2
        if [t.index for t in traces] != [r["trace_index"] for r in rep["reps"]] \
                or len(classes) != len(traces) or len(traces) != n_classes:
            problems.append(f"reps F_{p}^{n} d={d}: trace classes do not match "
                            f"the {n_classes} sign pairs")
    return problems


def _check_count(cmd, rep) -> list[str]:
    problems = []
    if rep["b"]["index"] != cmd.expect["b_index"]:
        problems.append(f"count used b={rep['b']['index']}, asked b={cmd.expect['b_index']}")
    if rep["affine"] != cmd.expect["census"]:
        problems.append(f"count F_{rep['p']}^{rep['n']}: affine {rep['affine']}, "
                        f"census {cmd.expect['census']}")
    return problems


_CHECKERS = {"permcheck": _check_permcheck, "verify": _check_campaign,
             "weil-audit": _check_campaign, "conjecture": _check_campaign,
             "reps": _check_reps, "count": _check_count}


def check(cmd, returncode: int, stdout: bytes) -> list[str]:
    """Every problem with one command's exit code and JSON report."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        rep = json.loads(stdout)
    except ValueError:
        return ["stdout is not a JSON report"]
    try:
        return _CHECKERS[cmd.argv[0]](cmd, rep)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def census_collision_curve(p: int, n: int, b_index: int) -> int:
    """Affine zeros of the collision curve F_b by direct BiPoly.eval calls.

    F_b depends on X only through X^p - X, so F_b(x + c, y) = F_b(x, y) for
    c in F_p.  Evaluating one x per coset x + F_p (index divisible by p)
    against every y and multiplying by p gives the exact count with p times
    fewer evaluations.
    """
    ctx = make_field(p, n)
    poly = collision_curve(ctx, ctx.element(b_index))
    ys = list(ctx)
    zeros = 0
    for xi in range(0, ctx.order, p):
        x = ctx.element(xi)
        zeros += sum(1 for y in ys if not poly.eval(x, y))
    return p * zeros


def backend_agreement():
    """Pure and compiled kernels agree on a few scans and counts; None when
    the compiled kernel is not built, so there is nothing to compare."""
    if not backend.have_compiled():
        return None
    cases = []
    for p, n in ((5, 4), (5, 5), (7, 4)):
        ctx = make_field(p, n)
        spec = MapSpec(ctx, trace_class_reps(ctx)[0])
        cases.append(lambda name, s=spec: is_permutation(s, backend_name=name))
    ctx = make_field(97, 1)
    cases.append(lambda name, q=criterion_sextic(ctx, 2): count_affine(q, backend_name=name))
    ctx = make_field(5, 3)
    poly = collision_curve(ctx, trace_class_reps(ctx)[0])
    cases.append(lambda name, q=poly: count_affine(q, backend_name=name))
    return all(fn("pure") == fn("compiled") for fn in cases)

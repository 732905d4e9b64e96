"""Command-line front end.

Subcommands: permcheck, count, weil-audit, verify, conjecture, reps.  Output
formats are json (default), csv, and human; for a fixed configuration the
output bytes are identical across runs and across --jobs widths, so reports
can be diffed.  Exit codes: 0 all checks passed or query completed, 1 a
mathematical claim was violated (the report carries the witness), 2 usage or
resource errors.

Long sweeps accept --progress-file; an interrupted run resumes from the
completed cases, refusing to resume under a changed configuration.

PERMRAT_JOBS sets the default parallelism width; PERMRAT_BACKEND may name the
one kernel, "pure", which every report records under "backend".  A bad value
of either is a usage error (exit 2), as is a width below 1 from --jobs or
PERMRAT_JOBS, or a campaign configuration that selects no cases.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .field import absolute_trace, first_elem_with_trace, make_field, trace_rel

# Each _cmd_* imports the modules it runs, so a process compiles only what its
# subcommand needs (reps and permcheck never load curves or verify).


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _flatten(value, prefix="", out=None):
    if out is None:
        out = {}
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = json.dumps(value, separators=(",", ":"))
    else:
        out[prefix] = value
    return out


def emit_report(report: dict, fmt: str = "json") -> str:
    """Serialize a report dict (stable key order, deterministic bytes)."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        rows = report.get("cases")
        if rows is None:
            rows = [report]
        flat_rows = [_flatten(r) for r in rows]
        columns: list[str] = []
        for r in flat_rows:
            for k in r:
                if k not in columns:
                    columns.append(k)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in flat_rows:
            writer.writerow([r.get(c, "") for c in columns])
        return buf.getvalue()
    if fmt == "human":
        lines = []
        for k, v in report.items():
            if k == "cases":
                continue
            lines.append(f"{k}: {json.dumps(v) if isinstance(v, (dict, list)) else v}")
        for case in report.get("cases", []):
            tag = "pass" if case.get("pass", True) else "FAIL"
            if case.get("counterexample"):
                tag = "COUNTEREXAMPLE"
            key = case.get("key", "?")
            brief = {k: v for k, v in case.items()
                     if k in ("expected_permutation", "observed_permutation",
                              "affine", "infinity", "mismatches")}
            lines.append(f"[{tag}] {key} {json.dumps(brief) if brief else ''}".rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


def _elem_dict(e) -> dict:
    return {"index": e.index, "coeffs": list(e.coeffs)}


def _pick_b(ctx, args, d: int = 1):
    if args.b_index is not None:
        return ctx.element(args.b_index)
    if args.b_trace is not None:
        return first_elem_with_trace(ctx, ctx.from_int(args.b_trace), d)
    raise ValueError("provide --b-index or --b-trace")


def _cmd_permcheck(args) -> tuple[dict, int]:
    from .maps import HARD_SCAN_CAP, MapSpec, is_permutation

    scan_cap = HARD_SCAN_CAP if args.scan_cap is None else args.scan_cap
    if scan_cap > HARD_SCAN_CAP:
        raise ValueError("--scan-cap exceeds the hard limit 2^32")
    ctx = make_field(args.p, args.n)
    d = args.frob_level
    b = _pick_b(ctx, args, d)
    spec = MapSpec(ctx, b, d)
    report = is_permutation(spec, scan_cap=scan_cap)
    # the level-d trace, which the hypothesis and --b-trace are about
    trace = ({"trace": absolute_trace(b)} if d == 1
             else {"trace_index": trace_rel(b, d).index})
    out = {
        "command": "permcheck",
        "p": args.p, "n": args.n, "d": d,
        "modulus": list(ctx.modulus) if ctx.modulus else None,
        "b": {**_elem_dict(b), **trace},
        "is_permutation": report.is_permutation,
        "witness": None,
        "evaluations": report.evaluations,
    }
    if report.witness:
        x1, x2 = report.witness
        out["witness"] = {"i1": x1.index, "i2": x2.index,
                          "coeffs1": list(x1.coeffs), "coeffs2": list(x2.coeffs)}
    return out, 0


def _cmd_count(args) -> tuple[dict, int]:
    from .curves import (collision_curve, count_affine, count_infinity, criterion_sextic,
                         homogenization_quartic, parse_bipoly, symmetric_quartic)

    ctx = make_field(args.p, args.n)
    params: dict = {}
    if args.poly_file:
        with open(args.poly_file, encoding="utf-8") as f:
            text = f.read()
        poly = parse_bipoly(text, ctx)
        params["poly"] = poly.to_text()
    elif args.builtin == "F":
        b = _pick_b(ctx, args)
        poly = collision_curve(ctx, b)
        params["b"] = _elem_dict(b)
    elif args.builtin in ("G", "H", "A"):
        if args.n != 1:
            raise ValueError(f"builtin {args.builtin} lives over a prime field (use --n 1)")
        if args.builtin == "A":
            if args.t is None:
                raise ValueError("builtin A needs --t")
            poly = homogenization_quartic(ctx, args.t)
            params["t"] = args.t % args.p
        else:
            if args.tau is None:
                raise ValueError(f"builtin {args.builtin} needs --tau")
            build = criterion_sextic if args.builtin == "G" else symmetric_quartic
            poly = build(ctx, args.tau)
            params["tau"] = args.tau % args.p
    else:
        raise ValueError("provide --builtin or --poly-file")
    out = {
        "command": "count",
        "p": args.p, "n": args.n, "q": ctx.order,
        "modulus": list(ctx.modulus) if ctx.modulus else None,
        "builtin": args.builtin,
        **params,
        "degree": poly.degree,
        "affine": count_affine(poly),
        "infinity": count_infinity(poly),
    }
    return out, 0


def _cmd_reps(args) -> tuple[dict, int]:
    from .maps import subfield_trace_reps, trace_class_reps

    ctx = make_field(args.p, args.n)
    d = args.d
    if d == 1:
        reps = [{"trace": absolute_trace(b), **_elem_dict(b)}
                for b in trace_class_reps(ctx)]
    else:
        reps = [{"trace_index": t.index, **_elem_dict(b)}
                for t, b in subfield_trace_reps(ctx, d)]
    out = {
        "command": "reps",
        "p": args.p, "n": args.n, "d": d,
        "modulus": list(ctx.modulus) if ctx.modulus else None,
        "reps": reps,
    }
    return out, 0


def _campaign_exit(report) -> tuple[dict, int]:
    return report.to_dict(), 0 if report.ok else 1


def _cmd_verify(args) -> tuple[dict, int]:
    from . import verify

    jobs, progress = args.jobs, args.progress_file
    target = args.target
    if target == "baseline":
        rep = verify.verify_small_characteristic_baseline(
            args.n2_max, args.n3_max, jobs=jobs, progress_path=progress)
    elif target == "thm11":
        rep = verify.verify_degree_five_nonpermutation(
            tuple(args.primes), jobs=jobs, progress_path=progress)
    elif target == "thm31":
        rep = verify.verify_quadratic_trace_criterion(
            args.p_max, tuple(args.full_primes), jobs=jobs, progress_path=progress)
    elif target == "remark43":
        rep = verify.verify_prime_power_trace_criterion(
            tuple(args.q_list), jobs=jobs, progress_path=progress)
    elif target == "lemma22":
        rep = verify.verify_square_obstruction(args.p_max, jobs=jobs, progress_path=progress)
    elif target == "lemmaL":
        rep = verify.verify_squarefree_gcd_chain(args.p_max, jobs=jobs, progress_path=progress)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown verify target {target!r}")
    return _campaign_exit(rep)


def _cmd_weil_audit(args) -> tuple[dict, int]:
    from . import verify

    rep = verify.verify_curve_bounds(
        p_max=args.p_max, f_p=args.f_p, f_degrees=tuple(args.f_degrees),
        ident_p_max=args.ident_p_max, eq28_p_max=args.eq28_p_max,
        jobs=args.jobs, progress_path=args.progress_file)
    return _campaign_exit(rep)


def _cmd_conjecture(args) -> tuple[dict, int]:
    from . import verify

    primes = None if args.primes is None else tuple(args.primes)
    rep = verify.conjecture_search(args.n, primes, jobs=args.jobs,
                                   progress_path=args.progress_file)
    return _campaign_exit(rep)


def _env_jobs() -> int:
    text = os.environ.get("PERMRAT_JOBS", "1")
    try:
        jobs = int(text)
    except ValueError:
        raise ValueError(f"PERMRAT_JOBS must be an integer, got {text!r}") from None
    if jobs < 1:
        raise ValueError(f"PERMRAT_JOBS must be at least 1, got {text!r}")
    return jobs


def _add_b_choice(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--b-index", type=int, default=None)
    group.add_argument("--b-trace", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permrat",
        description="Permutation scans, curve point counts, and exact bound "
                    "audits for the map family x + 1/(x^p - x + b) over F_{p^n}.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "human"), default="json")
    common.add_argument("--jobs", type=int, default=None,
                        help="parallel worker processes for campaign cases "
                             "(default: PERMRAT_JOBS, else 1)")
    common.add_argument("--progress-file", default=None,
                        help="resumable progress record for long campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("permcheck", parents=[common],
                        help="exact bijectivity verdict for one map")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--n", type=int, required=True)
    _add_b_choice(pc)
    pc.add_argument("--frob-level", type=int, default=1, metavar="D")
    pc.add_argument("--scan-cap", type=int, default=None,
                    help="largest field order to scan (default and limit: 2^32)")
    pc.set_defaults(func=_cmd_permcheck)

    ct = sub.add_parser("count", parents=[common], help="affine and infinity point counts")
    ct.add_argument("--p", type=int, required=True)
    ct.add_argument("--n", type=int, default=1)
    ct.add_argument("--builtin", choices=("F", "G", "H", "A"), default=None)
    ct.add_argument("--poly-file", default=None)
    _add_b_choice(ct)
    ct.add_argument("--tau", type=int, default=None)
    ct.add_argument("--t", type=int, default=None)
    ct.set_defaults(func=_cmd_count)

    wa = sub.add_parser("weil-audit", parents=[common], help="curve suite: counts, bounds, identities")
    wa.add_argument("--p-max", type=int, default=97)
    wa.add_argument("--f-p", type=int, default=5)
    wa.add_argument("--f-degrees", type=_int_list, default=[2, 3])
    wa.add_argument("--ident-p-max", type=int, default=13)
    wa.add_argument("--eq28-p-max", type=int, default=97)
    wa.set_defaults(func=_cmd_weil_audit)

    vf = sub.add_parser("verify", parents=[common], help="run a verification campaign")
    vf.add_argument("target", choices=("baseline", "thm11", "thm31",
                                       "remark43", "lemma22", "lemmaL"))
    vf.add_argument("--n2-max", type=int, default=12)
    vf.add_argument("--n3-max", type=int, default=8)
    vf.add_argument("--p-max", type=int, default=100)
    vf.add_argument("--primes", type=_int_list, default=[5, 7, 11, 13])
    vf.add_argument("--full-primes", type=_int_list, default=[3, 5, 7])
    vf.add_argument("--q-list", type=_int_list, default=[9, 25, 27, 49])
    vf.set_defaults(func=_cmd_verify)

    cj = sub.add_parser("conjecture", parents=[common], help="search the open cases n = 3, 4")
    cj.add_argument("--n", type=int, choices=(3, 4), required=True)
    cj.add_argument("--primes", type=_int_list, default=None)
    cj.add_argument("--p-max", type=int, default=None)
    cj.set_defaults(func=_cmd_conjecture)

    rp = sub.add_parser("reps", parents=[common], help="print the trace-class representatives")
    rp.add_argument("--p", type=int, required=True)
    rp.add_argument("--n", type=int, required=True)
    rp.add_argument("--d", type=int, default=1)
    rp.set_defaults(func=_cmd_reps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: bad usage (2) or --help (0)
        return int(exc.code or 0)
    if getattr(args, "command", None) == "conjecture" and args.p_max is not None:
        from .verify import primes_upto
        args.primes = primes_upto(args.p_max, start=5)
    try:
        if args.jobs is None:
            args.jobs = _env_jobs()
        elif args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        from .backend import backend_name
        kernel = backend_name()  # a bad PERMRAT_BACKEND fails before any work
        report, code = args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["backend"] = kernel
    sys.stdout.write(emit_report(report, args.format))
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Subcommands: permcheck, count, weil-audit, verify, conjecture, reps.  Output
formats are json (default), csv, and human; for a fixed configuration the
output bytes are identical across runs and across --jobs widths, so reports
can be diffed.  Exit codes: 0 all checks passed or query completed, 1 a
mathematical claim was violated (the report carries the witness), 2 usage or
resource errors.

The campaign subcommands (verify TARGET, weil-audit, conjecture) take their
flags from one table, _CAMPAIGNS, and pass on only the flags given: a flag
left out takes the default of the `verify` function that the target names,
so each default lives in one place.  Flags are per target: a flag the target
does not read is a usage error, as are both of conjecture's --primes and
--p-max.  Only they accept --progress-file: an interrupted run resumes from
the completed cases, refusing to resume under a changed configuration.

PERMRAT_JOBS sets the default parallelism width; PERMRAT_BACKEND may name the
one kernel, "pure", which every report records under "backend".  A bad value
of either is a usage error (exit 2), as is a width below 1 from --jobs or
PERMRAT_JOBS, or a campaign configuration that selects no cases.  So are a
count flag that the chosen curve does not read, a reps report whose size
p^d*n is above REPS_MAX_SIZE and a permcheck field of order above
maps.HARD_SCAN_CAP (2^32); a scan campaign checks its largest field against
that cap before it builds its grid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .field import absolute_trace, first_elem_with_trace, make_field, trace_rel

# Each _cmd_* imports the modules it runs, so a process compiles only what its
# subcommand needs (reps and permcheck never load curves or verify).

# The largest p^d*n that reps runs at: it lists about p^d/2 parameters of n
# digits each (reps --p 131071 --n 1 takes 1.9 s and 93 MB, and
# reps --p 2 --n 24 --d 12 takes 1.1 s, on a 2-CPU x86-64 host).
REPS_MAX_SIZE = 1 << 17

# count: the curves that read each curve flag; with any other, it is a usage error
_COUNT_FLAGS = {"--b-index": ("F",), "--b-trace": ("F",), "--tau": ("G", "H"), "--t": ("A",)}


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
        # at level d > 1 a trace is named by its element index, as reports print it
        t = ctx.from_int(args.b_trace) if d == 1 else ctx.element(args.b_trace)
        return first_elem_with_trace(ctx, t, d)
    raise ValueError("provide --b-index or --b-trace")


def _cmd_permcheck(args) -> tuple[dict, int]:
    from .maps import MapSpec, is_permutation

    ctx = make_field(args.p, args.n)
    d = args.frob_level
    b = _pick_b(ctx, args, d)
    spec = MapSpec(ctx, b, d)
    report = is_permutation(spec)
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
    if not (args.builtin or args.poly_file):
        raise ValueError("provide --builtin or --poly-file")
    for option, readers in _COUNT_FLAGS.items():
        given = getattr(args, option[2:].replace("-", "_")) is not None
        if given and args.builtin not in readers:
            curve = f"--builtin {args.builtin}" if args.builtin else "--poly-file"
            raise ValueError(f"{option} does not apply to count {curve}")
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
    else:
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
    if d >= 1 and args.n % d == 0 and args.p ** d * args.n > REPS_MAX_SIZE:
        raise ValueError(f"reps prints about p^d*n/2 digits, and with p^d = {args.p}^{d} = "
                         f"{args.p ** d} and n = {args.n}, p^d*n = {args.p ** d * args.n} "
                         f"exceeds the bound {REPS_MAX_SIZE} (2^17)")
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


def _primes_from_five(text: str) -> list[int]:
    from .verify import primes_upto

    return primes_upto(int(text), start=5)


# The campaign targets: target -> (subcommand, function in `verify`, flags).
# Each flag is (option, argparse keywords); its dest is the function's
# keyword, and a flag the user leaves out takes the function's default.
# Options of one subcommand that share a dest are alternatives.  A verify
# target reads only its own flags.
_CAMPAIGNS = {
    "baseline": ("verify", "verify_small_characteristic_baseline", (
        ("--n2-max", dict(dest="n_max_2", type=int)),
        ("--n3-max", dict(dest="n_max_3", type=int)))),
    "thm11": ("verify", "verify_degree_five_nonpermutation", (
        ("--primes", dict(dest="primes", type=_int_list)),)),
    "thm31": ("verify", "verify_quadratic_trace_criterion", (
        ("--p-max", dict(dest="p_max", type=int)),
        ("--full-primes", dict(dest="full_primes", type=_int_list)))),
    "remark43": ("verify", "verify_prime_power_trace_criterion", (
        ("--q-list", dict(dest="q_list", type=_int_list)),)),
    "lemma22": ("verify", "verify_square_obstruction", (
        ("--p-max", dict(dest="p_max", type=int)),)),
    "lemmaL": ("verify", "verify_squarefree_gcd_chain", (
        ("--p-max", dict(dest="p_max", type=int)),)),
    "weil-audit": ("weil-audit", "verify_curve_bounds", (
        ("--p-max", dict(dest="p_max", type=int)),
        ("--f-p", dict(dest="f_p", type=int)),
        ("--f-degrees", dict(dest="f_degrees", type=_int_list)),
        ("--ident-p-max", dict(dest="ident_p_max", type=int)),
        ("--eq28-p-max", dict(dest="eq28_p_max", type=int)))),
    "conjecture": ("conjecture", "conjecture_search", (
        ("--n", dict(dest="n", type=int, choices=(3, 4), required=True)),
        ("--primes", dict(dest="primes", type=_int_list)),
        ("--p-max", dict(dest="primes", type=_primes_from_five, metavar="P_MAX")))),
}


def _campaign_flags(command: str) -> dict:
    """Every campaign flag of `command`, option -> argparse keywords."""
    return {opt: kw for cmd, _, own in _CAMPAIGNS.values() if cmd == command for opt, kw in own}


def _cmd_campaign(args) -> tuple[dict, int]:
    from . import verify

    _, name, own = _CAMPAIGNS[args.target]
    dests = {kw["dest"] for _, kw in own}
    for option, kw in _campaign_flags(args.command).items():
        if kw["dest"] not in dests and getattr(args, kw["dest"]) is not None:
            raise ValueError(f"{option} does not apply to {args.command} {args.target}")
    kwargs = {d: getattr(args, d) for d in dests if getattr(args, d) is not None}
    # looked up by name, so a wrapper installed over the module attribute runs
    report = getattr(verify, name)(**kwargs, jobs=args.jobs, progress_path=args.progress_file)
    return report.to_dict(), 0 if report.ok else 1


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
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("permcheck", parents=[common],
                        help="exact bijectivity verdict for one map")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--n", type=int, required=True)
    _add_b_choice(pc)
    pc.add_argument("--frob-level", type=int, default=1, metavar="D")
    pc.set_defaults(func=_cmd_permcheck)

    ct = sub.add_parser("count", parents=[common], help="affine and infinity point counts")
    ct.add_argument("--p", type=int, required=True)
    ct.add_argument("--n", type=int, default=1)
    curve = ct.add_mutually_exclusive_group()
    curve.add_argument("--builtin", choices=("F", "G", "H", "A"), default=None)
    curve.add_argument("--poly-file", default=None)
    _add_b_choice(ct)
    ct.add_argument("--tau", type=int, default=None)
    ct.add_argument("--t", type=int, default=None)
    ct.set_defaults(func=_cmd_count)

    for command, help_text in (("weil-audit", "curve suite: counts, bounds, identities"),
                               ("verify", "run a verification campaign"),
                               ("conjecture", "search the open cases n = 3, 4")):
        cp = sub.add_parser(command, parents=[common], help=help_text)
        cp.set_defaults(func=_cmd_campaign, target=command)
        cp.add_argument("--progress-file", default=None,
                        help="resumable progress record for long campaigns")
        targets = [t for t, (cmd, _, _) in _CAMPAIGNS.items() if cmd == command]
        if targets != [command]:
            cp.add_argument("target", choices=targets)
        flags = _campaign_flags(command)
        dests = [kw["dest"] for kw in flags.values()]
        groups = {d: cp.add_mutually_exclusive_group()
                  for d in dict.fromkeys(dests) if dests.count(d) > 1}
        for option, kw in flags.items():
            groups.get(kw["dest"], cp).add_argument(option, **kw)

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

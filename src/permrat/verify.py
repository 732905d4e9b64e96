"""Verification campaigns.

Each campaign sweeps a parameter grid, runs exact checks case by case, and
returns a CampaignReport whose serialized form is a pure function of the
grid: fixed enumeration order, canonical witnesses, no timestamps.  Failed
cases always carry a re-checkable witness.  Campaign ids double as the CLI
verify targets (baseline, thm11, thm31, remark43, lemma22, lemmaL) plus the
weil-audit curve suite and the two conjecture searches.

A campaign function validates its arguments and gives its config and grid
to the one runner, _campaign.  A grid yields _perm(key, params, expected,
search) scan cases, which pass when the verdict equals `expected` (a search
accepts either) and a non-permutation carries a witness, or _checked curve
and lemma cases, whose results carry their own verdict.

Cases are independent and may be dispatched to a process pool (`jobs`); the
report is assembled in grid order either way.  A progress file turns a long
sweep into a resumable one (see run_cases).
"""

from __future__ import annotations

import json
import os
import time
from math import comb

from ._record import FrozenRecord
from .field import MAX_FIELD_ORDER, absolute_trace, is_prime, make_field, prime_divisors
from .maps import (MapSpec, check_scan_order, is_permutation, subfield_trace_reps,
                   trace_class_reps, witness_image)


def primes_upto(n: int, start: int = 2) -> list[int]:
    return [p for p in range(start, n + 1) if is_prime(p)]


class CampaignReport(FrozenRecord):
    __slots__ = ("campaign", "config", "cases", "totals", "ok", "counterexamples",
                 "wall_time")

    def __init__(self, campaign: str, config: dict, cases: list, totals: dict, ok: bool,
                 counterexamples: list | None = None, wall_time: float = 0.0):
        self._set(campaign=campaign, config=config, cases=cases, totals=totals, ok=ok,
                  counterexamples=[] if counterexamples is None else counterexamples,
                  wall_time=wall_time)

    def to_dict(self) -> dict:
        """The serialized report; wall_time stays off it."""
        return {
            "campaign": self.campaign,
            "config": self.config,
            "cases": self.cases,
            "totals": self.totals,
            "counterexamples": self.counterexamples,
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Case functions.  Each takes a plain dict and returns a plain dict so cases
# can cross a process boundary and land in a progress file unchanged.  The
# curve cases import `curves` themselves, so the perm campaigns never load it.

def _witness_dict(spec: MapSpec, report) -> dict | None:
    if report.witness is None:
        return None
    image = witness_image(spec, report.witness)
    x1, x2 = report.witness
    return {
        "i1": x1.index,
        "i2": x2.index,
        "coeffs1": list(x1.coeffs),
        "coeffs2": list(x2.coeffs),
        "image_index": image.index,
    }


def _perm_case(args: dict) -> dict:
    ctx = make_field(args["p"], args["n"])
    spec = MapSpec(ctx, ctx.element(args["b_index"]), args.get("d", 1))
    report = is_permutation(spec)
    return {
        "is_permutation": report.is_permutation,
        "evaluations": report.evaluations,
        "witness": _witness_dict(spec, report),
        "modulus": list(ctx.modulus) if ctx.modulus else None,
    }


def _curve_f_case(args: dict) -> dict:
    from .curves import collision_curve, count_affine, count_infinity, weil_lower_check

    p, n = args["p"], args["n"]
    ctx = make_field(p, n)
    b = ctx.element(args["b_index"])
    poly = collision_curve(ctx, b)
    affine = count_affine(poly)
    inf = count_infinity(poly)
    lo_ok, lo = weil_lower_check(affine, ctx.order, 2 * p, 2)
    chain_ok = (2 * p - 1) * (2 * p - 2) <= 4 * p * p
    return {
        "affine": affine,
        "infinity": inf,
        "degree": poly.degree,
        "weil_lower": lo,
        "inf_matches": inf == 2,
        "pass": lo_ok and inf == 2 and chain_ok,
        "chain_ineq": {"lhs": (2 * p - 1) * (2 * p - 2), "rhs": 4 * p * p, "ok": chain_ok},
        "modulus": list(ctx.modulus) if ctx.modulus else None,
    }


def _symmetric_expansion(h: dict, p: int) -> dict:
    """The nonzero terms mod p of h(X + Y, X*Y), for integer terms h: each
    c*X^a*Y^b expands to sum_k C(a, k)*c*X^(k+b)*Y^(a-k+b)."""
    out: dict = {}
    for (a, b), c in h.items():
        for k in range(a + 1):
            key = (k + b, a - k + b)
            out[key] = (out.get(key, 0) + comb(a, k) * c) % p
    return {ij: c for ij, c in out.items() if c}


# The curve pair of a run: G and H depend on tau only through t = tau^2, so
# tau and p - tau share one entry, keyed by (p, t).  run_cases sets it to a
# dict for the span of one run, in this process and in each pool worker;
# outside a run (None) every case builds its own pair.
_PAIRS: dict | None = None


def _share_pairs(on: bool = True) -> None:
    global _PAIRS
    _PAIRS = {} if on else None


def _pair(p: int, tau: int):
    """(G, H, entry): this tau's sextic and quartic, and the entry of the
    pair (p, tau^2) that caches what is computed on them.  Each call builds
    its own G and H, and a difference from the entry's terms raises
    RuntimeError, so a result is reused only for the very same curves."""
    from . import curves

    ctx = make_field(p, 1)
    g, h = curves.criterion_sextic(ctx, tau), curves.symmetric_quartic(ctx, tau)
    terms = (g.int_terms(), h.int_terms())
    if _PAIRS is None:
        return g, h, {"terms": terms}
    entry = _PAIRS.setdefault((p, tau * tau % p), {"terms": terms})
    if entry["terms"] != terms:
        raise RuntimeError(f"the curves at p={p}, tau={tau} differ from those of "
                           f"t = {tau * tau % p} already audited")
    return g, h, entry


def _identity_ok(entry: dict, p: int) -> bool:
    """Whether H(X + Y, X*Y) = G over F_p for the pair `entry`, compared
    term by term."""
    if "identity" not in entry:
        g, h = entry["terms"]
        entry["identity"] = _symmetric_expansion(h, p) == g
    return entry["identity"]


def _curve_gh_case(args: dict) -> dict:
    from . import curves

    p, tau = args["p"], args["tau"]
    g, h, entry = _pair(p, tau)
    if "gh" not in entry:
        census = curves.phi_fibers(p, tau)  # counts each curve's zeros once
        g_affine, h_affine = census["v_g_size"], census["v_h_size"]
        g_inf, h_inf = curves.count_infinity(g), curves.count_infinity(h)
        g_ok, g_audit = curves.weil_upper_check(g_affine, p, 6, 3)
        h_ok, h_audit = curves.weil_lower_check(h_affine, p, 4, 3)
        sym_ok = _identity_ok(entry, p)
        entry["gh"] = {
            "g": {"affine": g_affine, "infinity": g_inf, "weil_upper": g_audit},
            "h": {"affine": h_affine, "infinity": h_inf, "weil_lower": h_audit},
            "phi": census,
            "symmetric_identity_ok": sym_ok,
            "pass": g_ok and h_ok and g_inf == 3 and h_inf == 3 and sym_ok,
        }
    res = entry["gh"]
    return {**res, "phi": {**res["phi"], "tau": tau}}


def _ident_eq28_case(args: dict) -> dict:
    """Symmetric-reduction identity: symbolic for every tau (by binomials),
    and for one tau by a second algorithm: H(X + Y, X*Y) is composed from
    `BiPoly` products of s = X + Y and t = X*Y, and the points of F_p^2
    where G(x, y) != H(x + y, x*y) are those off the zero set of the
    difference, counted exactly."""
    from .curves import BiPoly, count_affine, criterion_sextic, symmetric_quartic

    p = args["p"]
    ctx = make_field(p, 1)
    symbolic_ok = all(_identity_ok(_pair(p, tau)[2], p) for tau in range(1, p))
    tau = 2 % p
    h = symmetric_quartic(ctx, tau)
    s, t = BiPoly(ctx, {(1, 0): 1, (0, 1): 1}), BiPoly(ctx, {(1, 1): 1})
    s_pow, t_pow = [BiPoly(ctx, {(0, 0): 1})], [BiPoly(ctx, {(0, 0): 1})]
    for _ in range(h.degree):
        s_pow.append(s_pow[-1] * s)
        t_pow.append(t_pow[-1] * t)
    h_phi = sum((s_pow[a] * t_pow[b] * c for (a, b), c in h.terms.items()), BiPoly(ctx, {}))
    mismatches = p * p - count_affine(criterion_sextic(ctx, tau) - h_phi)
    return {
        "symbolic_taus": p - 1,
        "pointwise_tau": tau,
        "mismatches": mismatches,
        "pass": symbolic_ok and mismatches == 0,
    }


def _ident_subst_case(args: dict) -> dict:
    """Substitution identity over F_{p^2} at every tau in F_p^* and y != 0,
    and the split G(y, y^p) = -a*b at tau = +-1 and every y.

    With Y = y^p (so y^(p-1) = Y/y, y^(2+2p) = y^2 Y^2) and
    2z = tau + y - Y + (Y/y - y/Y)/tau, the identity
    z^2 + (Y - y)z + 1 - Y/y = G(y, Y) / (4 tau^2 y^2 Y^2), times the nonzero
    4 tau^2 y^2 Y^2, fails exactly where E(y, y^p) != 0 for the F_p polynomial
    E = W^2 + 2 tau yY(Y - y) W + 4 tau^2 yY^2 (y - Y) - G, where
    W = 2 tau yY z = tau^2 yY + tau yY(y - Y) + Y^2 - y^2.  The split fails
    where (G + a*b)(y, y^p) != 0; curves.graph_zeros counts both exactly.
    """
    from .curves import BiPoly, criterion_sextic, graph_zeros

    p = args["p"]
    q = p * p
    base = make_field(p, 1)
    y, yp = BiPoly(base, {(1, 0): 1}), BiPoly(base, {(0, 1): 1})
    yyp = y * yp
    mismatches = 0
    for tau in range(1, p):
        w = yyp * (tau * tau) + yyp * (y - yp) * tau + yp * yp - y * y
        e = (w * w + yyp * (yp - y) * w * (2 * tau) + yyp * yp * (y - yp) * (4 * tau * tau)
             - criterion_sextic(base, tau)).int_terms()
        mismatches += q - 1 - graph_zeros(e, p, q, p) + ((0, 0) not in e)  # y = 0 is not checked
    a = y * y + yp * yp - yyp - yyp * y + yyp * yp
    bb = yyp - y * y - yp * yp - yyp * y + yyp * yp
    factor_mismatches = sum(
        q - graph_zeros((criterion_sextic(base, tau) + a * bb).int_terms(), p, q, p)
        for tau in (1, p - 1))
    return {
        "substitution_points": (p - 1) * (q - 1),
        "substitution_mismatches": mismatches,
        "factorization_mismatches": factor_mismatches,
        "pass": mismatches == 0 and factor_mismatches == 0,
    }


def _lemma22_case(args: dict) -> dict:
    """Coefficient-system inconsistency for the quartic square question.

    For each t != 0: forced alpha = -t, beta = 1; the remaining equation
    reduces to 4(t - 1) = 0, so the system is consistent only at t = 1.  A
    direct square-root attempt on the dehomogenized quartic must agree.
    """
    from .curves import UniPoly, homogenization_quartic, uni_square_root

    p = args["p"]
    ctx = make_field(p, 1)
    failures = []
    for t in range(1, p):
        alpha = -t % p
        beta = -t * pow(alpha, p - 2, p) % p
        eq10_ok = (1 - beta * beta) % p == 0
        residual = (-2 - alpha * alpha - 2 * beta + 4 * t + t * t) % p
        consistent = eq10_ok and residual == 0
        quartic = homogenization_quartic(ctx, t).int_terms()
        a_x1 = UniPoly(p, [quartic.get((i, 4 - i), 0) for i in range(5)])
        root = uni_square_root(a_x1)
        expected_consistent = t == 1
        if consistent != expected_consistent or (root is not None) != expected_consistent:
            failures.append(t)
    return {"t_values": p - 1, "failures": failures, "pass": not failures}


def _lemmaL_case(args: dict) -> dict:
    """The gcd chain certifying Y^{p+1} - Y^2 + 4 has no repeated zeros."""
    from .curves import UniPoly, is_squarefree, uni_derivative, uni_gcd

    p = args["p"]
    one = UniPoly(p, [1])
    f = UniPoly.from_terms(p, {p + 1: 1, 2: -1, 0: 4})
    deriv = uni_derivative(f)
    deriv_expected = UniPoly.from_terms(p, {p: 1, 1: -2})
    y2p4 = UniPoly.from_terms(p, {2: 1, 0: 4})
    steps = {
        "derivative_form_ok": deriv == deriv_expected,
        "gcd_f_fprime": uni_gcd(f, deriv) == one,
        "gcd_f_ypm2y": uni_gcd(f, deriv_expected) == one,
        "gcd_f_ypow": uni_gcd(f, UniPoly.from_terms(p, {p - 1: 1, 0: -2})) == one,
        "gcd_y2p4_ypow": uni_gcd(y2p4, UniPoly.from_terms(p, {p - 1: 1, 0: -2})) == one,
    }
    c_four = pow(-4 % p, (p - 1) // 2, p)
    c_sign = pow(p - 1, (p - 1) // 2, p)
    steps["const_reduction_ok"] = c_four == c_sign
    final_const = (c_sign - 2) % p
    steps["final_const_nonzero"] = final_const != 0
    steps["gcd_final"] = uni_gcd(y2p4, UniPoly(p, [final_const])) == one
    ypm1 = UniPoly.from_terms(p, {p - 1: 1, 0: -1})
    radicand = ypm1 * (UniPoly.from_terms(p, {2: 1}) * ypm1 + UniPoly(p, [4]))
    steps["radicand_squarefree"] = is_squarefree(radicand)
    return {"steps": steps, "final_const": final_const, "pass": all(steps.values())}


_CASE_FUNCS = {
    "perm": _perm_case,
    "curve_f": _curve_f_case,
    "curve_gh": _curve_gh_case,
    "ident_eq28": _ident_eq28_case,
    "ident_subst": _ident_subst_case,
    "lemma22": _lemma22_case,
    "lemmaL": _lemmaL_case,
}


def _case_worker(payload: dict) -> dict:
    return _CASE_FUNCS[payload["kind"]](payload["args"])


# ---------------------------------------------------------------------------
# Case runner with optional process pool and resumable progress.

def config_fingerprint(campaign: str, config: dict) -> str:
    import hashlib  # only a progress file needs it

    blob = json.dumps({"campaign": campaign, "config": config}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class ProgressMismatch(ValueError):
    pass


def _parse_record(line: bytes):
    """A complete progress record, or None for a torn or malformed line."""
    if not line.endswith(b"\n"):
        return None
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    if isinstance(rec, dict) and "key" in rec and "result" in rec:
        return rec
    return None


def _load_progress(path: str, header: str, done: dict) -> bool:
    """Read the completed cases of an existing progress file into `done`.

    Returns False when there is nothing to resume from: no file, an empty
    one, or a torn copy of `header` alone.  Any other header than `header`
    (which carries the config fingerprint) is refused.  A kill during a write can tear
    the last line, so a last line with no newline or that does not parse is
    dropped (its case is redone) and the file is cut back to the end of the
    last good record.  A bad line before the last is refused.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return False
    with open(path, "rb") as f:
        data = f.read()
    lines = data.splitlines(keepends=True)
    head = lines[0]
    if head != header.encode():
        if header.encode().startswith(head):
            return False
        raise ProgressMismatch("progress file was written for a different configuration")
    good = len(head)
    for num, line in enumerate(lines[1:], start=2):
        rec = _parse_record(line)
        if rec is None and line.strip():
            if num < len(lines):
                raise ValueError(f"progress file {path} is corrupt at line {num}")
            break
        if rec is not None:
            done[rec["key"]] = rec["result"]
        good += len(line)
    if good < len(data):
        with open(path, "r+b") as f:
            f.truncate(good)
    return True


def run_cases(campaign: str, config: dict, payloads: list[dict],
              jobs: int = 1, progress_path: str | None = None) -> list[dict]:
    """Run cases in payload order, skipping any already in the progress file.

    The progress file is append-only JSON lines: a header with the config
    fingerprint, then one line per completed case.  Resuming with a different
    configuration is refused; a torn last record is dropped and redone (see
    _load_progress).  Results are returned in payload order, so the final
    report does not depend on jobs or on interruptions.  For the span of the
    run, curve cases share the work on each curve pair through _PAIRS, here
    and in each pool worker.  A configuration
    that selects no cases or repeats a case key is refused: a campaign must
    not read as a pass having checked nothing, or count a case twice.
    """
    if not payloads:
        raise ValueError("configuration selects no cases")
    seen = set()
    for pl in payloads:
        if pl["key"] in seen:
            raise ValueError(f"configuration repeats case {pl['key']}")
        seen.add(pl["key"])
    done: dict[str, dict] = {}
    fh = None
    if progress_path:
        fingerprint = config_fingerprint(campaign, config)
        header = json.dumps({"campaign": campaign, "fingerprint": fingerprint}) + "\n"
        if _load_progress(progress_path, header, done):
            fh = open(progress_path, "a", encoding="utf-8")
        else:
            fh = open(progress_path, "w", encoding="utf-8")
            fh.write(header)
            fh.flush()
    pool = None
    _share_pairs()
    try:
        todo = [pl for pl in payloads if pl["key"] not in done]
        if jobs > 1 and len(todo) > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=jobs, initializer=_share_pairs)
            results = pool.map(_case_worker, todo)
        else:
            results = map(_case_worker, todo)
        for pl, res in zip(todo, results):
            done[pl["key"]] = res
            if fh:
                fh.write(json.dumps({"key": pl["key"], "result": res}) + "\n")
                fh.flush()
    finally:
        _share_pairs(False)
        if pool is not None:
            pool.shutdown()
        if fh:
            fh.close()
    return [done[pl["key"]] for pl in payloads]


def _campaign(name: str, config: dict, grid, jobs: int,
              progress_path: str | None) -> CampaignReport:
    """Run the cases of `grid` and assemble the campaign report.

    `grid` yields (payload, record) pairs: the payload goes to run_cases,
    and record(result) is the report's case.  A case whose record carries
    a true "counterexample" is listed among the counterexamples.
    """
    t0 = time.perf_counter()
    grid = list(grid)
    results = run_cases(name, config, [payload for payload, _ in grid], jobs, progress_path)
    cases = [record(res) for (_, record), res in zip(grid, results)]
    counterexamples = [c["key"] for c in cases if c.get("counterexample")]
    passed = sum(1 for c in cases if c["pass"])
    totals = {"cases": len(cases), "passed": passed, "failed": len(cases) - passed,
              "counterexamples": len(counterexamples)}
    return CampaignReport(name, config, cases, totals, passed == len(cases),
                          counterexamples, time.perf_counter() - t0)


def _perm(key: str, params: dict, expected: bool, search: bool = False):
    """A permutation scan case; the scan reads p, n, b_index and d (when
    present) off `params`.  A permuting search case is a counterexample."""
    def record(res: dict) -> dict:
        observed = res["is_permutation"]
        case = {
            "key": key,
            "params": {**params, "modulus": res["modulus"]},
            "expected_permutation": expected,
            "observed_permutation": observed,
            "witness": res["witness"],
            "evaluations": res["evaluations"],
        }
        if search:
            case["counterexample"] = bool(observed)
        case["pass"] = ((search or observed == expected)
                        and (observed or res["witness"] is not None))
        return case

    return {"kind": "perm", "key": key, "args": params}, record


def _checked(kind: str, head: dict, params: dict):
    """A curve or lemma case of `kind`, whose result carries its own "pass".
    The report's case is `head` (the key first), then params, then the result."""
    return ({"kind": kind, "key": head["key"], "args": params},
            lambda res: {**head, "params": params, **res})


# ---------------------------------------------------------------------------
# Campaigns.

def verify_small_characteristic_baseline(n_max_2: int = 12, n_max_3: int = 8,
                                         jobs: int = 1,
                                         progress_path: str | None = None) -> CampaignReport:
    """Every trace-class representative permutes F_{2^n} and F_{3^n}."""
    check_scan_order(max(2 ** n_max_2, 3 ** n_max_3))
    grid = (_perm(f"p={p},n={n},b={b.index}", {"p": p, "n": n, "b_index": b.index}, True)
            for p, n_max in ((2, n_max_2), (3, n_max_3)) for n in range(1, n_max + 1)
            for b in trace_class_reps(make_field(p, n)))
    config = {"n_max_2": n_max_2, "n_max_3": n_max_3}
    return _campaign("baseline", config, grid, jobs, progress_path)


def verify_degree_five_nonpermutation(primes=(5, 7, 11, 13), jobs: int = 1,
                                      progress_path: str | None = None) -> CampaignReport:
    """No trace-class representative permutes F_{p^5} for the desk primes.

    The theorem is about p >= 5: for p = 2, 3 every such map permutes."""
    if any(p < 5 for p in primes):
        raise ValueError("thm11 requires p >= 5")
    check_scan_order(max(primes, default=0) ** 5)
    grid = (_perm(f"p={p},t={t},b={b.index}",
                  {"p": p, "n": 5, "trace": t, "b_index": b.index}, False)
            for p in primes
            for t, b in zip(range(1, (p - 1) // 2 + 1), trace_class_reps(make_field(p, 5))))
    return _campaign("thm11", {"primes": list(primes), "n": 5}, grid, jobs, progress_path)


def verify_quadratic_trace_criterion(p_max: int = 100, full_primes=(3, 5, 7),
                                     jobs: int = 1,
                                     progress_path: str | None = None) -> CampaignReport:
    """Over F_{p^2} the map permutes exactly when the trace of b is +-1.

    Class mode runs b = 1 .. (p-1)/2 (trace 2b) for every odd prime up to
    p_max; full mode runs every b with nonzero trace for the listed primes.
    """
    top = next((p for p in range(p_max, 2, -1) if is_prime(p)), 0)  # the largest class prime
    check_scan_order(max((top, *full_primes)) ** 2)

    def grid():
        for p in primes_upto(p_max, start=3):
            for b in range(1, (p - 1) // 2 + 1):
                tr = (2 * b) % p
                yield _perm(f"class,p={p},b={b}",
                            {"p": p, "n": 2, "b_index": b, "trace": tr}, tr in (1, p - 1))
        for p in full_primes:
            ctx = make_field(p, 2)
            for i in range(ctx.order):
                tr = absolute_trace(ctx.element(i))
                if tr:
                    yield _perm(f"full,p={p},b_index={i}",
                                {"p": p, "n": 2, "b_index": i, "trace": tr}, tr in (1, p - 1))

    config = {"p_max": p_max, "full_primes": list(full_primes)}
    return _campaign("thm31", config, grid(), jobs, progress_path)


def verify_prime_power_trace_criterion(q_list=(9, 25, 27, 49), jobs: int = 1,
                                       progress_path: str | None = None) -> CampaignReport:
    """The trace criterion with p replaced by an odd prime power q.

    For each q = p^m the map x -> x + (x^q - x + b)^{-1} on F_{q^2} permutes
    exactly when the trace down to F_q is +-1; one representative b is
    scanned per sign pair of nonzero trace values.
    """
    for q in q_list:  # every field before any grid, and before factoring q
        if q * q > MAX_FIELD_ORDER:
            raise ValueError(f"field order {q}^2 exceeds the 2^40 cap")
        check_scan_order(q * q)

    def grid():
        for q in q_list:
            facs = prime_divisors(q)
            if len(facs) != 1:
                raise ValueError(f"{q} is not a prime power")
            p = facs[0]
            if p == 2:
                raise ValueError("odd characteristic required")
            m = next(m for m in range(1, q) if p ** m == q)
            ctx = make_field(p, 2 * m)
            for t, b in subfield_trace_reps(ctx, m):
                yield _perm(f"q={q},t={t.index},b={b.index}",
                            {"q": q, "p": p, "n": 2 * m, "d": m, "t_index": t.index,
                             "b_index": b.index}, t == ctx.one or t == -ctx.one)

    return _campaign("remark43", {"q_list": list(q_list)}, grid(), jobs, progress_path)


def conjecture_search(n: int, primes=None, jobs: int = 1,
                      progress_path: str | None = None) -> CampaignReport:
    """Search for permuting parameters over F_{p^3} or F_{p^4}.

    All scanned cases are expected non-permuting; a permuting one is flagged
    as a counterexample in the report, not treated as a failure.  For n = 4
    the single class b = 1/2 is scanned, plus consistency scans showing each
    class with trace != +-1 already fails over F_{p^2} and hence over F_{p^4}.
    """
    if n not in (3, 4):
        raise ValueError("conjecture search covers n = 3 and n = 4 only")
    if primes is None:
        primes = (5, 7, 11, 13, 17, 19) if n == 3 else (5, 7, 11)
    check_scan_order(max(primes, default=0) ** n)

    def grid():
        for p in primes:
            if p < 5:
                raise ValueError("conjecture search requires p >= 5")
            classes = range(1, (p - 1) // 2 + 1)
            for b in classes if n == 3 else ((p + 1) // 2,):  # n = 4: b = 1/2
                yield _perm(f"p={p},n={n},b={b}",
                            {"p": p, "n": n, "b_index": b, "role": "search"}, False, True)
            for b in () if n == 3 else classes:
                if (2 * b) % p not in (1, p - 1):
                    for nn in (2, 4):
                        yield _perm(f"filter,p={p},n={nn},b={b}",
                                    {"p": p, "n": nn, "b_index": b, "role": "filter"}, False)

    config = {"n": n, "primes": list(primes)}
    return _campaign(f"conjecture-n{n}", config, grid(), jobs, progress_path)


def verify_square_obstruction(p_max: int = 100, jobs: int = 1,
                              progress_path: str | None = None) -> CampaignReport:
    """The quartic-is-a-square coefficient system is inconsistent for t != 1."""
    grid = (_checked("lemma22", {"key": f"p={p}"}, {"p": p})
            for p in primes_upto(p_max, start=3))
    return _campaign("lemma22", {"p_max": p_max}, grid, jobs, progress_path)


def verify_squarefree_gcd_chain(p_max: int = 100, jobs: int = 1,
                                progress_path: str | None = None) -> CampaignReport:
    """The gcd chain collapses to 1 for every prime 5 <= p <= p_max."""
    grid = (_checked("lemmaL", {"key": f"p={p}"}, {"p": p})
            for p in primes_upto(p_max, start=5))
    return _campaign("lemmaL", {"p_max": p_max}, grid, jobs, progress_path)


def verify_curve_bounds(p_max: int = 97, f_p: int = 5, f_degrees=(2, 3),
                        ident_p_max: int = 13, eq28_p_max: int = 97,
                        jobs: int = 1,
                        progress_path: str | None = None) -> CampaignReport:
    """The curve suite: exact counts against the integer bound audits.

    Covers the collision curve over F_{f_p^n} (one parameter per trace
    class), the sextic/quartic pair for every odd prime 5 <= p <= p_max and
    every tau outside {0, +-1} (counts, infinity points, bound audits, cover
    census), the symmetric-reduction identity, the substitution identity, and
    the tau^2 = 1 factorization.  Each case records its kind.

    G and H depend on tau only through t = tau^2, so tau and p - tau share
    one pair: within a run, its census, infinity counts, bound audits and
    symmetric identity are computed once (see _pair), while the cases, their
    keys and their records stay one per (p, tau).
    """
    def case(kind, key, params):
        return _checked(kind, {"key": key, "kind": kind}, params)

    def grid():
        for n in f_degrees:
            for b in trace_class_reps(make_field(f_p, n)):
                yield case("curve_f", f"F,p={f_p},n={n},b={b.index}",
                           {"p": f_p, "n": n, "b_index": b.index})
        for p in primes_upto(p_max, start=5):
            for tau in range(2, p - 1):
                yield case("curve_gh", f"GH,p={p},tau={tau}", {"p": p, "tau": tau})
        for p in primes_upto(eq28_p_max, start=3):
            yield case("ident_eq28", f"eq28,p={p}", {"p": p})
        for p in primes_upto(ident_p_max, start=3):
            yield case("ident_subst", f"subst,p={p}", {"p": p})

    config = {"p_max": p_max, "f_p": f_p, "f_degrees": list(f_degrees),
              "ident_p_max": ident_p_max, "eq28_p_max": eq28_p_max}
    return _campaign("weil-audit", config, grid(), jobs, progress_path)

"""Verification campaigns.

Each campaign sweeps a parameter grid, runs exact checks case by case, and
returns its report as a dict (campaign, config, cases, totals,
counterexamples, ok), a pure function of the grid: fixed enumeration order,
canonical witnesses, no timestamps.  Failed cases always carry a
re-checkable witness.  Campaign ids double as the CLI verify targets
(baseline, thm11, thm31, remark43, lemma22, lemmaL) plus the weil-audit
curve suite and the two conjecture searches.

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
import sys

from .field import MAX_FIELD_ORDER, absolute_trace, is_prime, make_field, prime_divisors
from .maps import (MapSpec, check_scan_order, is_permutation, subfield_trace_reps,
                   trace_class_reps, witness_image)


def primes_upto(n: int, start: int = 2) -> list[int]:
    return [p for p in range(start, n + 1) if is_prime(p)]


def _largest_prime(n: int, start: int = 2) -> int:
    """The largest prime p with start <= p <= n, or 0 when there is none."""
    return next((p for p in range(n, start - 1, -1) if is_prime(p)), 0)


# ---------------------------------------------------------------------------
# Case functions.  Each takes a plain dict and returns a plain dict so cases
# can cross a process boundary and land in a progress file unchanged; the
# curve and lemma cases live in curve_cases (see _CaseTable).

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


class _CaseTable(dict):
    """kind -> case function.  The curve and lemma kinds live in curve_cases,
    which loads on the first lookup of a kind not in the table, so the
    permutation campaigns never compile it."""

    def __missing__(self, kind: str):
        from .curve_cases import CASE_FUNCS

        if kind not in CASE_FUNCS:
            raise KeyError(kind)
        for name, func in CASE_FUNCS.items():
            self.setdefault(name, func)
        return self[kind]


_CASE_FUNCS = _CaseTable(perm=_perm_case)


def _case_worker(payload: dict) -> dict:
    return _CASE_FUNCS[payload["kind"]](payload["args"])


def _unit_worker(unit: list[dict]) -> list[dict]:
    return [_case_worker(pl) for pl in unit]


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


def _clear_curve_caches() -> None:
    """Empty the per-run caches of whichever curve modules a case loaded."""
    cases = sys.modules.get(f"{__package__}.curve_cases")
    if cases is not None:
        cases._gh_audit.cache_clear()
    curves = sys.modules.get(f"{__package__}.curves")
    if curves is not None:
        curves.pencil_census.cache_clear()


def run_cases(campaign: str, config: dict, payloads: list[dict],
              jobs: int = 1, progress_path: str | None = None) -> list[dict]:
    """Run cases in payload order, skipping any already in the progress file.

    The progress file is append-only JSON lines: a header with the config
    fingerprint, then one line per completed case.  Resuming with a different
    configuration is refused; a torn last record is dropped and redone (see
    _load_progress).  Results are returned in payload order, so the final
    report does not depend on jobs or on interruptions.  With jobs > 1 the
    workers take one unit at a time: one case, or a run of consecutive
    payloads that carry the same "group" (weil-audit's GH cases of one
    prime, which share that prime's curve tables, so one worker builds them
    once).  The progress file records a unit's cases as soon as they and
    every case before them are done, so an interruption loses at most the
    units in flight.
    The curve caches (curve_cases._gh_audit and curves.pencil_census) are
    cleared when the run starts and ends, so their entries live for one
    run.  A configuration that selects no cases or repeats a case key is
    refused: a campaign must not read as a pass having checked nothing, or
    count a case twice.
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
    _clear_curve_caches()
    try:
        todo = [pl for pl in payloads if pl["key"] not in done]
        units = []
        for pl in todo:
            group = pl.get("group")
            if group is not None and units and units[-1][-1].get("group") == group:
                units[-1].append(pl)
            else:
                units.append([pl])
        if jobs > 1 and len(units) > 1:
            from concurrent.futures import ProcessPoolExecutor
            from itertools import chain

            pool = ProcessPoolExecutor(max_workers=jobs)
            results = chain.from_iterable(pool.map(_unit_worker, units))
        else:
            results = map(_case_worker, todo)
        for pl, res in zip(todo, results):
            done[pl["key"]] = res
            if fh:
                fh.write(json.dumps({"key": pl["key"], "result": res}) + "\n")
                fh.flush()
    finally:
        _clear_curve_caches()
        if pool is not None:
            pool.shutdown()
        if fh:
            fh.close()
    return [done[pl["key"]] for pl in payloads]


def _campaign(name: str, config: dict, grid, jobs: int,
              progress_path: str | None) -> dict:
    """Run the cases of `grid` and assemble the campaign report.

    `grid` yields (payload, record) pairs: the payload goes to run_cases,
    and record(result) is the report's case.  A case whose record carries
    a true "counterexample" is listed among the counterexamples.
    """
    grid = list(grid)
    results = run_cases(name, config, [payload for payload, _ in grid], jobs, progress_path)
    cases = [record(res) for (_, record), res in zip(grid, results)]
    counterexamples = [c["key"] for c in cases if c.get("counterexample")]
    passed = sum(1 for c in cases if c["pass"])
    totals = {"cases": len(cases), "passed": passed, "failed": len(cases) - passed,
              "counterexamples": len(counterexamples)}
    return {"campaign": name, "config": config, "cases": cases, "totals": totals,
            "counterexamples": counterexamples, "ok": passed == len(cases)}


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


def _checked(kind: str, head: dict, params: dict, group=None):
    """A curve or lemma case of `kind`, whose result carries its own "pass".
    The report's case is `head` (the key first), then params, then the result.
    Consecutive cases of one `group` go to one pool worker (see run_cases)."""
    payload = {"kind": kind, "key": head["key"], "args": params}
    if group is not None:
        payload["group"] = group
    return payload, lambda res: {**head, "params": params, **res}


# ---------------------------------------------------------------------------
# Campaigns.

def _nonnegative(**bounds) -> None:
    """Refuse a bound below 0, before any grid is built: it would select the
    cases of 0 under a second config and fingerprint."""
    for name, value in bounds.items():
        if value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")


def verify_small_characteristic_baseline(n_max_2: int = 12, n_max_3: int = 8,
                                         jobs: int = 1,
                                         progress_path: str | None = None) -> dict:
    """Every trace-class representative permutes F_{2^n} and F_{3^n}."""
    _nonnegative(n_max_2=n_max_2, n_max_3=n_max_3)
    check_scan_order(max(2 ** n_max_2, 3 ** n_max_3))
    grid = (_perm(f"p={p},n={n},b={b.index}", {"p": p, "n": n, "b_index": b.index}, True)
            for p, n_max in ((2, n_max_2), (3, n_max_3)) for n in range(1, n_max + 1)
            for b in trace_class_reps(make_field(p, n)))
    config = {"n_max_2": n_max_2, "n_max_3": n_max_3}
    return _campaign("baseline", config, grid, jobs, progress_path)


def verify_degree_five_nonpermutation(primes=(5, 7, 11, 13), jobs: int = 1,
                                      progress_path: str | None = None) -> dict:
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
                                     progress_path: str | None = None) -> dict:
    """Over F_{p^2} the map permutes exactly when the trace of b is +-1.

    Class mode runs b = 1 .. (p-1)/2 (trace 2b) for every odd prime up to
    p_max; full mode runs every b with nonzero trace for the listed primes.
    """
    _nonnegative(p_max=p_max)
    check_scan_order(max((_largest_prime(p_max, 3), *full_primes)) ** 2)

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
                                       progress_path: str | None = None) -> dict:
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
                      progress_path: str | None = None) -> dict:
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
            if not is_prime(p):
                raise ValueError(f"characteristic {p} is not prime")
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
                              progress_path: str | None = None) -> dict:
    """The quartic-is-a-square coefficient system is inconsistent for t != 1."""
    _nonnegative(p_max=p_max)
    grid = (_checked("lemma22", {"key": f"p={p}"}, {"p": p})
            for p in primes_upto(p_max, start=3))
    return _campaign("lemma22", {"p_max": p_max}, grid, jobs, progress_path)


def verify_squarefree_gcd_chain(p_max: int = 100, jobs: int = 1,
                                progress_path: str | None = None) -> dict:
    """The gcd chain collapses to 1 for every prime 5 <= p <= p_max."""
    _nonnegative(p_max=p_max)
    grid = (_checked("lemmaL", {"key": f"p={p}"}, {"p": p})
            for p in primes_upto(p_max, start=5))
    return _campaign("lemmaL", {"p_max": p_max}, grid, jobs, progress_path)


def verify_curve_bounds(p_max: int = 97, f_p: int = 5, f_degrees=(2, 3),
                        ident_p_max: int = 13, eq28_p_max: int = 97,
                        jobs: int = 1,
                        progress_path: str | None = None) -> dict:
    """The curve suite: exact counts against the integer bound audits.

    Covers the collision curve over F_{f_p^n} (one parameter per trace
    class), the sextic/quartic pair for every odd prime 5 <= p <= p_max and
    every tau outside {0, +-1} (counts, infinity points, bound audits, cover
    census), the symmetric-reduction identity, the substitution identity, and
    the tau^2 = 1 factorization.  Each case records its kind.

    G and H depend on tau only through t = tau^2, so tau and p - tau read
    one audit, cached by (p, t), while the cases, their keys and their
    records stay one per (p, tau).  Every zero set and infinity count behind
    that audit comes from the per-prime record curves.pencil_census, one
    pass per pencil for every tau of the prime, and a prime's GH cases go to
    one pool worker as one group (see run_cases).  Only the collision-curve
    and eq. (28) cases count zeros with the kernel, and points at infinity are
    counted by gcd only for the collision curves and for a pencil member of
    lower degree.  A collision-curve field, or a largest GH or eq. (28)
    prime, whose q^2 exceeds the counting budget is refused before any grid
    is built.
    """
    from .curves import check_count_budget

    _nonnegative(p_max=p_max, ident_p_max=ident_p_max, eq28_p_max=eq28_p_max)
    for q in (*(f_p ** n for n in f_degrees), _largest_prime(p_max, 5),
              _largest_prime(eq28_p_max, 3)):
        check_count_budget(q)

    def case(kind, key, params, group=None):
        return _checked(kind, {"key": key, "kind": kind}, params, group)

    def grid():
        for n in f_degrees:
            for b in trace_class_reps(make_field(f_p, n)):
                yield case("curve_f", f"F,p={f_p},n={n},b={b.index}",
                           {"p": f_p, "n": n, "b_index": b.index})
        for p in primes_upto(p_max, start=5):
            for tau in range(2, p - 1):
                yield case("curve_gh", f"GH,p={p},tau={tau}", {"p": p, "tau": tau}, p)
        for p in primes_upto(eq28_p_max, start=3):
            yield case("ident_eq28", f"eq28,p={p}", {"p": p})
        for p in primes_upto(ident_p_max, start=3):
            yield case("ident_subst", f"subst,p={p}", {"p": p})

    config = {"p_max": p_max, "f_p": f_p, "f_degrees": list(f_degrees),
              "ident_p_max": ident_p_max, "eq28_p_max": eq28_p_max}
    return _campaign("weil-audit", config, grid(), jobs, progress_path)

"""The curve and lemma cases of the verification campaigns.

verify's case table loads this module the first time it runs one of these
kinds, so only weil-audit, lemma22 and lemmaL compile it: the permutation
campaigns and `count` never do.  Like verify's own cases, each takes a plain
dict and returns a plain dict, so it can cross a process boundary and land in
a progress file unchanged.  The curves are reached through the `curves`
module at call time, so a wrapped or replaced builder is the one that runs.
"""

from __future__ import annotations

import functools
from math import comb

from . import curves
from .field import make_field


def _curve_f_case(args: dict) -> dict:
    p, n = args["p"], args["n"]
    ctx = make_field(p, n)
    b = ctx.element(args["b_index"])
    poly = curves.collision_curve(ctx, b)
    affine = curves.count_affine(poly)
    inf = curves.count_infinity(poly)
    lo_ok, lo = curves.weil_lower_check(affine, ctx.order, 2 * p, 2)
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


@functools.lru_cache(maxsize=None)
def _gh_audit(p: int, t: int) -> dict:
    """The cover census, infinity counts, bound audits and symmetric identity
    of the sextic and quartic pencils' members at t over F_p, all read off
    curves.pencil_census(p); verify.run_cases clears this cache when a run
    starts and ends."""
    census = curves.phi_fibers(p, t)
    g, h = curves.pencil_census(p)
    g_affine, h_affine = census["v_g_size"], census["v_h_size"]
    g_inf, h_inf = g.infinity[t], h.infinity[t]
    g_ok, g_audit = curves.weil_upper_check(g_affine, p, 6, 3)
    h_ok, h_audit = curves.weil_lower_check(h_affine, p, 4, 3)
    sym_ok = (_symmetric_expansion(curves._member(h.pencil, t, p), p)
              == curves._member(g.pencil, t, p))
    return {
        "g": {"affine": g_affine, "infinity": g_inf, "weil_upper": g_audit},
        "h": {"affine": h_affine, "infinity": h_inf, "weil_lower": h_audit},
        "phi": census,
        "symmetric_identity_ok": sym_ok,
        "pass": g_ok and h_ok and g_inf == 3 and h_inf == 3 and sym_ok,
    }


def _curve_gh_case(args: dict) -> dict:
    """G and H at one tau, audited at the t read off G (its X^4 Y^2
    coefficient is -t).  Curves that are not the pencils' members at that t
    raise RuntimeError; the members depend on tau only through t = tau^2, so
    tau and p - tau read one audit, _gh_audit(p, t)."""
    p, tau = args["p"], args["tau"]
    ctx = make_field(p, 1)
    g = curves.criterion_sextic(ctx, tau).int_terms()
    h = curves.symmetric_quartic(ctx, tau).int_terms()
    t = -g.get((4, 2), 0) % p
    for name, terms, pencil in (("sextic", g, curves._SEXTIC), ("quartic", h, curves._QUARTIC)):
        if terms != curves._member(pencil, t, p):
            raise RuntimeError(f"the {name} is not the pencil's member at t = {t}")
    res = _gh_audit(p, t)
    return {**res, "phi": {"p": p, "tau": tau, **res["phi"]}}


def _ident_eq28_case(args: dict) -> dict:
    """Symmetric-reduction identity: symbolic in t = tau^2, so for every tau,
    and for one tau by a second algorithm.  The binomial expansion
    h -> h(X + Y, X*Y) is linear, so G_k = H_k(X + Y, X*Y) for the pencil
    coefficients k = 0, 1, 2 gives G = H(X + Y, X*Y) at every t.  At tau = 2,
    H(X + Y, X*Y) is composed from `BiPoly` products of s = X + Y and
    t = X*Y, and the points of F_p^2 where G(x, y) != H(x + y, x*y) are those
    off the zero set of the difference, counted exactly."""
    BiPoly = curves.BiPoly
    p = args["p"]
    ctx = make_field(p, 1)
    symbolic_ok = all(
        _symmetric_expansion({ij: cs[k] for ij, cs in curves._QUARTIC.items()}, p)
        == {ij: cs[k] % p for ij, cs in curves._SEXTIC.items() if cs[k] % p} for k in range(3))
    tau = 2 % p
    h = curves.symmetric_quartic(ctx, tau)
    s, t = BiPoly(ctx, {(1, 0): 1, (0, 1): 1}), BiPoly(ctx, {(1, 1): 1})
    s_pow, t_pow = [BiPoly(ctx, {(0, 0): 1})], [BiPoly(ctx, {(0, 0): 1})]
    for _ in range(h.degree):
        s_pow.append(s_pow[-1] * s)
        t_pow.append(t_pow[-1] * t)
    h_phi = sum((s_pow[a] * t_pow[b] * c for (a, b), c in h.terms.items()), BiPoly(ctx, {}))
    mismatches = p * p - curves.count_affine(curves.criterion_sextic(ctx, tau) - h_phi)
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
    BiPoly, graph_zeros = curves.BiPoly, curves.graph_zeros
    p = args["p"]
    q = p * p
    base = make_field(p, 1)
    y, yp = BiPoly(base, {(1, 0): 1}), BiPoly(base, {(0, 1): 1})
    yyp = y * yp
    mismatches = 0
    for tau in range(1, p):
        w = yyp * (tau * tau) + yyp * (y - yp) * tau + yp * yp - y * y
        e = (w * w + yyp * (yp - y) * w * (2 * tau) + yyp * yp * (y - yp) * (4 * tau * tau)
             - curves.criterion_sextic(base, tau)).int_terms()
        mismatches += q - 1 - graph_zeros(e, p, q, p) + ((0, 0) not in e)  # y = 0 is not checked
    a = y * y + yp * yp - yyp - yyp * y + yyp * yp
    bb = yyp - y * y - yp * yp - yyp * y + yyp * yp
    factor_mismatches = sum(
        q - graph_zeros((curves.criterion_sextic(base, tau) + a * bb).int_terms(), p, q, p)
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
    direct square-root attempt on the dehomogenized quartic A(X, 1), the
    sextic's degree-4 part, must agree.
    """
    p = args["p"]
    failures = []
    for t in range(1, p):
        alpha = -t % p
        beta = -t * pow(alpha, p - 2, p) % p
        eq10_ok = (1 - beta * beta) % p == 0
        residual = (-2 - alpha * alpha - 2 * beta + 4 * t + t * t) % p
        consistent = eq10_ok and residual == 0
        sextic = curves._member(curves._SEXTIC, t, p)
        a_x1 = curves.UniPoly(p, [sextic.get((i, 4 - i), 0) for i in range(5)])
        root = curves.uni_square_root(a_x1)
        expected_consistent = t == 1
        if consistent != expected_consistent or (root is not None) != expected_consistent:
            failures.append(t)
    return {"t_values": p - 1, "failures": failures, "pass": not failures}


def _lemmaL_case(args: dict) -> dict:
    """The gcd chain certifying Y^{p+1} - Y^2 + 4 has no repeated zeros."""
    UniPoly, uni_gcd = curves.UniPoly, curves.uni_gcd
    p = args["p"]
    one = UniPoly(p, [1])
    f = UniPoly.from_terms(p, {p + 1: 1, 2: -1, 0: 4})
    deriv = curves.uni_derivative(f)
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
    steps["radicand_squarefree"] = curves.is_squarefree(radicand)
    return {"steps": steps, "final_const": final_const, "pass": all(steps.values())}


CASE_FUNCS = {
    "curve_f": _curve_f_case,
    "curve_gh": _curve_gh_case,
    "ident_eq28": _ident_eq28_case,
    "ident_subst": _ident_subst_case,
    "lemma22": _lemma22_case,
    "lemmaL": _lemmaL_case,
}

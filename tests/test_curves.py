"""Curve builders, exact counts, bound audits, and the univariate toolkit."""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from permrat import curves
from permrat.curves import (
    BiPoly,
    affine_zeros,
    collision_curve,
    count_affine,
    count_infinity,
    criterion_sextic,
    graph_zeros,
    homogenization_quartic,
    is_squarefree,
    parse_bipoly,
    phi_fibers,
    symmetric_quartic,
    uni_derivative,
    uni_gcd,
    uni_square_root,
    weil_lower_check,
    weil_upper_check,
)
from permrat.field import first_elem_with_trace, frobenius, is_prime, make_field, pmul
from permrat.curve_cases import _ident_eq28_case, _ident_subst_case, _symmetric_expansion

from oracles import (compose_symmetric, count_infinity_walk, eq28_pointwise_walk,
                     eq28_symbolic_per_tau, ident_subst_walk, kernel_zeros,
                     pencil_zeros_per_point, phi_census_by_eval, phi_fibers_per_curve,
                     quartic_terms, sextic_terms)


# ---------------------------------------------------------------------------
# collision curve


def test_collision_curve_leading_coefficient_and_degree():
    f = make_field(5, 2)
    poly = collision_curve(f, f.from_int(3))
    assert poly.degree == 10
    assert poly.terms[(10, 0)] == f.one
    assert set(poly.leading_form()) == {(10, 0), (5, 5)}


def test_collision_curve_on_axis():
    # at y = 0 the curve is (x^p - x + b)^2 + 1
    f = make_field(5, 2)
    b = f.from_int(3)
    poly = collision_curve(f, b)
    for x in f:
        z = x ** 5 - x + b
        assert poly.eval(x, f.zero) == z * z + 1


def test_collision_curve_eval_matches_unexpanded_formula():
    f = make_field(5, 2)
    b = f.from_int(3)
    poly = collision_curve(f, b)
    for x in f:
        z = x ** 5 - x + b
        for y in f:
            direct = z * z + (y ** 5 - y) * z + 1 - y ** 4
            assert poly.eval(x, y) == direct


def test_collision_curve_axis_zero_count_is_small():
    # the number of zeros of the y = 0 slice never exceeds 2p
    for p, n in ((5, 2), (5, 3), (7, 2)):
        f = make_field(p, n)
        b = first_elem_with_trace(f, 1)
        poly = collision_curve(f, b)
        axis = sum(1 for x in f if not poly.eval(x, f.zero))
        assert axis <= 2 * p


def test_collision_curve_rejects_trace_zero_parameter():
    f = make_field(5, 5)
    with pytest.raises(ValueError):
        collision_curve(f, f.from_int(1))


# ---------------------------------------------------------------------------
# sextic / quartic / homogenization quartic


def test_sextic_diagonal_values():
    for p in (5, 7, 13):
        f = make_field(p, 1)
        for tau in range(1, p):
            g = criterion_sextic(f, tau)
            for x in f:
                assert g.eval(x, x) == f.from_int(tau) ** 4 * x ** 4


def test_sextic_axis_values():
    f = make_field(7, 1)
    g = criterion_sextic(f, 2)
    assert g.eval(f.one, f.zero) == f.one
    assert g.eval(f.one, f.one) == f.from_int(2) ** 4


def test_quartic_axis_and_two_to_one_diagonal():
    f = make_field(13, 1)
    tau = 2
    h = symmetric_quartic(f, tau)
    for x in f:
        assert h.eval(x, f.zero) == x ** 4
    for y in f:
        assert h.eval(2 * y, y * y) == f.from_int(tau) ** 4 * y ** 4


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_symmetric_expansion_matches_bipoly_composition(data):
    p = data.draw(st.sampled_from([p for p in range(2, 32) if is_prime(p)]))
    exps = st.tuples(st.integers(0, 6), st.integers(0, 4))
    h = data.draw(st.dictionaries(exps, st.integers(0, 3 * p), max_size=6))
    expected = compose_symmetric(BiPoly(make_field(p, 1), h)).int_terms()
    assert _symmetric_expansion(h, p) == expected


def test_symmetric_reduction_identity_pointwise():
    for p in (3, 5, 13):
        f = make_field(p, 1)
        for tau in range(1, p):
            g = criterion_sextic(f, tau)
            h = symmetric_quartic(f, tau)
            for x in f:
                for y in f:
                    assert g.eval(x, y) == h.eval(x + y, x * y)


def test_homogenization_quartic_values_and_symmetry():
    f = make_field(11, 1)
    a = homogenization_quartic(f, 4)
    assert a.eval(f.one, f.zero) == f.one
    for x in f:
        assert a.eval(x, f.one) == a.eval(f.one, x)


def test_homogenization_identity():
    # G = A - t*X^2*Y^2*(X-Y)^2 with A homogeneous of degree 4, so G
    # homogenizes to A*Z^2 - t*X^2*Y^2*(X-Y)^2
    for p in (5, 7, 13):
        f = make_field(p, 1)
        for tau in range(1, p):
            t = tau * tau % p
            g = criterion_sextic(f, tau)
            a = homogenization_quartic(f, t)
            assert a.terms and all(i + j == 4 for i, j in a.terms)
            xy_diff = BiPoly(f, {(1, 0): 1, (0, 1): -1})
            lump = BiPoly(f, {(2, 2): 1}) * xy_diff * xy_diff
            assert g == a - lump * t


def test_builders_reject_bad_parameters():
    f = make_field(7, 1)
    with pytest.raises(ValueError):
        criterion_sextic(f, 0)
    with pytest.raises(ValueError):
        symmetric_quartic(f, 7)  # 7 = 0 mod 7
    with pytest.raises(ValueError):
        criterion_sextic(make_field(5, 2), 2)  # extension context


# ---------------------------------------------------------------------------
# counting


def test_count_trivial_polynomials():
    f = make_field(5, 1)
    assert count_affine(BiPoly(f, {})) == 25            # zero polynomial
    assert count_affine(BiPoly(f, {(1, 0): 1})) == 5    # the line x = 0


def test_count_sextic_against_frozen_oracle():
    # 1 was computed by an independent double loop over the unexpanded formula
    f = make_field(5, 1)
    g = criterion_sextic(f, 2)
    assert count_affine(g) == 1
    assert count_affine(symmetric_quartic(f, 2)) == 4


def test_count_collision_curves_against_frozen_oracles():
    # counts precomputed with a direct field-operation double loop
    frozen = {(2, 1): 5, (2, 2): 30, (3, 1): 215, (3, 2): 120}
    for (n, t), expected in frozen.items():
        ctx = make_field(5, n)
        b = first_elem_with_trace(ctx, t)
        assert count_affine(collision_curve(ctx, b)) == expected


def _swap_vars(poly):
    return BiPoly(poly.field, {(j, i): c for (i, j), c in poly.terms.items()})


def test_count_loop_order_invariance():
    f = make_field(5, 2)
    poly = collision_curve(f, f.from_int(3))
    assert count_affine(poly) == count_affine(_swap_vars(poly))
    g = criterion_sextic(make_field(13, 1), 5)
    assert _swap_vars(g) == g  # G is symmetric
    h = symmetric_quartic(make_field(13, 1), 5)
    assert count_affine(h) == count_affine(_swap_vars(h))


def test_count_budget_enforced():
    f = make_field(2, 18)  # q^2 = 2^36 exceeds the 2^34 budget
    with pytest.raises(ValueError):
        count_affine(BiPoly(f, {(1, 0): 1}))


def test_affine_zeros_listing():
    f = make_field(5, 1)
    poly = BiPoly(f, {(1, 0): 1})
    zeros = affine_zeros(poly)
    assert [(x.index, y.index) for x, y in zeros] == [(0, y) for y in range(5)]


# ---------------------------------------------------------------------------
# infinity points


def test_infinity_counts_match_expected_constants():
    fb = make_field(5, 2)
    assert count_infinity(collision_curve(fb, fb.from_int(3))) == 2
    for p in (5, 7, 97):
        f = make_field(p, 1)
        for tau in (2, 3):
            assert count_infinity(criterion_sextic(f, tau)) == 3
            assert count_infinity(symmetric_quartic(f, tau)) == 3


def test_infinity_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        count_infinity(BiPoly(make_field(5, 1), {}))


def test_infinity_rejects_extension_top_coefficient():
    f = make_field(5, 2)
    gen = f.element(5)  # outside F_5
    with pytest.raises(ValueError, match="prime-subfield"):
        count_infinity(BiPoly(f, {(2, 0): gen, (0, 0): 1}))
    # below the top form any coefficient is allowed
    assert count_infinity(BiPoly(f, {(1, 1): 1, (1, 0): gen})) == 2  # [1:0:0], [0:1:0]


# every F_{p^n} with q <= 729, extension fields drawn as often as prime ones
_SMALL_FIELDS = [(p, n) for p in range(2, 730) if is_prime(p)
                 for n in range(1, 10) if p ** n <= 729]
_FIELD_DRAW = (st.sampled_from([pn for pn in _SMALL_FIELDS if pn[1] > 1])
               | st.sampled_from([pn for pn in _SMALL_FIELDS if pn[1] == 1]))


@pytest.mark.parametrize("p,n", [(2, 9), (3, 6), (5, 4), (7, 3), (13, 2), (727, 1)])
def test_infinity_gcd_matches_walk_on_edge_forms(p, n):
    f = make_field(p, n)
    for terms in (
        {(0, 3): 1, (1, 0): 1},          # top form Y^3: no X^3 term, u constant
        {(2, 1): 1, (1, 2): p - 1},      # no X^3 term, u = X^2 - X
        {(4, 0): 1, (0, 0): 1},          # top form X^4 only
        {(2, 0): 1, (0, 2): 1},          # u = X^2 + 1
        {(3, 0): 1, (1, 2): 1, (0, 3): 1},  # u = X^3 + X + 1
        {(0, 0): 1},                     # constant curve, u = 1
    ):
        poly = BiPoly(f, terms)
        assert count_infinity(poly) == count_infinity_walk(poly)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_infinity_gcd_matches_walk(data):
    p, n = data.draw(_FIELD_DRAW)
    f = make_field(p, n)
    exps = st.tuples(st.integers(0, 8), st.integers(0, 8))
    terms = data.draw(st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=8))
    poly = BiPoly(f, terms)
    assert count_infinity(poly) == count_infinity_walk(poly)


# ---------------------------------------------------------------------------
# graph_zeros: points of the graph x -> x^k on a curve, by one gcd


def _graph_zeros_brute(terms, k, p, n):
    f = make_field(p, n)
    return sum(1 for x in f
               if not sum((c * x ** i * x ** (k * j) for (i, j), c in terms.items()), f.zero))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graph_zeros_matches_brute_force(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    n = data.draw(st.sampled_from((1, 2)))
    k = data.draw(st.sampled_from((0, 1, p)))
    # exponents up to a few q, so that u's exponents fold below q
    exps = st.tuples(st.integers(0, 3 * p ** n), st.integers(0, 3 * p ** n))
    terms = data.draw(st.dictionaries(exps, st.integers(1, p - 1), max_size=6))
    assert graph_zeros(terms, k, p ** n, p) == _graph_zeros_brute(terms, k, p, n)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (5, 1), (5, 2), (7, 2)])
def test_graph_zeros_edge_polynomials(p, n):
    q = p ** n
    frob_graph = {(p, 0): 1, (0, 1): p - 1}     # X^p - Y: u = 0 at k = p
    assert graph_zeros(frob_graph, p, q, p) == q == _graph_zeros_brute(frob_graph, p, p, n)
    assert graph_zeros(frob_graph, 1, q, p) == p == _graph_zeros_brute(frob_graph, 1, p, n)
    assert graph_zeros({}, 0, q, p) == q
    for k in (0, 1, p):
        assert graph_zeros({(0, 0): 1}, k, q, p) == 0      # a nonzero constant
        assert graph_zeros({(0, 0): p}, k, q, p) == q      # p reduces to 0
    # X^2 + 1 has roots in F_{p^2} for every p, in F_p only when p = 2 or 1 mod 4
    assert graph_zeros({(2, 0): 1, (0, 0): 1}, 0, q, p) == _graph_zeros_brute(
        {(2, 0): 1, (0, 0): 1}, 0, p, n)


# ---------------------------------------------------------------------------
# the substitution identity: graph_zeros counts against the element walk


def _perturbed_sextic(extra):
    sextic = curves.criterion_sextic

    def perturbed(ctx, tau):
        return sextic(ctx, tau) + BiPoly(ctx, extra)

    return perturbed


def _subst_counts(p):
    res = _ident_subst_case({"p": p})
    return (res["substitution_points"], res["substitution_mismatches"],
            res["factorization_mismatches"])


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_ident_subst_counts_match_walk(p):
    assert _subst_counts(p) == ident_subst_walk(p) == ((p - 1) * (p * p - 1), 0, 0)


def test_ident_subst_counts_perturbed_example(monkeypatch):
    # G + 2X^3 Y + 7X^3 at p = 11 breaks both identities at many points
    monkeypatch.setattr(curves, "criterion_sextic",
                        _perturbed_sextic({(3, 1): 2, (3, 0): 7}))
    assert _subst_counts(11) == ident_subst_walk(11) == (1200, 1190, 238)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_ident_subst_counts_match_walk_on_perturbed_sextics(data):
    p = data.draw(st.sampled_from((3, 5, 7, 11)))
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
    extra = data.draw(st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "criterion_sextic", _perturbed_sextic(extra))
        assert _subst_counts(p) == ident_subst_walk(p)


# ---------------------------------------------------------------------------
# the pointwise eq. (28) check: a zero count against the double loop


def _eq28_mismatches(p):
    return _ident_eq28_case({"p": p})["mismatches"]


@pytest.mark.parametrize("p", [p for p in range(3, 32) if is_prime(p)])
def test_eq28_mismatches_match_walk(p):
    assert _eq28_mismatches(p) == eq28_pointwise_walk(p) == 0
    assert _ident_eq28_case({"p": p})["pass"] and eq28_symbolic_per_tau(p)


@pytest.mark.parametrize("p,mismatches", [(3, 4), (5, 16), (7, 36), (11, 100), (13, 144)])
def test_eq28_mismatches_perturbed_example(monkeypatch, p, mismatches):
    # G + X^3 Y + 2Y^5 differs from H(X + Y, XY) off the zeros of X^3 Y + 2Y^5
    monkeypatch.setattr(curves, "criterion_sextic", _perturbed_sextic({(3, 1): 1, (0, 5): 2}))
    assert _eq28_mismatches(p) == eq28_pointwise_walk(p) == mismatches


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_eq28_mismatches_match_walk_on_perturbed_sextics(data):
    p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
    extra = data.draw(st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "criterion_sextic", _perturbed_sextic(extra))
        assert _eq28_mismatches(p) == eq28_pointwise_walk(p)


def _perturbed(pencil, extra):
    """The pencil plus c * t^k * X^i Y^j for each ((i, j), k) -> c of extra."""
    out = dict(pencil)
    for (ij, k), c in extra.items():
        cs = list(out.get(ij, (0, 0, 0)))
        cs[k] += c
        out[ij] = tuple(cs)
    return out


@pytest.mark.parametrize("k", [0, 1, 2])
def test_eq28_finds_a_pencil_coefficient_that_vanishes_at_every_point(monkeypatch, k):
    # t^k * (X^7 - X) vanishes on all of F_7^2, so the pointwise check at
    # tau = 2 sees no mismatch; the check of coefficient k of G sees it
    monkeypatch.setattr(curves, "_SEXTIC",
                        _perturbed(curves._SEXTIC, {((7, 0), k): 1, ((1, 0), k): -1}))
    res = _ident_eq28_case({"p": 7})
    assert res["mismatches"] == 0 and not res["pass"]
    assert not eq28_symbolic_per_tau(7)


@pytest.mark.parametrize("p,per_tau", [(3, True), (5, True), (7, False), (11, False)])
def test_eq28_pencil_check_is_stronger_than_every_tau_below_seven(monkeypatch, p, per_tau):
    # (t^2 - 1) * X^3 vanishes at t = 1 and t = -1, which are all the nonzero
    # squares of F_3 and F_5: tau by tau G is still H(X + Y, X*Y) there, and
    # the pointwise check at tau = 2 sees nothing, but the pencils differ.
    # From p = 7 on, (p - 1)/2 >= 3 nonzero squares pin a quadratic in t.
    monkeypatch.setattr(curves, "_SEXTIC",
                        _perturbed(curves._SEXTIC, {((3, 0), 0): -1, ((3, 0), 2): 1}))
    res = _ident_eq28_case({"p": p})
    assert eq28_symbolic_per_tau(p) is per_tau
    assert (res["mismatches"] == 0) is per_tau and not res["pass"]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_eq28_pencil_check_implies_the_check_at_every_tau(data):
    # H gains random c * t^k * X^a Y^b and G their expansion under
    # (X, Y) -> (X + Y, X*Y), so the identity is kept; then G may gain
    # (t^2 - 1) * X^i Y^j terms, which vanish at every nonzero square of F_3
    # and F_5, or random terms.  A pass of the pencil check must be a pass
    # at every tau, and from p = 7 on the two must agree.
    p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
    ctx = make_field(p, 1)
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
    coeff = st.integers(1, p - 1)
    h_extra = data.draw(st.dictionaries(st.tuples(st.tuples(st.integers(0, 3),
                                                            st.integers(0, 3)),
                                                  st.integers(0, 2)), coeff, max_size=3))
    g_extra = {}

    def add(ij, k, c):
        g_extra[(ij, k)] = g_extra.get((ij, k), 0) + c

    for (ab, k), c in h_extra.items():
        for ij, v in compose_symmetric(BiPoly(ctx, {ab: c})).int_terms().items():
            add(ij, k, v)
    shape = data.draw(st.sampled_from(("kept", "vanishing", "broken")))
    if shape == "vanishing":
        for ij in data.draw(st.lists(exps, min_size=1, max_size=2)):
            add(ij, 0, -1)
            add(ij, 2, 1)
    elif shape == "broken":
        for (ij, k), c in data.draw(st.dictionaries(st.tuples(exps, st.integers(0, 2)), coeff,
                                                    min_size=1, max_size=2)).items():
            add(ij, k, c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "_SEXTIC", _perturbed(curves._SEXTIC, g_extra))
        mp.setattr(curves, "_QUARTIC", _perturbed(curves._QUARTIC, h_extra))
        passed = _ident_eq28_case({"p": p})["pass"]
        per_tau = eq28_symbolic_per_tau(p)
    assert per_tau or not passed
    if p >= 7:
        assert passed == per_tau


# ---------------------------------------------------------------------------
# bound audits


def test_weil_trivial_cases():
    ok, audit = weil_lower_check(100, 10, 4, 3)   # count = q^2 certainly passes
    assert ok and audit["slack"] <= 0
    ok, _ = weil_upper_check(0, 97, 6, 3)
    assert ok


def test_weil_lower_boundary():
    # q = 50, d = 3, n_inf = 1: (d-1)^2 (d-2)^2 q = 200, so slack 14 passes
    # (196 <= 200) and slack 15 fails (225 > 200)
    ok, audit = weil_lower_check(50 + 1 - 1 - 14, 50, 3, 1)
    assert ok and audit["slack_sq"] == 196
    ok, audit = weil_lower_check(50 + 1 - 1 - 15, 50, 3, 1)
    assert not ok and audit["slack_sq"] == 225


def test_weil_upper_boundary():
    ok, _ = weil_upper_check(50 + 1 - 1 + 14, 50, 3, 1)
    assert ok
    ok, _ = weil_upper_check(50 + 1 - 1 + 15, 50, 3, 1)
    assert not ok


def test_weil_exact_square_boundary():
    # perfect-square q: equality is a pass
    ok, audit = weil_lower_check(100 + 1 - 3 - 60, 100, 4, 3)
    assert ok and audit["slack_sq"] == audit["bound_sq"] == 3600


def test_audit_curve_consistency_label():
    f = make_field(5, 2)
    poly = collision_curve(f, f.from_int(3))
    affine, inf = count_affine(poly), count_infinity(poly)
    assert (affine, inf, poly.degree) == (5, 2, 10)
    lo_ok, lo = weil_lower_check(affine, f.order, poly.degree, inf)
    hi_ok, hi = weil_upper_check(affine, f.order, poly.degree, inf)
    assert lo_ok and hi_ok
    assert lo["mode"] == hi["mode"] == "consistency"
    assert (lo["kind"], hi["kind"]) == ("lower", "upper")
    assert lo["slack"] == -hi["slack"] == 25 + 1 - 2 - 5


# ---------------------------------------------------------------------------
# the 2-to-1 cover census


def _gh(p, tau):
    f = make_field(p, 1)
    return criterion_sextic(f, tau), symmetric_quartic(f, tau)


def test_phi_census_frozen():
    census = phi_fibers(13, 4)  # tau = 2
    assert census == {"v_g_size": 7, "v_h_size": 8, "fiber_sizes": {2: 3},
                      "phi_image_size": 4}


def test_phi_census_origin_and_symmetry():
    for p, tau in ((7, 2), (11, 3), (13, 5)):
        g, _ = _gh(p, tau)
        zeros = {(x.index, y.index) for x, y in affine_zeros(g)}
        assert (0, 0) in zeros
        assert all((y, x) in zeros for x, y in zeros)
        census = phi_fibers(p, tau * tau % p)
        assert census["phi_image_size"] == 1 + (census["v_g_size"] - 1) // 2


def test_phi_census_holds_at_unit_tau():
    # no command censuses tau = +-1, that is t = 1 (the grid runs
    # tau = 2 .. p - 2), yet the cover is still 2-to-1 off the origin there
    assert phi_fibers(13, 1) == {"v_g_size": 19, "v_h_size": 10,
                                 "fiber_sizes": {2: 9}, "phi_image_size": 10}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 17, 19, 23]), st.data())
def test_phi_census_matches_brute_force(p, data):
    tau = data.draw(st.integers(2, p - 2))
    assert phi_fibers(p, tau * tau % p) == phi_census_by_eval(*_gh(p, tau))


# the pencil census: every t's zero sets of G and H from one pass per prime


def _decoded(codes, p):
    """The census's int codes x*p + y as the (x, y) index pairs they name."""
    return tuple(divmod(c, p) for c in codes)


@pytest.mark.parametrize("p", [p for p in range(3, 98) if is_prime(p)])
def test_pencil_census_matches_the_kernel_at_every_t(p, fresh_curve_caches):
    f = make_field(p, 1)
    g, h = curves.pencil_census(p)
    assert len(g.zeros) == len(h.zeros) == p
    for t in range(1, p):
        assert _decoded(g.zeros[t], p) == kernel_zeros(curves._sextic(f, t))
        assert _decoded(h.zeros[t], p) == kernel_zeros(curves._quartic(f, t))


def test_pencil_census_matches_the_kernel_past_one_byte_slots(fresh_curve_caches):
    # p = 257 needs two bytes per slot; t = 3 is a non-square mod 257
    p = 257
    f = make_field(p, 1)
    g, h = curves.pencil_census(p)
    assert pow(3, (p - 1) // 2, p) == p - 1
    for t in (0, 1, 2, 3, p - 1):
        assert _decoded(g.zeros[t], p) == kernel_zeros(curves._sextic(f, t))
        assert _decoded(h.zeros[t], p) == kernel_zeros(curves._quartic(f, t))


@st.composite
def _pencils(draw, primes):
    """(p, pencil): random coefficient triples (a0, a1, a2) on up to 8
    exponent pairs, with every coefficient p - 1 (the largest slot value),
    with A2 = 0 (every a2 vanishes), or times X and/or Y (every coefficient
    vanishes on the row x = 0 and/or the column y = 0)."""
    p = draw(st.sampled_from(primes))
    exps = draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8))
    shape = draw(st.sampled_from(("random", "top", "no_a2")))
    coeff = st.just(p - 1) if shape == "top" else st.integers(0, p - 1)
    pencil = {ij: draw(st.tuples(coeff, coeff, st.just(0) if shape == "no_a2" else coeff))
              for ij in exps}
    a, b = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    return p, {(i + a, j + b): cs for (i, j), cs in pencil.items() if any(cs)}


@settings(max_examples=60, deadline=None)
@given(_pencils((3, 5, 7, 11, 13)))
def test_packed_pencil_census_matches_the_per_point_oracle(case):
    p, pencil = case
    zeros = curves._pencil_zeros(p, pencil)
    oracle = pencil_zeros_per_point(p, pencil)
    assert len(zeros) == len(oracle) == p
    for t in range(p):
        assert _decoded(zeros[t], p) == oracle[t]


@settings(max_examples=3, deadline=None)
@given(_pencils((257, 263)))
def test_packed_pencil_census_matches_the_per_point_oracle_past_one_byte_slots(case):
    p, pencil = case
    assume(pencil)  # an empty pencil files all p^2 points under every t: p^3 entries
    zeros = curves._pencil_zeros(p, pencil)
    oracle = pencil_zeros_per_point(p, pencil)
    assert [_decoded(z, p) for z in zeros] == list(oracle)


def test_pencil_census_refuses_a_prime_over_the_counting_budget(fresh_curve_caches,
                                                                monkeypatch):
    def build(*args):
        raise AssertionError("a pencil was built past the counting budget")

    monkeypatch.setattr(curves, "_pencil_infinity", build)
    monkeypatch.setattr(curves, "_pencil_zeros", build)
    with pytest.raises(ValueError, match=r"^affine counting budget exceeded \(q\^2 > 2\^34\)$"):
        curves.pencil_census(131101)  # the least prime p with p^2 > 2^34


def test_pencil_census_keeps_one_prime_and_needs_an_odd_one():
    assert curves.pencil_census(7) is curves.pencil_census(7)
    curves.pencil_census(11)
    assert curves.pencil_census.cache_info().currsize == 1
    with pytest.raises(ValueError, match="^the pencil census needs an odd characteristic$"):
        curves.pencil_census(2)


def _assert_tables_match_the_builders(p):
    # every t of F_p, t = 0 and t = 1 included
    f = make_field(p, 1)
    for census, build in zip(curves.pencil_census(p), (curves._sextic, curves._quartic)):
        for t in range(p):
            curve = build(f, t)
            assert curves._member(census.pencil, t, p) == curve.int_terms()
            assert census.infinity[t] == count_infinity(curve)


@pytest.mark.parametrize("p", [p for p in range(3, 98) if is_prime(p)])
def test_pencil_tables_match_the_builders_at_every_t(p, fresh_curve_caches):
    _assert_tables_match_the_builders(p)


@pytest.mark.parametrize("p", [p for p in range(2, 98) if is_prime(p)])
def test_integer_sextic_is_the_sextic_builder(p):
    # the literal pencils against the closed forms of G and H, in every
    # characteristic (the census reads them only for odd p) and at t outside
    # 0 .. p - 1
    f = make_field(p, 1)
    for t in range(-3, p + 3):
        sextic, quartic = sextic_terms(p, t), quartic_terms(p, t)
        assert curves._member(curves._SEXTIC, t, p) == sextic == curves._sextic(f, t).int_terms()
        assert (curves._member(curves._QUARTIC, t, p) == quartic
                == curves._quartic(f, t).int_terms())
        assert ({ij: c for ij, c in sextic.items() if sum(ij) == 4}
                == homogenization_quartic(f, t).int_terms())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pencil_tables_match_the_builders_on_perturbed_pencils(fresh_curve_caches, data):
    # adding c * t^k * X^i Y^j (k <= 2) to a pencil keeps it a pencil; a term
    # above degree 6 with k > 0 makes the top form vanish at some t, where
    # the infinity table falls back to count_infinity.  X^4 keeps coefficient
    # 1, so no member is the zero polynomial.  The fixture empties the
    # census after the last example, each example before its own.
    p = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
    name = data.draw(st.sampled_from(("_SEXTIC", "_QUARTIC")))
    exps = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda ij: ij != (4, 0))
    extra = data.draw(st.dictionaries(st.tuples(exps, st.integers(0, 2)),
                                      st.integers(1, p - 1), min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, name, _perturbed(getattr(curves, name), extra))
        curves.pencil_census.cache_clear()
        _assert_tables_match_the_builders(p)


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
def test_phi_census_matches_the_per_curve_oracle(p):
    for tau in range(1, p):
        assert phi_fibers(p, tau * tau % p) == phi_fibers_per_curve(*_gh(p, tau))


def test_sextic_perturbed_at_every_t_fails_census_and_oracle_alike(monkeypatch,
                                                                   fresh_curve_caches):
    # G + X^3 - X^2 Y keeps the diagonal but is no longer H(X + Y, X*Y), so
    # the cover's image leaves V_H: the census of the perturbed pencil must
    # find this as the per-curve oracle does on the perturbed builder's curve
    monkeypatch.setattr(curves, "_SEXTIC",
                        _perturbed(curves._SEXTIC, {((3, 0), 0): 1, ((2, 1), 0): -1}))
    for p, tau in ((5, 2), (13, 2), (13, 5)):
        with pytest.raises(RuntimeError, match="^cover image escapes the quartic's zero set$"):
            phi_fibers(p, tau * tau % p)
        with pytest.raises(RuntimeError, match="^cover image escapes the quartic's zero set$"):
            phi_fibers_per_curve(*_gh(p, tau))


# ---------------------------------------------------------------------------
# univariate toolkit


def test_uni_gcd_with_zero_is_monic():
    a = [2, 0, 4]
    assert uni_gcd(a, [], 7) == [4, 0, 1]  # a / 4, as 4 * 2 = 1 mod 7
    with pytest.raises(ValueError):
        uni_gcd([], [], 7)


def test_squarefree_family():
    for p in (5, 7, 11, 13, 97):
        f = [4, 0, p - 1] + [0] * (p - 2) + [1]  # Y^{p+1} - Y^2 + 4
        assert is_squarefree(f, p)


def test_final_chain_constant():
    for p in (5, 7, 97):
        c = (pow(p - 1, (p - 1) // 2, p) - 2) % p
        assert c != 0
        assert uni_gcd([4, 0, 1], [c], p) == [1]


def test_uni_derivative():
    a = [1, 2, 3, 4]  # 1 + 2Y + 3Y^2 + 4Y^3 over F_5
    assert uni_derivative(a, 5) == [2, 1, 2]
    assert uni_derivative([3, 0, 0, 0, 0, 1], 5) == []  # Y^5 + 3 has derivative 5Y^4 = 0


def test_uni_square_root():
    p = 13
    r = [3, 5, 1]
    assert uni_square_root(pmul(r, r, p), p) == r
    assert uni_square_root([1, 1, 0, 0, 1], p) is None
    # the t = 1 quartic is a perfect square, t = 4 is not
    f = make_field(p, 1)
    a1 = homogenization_quartic(f, 1).int_terms()
    coeffs1 = [a1.get((i, 4 - i), 0) for i in range(5)]
    assert uni_square_root(coeffs1, p) == [1, p - 1, 1]
    a4 = homogenization_quartic(f, 4).int_terms()
    coeffs4 = [a4.get((i, 4 - i), 0) for i in range(5)]
    assert uni_square_root(coeffs4, p) is None


def test_uni_square_root_refuses_characteristic_two():
    # (X + 1)^2 = X^2 + 1 and (X^2 + 1)^2 = X^4 + 1 over F_2, but halving the
    # cross terms needs 2 to be invertible
    for square in ([1, 0, 1], [1, 0, 0, 0, 1]):
        with pytest.raises(ValueError, match="odd prime"):
            uni_square_root(square, 2)


_UNI_PRIMES = (3, 5, 7, 13, 97)


def _polys(p, min_degree=0, max_degree=6, monic=False):
    """Lists in `field`'s convention of degree in [min_degree, max_degree]."""
    lead = st.just(1) if monic else st.integers(1, p - 1)
    body = st.lists(st.integers(0, p - 1), min_size=min_degree, max_size=max_degree)
    return st.builds(lambda low, top: low + [top], body, lead)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_uni_square_root_recovers_monic_roots(data):
    p = data.draw(st.sampled_from(_UNI_PRIMES))
    r = data.draw(_polys(p, monic=True))
    assert uni_square_root(pmul(r, r, p), p) == r


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_uni_square_root_returns_only_square_roots(data):
    p = data.draw(st.sampled_from(_UNI_PRIMES))
    a = data.draw(st.one_of(st.just([]), _polys(p, max_degree=8)))
    root = uni_square_root(a, p)
    if root is not None:
        assert pmul(root, root, p) == a


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_squarefree_on_squares_and_split_products(data):
    p = data.draw(st.sampled_from(_UNI_PRIMES))
    f = data.draw(_polys(p, min_degree=1, max_degree=4))
    assert not is_squarefree(pmul(f, f, p), p)
    roots = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=min(p, 6),
                               unique=True))
    product = [1]
    for root in roots:
        product = pmul(product, [-root % p, 1], p)
    assert is_squarefree(product, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_uni_gcd_scales_by_a_common_factor(data):
    p = data.draw(st.sampled_from(_UNI_PRIMES))
    a = data.draw(st.one_of(st.just([]), _polys(p)))
    b = data.draw(_polys(p) if not a else st.one_of(st.just([]), _polys(p)))
    c = data.draw(_polys(p, max_degree=4))
    c_monic = pmul(c, [pow(c[-1], p - 2, p)], p)
    assert uni_gcd(pmul(a, c, p), pmul(b, c, p), p) == pmul(c_monic, uni_gcd(a, b, p), p)


# ---------------------------------------------------------------------------
# text format


def test_parse_bipoly_roundtrip():
    f = make_field(7, 1)
    poly = parse_bipoly("3*X^2*Y^3 - X + 5", f)
    assert poly.terms[(2, 3)] == f.from_int(3)
    assert poly.terms[(1, 0)] == f.from_int(6)
    assert poly.terms[(0, 0)] == f.from_int(5)
    assert parse_bipoly(poly.to_text(), f) == poly


def test_parse_bipoly_reduces_mod_p():
    f = make_field(5, 1)
    poly = parse_bipoly("7*X + 10", f)
    assert poly == BiPoly(f, {(1, 0): 2})


def test_parse_bipoly_variants():
    f = make_field(11, 1)
    poly = parse_bipoly("X*Y + Y^2 - 4", f)
    assert poly.terms[(1, 1)] == f.one
    assert poly.terms[(0, 2)] == f.one
    assert poly.terms[(0, 0)] == f.from_int(-4)


def test_parse_bipoly_errors():
    f = make_field(5, 1)
    for bad in ("", "x^", "3**X", "X^2 + * Y", "2Z", "*X", "*Y^2", "3 - *X*Y"):
        with pytest.raises(ValueError):
            parse_bipoly(bad, f)


def test_parse_bipoly_star_only_between_factors():
    # rejecting a leading '*' leaves the separator and juxtaposed forms alone
    f = make_field(5, 1)
    assert parse_bipoly("3X", f) == BiPoly(f, {(1, 0): 3})
    assert parse_bipoly("XY", f) == BiPoly(f, {(1, 1): 1})
    assert parse_bipoly("X*Y", f) == BiPoly(f, {(1, 1): 1})
    assert parse_bipoly("3*Y", f) == BiPoly(f, {(0, 1): 3})


def test_eval_rejects_points_of_another_field():
    base = make_field(5, 1)
    ext = make_field(5, 2)
    g = criterion_sextic(base, 2)
    y = ext.element(7)
    for point in ((y, frobenius(y, 1)), (base.one, y), (y, base.one)):
        with pytest.raises(ValueError, match="outside the polynomial's field"):
            g.eval(*point)
    assert g.eval(base.one, base.one) == base.from_int(2) ** 4


_TEXT_PRIMES = (2, 3, 5, 7, 13, 97)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_parse_bipoly_inverts_to_text(data):
    f = make_field(data.draw(st.sampled_from(_TEXT_PRIMES)), 1)
    exps = st.tuples(st.integers(0, 12), st.integers(0, 12))
    terms = data.draw(st.dictionaries(exps, st.integers(1, f.p - 1), max_size=8))
    poly = BiPoly(f, terms)
    assert parse_bipoly(poly.to_text(), f) == poly

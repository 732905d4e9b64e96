"""Field construction, arithmetic, Frobenius, and trace machinery."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from permrat.field import (
    MAX_FIELD_ORDER,
    Elem,
    absolute_trace,
    first_elem_with_trace,
    frobenius,
    is_irreducible,
    is_prime,
    make_field,
    subfield_elements,
    trace_rel,
)

from oracles import (first_index_by_trace, first_irreducible_modulus, inv_reference,
                     mul_reference, pow_reference, subfield_by_scan)


def test_prime_field_has_no_modulus():
    f = make_field(5, 1)
    assert f.order == 5
    assert f.modulus is None


def test_unique_quadratic_modulus_over_f2():
    # X^2 + X + 1 is the only irreducible quadratic over F_2
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_first_enumerated_quadratic_modulus_over_f5():
    # independent oracle: scan monic quadratics X^2 + c1*X + c0 by increasing
    # index c0 + 5*c1; a quadratic is irreducible iff it has no roots
    expected = None
    for k in range(25):
        c0, c1 = k % 5, k // 5
        if all((x * x + c1 * x + c0) % 5 for x in range(5)):
            expected = (c0, c1, 1)
            break
    assert expected == (2, 0, 1)
    assert make_field(5, 2).modulus == expected


def test_make_field_idempotent():
    a, b = make_field(13, 3), make_field(13, 3)
    assert a is b
    assert a.modulus == b.modulus


def test_make_field_rejects_composite_and_oversized():
    with pytest.raises(ValueError):
        make_field(15, 2)
    with pytest.raises(ValueError):
        make_field(2, 41)  # 2^41 > 2^40


def test_is_prime_spot_values():
    assert is_prime(2) and is_prime(97) and is_prime(2 ** 31 - 1)
    assert not is_prime(1) and not is_prime(91) and not is_prime(561)


def test_is_irreducible_examples():
    assert is_irreducible([1, 1, 1], 2)          # X^2 + X + 1 over F_2
    assert not is_irreducible([1, 0, 1], 5)      # X^2 + 1 = (X-2)(X+2) over F_5
    assert is_irreducible([2, 0, 1], 5)          # X^2 + 2 over F_5
    assert is_irreducible([3, 1], 7)             # any linear polynomial
    with pytest.raises(ValueError):
        is_irreducible([1, 2], 5)                # not monic
    with pytest.raises(ValueError):
        is_irreducible([1], 5)                   # degree 0


def test_inverse_of_three_in_f5():
    f = make_field(5)
    assert f.from_int(3).inverse() == f.from_int(2)


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3), (2, 4), (7, 2)])
def test_mul_inverse_identity_exhaustive(p, n):
    f = make_field(p, n)
    for i in range(1, f.order):
        a = f.element(i)
        assert a * a.inverse() == f.one


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3), (2, 4)])
def test_lagrange_pow(p, n):
    f = make_field(p, n)
    for i in range(1, f.order):
        assert f.element(i) ** (f.order - 1) == f.one


def test_inversion_of_zero_raises():
    f = make_field(5, 2)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


# Fields at the 2^40 cap: the most slots (p = 2, 3) and the widest slots
# (the largest primes with p^2 and p^3 at most 2^40).
_CAP_FIELDS = [(2, 40), (3, 25), (1048573, 2), (10321, 3)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_arithmetic_matches_list_reference_at_the_cap(data):
    p, n = data.draw(st.sampled_from(_CAP_FIELDS))
    ctx = make_field(p, n)
    assert ctx.order <= MAX_FIELD_ORDER < p ** (n + 1)
    digits = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)
    a, b, e = data.draw(digits), data.draw(digits), data.draw(st.integers(0, ctx.order))
    for a, b in ((a, b), ((p - 1,) * n, (p - 1,) * n)):
        assert ctx._mul(a, b) == mul_reference(ctx, a, b)
        assert ctx._pow(a, e) == pow_reference(ctx, a, e)
        if any(a):
            assert ctx._inv(a) == inv_reference(ctx, a)
    with pytest.raises(ZeroDivisionError):
        ctx._inv((0,) * n)


@pytest.mark.parametrize("p,n", [(5, 1), (5, 2), (2, 7)])
def test_pickles_and_copies_of_a_field_are_the_interned_field(p, n):
    f = make_field(p, n)
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    x = f.element(f.order - 1)
    assert pickle.loads(pickle.dumps(x)) * x == x * x


def test_mixed_contexts_raise():
    a = make_field(5, 2).one
    b = make_field(5, 3).one
    with pytest.raises(ValueError):
        a + b
    c, d = make_field(5, 1).one, make_field(7, 1).one
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
               lambda u, v: u / v):
        with pytest.raises(ValueError, match="different field"):
            op(c, d)
        with pytest.raises(ValueError, match="different field"):
            op(a, b)
    # interned: identity is the test, however the arguments are spelled
    assert make_field(5) is make_field(5, 1) is make_field(p=5, n=1)
    assert make_field(5, 2) is make_field(5, n=2)
    assert make_field(5).one + make_field(5, 1).one == make_field(p=5).from_int(2)


def test_inverse_matches_fermat_pow():
    # extended-Euclid inversion against the q-2 power oracle
    f = make_field(7, 2)
    for i in range(1, f.order):
        a = f.element(i)
        assert a.inverse() == a ** (f.order - 2)


def test_frobenius_fixes_prime_subfield():
    f = make_field(7, 3)
    for c in range(7):
        assert frobenius(f.from_int(c), 1) == f.from_int(c)


def test_frobenius_inverse_power():
    f = make_field(5, 3)
    rng = random.Random(7)
    for _ in range(25):
        x = f.element(rng.randrange(f.order))
        assert frobenius(frobenius(x, 1), f.n - 1) == x


def test_frobenius_matches_pow_oracle():
    f = make_field(7, 3)
    rng = random.Random(11)
    for _ in range(25):
        x = f.element(rng.randrange(f.order))
        assert frobenius(x, 1) == x ** 7


def test_full_frobenius_is_identity_exhaustive():
    f = make_field(5, 5)
    for x in f:
        assert frobenius(x, f.n) == x


def test_full_frobenius_sampled_big_field():
    f = make_field(7, 5)
    rng = random.Random(3)
    for _ in range(50):
        x = f.element(rng.randrange(f.order))
        assert frobenius(x, f.n) == x


def test_trace_of_embedded_constant_is_n_times():
    f = make_field(5, 2)
    for c in range(5):
        assert trace_rel(f.from_int(c), 1) == f.from_int(2 * c)
    assert absolute_trace(f.zero) == 0


def test_trace_transitivity_tower():
    # Tr to F_p equals the two-step tower through the quadratic subfield;
    # oracle is the direct conjugate sum
    f = make_field(3, 4)
    for x in f:
        direct = x + x ** 3 + x ** (3 ** 2) + x ** (3 ** 3)
        s = trace_rel(x, 2)
        tower = s + frobenius(s, 1)
        assert trace_rel(x, 1) == direct == tower


def test_trace_linearity():
    f = make_field(5, 2)
    for a in range(5):
        ae = f.from_int(a)
        for xi in range(0, f.order, 3):
            for yi in range(0, f.order, 4):
                x, y = f.element(xi), f.element(yi)
                assert trace_rel(ae * x + y) == ae * trace_rel(x) + trace_rel(y)


def test_trace_rel_rejects_bad_level():
    f = make_field(5, 4)
    with pytest.raises(ValueError):
        trace_rel(f.one, 3)


def test_hilbert90_exhaustive():
    # u^p - u = c is solvable exactly when the absolute trace of c is zero
    for p, n in ((5, 2), (2, 4), (5, 5)):
        f = make_field(p, n)
        image = {(x ** p - x).index for x in f}
        for c in f:
            assert (c.index in image) == (absolute_trace(c) == 0)


def test_first_elem_with_trace():
    f = make_field(5, 2)
    assert first_elem_with_trace(f, 0) == f.zero
    # scan oracle: smallest index with absolute trace 1
    want = next(e for e in f if absolute_trace(e) == 1)
    got = first_elem_with_trace(f, 1)
    assert got == want
    assert got.index == 3  # the constant 3, trace 6 = 1


@pytest.mark.parametrize("d", [0, 3, -1])
def test_first_elem_with_trace_checks_its_level_first(d):
    # a level that does not divide n is refused before the trace system of
    # any level is reduced and cached
    f = make_field(5, 4)
    cached = set(f._trace_cache)
    with pytest.raises(ValueError,
                       match=f"^trace level {d} does not divide the extension degree 4$"):
        first_elem_with_trace(f, 0, d)
    assert set(f._trace_cache) == cached


def test_first_elem_with_trace_when_trace_kills_constants():
    # 5 | 5 so every constant has trace 0 in F_{5^5}; a representative still exists
    f = make_field(5, 5)
    b = first_elem_with_trace(f, 1)
    assert absolute_trace(b) == 1
    assert any(b.coeffs[1:])


def test_index_roundtrip_exhaustive():
    for p, n in ((2, 5), (3, 3), (7, 2)):
        f = make_field(p, n)
        for i in range(f.order):
            assert f.element(i).index == i
    with pytest.raises(ValueError):
        make_field(3, 3).element(27)


def test_subfield_elements():
    f = make_field(3, 4)
    sub = subfield_elements(f, 2)
    assert len(sub) == 9
    assert all(frobenius(e, 2) == e for e in sub)


@pytest.mark.parametrize("p,n", [(2, 1), (7, 1), (2, 6), (3, 4), (3, 6), (5, 3), (7, 2)])
def test_first_elem_with_trace_is_smallest_index_at_every_level(p, n):
    f = make_field(p, n)
    for d in (d for d in range(1, n + 1) if n % d == 0):
        first = {}
        for e in f:
            first.setdefault(trace_rel(e, d).index, e)
        for t in subfield_elements(f, d):
            assert first_elem_with_trace(f, t, d) == first[t.index]
        outside = next((e for e in f if frobenius(e, d) != e), None)
        if outside is not None:
            with pytest.raises(ValueError):
                first_elem_with_trace(f, outside, d)


# Differential tests of the F_p linear-algebra field layer against the
# element-walking oracles in tests/oracles.py.

_MODULUS_FIELDS = sorted(
    {(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 15) if p ** n <= 1 << 14}
    | {(2, n) for n in range(16, 21)} | {(3, n) for n in range(9, 13)}
    | {(13, 5), (401, 2), (1009, 2)})


@pytest.mark.parametrize("p,n", _MODULUS_FIELDS)
def test_sieved_modulus_matches_unsieved_search(p, n):
    assert make_field(p, n).modulus == first_irreducible_modulus(p, n)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _fields(max_order):
    """(p, n) with p^n <= max_order, the extension degree drawn first so that
    the many prime fields do not crowd out the extensions."""
    return st.integers(1, max_order.bit_length() - 1).flatmap(
        lambda n: st.sampled_from([(p, n) for p in range(2, max_order + 1)
                                   if is_prime(p) and p ** n <= max_order]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subfield_elements_match_fixed_point_scan(data):
    p, n = data.draw(_fields(6561))
    d = data.draw(st.sampled_from(_divisors(n)))
    f = make_field(p, n)
    assert subfield_elements(f, d) == subfield_by_scan(f, d)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_artin_schreier_rows_map_x_to_x_to_the_p_d_minus_x(data):
    p, n = data.draw(_fields(3000))
    d = data.draw(st.sampled_from(_divisors(n)))
    f = make_field(p, n)
    x = f.element(data.draw(st.integers(0, f.order - 1)))
    rows = f.artin_schreier_rows(d)
    image = [sum(c * row[j] for c, row in zip(x.coeffs, rows)) % p for j in range(n)]
    assert Elem(f, tuple(image)) == frobenius(x, d) - x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_first_elem_with_trace_matches_smallest_index_search(data):
    # fields and levels interleave, so a trace system cached under the wrong
    # key is met by a later call for another level of the same field
    for _ in range(data.draw(st.integers(2, 6))):
        p, n = data.draw(_fields(729))
        d = data.draw(st.sampled_from(_divisors(n)))
        first = first_index_by_trace(p, n, d)
        t = data.draw(st.sampled_from(sorted(first)))
        f = make_field(p, n)
        got = first_elem_with_trace(f, f.element(t), d)
        assert got.index == first[t]
        if d == 1:
            assert first_elem_with_trace(f, t) == got

"""Cross-checks: the quotient scan against the full-scan reference, with
and without its trail, on admissible parameters (a trace-zero one is
refused before any generator runs), the bit-sliced generator for p = 2, 3
against the packed one, and count_zeros against a BiPoly.eval census."""

import pytest
from hypothesis import given, settings, strategies as st

from permrat import _count, _kernel_py, _sliced, backend
from permrat.cli import main
from permrat.curves import BiPoly, collision_curve, criterion_sextic, symmetric_quartic
from permrat.field import (Elem, _Packed, _Slots, first_elem_with_trace, frobenius, is_prime,
                           make_field, trace_rel)
from permrat.maps import MapSpec, is_permutation

from oracles import inv_reference, mul_reference, perm_scan_reference


@pytest.mark.parametrize("p,n,b_index,d", [
    (5, 2, 1, 1),
    (5, 2, 3, 1),
    (3, 4, 1, 1),
    (5, 3, 2, 1),
    (7, 2, 1, 1),
    (3, 4, 5, 2),
    (2, 5, 1, 1),
])
def test_is_permutation_matches_reference_scan(p, n, b_index, d):
    ctx = make_field(p, n)
    spec = MapSpec(ctx, ctx.element(b_index), d)
    report = is_permutation(spec)
    ok, witness, evals = perm_scan_reference(p, n, d, spec.b.coeffs)
    assert report.is_permutation == ok
    assert report.evaluations == evals
    if witness is None:
        assert report.witness is None
    else:
        assert tuple(e.index for e in report.witness) == tuple(witness)


def test_select_returns_the_pure_kernel():
    for p in (2, 5, 1 << 32):
        assert backend.select(p).BACKEND == "pure"
        assert backend.select(p).count_zeros is _count.count_zeros
    assert backend.have_compiled() is False
    with pytest.raises(AttributeError, match="no_such_kernel"):
        _kernel_py.no_such_kernel  # noqa: B018


def test_unknown_backend_name_rejected(capsys, monkeypatch):
    monkeypatch.setenv("PERMRAT_BACKEND", "numpy")
    assert main(["permcheck", "--p", "5", "--n", "2", "--b-index", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unknown backend 'numpy'" in out.err


def _scan(scan, ctx, d, b):
    return scan(ctx.p, ctx.n, d, b.coeffs)


def _admissible(ctx, b, d):
    """b, or b + (the first element of level-d trace 1) when b has level-d
    trace 0: either way an admissible parameter."""
    return b if trace_rel(b, d) else b + first_elem_with_trace(ctx, 1, d)


# Every F_{p^n} with q <= 3^8: each with n > 1 is drawn as often as all the
# prime fields together, whose scans have one representative.
_SCAN_FIELDS = [(p, n) for p in range(2, 82) if is_prime(p)
                for n in range(2, 13) if p ** n <= 3 ** 8]
_SCAN_PRIMES = [p for p in range(2, 3 ** 8 + 1) if is_prime(p)]


def _without_trail(mp):
    """A trail of length 0: every collision takes the second pass."""
    mp.setattr(_kernel_py, "_TRAIL_FLOOR", 0)
    mp.setattr(_kernel_py, "_TRAIL_SHIFT", 64)


def _check_scan_against_reference(data, trail=True):
    # verdict, witness and evaluations; p = 3 at d > 1 collides in the
    # sliced generator, at F_{3^8}, d = 4 also past the default trail
    p, n = data.draw(st.sampled_from([*_SCAN_FIELDS, (None, 1)]))
    if p is None:
        p = data.draw(st.sampled_from(_SCAN_PRIMES))
    d = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    ctx = make_field(p, n)
    b = _admissible(ctx, ctx.element(data.draw(st.integers(0, ctx.order - 1))), d)
    with pytest.MonkeyPatch.context() as mp:
        if not trail:
            _without_trail(mp)
        fast = _scan(_kernel_py.perm_scan, ctx, d, b)
    assert fast == _scan(perm_scan_reference, ctx, d, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quotient_scan_matches_full_scan(data):
    _check_scan_against_reference(data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_scan_without_trail_matches_full_scan(data):
    # every collision resolved by the second pass over the generator
    _check_scan_against_reference(data, trail=False)


@pytest.mark.parametrize("trail", [True, False], ids=["trail", "second-pass"])
@pytest.mark.parametrize("p,n,d,b_index,k2", [(5, 3, 1, 1, 2), (3, 4, 2, 3, 5), (3, 8, 4, 9, 99),
                                              (3, 8, 4, 729, 738)])
def test_collision_in_the_trail_takes_one_pass(monkeypatch, trail, p, n, d, b_index, k2):
    # a collision at representative k2 runs the generator once within the
    # trail (512 representatives here) and twice past it
    passes = []
    owner, name = (_sliced, "image_blocks") if p <= 3 else (_kernel_py, "_image_blocks")
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: passes.append(args) or real(*args))
    if not trail:
        _without_trail(monkeypatch)
    ctx = make_field(p, n)
    b = ctx.element(b_index)
    assert trace_rel(b, d)
    ok, witness, evals = _kernel_py.perm_scan(p, n, d, b.coeffs)
    assert (ok, witness, evals) == perm_scan_reference(p, n, d, b.coeffs)
    assert witness[1] == p * k2
    assert len(passes) == (1 if trail and k2 < 512 else 2)


@pytest.mark.parametrize("p,n,d", [(2, 4, 1), (3, 4, 2), (5, 2, 1), (7, 1, 1)])
def test_trace_zero_parameter_raises_in_both_scans(p, n, d):
    # b = 0 has trace 0 and the denominator vanishes at x = 0
    ctx = make_field(p, n)
    for scan in (_kernel_py.perm_scan, perm_scan_reference):
        with pytest.raises(ValueError):
            scan(p, n, d, ctx.zero.coeffs)


def _route_packed(monkeypatch):
    """Send perm_scan at p = 2, 3 through the packed generator, in place of
    the sliced one that these scans always use."""
    monkeypatch.setattr(_sliced, "image_blocks", _kernel_py._image_blocks)


def _spy_generators(monkeypatch):
    """Replace both generators by stubs; returns the list their calls go to."""
    calls = []
    for owner, name in ((_kernel_py, "_image_blocks"), (_sliced, "image_blocks")):
        monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or iter(()))
    return calls


def _entry_error(p, n, d, b_digits):
    with pytest.raises(ValueError) as err:
        _kernel_py.perm_scan(p, n, d, b_digits)
    return str(err.value)


def _assert_refused(p, n, d, b):
    # the message is MapSpec's, the one refusal of a trace-zero b
    with pytest.raises(ValueError) as spec_err:
        MapSpec(b.field, b, d)
    assert _entry_error(p, n, d, b.coeffs) == str(spec_err.value)


def _trace_zero_cases():
    cases = []
    for p, n, d in [(2, 3, 1), (2, 4, 1), (3, 3, 1), (5, 2, 1), (3, 4, 2)]:
        ctx = make_field(p, n)
        cases += [(p, n, d, i) for i in range(ctx.order) if not trace_rel(ctx.element(i), d)]
    return cases


@pytest.mark.parametrize("chunks", [None, (1, 2)], ids=["default-chunks", "tiny-chunks"])
@pytest.mark.parametrize("p,n,d,b_index", _trace_zero_cases())
def test_vanishing_denominator_is_met_in_index_order(monkeypatch, chunks, p, n, d, b_index):
    # a trace-zero b, whose denominator the index-order reference meets
    # somewhere, is refused at perm_scan's entry at any chunk size, so no
    # chunk of the packed generator ever holds a zero denominator
    if chunks:
        _route_packed(monkeypatch)
        monkeypatch.setattr(_kernel_py, "_CHUNK_FIRST", chunks[0])
        monkeypatch.setattr(_kernel_py, "_CHUNK_CAP", chunks[1])
    calls = _spy_generators(monkeypatch)
    _assert_refused(p, n, d, make_field(p, n).element(b_index))
    assert calls == []


@pytest.mark.parametrize("p,n,d,b_index", [c for c in _trace_zero_cases() if c[0] <= 3])
def test_vanishing_denominator_in_a_later_lane_chunk(monkeypatch, p, n, d, b_index):
    # the same with the sliced generator at chunks of p lanes: no lane
    # chunk ever holds a zero denominator
    monkeypatch.setattr(_sliced, "_LANE_CAP", p)
    calls = _spy_generators(monkeypatch)
    _assert_refused(p, n, d, make_field(p, n).element(b_index))
    assert calls == []


def test_every_trace_zero_parameter_is_refused_at_entry(monkeypatch):
    # every F_{p^n} with q <= 3^6, every level d | n, every b of level-d
    # trace 0; and a level that does not divide n
    fields = [(p, n) for p in range(2, 3 ** 6 + 1) if is_prime(p)
              for n in range(1, 10) if p ** n <= 3 ** 6]
    calls = _spy_generators(monkeypatch)
    refused = 0
    for p, n in fields:
        ctx = make_field(p, n)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for b in ctx:
                if not trace_rel(b, d):
                    _assert_refused(p, n, d, b)
                    refused += 1
    b = first_elem_with_trace(make_field(3, 3), 1)
    assert "does not divide" in _entry_error(3, 3, 2, b.coeffs)
    assert calls == []
    assert refused == sum(p ** (n - d) for p, n in fields for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("p,n", [(2, 13), (3, 8)])
def test_full_scan_past_the_chunk_cap(monkeypatch, p, n):
    # p^(n-1) representatives span several capped chunks of either
    # generator; p = 2, 3 with nonzero trace permute, so every scan runs to
    # the end
    ctx = make_field(p, n)
    b = first_elem_with_trace(ctx, 1)
    ref = _scan(perm_scan_reference, ctx, 1, b)
    assert ref == (True, None, ctx.order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_sliced, "_LANE_CAP", 256)
        assert p ** (n - 1) > 2 * _sliced._LANE_CAP
        assert _scan(_kernel_py.perm_scan, ctx, 1, b) == ref
    _route_packed(monkeypatch)
    assert p ** (n - 1) > 2 * _kernel_py._CHUNK_CAP
    assert _scan(_kernel_py.perm_scan, ctx, 1, b) == ref


def test_small_p2_p3_scans_match_reference():
    # every F_{2^n}, n <= 4, and F_{3^n}, n <= 3, every level d | n and
    # every admissible b: down to one representative, the sliced generator
    # gives the verdict of the index-order full scan
    cases = 0
    for p, top in ((2, 4), (3, 3)):
        for n in range(1, top + 1):
            ctx = make_field(p, n)
            for d in (d for d in range(1, n + 1) if n % d == 0):
                for b in (b for b in ctx if trace_rel(b, d)):
                    assert (_scan(_kernel_py.perm_scan, ctx, d, b)
                            == _scan(perm_scan_reference, ctx, d, b)), (p, n, d, b)
                    cases += 1
    assert cases == 112


# p = 2, 3: every n with q <= 2^13 or q <= 3^8, every level d | n.
_SLICED_FIELDS = [(p, n, d) for p, top in ((2, 13), (3, 8)) for n in range(1, top + 1)
                  for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("lanes", [None, "p^2"], ids=["default-lanes", "p2-lanes"])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sliced_stream_matches_packed(lanes, data):
    # item for item, for admissible b; p^2 lanes put chunk borders and the
    # high-digit odometer into small fields
    fields = [f for f in _SLICED_FIELDS if f[1] <= 9] if lanes else _SLICED_FIELDS
    p, n, d = data.draw(st.sampled_from(fields))  # p^2 lanes: p^(n-3) chunks
    ctx = make_field(p, n)
    b = _admissible(ctx, ctx.element(data.draw(st.integers(0, ctx.order - 1))), d)
    args = (ctx, d, b.coeffs)
    with pytest.MonkeyPatch.context() as mp:
        if lanes:
            mp.setattr(_sliced, "_LANE_CAP", p * p)
        sliced = list(_sliced.image_blocks(*args))
    assert sliced == list(_kernel_py._image_blocks(*args))


def _lane_planes(ctx, elems):
    """The sliced element with lane k = elems[k]."""
    planes = []
    for i in range(ctx.n):
        marks = [sum(1 << k for k, e in enumerate(elems) if e.coeffs[i] == v)
                 for v in range(1, ctx.p)]
        planes.append(marks[0] if ctx.p == 2 else tuple(marks))
    return planes


def _lane_elems(fld, ctx, planes, lanes):
    """Inverse of _lane_planes."""
    elems = []
    for k in range(lanes):
        coeffs = []
        for digit in planes:
            marks = fld.bits(digit)
            coeffs.append(sum(v * (marks[v - 1] >> k & 1) for v in range(1, ctx.p)))
        elems.append(Elem(ctx, tuple(coeffs)))
    return elems


@pytest.mark.parametrize("p", [2, 3])
def test_sliced_digit_ops_on_all_pairs(p):
    pairs = [(a, c) for a in range(p) for c in range(p)]
    ctx = make_field(p, 1)
    fld = (_sliced._F2 if p == 2 else _sliced._F3)(ctx, (1 << len(pairs)) - 1)
    a = _lane_planes(ctx, [ctx.element(x) for x, _ in pairs])
    c = _lane_planes(ctx, [ctx.element(y) for _, y in pairs])

    def values(planes):
        return [e.coeffs[0] for e in _lane_elems(fld, ctx, planes, len(pairs))]

    assert values(fld.add(a, c)) == [(x + y) % p for x, y in pairs]
    assert values(fld.mul(a, c)) == [x * y % p for x, y in pairs]
    for k in range(p):
        assert values(fld.add_const(a, [k])) == [(x + k) % p for x, _ in pairs]
        assert values([fld.scale(a[0], k)]) == [k * x % p for x, _ in pairs]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sliced_arithmetic_matches_field(data):
    p, n, _ = data.draw(st.sampled_from(_SLICED_FIELDS))
    ctx = make_field(p, n)
    elems = st.integers(0, ctx.order - 1).map(ctx.element)
    lanes = data.draw(st.integers(1, 40))
    xs = data.draw(st.lists(elems, min_size=lanes, max_size=lanes))
    ys = data.draw(st.lists(elems, min_size=lanes, max_size=lanes))
    fld = (_sliced._F2 if p == 2 else _sliced._F3)(ctx, (1 << lanes) - 1)
    a, c = _lane_planes(ctx, xs), _lane_planes(ctx, ys)
    assert _lane_elems(fld, ctx, fld.mul(a, c), lanes) == [x * y for x, y in zip(xs, ys)]
    assert _lane_elems(fld, ctx, fld.inverse(a), lanes) == [
        x.inverse() if x else ctx.zero for x in xs]
    if n > 1:
        l = data.draw(st.integers(1, n - 1))
        assert _lane_elems(fld, ctx, fld.frobenius(a, l), lanes) == [frobenius(x, l) for x in xs]


# Every F_{p^n} with q <= 3000.
_ALL_FIELDS = [(p, n) for p in range(2, 3001) if is_prime(p)
               for n in range(1, 12) if p ** n <= 3000]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_arithmetic_matches_field(data):
    p, n = data.draw(st.sampled_from(_ALL_FIELDS))
    ctx = make_field(p, n)
    bmax = (p - 1) * (1 + (n - 1) * (p - 1))  # the scan's unreduced denominators
    pk = _Packed(ctx, bmax)
    digits = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)
    a, add = data.draw(digits), data.draw(digits)
    b_raw = data.draw(st.lists(st.integers(0, bmax), min_size=n, max_size=n))
    for a, add, b_raw in ((a, add, b_raw), ((p - 1,) * n, (p - 1,) * n, [bmax] * n)):
        b = tuple(c % p for c in b_raw)
        got = pk.mul(pk.pack(a), pk.pack(b_raw), pk.pack(add))
        assert pk.unpack(got) == ctx._add(mul_reference(ctx, a, b), add)
        assert got == pk.pack(pk.unpack(got))  # canonical: n slots, each below p
        if any(a):
            assert pk.unpack(pk.inv(pk.pack(a))) == inv_reference(ctx, a)
    with pytest.raises(ZeroDivisionError):
        pk.inv(0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_slots_read_inverts_pack(data):
    # one-byte slots (p = 2, 251) and multi-byte slots (p = 257, 65537)
    p = data.draw(st.sampled_from([2, 251, 257, 65537]))
    bound = data.draw(st.integers(p, 6 * (p - 1) ** 2 + 1))  # every slot below it
    slots = _Slots(make_field(p), bound)
    vals = data.draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p)
                     if p < 300 else st.just(list(range(p))))
    packed = slots.pack(vals)
    assert list(slots.read(packed)) == vals
    assert slots.reduce(packed) == packed  # canonical: every slot below p


def test_slots_planes_match_field_powers():
    # every F_{p^n} with q <= 729, at exponents below, at and past q, and
    # F_{257^2}, whose digits take two bytes, on every 101st element
    for p, n in [(p, n) for p, n in _ALL_FIELDS if p ** n <= 729] + [(257, 2)]:
        f = make_field(p, n)
        q = f.order
        exps = {0, 1, 2, p, q - 1, q, q + 1, 2 * q + 3, 99999999999999999999}
        if q > 729:
            exps = {0, 1, 2, q + 1}
        slots = _Slots(f, n * (p - 1) ** 2 + 1)
        planes = slots.planes(exps)
        assert set(planes) == exps
        sample = range(0, q, 1 if q <= 729 else 101)
        for e in exps:
            digits = list(zip(*map(slots.read, planes[e])))
            assert [digits[z] for z in sample] == [
                f._pow(f.element(z).coeffs, e) for z in sample], (p, n, e)


# Every F_{p^n} with q <= 49: the packed count_zeros against a BiPoly.eval census.
_COUNT_FIELDS = [(p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
                 for n in range(1, 6) if p ** n <= 49]


def _census(poly):
    """(count, zeros) by evaluating poly at every point, x index then y index."""
    f = poly.field
    elems = list(f)
    zeros = [(x.index, y.index) for x in elems for y in elems if not poly.eval(x, y)]
    return len(zeros), zeros


def _kernel_count(poly, collect):
    f = poly.field
    terms = [(i, j, poly.terms[(i, j)].coeffs) for (i, j) in sorted(poly.terms)]
    return _count.count_zeros(f.p, f.n, terms, collect)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_count_zeros_matches_eval_census(data):
    p, n = data.draw(st.sampled_from(_COUNT_FIELDS))
    f = make_field(p, n)
    # past q, so exponents fold, and terms can fold onto one (i, j)
    exps = st.tuples(st.integers(0, 3 * f.order + 1), st.integers(0, 3 * f.order + 1))
    coeff = st.integers(1, f.order - 1).map(f.element)
    poly = BiPoly(f, data.draw(st.dictionaries(exps, coeff, max_size=5)))
    count, zeros = _census(poly)
    assert _kernel_count(poly, True) == (count, zeros)
    assert _kernel_count(poly, False) == (count, None)


def test_count_zeros_matches_census_prime_and_extension():
    f52 = make_field(5, 2)
    polys = [
        criterion_sextic(make_field(13, 1), 5),
        symmetric_quartic(make_field(13, 1), 5),
        BiPoly(make_field(7, 1), {}),
        BiPoly(make_field(7, 1), {(0, 0): 3}),
        collision_curve(f52, f52.from_int(3)),
    ]
    for poly in polys:
        assert _kernel_count(poly, True) == _census(poly)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 5), (3, 3), (7, 2), (47, 1)])
def test_count_zeros_degenerate_polynomials(p, n):
    f = make_field(p, n)
    q = f.order
    c = f.element(q - 1)
    every = [(x, y) for x in range(q) for y in range(q)]
    assert _kernel_count(BiPoly(f, {}), True) == (q * q, every)
    assert _kernel_count(BiPoly(f, {(0, 0): c}), True) == (0, [])
    x_only = BiPoly(f, {(2, 0): c, (1, 0): f.one})  # zeros: x = 0 and x = -1/c
    assert _kernel_count(x_only, True) == _census(x_only)
    assert _kernel_count(x_only, False)[0] == 2 * q

"""Map evaluation, permutation scans, and the parameter equivalence."""

import random

import pytest

from permrat import _kernel_py
from permrat.field import absolute_trace, first_elem_with_trace, frobenius, make_field
from permrat.maps import (
    MapSpec,
    denominator,
    eval_f,
    is_permutation,
    subfield_trace_reps,
    trace_class_reps,
    verify_witness,
)

from oracles import conjugate_b, difference_value


def test_subfield_inputs_shift_by_inverse_of_b():
    # for x in F_5 embedded in F_25, x^5 = x, so f(x) = x + 3^{-1} = x + 2
    f = make_field(5, 2)
    spec = MapSpec(f, f.from_int(3))
    for c in range(5):
        assert eval_f(spec, f.from_int(c)) == f.from_int(c + 2)
    assert eval_f(spec, f.zero) == f.from_int(2)


def test_trace_hypothesis_is_a_construction_error():
    f = make_field(2, 2)
    with pytest.raises(ValueError):
        MapSpec(f, f.one)  # Tr(1) = 1 + 1 = 0 over F_4
    f5 = make_field(5, 5)
    with pytest.raises(ValueError):
        MapSpec(f5, f5.from_int(2))  # constants have trace 5c = 0


def test_f4_trace_one_rep_permutes():
    f = make_field(2, 2)
    (b,) = trace_class_reps(f)
    spec = MapSpec(f, b)
    images = {eval_f(spec, x).index for x in f}
    assert len(images) == 4


def test_f25_trace_two_image_repeats():
    f = make_field(5, 2)
    spec = MapSpec(f, f.one)  # trace 2
    images = [eval_f(spec, x).index for x in f]
    assert len(set(images)) < f.order


@pytest.mark.parametrize("p,n,b_index,expected", [
    (3, 4, 1, True),
    (5, 2, 3, True),
    (5, 2, 1, False),
])
def test_is_permutation_spot_values(p, n, b_index, expected):
    f = make_field(p, n)
    report = is_permutation(MapSpec(f, f.element(b_index)))
    assert report.is_permutation is expected
    if expected:
        assert report.witness is None
        assert report.evaluations == f.order
    else:
        assert report.witness is not None


def test_degree_five_scan_with_witness():
    f = make_field(5, 5)
    for b in trace_class_reps(f):
        spec = MapSpec(f, b)
        report = is_permutation(spec)
        assert report.is_permutation is False
        assert verify_witness(spec, report.witness)


def test_witness_shape_and_determinism():
    f = make_field(5, 2)
    spec = MapSpec(f, f.one)
    r1 = is_permutation(spec)
    r2 = is_permutation(spec)
    i1, i2 = r1.witness[0].index, r1.witness[1].index
    assert (i1, i2) == (r2.witness[0].index, r2.witness[1].index) == (1, 10)
    assert i1 < i2
    assert r1.evaluations == r2.evaluations == 13


def test_scan_cap_enforced(monkeypatch):
    # HARD_SCAN_CAP = 2^32 is the one bound on a scan's field order; the
    # refusal comes before the kernel, which must not start a 2^33 scan
    monkeypatch.setattr(_kernel_py, "perm_scan", lambda *args: pytest.fail("scan started"))
    f = make_field(2, 33)
    spec = MapSpec(f, first_elem_with_trace(f, 1))
    with pytest.raises(ValueError, match=r"^field order 8589934592 exceeds the scan cap "
                                         r"4294967296$"):
        is_permutation(spec)


def test_totality_full_scan():
    f = make_field(5, 5)
    b = first_elem_with_trace(f, 1)
    spec = MapSpec(f, b)
    assert all(denominator(spec, x) for x in f)


def test_collision_count_consistency():
    # distinct images plus repeat events account for every argument
    f = make_field(5, 2)
    spec = MapSpec(f, f.one)
    seen = {}
    for x in f:
        i = eval_f(spec, x).index
        seen[i] = seen.get(i, 0) + 1
    distinct = len(seen)
    repeats = sum(c - 1 for c in seen.values())
    assert distinct + repeats == f.order


def test_conjugate_b_trivial_and_trace():
    f = make_field(5, 3)
    b = f.from_int(2)
    assert conjugate_b(b, 1, f.zero) == b
    rng = random.Random(5)
    for _ in range(20):
        c = f.element(rng.randrange(f.order))
        eps = rng.choice((1, -1))
        b1 = conjugate_b(b, eps, c)
        assert absolute_trace(b1) == eps * absolute_trace(b) % 5


def test_conjugation_pointwise_identity_exhaustive():
    f = make_field(5, 3)
    rng = random.Random(17)
    for b in trace_class_reps(f):
        spec = MapSpec(f, b)
        for _ in range(10):
            eps = rng.choice((1, -1))
            c = f.element(rng.randrange(f.order))
            spec1 = MapSpec(f, conjugate_b(b, eps, c))
            ee = f.from_int(eps)
            for x in f:
                assert eval_f(spec, ee * x + c) == ee * eval_f(spec1, x) + c


def test_permutation_status_invariant_under_conjugation():
    f = make_field(5, 2)
    rng = random.Random(23)
    for b_index in (1, 3):
        b = f.element(b_index)
        verdict = is_permutation(MapSpec(f, b)).is_permutation
        for _ in range(8):
            eps = rng.choice((1, -1))
            c = f.element(rng.randrange(f.order))
            b1 = conjugate_b(b, eps, c)
            assert is_permutation(MapSpec(f, b1)).is_permutation == verdict


def test_trace_class_reps_shapes():
    # one representative per class {t, -t}: the first element of trace
    # t = 1 .. (p-1)/2 in index order
    reps = trace_class_reps(make_field(5, 1))
    assert [b.index for b in reps] == [1, 2]
    assert [absolute_trace(b) for b in reps] == [1, 2]
    f53 = make_field(5, 3)
    reps = trace_class_reps(f53)
    assert [b.index for b in reps] == [2, 4]       # constants: 3b = 1, 2
    assert [absolute_trace(b) for b in reps] == [1, 2]
    assert all(not any(b.coeffs[1:]) for b in reps)
    f55 = make_field(5, 5)
    assert all(any(b.coeffs[1:]) for b in trace_class_reps(f55))
    f2 = make_field(2, 3)
    (b,) = trace_class_reps(f2)
    assert absolute_trace(b) == 1


def test_difference_value_zero_offset():
    f = make_field(5, 2)
    spec = MapSpec(f, f.from_int(3))
    assert difference_value(spec, f.element(7), f.zero) == f.zero


def test_difference_value_two_sided_agreement():
    # the routine raises if the closed form and the direct evaluation differ
    f = make_field(5, 2)
    spec = MapSpec(f, f.from_int(3))
    rng = random.Random(29)
    for _ in range(40):
        x = f.element(rng.randrange(f.order))
        y = f.element(rng.randrange(f.order))
        difference_value(spec, x, y)


def test_difference_vanishes_on_collision_curve():
    from permrat.curves import affine_zeros, collision_curve

    f = make_field(5, 2)
    b = f.one
    spec = MapSpec(f, b)
    zeros = [(x, y) for x, y in affine_zeros(collision_curve(f, b)) if y]
    assert zeros
    for x, y in zeros:
        assert difference_value(spec, x, y) == f.zero


def test_generalized_level_scan():
    # level d = n/2 on the quartic extension: the q-power variant
    f = make_field(3, 4)
    reps = [b for _t, b in subfield_trace_reps(f, 2)]
    assert reps
    for b in reps:
        spec = MapSpec(f, b, d=2)
        report = is_permutation(spec)
        assert report.witness is None or verify_witness(spec, report.witness)

#!/usr/bin/env python3
"""Timing comparison of the pure-Python and compiled scan kernels.

Times full scans of permuting maps (the worst case: the scan runs to the
end) and the affine zero count on a few representative sizes with each
backend, and prints a table with speedups.  Both backends return
bit-identical results; the script asserts that while it times them.  When
the compiled kernel is not built, the small scan rows are checked against
the element-by-element reference scan `perm_scan_reference` instead.

Usage:
    python benchmarks/bench_backends.py [--repeat N]
"""

import argparse
import time

from permrat import _kernel_py, backend
from permrat.curves import collision_curve, count_affine, criterion_sextic
from permrat.field import first_elem_with_trace, make_field
from permrat.maps import MapSpec, is_permutation, trace_class_reps

# p = 2, 3 with nonzero trace, and F_{p^2} with trace +-1, permute; the small
# fields are cheap enough for the reference scan
SMALL_SCANS = [(2, 8, 1), (3, 5, 1), (13, 2, 12)]
FULL_SCANS = [(2, 16, 1), (3, 10, 1), (401, 2, 400)]


def time_call(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _reference_scan(spec):
    f = spec.field
    return _kernel_py.perm_scan_reference(
        f.p, f.n, f.modulus, f.frobenius_rows(spec.d), spec.b.coeffs)


def _scan_row(p, n, t):
    ctx = make_field(p, n)
    spec = MapSpec(ctx, first_elem_with_trace(ctx, t))

    def scan(name):
        report = is_permutation(spec, backend_name=name)
        assert report.is_permutation, f"F_{p}^{n}: expected a permutation"
        return report.is_permutation, report.witness, report.evaluations

    name = f"full perm_scan F_{p}^{n} trace {t} ({ctx.order} elements)"
    return name, scan, spec


def scenarios():
    for p, n, t in SMALL_SCANS:
        name, scan, spec = _scan_row(p, n, t)
        yield name, scan, lambda s=spec: _reference_scan(s)
    for p, n, t in FULL_SCANS:
        name, scan, _ = _scan_row(p, n, t)
        yield name, scan, None
    counts = [("G", 97, 2), ("G", 61, 5)]
    for builtin, p, tau in counts:
        ctx = make_field(p, 1)
        poly = criterion_sextic(ctx, tau)
        yield (
            f"count_zeros {builtin} over F_{p} ({p * p} points)",
            lambda name, q=poly: count_affine(q, backend_name=name),
            None,
        )
    ctx = make_field(5, 3)
    poly = collision_curve(ctx, trace_class_reps(ctx)[0])
    yield (
        f"count_zeros collision curve over F_125 ({125 * 125} points)",
        lambda name, q=poly: count_affine(q, backend_name=name),
        None,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if not backend.have_compiled():
        print("compiled kernel not built; timing the pure backend only and "
              "checking the small scans against the reference scan\n")

    header = f"{'scenario':<56} {'pure':>10} {'compiled':>10} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, fn, reference in scenarios():
        t_pure, r_pure = time_call(lambda: fn("pure"), args.repeat)
        if backend.have_compiled():
            t_comp, r_comp = time_call(lambda: fn("compiled"), args.repeat)
            assert r_pure == r_comp, f"backend mismatch in {name}"
            print(f"{name:<56} {t_pure:>9.4f}s {t_comp:>9.4f}s {t_pure / t_comp:>8.1f}x")
        else:
            if reference is not None:
                assert r_pure == reference(), f"pure scan differs from the reference in {name}"
            print(f"{name:<56} {t_pure:>9.4f}s {'-':>10} {'-':>9}")


if __name__ == "__main__":
    main()

"""The rational map family f_b(x) = x + (x^{p^d} - x + b)^{-1} over F_{p^n}.

The level d (d | n, default 1) selects which power-Frobenius appears in the
denominator; d = n/2 gives the prime-power variant of the map on a quadratic
extension.  The standing hypothesis is that the level-d trace of b is
nonzero: by additive Hilbert 90, u^{p^d} - u = -b then has no solution, so
the denominator never vanishes and f_b is total on the field.
"""

from __future__ import annotations

from . import backend
from ._record import FrozenRecord
from .field import Elem, Field, first_elem_with_trace, frobenius, subfield_elements, trace_rel

HARD_SCAN_CAP = 1 << 32


class MapSpec(FrozenRecord):
    """One member of the family: field, parameter b, Frobenius level d."""

    __slots__ = ("field", "b", "d")

    def __init__(self, field: Field, b: Elem, d: int = 1):
        self._set(field=field, b=b, d=d)
        if b.field != field:
            raise ValueError("parameter b must live in the map's field")
        if d < 1 or field.n % d != 0:
            raise ValueError(f"Frobenius level {d} must divide n = {field.n}")
        if not trace_rel(b, d):
            raise ValueError(
                "trace hypothesis violated: the level-%d trace of b is zero" % d
            )


class PermReport(FrozenRecord):
    """Scan verdict. witness is an (x1, x2) pair with x1 != x2, f(x1) = f(x2).

    evaluations is the count of the canonical index-order scan: p^n for a
    permutation, i1 + i2 + 2 for a witness with indices (i1, i2).  It fixes
    the report bytes; the kernel may evaluate f fewer times.
    """

    __slots__ = ("is_permutation", "witness", "evaluations")

    def __init__(self, is_permutation: bool, witness: tuple[Elem, Elem] | None,
                 evaluations: int):
        self._set(is_permutation=is_permutation, witness=witness, evaluations=evaluations)


def denominator(spec: MapSpec, x: Elem) -> Elem:
    return frobenius(x, spec.d) - x + spec.b


def eval_f(spec: MapSpec, x: Elem) -> Elem:
    """f_b(x); total on the field thanks to the trace hypothesis."""
    if x.field != spec.field:
        raise ValueError("argument from a different field context")
    return x + denominator(spec, x).inverse()


def check_scan_order(order: int) -> None:
    """Refuse a scan of a field of order above HARD_SCAN_CAP (ValueError)."""
    if order > HARD_SCAN_CAP:
        raise ValueError(f"field order {order} exceeds the scan cap {HARD_SCAN_CAP}")


def is_permutation(spec: MapSpec) -> PermReport:
    """Exact bijectivity verdict by the kernel's `perm_scan`.

    Verdict, witness and evaluations are those of the serial index-order
    scan: the witness is the first collision in index order, paired with the
    smallest earlier preimage of the repeated value, so reruns agree bit for
    bit.  Fields of order above HARD_SCAN_CAP are refused with ValueError.
    """
    f = spec.field
    check_scan_order(f.order)
    kern = backend.select(f.p)
    ok, witness_idx, evals = kern.perm_scan(f.p, f.n, spec.d, spec.b.coeffs)
    witness = None
    if witness_idx is not None:
        witness = (f.element(witness_idx[0]), f.element(witness_idx[1]))
    return PermReport(bool(ok), witness, evals)


def witness_image(spec: MapSpec, witness: tuple[Elem, Elem]) -> Elem:
    """The common image f(x1) = f(x2) of a collision witness (x1, x2),
    re-evaluated under eval_f, once at each point, independently of the
    kernel.  Raises RuntimeError unless x1 != x2 and the images agree."""
    x1, x2 = witness
    if x1 != x2:
        y = eval_f(spec, x1)
        if y == eval_f(spec, x2):
            return y
    raise RuntimeError("witness failed re-verification")


def verify_witness(spec: MapSpec, witness: tuple[Elem, Elem]) -> bool:
    """Whether a collision witness re-verifies under eval_f (`witness_image`)."""
    try:
        witness_image(spec, witness)
    except RuntimeError:
        return False
    return True


def trace_class_reps(ctx: Field) -> list[Elem]:
    """One parameter per trace class {t, -t}, t in F_p^*.

    For odd p these are the first elements with absolute trace 1 .. (p-1)/2;
    for p = 2 the single trace-1 representative.  Each is the smallest index
    with its trace, so deterministic for a given field.
    """
    if ctx.p == 2:
        return [first_elem_with_trace(ctx, 1)]
    return [first_elem_with_trace(ctx, t) for t in range(1, (ctx.p - 1) // 2 + 1)]


def subfield_trace_reps(ctx: Field, d: int) -> list[tuple[Elem, Elem]]:
    """(t, b) pairs: one trace target per sign pair {t, -t} in the order-p^d
    subfield's nonzero elements, with b the first element whose level-d trace
    is t.  The subfield comes from a kernel basis of Frob^d - I, so the work
    grows with p^d, the number of targets, not with the field."""
    pairs = []
    for t in subfield_elements(ctx, d):
        if not t:
            continue
        if (-t).index < t.index:
            continue
        pairs.append((t, first_elem_with_trace(ctx, t, d)))
    return pairs

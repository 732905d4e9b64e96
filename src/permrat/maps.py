"""The rational map family f_b(x) = x + (x^{p^d} - x + b)^{-1} over F_{p^n}.

The level d (d | n, default 1) selects which power-Frobenius appears in the
denominator; d = n/2 gives the prime-power variant of the map on a quadratic
extension.  The standing hypothesis is that the level-d trace of b is
nonzero: by additive Hilbert 90, u^{p^d} - u = -b then has no solution, so
the denominator never vanishes and f_b is total on the field.
"""

from __future__ import annotations

from . import backend
from .field import Elem, Field, first_elem_with_trace, frobenius, subfield_elements

HARD_SCAN_CAP = 1 << 32


class FrozenRecord:
    """A frozen value class without `dataclasses`, whose import (it pulls in
    `inspect`) costs every CLI process several milliseconds.  A subclass
    lists its fields in `__slots__`, in constructor order, and assigns them
    in `__init__` with `_set`.  It gets value equality (same class, equal
    fields), a repr naming the fields, hashing by its fields, and refuses
    assignment, as a frozen dataclass does."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")


class MapSpec(FrozenRecord):
    """One member of the family: field, parameter b, Frobenius level d, with
    b refused by `Field.check_trace_hypothesis` (and d by `check_level`)."""

    __slots__ = ("field", "b", "d")

    def __init__(self, field: Field, b: Elem, d: int = 1):
        self._set(field=field, b=b, d=d)
        if b.field != field:
            raise ValueError("parameter b must live in the map's field")
        field.check_trace_hypothesis(b.coeffs, d)


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


def witness_record(spec: MapSpec, witness: tuple[Elem, Elem]) -> tuple[dict, Elem]:
    """The report record {"i1", "i2", "coeffs1", "coeffs2"} of a collision
    witness and its common image, after `witness_image` re-verifies it."""
    image = witness_image(spec, witness)
    x1, x2 = witness
    return {"i1": x1.index, "i2": x2.index,
            "coeffs1": list(x1.coeffs), "coeffs2": list(x2.coeffs)}, image


def verify_witness(spec: MapSpec, witness: tuple[Elem, Elem]) -> bool:
    """Whether a collision witness re-verifies under eval_f (`witness_image`)."""
    try:
        witness_image(spec, witness)
    except RuntimeError:
        return False
    return True


def trace_class_reps(ctx: Field) -> list[Elem]:
    """One parameter per trace class {t, -t}, t in F_p^*.

    These are the first elements with absolute trace 1 .. floor(p/2): for
    odd p the traces 1 .. (p-1)/2, for p = 2 trace 1 alone.  Each is the
    smallest index with its trace, so deterministic for a given field.
    """
    return [first_elem_with_trace(ctx, t) for t in range(1, ctx.p // 2 + 1)]


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

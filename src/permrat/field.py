"""Arithmetic in F_p and F_{p^n} with a deterministic modulus convention.

An element of F_{p^n} is a coefficient vector (c0, ..., c_{n-1}) in the
polynomial basis, constant term first.  The integer sum(c_i * p^i) is the
element's *index*; indices enumerate the field as 0 .. p^n - 1 and are what
the scanning kernels use for bitset bookkeeping.

The modulus for F_{p^n} is the first monic irreducible polynomial of degree n
found when candidates are enumerated by increasing index of their non-leading
part, i.e. the constant coefficient varies fastest.  This makes every field,
element index, and reported witness reproducible without a polynomial table.
The search keeps that order and only sieves it: a candidate with a factor of
degree at most n/2 is dropped by a distinct-degree test before Rabin's test
confirms the first survivor.  Fields are cached and immutable, so they are
safe to share across threads.

Subfields and traces are F_p-linear, so they are found by row reduction over
F_p (`_row_reduce`), never by walking the field's elements.
"""

from __future__ import annotations

import functools

MAX_FIELD_ORDER = 1 << 40

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond the 2^40 field cap)."""
    if m < 2:
        return False
    for base in _MR_BASES:
        if m % base == 0:
            return m == base
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def prime_divisors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# Dense univariate polynomials over F_p, as plain lists (constant term first,
# no trailing zeros, [] is the zero polynomial).  These back both the field
# construction and the univariate toolkit in the curves module.

def ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return ptrim(out)


def psub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return ptrim(out)


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return ptrim(out)


def pdivmod(a, b, p):
    b = ptrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = ptrim(list(a))
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        d = len(a) - 1 - db
        c = a[-1] * inv_lead % p
        q[d] = c
        for i in range(db + 1):
            a[d + i] = (a[d + i] - c * b[i]) % p
        ptrim(a)
    return ptrim(q), a


def pgcd_monic(a, b, p):
    """Monic gcd; raises if both inputs are zero."""
    a, b = ptrim(list(a)), ptrim(list(b))
    if not a and not b:
        raise ValueError("gcd of two zero polynomials")
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    inv_lead = pow(a[-1], p - 2, p)
    return [c * inv_lead % p for c in a]


def ppowmod(a, e, mod, p):
    """a^e mod `mod` by binary exponentiation; e may be a huge integer."""
    result = [1]
    base = pdivmod(a, mod, p)[1]
    while e:
        if e & 1:
            result = pdivmod(pmul(result, base, p), mod, p)[1]
        e >>= 1
        if e:
            base = pdivmod(pmul(base, base, p), mod, p)[1]
    return result


def pinvmod(a, mod, p):
    """Inverse of a modulo an irreducible `mod`, by extended Euclid."""
    r0, r1 = list(mod), pdivmod(a, mod, p)[1]
    if not r1:
        raise ZeroDivisionError("inversion of zero")
    t0, t1 = [], [1]
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    # r0 is a nonzero constant because mod is irreducible and a is nonzero
    c = pow(r0[0], p - 2, p)
    return [x * c % p for x in t0]


def is_irreducible(f, p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p.

    f is a coefficient sequence, constant term first.  Checks
    X^{p^m} = X (mod f) and gcd(X^{p^{m/l}} - X, f) = 1 for every prime l
    dividing m = deg f.
    """
    f = ptrim(list(f))
    if not f or f[-1] % p != 1:
        raise ValueError("irreducibility test requires a monic polynomial")
    m = len(f) - 1
    if m < 1:
        raise ValueError("irreducibility test requires degree >= 1")
    x = [0, 1]
    if ppowmod(x, p ** m, f, p) != pdivmod(x, f, p)[1]:
        return False
    for ell in prime_divisors(m):
        g = psub(ppowmod(x, p ** (m // ell), f, p), pdivmod(x, f, p)[1], p)
        if pgcd_monic(g, f, p) != [1]:
            return False
    return True


def _no_factor_up_to_half(f, p: int) -> bool:
    """Ben-Or's distinct-degree test for a monic f of degree m >= 2 over F_p.

    True iff gcd(X^{p^i} - X, f) = 1 for every i <= m/2, i.e. f has no
    irreducible factor of degree at most m/2, which for degree m means f is
    irreducible.  X^{p^i} mod f is built by repeated p-th powering, and most
    reducible candidates already fail at i = 1 (a root in F_p).
    """
    x = [0, 1]
    h = x
    for _ in range((len(f) - 1) // 2):
        h = ppowmod(h, p, f, p)
        if pgcd_monic(psub(h, x, p), f, p) != [1]:
            return False
    return True


def _row_reduce(rows, p: int, width: int) -> list[int]:
    """Reduce `rows` (lists over F_p) in place to reduced row echelon form on
    their first `width` columns, pivots taken in column order; any further
    columns ride along with the row operations.  Returns the pivot columns:
    row r of the result has a 1 in column pivots[r] and 0 in every other
    pivot column, and the rows from len(pivots) on are 0 on the first
    `width` columns."""
    pivots = []
    for j in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][j], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            c = rows[i][j]
            if i != r and c:
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(j)
    return pivots


# ---------------------------------------------------------------------------
# Field contexts and elements.

class Field:
    """The finite field F_{p^n}.  Construct via make_field, not directly."""

    __slots__ = ("p", "n", "order", "modulus", "zero", "one", "_frob_cache", "_as_cache",
                 "_trace_cache")

    def __init__(self, p: int, n: int, modulus):
        self.p = p
        self.n = n
        self.order = p ** n
        self.modulus = modulus  # tuple of n+1 coeffs, constant first; None if n == 1
        self.zero = Elem(self, (0,) * n)
        self.one = Elem(self, (1,) + (0,) * (n - 1))
        self._frob_cache = {}
        self._as_cache = {}  # level d -> artin_schreier_rows(d)
        self._trace_cache = {}  # level d -> row-reduced trace system, see first_elem_with_trace

    def __repr__(self):
        if self.n == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.n})"

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __iter__(self):
        return (self.element(i) for i in range(self.order))

    def element(self, index: int) -> Elem:
        """Decode an index in [0, p^n) to its element."""
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for {self!r}")
        digits = []
        for _ in range(self.n):
            index, c = divmod(index, self.p)
            digits.append(c)
        return Elem(self, tuple(digits))

    def from_int(self, c: int) -> Elem:
        """Embed an integer as a constant (an element of the prime subfield)."""
        return Elem(self, (c % self.p,) + (0,) * (self.n - 1))

    # -- low-level coefficient-tuple arithmetic ----------------------------

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def _mul(self, a, b):
        p = self.p
        if self.n == 1:
            return (a[0] * b[0] % p,)
        prod = pmul(list(a), list(b), p)
        red = pdivmod(prod, list(self.modulus), p)[1]
        return tuple(red) + (0,) * (self.n - len(red))

    def _inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inversion of zero")
        p = self.p
        if self.n == 1:
            return (pow(a[0], p - 2, p),)
        iv = pinvmod(list(a), list(self.modulus), p)
        return tuple(iv) + (0,) * (self.n - len(iv))

    def _pow(self, a, e):
        result = self.one.coeffs
        base = a
        while e:
            if e & 1:
                result = self._mul(result, base)
            e >>= 1
            if e:
                base = self._mul(base, base)
        return result

    def frobenius_rows(self, k: int):
        """Matrix rows of x -> x^{p^k}: row i is the image of the basis X^i."""
        k %= self.n
        cached = self._frob_cache.get(k)
        if cached is not None:
            return cached
        n = self.n
        if k == 0 or n == 1:
            rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        else:
            xp = ppowmod([0, 1], self.p ** k, list(self.modulus), self.p)
            row = [1]
            rows_l = []
            for _ in range(n):
                rows_l.append(tuple(row) + (0,) * (n - len(row)))
                row = pdivmod(pmul(row, xp, self.p), list(self.modulus), self.p)[1]
            rows = tuple(rows_l)
        self._frob_cache[k] = rows
        return rows

    def artin_schreier_rows(self, d: int):
        """Matrix rows of the F_p-linear map L(x) = x^{p^d} - x: row i is the
        digit tuple of X^{i p^d} - X^i.  For d | n its kernel is the order-p^d
        subfield and its image the level-d trace-zero elements (additive
        Hilbert 90); the scan kernels build the map's denominator from it."""
        rows = self._as_cache.get(d)
        if rows is None:
            p = self.p
            rows = self._as_cache[d] = tuple(
                tuple((r - (i == j)) % p for j, r in enumerate(row))
                for i, row in enumerate(self.frobenius_rows(d)))
        return rows


class Elem:
    """A field element: an immutable coefficient tuple tied to its field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        i = 0
        for c in reversed(self.coeffs):
            i = i * self.field.p + c
        return i

    def _coerce(self, other):
        if isinstance(other, Elem):
            if other.field is not self.field:  # make_field interns fields
                raise ValueError("elements belong to different field contexts")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Elem(self.field, self.field._add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Elem(self.field, self.field._sub(self.coeffs, o.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Elem(self.field, self.field._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return Elem(self.field, self.field._neg(self.coeffs))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return Elem(self.field, self.field._pow(self.coeffs, e))

    def inverse(self) -> Elem:
        return Elem(self.field, self.field._inv(self.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, Elem):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"{self.field!r}.element({self.index})"


def make_field(p: int, n: int = 1) -> Field:
    """Construct (and cache) F_{p^n} with the canonical modulus.

    Rejects composite p and orders above 2^40.  The same (p, n) always yields
    the identical modulus, the first irreducible in the enumeration order of
    the module docstring, so element indices are stable across runs; the
    search sieves candidates by distinct degree and confirms the modulus by
    Rabin's test.  Fields are interned: every call for the same (p, n),
    positional, keyword or with n defaulted, returns the same object, so
    elements compare fields by identity.
    """
    return _interned_field(p, n)


@functools.lru_cache(maxsize=None)
def _interned_field(p: int, n: int) -> Field:
    if not isinstance(p, int) or not isinstance(n, int):
        raise ValueError("p and n must be integers")
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if n < 1:
        raise ValueError("extension degree must be at least 1")
    if p ** n > MAX_FIELD_ORDER:
        raise ValueError(f"field order {p}^{n} exceeds the 2^40 cap")
    if n == 1:
        return Field(p, 1, None)
    for k in range(p ** n):
        digits = []
        kk = k
        for _ in range(n):
            kk, c = divmod(kk, p)
            digits.append(c)
        cand = digits + [1]
        if _no_factor_up_to_half(cand, p):
            if not is_irreducible(cand, p):
                raise RuntimeError("sieved modulus failed Rabin's test (implementation bug)")
            return Field(p, n, tuple(cand))
    raise RuntimeError("no irreducible modulus found")  # cannot happen


def frobenius(x: Elem, k: int = 1) -> Elem:
    """x^{p^k}, computed through the cached linear representation."""
    if k < 0:
        raise ValueError("Frobenius power must be nonnegative")
    f = x.field
    rows = f.frobenius_rows(k)
    p, n = f.p, f.n
    out = [0] * n
    for i, ci in enumerate(x.coeffs):
        if ci:
            row = rows[i]
            for j in range(n):
                out[j] = (out[j] + ci * row[j]) % p
    return Elem(f, tuple(out))


def trace_rel(x: Elem, d: int = 1) -> Elem:
    """Relative trace onto the subfield of order p^d: sum of x^{p^{d*i}}.

    Requires d | n.  The result is checked to be fixed by the p^d-Frobenius.
    """
    f = x.field
    if d < 1 or f.n % d != 0:
        raise ValueError(f"trace level {d} does not divide the extension degree {f.n}")
    acc = x
    cur = x
    for _ in range(f.n // d - 1):
        cur = frobenius(cur, d)
        acc = acc + cur
    if frobenius(acc, d) != acc:
        raise RuntimeError("trace value not fixed by the subfield Frobenius")
    return acc


def absolute_trace(x: Elem) -> int:
    """Trace down to F_p, returned as an integer in [0, p)."""
    return trace_rel(x, 1).coeffs[0]


def _trace_columns(ctx: Field, d: int) -> list[tuple]:
    """Tr_d(X^j) for j = 0 .. n-1, as digit tuples.

    At level 1 these are the power sums s_j of the roots of the modulus
    X^n + c_{n-1} X^{n-1} + ... + c_0, from Newton's identities
    s_0 = n, s_k = -(k c_{n-k} + sum_{i<k} c_{n-i} s_{k-i}); each lies in
    F_p, so only digit 0 is nonzero.  Other levels sum the Frobenius orbit.
    """
    p, n = ctx.p, ctx.n
    if d > 1:
        return [trace_rel(ctx.element(p ** j), d).coeffs for j in range(n)]
    c = ctx.modulus
    s = [n % p]
    for k in range(1, n):
        s.append(-(k * c[n - k] + sum(c[n - i] * s[k - i] for i in range(1, k))) % p)
    return [(sj,) + (0,) * (n - 1) for sj in s]


def first_elem_with_trace(ctx: Field, t, d: int = 1) -> Elem:
    """The element of smallest index whose level-d trace equals t.

    t may be an integer (interpreted in the prime subfield) or an element of
    the order-p^d subfield.  The trace is F_p-linear, so this solves
    sum_j x_j Tr(X^j) = t for the digits x_j by row reduction over F_p, with
    pivots taken in column order 0 .. n-1 and every free digit set to 0.
    That solution has the smallest index: two solutions differ by a kernel
    vector whose highest nonzero digit sits on a free column (a pivot column
    is independent of all earlier ones), where this solution has digit 0.
    The reduction does not depend on t, so it runs once per field and level
    on the trace matrix augmented by the identity, and each call only applies
    the recorded row operations to t.
    """
    if isinstance(t, int):
        t = ctx.from_int(t)
    elif t.field != ctx:
        raise ValueError("trace target must live in the same field context")
    if frobenius(t, d) != t:
        raise ValueError("trace target is not in the requested subfield")
    p, n = ctx.p, ctx.n
    system = ctx._trace_cache.get(d)
    if system is None:
        cols = _trace_columns(ctx, d)
        # one row per digit of the trace: [Tr(X^0)_i .. Tr(X^{n-1})_i | e_i]
        rows = [[col[i] for col in cols] + [int(i == k) for k in range(n)] for i in range(n)]
        pivots = _row_reduce(rows, p, n)
        system = ctx._trace_cache[d] = (pivots, [row[n:] for row in rows[:len(pivots)]])
    pivots, ops = system
    digits = [0] * n
    for j, op in zip(pivots, ops):
        digits[j] = sum(a * b for a, b in zip(op, t.coeffs)) % p
    e = Elem(ctx, tuple(digits))
    if trace_rel(e, d) != t:
        raise RuntimeError("trace solve missed its target (implementation bug)")
    return e


def subfield_elements(ctx: Field, d: int) -> list[Elem]:
    """All elements of the order-p^d subfield, in index order.

    The subfield is the kernel of the F_p-linear map x -> x^{p^d} - x, so
    this row-reduces its matrix (`artin_schreier_rows`), takes one kernel
    vector per free column and enumerates the p^d combinations of that
    basis.  Each result is checked to be fixed by the p^d-Frobenius, and
    there must be exactly p^d of them.
    """
    if d < 1 or ctx.n % d != 0:
        raise ValueError(f"no subfield of level {d} in {ctx!r}")
    p, n = ctx.p, ctx.n
    # equation j: sum_i x_i * L[i][j] = 0, digit j of x^{p^d} - x
    rows = [list(col) for col in zip(*ctx.artin_schreier_rows(d))]
    pivots = _row_reduce(rows, p, n)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[f] = 1
        for r, j in enumerate(pivots):
            v[j] = -rows[r][f] % p
        basis.append(v)
    elems = [ctx.zero.coeffs]
    for v in basis:
        elems = [tuple((a + c * b) % p for a, b in zip(x, v)) for c in range(p) for x in elems]
    out = sorted((Elem(ctx, x) for x in elems), key=lambda e: e.index)
    if (len({e.index for e in out}) != p ** d
            or any(frobenius(e, d) != e for e in out)):
        raise RuntimeError("subfield basis is not a basis of the fixed field (implementation bug)")
    return out

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
confirms the first survivor.  Fields are interned and immutable, so they
are safe to share across threads; a pickled or copied field is the same one.

Polynomials over F_p are plain lists; elements multiply as packed ints, one
W-bit slot per digit.  Each F_{p^n} with n >= 2 multiplies, inverts and
powers on its one `_Packed`, and F_p on plain ints.  `_slot_barrett`
reduces every slot mod p at once; it holds the slot bound argument that
`_Packed`, the kernels and `curves` rely on.  Beside it, `_Slots` holds
vectors with one slot per element of F_q: it packs and reads them and gives
the power planes (digit k of z^e for every z), on which the count kernel and
the pencil census of `curves` evaluate a polynomial along a whole line.

Frobenius powers, subfields and traces are F_p-linear: a field caches one
matrix per map and level, applied to digits (`_apply_rows`) or row-reduced
over F_p (`_row_reduce`), never found by walking the field's elements.
`Field.check_level` (d | n) and `Field.check_trace_hypothesis` (b's level-d
trace is nonzero) raise the one ValueError of each rule of the map's contract.
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


def _apply_rows(rows, digits, p: int) -> tuple:
    """sum_i digits[i] * rows[i] mod p: a matrix whose row i is the image of
    X^i, applied to an element's digits."""
    out = [0] * len(rows)
    for c, row in zip(digits, rows):
        if c:
            out = [a + c * r for a, r in zip(out, row)]
    return tuple([a % p for a in out])


# ---------------------------------------------------------------------------
# Elements on packed ints.

def _slot_barrett(p, bound, slots, min_bits=0):
    """The one packed-slot reduction: reduce every slot of a packed int mod p
    in one Barrett step.

    The int has `slots` slots of W bits and every slot is below `bound`.
    Returns (W, unit, reduce): W is at least min_bits and a whole number of
    bytes, unit has a 1 in the lowest bit of every slot, and reduce(S) is S
    with every slot reduced mod p,

        S - p * (((S * mu) >> sh) & mask).

    With sh = bitlen(B) + bitlen(p) and mu = ceil(2^sh / p) = (2^sh + e)/p,
    e < p, a slot s < B has s*mu/2^sh = s/p + s*e/(p*2^sh) and
    s*e < B*p <= 2^sh, so floor(s*mu / 2^sh) = floor(s/p).  As
    s*mu < B*2^sh <= 2^W when W >= sh + bitlen(B), the products stay in
    their slots, and masking the shifted int with mask = 2^(W - sh) - 1 per
    slot keeps each slot's quotient Q and drops the bits that slide in from
    the slot above.  S - p*Q is then every slot mod p, with no borrow.
    """
    sh = bound.bit_length() + p.bit_length()
    mu = -(-(1 << sh) // p)
    wb = (max(sh + bound.bit_length(), min_bits) + 7) // 8
    unit = int.from_bytes((b"\x01" + bytes(wb - 1)) * slots, "little")
    mask = unit * ((1 << (8 * wb - sh)) - 1)

    def reduce(s):
        return s - p * (((s * mu) >> sh) & mask)

    return 8 * wb, unit, reduce


class _Slots:
    """Vectors over F_p with one W-bit slot per element z of F_q, at bit
    z*W, for slots below `bound` (W, unit and reduce from `_slot_barrett`).
    `pack` and `read` move q values below 2^(8*nb), nb = ceil(bitlen(p)/8),
    through the bytes of the packed int; `_Packed` keeps its own Horner pack
    and unpack, which move the n digits of one element on the `Field._mul`
    hot path.
    """

    def __init__(self, field, bound):
        self.field, q = field, field.order
        self.w, self.unit, self.reduce = _slot_barrett(field.p, bound, q)
        self.wb, self.nb = self.w // 8, (field.p.bit_length() + 7) // 8
        self.size = q * self.wb

    def pack(self, vals):
        """The packed int with the q values in its slots."""
        buf, wb = bytearray(self.size), self.wb
        for k in range(self.nb):
            buf[k::wb] = bytes(map((255).__and__, map((8 * k).__rrshift__, vals)))
        return int.from_bytes(buf, "little")

    def read(self, s):
        """The q slots of a reduced packed int, in order: a bytes object
        when nb = 1, else a list."""
        b, wb = s.to_bytes(self.size, "little"), self.wb
        vals = b[::wb]
        for k in range(1, self.nb):
            vals = [v | c << 8 * k for v, c in zip(vals, b[k::wb])]
        return vals

    def planes(self, exps):
        """The power planes {e: [plane_0, .., plane_{n-1}]} for e in exps:
        plane_k packs digit k of z^e for every z (0^0 = 1).  An exponent
        e >= q folds to (e - 1) mod (q - 1) + 1, the same power at every z.
        Each folded power is the product of the powers of floor(e/2) and
        ceil(e/2), one product per element, and exponents share them."""
        field, pk = self.field, self.field._packed
        p, n, q = field.p, field.n, field.order
        pw = {0: [1] * q, 1: list(range(p))}
        for k in range(1, n):  # packed elements in index order
            pw[1] = [a + (d << pk.w * k) for d in range(p) for a in pw[1]]

        def power(e):
            if e not in pw:
                pw[e] = list(map(pk.mul if pk else lambda a, b: a * b % p,
                                 power(e // 2), power(e - e // 2)))
            return pw[e]

        out = {}
        for e in exps:
            vals = power(e if e < q else (e - 1) % (q - 1) + 1)
            if pk and self.nb == 1:  # digit k is the low byte of the element's slot k
                step = pk.w // 8
                raw = b"".join([a.to_bytes(n * step, "little") for a in vals])
                vals = [raw[k * step::n * step] for k in range(n)]
            else:
                vals = list(zip(*map(pk.unpack, vals))) if pk else [vals]
            out[e] = [self.pack(d) for d in vals]
        return out


class _Packed:
    """F_{p^n} on packed ints: digit i of an element sits in the W-bit slot i.

    An element is canonical when every slot is below p; `mul` and `inv`
    return canonical elements.  mul(a, b, add) is a*b + add for a canonical
    a, b with slots up to bmax (b need not be reduced mod p) and a canonical
    add.  It takes three int products:

    * Kronecker substitution: the int product a*b is the polynomial product
      with coefficient k in slot k, each below n*(p-1)*bmax + 1; one
      Barrett step makes it c = c0 + X^n c1 with canonical slots.
    * Polynomial Barrett reduction by the monic modulus m: with
      mu_m = floor(X^(2n) / m), the quotient of c by m is exactly
      floor(c1 * mu_m / X^n), a shift by n slots (a polynomial has no
      rounding error: X^(2n) = mu_m*m + r with deg r < n gives
      c*X^n = c1*mu_m*m + c1*r + c0*X^n, whose last two terms are below
      X^(2n) and so leave the quotient's part above X^n alone).  Its slots
      are reduced only mod p later, below (n-1)*(p-1)^2 + 1.
    * The remainder c - quot*m only needs the n low slots: c0 + add plus the
      low slots of quot * (-m mod p), each below (n-1)^2*(p-1)^3 + 2p - 1,
      and a second Barrett step makes it canonical.

    W is the width for the larger of the two slot bounds, and at least
    min_bits.  For n = 1 (modulus None) the modulus is X: F_p = F_p[X]/(X).
    """

    def __init__(self, field, bmax, min_bits=0):
        p, n = field.p, field.n
        modulus = field.modulus or (0, 1)
        bound = max(n * (p - 1) * bmax, (n - 1) ** 2 * (p - 1) ** 3 + 2 * (p - 1)) + 1
        w, _, self.reduce = _slot_barrett(p, bound, 2 * n, min_bits)
        self.p, self.n, self.w = p, n, w
        self.smask = (1 << w) - 1
        self.low = (1 << (w * n)) - 1
        self.modulus = self.pack(modulus)
        self.mneg = self.pack([-c % p for c in modulus[:n]])
        self.mu_m = self.pack(pdivmod([0] * (2 * n) + [1], list(modulus), p)[0])

    def pack(self, digits):
        """The packed int of a digit sequence, digit 0 in slot 0."""
        w, s = self.w, 0
        for d in reversed(digits):
            s = s << w | d
        return s

    def unpack(self, a):
        """The n digits of a canonical packed element, as a tuple."""
        w, smask = self.w, self.smask
        return tuple([a >> (w * i) & smask for i in range(self.n)])

    def mul(self, a, b, add=0):
        reduce, nw, low = self.reduce, self.w * self.n, self.low
        c = reduce(a * b)
        quot = ((c >> nw) * self.mu_m) >> nw
        return reduce((c & low) + add + ((quot * self.mneg) & low))

    def inv(self, a):
        """1/a by extended Euclid on packed polynomials.

        Keeps t0*a = r0 and t1*a = r1 (mod m) and cancels the leading
        coefficient of the remainder of larger degree with the other one,
        until r1 is a nonzero constant (m is irreducible and a is nonzero,
        so the gcd is 1); then 1/a = t1/r1.  Each step lowers
        deg r0 + deg r1 < 2n, so 2n steps always suffice.
        """
        if not a:
            raise ZeroDivisionError("inversion of zero")
        p, w, reduce = self.p, self.w, self.reduce
        r0, r1, t0, t1 = self.modulus, a, 0, 1
        d0, d1 = self.n, (a.bit_length() - 1) // w
        for _ in range(2 * self.n):
            if d1 <= 0:
                return reduce(t1 * pow(r1, -1, p))
            c = p - (r0 >> (w * d0)) * pow(r1 >> (w * d1), -1, p) % p
            s = w * (d0 - d1)
            r0 = reduce(r0 + (c * r1 << s))
            t0 = reduce(t0 + (c * t1 << s))
            d0 = (r0.bit_length() - 1) // w
            if d0 < d1:
                r0, r1, t0, t1, d0, d1 = r1, r0, t1, t0, d1, d0
        raise RuntimeError("extended Euclid did not end (implementation bug)")


# ---------------------------------------------------------------------------
# Field contexts and elements.

class Field:
    """The finite field F_{p^n}.  Construct via make_field, not directly.  It
    caches one matrix per level d of the p^d-Frobenius, x^{p^d} - x and the trace."""

    __slots__ = ("p", "n", "order", "modulus", "zero", "one", "_packed", "_frob_cache",
                 "_as_cache", "_trace_cache")

    def __init__(self, p: int, n: int, modulus):
        self.p = p
        self.n = n
        self.order = p ** n
        self.modulus = modulus  # tuple of n+1 coeffs, constant first; None if n == 1
        self.zero = Elem(self, (0,) * n)
        self.one = Elem(self, (1,) + (0,) * (n - 1))
        self._packed = _Packed(self, p - 1) if n > 1 else None
        self._frob_cache = {}
        self._as_cache = {}  # level d -> artin_schreier_rows(d)
        self._trace_cache = {}  # level d -> (trace_rows(d), its pivots, its row operations)

    def __reduce__(self):
        # pickles and copies are the interned field, so a field equals only
        # itself and compares and hashes by identity
        return make_field, (self.p, self.n)

    def __repr__(self):
        if self.n == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.n})"

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
        pk = self._packed
        if pk is None:
            return (a[0] * b[0] % self.p,)
        return pk.unpack(pk.mul(pk.pack(a), pk.pack(b)))

    def _inv(self, a):
        pk = self._packed
        if pk is None:
            if not a[0]:
                raise ZeroDivisionError("inversion of zero")
            return (pow(a[0], -1, self.p),)
        return pk.unpack(pk.inv(pk.pack(a)))

    def _pow(self, a, e):
        pk = self._packed
        if pk is None:
            return (pow(a[0], e, self.p),)
        mul, result, base = pk.mul, 1, pk.pack(a)
        while e:
            if e & 1:
                result = mul(result, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return pk.unpack(result)

    def frobenius_rows(self, k: int):
        """Matrix rows of x -> x^{p^k}: row i is the image (X^{p^k})^i of the
        basis X^i, from the packed arithmetic."""
        k %= self.n
        cached = self._frob_cache.get(k)
        if cached is not None:
            return cached
        n = self.n
        if k == 0 or n == 1:
            rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        else:
            xp, row, rows = self._pow((0, 1) + (0,) * (n - 2), self.p ** k), self.one.coeffs, []
            for _ in range(n):
                rows.append(row)
                row = self._mul(row, xp)
            rows = tuple(rows)
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

    def check_level(self, d: int) -> None:
        """The one level check: d must be a positive divisor of n (ValueError)."""
        if d < 1 or self.n % d:
            raise ValueError(f"level {d} is not a positive divisor of n = {self.n}")

    def check_trace_hypothesis(self, b_digits, d: int = 1) -> None:
        """The one hypothesis check: the level-d trace of b, `trace_rows(d)`
        applied to b's digits, must be nonzero (ValueError); see `maps`."""
        if not any(_apply_rows(self.trace_rows(d), b_digits, self.p)):
            raise ValueError(f"trace hypothesis violated: the level-{d} trace of b is zero")

    def trace_rows(self, d: int):
        """Matrix rows of the level-d trace x -> sum_{i < n/d} x^{p^{d i}}: row j
        is the digit tuple of Tr_d(X^j).  Requires d | n (`check_level`).  At
        level 1 these are the power sums s_j of the roots of the modulus
        X^n + c_{n-1} X^{n-1} + ... + c_0, from Newton's identities
        s_0 = n, s_k = -(k c_{n-k} + sum_{i<k} c_{n-i} s_{k-i}), in digit 0;
        above, row j sums row j of the p^{d i}-Frobenius matrices.  Checked
        once to be fixed by the p^d-Frobenius, which by linearity checks
        every trace, and cached with its row reduction."""
        cached = self._trace_cache.get(d)
        if cached is not None:
            return cached[0]
        self.check_level(d)
        p, n = self.p, self.n
        if d == 1:
            c, s = self.modulus, [n % p]
            for k in range(1, n):
                s.append(-(k * c[n - k] + sum(c[n - i] * s[k - i] for i in range(1, k))) % p)
            rows = tuple((sj,) + (0,) * (n - 1) for sj in s)
        else:
            frobs = [self.frobenius_rows(d * i) for i in range(n // d)]
            rows = tuple(tuple(sum(col) % p for col in zip(*rs)) for rs in zip(*frobs))
        frob = self.frobenius_rows(d)
        if any(_apply_rows(frob, row, p) != row for row in rows):
            raise RuntimeError("trace value not fixed by the subfield Frobenius")
        # one equation per digit of the trace: [Tr(X^0)_i .. Tr(X^{n-1})_i | e_i]
        system = [list(col) + [int(i == k) for k in range(n)] for i, col in enumerate(zip(*rows))]
        pivots = _row_reduce(system, p, n)
        self._trace_cache[d] = (rows, pivots, [row[n:] for row in system[:len(pivots)]])
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
    return Elem(f, _apply_rows(f.frobenius_rows(k), x.coeffs, f.p))


def trace_rel(x: Elem, d: int = 1) -> Elem:
    """Relative trace onto the subfield of order p^d: sum of x^{p^{d*i}}.
    Requires d | n; applies the cached matrix `Field.trace_rows(d)`."""
    f = x.field
    return Elem(f, _apply_rows(f.trace_rows(d), x.coeffs, f.p))


def absolute_trace(x: Elem) -> int:
    """Trace down to F_p, returned as an integer in [0, p)."""
    return trace_rel(x, 1).coeffs[0]


def first_elem_with_trace(ctx: Field, t, d: int = 1) -> Elem:
    """The element of smallest index whose level-d trace equals t.

    t may be an integer (interpreted in the prime subfield) or an element of
    the order-p^d subfield.  The trace is F_p-linear, so this solves
    sum_j x_j Tr(X^j) = t for the digits x_j by row reduction over F_p, with
    pivots taken in column order 0 .. n-1 and every free digit set to 0.
    That solution has the smallest index: two solutions differ by a kernel
    vector whose highest nonzero digit sits on a free column (a pivot column
    is independent of all earlier ones), where this solution has digit 0.
    The system is `Field.trace_rows(d)`, the matrix `trace_rel` applies,
    reduced once per field and level augmented by the identity; each call
    only applies the recorded row operations to t.
    """
    rows = ctx.trace_rows(d)
    if isinstance(t, int):
        t = ctx.from_int(t)
    elif t.field != ctx:
        raise ValueError("trace target must live in the same field context")
    if frobenius(t, d) != t:
        raise ValueError("trace target is not in the requested subfield")
    p, n = ctx.p, ctx.n
    _, pivots, ops = ctx._trace_cache[d]
    digits = [0] * n
    for j, op in zip(pivots, ops):
        digits[j] = sum(a * b for a, b in zip(op, t.coeffs)) % p
    if _apply_rows(rows, digits, p) != t.coeffs:
        raise RuntimeError("trace solve missed its target (implementation bug)")
    return Elem(ctx, tuple(digits))


def subfield_elements(ctx: Field, d: int) -> list[Elem]:
    """All elements of the order-p^d subfield, in index order.

    The subfield is the kernel of the F_p-linear map x -> x^{p^d} - x, so
    this row-reduces its matrix (`artin_schreier_rows`), takes one kernel
    vector per free column and enumerates the p^d combinations of that
    basis.  Each result is checked to be fixed by the p^d-Frobenius, and
    there must be exactly p^d of them.  `Field.check_level` refuses a bad d.
    """
    ctx.check_level(d)
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

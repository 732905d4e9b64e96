"""The scan kernel, in pure Python, and the face of the count kernel.

`maps` and `curves` reach this module through `backend.select`; BACKEND is
the name reports record for it.  `count_zeros` is read from it but lives in
`_count`, which the first read of the attribute loads, so a scanning process
never compiles the count kernel.  Both kernels take (p, n) and read the
interned `make_field(p, n)`, the one place that derives arithmetic from the
modulus: its modulus, its cached matrix rows and its multiplication.

Both kernels use Python ints as wide registers: a packed int holds one W-bit
slot per value, and `_slot_barrett` reduces every slot mod p at once with
one Barrett step (the argument and the slot bound it needs are in its
docstring).

`perm_scan` decides bijectivity from one representative per coset x + F_p
(p^{n-1} evaluations instead of p^n) and returns exactly what the
index-order full scan returns, `evaluations` included: that count is the
canonical full scan's, not the work done.  It takes admissible b only, with
a nonzero level-d trace, and checks that once at entry, so no denominator
it evaluates vanishes.  Two generators evaluate the representatives, with
the same output stream:

* `_image_blocks`, for p >= 5: elements are packed one slot per digit
  (`_Packed`, built once per field), and the denominators of consecutive
  representatives are inverted in chunks by Montgomery's batch inversion:
  3 multiplications per element and one extended-Euclid inversion per
  chunk.  Chunks start at _CHUNK_FIRST representatives and double up to
  _CHUNK_CAP, so a scan that stops early does little extra work and memory
  stays bounded.
* `_sliced.image_blocks`, for p = 2, 3: bit-sliced, one big-int operation
  per digit for a whole chunk of representatives, with Itoh-Tsujii
  inversion.  For p = 2, 3 every map with a nonzero absolute trace
  permutes, so these scans run to the end at d = 1.  The module is
  imported only by p = 2, 3 scans.

A scan that collides finds the earlier representative with the same image
in the pass that found the collision, from a trail of the first
representatives' images whose memory is bounded by about twice the
bitset's; only a collision past the trail takes a second pass over the
generator.

The element-by-element full scan that `perm_scan` must agree with lives
in the tests (`tests/oracles.py`), so scanning processes do not compile it.
"""

from __future__ import annotations

import functools
from array import array
from itertools import islice

from .field import Elem, make_field, pdivmod, trace_rel

BACKEND = "pure"

_CHUNK_FIRST = 8
_CHUNK_CAP = 512
# The first max(blocks >> _TRAIL_SHIFT, _TRAIL_FLOOR) representatives of a
# scan keep their image in the trail: 2 words each, so 8 KB up to 2^15
# blocks and about twice the bitset's blocks/8 bytes beyond.
_TRAIL_SHIFT = 6
_TRAIL_FLOOR = _CHUNK_CAP


def __getattr__(name):
    """`count_zeros` from the count kernel, loaded on first use."""
    if name == "count_zeros":
        from ._count import count_zeros

        return count_zeros
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        self.mneg = self.pack(-c % p for c in modulus[:n])
        self.mu_m = self.pack(pdivmod([0] * (2 * n) + [1], list(modulus), p)[0])

    def pack(self, digits):
        return sum(d << (self.w * i) for i, d in enumerate(digits))

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


@functools.lru_cache(maxsize=8)
def _scan_packing(field):
    """The `_Packed` arithmetic of the scans over `field`, built once per
    field: slots hold an unreduced denominator digit, up to
    bmax = (p-1)*(1 + (n-1)*(p-1)) (see `_image_blocks`), and a block
    index, below p^(n-1)."""
    p, n = field.p, field.n
    bmax = (p - 1) * (1 + (n - 1) * (p - 1))
    return _Packed(field, bmax, (p ** (n - 1) - 1).bit_length())


def _image_blocks(field, d, b_digits):
    """(block, digit 0) of f(p*k) for the coset representatives p*k,
    k = 0 .. p^(n-1) - 1, in order; block is the index of f(p*k) divided by
    p.  b must be admissible (`perm_scan` checks it), so no denominator
    vanishes.

    The denominator D(x) = x^(p^d) - x + b is F_p-linear in the digits of x
    plus b, and each step of the odometer that walks the representatives
    raises one digit by 1 and resets the digits below it from p-1 to 0, so
    D is kept as the exact integer sum b + sum_j x_j*col_j, with col_j the
    digits of X^(j p^d) - X^j (row j of `Field.artin_schreier_rows`): one
    packed add or subtract per changed digit, slots below
    bmax = (p-1)*(1 + (n-1)*(p-1)).  A chunk of consecutive
    representatives is inverted by Montgomery's trick: prefix products
    P_i = D_1*...*D_i, one inversion of P_m, then walking back
    1/D_i = (1/P_i)*P_{i-1} and 1/P_{i-1} = (1/P_i)*D_i.
    """
    p, n = field.p, field.n
    blocks = p ** (n - 1)
    pk = _scan_packing(field)
    w, smask, mul, inv = pk.w, pk.smask, pk.mul, pk.inv
    cols = [pk.pack(row) for row in field.artin_schreier_rows(d)]
    wraps = [(p - 1) * c for c in cols]
    ones = [1 << (w * j) for j in range(n)]
    xwraps = [(p - 1) * u for u in ones]
    # block index of y from slot n-1 of y * to_block: sum_{j>=1} y_j p^(j-1),
    # every slot of the product below p^(n-1) <= 2^W
    to_block = sum(p ** (j - 1) << (w * (n - 1 - j)) for j in range(1, n))
    bshift = w * (n - 1)

    xd = [0] * n
    x, den = 0, pk.pack(c % p for c in b_digits)
    size, left = _CHUNK_FIRST, blocks
    while left:
        size = min(size, left)
        left -= size
        xs, dens = [], []
        for _ in range(size):
            xs.append(x)
            dens.append(den)
            for j in range(1, n):  # odometer on the digits above digit 0
                if xd[j] == p - 1:
                    xd[j] = 0
                    x -= xwraps[j]
                    den -= wraps[j]
                else:
                    xd[j] += 1
                    x += ones[j]
                    den += cols[j]
                    break
        prefix = [1]
        acc = 1
        for den_i in dens:
            acc = mul(acc, den_i)
            prefix.append(acc)
        ys = [0] * size
        acc = inv(acc)
        for i in range(size - 1, 0, -1):
            ys[i] = mul(acc, prefix[i], xs[i])
            acc = mul(acc, dens[i])
        ys[0] = mul(acc, 1, xs[0])
        for y in ys:
            yield ((y * to_block) >> bshift) & smask, y & smask
        size = min(2 * size, _CHUNK_CAP)


def perm_scan(p, n, d, b_digits):
    """Bijectivity of f(x) = x + (x^(p^d) - x + b)^{-1} over F_{p^n} by a
    quotient scan over the cosets x + F_p, for admissible b only.

    b is admissible when d | n and its level-d trace is nonzero, so that
    (additive Hilbert 90) the denominator never vanishes; `maps.MapSpec`
    admits no other b.  Any other b raises ValueError here, before a
    generator runs.

    The generators read the denominator's rows (`Field.artin_schreier_rows`)
    from the interned `make_field(p, n)`.  x^(p^d) fixes F_p, so the
    denominator is constant on each coset and f(x + c) = f(x) + c for c in
    F_p.  In index order the coset of x = p*k
    is the block p*k .. p*k + p - 1, and f maps it bijectively onto the
    block of f(p*k).  So only the p^{n-1} block representatives are
    evaluated, with a bitset of image blocks; f permutes iff no image block
    repeats.

    For p = 2, 3, `_sliced.image_blocks` evaluates them bit-sliced, a chunk
    of up to `_sliced._LANE_CAP` representatives per big-int operation.  For
    p >= 5, `_image_blocks` evaluates them on packed ints: the denominators
    of consecutive representatives are inverted in chunks by Montgomery's
    batch inversion (3 multiplications per representative, one
    extended-Euclid inversion per chunk), and chunks start at _CHUNK_FIRST
    representatives and double up to _CHUNK_CAP.  Every slot stays below the
    bound of `_Packed` (n*(p-1)*bmax + 1 for a product, with bmax the
    largest slot of an unreduced denominator, and (n-1)^2*(p-1)^3 + 2p - 1
    for a remainder), so one `_slot_barrett` step reduces all of its slots
    mod p exactly.  Both generators yield the same (block, digit 0) stream.

    Returns the same (is_permutation, witness, evaluations) as the
    index-order full scan (`perm_scan_reference` in the tests).  The first
    representative p*k2 whose image block repeats is the full scan's first
    repeating argument i2; the earlier representative p*k1 with that image
    block gives its smallest preimage i1 = p*k1 + (y2 - y1 mod p), from the
    digit 0 of both images.  The first
    max(p^(n-1) >> _TRAIL_SHIFT, _TRAIL_FLOOR) representatives append their
    image block and digit 0 to a trail of two machine-word arrays, so a
    repeat among them finds k1 by one `array.index` and the scan ends in
    one pass; the trail's memory is about twice the bitset's.  Past the
    trail the loop only tests and sets the bitset, and a repeat there finds
    k1 by a second pass over the generator.  evaluations is the full scan's
    count: p^n for a permutation, else i1 + i2 + 2.
    """
    field = make_field(p, n)
    if not trace_rel(Elem(field, tuple(c % p for c in b_digits)), d):
        raise ValueError("trace hypothesis violated: the level-%d trace of b is zero" % d)
    blocks = p ** (n - 1)
    if p <= 3:
        from ._sliced import image_blocks
    else:
        image_blocks = _image_blocks
    seen = bytearray((blocks >> 3) + 1)
    images = image_blocks(field, d, b_digits)
    trail, trail_y = array("L"), array("L")
    length = max(blocks >> _TRAIL_SHIFT, _TRAIL_FLOOR)
    for k2, (target, y2) in enumerate(islice(images, length)):
        byte, bit = target >> 3, 1 << (target & 7)
        if seen[byte] & bit:
            k1 = trail.index(target)
            return _collision(p, k1, trail_y[k1], k2, y2)
        seen[byte] |= bit
        trail.append(target)
        trail_y.append(y2)
    for k2, (target, y2) in enumerate(images, length):
        byte, bit = target >> 3, 1 << (target & 7)
        if seen[byte] & bit:
            break
        seen[byte] |= bit
    else:
        return True, None, p ** n

    images = image_blocks(field, d, b_digits)
    for k1, (block, y1) in zip(range(k2), images):
        if block == target:
            return _collision(p, k1, y1, k2, y2)
    raise RuntimeError("collision image lost between passes")


def _collision(p, k1, y1, k2, y2):
    """The full scan's verdict when the representatives p*k1 < p*k2 have one
    image block, with y1 and y2 the digits 0 of their images: the witness
    (i1, i2) and i1 + i2 + 2 evaluations."""
    i1, i2 = p * k1 + (y2 - y1) % p, p * k2
    return False, (i1, i2), i1 + i2 + 2

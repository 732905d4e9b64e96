"""Bit-sliced coset-representative scan for p = 2 and p = 3.

`image_blocks` yields the same stream as `_kernel_py._image_blocks`: the
(block, digit 0) of f(p*k) for the coset representatives p*k,
k = 0 .. p^(n-1) - 1, in order, with f(x) = x + (x^(p^d) - x + b)^{-1} for
an admissible b (`_kernel_py.perm_scan` checks it), so no denominator
vanishes.  It evaluates a whole chunk of representatives at once.  Every
matrix it applies is a cached row set of the field it is given:
`Field.artin_schreier_rows` for the denominator, `Field.frobenius_rows` for
Itoh-Tsujii.

Lane k of a chunk stands for one representative.  A plane is a Python int
with one bit per lane, and an element of F_{p^n} is one plane per digit for
p = 2, or a pair of planes per digit for p = 3 (P marks the lanes where the
digit is 1, M the lanes where it is 2).  One big-int `&`, `|` or `^` then
does a digit operation for every lane of the chunk:

* F_2: a + b = a ^ b, a * b = a & b.
* F_3: a + b is t = (aP|bM) ^ (aM|bP), sP = (aM|bM) ^ t, sM = (aP|bP) ^ t;
  a * b is P = (aP&bP) | (aM&bM), M = (aP&bM) | (aM&bP); 2a swaps P and M.

A product in F_{p^n} is the schoolbook product of the digit planes,
reduced by the low coefficients of the monic modulus.  The inverse is
Itoh-Tsujii's: with g_k = a^((p^k - 1)/(p - 1)) and g_(k+l) = g_k^(p^l) g_l,
an addition chain on n - 1 reaches g_(n-1) in about 2 log2(n) products and
Frobenius powers (F_p-linear maps, so each is a matrix on the planes, with
the field's Frobenius rows); then t = g_(n-1)^p, the norm N = a*t lies
in F_p, and 1/a = t*N because N^-1 = N in F_2 and F_3.  A zero lane stays
0 throughout.

Representatives are taken in chunks of at most _LANE_CAP consecutive ones.
Digits 1 .. lo of the representatives in a chunk are the same periodic
planes in every chunk (lo the largest with p^lo lanes within the cap), and
the digits above them are constant within a chunk, walked by an odometer.
Chunks keep memory flat at any n, and a scan that stops early wastes at
most one chunk.
"""

from __future__ import annotations

import sys
from itertools import chain

# representatives per chunk, at most; at 2^16 an F_{2^20} scan's peak RSS
# rose by 2.6 MB, at 2^14 by 0.2 MB, at no measurable cost in speed
_LANE_CAP = 1 << 14

# (shift, 64-bit mask) of the delta swaps that transpose an 8x8 bit matrix
_TRANSPOSE = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
_WORD = {2: "H", 4: "I"}
_ORDER = sys.byteorder
# a byte of four 2-bit F_3 digit codes (1 = P, 2 = M) -> its value in base 3
_TERNARY = bytes(sum(((v >> 2 * i) & 3) * 3 ** i for i in range(4)) for v in range(256))


class _Sliced:
    """F_{p^n} on the planes of `full` (all lanes set); the subclasses hold
    the digit arithmetic of F_2 and F_3.  For the way out of the planes,
    `bits` gives a digit's planes in code-bit order, per_byte digits fill
    one transposed byte, `code` maps that byte to its value (None: the byte
    is its value) and radix is the weight of one byte group over the next."""

    def __init__(self, field, full):
        self.field, self.n, self.full = field, field.n, full
        self._frobs = {}

    def frobenius(self, a, l):
        """a^(p^l)."""
        lin = self._frobs.get(l)
        if lin is None:
            lin = self._frobs[l] = self.linear(self.field.frobenius_rows(l))
        return self.apply(lin, a)

    def inverse(self, a):
        """1/a on every lane, 0 on a zero lane (Itoh-Tsujii)."""
        if self.n == 1:
            return a  # 1/a = a in F_2 and F_3
        g, k = a, 1
        for bit in bin(self.n - 1)[3:]:
            g = self.mul(self.frobenius(g, k), g)  # g_2k = g_k^(p^k) g_k
            k *= 2
            if bit == "1":
                g = self.mul(self.frobenius(g, 1), a)  # g_(k+1) = g_k^p g_1
                k += 1
        return self.times_norm_inverse(a, self.frobenius(g, 1))


class _F2(_Sliced):
    """An element is a list of n planes."""

    p, per_byte, radix, code = 2, 8, 256, None

    def __init__(self, field, full):
        super().__init__(field, full)
        # X^n = sum of the X^i with m_i = 1
        self.low = [i for i, c in enumerate(field.modulus[:self.n]) if c] if self.n > 1 else []

    def linear(self, rows):
        # output digit m is the sum of the input digits i with rows[i][m] = 1
        return [[i for i in range(self.n) if rows[i][m]] for m in range(self.n)]

    def apply(self, lin, a):
        out = []
        for src in lin:
            s = 0
            for i in src:
                s ^= a[i]
            out.append(s)
        return out

    def mul(self, a, b):
        n = self.n
        c = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    c[k] ^= ai & bj
        for k in range(2 * n - 2, n - 1, -1):
            ck = c[k]
            if ck:
                for i in self.low:
                    c[k - n + i] ^= ck
        return c[:n]

    def add_const(self, a, digits):
        full = self.full
        return [ai ^ full if d else ai for ai, d in zip(a, digits)]

    def add(self, a, b):
        return [ai ^ bi for ai, bi in zip(a, b)]

    def scale(self, x, c):
        """c * x for a digit x and c in F_2."""
        return x if c else 0

    def times_norm_inverse(self, a, t):
        return t  # the norm of a nonzero element of F_{2^n} is 1

    def bits(self, digit):
        return (digit,)


class _F3(_Sliced):
    """An element is a list of n (P, M) plane pairs."""

    p, per_byte, radix, code = 3, 4, 81, _TERNARY

    def __init__(self, field, full):
        super().__init__(field, full)
        # X^n = sum_i (-m_i) X^i: (i, True) adds twice the digit, (i, False) once
        self.low = ([(i, c == 1) for i, c in enumerate(field.modulus[:self.n]) if c]
                    if self.n > 1 else [])

    def linear(self, rows):
        return [[(i, rows[i][m] == 2) for i in range(self.n) if rows[i][m]]
                for m in range(self.n)]

    def apply(self, lin, a):
        out = []
        for src in lin:
            sP = sM = 0
            for i, twice in src:
                bP, bM = a[i]
                if twice:
                    bP, bM = bM, bP
                t = (sP | bM) ^ (sM | bP)
                sP, sM = (sM | bM) ^ t, (sP | bP) ^ t
            out.append((sP, sM))
        return out

    def mul(self, a, b):
        n = self.n
        cP = [0] * (2 * n - 1)
        cM = [0] * (2 * n - 1)
        for i, (aP, aM) in enumerate(a):
            if not aP | aM:
                continue
            for k, (bP, bM) in enumerate(b, i):
                tP = (aP & bP) | (aM & bM)
                tM = (aP & bM) | (aM & bP)
                sP, sM = cP[k], cM[k]
                t = (sP | tM) ^ (sM | tP)
                cP[k], cM[k] = (sM | tM) ^ t, (sP | tP) ^ t
        for k in range(2 * n - 2, n - 1, -1):
            hP, hM = cP[k], cM[k]
            if not hP | hM:
                continue
            for i, twice in self.low:
                bP, bM = (hM, hP) if twice else (hP, hM)
                j = k - n + i
                sP, sM = cP[j], cM[j]
                t = (sP | bM) ^ (sM | bP)
                cP[j], cM[j] = (sM | bM) ^ t, (sP | bP) ^ t
        return list(zip(cP[:n], cM[:n]))

    def add_const(self, a, digits):
        full, out = self.full, []
        for (aP, aM), d in zip(a, digits):
            if d == 1:
                aP, aM = full ^ (aP | aM), aP
            elif d == 2:
                aP, aM = aM, full ^ (aP | aM)
            out.append((aP, aM))
        return out

    def add(self, a, b):
        out = []
        for (aP, aM), (bP, bM) in zip(a, b):
            t = (aP | bM) ^ (aM | bP)
            out.append(((aM | bM) ^ t, (aP | bP) ^ t))
        return out

    def scale(self, x, c):
        """c * x for a digit x and c in F_3: 2 * (P, M) = (M, P)."""
        return ((0, 0), x, x[::-1])[c]

    def times_norm_inverse(self, a, t):
        # N = a*t lies in F_3 and 1/N = N: each digit of t times N, a digit product
        nP, nM = self.mul(a, t)[0]
        return [((tP & nP) | (tM & nM), (tM & nP) | (tP & nM)) for tP, tM in t]

    def bits(self, digit):
        return digit


def _digit_planes(p, lo, full):
    """The periodic planes of digits 1 .. lo of the representative p*k on
    lane k: digit j of p*k is digit j-1 of k, so each value v marks runs of
    p^(j-1) lanes with period p^j; the pattern is doubled up to the chunk."""
    planes = []
    for j in range(1, lo + 1):
        run = p ** (j - 1)
        marks = []
        for v in range(1, p):
            pat, length = ((1 << run) - 1) << (v * run), p * run
            while length < full.bit_length():
                pat |= pat << length
                length *= 2
            marks.append(pat & full)
        planes.append(marks[0] if p == 2 else tuple(marks))
    return planes


def image_blocks(field, d, b_digits):
    """(block, digit 0) of f(p*k) for k = 0 .. p^(n-1) - 1, in order, for
    p = 2 or 3 and an admissible b: the stream of `_kernel_py._image_blocks`.
    The pairs of each chunk are chained in C, not yielded one by one from
    Python."""
    return chain.from_iterable(_chunk_images(field, d, b_digits))


def _chunk_images(field, d, b_digits):
    """One iterator of (block, digit 0) pairs per chunk.

    The denominator is D = b + sum_(j>=1) x_j col_j, col_j the digits of
    X^(j p^d) - X^j (`Field.artin_schreier_rows`).  Its part from the
    periodic digits 1 .. lo is the same in every chunk; the constant part
    from the digits above is kept as a digit vector, and one step of their
    odometer adds col_j mod p whether digit j rises by 1 or wraps from p-1
    to 0.

    The image y = x + 1/D leaves the planes by bit-matrix transposition:
    `lane_bytes` turns up to 8 planes into one byte per lane, and a group
    of digits of y (8 for p = 2, 4 two-bit codes for p = 3, mapped to their
    base-3 value by _TERNARY) makes one byte, so the block index
    sum_(j>=1) y_j p^(j-1) is a Horner sum of group bytes placed in words
    (each block index is below p^(n-1), so words never carry).
    """
    p, n = field.p, field.n
    blocks = p ** (n - 1)
    lo = 0
    while lo < n - 1 and p ** (lo + 1) <= _LANE_CAP:
        lo += 1
    lanes = p ** lo
    full = (1 << lanes) - 1
    fld = (_F2 if p == 2 else _F3)(field, full)

    cols = field.artin_schreier_rows(d)
    xs = _digit_planes(p, lo, full)
    # the periodic part sum_(1<=j<=lo) x_j col_j of D, every digit plane
    zero = 0 if p == 2 else (0, 0)
    var = [zero] * n
    for j, xj in enumerate(xs, 1):
        var = fld.add(var, [fld.scale(xj, c) for c in cols[j]])

    width = 2 if blocks <= 1 << 16 else 4
    nbytes = (lanes + 7) // 8
    size = 8 * nbytes
    masks = [(shift, int.from_bytes(mask.to_bytes(8, "little") * nbytes, "little"))
             for shift, mask in _TRANSPOSE]

    def lane_bytes(planes):
        """One byte per lane: bit i of the byte of lane k is lane k of planes[i].

        Byte i of every 8-byte word is a byte of planes[i], so each word is
        an 8x8 bit matrix, and three masked delta swaps transpose them all."""
        buf = bytearray(size)
        for i, plane in enumerate(planes):
            buf[i::8] = plane.to_bytes(nbytes, "little")
        x = int.from_bytes(buf, "little")
        for shift, mask in masks:
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        return x.to_bytes(size, "little")

    def lane_words(digits):
        """sum_j digits[j] p^j on every lane, one native `width`-byte word
        per lane: group bytes sit in the low byte of each word and are
        summed by Horner's rule on the int of the whole buffer."""
        per, low = fld.per_byte, 0 if _ORDER == "little" else width - 1
        total = 0
        for g in reversed(range(0, len(digits), per)):
            codes = lane_bytes([pl for d in digits[g:g + per] for pl in fld.bits(d)])
            buf = bytearray(width * size)
            buf[low::width] = codes.translate(fld.code) if fld.code else codes
            total = total * fld.radix + int.from_bytes(buf, _ORDER)
        return memoryview(total.to_bytes(width * size, _ORDER)).cast(_WORD[width])

    const = [c % p for c in b_digits]
    high = [0] * n  # the odometer on digits lo+1 .. n-1
    for _ in range(blocks // lanes):
        inv = fld.inverse(fld.add_const(var, const))
        ys = fld.add(inv[1:lo + 1], xs) + fld.add_const(inv[lo + 1:], high[lo + 1:])
        d0 = lane_bytes(fld.bits(inv[0]))  # P + 2M for p = 3
        yield zip(lane_words(ys)[:lanes], memoryview(d0)[:lanes])
        for j in range(lo + 1, n):
            const = [(c + d) % p for c, d in zip(const, cols[j])]
            high[j] = (high[j] + 1) % p
            if high[j]:
                break

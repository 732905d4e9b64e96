"""Pure-Python scan kernels.

Same contracts as the compiled extension `permrat._kernel`; this module is
the fallback selected when the extension is not built, and the reference the
compiled kernels are tested against.  Everything here works on plain integer
digit vectors so results are bit-identical across backends.

`perm_scan` decides bijectivity from one representative per coset x + F_p
(p^{n-1} evaluations instead of p^n) and returns exactly what the
index-order full scan returns, `evaluations` included: that count is the
canonical full scan's, not the work done.  `perm_scan_reference` is that
full scan, kept for the tests.

`count_zeros` uses Python ints as wide registers, one path for F_p and
F_{p^n}: for each x it evaluates the polynomial at every y in F_q at once,
one W-bit slot per y, reduces all slots mod p with one Barrett step per
digit, and counts the zero slots with a flag bit (the bound that keeps the
slots from overflowing is in its docstring).
"""

from __future__ import annotations

import functools

from .field import pdivmod, pinvmod, pmul, prime_divisors, ptrim

BACKEND = "pure"


def _invert_digits(w, modulus, p, n):
    if n == 1:
        return (pow(w[0], p - 2, p),)
    iv = pinvmod(ptrim(list(w)), list(modulus), p)
    return tuple(iv) + (0,) * (n - len(iv))


def _image_index(p, n, modulus, frob_rows, b_digits):
    """The map xd -> index of f(x) for f(x) = x + (phi(x) - x + b)^{-1}.

    phi is the linear map given by frob_rows (row i = image of basis X^i);
    xd is the digit vector of x.  Raises ValueError where the denominator
    vanishes.
    """

    def f_index(xd):
        t = [0] * n
        for i, ci in enumerate(xd):
            if ci:
                row = frob_rows[i]
                for j in range(n):
                    t[j] = (t[j] + ci * row[j]) % p
        w = tuple((t[j] - xd[j] + b_digits[j]) % p for j in range(n))
        if not any(w):
            raise ValueError("denominator vanished; trace hypothesis violated")
        iv = _invert_digits(w, modulus, p, n)
        yi = 0
        for j in range(n - 1, -1, -1):
            yi = yi * p + (xd[j] + iv[j]) % p
        return yi

    return f_index


def _step(xd, p, first):
    """Advance the digit vector xd by one unit in digit `first` (odometer)."""
    for k in range(first, len(xd)):
        xd[k] += 1
        if xd[k] == p:
            xd[k] = 0
        else:
            break


def perm_scan(p, n, modulus, frob_rows, b_digits):
    """Bijectivity of f(x) = x + (phi(x) - x + b)^{-1} over F_{p^n} by a
    quotient scan over the cosets x + F_p.

    phi fixes F_p, so the denominator is constant on each coset and
    f(x + c) = f(x) + c for c in F_p.  In index order the coset of x = p*k
    is the block p*k .. p*k + p - 1, and f maps it bijectively onto the
    block of f(p*k).  So only the p^{n-1} block representatives are
    evaluated, with a bitset of image blocks; f permutes iff no image block
    repeats.

    Returns the same (is_permutation, witness, evaluations) as the
    index-order full scan `perm_scan_reference`.  The first representative
    p*k2 whose image block repeats is the full scan's first repeating
    argument i2; the earlier representative p*k1 with that image block
    (found by a second pass) gives its smallest preimage
    i1 = p*k1 + (y2 - y1 mod p), from the digit 0 of both images.
    evaluations is the full scan's count: p^n for a permutation, else
    i1 + i2 + 2 (i2 + 1 in the first pass, i1 + 1 in the second).
    """
    f_index = _image_index(p, n, modulus, frob_rows, b_digits)
    blocks = p ** (n - 1)
    seen = bytearray((blocks >> 3) + 1)
    xd = [0] * n
    for k2 in range(blocks):
        target, y2 = divmod(f_index(xd), p)
        byte, bit = target >> 3, 1 << (target & 7)
        if seen[byte] & bit:
            break
        seen[byte] |= bit
        _step(xd, p, 1)
    else:
        return True, None, p ** n

    xd = [0] * n
    for k1 in range(k2):
        block, y1 = divmod(f_index(xd), p)
        if block == target:
            i1, i2 = p * k1 + (y2 - y1) % p, p * k2
            return False, (i1, i2), i1 + i2 + 2
        _step(xd, p, 1)
    raise RuntimeError("collision image lost between passes")


def perm_scan_reference(p, n, modulus, frob_rows, b_digits):
    """Exhaustive index-order image scan; the reference for `perm_scan`.

    Elements are visited in index order 0 .. p^n - 1 with a bitset of seen
    images.  Returns (is_permutation, witness, evaluations) where witness is
    the index pair (i1, i2), i1 < i2, of the first collision in enumeration
    order (i2 is the first repeating argument, i1 its smallest preimage,
    recovered by a second pass) and evaluations counts every evaluation of
    both passes.
    """
    f_index = _image_index(p, n, modulus, frob_rows, b_digits)
    q = p ** n
    seen = bytearray((q >> 3) + 1)
    evals = 0
    collision = -1
    target = -1

    xd = [0] * n
    for xi in range(q):
        yi = f_index(xd)
        evals += 1
        byte, bit = yi >> 3, 1 << (yi & 7)
        if seen[byte] & bit:
            collision, target = xi, yi
            break
        seen[byte] |= bit
        _step(xd, p, 0)
    if collision < 0:
        return True, None, evals

    xd = [0] * n
    for xj in range(collision):
        yi = f_index(xd)
        evals += 1
        if yi == target:
            return False, (xj, collision), evals
        _step(xd, p, 0)
    raise RuntimeError("collision image lost between passes")


def _digit_pow(base, e, modulus, p, n):
    """base^e for digit tuples (binary exponentiation mod the field modulus)."""
    result = (1,) + (0,) * (n - 1)
    while e:
        if e & 1:
            result = _mul_digits(result, base, modulus, p, n)
        e >>= 1
        if e:
            base = _mul_digits(base, base, modulus, p, n)
    return result


def _mul_digits(a, b, modulus, p, n):
    if n == 1:
        return (a[0] * b[0] % p,)
    prod = pmul(list(a), list(b), p)
    red = pdivmod(prod, list(modulus), p)[1]
    return tuple(red) + (0,) * (n - len(red))


def _index(digits, p):
    i = 0
    for c in reversed(digits):
        i = i * p + c
    return i


@functools.lru_cache(maxsize=4)
def _field_tables(p, n, modulus):
    """(ex, lg, zech) for F_{p^n}, with g the primitive element of smallest
    index: ex[k] is the digit tuple of g^k (k < q - 1), lg[i] the discrete
    log of the element of index i (None for 0), and zech[k] = lg(1 + g^k),
    so that g^a + g^b = g^(a + zech[b - a])."""
    q = p ** n
    one = (1,) + (0,) * (n - 1)
    ells = prime_divisors(q - 1)
    for gi in range(1, q):
        g = tuple(gi // p ** k % p for k in range(n))
        if all(_digit_pow(g, (q - 1) // ell, modulus, p, n) != one for ell in ells):
            break
    ex, lg = [], [None] * q
    cur = one
    for k in range(q - 1):
        ex.append(cur)
        lg[_index(cur, p)] = k
        cur = _mul_digits(cur, g, modulus, p, n)
    zech = tuple(lg[_index(((d[0] + 1) % p,) + d[1:], p)] for d in ex)
    return tuple(ex), tuple(lg), zech


def count_zeros(p, n, modulus, terms, collect=False):
    """Exact zero count of a sparse bivariate polynomial over F_{p^n} x F_{p^n}.

    terms is a sequence of (i, j, coeff_digits).  Returns (count, zeros)
    where zeros lists the (x_index, y_index) pairs in x, then y, index order
    when collect is true, else None.

    One packed pass per x serves every n.  A Python int holds one W-bit slot
    per y in F_q (slot y at bit y*W), and plane[j][k] packs digit k of y^j.
    For fixed x the polynomial is sum_j r_j y^j with r_j = sum_i c_ij x^i,
    and digit m of r*y^j is sum_k M(r)[m][k] * (digit k of y^j), where column
    k of the F_p-matrix M(r) is the digit tuple of r*X^k (for n = 1, M(r) is
    the scalar r).  So digit m of the value at every y at once is

        S_m = sum_j sum_k M(r_j)[m][k] * plane[j][k],

    rows*n products of entries below p, each slot below
    B = rows*n*(p-1)^2 + 1.  Barrett reduces every slot mod p together: with
    sh = bitlen(B) + bitlen(p) and mu = ceil(2^sh / p) = (2^sh + e)/p, e < p,
    a slot s < B has s*mu/2^sh = s/p + s*e/(p*2^sh) and s*e < B*p <= 2^sh,
    so floor(s*mu / 2^sh) = floor(s/p).  As s*mu < B*2^sh <= 2^W when
    W >= sh + bitlen(B), the products stay in their slots, and
    Q = ((S*mu) >> sh) & maskQ keeps the W - sh low bits of each shifted slot
    (the quotient) and drops the bits that slide in from the slot above.
    R = S - p*Q is then every slot mod p, with no borrow.  With h = bitlen(p)
    the remainders of the n digits are ORed and 2^h - 1 added per slot: bit h
    of a slot is set exactly when some digit is nonzero (r + 2^h - 1 < 2^(h+1)
    since r < p < 2^h), so the zeros of the row are the clear bits h.  W is
    rounded up to whole bytes, so `collect` reads the flags from every W/8-th
    byte in increasing y.  A row with every r_j = 0 vanishes at all q points.

    Field arithmetic outside the planes runs on discrete logs (tables cached
    per field): r_j is summed term by term with Zech logarithms, and column
    k of M(r) is g^(log r + k log X).
    """
    q = p ** n
    ex, lg, zech = _field_tables(p, n, tuple(modulus) if modulus else None)
    order = q - 1
    iexps = sorted({i for i, _, _ in terms})
    ipos = {i: k for k, i in enumerate(iexps)}
    by_j = {}
    for i, j, c in terms:
        lc = lg[_index(tuple(d % p for d in c), p)]
        if lc is not None:
            by_j.setdefault(j, []).append((ipos[i], lc))
    jslots = sorted(by_j)

    bound = len(jslots) * n * (p - 1) ** 2 + 1
    h = p.bit_length()
    sh = bound.bit_length() + h
    mu = -(-(1 << sh) // p)
    wb = (sh + bound.bit_length() + 7) // 8
    unit = int.from_bytes((b"\x01" + bytes(wb - 1)) * q, "little")
    top = unit << h
    ones = unit * ((1 << h) - 1)
    mask_q = unit * ((1 << (8 * wb - sh)) - 1)
    flag_byte, flag = h // 8, bytes([1 << (h % 8)])

    def log_powers(lx):
        """log x^i for every i in iexps, from lx = log x (None: x = 0, 0^0 = 1)."""
        if lx is None:
            return [None if i else 0 for i in iexps]
        return [lx * i % order for i in iexps]

    rows = []
    zero = (0,) * n
    for j in jslots:
        # digit tuples of y^j in y order (ex[0] is 1, for 0^0)
        pw = [ex[ly * j % order] if ly is not None else (zero if j else ex[0]) for ly in lg]
        plane = [int.from_bytes(b"".join(d[k].to_bytes(wb, "little") for d in pw), "little")
                 for k in range(n)]
        rows.append((plane, by_j[j]))
    lx_step = lg[p] if n > 1 else 0  # log X, for the columns r*X^k of M(r)

    count = 0
    zeros = [] if collect else None
    for x in range(q):
        xl = log_powers(lg[x])
        sums = [0] * n
        live = False
        for plane, row_terms in rows:
            lr = None  # log r_j, summed with Zech logs; None while r_j = 0
            for ip, lc in row_terms:
                le = xl[ip]
                if le is None:
                    continue
                le += lc
                if lr is None:
                    lr = le % order
                else:
                    z = zech[(le - lr) % order]
                    lr = None if z is None else (lr + z) % order
            if lr is None:
                continue
            live = True
            for k in range(n):
                pl = plane[k]
                for m, d in enumerate(ex[(lr + k * lx_step) % order]):
                    if d:
                        sums[m] += d * pl
        if not live:
            count += q
            if collect:
                zeros.extend((x, y) for y in range(q))
            continue
        nz = 0
        for s in sums:
            nz |= s - p * (((s * mu) >> sh) & mask_q)
        z = ((nz + ones) & top) ^ top
        if z:
            count += z.bit_count()
            if collect:
                flags = z.to_bytes(q * wb, "little")[flag_byte::wb]
                y = flags.find(flag)
                while y >= 0:
                    zeros.append((x, y))
                    y = flags.find(flag, y + 1)
    return count, zeros

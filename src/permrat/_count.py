"""The count kernel, in pure Python: `count_zeros`, the exact zero count of
a bivariate polynomial over F_{p^n} x F_{p^n}.

It evaluates the polynomial at every y in F_q at once for each x, one slot
per y, and counts the zero slots with a flag bit; the field module's
`_slot_barrett` reduces the slots and its `Field._mul` builds the log
tables.  `backend.select` hands out `_kernel_py`, which loads this module
on the first read of its `count_zeros`, so scanning processes never
compile it.
"""

from __future__ import annotations

import functools

from .field import Elem, _slot_barrett, make_field, prime_divisors


@functools.lru_cache(maxsize=4)
def _field_tables(p, n):
    """(ex, lg, zech) for F_{p^n}, with g the primitive element of smallest
    index: ex[k] is the digit tuple of g^k (k < q - 1), lg[i] the discrete
    log of the element of index i (None for 0), and zech[k] = lg(1 + g^k),
    so that g^a + g^b = g^(a + zech[b - a]).  Built with the arithmetic of
    the interned field."""
    field = make_field(p, n)
    q, one = field.order, field.one.coeffs
    ells = prime_divisors(q - 1)
    g = next(e.coeffs for e in field
             if e and all(field._pow(e.coeffs, (q - 1) // ell) != one for ell in ells))
    ex, lg = [], [None] * q
    cur = one
    for k in range(q - 1):
        ex.append(cur)
        lg[Elem(field, cur).index] = k
        cur = field._mul(cur, g)
    zech = tuple(lg[Elem(field, field._add(d, one)).index] for d in ex)
    return tuple(ex), tuple(lg), zech


def count_zeros(p, n, terms, collect=False):
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
    B = rows*n*(p-1)^2 + 1, and one `_slot_barrett` step reduces every slot
    mod p together, with no borrow.  With h = bitlen(p)
    the remainders of the n digits are ORed and 2^h - 1 added per slot: bit h
    of a slot is set exactly when some digit is nonzero (r + 2^h - 1 < 2^(h+1)
    since r < p < 2^h), so the zeros of the row are the clear bits h.  W is
    rounded up to whole bytes, so `collect` reads the flags from every W/8-th
    byte in increasing y.  A row with every r_j = 0 vanishes at all q points.

    Field arithmetic outside the planes runs on discrete logs (tables from
    `_field_tables`): r_j is summed term by term with Zech logarithms, and
    column k of M(r) is g^(log r + k log X).
    """
    field = make_field(p, n)
    q = field.order
    ex, lg, zech = _field_tables(p, n)
    order = q - 1
    iexps = sorted({i for i, _, _ in terms})
    ipos = {i: k for k, i in enumerate(iexps)}
    by_j = {}
    for i, j, c in terms:
        lc = lg[Elem(field, tuple(d % p for d in c)).index]
        if lc is not None:
            by_j.setdefault(j, []).append((ipos[i], lc))
    jslots = sorted(by_j)

    bound = len(jslots) * n * (p - 1) ** 2 + 1
    width, unit, reduce = _slot_barrett(p, bound, q)
    wb = width // 8
    h = p.bit_length()
    top = unit << h
    ones = unit * ((1 << h) - 1)
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
            nz |= reduce(s)
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

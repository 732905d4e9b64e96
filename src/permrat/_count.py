"""The count kernel, in pure Python: `count_zeros`, the exact zero count of
a bivariate polynomial over F_{p^n} x F_{p^n}.

It evaluates the polynomial at every y in F_q at once for each x, one slot
per y, and counts the zero slots with a flag bit.  The field module's
`_Slots` packs, reads and reduces the slots and gives the power planes, so
this kernel does no field arithmetic per x.  `backend.select` hands out
`_kernel_py`, which loads this module on the first read of its
`count_zeros`, so scanning processes never compile it.
"""

from __future__ import annotations

from .field import _Slots, make_field


def count_zeros(p, n, terms, collect=False):
    """Exact zero count of a sparse bivariate polynomial over F_{p^n} x F_{p^n}.

    terms is a sequence of (i, j, coeff_digits).  Returns (count, zeros)
    where zeros lists the (x_index, y_index) pairs in x, then y, index order
    when collect is true, else None.

    Every sum runs over packed ints with one W-bit slot per z in F_q, and
    P[e][k] packs digit k of z^e (`_Slots.planes`, which folds an exponent
    e >= q to (e - 1) mod (q - 1) + 1).  Digit m of c*z is
    sum_k M(c)[m][k] * z_k, column k of M(c) being the digits of c*X^k.

    * Digit m of row j, r_j(x) = sum_i c_ij x^i, at every x at once is the
      reduced sum_i sum_k M(c_ij)[m][k] * P[i][k]; its slots are below
      (terms in the row)*n*(p-1)^2 + 1.
    * Q[j][l][m], the reduced sum_k (digit m of X^(l+k)) * P[j][k], packs
      digit m of X^l * y^j for every y.  For fixed x, digit m of the value
      at every y is then

          S_m = sum_j sum_l r_{j,l}(x) * Q[j][l][m],

      rows*n products of entries below p: every slot is below
      B = rows*n*(p-1)^2 + 1.

    W fits the larger bound, and one `_slot_barrett` step reduces every
    slot mod p, with no borrow.  With h = bitlen(p) the n digits' remainders
    are ORed and 2^h - 1 added per slot: bit h is set exactly when some digit
    is nonzero (r + 2^h - 1 < 2^(h+1) as r < p < 2^h), so the zeros are the
    clear bits h, and `collect` reads them from every W/8-th byte.  An x with
    every r_j(x) = 0 has all q points as zeros.
    """
    field = make_field(p, n)
    q = field.order
    by_j = {}
    for i, j, c in terms:
        c = tuple(d % p for d in c)
        if any(c):
            by_j.setdefault(j, []).append((i, c))
    width = max([len(by_j), *map(len, by_j.values())])  # rows, terms in a row
    slots = _Slots(field, width * n * (p - 1) ** 2 + 1)
    reduce, wb, h = slots.reduce, slots.wb, p.bit_length()
    top, ones = slots.unit << h, slots.unit * ((1 << h) - 1)
    flag_byte, flag = h // 8, bytes([1 << (h % 8)])

    xpow = [field.one.coeffs]  # digits of X^e, e < 2n - 1
    for _ in range(2 * n - 2):
        xpow.append(field._mul(xpow[-1], field.element(p).coeffs))
    plane = slots.planes({e for j, ts in by_j.items() for e in (j, *(i for i, _ in ts))})
    rows = []  # per row: the digits of r_j at every x, and Q[j] as [(m, plane)] per l
    for j, ts in by_j.items():
        sums = [0] * n
        for i, c in ts:
            for k, pl in enumerate(plane[i]):
                for m, d in enumerate(field._mul(c, xpow[k])):
                    sums[m] += d * pl
        pj = plane[j]
        qj = [[(m, s) for m in range(n)
               if (s := reduce(sum(xpow[l + k][m] * pl for k, pl in enumerate(pj))))]
              for l in range(n)]
        rows.append((list(zip(*(slots.read(reduce(s)) for s in sums))), qj))

    count, zeros = 0, [] if collect else None
    for x in range(q):
        sums = [0] * n
        for rx, qj in rows:
            for rl, ql in zip(rx[x], qj):
                if rl:  # then ql holds a nonzero plane: X^l * 1^j != 0
                    for m, pl in ql:
                        sums[m] += rl * pl
        if not any(sums):  # every r_j(x) = 0
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
                flags = z.to_bytes(slots.size, "little")[flag_byte::wb]
                y = flags.find(flag)
                while y >= 0:
                    zeros.append((x, y))
                    y = flags.find(flag, y + 1)
    return count, zeros

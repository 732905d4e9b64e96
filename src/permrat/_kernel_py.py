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
"""

from __future__ import annotations

from .field import pinvmod, pmul, pdivmod, ptrim

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


def count_zeros(p, n, modulus, terms, collect=False):
    """Exact zero count of a sparse bivariate polynomial over F_{p^n} x F_{p^n}.

    terms is a sequence of (i, j, coeff_digits).  Rows are collapsed per x
    into a sparse polynomial in y.  Returns (count, zeros) where zeros is a
    list of (x_index, y_index) pairs when collect is true, else None.
    """
    q = p ** n
    exps = sorted({i for i, _, _ in terms} | {j for _, j, _ in terms})
    pos = {e: k for k, e in enumerate(exps)}
    count = 0
    zeros = [] if collect else None

    if n == 1:
        powers = [[pow(e, a, p) for a in exps] for e in range(q)]
        by_j = {}
        for i, j, c in terms:
            by_j.setdefault(j, []).append((pos[i], c[0]))
        jslots = sorted(by_j)
        for x in range(q):
            px = powers[x]
            rows = []
            for j in jslots:
                r = 0
                for ipos, c in by_j[j]:
                    r += c * px[ipos]
                r %= p
                if r:
                    rows.append((pos[j], r))
            if not rows:
                count += q
                if collect:
                    zeros.extend((x, y) for y in range(q))
                continue
            for y in range(q):
                py = powers[y]
                v = 0
                for jpos, r in rows:
                    v += r * py[jpos]
                if v % p == 0:
                    count += 1
                    if collect:
                        zeros.append((x, y))
        return count, zeros

    # Extension-field path: digit-tuple arithmetic throughout.
    one = (1,) + (0,) * (n - 1)
    zero = (0,) * n
    powers = []
    for ei in range(q):
        digits = []
        kk = ei
        for _ in range(n):
            kk, c = divmod(kk, p)
            digits.append(c)
        base = tuple(digits)
        powers.append([_digit_pow(base, a, modulus, p, n) for a in exps])
    by_j = {}
    for i, j, c in terms:
        by_j.setdefault(j, []).append((pos[i], tuple(c)))
    jslots = sorted(by_j)
    add = lambda a, b: tuple((x + y) % p for x, y in zip(a, b))
    for x in range(q):
        px = powers[x]
        rows = []
        for j in jslots:
            r = zero
            for ipos, c in by_j[j]:
                r = add(r, _mul_digits(c, px[ipos], modulus, p, n))
            if any(r):
                rows.append((pos[j], r))
        if not rows:
            count += q
            if collect:
                zeros.extend((x, y) for y in range(q))
            continue
        for y in range(q):
            py = powers[y]
            v = zero
            for jpos, r in rows:
                v = add(v, _mul_digits(r, py[jpos], modulus, p, n))
            if not any(v):
                count += 1
                if collect:
                    zeros.append((x, y))
    return count, zeros

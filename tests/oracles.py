"""Slow references that the fast paths of permrat are tested against.

Each oracle walks candidates or field elements one at a time, so it is meant
for small fields only.  None of this is imported by the package itself.
"""

from __future__ import annotations

import functools
import random

from permrat import curve_cases, curves
from permrat.curves import BiPoly
from permrat.field import frobenius, is_irreducible, make_field, pdivmod, pmul, ppowmod, psub
from permrat.maps import MapSpec, denominator, eval_f, trace_class_reps


# ---------------------------------------------------------------------------
# Field layer.

def first_irreducible_modulus(p, n):
    """The modulus convention without the distinct-degree sieve: Rabin's test
    on every monic candidate of degree n, by increasing index of its
    non-leading part, until the first irreducible one."""
    for k in range(p ** n):
        cand = [k // p ** i % p for i in range(n)] + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {n} over F_{p}")


def subfield_by_scan(ctx, d):
    """The order-p^d subfield as the fixed points of x -> x^{p^d}, found by
    applying that map to every element in index order."""
    return [e for e in ctx if frobenius(e, d) == e]


def trace_by_orbit(x, d=1):
    """The level-d trace of x as the sum of its Frobenius orbit
    x + x^{p^d} + x^{p^{2d}} + ..., each conjugate a power of the previous
    one, and checked to be fixed by the p^d-Frobenius: the reference for the
    trace matrix `Field.trace_rows`."""
    f = x.field
    if d < 1 or f.n % d != 0:
        raise ValueError(f"trace level {d} does not divide the extension degree {f.n}")
    acc = cur = x
    for _ in range(f.n // d - 1):
        cur = cur ** f.p ** d
        acc = acc + cur
    if acc ** f.p ** d != acc:
        raise RuntimeError("trace value not fixed by the subfield Frobenius")
    return acc


@functools.lru_cache(maxsize=None)
def first_index_by_trace(p, n, d):
    """{index of t: index of the first element whose level-d trace is t},
    from one index-order walk of F_{p^n} with `trace_by_orbit`."""
    first = {}
    for e in make_field(p, n):
        first.setdefault(trace_by_orbit(e, d).index, e.index)
    return first


def pinvmod(a, mod, p):
    """Inverse of a modulo an irreducible `mod`, by extended Euclid on
    coefficient lists: the reference for the packed inversion."""
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


def _digits(ctx, poly):
    """A coefficient list of degree below n as a digit tuple of ctx."""
    return tuple(poly) + (0,) * (ctx.n - len(poly))


def _modulus(ctx):
    """The modulus of ctx as a coefficient list; F_p is F_p[X]/(X)."""
    return list(ctx.modulus or (0, 1))


def mul_reference(ctx, a, b):
    """a*b on digit tuples: the list product, reduced by the modulus."""
    p = ctx.p
    return _digits(ctx, pdivmod(pmul(list(a), list(b), p), _modulus(ctx), p)[1])


def inv_reference(ctx, a):
    """1/a on digit tuples, by `pinvmod`."""
    return _digits(ctx, pinvmod(list(a), _modulus(ctx), ctx.p))


def pow_reference(ctx, a, e):
    """a^e on digit tuples, by `ppowmod`."""
    return _digits(ctx, ppowmod(list(a), e, _modulus(ctx), ctx.p))


# ---------------------------------------------------------------------------
# The full index-order scan that `_kernel_py.perm_scan` must agree with.

def _image_index(ctx, frob_rows, b_digits):
    """The map xd -> index of f(x) for f(x) = x + (phi(x) - x + b)^{-1}.

    phi is the linear map given by frob_rows (row i = image of basis X^i);
    xd is the digit vector of x.  Raises ValueError where the denominator
    vanishes.
    """
    p, n = ctx.p, ctx.n

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
        iv = inv_reference(ctx, w)
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


def perm_scan_reference(p, n, d, b_digits):
    """Exhaustive index-order image scan; the reference for `perm_scan`.

    Elements are visited in index order 0 .. p^n - 1 with a bitset of seen
    images.  Returns (is_permutation, witness, evaluations) where witness is
    the index pair (i1, i2), i1 < i2, of the first collision in enumeration
    order (i2 is the first repeating argument, i1 its smallest preimage,
    recovered by a second pass) and evaluations counts every evaluation of
    both passes.
    """
    ctx = make_field(p, n)
    f_index = _image_index(ctx, ctx.frobenius_rows(d), b_digits)
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


# ---------------------------------------------------------------------------
# The paper's identities for the map family, pointwise.

def conjugate_b(b, eps, c):
    """The parameter b1 = eps*(b + c^p - c) with eps = +-1.

    This is the change of parameter under which the map family is equivariant:
    f_b(eps*x + c) = eps * f_{b1}(x) + c pointwise.  The trace transforms as
    Tr(b1) = eps * Tr(b), so permutation behavior only depends on the trace
    value up to sign (the reduction behind `maps.trace_class_reps`).
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if c.field != b.field:
        raise ValueError("b and c must share a field context")
    b1 = b + frobenius(c, 1) - c
    return b1 if eps == 1 else -b1


def conjugation_identity_mismatches(p, n, trials=20, seed=None):
    """Exhaustive check of f_b(eps*x + c) = eps*f_{b1}(x) + c over F_{p^n}.

    Runs `trials` seeded random (eps, c) pairs for every trace-class
    representative b; returns the number of pointwise mismatches (zero unless
    something is broken) plus bookkeeping totals.
    """
    ctx = make_field(p, n)
    rng = random.Random(seed if seed is not None else f"conjugation:{p}^{n}")
    mismatches = 0
    points = 0
    for b in trace_class_reps(ctx):
        spec = MapSpec(ctx, b)
        for _ in range(trials):
            eps = rng.choice((1, -1))
            c = ctx.element(rng.randrange(ctx.order))
            spec1 = MapSpec(ctx, conjugate_b(b, eps, c))
            eps_e = ctx.from_int(eps)
            for x in ctx:
                points += 1
                if eval_f(spec, eps_e * x + c) != eps_e * eval_f(spec1, x) + c:
                    mismatches += 1
    return {"p": p, "n": n, "trials": trials, "points": points,
            "mismatches": mismatches}


def difference_value(spec, x, y):
    """f_b(x + y) - f_b(x), cross-checked against its closed form.

    With q = p^d and z = x^q - x + b the difference equals
    y * (z^2 + (y^q - y) z + 1 - y^{q-1}) / (z * ((x+y)^q - (x+y) + b)),
    whose numerator over y is the collision curve; this routine raises
    unless the two evaluations agree.
    """
    lhs = eval_f(spec, x + y) - eval_f(spec, x)
    z = denominator(spec, x)
    q = spec.field.p ** spec.d
    yq = frobenius(y, spec.d)
    num = y * (z * z + (yq - y) * z + 1 - y ** (q - 1))
    den = z * denominator(spec, x + y)
    rhs = num * den.inverse()
    if lhs != rhs:
        raise RuntimeError("difference identity mismatch (implementation bug)")
    return lhs


# ---------------------------------------------------------------------------
# Curve layer.

def count_infinity_walk(poly):
    """`curves.count_infinity` by walking F_q: [1 : 0 : 0] when the top form
    has no X^d term, plus every x in F_q with form(x, 1) = 0, evaluated with
    field elements."""
    f = poly.field
    lf = poly.leading_form()
    count = 0 if (poly.degree, 0) in lf else 1
    for x in f:
        acc = f.zero
        for (i, _j), c in lf.items():
            acc = acc + c * x ** i
        if not acc:
            count += 1
    return count


def sextic_terms(p, t):
    """G at t = tau^2 as integer terms mod p, in closed form: the degree-4
    part A, then -t * X^2 Y^2 (X - Y)^2."""
    terms = {
        (4, 0): 1,
        (3, 1): -2 * t,
        (2, 2): -2 + 4 * t + t * t,
        (1, 3): -2 * t,
        (0, 4): 1,
        (4, 2): -t,
        (3, 3): 2 * t,
        (2, 4): -t,
    }
    return {ij: c % p for ij, c in terms.items() if c % p}


def quartic_terms(p, t):
    """H at t = tau^2 as integer terms mod p, in closed form."""
    terms = {
        (4, 0): 1,
        (2, 1): -(4 + 2 * t),
        (0, 2): 8 * t + t * t,
        (2, 2): -t,
        (0, 3): 4 * t,
    }
    return {ij: c % p for ij, c in terms.items() if c % p}


def eq28_symbolic_per_tau(p):
    """`curve_cases._ident_eq28_case`'s symbolic check one tau at a time:
    whether G = H(X + Y, X*Y) by the binomial expansion at every tau in
    1 .. p - 1, with G and H read from `curves.criterion_sextic` and
    `curves.symmetric_quartic` at call time."""
    ctx = make_field(p, 1)
    return all(
        curve_cases._symmetric_expansion(curves.symmetric_quartic(ctx, tau).int_terms(), p)
        == curves.criterion_sextic(ctx, tau).int_terms() for tau in range(1, p))


def ident_subst_walk(p):
    """`curve_cases._ident_subst_case`'s counts by walking F_{p^2} with field
    elements: the substitution identity at every tau in F_p^* and y != 0,
    and G(y, y^p) = -a*b at tau = +-1 and every y.  G is read from
    `curves.criterion_sextic` at call time and rebuilt over F_{p^2} from its
    integer terms.  Returns (points, mismatches, factorization mismatches)."""
    base = make_field(p, 1)
    ctx = make_field(p, 2)

    def sextic(tau):
        g = curves.criterion_sextic(base, tau).int_terms()
        return BiPoly(ctx, g)

    inv2 = ctx.from_int(2).inverse()
    mismatches = 0
    checked = 0
    for tau_i in range(1, p):
        tau = ctx.from_int(tau_i)
        tau_inv = tau.inverse()
        g = sextic(tau_i)
        scale_const = (4 * tau * tau).inverse()
        for yi in range(1, ctx.order):
            y = ctx.element(yi)
            yp = frobenius(y, 1)
            y_pm1 = yp * y.inverse()          # y^{p-1}
            y_1mp = y_pm1.inverse()           # y^{1-p}
            z = inv2 * (tau + y - yp + tau_inv * y_pm1 - tau_inv * y_1mp)
            lhs = z * z + (yp - y) * z + 1 - y_pm1
            rhs = g.eval(y, yp) * scale_const * (y ** (2 + 2 * p)).inverse()
            checked += 1
            if lhs != rhs:
                mismatches += 1
    factor_mismatches = 0
    for tau_i in (1, p - 1):
        g = sextic(tau_i)
        for y in ctx:
            yp = frobenius(y, 1)
            a = y * y + yp * yp - y * yp - y * y * yp + y * yp * yp
            bb = -(y * y) - yp * yp + y * yp - y * y * yp + y * yp * yp
            factor_mismatches += g.eval(y, yp) != -(a * bb)
    return checked, mismatches, factor_mismatches


def eq28_pointwise_walk(p, tau=2):
    """`curve_cases._ident_eq28_case`'s mismatches by a double loop over F_p^2:
    the points where G(x, y) != H(x + y, x*y), with G and H read from
    `curves.criterion_sextic` and `curves.symmetric_quartic` at call time
    and evaluated on integer terms from tables of powers."""
    ctx = make_field(p, 1)
    tau %= p
    g = curves.criterion_sextic(ctx, tau).int_terms()
    h = curves.symmetric_quartic(ctx, tau).int_terms()
    top = max(max(i, j) for i, j in (*g, *h))
    pw = [[pow(v, e, p) for e in range(top + 1)] for v in range(p)]
    mismatches = 0
    for x in range(p):
        px = pw[x]
        for y in range(p):
            py, ps, pt = pw[y], pw[(x + y) % p], pw[x * y % p]
            gv = sum(c * px[i] * py[j] for (i, j), c in g.items())
            hv = sum(c * ps[a] * pt[b] for (a, b), c in h.items())
            if (gv - hv) % p:
                mismatches += 1
    return mismatches


def compose_symmetric(h):
    """h(X + Y, X*Y) expanded back into a BiPoly by repeated multiplication."""
    ctx = h.field
    s = BiPoly(ctx, {(1, 0): 1, (0, 1): 1})
    prod = BiPoly(ctx, {(1, 1): 1})
    acc = BiPoly(ctx, {})
    for (a, b), c in h.terms.items():
        term = BiPoly(ctx, {(0, 0): c})
        for _ in range(a):
            term = term * s
        for _ in range(b):
            term = term * prod
        acc = acc + term
    return acc


def phi_census_by_eval(g, h):
    """`curves.phi_fibers(p, t)` for the curves g and h at t, by evaluating
    them with `BiPoly.eval` at every point of F_p^2: the two zero sets, the
    sizes of the fibers of (x, y) -> (x + y, x*y) over the images of G's
    zeros other than the origin, and the number of distinct images of all of
    G's zeros."""
    ctx = g.field
    p = ctx.p
    pts = [(x, y) for x in ctx for y in ctx]
    vg = [(x.index, y.index) for x, y in pts if not g.eval(x, y)]
    vh = [(x.index, y.index) for x, y in pts if not h.eval(x, y)]
    fibers = {}
    for x, y in vg:
        if (x, y) != (0, 0):
            img = ((x + y) % p, x * y % p)
            fibers[img] = fibers.get(img, 0) + 1
    sizes = {2: 0}  # the size the census reports, even when no fiber has it
    for size in fibers.values():
        sizes[size] = sizes.get(size, 0) + 1
    return {
        "v_g_size": len(vg), "v_h_size": len(vh), "fiber_sizes": sizes,
        "phi_image_size": len({((x + y) % p, x * y % p) for x, y in vg}),
    }


def kernel_zeros(poly):
    """The affine zeros of `poly` from its own `count_zeros(collect=True)`
    pass (`curves.affine_zeros`), as a tuple of (x, y) index pairs in x,
    then y order."""
    return tuple((x.index, y.index) for x, y in curves.affine_zeros(poly))


def phi_fibers_per_curve(g, h):
    """`curves.phi_fibers(p, t)` for the curves g and h at t, from a kernel
    pass over each of the two, in place of the pencil census of p: the
    same checks of the diagonal, the image and the fibers, raising the same
    RuntimeError on an anomaly."""
    p = g.field.p
    vg = kernel_zeros(g)
    vh = set(kernel_zeros(h))
    diag = [pt for pt in vg if pt[0] == pt[1]]
    if diag != [(0, 0)]:
        raise RuntimeError(f"diagonal zeros of the sextic are {diag}, expected [(0, 0)]")
    fibers = {}
    for x, y in vg:
        if (x, y) == (0, 0):
            continue
        img = ((x + y) % p, x * y % p)
        if img not in vh:
            raise RuntimeError("cover image escapes the quartic's zero set")
        fibers.setdefault(img, []).append((x, y))
    for img, fib in fibers.items():
        if len(fib) != 2:
            raise RuntimeError(f"fiber over {img} has size {len(fib)}, expected 2")
    if 2 * len(fibers) + 1 != len(vg):
        raise RuntimeError("fiber census does not account for every zero")
    return {
        "v_g_size": len(vg), "v_h_size": len(vh),
        "fiber_sizes": {2: len(fibers)},
        "phi_image_size": len(fibers) + 1,
    }


def pencil_zeros_per_point(p, pencil):
    """`curves._pencil_zeros(p, pencil)` point by point: zeros[t] for every t
    in F_p, the affine zeros of the pencil's member at t as (x, y) index
    pairs in x, then y order.  At each point of F_p^2 the rows A_k(x, Y) are
    evaluated one y at a time and the quadratic a0 + t*a1 + t^2*a2 in t is
    solved with a table of square roots (`curves._file_roots`)."""
    root, inv = curves._root_tables(p)
    ys = range(p)
    ypow = {}  # j -> y^j mod p for every y
    zeros = [[] for _ in range(p)]
    for x in range(p):
        rows = ({}, {}, {})  # rows[k][j]: the Y^j coefficient of A_k(x, Y)
        for (i, j), cs in pencil.items():
            xi = pow(x, i, p)
            for row, c in zip(rows, cs):
                row[j] = row.get(j, 0) + c * xi
        vals = []  # a0, a1, a2 at every y, unreduced
        for row in rows:
            v = [0] * p
            for j, r in row.items():
                r %= p
                if r:
                    if j not in ypow:
                        ypow[j] = [pow(y, j, p) for y in ys]
                    v = [s + r * w for s, w in zip(v, ypow[j])]
            vals.append(v)
        curves._file_roots(zeros, x, vals, root, inv, p)
    return tuple(map(tuple, zeros))

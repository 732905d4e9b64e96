"""Sparse bivariate polynomials over a field context, exact point counts
and integer bound audits for plane curves.

Builders for the four curves attached to the map family:

* collision_curve(ctx, b): the degree-2p curve whose zeros (x, y), y != 0,
  certify f_b(x + y) = f_b(x).
* criterion_sextic(ctx, tau): the degree-6 curve over F_p whose points of the
  form (y, y^p) encode the solvability step of the quadratic-extension trace
  criterion.
* symmetric_quartic(ctx, tau): its symmetric reduction H with
  criterion_sextic(X, Y) = H(X + Y, X*Y), halving the degree at the cost of
  the 2-to-1 cover (x, y) -> (x + y, x*y).
* homogenization_quartic(ctx, t): the sextic's degree-4 part A, so that
  criterion_sextic = A - t * X^2 Y^2 (X - Y)^2 with t = tau^2; the sextic
  homogenizes to A * Z^2 - t * X^2 Y^2 (X - Y)^2.

Point counts are exact; graph_zeros counts the x in F_q with P(x, x^k) = 0
by one gcd with X^q - X, for the points at infinity (k = 0) and the
substitution identity of curve_cases (k = p), folding any exponent of q or
more down below q first.

G and H depend on tau only through t = tau^2, and each is a quadratic in t
with integer coefficients: G = A0 + t*A1 + t^2*A2, likewise H.  They are
written once, as the literal pencils _SEXTIC and _QUARTIC, and the builders
of G, H and A above read their curves off them (_member).  The per-t counts
a weil-audit case needs are read off one per-prime record, pencil_census(p),
which keeps the last prime: for each pencil reduced mod p, the points at
infinity of every member (one pass over F_p, solving the quadratic in t of
the top-degree form at each x) and the zero sets of every member as sorted
int codes x*p + y (one packed pass over F_p^2, solving the quadratic in t
at each point with a square root read off a table; see _pencil_zeros for
the slot bound).  Like count_zeros it refuses a field whose p^2 points exceed
COUNT_BUDGET.  The cover census phi_fibers(p, t) checks the cover
(x, y) -> (x + y, x*y) on those codes.  affine_zeros (the one caller of the
kernel's collect=True path) has no caller here; it stays because perfbench's
TARGETS times it by name.

The Hasse-Weil-style bound audits, weil_lower_check and weil_upper_check,
are pure integer comparisons (squared inequalities, no floating point) that
the curve cases run on these counts.  Since absolute irreducibility is
not certified here, the audits are consistency checks, not proofs, and are
labeled as such in reports.

The univariate toolkit behind the lemma cases of curve_cases (uni_derivative,
uni_gcd, is_squarefree, uni_square_root) works on `field`'s polynomial lists
over F_p, with p passed alongside.
"""

from __future__ import annotations

import functools
import re
from bisect import insort
from itertools import compress
from operator import mul
from typing import NamedTuple

from . import backend
from .field import Elem, Field, _Slots, make_field, pgcd_monic, pmul, ppowmod, psub, ptrim

COUNT_BUDGET = 1 << 34  # cap on q^2 evaluation points


class BiPoly:
    """Sparse bivariate polynomial: a map (i, j) -> nonzero coefficient."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = {}
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError("negative exponent in polynomial term")
            if isinstance(c, int):
                c = field.from_int(c)
            elif c.field != field:
                raise ValueError("coefficient from a different field context")
            if c:
                self.terms[(i, j)] = c

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((i + j for i, j in self.terms), default=-1)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for ij, c in other.terms.items():
            out[ij] = out.get(ij, self.field.zero) + c
        return BiPoly(self.field, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for ij, c in other.terms.items():
            out[ij] = out.get(ij, self.field.zero) - c
        return BiPoly(self.field, out)

    def __mul__(self, other):
        if isinstance(other, (int, Elem)):
            if isinstance(other, int):
                other = self.field.from_int(other)
            return BiPoly(self.field, {ij: c * other for ij, c in self.terms.items()})
        out = {}
        zero = self.field.zero
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, zero) + c1 * c2
        return BiPoly(self.field, out)

    __rmul__ = __mul__

    def int_terms(self, need: str = "this operation") -> dict:
        """The terms with each coefficient as its integer in [0, p); raises
        ValueError ("<need> requires ...") when one lies outside F_p."""
        out = {}
        for ij, c in self.terms.items():
            if any(c.coeffs[1:]):
                raise ValueError(f"{need} requires prime-subfield coefficients")
            out[ij] = c.coeffs[0]
        return out

    def eval(self, x: Elem, y: Elem) -> Elem:
        f = self.field
        if x.field != f or y.field != f:
            raise ValueError("evaluation point outside the polynomial's field")
        powx, powy = {}, {}
        acc = f.zero
        for (i, j), c in self.terms.items():
            if i not in powx:
                powx[i] = x ** i
            if j not in powy:
                powy[j] = y ** j
            acc = acc + c * powx[i] * powy[j]
        return acc

    def leading_form(self) -> dict:
        d = self.degree
        return {ij: c for ij, c in self.terms.items() if ij[0] + ij[1] == d}

    def to_text(self) -> str:
        """Render in the CLI text format (prime-subfield coefficients only)."""
        if not self.terms:
            return "0"
        terms = self.int_terms("text format")
        parts = []
        for (i, j) in sorted(terms, key=lambda ij: (-(ij[0] + ij[1]), -ij[0])):
            chunk = []
            cval = terms[(i, j)]
            if cval != 1 or (i == 0 and j == 0):
                chunk.append(str(cval))
            if i:
                chunk.append("X" if i == 1 else f"X^{i}")
            if j:
                chunk.append("Y" if j == 1 else f"Y^{j}")
            parts.append("*".join(chunk))
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly({self.field!r}, {len(self.terms)} terms, degree {self.degree})"


# ---------------------------------------------------------------------------
# Curve builders.

def collision_curve(ctx: Field, b: Elem) -> BiPoly:
    """(X^p - X + b)^2 + (Y^p - Y)(X^p - X + b) + 1 - Y^{p-1} over F_{p^n}.

    Zeros with y != 0 certify a collision f_b(x + y) = f_b(x).  Total degree
    is exactly 2p with leading form X^{2p} + X^p Y^p.  b must pass the map's
    level-1 hypothesis check, `Field.check_trace_hypothesis`.
    """
    if b.field != ctx:
        raise ValueError("b must live in the given field context")
    ctx.check_trace_hypothesis(b.coeffs)
    p = ctx.p
    z = BiPoly(ctx, {(p, 0): 1, (1, 0): -1 % p, (0, 0): b})
    ydiff = BiPoly(ctx, {(0, p): 1, (0, 1): -1 % p})
    tail = BiPoly(ctx, {(0, 0): 1}) - BiPoly(ctx, {(0, p - 1): 1})
    poly = z * z + ydiff * z + tail
    assert poly.degree == 2 * p
    return poly


def _check_tau(ctx: Field, tau: int) -> int:
    if ctx.n != 1:
        raise ValueError("this curve is defined over a prime field context")
    tau %= ctx.p
    if tau == 0:
        raise ValueError("tau must be nonzero")
    return tau


# G and H as pencils in t = tau^2: each exponent pair maps to the integer
# coefficients (a0, a1, a2) of its coefficient a0 + t*a1 + t^2*a2.  G is the
# degree-4 part A, then -t * X^2 Y^2 (X - Y)^2.
_SEXTIC = {(4, 0): (1, 0, 0), (3, 1): (0, -2, 0), (2, 2): (-2, 4, 1), (1, 3): (0, -2, 0),
           (0, 4): (1, 0, 0), (4, 2): (0, -1, 0), (3, 3): (0, 2, 0), (2, 4): (0, -1, 0)}
_QUARTIC = {(4, 0): (1, 0, 0), (2, 1): (-4, -2, 0), (0, 2): (0, 8, 1), (2, 2): (0, -1, 0),
            (0, 3): (0, 4, 0)}


def _member(pencil: dict, t: int, p: int) -> dict:
    """The integer terms mod p of the pencil's member at t."""
    out = {}
    for ij, (a0, a1, a2) in pencil.items():
        c = (a0 + t * (a1 + t * a2)) % p
        if c:
            out[ij] = c
    return out


def _sextic(ctx: Field, t: int) -> BiPoly:
    """G at t = tau^2."""
    return BiPoly(ctx, _member(_SEXTIC, t, ctx.p))


def criterion_sextic(ctx: Field, tau: int) -> BiPoly:
    """The degree-6 curve G with G(y, y^p) = 0 at solutions of the
    substituted collision equation on a quadratic extension; diagonal values
    G(x, x) = tau^4 x^4."""
    tau = _check_tau(ctx, tau)
    return _sextic(ctx, tau * tau % ctx.p)


def _quartic(ctx: Field, t: int) -> BiPoly:
    """H at t = tau^2."""
    return BiPoly(ctx, _member(_QUARTIC, t, ctx.p))


def symmetric_quartic(ctx: Field, tau: int) -> BiPoly:
    """The reduction H with criterion_sextic(X, Y) = H(X + Y, X*Y)."""
    tau = _check_tau(ctx, tau)
    return _quartic(ctx, tau * tau % ctx.p)


def homogenization_quartic(ctx: Field, t: int) -> BiPoly:
    """The symmetric quartic A(X, Y), the degree-4 part of the sextic at
    t = tau^2: G = A - t*X^2 Y^2 (X-Y)^2, so G homogenizes to
    A*Z^2 - t*X^2 Y^2 (X-Y)^2."""
    if ctx.n != 1:
        raise ValueError("defined over a prime field context")
    return BiPoly(ctx, {ij: c for ij, c in _member(_SEXTIC, t, ctx.p).items() if sum(ij) == 4})


# ---------------------------------------------------------------------------
# Exact point counts.

def _term_list(poly: BiPoly):
    return [(i, j, poly.terms[(i, j)].coeffs) for (i, j) in sorted(poly.terms)]


def check_count_budget(q: int) -> None:
    """Refuse a field of order q whose q^2 points exceed COUNT_BUDGET."""
    if q * q > COUNT_BUDGET:
        raise ValueError("affine counting budget exceeded (q^2 > 2^34)")


def _kernel_zeros(poly: BiPoly, collect: bool):
    """The kernel's (count, zeros) for `poly`, zeros as index pairs."""
    f = poly.field
    check_count_budget(f.order)
    kern = backend.select(f.p)
    return kern.count_zeros(f.p, f.n, _term_list(poly), collect)


def count_affine(poly: BiPoly) -> int:
    """|{(x, y) in F_q^2 : poly(x, y) = 0}| by row-collapsed evaluation."""
    return _kernel_zeros(poly, False)[0]


def affine_zeros(poly: BiPoly) -> list[tuple[Elem, Elem]]:
    """The affine zero set, in (x index, y index) enumeration order."""
    f = poly.field
    zeros = _kernel_zeros(poly, True)[1]
    return [(f.element(xi), f.element(yi)) for xi, yi in zeros]


def count_infinity(poly: BiPoly) -> int:
    """Rational projective zeros [x : y : 0] of the top-degree form,
    counted without multiplicity over the base field F_q.

    [1 : 0 : 0] is one when the form has no X^d term; the rest are [x : 1 : 0]
    for the distinct roots in F_q of form(x, 1), which graph_zeros counts
    with k = 0.  The form must have F_p coefficients.
    """
    if not poly.terms:
        raise ValueError("the zero polynomial has no leading form")
    f = poly.field
    form = BiPoly(f, poly.leading_form()).int_terms("the infinity count")
    return (0 if (poly.degree, 0) in form else 1) + graph_zeros(form, 0, f.order, f.p)


def graph_zeros(terms: dict, k: int, q: int, p: int) -> int:
    """|{x in F_q : P(x, x^k) = 0}| for the integer terms P of a polynomial
    over F_p, q a power of p: deg gcd(u, X^q - X) with u(X) = P(X, X^k), or
    q when u = 0."""
    u = [0] * min(q, max((i + k * j for i, j in terms), default=0) + 1)
    for (i, j), c in terms.items():
        e = i + k * j
        if e >= q:  # x^e = x^((e - 1) mod (q - 1) + 1) on F_q, so u has degree < q
            e = (e - 1) % (q - 1) + 1
        u[e] += c
    u = ptrim([c % p for c in u])
    if not u:
        return q
    return len(pgcd_monic(u, psub(ppowmod([0, 1], q, u, p), [0, 1], p), p)) - 1


def _weil_check(kind: str, sign: int, count: int, q: int, d: int, n_inf: int):
    """The audit with slack = sign * (q + 1 - n_inf - count)."""
    slack = sign * (q + 1 - n_inf - count)
    bound_sq = (d - 1) ** 2 * (d - 2) ** 2 * q
    ok = slack <= 0 or slack * slack <= bound_sq
    audit = {
        "kind": kind, "mode": "consistency", "count": count, "q": q,
        "degree": d, "n_inf": n_inf, "slack": slack,
        "slack_sq": slack * slack, "bound_sq": bound_sq, "ok": ok,
    }
    return ok, audit


def weil_lower_check(count: int, q: int, d: int, n_inf: int):
    """Exact-integer test of count >= q + 1 - (d-1)(d-2)*sqrt(q) - n_inf.

    Passes iff L = q + 1 - n_inf - count is <= 0 or L^2 <= (d-1)^2 (d-2)^2 q.
    Returns (ok, audit) with every compared integer recorded.
    """
    return _weil_check("lower", 1, count, q, d, n_inf)


def weil_upper_check(count: int, q: int, d: int, n_inf: int):
    """Mirror image: count <= q + 1 + (d-1)(d-2)*sqrt(q) - n_inf."""
    return _weil_check("upper", -1, count, q, d, n_inf)


def _root_tables(p: int) -> tuple[list, list]:
    """root[s]: a square root of s in F_p, or None; inv[c]: 1/c (inv[0] = 0),
    from 1/c = -(p // c) / (p mod c)."""
    root = [None] * p
    for r in range((p + 1) // 2):
        root[r * r % p] = r
    inv = [0, 1] + [0] * (p - 2)
    for c in range(2, p):
        inv[c] = -(p // c) * inv[p % c] % p
    return root, inv


def _file_roots(zeros: list, x, rows, root: list, inv: list, p: int) -> None:
    """For y = 0 .. p - 1, with a0, a1, a2 the (unreduced) values rows[k][y],
    append (x, y) to zeros[t] for each root t in F_p of a0 + t*a1 + t^2*a2,
    or to every zeros[t] when all three vanish."""
    for y, a0, a1, a2 in zip(range(p), *rows):
        a2 %= p
        if a2:
            r = root[(a1 * a1 - 4 * a0 * a2) % p]
            if r is None:
                continue
            d = inv[2 * a2 % p]
            zeros[(r - a1) * d % p].append((x, y))
            if r:
                zeros[(-r - a1) * d % p].append((x, y))
        elif a1 % p:
            zeros[-a0 * inv[a1 % p] % p].append((x, y))
        elif not a0 % p:
            for z in zeros:
                z.append((x, y))


def _discriminant(pencil: dict, p: int) -> dict:
    """The integer terms mod p of A1^2 - 4*A0*A2, the discriminant in t of
    the pencil A0 + t*A1 + t^2*A2, from its coefficient triples."""
    out = {}
    for (i1, j1), c in pencil.items():
        for (i2, j2), d in pencil.items():
            ij = (i1 + i2, j1 + j2)
            out[ij] = out.get(ij, 0) + c[1] * d[1] - 4 * c[0] * d[2]
    return {ij: c % p for ij, c in out.items() if c % p}


def _pencil_zeros(p: int, pencil: dict) -> tuple[tuple, ...]:
    """zeros[t] for every t in F_p: the affine zeros of the pencil's member at
    t, as the sorted int codes x*p + y (x, then y order), from one pass over
    F_p^2.

    At each point the member's value a0 + t*a1 + t^2*a2 is a quadratic in t
    with discriminant a1^2 - 4*a0*a2, itself a polynomial D in (X, Y) built
    once per prime (`_discriminant`).  For each x the rows A1(x, .),
    A2(x, .) and D(x, .) are evaluated packed on the field module's
    `_Slots`, one W-bit slot per y (so the census loads no kernel): a row is
    sum_j r_j * plane[j], where plane[e] packs y^e mod p for every y and
    r_j = sum_i c_ij x^i mod p is read off one packed sum over every x,
    sum_i c_ij * plane[i].  Either sum has at most `width` terms, each a
    product of two values below p, so every slot is below
    B = width*(p-1)^2 + 1 and one `_slot_barrett` step reduces all of them
    mod p with no borrow.

    The reduced slots are read as bytes: the low byte of each slot, or for
    p >= 256 its value from its nb = ceil(bitlen(p)/8) low bytes.  Bit h of
    a2 + 2^h - 1, h = bitlen(p), flags a2 != 0, and the D row keeps d + 1
    (at most p, so it fits nb bytes) where a2 != 0 and 0 elsewhere.  So one
    table lookup on it (`bytes.translate` for p < 256) says which points
    have a2 != 0 and a square d, and another gives a root r of d.
    `itertools.compress` passes only those points to Python, which files
    each under t = (+-r - a1)/(2*a2), with -a1 and 1/(2*a2) read off two
    more tables and the product reduced mod p by indexing (`file`).  The
    few points with a2 = 0 are solved one by one: filed under t = -a0/a1
    when a1 != 0, or under every t when a0 = a1 = 0, by sorted insertion.
    """
    ak = [{ij: cs[k] for ij, cs in pencil.items()} for k in range(3)]  # A0, A1, A2
    rows = []  # A1, A2, D and A0, each as {j: [(i, c), ...]}
    for poly in (ak[1], ak[2], _discriminant(pencil, p), ak[0]):
        by_j = {}
        for (i, j), c in poly.items():
            if c:
                by_j.setdefault(j, []).append((i, c))
        rows.append(by_j)
    width = max(len(ts) for by_j in rows for ts in (by_j, *by_j.values()))
    slots = _Slots(make_field(p), width * (p - 1) ** 2 + 1)
    reduce, read, unit, wb, nb = slots.reduce, slots.read, slots.unit, slots.wb, slots.nb
    h = p.bit_length()
    top, ones, low = unit << h, unit * ((1 << h) - 1), (1 << 8 * nb) - 1
    exps = {e for by_j in rows for j, ts in by_j.items() for e in (j, *(i for i, _ in ts))}
    plane = {e: pl for e, (pl,) in slots.planes(exps).items()}  # y^e for every y
    # per row: the planes of its js, and for every x the tuple of its r_j(x)
    packed = []
    for by_j in rows:
        coeffs = [read(reduce(sum(c * plane[i] for i, c in ts))) for ts in by_j.values()]
        packed.append(([plane[j] for j in by_j], list(zip(*coeffs)) or [()] * p))
    (pl1, r1), (pl2, r2), (pld, rd), (_, r0) = packed
    ypows = list(zip(*map(read, map(plane.get, rows[3])))) or [()] * p  # y^j, js of A0

    roots, inv = _root_tables(p)
    inv2 = [inv[2 * a % p] for a in range(p)]
    neg = [-a % p for a in range(p)]
    square = [0] + [r is not None for r in roots]  # at d + 1: d is a square
    root = [0] + [r or 0 for r in roots]  # and its root
    if nb == 1:
        inv2, neg, square, root = (bytes(tab + [0] * (256 - len(tab)))
                                   for tab in (inv2, neg, square, root))
        look = bytes.translate
    else:
        def look(vals, table):
            return list(map(table.__getitem__, vals))

    zeros = [[] for _ in range(p)]
    # file[k] appends to zeros[k mod p] for every |k| below its length, a
    # multiple of p above 1.5*(p-1)^2 >= |(b +- r) * i| for the b, r, i below
    file = [z.append for z in zeros] * (3 * p // 2 + 1)
    for x in range(p):
        a1, a2, d = (reduce(sum(map(mul, r[x], pl))) for r, pl in ((r1, pl1), (r2, pl2),
                                                                   (rd, pld)))
        nz = ((a2 + ones) & top) >> h  # 1 in the slots where a2 != 0
        d = read((d + unit) & nz * low)
        a1, base = read(a1), x * p
        for c, b, i, r in compress(zip(range(base, base + p), look(a1, neg),
                                       look(read(a2), inv2), look(d, root)), look(d, square)):
            file[(r + b) * i](c)  # b = -a1 mod p
            if r:
                file[(b - r) * i](c)
        flat = (nz ^ unit).to_bytes(slots.size, "little")[::wb]  # 1 where a2 = 0
        y = flat.find(1)
        while y >= 0:
            a0 = sum(map(mul, r0[x], ypows[y])) % p
            if a1[y]:
                insort(zeros[-a0 * inv[a1[y]] % p], base + y)
            elif not a0:
                for z in zeros:
                    insort(z, base + y)
            y = flat.find(1, y + 1)
    return tuple(map(tuple, zeros))


def _pencil_infinity(ctx: Field, pencil: dict) -> tuple[int, ...]:
    """infinity[t]: count_infinity of the pencil's member at t, for every t
    in F_p.

    The top-degree form of the pencil is a quadratic in t too: one pass over
    x in F_p files each [x : 1 : 0] under the t whose form vanishes at (x, 1),
    and [1 : 0 : 0] counts wherever the X^d coefficient vanishes.  A member
    whose top form vanishes has a lower degree, and count_infinity counts it.
    """
    p = ctx.p
    d = max((i + j for i, j in pencil), default=-1)
    top = {ij: cs for ij, cs in pencil.items() if sum(ij) == d}
    rows = [[0] * p for _ in range(3)]  # rows[k][x]: A_k's top form at (x, 1), unreduced
    for (i, _), cs in top.items():
        xi = [pow(x, i, p) for x in range(p)]
        rows = [[r + c * v for r, v in zip(row, xi)] if c else row for row, c in zip(rows, cs)]
    found = [[] for _ in range(p)]  # found[t]: (None, x) for each root x
    _file_roots(found, None, rows, *_root_tables(p), p)
    out = []
    for t, xs in enumerate(found):
        form = _member(top, t, p)
        out.append(((d, 0) not in form) + len(xs) if form
                   else count_infinity(BiPoly(ctx, _member(pencil, t, p))))
    return tuple(out)


class PencilCensus(NamedTuple):
    """One pencil over one odd prime p (see pencil_census)."""

    pencil: dict  # (i, j) -> (a0, a1, a2) mod p: the member at t is A0 + t*A1 + t^2*A2
    infinity: tuple  # count_infinity of the member at t, for every t in F_p
    zeros: tuple  # the member's affine zeros at t, as sorted int codes x*p + y


@functools.lru_cache(maxsize=1)
def pencil_census(p: int) -> tuple[PencilCensus, PencilCensus]:
    """The sextic and quartic pencils over F_p, p odd, as (g, h): each
    reduced mod p, with the points at infinity of every member
    (_pencil_infinity) and the affine zeros of every member as the sorted
    int codes x*p + y, x then y order (_pencil_zeros), so g.zeros[t] holds
    the zeros of criterion_sextic at tau^2 = t.  One pass over F_p and one
    packed pass over F_p^2 per pencil; the last prime's census is kept.
    Raises the kernel's ValueError when p^2 exceeds COUNT_BUDGET, before any
    pencil is built."""
    check_count_budget(p)
    if p == 2:
        raise ValueError("the pencil census needs an odd characteristic")
    ctx = make_field(p, 1)
    out = []
    for pencil in (_SEXTIC, _QUARTIC):
        pencil = {ij: tuple(c % p for c in cs) for ij, cs in pencil.items()}
        out.append(PencilCensus(pencil, _pencil_infinity(ctx, pencil), _pencil_zeros(p, pencil)))
    return tuple(out)


def phi_fibers(p: int, t: int) -> dict:
    """Census of the cover (x, y) -> (x + y, x*y) from the zero set of the
    sextic G to that of the quartic H at t = tau^2, over F_p, p odd, read off
    pencil_census(p).

    It reads the census's int codes c = x*p + y directly (the diagonal x = y
    is c = x*(p + 1), the image of c is the code (x + y)*p + x*y mod p), and
    names points as (x, y) pairs only in its messages.  Checks that the only
    diagonal zero is the origin, that the image lands in the quartic's zero
    set, and that every off-diagonal fiber has size exactly 2.  Any anomaly
    raises RuntimeError since the underlying algebra guarantees these facts
    for G and H at one t: a failure means an implementation bug.
    """
    g, h = pencil_census(p)
    vg, vh = g.zeros[t % p], set(h.zeros[t % p])
    diag = [divmod(c, p) for c in vg if not c % (p + 1)]  # x*p + x = x*(p + 1)
    if diag != [(0, 0)]:
        raise RuntimeError(f"diagonal zeros of the sextic are {diag}, expected [(0, 0)]")
    fibers: dict[int, int] = {}
    for c in vg[1:]:  # the origin, code 0, sorts first
        x, y = divmod(c, p)
        img = (x + y) % p * p + x * y % p
        if img not in vh:
            raise RuntimeError("cover image escapes the quartic's zero set")
        fibers[img] = fibers.get(img, 0) + 1
    for img, size in fibers.items():
        if size != 2:
            raise RuntimeError(f"fiber over {divmod(img, p)} has size {size}, expected 2")
    image_size = len(fibers) + 1  # plus the image of the origin
    if 2 * len(fibers) + 1 != len(vg):
        raise RuntimeError("fiber census does not account for every zero")
    return {
        "v_g_size": len(vg), "v_h_size": len(vh),
        "fiber_sizes": {2: len(fibers)},
        "phi_image_size": image_size,
    }


# ---------------------------------------------------------------------------
# Univariate toolkit over F_p (backs the gcd-chain and squarefreeness checks).
# `field`'s list convention: coefficients in [0, p), constant term first, no
# trailing zeros, [] for zero.

def uni_derivative(a: list[int], p: int) -> list[int]:
    """The formal derivative of a; a and the result in `field`'s list convention."""
    return ptrim([e * c % p for e, c in enumerate(a)][1:])


def uni_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b, all in `field`'s list convention; gcd(a, []) is a
    divided by its leading coefficient.  Both inputs zero is an error."""
    return pgcd_monic(a, b, p)


def is_squarefree(a: list[int], p: int) -> bool:
    """Whether a, nonzero and in `field`'s list convention, has no repeated
    factor: gcd(a, a') = 1."""
    return uni_gcd(a, uni_derivative(a, p), p) == [1]


def uni_square_root(a: list[int], p: int) -> list[int] | None:
    """Monic square root of a, if one exists; [] for [].  a and the root are
    in `field`'s list convention, and only a monic even-degree a can have one.
    p must be odd (ValueError at p = 2).

    Matches coefficients of (X^m + r_{m-1} X^{m-1} + ...)^2 from the top
    down, then verifies; returns None when the final comparison fails.
    """
    if p == 2:
        raise ValueError("uni_square_root requires an odd prime")
    d = len(a) - 1
    if d < 0:
        return []
    if d % 2 or a[-1] != 1:
        return None
    m = d // 2
    r = [0] * (m + 1)
    r[m] = 1
    inv2 = pow(2, p - 2, p)
    for k in range(m - 1, -1, -1):
        s = sum(r[i] * r[m + k - i] for i in range(k + 1, m)) % p
        r[k] = (a[m + k] - s) * inv2 % p
    return r if pmul(r, r, p) == a else None


# ---------------------------------------------------------------------------
# Text format: "c*X^i*Y^j +- ...", coefficients reduced mod p.

_TERM_RE = re.compile(r"(?i)^(\d+)?(\*?x(?:\^(\d+))?)?(\*?y(?:\^(\d+))?)?$")


def parse_bipoly(text: str, field: Field) -> BiPoly:
    """Parse the minimal polynomial text format used by the CLI."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    if s[0] not in "+-":
        s = "+" + s
    chunks = re.findall(r"[+-][^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"malformed polynomial text: {text!r}")
    terms: dict[tuple[int, int], int] = {}
    for chunk in chunks:
        sign, body = chunk[0], chunk[1:]
        m = _TERM_RE.match(body)
        # '*' separates factors, so it cannot open a term
        if not m or not body or body[0] == "*":
            raise ValueError(f"bad polynomial term: {body!r}")
        coeff_s, x_part, x_exp, y_part, y_exp = m.groups()
        if coeff_s is None and x_part is None and y_part is None:
            raise ValueError(f"bad polynomial term: {body!r}")
        c = int(coeff_s) if coeff_s else 1
        if sign == "-":
            c = -c
        i = int(x_exp) if x_exp else (1 if x_part else 0)
        j = int(y_exp) if y_exp else (1 if y_part else 0)
        terms[(i, j)] = terms.get((i, j), 0) + c
    return BiPoly(field, {ij: field.from_int(c) for ij, c in terms.items()})

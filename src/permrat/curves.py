"""Sparse bivariate polynomials over a field context, exact point counts
and integer bound audits for plane curves.

Builders for the three curves attached to the map family:

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
by one gcd with X^q - X, for the points at infinity (k = 0) and verify's
substitution identity (k = p), folding any exponent of q or more down below
q first.  The Hasse-Weil-style bound audits, weil_lower_check and
weil_upper_check, are pure integer comparisons (squared inequalities, no
floating point) that verify's curve cases run on these counts.  Since
absolute irreducibility is not certified here, the audits are consistency
checks, not proofs, and are labeled as such in reports.
"""

from __future__ import annotations

import re

from . import backend
from .field import Elem, Field, padd, pgcd_monic, pmul, ppowmod, psub, ptrim

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
    is exactly 2p with leading form X^{2p} + X^p Y^p.
    """
    from .field import absolute_trace

    if b.field != ctx:
        raise ValueError("b must live in the given field context")
    if absolute_trace(b) == 0:
        raise ValueError("collision curve requires a parameter with nonzero trace")
    p = ctx.p
    z = BiPoly(ctx, {(p, 0): 1, (1, 0): -1 % p, (0, 0): b})
    ydiff = BiPoly(ctx, {(0, p): 1, (0, 1): -1 % p})
    tail = BiPoly(ctx, {(0, 0): 1}) - BiPoly(ctx, {(0, p - 1): 1})
    poly = z * z + ydiff * z + tail
    assert poly.degree == 2 * p
    return poly


def _check_tau(ctx: Field, tau: int, forbid_unit: bool = False) -> int:
    if ctx.n != 1:
        raise ValueError("this curve is defined over a prime field context")
    tau %= ctx.p
    if tau == 0:
        raise ValueError("tau must be nonzero")
    if forbid_unit and tau in (1, ctx.p - 1):
        raise ValueError("tau must differ from +1 and -1")
    return tau


def _sextic(ctx: Field, t: int) -> BiPoly:
    """G at t = tau^2: the degree-4 part A, then -t * X^2 Y^2 (X - Y)^2."""
    return BiPoly(ctx, {
        (4, 0): 1,
        (3, 1): -2 * t,
        (2, 2): -2 + 4 * t + t * t,
        (1, 3): -2 * t,
        (0, 4): 1,
        (4, 2): -t,
        (3, 3): 2 * t,
        (2, 4): -t,
    })


def criterion_sextic(ctx: Field, tau: int) -> BiPoly:
    """The degree-6 curve G with G(y, y^p) = 0 at solutions of the
    substituted collision equation on a quadratic extension; diagonal values
    G(x, x) = tau^4 x^4."""
    tau = _check_tau(ctx, tau)
    return _sextic(ctx, tau * tau % ctx.p)


def symmetric_quartic(ctx: Field, tau: int) -> BiPoly:
    """The reduction H with criterion_sextic(X, Y) = H(X + Y, X*Y)."""
    tau = _check_tau(ctx, tau)
    t = tau * tau % ctx.p
    return BiPoly(ctx, {
        (4, 0): 1,
        (2, 1): -(4 + 2 * t),
        (0, 2): 8 * t + t * t,
        (2, 2): -t,
        (0, 3): 4 * t,
    })


def homogenization_quartic(ctx: Field, t: int) -> BiPoly:
    """The symmetric quartic A(X, Y), the degree-4 part of the sextic at
    t = tau^2: G = A - t*X^2 Y^2 (X-Y)^2, so G homogenizes to
    A*Z^2 - t*X^2 Y^2 (X-Y)^2."""
    if ctx.n != 1:
        raise ValueError("defined over a prime field context")
    g = _sextic(ctx, t % ctx.p)
    return BiPoly(ctx, {ij: c for ij, c in g.terms.items() if sum(ij) == 4})


# ---------------------------------------------------------------------------
# Exact point counts.

def _term_list(poly: BiPoly):
    return [(i, j, poly.terms[(i, j)].coeffs) for (i, j) in sorted(poly.terms)]


def _kernel_zeros(poly: BiPoly, collect: bool):
    """The kernel's (count, zeros) for `poly`, zeros as index pairs."""
    f = poly.field
    if f.order ** 2 > COUNT_BUDGET:
        raise ValueError("affine counting budget exceeded (q^2 > 2^34)")
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


def phi_fibers(p: int, tau: int) -> dict:
    """Census of the cover (x, y) -> (x + y, x*y) from the sextic's zero set
    to the quartic's.

    Checks that the only diagonal zero is the origin, that the image lands in
    the quartic's zero set, and that every off-diagonal fiber has size
    exactly 2.  Any anomaly raises RuntimeError since the underlying algebra
    guarantees these facts: a failure means an implementation bug.
    """
    from .field import make_field

    ctx = make_field(p, 1)
    tau = _check_tau(ctx, tau, forbid_unit=True)
    g = criterion_sextic(ctx, tau)
    h = symmetric_quartic(ctx, tau)
    vg = _kernel_zeros(g, True)[1]
    vh = set(_kernel_zeros(h, True)[1])
    diag = [pt for pt in vg if pt[0] == pt[1]]
    if diag != [(0, 0)]:
        raise RuntimeError(f"diagonal zeros of the sextic are {diag}, expected [(0, 0)]")
    fibers: dict[tuple[int, int], list] = {}
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
    image_size = len(fibers) + 1  # plus the image of the origin
    if 2 * len(fibers) + 1 != len(vg):
        raise RuntimeError("fiber census does not account for every zero")
    return {
        "p": p, "tau": tau,
        "v_g_size": len(vg), "v_h_size": len(vh),
        "fiber_sizes": {2: len(fibers)},
        "phi_image_size": image_size,
    }


# ---------------------------------------------------------------------------
# Univariate toolkit over F_p (backs the gcd-chain and squarefreeness checks).

class UniPoly:
    """Dense univariate polynomial over F_p, constant term first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        self.coeffs = tuple(ptrim([c % p for c in coeffs]))

    @classmethod
    def from_terms(cls, p: int, terms: dict) -> "UniPoly":
        coeffs = [0] * (max(terms, default=0) + 1)
        for e, c in terms.items():
            coeffs[e] = c
        return cls(p, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniPoly(self.p, [other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __mul__(self, other):
        return UniPoly(self.p, pmul(list(self.coeffs), list(other.coeffs), self.p))

    def __add__(self, other):
        return UniPoly(self.p, padd(list(self.coeffs), list(other.coeffs), self.p))

    def __sub__(self, other):
        return UniPoly(self.p, psub(list(self.coeffs), list(other.coeffs), self.p))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __repr__(self):
        return f"UniPoly(p={self.p}, coeffs={self.coeffs})"


def uni_derivative(a: UniPoly) -> UniPoly:
    return UniPoly(a.p, [c * e for e, c in enumerate(a.coeffs)][1:])


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd; gcd(a, 0) is a divided by its leading coefficient.  Both
    inputs zero is an error."""
    if a.p != b.p:
        raise ValueError("gcd of polynomials over different primes")
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials")
    return UniPoly(a.p, pgcd_monic(list(a.coeffs), list(b.coeffs), a.p))


def is_squarefree(a: UniPoly) -> bool:
    return uni_gcd(a, uni_derivative(a)) == UniPoly(a.p, [1])


def uni_square_root(a: UniPoly) -> UniPoly | None:
    """Monic square root, if one exists (odd p, monic even-degree input).

    Matches coefficients of (X^m + r_{m-1} X^{m-1} + ...)^2 from the top
    down, then verifies; returns None when the final comparison fails.
    """
    p = a.p
    d = a.degree
    if d < 0:
        return UniPoly(p, [])
    if d % 2 or a.coeffs[-1] != 1:
        return None
    m = d // 2
    r = [0] * (m + 1)
    r[m] = 1
    inv2 = pow(2, p - 2, p)
    for k in range(m - 1, -1, -1):
        s = sum(r[i] * r[m + k - i] for i in range(k + 1, m)) % p
        r[k] = (a.coeffs[m + k] - s) * inv2 % p
    cand = UniPoly(p, r)
    return cand if cand * cand == a else None


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

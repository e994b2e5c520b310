"""Plane-curve germs and their even resolution.

A germ is the local integer equation f(y, z) of a branch divisor at a point
of a ruled surface, with y the fiber direction and z the base direction.  It
is stored sparsely as a map {(i, j): c} from exponent pairs to nonzero
integer coefficients, kept in canonical form: nonempty support, content 1,
and the monomial that is minimal under the key (j, i) has a positive
coefficient (so presentations like y^a - z^b keep their sign).

Blowing up the origin uses the two standard charts

    chart 1:  (y, z) -> (y, y*v)   exceptional line E = {y = 0},
                                   covering tangent directions [1 : v];
    chart 2:  (y, z) -> (u*z, z)   exceptional line E = {z = 0},
                                   adding the direction at infinity [0 : 1].

The *even* transform divides the total transform by the exceptional
coordinate to the power 2*floor(m/2), where m is the multiplicity.  When m
is odd one copy of E survives inside the even transform, and every crossing
of E with the residual divisor is a singular point of the transform.

The search for singular points of the even transform is restricted to
rational tangent directions, and completeness is certified: a *simple* root
of the restriction to E, rational or not, is provably either smooth (even
multiplicity) or a transverse A1 node (odd multiplicity, E is a component).
It is recorded so, with no Taylor shift and no chart pass of its own: a
rational node as a Descendant with no germ, conjugate nodes in bulk as one
ConjugateDirections packet.  A *multiple* irrational root that passes the
singularity test raises RequiresAlgebraicExtension instead of being dropped.

All germ arithmetic, Taylor shifts by multiple rational roots included, is
exact integer dictionary manipulation.  Most univariate factoring is integer
work too: the v^k factor is split off inline, so constants and monomials
(most restrictions to E) never reach sympy, and a binomial c*(v^n +- 1) (the
restriction to E of y^a - z^b, among others) splits into cyclotomic
polynomials, each built from binomials by Mobius inversion.  Only the rest,
the non-binomials, goes to sympy's dense factoring over ZZ; no restriction
met by the acceptance grid, the record families or the search sweep is one.
The divisibility test for a multiple irrational direction is an integer
pseudo-remainder.

One chart pass per germ finds the points of its even transform on E and
decides once whether blowing it up needs an algebraic extension.  The pass
charts the even transform itself, so a germ is built only for a singular
point it keeps, and once: at a multiple rational root or at infinity whose
lowest total degree is at least 2.  Its chart record is the kernel's one
object per germ.  The kernel keeps two process-wide memos that hold every
entry for the life of the process: that chart record of each germ, and the
factor list of each univariate polynomial.  Infinitely-near germs repeat
across inputs (y^a - z^b blows up to y^a - z^(b-a)), so each distinct one
is charted and factored once per process, however long its chain.

Once the even resolution of a germ has gone through without an exception,
its chart record also holds a summary of it, built from the records of its
points on E, to which it holds direct references: its height (the depth of
its deepest point, the germ at depth 0), the two sums the invariant formulas
need, whether it is NonNegligibleInterior, and its label.  So each germ is
resolved once per process: a resolution that meets a summarized germ at
depth d goes no deeper, and overflows the depth cap when d + its height
does.  The walk, with an explicit stack, keeps the depth-first order of its
checks, so the first failure it meets is the one raised; a record's verdict
is raised afresh at each visit.  A germ that does not resolve gets no
summary.

The label of a negligible point is A, D or E with index its Milnor number mu:

    an A1 node has mu = 1, a packet of them mu = 1 per direction;
    a point of multiplicity 3 has mu = 1 + the sum of its children's mu.
        E is part of its even transform, so its children are the points of
        the strict transform on E, one per tangent line: it is D with two
        or more children (a packet counts by its size) and E with one;
    a point of multiplicity 2 is A, with mu = 2 + its child's mu when it
        has a child.  A leaf has mu = 1 when its 2-jet is two distinct
        lines, and mu = 2 (a cusp) when it is a double line.

A trace reads its multiplicities, cluster heads and points off the
records, each by one walk with an explicit stack.  The datum path builds
no point records; only a reader of ``points`` makes a trace build its own
tuple of fresh, frozen TracePoints, in depth-first order, whose depths give
back the tree.  The Germ, Descendant and chart records inside may be
shared between traces, and they are read-only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from operator import index

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

__all__ = [
    "Germ",
    "ConjugateDirections",
    "Descendant",
    "TracePoint",
    "ResolutionTrace",
    "INFINITY",
    "parse_germ",
    "even_blow_up",
    "even_resolve",
    "GermSyntaxError",
    "RequiresAlgebraicExtension",
    "DepthOverflow",
    "DEFAULT_MAX_DEPTH",
    "ascii_int",
]

DEFAULT_MAX_DEPTH = 64

#: Marker for the tangent direction [0:1] (the chart-2 origin).
INFINITY = "infinity"


class GermSyntaxError(ValueError):
    """Malformed germ expression text."""


class RequiresAlgebraicExtension(Exception):
    """A certified singular point of an even transform has no rational model."""


class DepthOverflow(Exception):
    """Resolution exceeded the depth cap; the input germ is suspect."""

    @classmethod
    def past_cap(cls, max_depth: int) -> DepthOverflow:
        """The overflow of an even resolution that blows up a point deeper
        than max_depth."""
        return cls(f"no smooth model within {max_depth} blow-ups")


# ---------------------------------------------------------------------------
# the germ itself

class Germ:
    """Canonical bivariate integer polynomial, sparse representation.

    Invariants: support nonempty; gcd of coefficients 1; the coefficient of
    the (j, i)-minimal monomial is positive.  multiplicity is the minimal
    total degree over the support.  Exponents and coefficients must be
    integers (operator.index): anything else raises TypeError.
    """

    __slots__ = ("support", "multiplicity", "_hash")

    def __init__(self, support):
        # one sorted pass over (j, i, c) puts the terms in canonical order
        terms = sorted([(index(j), index(i), index(c)) for (i, j), c in support.items() if c])
        if not terms:
            raise ValueError("all terms cancel")
        if terms[0][0] < 0 or min([i for _, i, _ in terms]) < 0:
            raise ValueError("negative exponent in germ support")
        content = gcd(*[c for _, _, c in terms])
        if terms[0][2] < 0:  # the (j, i)-minimal monomial gets a positive coefficient
            content = -content
        if content == 1:
            self.support = {(i, j): c for j, i, c in terms}
        else:
            self.support = {(i, j): c // content for j, i, c in terms}
        self.multiplicity = min([i + j for j, i, _ in terms])
        self._hash = hash(tuple(self.support.items()))  # the memos hash germs often

    def __eq__(self, other):
        return isinstance(other, Germ) and self.support == other.support

    def __hash__(self):
        return self._hash

    def __str__(self):
        parts = []
        for (i, j), c in self.support.items():
            factors = []
            if abs(c) != 1 or (i == 0 and j == 0):
                factors.append(str(abs(c)))
            if i == 1:
                factors.append("y")
            elif i > 1:
                factors.append(f"y^{i}")
            if j == 1:
                factors.append("z")
            elif j > 1:
                factors.append(f"z^{j}")
            term = "*".join(factors)
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"Germ({str(self)!r})"


# ---------------------------------------------------------------------------
# parsing

def parse_germ(text: str) -> Germ:
    """Parse a germ expression in y, z with integer coefficients.

    Grammar: expr := term (('+'|'-') term)*;
    term := [integer]['*']? factor ('*' factor)*;
    factor := 'y'['^' integer] | 'z'['^' integer] | '(' expr ')'.
    Integers are ASCII digits, read by ascii_int.  Whitespace is
    insignificant; a leading sign is tolerated.  The polynomial must vanish
    at the origin (no constant term once expanded).  Parentheses nest at
    most _MAX_NESTING (100) deep, whatever the depth of the caller's stack.
    """
    tokens = _tokenize(text)
    if tokens.count("(") > _MAX_NESTING:  # each '(' costs three frames of _parse_*
        depth = 0
        for tok in tokens:
            depth += (tok == "(") - (tok == ")")
            if depth > _MAX_NESTING:
                raise GermSyntaxError("parentheses nested too deeply")
    result, pos = _parse_expr(tokens, 0)
    if tokens[pos] is not None:
        raise GermSyntaxError(f"trailing input at token {tokens[pos]!r}")
    if (0, 0) in result:
        raise GermSyntaxError("a germ must vanish at the origin")
    return Germ(result)


# Each _parse_* reads the tokens from index pos on and returns the polynomial
# it read with the index after it.  The token list ends with the marker None,
# which matches no rule, so no read runs past the end.

def _parse_expr(tokens, pos):
    tok = tokens[pos]
    if tok == "+" or tok == "-":
        pos += 1
    acc, pos = _parse_term(tokens, pos)
    if tok == "-":
        acc = _scale(acc, -1)
    tok = tokens[pos]
    while tok == "+" or tok == "-":
        term, pos = _parse_term(tokens, pos + 1)
        acc = _add(acc, term if tok == "+" else _scale(term, -1))
        tok = tokens[pos]
    return acc, pos


def _parse_term(tokens, pos):
    tok = tokens[pos]
    if type(tok) is int:
        pos += 1
        if tokens[pos] == "*":
            pos += 1
        if tokens[pos] not in _FACTOR_START:
            raise GermSyntaxError("a term needs at least one variable factor")
        acc, pos = _parse_factor(tokens, pos)
        acc = _mul({(0, 0): tok}, acc)
    elif tok in _FACTOR_START:
        acc, pos = _parse_factor(tokens, pos)
    else:
        raise GermSyntaxError(f"unexpected token {tok!r}")
    while tokens[pos] == "*":
        factor, pos = _parse_factor(tokens, pos + 1)
        acc = _mul(acc, factor)
    return acc, pos


def _parse_factor(tokens, pos):
    tok = tokens[pos]
    pos += 1
    if tok == "(":
        inner, pos = _parse_expr(tokens, pos)
        if tokens[pos] != ")":
            raise GermSyntaxError("unbalanced parenthesis")
        return inner, pos + 1
    if tok == "y" or tok == "z":
        exp = 1
        if tokens[pos] == "^":
            exp = tokens[pos + 1]
            if type(exp) is not int or exp < 0:
                raise GermSyntaxError("exponent must be a non-negative integer")
            pos += 2
        return {(exp, 0) if tok == "y" else (0, exp): 1}, pos
    raise GermSyntaxError(f"unexpected token {tok!r}")


_FACTOR_START = ("y", "z", "(")

#: The deepest nesting of parentheses parse_germ reads, well within the
#: interpreter's recursion limit.
_MAX_NESTING = 100

#: One token per match: an ASCII integer, a symbol, or an illegal character.
_TOKEN = re.compile(r"[0-9]+|[yz^*+()-]|\S")
_SYMBOLS = frozenset("yz^*+()-")


def ascii_int(text: str, *, signed: bool = False) -> int | None:
    """The value of text made only of ASCII digits, after one leading minus
    when signed; None for any other text (no other digits, underscores, plus
    sign or spaces), or for a value past the interpreter's limit on integer
    digits, to which leading zeros do not count.  fibrato reads every
    integer written as text through it; only JSON numbers are read by json."""
    negative = signed and text[:1] == "-"
    digits = text[1:] if negative else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        value = int(digits.lstrip("0") or "0")
    except ValueError:  # past the interpreter's limit
        return None
    return -value if negative else value


def _tokenize(text):
    tokens = []
    for tok in _TOKEN.findall(text):
        if tok in _SYMBOLS:
            tokens.append(tok)
        elif "0" <= tok[0] <= "9":
            value = ascii_int(tok)
            if value is None:
                raise GermSyntaxError(f"integer of {len(tok)} digits is too long")
            tokens.append(value)
        else:
            raise GermSyntaxError(f"illegal character {tok!r}")
    if not tokens:
        raise GermSyntaxError("empty input")
    tokens.append(None)  # the end marker
    return tokens


def _add(p, q):
    out = dict(p)
    for ij, c in q.items():
        out[ij] = out.get(ij, 0) + c
    return {ij: c for ij, c in out.items() if c}


def _scale(p, s):
    return {ij: c * s for ij, c in p.items()}


def _mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            ij = (i1 + i2, j1 + j2)
            out[ij] = out.get(ij, 0) + c1 * c2
    return {ij: c for ij, c in out.items() if c}


# ---------------------------------------------------------------------------
# raw support manipulation for blow-ups

def _chart1(support, m):
    """Total transform under z = y*v, divided by y^m: (i, j) -> (i + j - m, j)."""
    return {(i + j - m, j): c for (i, j), c in support.items()}


def _chart2(support, m):
    """Total transform under y = u*z, divided by z^m: (i, j) -> (i, i + j - m)."""
    return {(i, i + j - m): c for (i, j), c in support.items()}


def _shift_second(support, r: Fraction):
    """Substitute second variable -> second + r, scaled to stay integral.

    With r = p/q in lowest terms and d the top degree in the second variable,
    the exact shift times q^d maps c*x^i*v^j to
    c*x^i * sum_t C(j, t) p^(j-t) q^(d-j+t) v^t.  The result is a positive
    multiple of the exact shift; Germ() divides out the content, so the
    canonical germ is the same.
    """
    if not r:
        return dict(support)
    p, q = r.numerator, r.denominator
    deg = max(j for _, j in support)
    p_pow, q_pow = [1], [1]
    for _ in range(deg):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)
    acc = {}
    for (i, j), c in support.items():
        binom = 1
        for t in range(j + 1):
            key = (i, t)
            acc[key] = acc.get(key, 0) + c * binom * p_pow[j - t] * q_pow[deg - j + t]
            binom = binom * (j - t) // (t + 1)
    return {ij: c for ij, c in acc.items() if c}


def _row(support, i):
    """Coefficients of the terms of degree i in the first variable, as a
    polynomial in the second, low degree first; (0,) when there are none.
    Row 0 is the restriction to {first var = 0}, row 1 the first-order part."""
    row = {j: c for (a, j), c in support.items() if a == i}
    if not row:
        return (0,)
    out = [0] * (max(row) + 1)
    for j, c in row.items():
        out[j] = c
    return tuple(out)


# ---------------------------------------------------------------------------
# univariate helpers (sympy only for non-binomials)

@cache
def _factors(coeffs: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Irreducible integer factors of a polynomial, deterministic order.

    Returns ((coeffs_low_to_high, exponent), ...), dropping the content; the
    zero polynomial and constants have no factors.  The v^k factor is split
    off inline, so constants and monomials never reach sympy; a binomial
    c*(v^n +- 1) that remains splits into cyclotomic polynomials in integers
    (_cyclotomic_factors).  sympy only sees the rest, the non-binomials: its
    dense factoring over ZZ, the routine Poly.factor_list runs.  Every
    factor is primitive with a positive leading coefficient, sorted by
    (length, coefficients).  Memoized per process by coefficient tuple.
    """
    low, high = 0, len(coeffs)
    while high > 0 and coeffs[high - 1] == 0:
        high -= 1
    while low < high and coeffs[low] == 0:
        low += 1
    out = [((0, 1), low)] if low and high else []
    if high - low > 1:
        first, last = coeffs[low], coeffs[high - 1]
        if abs(first) == abs(last) and not any(coeffs[low + 1:high - 1]):
            out += [(phi, 1) for phi in _cyclotomic_factors(high - low - 1, first == last)]
        else:
            _, factors = dup_factor_list([ZZ(c) for c in reversed(coeffs[low:high])], ZZ)
            for f, e in factors:
                out.append((tuple(int(c) for c in reversed(f)), int(e)))
        out.sort(key=lambda fe: (len(fe[0]), fe[0]))
    return tuple(out)


def _cyclotomic_factors(n: int, plus: bool) -> list[tuple[int, ...]]:
    """The irreducible factors of v^n + 1 (plus) or v^n - 1, each simple:
    v^n - 1 is the product of Phi_d over d | n, and v^n + 1 = (v^2n - 1) /
    (v^n - 1) the product of Phi_d over the d | 2n that do not divide n."""
    top = 2 * n if plus else n
    small = [d for d in range(1, isqrt(top) + 1) if top % d == 0]
    return [_cyclotomic(d) for d in set(small + [top // d for d in small])
            if not (plus and n % d == 0)]


def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d, low coefficients first.

    Mobius inversion of v^d - 1 = prod_{e | d} Phi_e gives Phi_d as the
    product of the binomials v^e - 1, e | d, each to the power mu(d/e):
    e = d / (a product of k distinct primes of d), mu = (-1)^k.  Multiply by
    the binomials with mu = +1 first, then divide the others out exactly,
    so every intermediate is an integer polynomial; each step is linear in
    the degree.
    """
    up, down = [d], []
    rest, p = d, 2
    while rest > 1:  # over the distinct primes p of d
        if p * p > rest:
            p = rest
        if rest % p == 0:
            up, down = up + [e // p for e in down], down + [e // p for e in up]
            while rest % p == 0:
                rest //= p
        p += 1
    poly = [1]
    for e in up:  # times v^e - 1
        poly = [a - b for a, b in zip([0] * e + poly, poly + [0] * e)]
    for e in down:  # the quotient q of poly by v^e - 1: poly[i] = q[i - e] - q[i]
        q = [-c for c in poly[:len(poly) - e]]
        for i in range(e, len(q)):
            q[i] += q[i - e]
        poly = q
    return tuple(poly)


def _divides(q, p):
    """Whether q divides p over the rationals (p may be the zero tuple);
    q's last coefficient is nonzero.  The pseudo-remainder of p by q stays
    in the integers: each step scales the remainder by q's leading
    coefficient and cancels its top term; q divides p when it vanishes."""
    r = list(p)
    lead, dq = q[-1], len(q) - 1
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) <= dq:
            return not r
        top = r.pop()
        shift = len(r) - dq
        r = [c * lead for c in r]
        for i in range(dq):
            r[shift + i] -= top * q[i]


# ---------------------------------------------------------------------------
# the points over the origin: one chart pass per germ

@dataclass(frozen=True)
class ConjugateDirections:
    """A packet of conjugate tangent directions cut out by an irreducible
    integer polynomial of degree >= 2 (low coefficients first).  Each
    direction carries a certified transverse A1 node of the even transform."""

    min_poly: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.min_poly) - 1


@dataclass(frozen=True)
class Descendant:
    """A non-smooth point of the even transform on the exceptional line.

    direction is a Fraction for a finite rational direction, INFINITY for
    [0:1], or a ConjugateDirections packet.  germ is None for certified A1
    nodes: a packet, or one node at a simple rational root.
    """

    direction: object
    germ: Germ | None

    @property
    def count(self) -> int:
        return self.direction.count if isinstance(self.direction, ConjugateDirections) else 1


@dataclass(slots=True, eq=False)
class _StrictPoints:
    """The chart record of a germ g of multiplicity m >= 2, the kernel's one
    object per germ: the points of E over the origin, read off the even
    transform (the strict transform times E^(m mod 2)) in charts 1 and 2
    once, and the summary of g's even resolution once it has gone through.
    It compares by identity.

    error: the text of the RequiresAlgebraicExtension that blowing up g
        raises, else None: for odd m, the first multiple irrational factor
        of the restriction to E; for even m, where a simple root is a smooth
        point of the transform, the first multiple one that divides the
        y-linear part, as the strict transform is singular at its points;
    even: the non-smooth points of the even transform; germ None marks
        certified A1 nodes.  A simple rational root gets no Taylor shift, as
        the strict transform is smooth there and transverse to E; a germ is
        built only at a point the record keeps, of lowest total degree at
        least 2;
    below: None until g resolves, then a (Descendant, record) pair per point
        of ``even``, the last one first, as a depth-first walk stacks them;
        the record is None at A1 nodes;
    height: the depth of the deepest point below g, 0 at a leaf;
    sum_k_km1, sum_km1_sq: the sums of k*(k - 1) and (k - 1)^2,
        k = floor(m_i/2), over all points of the resolution;
    interior: whether a multiplicity > 3 lies in it (a NonNegligibleInterior
        point); mu and label follow the mu rule of the module docstring.
    """

    error: str | None
    even: tuple
    below: tuple | None = field(default=None, repr=False)
    height: int = 0
    sum_k_km1: int = 0
    sum_km1_sq: int = 0
    interior: bool = False
    mu: int = 0
    label: str = ""

    def sum_up(self, g: Germ, below: tuple) -> None:
        """Summarize g's resolution from below, its points paired with their
        summarized records."""
        m = g.multiplicity
        k = m // 2
        height = mu = count = 0
        sum_k_km1, sum_km1_sq, interior = k * (k - 1), (k - 1) ** 2, m > 3
        for desc, s in below:
            count += desc.count
            if s is None:  # A1 nodes, mu = 1 each
                mu += desc.count
                continue
            height = max(height, s.height)
            sum_k_km1 += s.sum_k_km1
            sum_km1_sq += s.sum_km1_sq
            interior = interior or s.interior
            mu += s.mu
        if interior:
            self.label = "NonNegligibleInterior"
        elif m == 3:
            mu += 1
            self.label = f"D{mu}" if count >= 2 else f"E{mu}"
        else:
            if count:
                mu += 2
            else:  # a leaf: its 2-jet a*y^2 + b*y*z + c*z^2 is two lines or one
                jet = g.support.get
                mu = 1 if jet((1, 1), 0) ** 2 != 4 * jet((2, 0), 0) * jet((0, 2), 0) else 2
            self.label = f"A{mu}"
        self.height = height + 1 if below else 0
        self.sum_k_km1, self.sum_km1_sq = sum_k_km1, sum_km1_sq
        self.interior, self.mu, self.below = interior, mu, below


@cache
def _strict_points(g: Germ) -> _StrictPoints:
    m = g.multiplicity
    eps = m % 2  # for odd m, E is a component of the even transform: row 0 is empty
    chart = _chart1(g.support, m - eps)  # the even transform; its row eps lies on E
    even, simple, error = [], [], None
    for coeffs, exp in _factors(_row(chart, eps)):
        if len(coeffs) == 2:
            root = Fraction(-coeffs[0], coeffs[1])
            if exp >= 2:
                shifted = _shift_second(chart, root)
                if min([i + j for i, j in shifted]) >= 2:
                    even.append(Descendant(root, Germ(shifted)))
            elif eps:  # a smooth point of the strict transform: E crosses it in an A1 node
                even.append(Descendant(root, None))
        elif exp == 1:
            simple.append(coeffs)
        elif error is None and eps:
            error = f"multiple irrational direction {coeffs} on E for {g}"
        elif error is None and _divides(coeffs, _row(chart, 1)):
            error = f"singular irrational direction {coeffs} for {g}"
    even.sort(key=lambda d: d.direction)
    if eps:  # likewise at each simple irrational direction
        even += [Descendant(ConjugateDirections(c), None) for c in simple]
    chart = _chart2(g.support, m - eps)
    if min([i + j for i, j in chart]) >= 2:
        even.append(Descendant(INFINITY, Germ(chart)))
    return _StrictPoints(error, tuple(even))


def even_blow_up(g: Germ) -> list[Descendant]:
    """One even blow-up at the origin; the non-smooth points of the transform.

    The total transform in each chart is divided by the exceptional
    coordinate to the power 2*floor(m/2); for odd m the surviving copy of E
    is part of the returned descendant germs.  Raises
    RequiresAlgebraicExtension when a certified singular point lies at an
    irrational direction that cannot be packaged as an A1 cluster.
    Memoized per process; each call gets a new list.
    """
    if g.multiplicity < 2:
        raise ValueError("even_blow_up requires multiplicity >= 2")
    pts = _strict_points(g)
    if pts.error is not None:
        raise RequiresAlgebraicExtension(pts.error)
    return list(pts.even)


# ---------------------------------------------------------------------------
# full even resolution

@dataclass(frozen=True)
class TracePoint:
    """One infinitely-near point of the even resolution, a read-only record.

    count > 1 marks a packet of conjugate points sharing the same data; germ
    is None at certified A1 nodes, such a packet or a simple rational root.
    classification is an ADE label ("A1", "D4", "E6", ...) when the point
    heads a cluster with all multiplicities <= 3, else "NonNegligibleInterior".
    """

    depth: int
    multiplicity: int
    k: int
    classification: str
    direction: object
    germ: Germ | None
    count: int = 1


def _summary(g: Germ, max_depth: int) -> _StrictPoints:
    """The chart record of g (multiplicity >= 2) with its resolution summed
    up, summing up the records below it where missing, children first.
    Raises DepthOverflow when a point lies deeper than max_depth, and
    RequiresAlgebraicExtension at a record with an error, whichever a
    depth-first walk meets first."""
    done = []  # the records of the subtrees walked, in depth-first order
    stack = [(0, g, None)]
    while stack:
        depth, germ, pts = stack.pop()
        if pts is not None:  # all its children are summed up: sum up germ
            pts.sum_up(germ, tuple([(d, None if d.germ is None else done.pop())
                                    for d in reversed(pts.even)]))
            done.append(pts)
            continue
        if depth > max_depth:
            raise DepthOverflow.past_cap(max_depth)
        pts = _strict_points(germ)
        if pts.below is not None:
            if depth + pts.height > max_depth:
                raise DepthOverflow.past_cap(max_depth)
            done.append(pts)
            continue
        if pts.error is not None:
            raise RequiresAlgebraicExtension(pts.error)
        if pts.even and depth == max_depth:  # its first child lies past the cap
            raise DepthOverflow.past_cap(max_depth)
        stack.append((depth, germ, pts))
        stack += [(depth + 1, d.germ, None) for d in reversed(pts.even) if d.germ is not None]
    return done[0]


class ResolutionTrace:
    """Even-resolution record: all infinitely-near points of multiplicity >= 2
    in depth-first order, plus the derived sums the invariant formulas need.

    sum_k_km1 is the sum of k_i*(k_i - 1) and sum_km1_sq the sum of
    (k_i - 1)^2 over all points, k_i = floor(m_i/2).  They, the
    classification and the cluster heads come from the root's summarized
    chart record (None for a smooth germ); the multiplicities and ``points``
    by a walk over the records below it.  ``points`` is built on its first
    read: a tuple of fresh, frozen TracePoints in depth-first order.
    """

    __slots__ = ("germ", "sum_k_km1", "sum_km1_sq", "_root", "_points")

    def __init__(self, germ: Germ, root: _StrictPoints | None):
        self.germ = germ
        self.sum_k_km1 = root.sum_k_km1 if root else 0
        self.sum_km1_sq = root.sum_km1_sq if root else 0
        self._root = root
        self._points = None

    @property
    def points(self) -> tuple[TracePoint, ...]:
        if self._points is None:
            self._points = _trace_points(self.germ, self._root)
        return self._points

    @property
    def classification(self) -> str:
        """"Smooth" for a germ of multiplicity <= 1, "NonNegligible" when the
        root is a NonNegligibleInterior point, otherwise the root's ADE label."""
        if self._root is None:
            return "Smooth"
        return "NonNegligible" if self._root.interior else self._root.label

    def clusters(self) -> list[str]:
        """The labels of the cluster heads in depth-first order.  A cluster
        head is a point that is not NonNegligibleInterior and is the root or
        a child of a NonNegligibleInterior point; its subtree is negligible."""
        heads = []
        stack = [] if self._root is None else [self._root]
        while stack:
            s = stack.pop()
            if s is None:
                heads.append("A1")
            elif s.interior:
                stack += [kid for _, kid in s.below]
            else:
                heads.append(s.label)
        return heads

    def multiplicities(self) -> list[int]:
        """The multiplicity sequence, conjugate packets expanded; a new list
        on each call."""
        if self._root is None:
            return []
        mults = [self.germ.multiplicity]
        stack = list(self._root.below)
        while stack:
            desc, s = stack.pop()
            if s is None:
                mults += [2] * desc.count
            else:
                mults.append(desc.germ.multiplicity)
                stack += s.below
        return mults

    def __eq__(self, other):
        if not isinstance(other, ResolutionTrace):
            return NotImplemented
        return (self.germ, self.points) == (other.germ, other.points)

    __hash__ = None

    def __repr__(self):
        return f"ResolutionTrace(germ={self.germ!r}, points={self.points!r})"


def _trace_points(germ: Germ, root: _StrictPoints | None) -> tuple[TracePoint, ...]:
    points = []
    stack = [] if root is None else [(0, Descendant(None, germ), root)]
    while stack:
        depth, desc, s = stack.pop()
        if s is None:
            points.append(TracePoint(depth, 2, 1, "A1", desc.direction, None, desc.count))
            continue
        m = desc.germ.multiplicity
        points.append(TracePoint(depth, m, m // 2, s.label, desc.direction, desc.germ))
        stack += [(depth + 1, d, kid) for d, kid in s.below]
    return tuple(points)


def even_resolve(g: Germ, max_depth: int = DEFAULT_MAX_DEPTH) -> ResolutionTrace:
    """Resolve the germ by repeated even blow-ups.

    Records every infinitely-near point of multiplicity >= 2 (negligible
    ones included: they carry k = 1 and contribute 0 to both sums) and stops
    when all even transforms are smooth.  Raises DepthOverflow when the
    resolution would blow up a point deeper than max_depth, the root at
    depth 0 — all well-formed branch germs resolve in a handful of steps,
    so hitting the cap signals a suspect input such as a non-reduced divisor.
    """
    return ResolutionTrace(g, _summary(g, max_depth) if g.multiplicity >= 2 else None)

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
rational tangent directions.  Completeness is certified: a *simple*
irrational root of the restriction to E is provably either smooth (even
multiplicity) or a transverse A1 node (odd multiplicity, E is a component),
so conjugate packets of such nodes are returned in bulk as
ConjugateDirections entries; a *multiple* irrational root that passes the
singularity test raises RequiresAlgebraicExtension instead of being dropped.

All germ arithmetic, Taylor shifts by rational roots included, is exact
integer dictionary manipulation.  sympy is used only for univariate integer
polynomials: factoring splits off the v^k factor inline, so constants and
monomials (most restrictions to E) never reach it, and hands what remains to
sympy's dense factoring over ZZ; the divisibility test for a multiple
irrational direction also uses sympy.

The three pure per-germ computations are memoized per process, each bounded
by MEMO_SIZE entries: the even blow-up of a germ, the branch data of the
strict-transform recursion, and the factor list of a univariate polynomial.
Infinitely-near germs repeat across inputs (y^a - z^b blows up to
y^a - z^(b-a)), so each distinct one is blown up, factored and branch-counted
once.  An exception is never memoized.  even_resolve still builds a fresh
ResolutionTrace of fresh TracePoints on every call; only the Germ objects
inside may be shared between traces, and they are read-only.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

import sympy
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
    "classify",
    "ZeroPolynomial",
    "GermSyntaxError",
    "RequiresAlgebraicExtension",
    "DepthOverflow",
    "DEFAULT_MAX_DEPTH",
]

DEFAULT_MAX_DEPTH = 64

#: Entries kept by each process-wide memo, here and in fibrato.datum.
MEMO_SIZE = 4096

#: Marker for the tangent direction [0:1] (the chart-2 origin).
INFINITY = "infinity"


class ZeroPolynomial(ValueError):
    """The zero polynomial cannot name a divisor germ."""


class GermSyntaxError(ValueError):
    """Malformed germ expression text."""


class RequiresAlgebraicExtension(Exception):
    """A certified singular point of an even transform has no rational model."""


class DepthOverflow(Exception):
    """Resolution exceeded the depth cap; the input germ is suspect."""


# ---------------------------------------------------------------------------
# the germ itself

class Germ:
    """Canonical bivariate integer polynomial, sparse representation.

    Invariants: support nonempty; gcd of coefficients 1; the coefficient of
    the (j, i)-minimal monomial is positive.  multiplicity is the minimal
    total degree over the support.
    """

    __slots__ = ("support", "multiplicity", "_hash")

    def __init__(self, support):
        items = {(int(i), int(j)): int(c) for (i, j), c in support.items() if c}
        if not items:
            raise ZeroPolynomial("all terms cancel")
        if any(i < 0 or j < 0 for i, j in items):
            raise ValueError("negative exponent in germ support")
        content = 0
        for c in items.values():
            content = gcd(content, abs(c))
        lead = items[min(items, key=lambda ij: (ij[1], ij[0]))]
        sign = -1 if lead < 0 else 1
        self.support = {
            ij: c * sign // content for ij, c in sorted(items.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        }
        self.multiplicity = min(i + j for i, j in items)
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
    Whitespace is insignificant; a leading sign is tolerated.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_expr():
        nonlocal pos
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        acc = _scale(parse_term(), sign)
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            acc = _add(acc, _scale(parse_term(), sign))
        return acc

    def parse_term():
        nonlocal pos
        tok = peek()
        if isinstance(tok, int):
            take()
            coeff = {(0, 0): tok}
            if peek() == "*":
                take()
            if peek() in ("y", "z", "("):
                acc = _mul(coeff, parse_factor())
            else:
                raise GermSyntaxError("a term needs at least one variable factor")
        elif tok in ("y", "z", "("):
            acc = parse_factor()
        else:
            raise GermSyntaxError(f"unexpected token {tok!r}")
        while peek() == "*":
            take()
            acc = _mul(acc, parse_factor())
        return acc

    def parse_factor():
        nonlocal pos
        tok = take()
        if tok == "(":
            inner = parse_expr()
            if take() != ")":
                raise GermSyntaxError("unbalanced parenthesis")
            return inner
        if tok in ("y", "z"):
            exp = 1
            if peek() == "^":
                take()
                e = take()
                if not isinstance(e, int) or e < 0:
                    raise GermSyntaxError("exponent must be a non-negative integer")
                exp = e
            return {(exp, 0) if tok == "y" else (0, exp): 1}
        raise GermSyntaxError(f"unexpected token {tok!r}")

    result = parse_expr()
    if pos != len(tokens):
        raise GermSyntaxError(f"trailing input at token {tokens[pos]!r}")
    return Germ(result)


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch in "yz^*+-()":
            tokens.append(ch)
            i += 1
        else:
            raise GermSyntaxError(f"illegal character {ch!r}")
    if not tokens:
        raise GermSyntaxError("empty input")
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

def _chart1(support):
    """Total transform under z = y*v: (i, j) -> (i + j, j)."""
    out = {}
    for (i, j), c in support.items():
        key = (i + j, j)
        out[key] = out.get(key, 0) + c
    return out


def _chart2(support):
    """Total transform under y = u*z: (i, j) -> (i, i + j)."""
    out = {}
    for (i, j), c in support.items():
        key = (i, i + j)
        out[key] = out.get(key, 0) + c
    return out


def _divide(support, axis, power):
    """Exact division by (first var)^power or (second var)^power."""
    out = {}
    for (i, j), c in support.items():
        if axis == 0:
            if i < power:
                raise ArithmeticError("inexact division in even transform")
            out[(i - power, j)] = c
        else:
            if j < power:
                raise ArithmeticError("inexact division in even transform")
            out[(i, j - power)] = c
    return out


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


def _restriction(support):
    """Coefficients of the restriction to {first var = 0}, low degree first."""
    if not support:
        return ()
    deg = max(j for i, j in support if i == 0)
    out = [0] * (deg + 1)
    for (i, j), c in support.items():
        if i == 0:
            out[j] = c
    return tuple(out)


def _first_order_part(support):
    """Coefficients of d/d(first var) restricted to {first var = 0}."""
    rows = {j: c for (i, j), c in support.items() if i == 1}
    if not rows:
        return (0,)
    out = [0] * (max(rows) + 1)
    for j, c in rows.items():
        out[j] = c
    return tuple(out)


# ---------------------------------------------------------------------------
# univariate helpers (sympy only here)

_V = sympy.Symbol("v")


def _factor_list(coeffs):
    """Irreducible integer factors of a polynomial, deterministic order.

    Returns [(coeffs_low_to_high, exponent), ...], dropping the content; the
    zero polynomial and constants have no factors.  The v^k factor is split
    off inline, so constants and monomials never reach sympy; what remains
    goes to sympy's dense factoring over ZZ, the routine Poly.factor_list
    runs, which returns primitive factors with positive leading coefficient.
    Memoized per process by coefficient tuple; each call gets a new list.
    """
    return list(_factors(tuple(coeffs)))


@lru_cache(maxsize=MEMO_SIZE)
def _factors(coeffs: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    low, high = 0, len(coeffs)
    while high > 0 and coeffs[high - 1] == 0:
        high -= 1
    while low < high and coeffs[low] == 0:
        low += 1
    out = [((0, 1), low)] if low and high else []
    if high - low > 1:
        _, factors = dup_factor_list([ZZ(c) for c in reversed(coeffs[low:high])], ZZ)
        for f, e in factors:
            out.append((tuple(int(c) for c in reversed(f)), int(e)))
        out.sort(key=lambda fe: (len(fe[0]), fe[0]))
    return tuple(out)


def _divides(q, p):
    """Whether q divides p over the rationals (p may be the zero tuple)."""
    if all(c == 0 for c in p):
        return True
    rem = sympy.rem(
        sympy.Poly(list(reversed(p)), _V, domain="QQ"),
        sympy.Poly(list(reversed(q)), _V, domain="QQ"),
    )
    return rem.is_zero if hasattr(rem, "is_zero") else sympy.Poly(rem, _V).is_zero


# ---------------------------------------------------------------------------
# one even blow-up

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
    [0:1], or a ConjugateDirections packet (in which case germ is None and
    the points are certified A1 nodes).
    """

    direction: object
    germ: Germ | None

    @property
    def count(self) -> int:
        return self.direction.count if isinstance(self.direction, ConjugateDirections) else 1


def even_blow_up(g: Germ) -> list[Descendant]:
    """One even blow-up at the origin; the non-smooth points of the transform.

    The total transform in each chart is divided by the exceptional
    coordinate to the power 2*floor(m/2); for odd m the surviving copy of E
    is part of the returned descendant germs.  Raises
    RequiresAlgebraicExtension when a certified singular point lies at an
    irrational direction that cannot be packaged as an A1 cluster.
    Memoized per process; each call gets a new list.
    """
    return list(_blow_up(g))


@lru_cache(maxsize=MEMO_SIZE)
def _blow_up(g: Germ) -> tuple[Descendant, ...]:
    m = g.multiplicity
    if m < 2:
        raise ValueError("even_blow_up requires multiplicity >= 2")
    eps = m % 2

    out = []
    total1 = _chart1(g.support)
    residual = _divide(total1, 0, m)  # even transform = y^eps * residual
    p = _restriction(residual)
    factors = _factor_list(p)

    rational_roots = []
    for coeffs, exp in factors:
        if len(coeffs) == 2:
            rational_roots.append((Fraction(-coeffs[0], coeffs[1]), exp))
    rational_roots.sort()

    if eps:
        # E is a component: every zero of p is a singular point of E + residual.
        for root, _ in rational_roots:
            shifted = _shift_second(residual, root)
            shifted = {(i + 1, j): c for (i, j), c in shifted.items()}
            out.append(Descendant(root, Germ(shifted)))
        for coeffs, exp in factors:
            if len(coeffs) > 2:
                if exp == 1:
                    out.append(Descendant(ConjugateDirections(coeffs), None))
                else:
                    raise RequiresAlgebraicExtension(
                        f"multiple irrational direction {coeffs} on E for {g}"
                    )
    else:
        for root, exp in rational_roots:
            shifted = _shift_second(residual, root)
            if min(i + j for i, j in shifted) >= 2:
                out.append(Descendant(root, Germ(shifted)))
        q0 = _first_order_part(residual)
        for coeffs, exp in factors:
            # a simple root is a smooth point of the residual (p' != 0 there);
            # a multiple one is singular exactly when the y-linear part vanishes
            if len(coeffs) > 2 and exp >= 2 and _divides(coeffs, q0):
                raise RequiresAlgebraicExtension(
                    f"singular irrational direction {coeffs} for {g}"
                )

    total2 = _chart2(g.support)
    residual2 = _divide(total2, 1, m)
    at_infinity = {(i, j + eps): c for (i, j), c in residual2.items()}
    if min(i + j for i, j in at_infinity) >= 2:
        out.append(Descendant(INFINITY, Germ(at_infinity)))
    return tuple(out)


# ---------------------------------------------------------------------------
# full even resolution

@dataclass
class TracePoint:
    """One infinitely-near point of the even resolution.

    count > 1 marks a packet of conjugate points sharing the same data (then
    germ is None).  classification is an ADE label ("A1", "D4", "E6", ...)
    when the point heads a cluster with all multiplicities <= 3, otherwise
    "NonNegligibleInterior".
    """

    depth: int
    multiplicity: int
    k: int
    classification: str
    direction: object
    germ: Germ | None
    count: int = 1
    children: list["TracePoint"] = field(default_factory=list)


@dataclass
class ResolutionTrace:
    """Even-resolution record: all infinitely-near points of multiplicity >= 2
    in depth-first order, plus the derived sums the invariant formulas need."""

    germ: Germ
    points: list[TracePoint]
    terminal_smooth: bool

    @property
    def root(self) -> TracePoint | None:
        return self.points[0] if self.points else None

    def multiplicities(self) -> list[int]:
        """The multiplicity sequence, conjugate packets expanded."""
        out = []
        for pt in self.points:
            out.extend([pt.multiplicity] * pt.count)
        return out

    @property
    def sum_k_km1(self) -> int:
        """Sum of k_i*(k_i - 1) over all points, k_i = floor(m_i/2)."""
        return sum(pt.count * pt.k * (pt.k - 1) for pt in self.points)

    @property
    def sum_km1_sq(self) -> int:
        """Sum of (k_i - 1)^2 over all points."""
        return sum(pt.count * (pt.k - 1) ** 2 for pt in self.points)

    def max_multiplicity(self) -> int:
        return max((pt.multiplicity for pt in self.points), default=0)


def even_resolve(g: Germ, max_depth: int = DEFAULT_MAX_DEPTH) -> ResolutionTrace:
    """Resolve the germ by repeated even blow-ups.

    Records every infinitely-near point of multiplicity >= 2 (negligible
    ones included: they carry k = 1 and contribute 0 to both sums) and stops
    when all even transforms are smooth.  Raises DepthOverflow past
    max_depth — all well-formed branch germs resolve in a handful of steps,
    so hitting the cap signals a suspect input such as a non-reduced divisor.
    It is raised too when the resolution nests deeper than the interpreter's
    recursion limit allows.
    """
    points: list[TracePoint] = []
    if g.multiplicity >= 2:
        with _recursion_as_overflow(g):
            root, _ = _resolve_tree(g, None, 0, max_depth)
            _label_tree(root, max_depth, _BRANCH_MEMO)
        stack = [root]
        while stack:
            node = stack.pop()
            points.append(node)
            stack.extend(reversed(node.children))
    return ResolutionTrace(g, points, True)


@contextmanager
def _recursion_as_overflow(g: Germ):
    """Report a resolution too deep for the interpreter as DepthOverflow.

    The kernel recurses once per infinitely-near point, so a cap above what
    the recursion limit allows would otherwise end in a RecursionError.
    """
    try:
        yield
    except RecursionError:
        raise DepthOverflow(
            f"resolution of {g} nests deeper than the interpreter's recursion limit"
        ) from None


def _resolve_tree(germ: Germ, direction, depth: int, max_depth: int) -> tuple[TracePoint, int]:
    """The subtree of infinitely-near points at germ, and its maximum
    multiplicity.  Points heading a subtree of multiplicity > 3 are labelled
    here; the rest wait for _label_tree."""
    if depth > max_depth:
        raise DepthOverflow(f"no smooth model within {max_depth} blow-ups")
    m = germ.multiplicity
    node = TracePoint(depth, m, m // 2, "", direction, germ)
    top = m
    for desc in _blow_up(germ):
        if desc.germ is None:
            node.children.append(
                TracePoint(depth + 1, 2, 1, "A1", desc.direction, None, count=desc.count)
            )
        else:
            child, child_top = _resolve_tree(desc.germ, desc.direction, depth + 1, max_depth)
            node.children.append(child)
            top = max(top, child_top)
    if top > 3:
        node.classification = "NonNegligibleInterior"
    return node, top


def _label_tree(node: TracePoint, max_depth: int, memo: dict):
    """ADE labels for the negligible points, parents before children."""
    if not node.classification:
        node.classification = _ade_label(node.germ, max_depth, memo)
    for child in node.children:
        _label_tree(child, max_depth, memo)


# ---------------------------------------------------------------------------
# ADE classification of negligible germs

def classify(g: Germ, max_depth: int = DEFAULT_MAX_DEPTH) -> str:
    """Classify a germ: "Smooth", "A<m>", "D<m>", "E6"/"E7"/"E8", or
    "NonNegligible".

    A germ is negligible when its multiplicity and those of all its
    infinitely-near points are <= 3; negligible germs are rational double
    points of the double cover and match an ADE normal form.  The label is
    computed from coordinate-free data: delta invariant and branch count
    give the Milnor number mu = 2*delta - r + 1 (the ADE index), and for
    multiplicity 3 the number of distinct tangent-cone lines separates D
    (>= 2 lines) from E (one line).
    """
    m = g.multiplicity
    if m <= 1:
        return "Smooth"
    with _recursion_as_overflow(g):
        _, top = _resolve_tree(g, None, 0, max_depth)
        if top > 3:
            return "NonNegligible"
        return _ade_label(g, max_depth, _BRANCH_MEMO)


class _BoundedMemo(dict):
    """A dict that drops its oldest entry rather than grow past MEMO_SIZE."""

    def __setitem__(self, key, value):
        if len(self) >= MEMO_SIZE and key not in self:
            del self[next(iter(self))]
        super().__setitem__(key, value)


#: germ -> (r, delta, height) from _branch_data, shared by every
#: even_resolve and classify call; the entries do not depend on the cap.
_BRANCH_MEMO = _BoundedMemo()


def _ade_label(g: Germ, max_depth: int, memo: dict) -> str:
    """ADE label of a germ already known to be negligible."""
    r, delta, _ = _branch_data(g, max_depth, memo)
    mu = 2 * delta - r + 1
    if g.multiplicity == 2:
        return f"A{mu}"
    if _tangent_line_count(g) >= 2:
        return f"D{mu}"
    if mu not in (6, 7, 8):
        raise ArithmeticError(f"unimodal tangent cone with mu={mu} for {g}")
    return f"E{mu}"


def _branch_data(g: Germ, max_depth: int, memo: dict, depth: int = 0) -> tuple[int, int, int]:
    """Branch count, delta invariant and recursion height via strict-transform
    recursion.

    Each infinitely-near point of multiplicity m contributes m(m-1)/2 to
    delta; branches are counted where the strict transform becomes smooth.
    The height is how many levels the recursion went below g.  memo maps a
    germ to its result; an entry is reused only when depth + height <=
    max_depth, so DepthOverflow fires exactly where the full recursion would
    raise it.
    """
    if depth > max_depth:
        raise DepthOverflow(f"branch recursion exceeded {max_depth} for {g}")
    m = g.multiplicity
    if m <= 1:
        return 1, 0, 0
    hit = memo.get(g)
    if hit is not None and depth + hit[2] <= max_depth:
        return hit
    delta = m * (m - 1) // 2
    r = 0
    height = 0
    strict = _divide(_chart1(g.support), 0, m)
    p = _restriction(strict)
    q0 = None
    for coeffs, exp in _factor_list(p):
        if len(coeffs) == 2:
            root = Fraction(-coeffs[0], coeffs[1])
            sub = Germ(_shift_second(strict, root))
            r1, d1, h1 = _branch_data(sub, max_depth, memo, depth + 1)
            r += r1
            delta += d1
            height = max(height, h1 + 1)
        elif exp == 1:
            r += len(coeffs) - 1  # simple conjugate points: one smooth branch each
        else:
            if q0 is None:
                q0 = _first_order_part(strict)
            if _divides(coeffs, q0):
                raise RequiresAlgebraicExtension(
                    f"singular irrational point {coeffs} in strict transform of {g}"
                )
            r += len(coeffs) - 1  # smooth but tangent to E
    strict2 = _divide(_chart2(g.support), 1, m)
    if all(i + j > 0 for i, j in strict2):
        r2, d2, h2 = _branch_data(Germ(strict2), max_depth, memo, depth + 1)
        r += r2
        delta += d2
        height = max(height, h2 + 1)
    memo[g] = (r, delta, height)
    return r, delta, height


def _tangent_line_count(g: Germ) -> int:
    """Distinct lines (over the algebraic closure) in the tangent cone."""
    m = g.multiplicity
    lead = {(i, j): c for (i, j), c in g.support.items() if i + j == m}
    coeffs = [0] * (m + 1)
    for (i, j), c in lead.items():
        coeffs[j] = c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    distinct = sum(len(q) - 1 for q, _ in _factor_list(tuple(coeffs)))
    if len(coeffs) - 1 < m:
        distinct += 1  # the line y = 0 at infinity of the direction chart
    return distinct

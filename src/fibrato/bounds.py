"""Slope and speed bounds, Harder-Narasimhan arithmetic, and the three
reference tables.

This module is the one home of every bound formula.  It imports no other
module of the package when it is loaded; only table(3), when called,
imports fibrato.constructions for the record speeds.  Each bound is a function returning an exact
rational (the canonical-class bound, an integer), documented with its
direction, its strictness where it is strict, and its source; outside its
stated domain it raises PreconditionViolated.  Floating-point appears only
in the 3-decimal rendering used by the table emitters (round half-up,
trailing zeros stripped).

The non-hyperelliptic slope bound is assembled as the maximum of its
applicable clauses: the small-genus list for g = 3, 4, 5, the
Harder-Narasimhan/Castelnuovo bound 9(g-1)/(2g+1) for 6 <= g <= 12, and the
double-cover bound 4 beyond that.  Speed bounds for non-hyperelliptic
fibrations follow as 2(2g-2)/slope, which is strict because the underlying
canonical-class inequality is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "HNProfile",
    "Table",
    "TableRow",
    "BadIndexSequence",
    "PreconditionViolated",
    "slope_lower",
    "slope_upper",
    "nonhyp_slope",
    "double_cover_slope",
    "hn_castelnuovo_slope",
    "luzuo_slope",
    "kodaira_speed",
    "arakelov_speed",
    "canonical_class_bound",
    "omega_upper_bound",
    "low_base_speed",
    "low_base_speed_at",
    "optimal_base_change",
    "nonhyp_speed",
    "few_fibers_speed",
    "teich_hyp_one_zero",
    "teich_hyp_two_zeros",
    "teich_max",
    "minimal_m",
    "hn_chi",
    "xiao_lower_bound",
    "hodge_partial_sums",
    "hodge_partial_sum_check",
    "castelnuovo_holds",
    "decimal3",
    "table",
    "render_markdown",
    "render_csv",
]


class PreconditionViolated(ValueError):
    """An operation was called outside its stated domain."""


class BadIndexSequence(ValueError):
    """Index sequences must be non-empty, strictly increasing, within 1..n."""


def _need(condition: bool, what: str):
    if not condition:
        raise PreconditionViolated(f"requires {what}")


# ---------------------------------------------------------------------------
# slope bounds

def slope_lower(g: int) -> Fraction:
    """4(g-1)/g, the slope inequality (Xiao; Cornalba-Harris): a lower
    bound, attained."""
    _need(g >= 2, "g >= 2")
    return Fraction(4 * (g - 1), g)


_TWELVE = Fraction(12)  # built once: the audit asks for it on every record


def slope_upper() -> Fraction:
    """12, an upper bound from non-negativity of the node count; attained
    exactly by smooth fibrations."""
    return _TWELVE


def hn_castelnuovo_slope(g: int) -> Fraction:
    """9(g-1)/(2g+1) for non-hyperelliptic fibrations, 3 <= g <= 12."""
    _need(3 <= g <= 12, "3 <= g <= 12")
    return Fraction(9 * (g - 1), 2 * g + 1)


def double_cover_slope(g: int, gamma: int) -> Fraction:
    """4(g-1)/(g-gamma), Xiao's lower slope bound when the general fiber
    doubly covers a genus-gamma curve; at least 4 as soon as gamma >= 1."""
    _need(0 <= gamma < g, "0 <= gamma < g")
    return Fraction(4 * (g - 1), g - gamma)


def luzuo_slope(g: int) -> Fraction:
    """18(g-1)/(4g+3), the Lu-Zuo bound for hyperelliptic fibrations."""
    _need(g >= 2, "g >= 2")
    return Fraction(18 * (g - 1), 4 * g + 3)


def nonhyp_slope(g: int) -> Fraction:
    """Best applicable slope lower bound for non-hyperelliptic fibrations."""
    _need(g >= 3, "g >= 3")
    if g == 3:
        return Fraction(3)
    if g == 4:
        return Fraction(24, 7)
    if g == 5:
        return Fraction(4)
    if g <= 12:
        return hn_castelnuovo_slope(g)
    return Fraction(4)


# ---------------------------------------------------------------------------
# bounds on omega_sq

def canonical_class_bound(g: int, g_C: int, s: int) -> int:
    """(2g - 2)(2*g_C - 2 + s), a strict upper bound for omega_sq of a
    semi-stable fibration over a hyperbolic base."""
    return (2 * g - 2) * (2 * g_C - 2 + s)


def omega_upper_bound(g: int, g_C: int, s: int, r: Fraction, n: int) -> Fraction:
    """Upper bound for omega_sq from an n-fold cyclic base change:

        (2g-2)(2*g_C-2+s) + 3r/n^2 - (2g-2)s/n,

    admissible whenever n >= 1 and 2*g_C - 2 + s*(n-1)/n >= 0.
    """
    if n < 1:
        raise PreconditionViolated("n must be a positive integer")
    if Fraction(2 * g_C - 2) + Fraction(s * (n - 1), n) < 0:
        raise PreconditionViolated(f"n = {n} is inadmissible for g_C = {g_C}, s = {s}")
    return (
        Fraction(canonical_class_bound(g, g_C, s))
        + 3 * Fraction(r) / n**2
        - Fraction((2 * g - 2) * s, n)
    )


# ---------------------------------------------------------------------------
# speed bounds

def kodaira_speed(g: int) -> Fraction:
    """(g-1)/3, for fibrations without singular fibers."""
    _need(g >= 2, "g >= 2")
    return Fraction(g - 1, 3)


def arakelov_speed(g: int) -> Fraction:
    """g, the Arakelov upper bound on the speed of semi-stable fibrations,
    never attained (strict)."""
    _need(g >= 2, "g >= 2")
    return Fraction(g)


def low_base_speed(g: int, m: int) -> Fraction:
    """g(1 - 1/(18m)), the upper speed bound over a base of small genus,
    where m bounds (2*g_C-2+s)/s from above."""
    _need(g >= 2, "g >= 2")
    _need(m >= 1, "m >= 1")
    return g * (1 - Fraction(1, 18 * m))


def low_base_speed_at(g: int, m: int, n: int) -> Fraction:
    """The n-fold-base-change speed bound g - g(2n-9)/(2m n^2) whose best
    integer choice of n recovers low_base_speed."""
    _need(g >= 2, "g >= 2")
    _need(m >= 1, "m >= 1")
    _need(n >= 2, "n >= 2")
    return g - Fraction(g * (2 * n - 9), 2 * m * n * n)


def optimal_base_change(g: int, m: int) -> tuple[int, Fraction]:
    """Exact minimizer over integers n >= 2 of low_base_speed_at.

    Scanning n in 2..36 suffices: (2n-9)/n^2 <= 2/n < 9/81 for n >= 37, so
    the tail can never beat n = 9.
    """
    best_n, best = 2, low_base_speed_at(g, m, 2)
    for n in range(3, 37):
        value = low_base_speed_at(g, m, n)
        if value < best:
            best_n, best = n, value
    return best_n, best


def nonhyp_speed(g: int) -> Fraction:
    """2(2g-2)/nonhyp_slope(g), a strict upper bound on the speed of
    non-hyperelliptic semi-stable fibrations: 8/3, 7/2, 4, (8g+4)/9, then
    g-1."""
    return Fraction(2 * (2 * g - 2)) / nonhyp_slope(g)


def few_fibers_speed(g: int, s: int) -> Fraction:
    """g - 2/(s-2) over the projective line with few singular fibers.

    Needs s >= 5 and g*s even (the branch divisor of the associated
    double cover must have even bidegree)."""
    _need(g >= 2, "g >= 2")
    _need(s >= 5, "s >= 5")
    _need(g * s % 2 == 0, "g*s even")
    return g - Fraction(2, s - 2)


def teich_hyp_one_zero(g: int) -> Fraction:
    """g^2/(2g-1): Teichmueller curves of hyperelliptic type, one zero."""
    _need(g >= 2, "g >= 2")
    return Fraction(g * g, 2 * g - 1)


def teich_hyp_two_zeros(g: int) -> Fraction:
    """(g+1)/2: Teichmueller curves of hyperelliptic type, two zeros."""
    _need(g >= 2, "g >= 2")
    return Fraction(g + 1, 2)


def teich_max(g: int) -> Fraction:
    """(g+1)/2, the maximal speed among Teichmueller curves."""
    _need(g >= 2, "g >= 2")
    return Fraction(g + 1, 2)


def minimal_m(g_C: int, s: int) -> int:
    """Least m with s/(2*g_C-2+s) >= 1/m, i.e. ceil((2*g_C-2+s)/s)."""
    _need(s >= 1, "s >= 1")
    _need(2 * g_C - 2 + s > 0, "2*g_C-2+s > 0")
    return -((-(2 * g_C - 2 + s)) // s)


# ---------------------------------------------------------------------------
# Harder-Narasimhan profiles

@dataclass(frozen=True)
class HNProfile:
    """Ranks and slopes of the Harder-Narasimhan filtration of the Hodge
    bundle, with optional degrees.

    Conventions: r_1 < ... < r_n = g; mu_1 > ... > mu_n >= 0 with
    mu_{n+1} := 0; when degrees are present, d_1 <= ... <= d_n with
    d_n = 2g - 2 and d_{n+1} := 2g - 2.
    """

    ranks: tuple[int, ...]
    slopes: tuple[Fraction, ...]
    degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "slopes", tuple(Fraction(m) for m in self.slopes))
        if self.degrees is not None:
            object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if not self.ranks or len(self.ranks) != len(self.slopes):
            raise ValueError("ranks and slopes must be non-empty and aligned")
        if self.ranks[0] < 1 or any(a >= b for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValueError("ranks must be positive and strictly increasing")
        if any(a <= b for a, b in zip(self.slopes, self.slopes[1:])):
            raise ValueError("slopes must be strictly decreasing")
        if self.slopes[-1] < 0:
            raise ValueError("the smallest slope must be non-negative")
        if self.degrees is not None:
            if len(self.degrees) != len(self.ranks):
                raise ValueError("degrees must align with ranks")
            if any(a > b for a, b in zip(self.degrees, self.degrees[1:])):
                raise ValueError("degrees must be non-decreasing")
            if self.degrees[-1] != 2 * self.g - 2:
                raise ValueError("the last degree must be 2g - 2")

    @property
    def g(self) -> int:
        return self.ranks[-1]

    @property
    def n(self) -> int:
        return len(self.ranks)


def hn_chi(p: HNProfile) -> Fraction:
    """Degree of the Hodge bundle: sum of r_i (mu_i - mu_{i+1})."""
    slopes = p.slopes + (Fraction(0),)
    return sum(
        (r * (slopes[i] - slopes[i + 1]) for i, r in enumerate(p.ranks)),
        Fraction(0),
    )


def hodge_partial_sums(p: HNProfile) -> list[Fraction]:
    """deg E_i = sum over j <= i of (r_j - r_{j-1}) mu_j, with r_0 = 0."""
    out = []
    acc = Fraction(0)
    prev = 0
    for r, mu in zip(p.ranks, p.slopes):
        acc += (r - prev) * mu
        prev = r
        out.append(acc)
    return out


def hodge_partial_sum_check(p: HNProfile, g_C: int, s: int, claimed) -> bool:
    """Whether deg E_i/(2*g_C-2+s) <= claimed[i] for every filtration step,
    with equality required at the full bundle."""
    denom = 2 * g_C - 2 + s
    _need(denom > 0, "2*g_C-2+s > 0")
    claimed = [Fraction(c) for c in claimed]
    if len(claimed) != p.n:
        raise ValueError("one claimed partial sum per filtration step")
    sums = hodge_partial_sums(p)
    if sums[-1] / denom != claimed[-1]:
        return False
    return all(d / denom <= c for d, c in zip(sums, claimed))


def xiao_lower_bound(p: HNProfile, indices) -> Fraction:
    """Certified lower bound for omega_sq from an increasing index sequence:

        sum_j (d_{i_j} + d_{i_{j+1}}) (mu_{i_j} - mu_{i_{j+1}}),

    indices 1-based into the profile, with i_{k+1} := n + 1,
    d_{n+1} := 2g - 2 and mu_{n+1} := 0.
    """
    if p.degrees is None:
        raise PreconditionViolated("requires a profile with degrees")
    idx = list(indices)
    if not idx or any(a >= b for a, b in zip(idx, idx[1:])):
        raise BadIndexSequence("indices must be non-empty and strictly increasing")
    if idx[0] < 1 or idx[-1] > p.n:
        raise BadIndexSequence(f"indices must lie in 1..{p.n}")
    degrees = p.degrees + (2 * p.g - 2,)
    slopes = p.slopes + (Fraction(0),)
    idx = [i - 1 for i in idx] + [p.n]
    total = Fraction(0)
    for here, there in zip(idx, idx[1:]):
        total += (degrees[here] + degrees[there]) * (slopes[here] - slopes[there])
    return total


# ---------------------------------------------------------------------------
# Castelnuovo degree test

def castelnuovo_holds(d: int, r: int, g: int) -> bool:
    """Whether degree d is admissible for a birationally embedded curve of
    genus g spanned by a rank-r step: d >= g/m + (m+1)r/2 + (m-1)/2 with
    m = floor((d-1)/(r-1)).  Any (d, r, g) passing this also has d >= 2r.
    """
    _need(2 <= r <= g - 1, "2 <= r <= g-1")
    _need(d >= 1, "d >= 1")
    m = (d - 1) // (r - 1)
    if m < 1:
        return False
    return Fraction(d) >= Fraction(g, m) + Fraction((m + 1) * r, 2) + Fraction(m - 1, 2)


# ---------------------------------------------------------------------------
# tables

@dataclass(frozen=True)
class TableRow:
    label: str
    cells: tuple[tuple[Fraction, str], ...]  # (exact, 3-decimal rendering)


@dataclass(frozen=True)
class Table:
    which: int
    title: str
    genera: tuple[int, ...]
    rows: tuple[TableRow, ...]


def decimal3(x: Fraction) -> str:
    """Round half-up to 3 decimals and strip trailing zeros: 17/9 -> "1.889",
    7/2 -> "3.5", 4 -> "4"."""
    x = Fraction(x)
    if x < 0:
        return "-" + decimal3(-x)
    scaled = (2000 * x.numerator + x.denominator) // (2 * x.denominator)
    text = f"{scaled // 1000}.{scaled % 1000:03d}".rstrip("0").rstrip(".")
    return text


def _row(label, values) -> TableRow:
    return TableRow(label, tuple((v, decimal3(v)) for v in values))


def table(which: int) -> Table:
    """The three reference tables, exact values plus decimal renderings."""
    if which == 1:
        genera = tuple(range(2, 9))
        return Table(
            1,
            "Speed bound for small base genus",
            genera,
            (
                _row("g_C <= 1 (m = 1)", [low_base_speed(g, 1) for g in genera]),
                _row("g_C = 2 (m = 2)", [low_base_speed(g, 2) for g in genera]),
            ),
        )
    if which == 2:
        genera = tuple(range(3, 12))
        return Table(
            2,
            "Speed bound for non-hyperelliptic fibrations",
            genera,
            (_row("non-hyperelliptic", [nonhyp_speed(g) for g in genera]),),
        )
    if which == 3:
        from fibrato.constructions import best_known

        genera = tuple(range(2, 10))
        return Table(
            3,
            "Record speeds of semi-stable fibrations",
            genera,
            (_row("best known", [best_known(g).value for g in genera]),),
        )
    raise ValueError("table number must be 1, 2 or 3")


def render_markdown(t: Table) -> str:
    head = "| g | " + " | ".join(str(g) for g in t.genera) + " |"
    rule = "|---" * (len(t.genera) + 1) + "|"
    lines = [f"**Table {t.which}.** {t.title}", "", head, rule]
    for row in t.rows:
        lines.append("| " + row.label + " | " + " | ".join(c[1] for c in row.cells) + " |")
    return "\n".join(lines)


def render_csv(t: Table) -> str:
    lines = ["table,row,g,exact,decimal"]
    for row in t.rows:
        for g, (exact, dec) in zip(t.genera, row.cells):
            lines.append(f"{t.which},{row.label},{g},{Fraction(exact)},{dec}")
    return "\n".join(lines)

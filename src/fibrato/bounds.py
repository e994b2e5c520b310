"""Slope and speed bounds and the three reference tables.

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
    "Table",
    "TableRow",
    "PreconditionViolated",
    "slope_lower",
    "slope_upper",
    "nonhyp_slope",
    "hn_castelnuovo_slope",
    "arakelov_speed",
    "canonical_class_bound",
    "low_base_speed",
    "nonhyp_speed",
    "teich_max",
    "minimal_m",
    "decimal3",
    "table",
    "render_markdown",
    "render_csv",
]


class PreconditionViolated(ValueError):
    """An operation was called outside its stated domain."""


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


def slope_upper() -> Fraction:
    """12, an upper bound from non-negativity of the node count; attained
    exactly by smooth fibrations."""
    return Fraction(12)


def hn_castelnuovo_slope(g: int) -> Fraction:
    """9(g-1)/(2g+1) for non-hyperelliptic fibrations, 3 <= g <= 12."""
    _need(3 <= g <= 12, "3 <= g <= 12")
    return Fraction(9 * (g - 1), 2 * g + 1)


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


# ---------------------------------------------------------------------------
# speed bounds

def arakelov_speed(g: int) -> Fraction:
    """g, the Arakelov upper bound on the speed of semi-stable fibrations,
    never attained (strict)."""
    _need(g >= 2, "g >= 2")
    return Fraction(g)


def low_base_speed(g: int, m: int) -> Fraction:
    """g(1 - 1/(18m)), the upper speed bound over a base of small genus,
    where m bounds (2*g_C-2+s)/s from above: the least value over integers
    n >= 2 of the n-fold base-change bound g - g(2n-9)/(2m n^2), at n = 9."""
    _need(g >= 2, "g >= 2")
    _need(m >= 1, "m >= 1")
    return g * (1 - Fraction(1, 18 * m))


def nonhyp_speed(g: int) -> Fraction:
    """2(2g-2)/nonhyp_slope(g), a strict upper bound on the speed of
    non-hyperelliptic semi-stable fibrations: 8/3, 7/2, 4, (8g+4)/9, then
    g-1."""
    return Fraction(2 * (2 * g - 2)) / nonhyp_slope(g)


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
    """Round to 3 decimals, halves away from zero, and strip trailing zeros:
    17/9 -> "1.889", 7/2 -> "3.5", 4 -> "4", -1/2000 -> "-0.001".  A value
    that rounds to zero is "0", whatever its sign."""
    x = Fraction(x)
    if x < 0:
        text = decimal3(-x)
        return text if text == "0" else "-" + text
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


def render_csv(*tables: Table) -> str:
    """One header, then every table's rows in the order given."""
    lines = ["table,row,g,exact,decimal"]
    for t in tables:
        for row in t.rows:
            for g, (exact, dec) in zip(t.genera, row.cells):
                lines.append(f"{t.which},{row.label},{g},{Fraction(exact)},{dec}")
    return "\n".join(lines)

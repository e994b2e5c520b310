"""Invariants of relatively minimal fibered surfaces and their audits.

A fibration f: X -> C of genus-g curves over a genus-g_C base carries three
relative invariants — the self-intersection of the relative canonical class
(omega_sq), the degree of the Hodge bundle (chi), and the number of nodes of
the fibers (delta) — tied together by the Noether identity

    delta = 12*chi - omega_sq.

Two derived ratios drive everything downstream: the slope omega_sq/chi and
the speed 2*chi/(2*g_C - 2 + s), where s counts the singular fibers.  All
arithmetic is exact: the hot paths compute on integer numerators and
denominators and report every quantity as a fractions.Fraction.  Audits
report strict inequalities as strict and never repair stored data silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import index
from typing import NamedTuple

from .bounds import arakelov_speed, canonical_class_bound, slope_lower, slope_upper

__all__ = [
    "FibrationInvariants",
    "FiberNodeProfile",
    "StableModelNodes",
    "AuditCheck",
    "AuditReport",
    "slope",
    "speed",
    "base_degree",
    "noether_delta",
    "fiber_delta",
    "r_f",
    "audit",
    "NonHyperbolicBase",
]


class NonHyperbolicBase(ValueError):
    """Speed needs a hyperbolic base orbifold: 2*g_C - 2 + s > 0."""


@dataclass(frozen=True)
class FibrationInvariants:
    """The numerical record of one fibration.

    delta is stored independently of chi and omega_sq so that the Noether
    audit can catch inconsistent (for instance, forged) records.
    """

    g: int
    g_C: int
    s: int
    chi: Fraction
    omega_sq: Fraction
    delta: Fraction
    hyperelliptic: bool = False
    semistable: bool = True

    def __post_init__(self):
        _index_fields(self, ("g", "g_C", "s"))
        if self.g < 2:
            raise ValueError("fiber genus must be at least 2")
        if self.g_C < 0 or self.s < 0:
            raise ValueError("base genus and fiber count must be non-negative")
        for name in ("chi", "omega_sq", "delta"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, Fraction(value))

    @cached_property
    def _checks(self) -> tuple[AuditCheck, ...]:
        # audit's checks that read the record alone, decided once per object
        return _record_checks(self)


@dataclass(frozen=True)
class FiberNodeProfile:
    """Node bookkeeping of a single singular fiber.

    g_geo is the sum of the geometric genera of the l irreducible
    components; delta_counts[i] counts nodes whose normalization separates
    the fiber into genera i and g - i (i = 0 marks non-separating nodes).
    """

    g: int
    g_geo: int
    l: int
    delta_counts: dict[int, int]

    def __post_init__(self):
        _index_fields(self, ("g", "g_geo", "l"))
        given = self.delta_counts
        counts = dict(zip(_index_entries("delta_counts", given.keys()),
                          _index_entries("delta_counts", given.values())))
        object.__setattr__(self, "delta_counts", counts)
        fiber_delta(self.g, self.g_geo, self.l)
        for i, c in counts.items():
            if not 0 <= i <= self.g // 2 or c < 0:
                raise ValueError("delta_counts maps 0..floor(g/2) to counts")

    @property
    def total_nodes(self) -> int:
        return sum(self.delta_counts.values())

    @property
    def is_compact_type(self) -> bool:
        return self.g_geo == self.g


@dataclass(frozen=True)
class StableModelNodes:
    """Multiset of m_q: the number of (-2)-curves over each node of the
    stable model (m_q = 0 where the relatively minimal model is already
    stable)."""

    node_indices: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(sorted(_index_entries("node_indices", self.node_indices)))
        if entries and entries[0] < 0:
            raise ValueError("node indices are non-negative")
        object.__setattr__(self, "node_indices", entries)


def _as_int(name: str, value) -> int:
    """value as an int; TypeError unless it is an integer (operator.index),
    so that 2.5 or "2" is never read as 2."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _index_fields(record, names) -> None:
    """Store each named field as an int, read by _as_int.  A plain int, as
    search and families pass on every operation, is kept at once."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not int:
            object.__setattr__(record, name, _as_int(name, value))


def _index_entries(name: str, values) -> tuple[int, ...]:
    """The entries of one field as a tuple of ints, read like _index_fields
    reads a scalar: TypeError naming the field and the first entry that is
    not an integer."""
    entries = []
    for value in values:
        try:
            entries.append(index(value))
        except TypeError:
            raise TypeError(f"{name} must hold integers, got {value!r}") from None
    return tuple(entries)


# ---------------------------------------------------------------------------
# basic quantities

def slope(inv: FibrationInvariants) -> Fraction:
    """omega_sq / chi; ZeroDivisionError when chi = 0."""
    if inv.chi == 0:
        raise ZeroDivisionError("slope undefined for chi = 0")
    return inv.omega_sq / inv.chi


def base_degree(g_C: int, s: int) -> int:
    """2*g_C - 2 + s, the divisor of the speed; NonHyperbolicBase unless it
    is positive."""
    denom = 2 * g_C - 2 + s
    if denom <= 0:
        raise NonHyperbolicBase(f"base orbifold Euler number {-denom} >= 0")
    return denom


def speed(inv: FibrationInvariants) -> Fraction:
    """2*chi / (2*g_C - 2 + s)."""
    return 2 * inv.chi / base_degree(inv.g_C, inv.s)


def noether_delta(omega_sq, chi) -> Fraction:
    """The node count forced by the Noether identity: 12*chi - omega_sq."""
    if type(chi) is not Fraction:
        chi = Fraction(chi)
    if type(omega_sq) is not Fraction:
        omega_sq = Fraction(omega_sq)
    return Fraction(12 * chi.numerator * omega_sq.denominator
                    - omega_sq.numerator * chi.denominator,
                    chi.denominator * omega_sq.denominator)


def fiber_delta(g: int, g_geo: int, l: int) -> int:
    """Nodes of a fiber with l components of total geometric genus g_geo."""
    if not 0 <= g_geo <= g:
        raise ValueError("geometric genus must lie in 0..g")
    if l < 1:
        raise ValueError("a fiber has at least one component")
    return g - g_geo + l - 1


def r_f(nodes: StableModelNodes) -> Fraction:
    """Sum of 1/(m_q + 1) over the nodes of the stable model."""
    return sum((Fraction(1, m + 1) for m in nodes.node_indices), Fraction(0))


# ---------------------------------------------------------------------------
# audits

class AuditCheck(NamedTuple):
    check: str
    status: str  # "pass" | "fail" | "skipped"
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    strict: bool = False
    note: str = ""


@dataclass
class AuditReport:
    checks: list[AuditCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def failures(self) -> list[AuditCheck]:
        return [c for c in self.checks if c.status == "fail"]


def audit(inv: FibrationInvariants, nodes: StableModelNodes | None = None,
          profiles: list[FiberNodeProfile] | None = None) -> AuditReport:
    """Audit one record against these identities and bounds, in this order:

    - noether-identity: delta = 12*chi - omega_sq;
    - slope-lower, slope-upper, slope-12-iff-smooth: slope_lower(g) <=
      omega_sq/chi <= slope_upper(), with equality at the top exactly when
      s = 0 (these need chi > 0);
    - arakelov-speed, canonical-class: speed < arakelov_speed(g) and
      omega_sq < canonical_class_bound(g, g_C, s), both strict (these need
      semi-stability and a hyperbolic base);
    - five-fibers: s >= 5 over a rational base with s > 0;
    - node-ratio: r_f(nodes) <= (3g - 3)s, when nodes are supplied;
    - fiber-profile-<i>: each supplied profile is a fiber of the record's
      genus g (a note names both genera when it is not), has fiber_delta
      nodes, and non-separating ones exactly when it is not of compact type.

    The paper's non-hyperelliptic and low-base-genus clauses (nonhyp_slope,
    nonhyp_speed, low_base_speed in fibrato.bounds) are not audited yet;
    ROADMAP.md item 3 adds them.

    Failures are report entries, never exceptions.  A check whose data the
    record does not carry is reported as skipped, with the reason as note.

    The identities and bounds on the record's own quantities are decided on
    integer numerators and (positive) denominators; a Fraction is built only
    where a check reports it.  The checks noether-identity to five-fibers
    read the record alone, so they are decided once per FibrationInvariants
    object and kept on it, shared with every other report of that object;
    datum hands equal records one object.  Each report gets its own list of
    checks.
    """
    g, s = inv.g, inv.s
    checks = list(inv._checks)
    add = checks.append

    if nodes is not None:
        cap = Fraction((3 * g - 3) * s)
        ratio = r_f(nodes)
        add(AuditCheck("node-ratio", _status(ratio <= cap), ratio, cap))
    else:
        add(_NO_NODES)

    if profiles:
        for idx, prof in enumerate(profiles):
            expected = fiber_delta(prof.g, prof.g_geo, prof.l)
            ok = (prof.g == g and prof.total_nodes == expected
                  and (prof.delta_counts.get(0, 0) == 0) == prof.is_compact_type)
            note = "" if prof.g == g else f"profile genus {prof.g}, record genus {g}"
            add(AuditCheck(f"fiber-profile-{idx}", _status(ok),
                           Fraction(prof.total_nodes), Fraction(expected), note=note))
    else:
        add(_NO_PROFILES)

    return AuditReport(checks)


_NO_NODES = AuditCheck("node-ratio", "skipped", note="no stable-model nodes supplied")
_NO_PROFILES = AuditCheck("fiber-profile", "skipped", note="no fiber profiles supplied")


def _record_checks(inv: FibrationInvariants) -> tuple[AuditCheck, ...]:
    # audit's checks noether-identity to five-fibers, from the record alone
    g, g_C, s = inv.g, inv.g_C, inv.s
    chi, omega_sq, delta = inv.chi, inv.omega_sq, inv.delta
    chi_n, chi_d = chi.numerator, chi.denominator
    omega_n, omega_d = omega_sq.numerator, omega_sq.denominator
    checks: list[AuditCheck] = []
    add = checks.append

    forced = noether_delta(omega_sq, chi)
    add(AuditCheck("noether-identity", _status(delta == forced), delta, forced))

    if chi_n > 0:
        # lambda = omega_sq / chi = lam_n / lam_d with lam_d > 0
        lam_n, lam_d = omega_n * chi_d, omega_d * chi_n
        lam = Fraction(lam_n, lam_d)
        lower, upper = slope_lower(g), slope_upper()
        add(AuditCheck("slope-lower",
                       _status(lower.numerator * lam_d <= lam_n * lower.denominator),
                       lower, lam))
        # lambda and the upper bound over one common denominator
        lam_c, upper_c = lam_n * upper.denominator, upper.numerator * lam_d
        add(AuditCheck("slope-upper", _status(lam_c <= upper_c), lam, upper))
        add(AuditCheck("slope-12-iff-smooth", _status((lam_c == upper_c) == (s == 0)),
                       lam, upper, note=f"s = {s}"))
    else:
        note = "chi = 0" if chi_n == 0 else "chi < 0"
        for name in ("slope-lower", "slope-upper", "slope-12-iff-smooth"):
            add(AuditCheck(name, "skipped", note=note))

    denom = 2 * g_C - 2 + s
    if inv.semistable and denom > 0:
        # speed = 2*chi / denom < arakelov_speed(g)
        arakelov = arakelov_speed(g)
        add(AuditCheck("arakelov-speed",
                       _status(2 * chi_n * arakelov.denominator
                               < arakelov.numerator * chi_d * denom),
                       Fraction(2 * chi_n, chi_d * denom), arakelov, strict=True))
        bound = canonical_class_bound(g, g_C, s)
        add(AuditCheck("canonical-class", _status(omega_n < bound * omega_d),
                       omega_sq, Fraction(bound), strict=True))
    else:
        note = "not semi-stable" if not inv.semistable else "non-hyperbolic base"
        add(AuditCheck("arakelov-speed", "skipped", strict=True, note=note))
        add(AuditCheck("canonical-class", "skipped", strict=True, note=note))

    if g_C == 0 and s > 0:
        add(AuditCheck("five-fibers", _status(s >= 5), Fraction(5), Fraction(s)))
    else:
        add(AuditCheck("five-fibers", "skipped", note="applies over a rational base with s > 0"))

    return tuple(checks)


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"

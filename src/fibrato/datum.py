"""Assembly and analysis of hyperelliptic fibration data.

A genus-g datum packages the discrete shape of a double cover of a ruled
surface over a curve: the fiber genus g, the base genus g_C, the ruled-surface
invariant e, the twisting integer n (the branch divisor has bidegree
(2g+2, (g+1)e + n)), and one entry per critical fiber listing the local
branch-curve germs sitting over it.

A fiber keeps its germs as maximal runs of equal germs.  Every pass over a
datum, the JSON codec's included, parses, checks, resolves or renders each run
once, so a datum costs O(runs) lookups, not O(entries); the per-entry views
(``CriticalFiber.germs``, ``DatumInvariantsReport.traces``) expand the runs.

From that local data alone the module computes the relative invariants of the
induced genus-g fibration.  Every germ is resolved by even blow-ups; with
k_i = floor(m_i / 2) at each infinitely-near point of multiplicity m_i, the
invariants are

    chi      = (1/2) g n - (1/2) sum k_i (k_i - 1)
    omega^2  = (2g - 2) n - 2 sum (k_i - 1)^2 - m

where m (``declared_m``) counts vertical (-1)-curves in the resolved cover;
delta then follows from the Noether identity.  The same pass decides
semi-stability (``DatumInvariantsReport.semistable``): it holds exactly when
every negligible cluster in every resolution tree is a rational double point
of type A and the ramification over the critical values is declared simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, groupby

from .fibration import FibrationInvariants, _index_fields, base_degree
from .germs import (
    DEFAULT_MAX_DEPTH,
    Germ,
    ResolutionTrace,
    even_resolve,
    parse_germ,
)


class InvalidDatum(ValueError):
    """Raised when invariants are requested for a datum that fails validation;
    ``violations`` holds validate()'s list."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid datum: " + "; ".join(violations))
        self.violations = violations


# The three process-wide memos below (germ text -> Germ, (Germ, max_depth)
# -> resolution trace and its offences, and the integers of a record -> its
# invariants, slope and speed) keep every entry for the life of the process.


@cache
def _parsed(text: str) -> Germ:
    # Only germ text a caller wrote comes here; the engine builds its Germs.
    # parse_germ is looked up at call time, so a rebinding of this module's
    # name is seen on every miss.  Exceptions are not memoized.
    return parse_germ(text)


def _germ_runs(runs) -> tuple[tuple[Germ, int], ...]:
    """Maximal runs of equal germs from (entry, count) runs of Germ objects
    or germ text: each run is parsed and type-checked once, and neighbours
    that name the same germ are merged."""
    merged: list[tuple[Germ, int]] = []
    for entry, count in runs:
        germ = _parsed(entry) if isinstance(entry, str) else entry
        if not isinstance(germ, Germ):
            raise TypeError(f"germ entries must be Germ or str, got {type(germ).__name__}")
        if merged and merged[-1][0] == germ:
            count += merged.pop()[1]
        merged.append((germ, count))
    return tuple(merged)


class _Entries:
    """The ``germs`` field of CriticalFiber: set, it keeps the entries as
    ``(Germ, count)`` runs in ``_runs``; read, it expands them at C speed, so
    equality, hashing and repr see one entry per germ."""

    def __get__(self, fib, owner=None):
        if fib is None:
            return ()  # the field's default
        return tuple(chain.from_iterable((germ,) * count for germ, count in fib._runs))

    def __set__(self, fib, entries):
        runs = ((entry, len(list(same))) for entry, same in groupby(entries))
        object.__setattr__(fib, "_runs", _germ_runs(runs))


@dataclass(frozen=True)
class CriticalFiber:
    """One critical fiber: a label plus the branch germs over its critical value.

    ``germs`` entries may be given as ``Germ`` objects or as strings in the
    germ grammar; strings are parsed on construction.  The fiber keeps its
    entries as maximal runs of equal germs, so equal neighbours are parsed,
    checked and resolved once; ``germs`` reads back one entry per germ.  A
    fiber whose only singularities are negligible double points that the
    author chose not to spell out may instead carry ``negligible_marker=True``
    with an empty germ list; such markers contribute nothing to the invariant
    sums but still count toward s.
    """

    label: str
    germs: tuple[Germ, ...] = _Entries()
    negligible_marker: bool = False


def _fiber_from_runs(label: str, runs, negligible_marker: bool = False) -> CriticalFiber:
    """The critical fiber holding ``count`` entries ``entry`` per (entry,
    count) run, without ever spelling its entries out one by one."""
    fib = CriticalFiber(label, negligible_marker=negligible_marker)
    object.__setattr__(fib, "_runs", _germ_runs(runs))
    return fib


@dataclass(frozen=True)
class GenusGDatum:
    """Discrete data of a double cover of a ruled surface over a genus-g_C curve.

    The branch divisor is declared to meet a general fiber in 2g+2 points
    (the text report's ``branch degree on a fiber``) and to have bidegree
    (2g+2, (g+1)e + n).  ``c0_in_branch`` records whether the negative
    section is a component of the branch divisor, which relaxes the bound on
    e from n/(g+1) to n/g.  ``declared_m`` is the number of vertical
    (-1)-curves in the resolved double cover; there is no way to recover it
    from the local germs, so it is part of the input (default 0).
    ``simple_ramification`` is likewise a declaration about the global
    ramification over the critical values.
    """

    g: int
    g_C: int
    e: int
    n: int
    critical_fibers: tuple[CriticalFiber, ...]
    declared_m: int = 0
    simple_ramification: bool = True
    c0_in_branch: bool = False

    def __post_init__(self):
        _index_fields(self, ("g", "g_C", "e", "n", "declared_m"))
        if self.g < 2:
            raise ValueError(f"fiber genus must be >= 2, got {self.g}")
        if self.g_C < 0:
            raise ValueError(f"base genus must be >= 0, got {self.g_C}")
        if self.declared_m < 0:
            raise ValueError(f"declared_m must be >= 0, got {self.declared_m}")
        fibers = tuple(self.critical_fibers)
        for fib in fibers:
            if not isinstance(fib, CriticalFiber):
                raise TypeError(f"critical fibers must be CriticalFiber, got {type(fib).__name__}")
        object.__setattr__(self, "critical_fibers", fibers)

    @property
    def s(self) -> int:
        """Number of critical fibers."""
        return len(self.critical_fibers)


def validate(d: GenusGDatum) -> list[str]:
    """Check the datum's consistency conditions; return a list of violations.

    An empty list means the datum is admissible: the declared branch class is
    divisible by two ((g+1)e + n even), the ruled-surface invariant respects
    e <= n/(g+1) (or e <= n/g when the negative section lies in the branch
    divisor) and e >= -g_C (Nagata; e >= 0 over P^1), at least one critical
    fiber is declared, and every critical fiber either carries a germ of
    multiplicity >= 2 or is marked negligible.
    """
    violations: list[str] = []
    parity = (d.g + 1) * d.e + d.n
    if parity % 2 != 0:
        violations.append(
            f"(g+1)*e + n = {parity} is odd; the branch class must be divisible by two"
        )
    if d.c0_in_branch:
        if d.e * d.g > d.n:
            violations.append(
                f"e = {d.e} exceeds n/g = {d.n}/{d.g} (negative section in the branch divisor)"
            )
    elif d.e * (d.g + 1) > d.n:
        violations.append(f"e = {d.e} exceeds n/(g+1) = {d.n}/{d.g + 1}")
    if d.e < -d.g_C:
        violations.append(f"e = {d.e} is below -g_C = {-d.g_C}")
    if d.s < 1:
        violations.append("no critical fibers declared (s = 0)")
    for fib in d.critical_fibers:
        if fib.negligible_marker:
            continue
        if not any(g.multiplicity >= 2 for g, _ in fib._runs):
            violations.append(
                f"critical fiber {fib.label!r} carries no germ of multiplicity >= 2 "
                "and no negligible marker"
            )
    return violations


@dataclass(frozen=True)
class GermTraceSummary:
    """One germ inside one critical fiber, with its even resolution.

    ``trace`` is shared with every other summary, in any report of the same
    process, of an equal germ resolved under the same depth cap: treat it as
    read-only.  The multiplicities and the classification are read from it.
    """

    fiber_label: str
    germ: Germ
    trace: ResolutionTrace = field(repr=False)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(self.trace.multiplicities())

    @property
    def classification(self) -> str:
        return self.trace.classification


@dataclass(frozen=True)
class SemistableVerdict:
    """Outcome of the semi-stability check; ``failures`` names each offence."""

    passed: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class DatumInvariantsReport:
    """Invariants of the genus-g fibration induced by a datum.

    ``slope`` is None when chi = 0, where omega^2 / chi is undefined.
    """

    traces: tuple[GermTraceSummary, ...]
    sum_k_km1: int
    sum_km1_sq: int
    invariants: FibrationInvariants
    slope: Fraction | None
    speed: Fraction
    semistable: SemistableVerdict


def _cluster_offences(trace: ResolutionTrace) -> list[str]:
    """Names of D/E-type negligible clusters in the resolution tree.

    Cluster heads labelled A* are harmless double points of the cover; D or
    E heads obstruct semi-stability.
    """
    return [f"germ {trace.germ} has a residual singularity of type {label}; "
            "only type-A clusters keep the fibration semi-stable"
            for label in trace.clusters() if label.startswith(("D", "E"))]


@cache
def _resolved(germ: Germ, max_depth: int) -> tuple[ResolutionTrace, tuple[str, ...]]:
    # even_resolve is looked up at call time, like parse_germ in _parsed.
    # DepthOverflow and RequiresAlgebraicExtension are not memoized, and the
    # cap is part of the key, so every cap raises where it always has.
    trace = even_resolve(germ, max_depth)
    return trace, tuple(_cluster_offences(trace))


def invariants(d: GenusGDatum, max_depth: int = DEFAULT_MAX_DEPTH) -> DatumInvariantsReport:
    """Resolve every germ of the datum and compute the fibration invariants.

    Each run of equal germs in a fiber is looked up once: its sums count
    once per entry, its D/E offences repeat once per entry, and its entries
    in ``traces`` are one summary object repeated, in entry order.  Each
    distinct germ is resolved once per process and depth cap: parsed germs
    and resolutions are memoized process-wide, so the traces in the report
    may be shared with other reports.  The record is built once per distinct
    (g, g_C, s, 2*chi, omega^2, semistable), all plain integers, in a
    process-wide memo too: equal records share one frozen
    FibrationInvariants and its slope and speed.

    Raises InvalidDatum, whose ``violations`` is validate()'s list, when that
    list is not empty; RequiresAlgebraicExtension / DepthOverflow from germ
    resolution; and NonHyperbolicBase when 2*g_C - 2 + s <= 0 so no speed is
    defined.
    """
    violations = validate(d)
    if violations:
        raise InvalidDatum(violations)

    summaries: list[GermTraceSummary] = []
    failures = [] if d.simple_ramification else ["declared non-simple ramification"]
    total_k_km1 = 0
    total_km1_sq = 0
    for fib in d.critical_fibers:
        for germ, count in fib._runs:
            trace, found = _resolved(germ, max_depth)
            summaries += (GermTraceSummary(fib.label, germ, trace),) * count
            failures += found * count
            total_k_km1 += count * trace.sum_k_km1
            total_km1_sq += count * trace.sum_km1_sq

    # 2*chi and omega^2 are integers
    two_chi = d.g * d.n - total_k_km1
    omega_sq = (2 * d.g - 2) * d.n - 2 * total_km1_sq - d.declared_m
    inv, slope, speed = _record(d.g, d.g_C, d.s, two_chi, omega_sq, not failures)
    return DatumInvariantsReport(
        traces=tuple(summaries),
        sum_k_km1=total_k_km1,
        sum_km1_sq=total_km1_sq,
        invariants=inv,
        slope=slope,
        speed=speed,
        semistable=SemistableVerdict(not failures, tuple(failures)),
    )


@cache
def _record(g: int, g_C: int, s: int, two_chi: int, omega_sq: int,
            semistable: bool) -> tuple[FibrationInvariants, Fraction | None, Fraction]:
    # NonHyperbolicBase is raised before anything is built, and never memoized
    base = base_degree(g_C, s)
    inv = FibrationInvariants(
        g=g,
        g_C=g_C,
        s=s,
        chi=Fraction(two_chi, 2),
        omega_sq=Fraction(omega_sq),
        # delta = 12*chi - omega^2 = 6*(2*chi) - omega^2
        delta=Fraction(6 * two_chi - omega_sq),
        hyperelliptic=True,
        semistable=semistable,
    )
    return (inv, Fraction(2 * omega_sq, two_chi) if two_chi else None,
            Fraction(two_chi, base))

"""Factories for the worked fibration examples and the record-speed families.

Two kinds of construction live here.  The first is a double-cover example
over a product of curves whose invariants come from closed formulas
(``beauville``); it attains the lower slope bound 4(g-1)/g when the covered
curve is rational.  The rest are branch-divisor constructions on ruled
surfaces, and every one of them is the pull-back of one curve B0_g of class
(2g+2)C0 + F on P^1 x P^1 along a base cover C -> P^1 (``_pull_back``).
A factory declares only its cover, by its partitions over (0, 1, inf),
its ``declared_m`` and its closed-form expectations:

    family              degree     partitions over (0, 1, inf)
    odd_genus, mod4_0   4          (4), (4), (2, 2)
    mod4_1, mod6_1      d = 4, 6   (d), unbranched, (d)
    even_genus          2g + 2     (g+1, g+1), (2g+2), (2g+2)
    genus3              3          (3), (3), (3), plus the fiber over 0
    genus2              5          (5), (5), (5), plus the fiber over 0

The datum (germ lists per critical fiber, n, g_C, marker fibers) and
``Family.branch`` are derived from the cover, so the datum pipeline is
checked against the closed formulas exactly.

The high-speed families and their speeds:

    genus2                   L = 8/5
    genus3                   L = 8/3
    odd_genus   (odd g >= 5) L = g - floor((g+1)/4)
    even_genus  (even g >= 4) L = g - (g^2-2g)/(2g+2)
    mod4_0      (4 | g)      L = g - g/4
    mod4_1      (g = 1 mod 4) L = g - floor(g/4)
    mod6_1      (g = 1 mod 6) L = g - 2*floor(g/6)

``best_known`` maximizes over the five clauses that are ever optimal and
names the winning construction.  Every speed strictly exceeds the
Teichmueller maximum teich_max(g) = (g+1)/2 of fibrato.bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import fibration
from .bounds import PreconditionViolated
from .datum import (CriticalFiber, DatumInvariantsReport, GenusGDatum, _fiber_from_runs,
                    invariants)
from .fibration import FibrationInvariants, noether_delta
from .germs import DEFAULT_MAX_DEPTH, DepthOverflow, RequiresAlgebraicExtension
from .hurwitz import BranchDatum, ramification_genus


# ---------------------------------------------------------------------------
# Double-cover example over C x P^1

def beauville(n: int, g_C: int = 0, branch_count: int | None = None) -> FibrationInvariants:
    """Invariants of the double cover of C x P^1 branched over two graphs.

    Start from a degree-n map phi: C -> P^1 with simple ramification, branch
    locus R, and an automorphism u of P^1 permuting R without fixed points in
    R.  The double cover of C x P^1 branched over the graphs of phi and
    u o phi, resolved and fibered over P^1, is a semi-stable fibration with
    fiber genus g = 2*g_C + n - 1 and |R| + 2 singular fibers.  Its
    invariants are

        chi = g,  omega^2 = 8 - 4n + 8(g-1),  delta = 4 + 4n + 4(g-1),

    which satisfy the Noether identity on the nose.  For g_C = 0 the slope is
    exactly the lower bound 4(g-1)/g.

    ``branch_count`` is |R|; the default 2*g_C - 2 + 2n is the generic count
    (one simple ramification point per branch point).  Special covers bunch
    several ramification points over one branch point and get a smaller |R|.
    """
    if n < 2:
        raise PreconditionViolated(f"cover degree must be >= 2, got {n}")
    if g_C < 0:
        raise PreconditionViolated(f"covered-curve genus must be >= 0, got {g_C}")
    g = 2 * g_C + n - 1
    if g < 2:
        raise PreconditionViolated(f"fiber genus must be >= 2, got {g} (n={n}, g_C={g_C})")
    if branch_count is None:
        branch_count = 2 * g_C - 2 + 2 * n
    if branch_count < 1:
        raise PreconditionViolated(f"branch count must be >= 1, got {branch_count}")
    chi = Fraction(g)
    omega_sq = Fraction(8 - 4 * n + 8 * (g - 1))
    delta = Fraction(4 + 4 * n + 4 * (g - 1))
    assert delta == noether_delta(omega_sq, chi)
    return FibrationInvariants(
        g=g,
        g_C=0,
        s=branch_count + 2,
        chi=chi,
        omega_sq=omega_sq,
        delta=delta,
        hyperelliptic=(g_C == 0),
        semistable=True,
    )


def beauville_quartic() -> FibrationInvariants:
    """The degree-4 instance via t -> t^2 + 1/t^2, with only three branch
    points: a genus-3 fibration with five singular fibers, chi = 3,
    omega^2 = 8, delta = 28, slope 8/3 and speed 2."""
    return beauville(4, 0, branch_count=3)


# ---------------------------------------------------------------------------
# Branch-divisor families on ruled surfaces

@dataclass(frozen=True)
class Family:
    """A constructed fibration: its datum, base-cover branch datum, and the
    closed-formula invariants the datum pipeline must reproduce."""

    name: str
    datum: GenusGDatum
    branch: BranchDatum
    expected_chi: Fraction
    expected_speed: Fraction
    expected_omega_sq: Fraction
    expected_slope: Fraction
    notes: str = ""
    depth: int = 0

    def report(self, max_depth: int = DEFAULT_MAX_DEPTH) -> DatumInvariantsReport:
        """The datum's invariants.  ``depth``, which every factory sets in
        closed form, is the depth of the deepest point the datum's even
        resolutions blow up; past the cap the kernel's DepthOverflow is
        raised before any resolution starts."""
        if self.depth > max_depth:
            raise DepthOverflow.past_cap(max_depth)
        return invariants(self.datum, max_depth)


class _Cover(NamedTuple):
    """A base cover C -> P^1, given by its partitions over (0, 1, inf): the
    BranchDatum of its branched points, whose source genus g_C is the
    Riemann-Hurwitz summation's, then (label, point, e) for each branched
    preimage and a negligible marker fiber for each unbranched one.  A
    fiber is labelled b^-1(p) when it is the one preimage of p and
    b^-1(p)_i otherwise."""

    branch: BranchDatum
    preimages: tuple[tuple[str, int, int], ...]
    markers: tuple[CriticalFiber, ...]


def _cover(*partitions: tuple[int, ...]) -> _Cover:
    d = sum(partitions[0])
    preimages, markers = [], []
    for point, (name, partition) in enumerate(zip(("0", "1", "inf"), partitions)):
        for i, e in enumerate(partition, 1):
            label = f"b^-1({name})" if len(partition) == 1 else f"b^-1({name})_{i}"
            if e == 1:
                markers.append(CriticalFiber(label, negligible_marker=True))
            else:
                preimages.append((label, point, e))
    branched = tuple(p for p in partitions if len(p) < d)
    return _Cover(BranchDatum(ramification_genus(0, d, partitions), 0, len(branched), d, branched),
                  tuple(preimages), tuple(markers))


_QUARTIC = _cover((4,), (4,), (2, 2))
_CYCLIC = {d: _cover((d,), (1,) * d, (d,)) for d in (4, 6)}
_GENUS3 = _cover((3,), (3,), (3,))
_GENUS2 = _cover((5,), (5,), (5,))


def _pull_back(g: int, cover: _Cover, fiber_over_0: bool = False,
               declared_m: int = 0) -> GenusGDatum:
    """The datum of the pull-back of B0_g along the base cover.

    B0_g, of class (2g+2)C0 + F on P^1 x P^1, has two points y^{g+1} - t
    over t = 0 and g+1 tangencies y^2 - t over each of t = 1 and t = inf.
    Over a preimage of ramification index e the germ y^a - t becomes
    y^a - z^e; the cover's marker fibers, one per unbranched preimage,
    follow the other fibers.  With ``fiber_over_0`` the branch divisor also
    holds the fiber over 0: each germ there gains the factor z, and n the
    summand 1.  Every germ list is one run, so the datum costs O(parts),
    whatever g is.
    """
    runs = ((g + 1, 2), (2, g + 1), (2, g + 1))
    fibers = []
    for label, point, e in cover.preimages:
        a, count = runs[point]
        germ = f"y^{a} - z^{e}"
        if fiber_over_0 and point == 0:
            germ = f"z*({germ})"
        fibers.append(_fiber_from_runs(label, [(germ, count)]))
    return GenusGDatum(g=g, g_C=cover.branch.g_source, e=0, n=cover.branch.d + fiber_over_0,
                       critical_fibers=(*fibers, *cover.markers), declared_m=declared_m)


def _speed_g_minus_k(name: str, k: int, g: int, cover: _Cover, depth: int,
                     notes: str = "") -> Family:
    """The family of speed g - k over a cover: chi = 2g - 2k, omega^2 = 8g - 8 - 4k."""
    chi = Fraction(2 * g - 2 * k)
    omega_sq = Fraction(8 * g - 8 - 4 * k)
    return Family(
        name=name,
        datum=_pull_back(g, cover),
        branch=cover.branch,
        expected_chi=chi,
        expected_speed=Fraction(g - k),
        expected_omega_sq=omega_sq,
        expected_slope=omega_sq / chi,
        notes=notes,
        depth=depth,
    )


def odd_genus(g: int) -> Family:
    """Speed g - floor((g+1)/4) for odd g >= 5, over a genus-1 base: the
    quartic cover with branching ((4), (4), (2, 2))."""
    if g % 2 == 0 or g < 5:
        raise PreconditionViolated(f"odd_genus requires odd g >= 5, got {g}")
    k = (g + 1) // 4
    # y^{g+1} - z^4 reaches an A3 point y^2 - z^4 at depth k for g = 1 mod 4,
    # and ends in an ordinary quadruple point at depth k - 1 for g = 3 mod 4
    return _speed_g_minus_k(
        "odd_genus", k, g, _QUARTIC, k + 1 if g % 4 == 1 else k - 1,
        f"resolves through {k} infinitely-near points of multiplicity 4 per germ")


def mod4_0(g: int) -> Family:
    """Speed g - g/4 for g divisible by 4; same cover as odd_genus, but the
    quartic germ y^{g+1} - z^4 now resolves completely through g/4 points of
    multiplicity 4 with a smooth tail.  (For g = 2 mod 4 it leaves an E6
    point, and semi-stability fails.)"""
    if g % 4 != 0 or g < 4:
        raise PreconditionViolated(f"mod4_0 requires g divisible by 4 with g >= 4, got {g}")
    k = g // 4
    # y^{g+1} - z^4 ends at depth k - 1, each A3 at 1
    return _speed_g_minus_k("mod4_0", k, g, _QUARTIC, max(k - 1, 1))


def mod4_1(g: int) -> Family:
    """Speed g - floor(g/4) for g = 1 mod 4, over a rational base via the
    degree-4 cover z -> z^4, unbranched over 1; s = 1 + 1 + 4 = 6."""
    if g % 4 != 1 or g < 5:
        raise PreconditionViolated(f"mod4_1 requires g = 1 mod 4 with g >= 5, got {g}")
    k = g // 4
    # y^{g+1} - z^4 reaches an A3 point y^2 - z^4 at depth k
    return _speed_g_minus_k("mod4_1", k, g, _CYCLIC[4], k + 1)


def mod6_1(g: int) -> Family:
    """Speed g - 2*floor(g/6) for g = 1 mod 6 and g >= 7, over a rational
    base via the degree-6 cover z -> z^6, unbranched over 1; s = 1 + 1 + 6 = 8."""
    if g % 6 != 1 or g < 7:
        raise PreconditionViolated(f"mod6_1 requires g = 1 mod 6 with g >= 7, got {g}")
    j = g // 6
    chi = Fraction(3 * g - 6 * j)
    omega_sq = Fraction(12 * g - 12 - 16 * j)
    return Family(
        name="mod6_1",
        datum=_pull_back(g, _CYCLIC[6]),
        branch=_CYCLIC[6].branch,
        expected_chi=chi,
        expected_speed=Fraction(g - 2 * j),
        expected_omega_sq=omega_sq,
        expected_slope=omega_sq / chi,
        depth=j + 2,  # y^{g+1} - z^6 reaches an A5 point y^2 - z^6 at depth j
    )


def even_genus(g: int) -> Family:
    """Speed g - (g^2-2g)/(2g+2) for even g >= 4, over a base of genus g.

    The base cover has branching ((g+1, g+1), (2g+2), (2g+2)); the four
    non-negligible germs y^{g+1} - z^{g+1} sit in pairs over the two points
    covering 0 and resolve in a single even blow-up each.  The fibers over
    the points covering 1 and infinity carry g+1 singularities of type
    A_{2g+1} each: the chain y^2 - z^{2g+2}, y^2 - z^{2g}, ..., y^2 - z^2
    blows up points down to depth g.
    """
    if g % 2 != 0 or g < 4:
        raise PreconditionViolated(f"even_genus requires even g >= 4, got {g}")
    chi = Fraction(g * g, 2) + 2 * g
    omega_sq = Fraction(2 * g * g + 8 * g - 12)
    cover = _cover((g + 1, g + 1), (2 * g + 2,), (2 * g + 2,))
    return Family(
        name="even_genus",
        datum=_pull_back(g, cover),
        branch=cover.branch,
        expected_chi=chi,
        expected_speed=Fraction(g * g + 4 * g, 2 * g + 2),
        expected_omega_sq=omega_sq,
        expected_slope=4 - Fraction(24, g * g + 4 * g),
        depth=g,
    )


def genus3() -> Family:
    """The genus-3 record, speed 8/3 over a genus-1 base with s = 3.

    The base cover has branching ((3), (3), (3)), and the branch divisor adds
    the whole fiber over the point covering 0 to the pullback divisor,
    producing two multiplicity-4 germs z(y^4 - z^3).  The fiber component of
    the branch divisor ends with self-intersection -2 after the resolution,
    so its preimage in the double cover is one vertical (-1)-curve:
    declared_m = 1.  That value is forced: with m = 0 the
    canonical-class bound omega^2 < (2g-2)(2g_C-2+s) = 12 would be met with
    equality, and with m >= 2 the slope would drop below 4(g-1)/g.
    """
    return Family(
        name="genus3",
        datum=_pull_back(3, _GENUS3, fiber_over_0=True, declared_m=1),
        branch=_GENUS3.branch,
        expected_chi=Fraction(4),
        expected_speed=Fraction(8, 3),
        expected_omega_sq=Fraction(11),
        expected_slope=Fraction(11, 4),
        notes="base genus 1 solved from the branch datum; 2g_C-2+s = 3",
        depth=1,
    )


def genus2() -> Family:
    """The genus-2 record, speed 8/5 over a genus-2 base with s = 3.

    Like genus3 the branch divisor contains the fiber over the point covering
    0 of its cover, branched ((5), (5), (5)), giving two multiplicity-4 germs
    z(y^3 - z^5).  Here the slope equals the lower bound 4(g-1)/g = 2
    exactly, which pins declared_m = 0.
    """
    return Family(
        name="genus2",
        datum=_pull_back(2, _GENUS2, fiber_over_0=True),
        branch=_GENUS2.branch,
        expected_chi=Fraction(4),
        expected_speed=Fraction(8, 5),
        expected_omega_sq=Fraction(8),
        expected_slope=Fraction(2),
        notes="slope meets the lower bound 4(g-1)/g exactly",
        depth=1,
    )


_FIXED_GENUS = {"genus2": 2, "genus3": 3}
_BY_NAME = {
    "genus2": genus2,
    "genus3": genus3,
    "odd_genus": odd_genus,
    "even_genus": even_genus,
    "mod4_0": mod4_0,
    "mod4_1": mod4_1,
    "mod6_1": mod6_1,
}
FAMILY_NAMES = tuple(_BY_NAME)


def family(name: str, g: int | None = None) -> Family:
    """Look up a family factory by name and instantiate it at genus g.

    genus2 and genus3 have a fixed genus; g may be omitted or must match.
    All other families require g in their congruence domain.
    """
    if name not in _BY_NAME:
        raise PreconditionViolated(f"unknown family {name!r}; choose from {', '.join(FAMILY_NAMES)}")
    if name in _FIXED_GENUS:
        if g is not None and g != _FIXED_GENUS[name]:
            raise PreconditionViolated(f"{name} is the g = {_FIXED_GENUS[name]} construction, got g = {g}")
        return _BY_NAME[name]()
    if g is None:
        raise PreconditionViolated(f"family {name} needs a genus")
    return _BY_NAME[name](g)


# ---------------------------------------------------------------------------
# Record speeds

@dataclass(frozen=True)
class BestKnown:
    """Highest constructed speed at a genus, with the construction named."""

    value: Fraction
    witness: str


def best_known(g: int) -> BestKnown:
    """Maximum of the applicable record-speed clauses at genus g.

    Only five clauses are ever optimal: 8/5 (g = 2), 8/3 (g = 3),
    g - floor((g+1)/4) (odd g >= 5), g - (g^2-2g)/(2g+2) (even g >= 4) and
    g - g/4 (4 | g).  The mod4_1 clause ties odd_genus on its whole domain
    and mod6_1 never exceeds it, so neither can win.
    """
    if g < 2:
        raise PreconditionViolated(f"genus must be >= 2, got {g}")
    if g == 2:
        return BestKnown(Fraction(8, 5), "genus2")
    if g == 3:
        return BestKnown(Fraction(8, 3), "genus3")
    if g % 2 == 1:
        return BestKnown(Fraction(g - (g + 1) // 4), "odd_genus")
    even = Fraction(g * g + 4 * g, 2 * g + 2)
    if g % 4 == 0 and Fraction(3 * g, 4) > even:  # even_genus wins a tie
        return BestKnown(Fraction(3 * g, 4), "mod4_0")
    return BestKnown(even, "even_genus")


# ---------------------------------------------------------------------------
# Experimental search

REJECTION_REASONS = ("chi <= 0", "not semistable", "audit failure", "unresolvable")


@dataclass(frozen=True)
class SearchCandidate:
    """A swept datum that passed every check, named by its n and germ text."""

    speed: Fraction
    n: int
    germ: str
    report: DatumInvariantsReport


@dataclass(frozen=True)
class SearchResult:
    """A sweep's arguments, ``best_known(g)``, its ten fastest candidates and
    each (reason, count) of REJECTION_REASONS."""

    g: int
    max_n: int
    a_max: int
    b_max: int
    max_depth: int
    best: BestKnown
    top: tuple[SearchCandidate, ...]
    rejected: tuple[tuple[str, int], ...]


def search(g: int, max_n: int, a_max: int, b_max: int,
           max_depth: int = DEFAULT_MAX_DEPTH) -> SearchResult:
    """Sweep the germs y^a - z^b (2 <= a <= a_max, 2 <= b <= b_max) at genus g
    and even n <= max_n over a genus-1 base with e = 0: one candidate fiber
    carries the germ twice, and three negligible marker fibers make s = 4, so
    speed = chi/2.  Survivors rank by speed, then smaller n, then germ text."""
    markers = tuple(CriticalFiber(f"marker_{i}", negligible_marker=True) for i in range(1, 4))
    survivors, rejected = [], dict.fromkeys(REJECTION_REASONS, 0)
    for n, a, b in product(range(2, max_n + 1, 2), range(2, a_max + 1), range(2, b_max + 1)):
        text = f"y^{a} - z^{b}"
        fibers = (CriticalFiber("candidate", (text, text)),) + markers
        try:
            report = invariants(GenusGDatum(g, g_C=1, e=0, n=n, critical_fibers=fibers), max_depth)
        except (RequiresAlgebraicExtension, DepthOverflow):
            rejected["unresolvable"] += 1
            continue
        if report.invariants.chi <= 0:
            rejected["chi <= 0"] += 1
        elif not report.semistable.passed:
            rejected["not semistable"] += 1
        elif not fibration.audit(report.invariants).passed:
            rejected["audit failure"] += 1
        else:
            survivors.append(SearchCandidate(report.speed, n, text, report))
    survivors.sort(key=lambda c: (-c.speed, c.n, c.germ))
    return SearchResult(g, max_n, a_max, b_max, max_depth, best_known(g), tuple(survivors[:10]),
                        tuple(rejected.items()))

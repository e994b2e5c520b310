"""Factories for the worked fibration examples and the record-speed families.

Two kinds of construction live here.  The first is a double-cover example
over a product of curves whose invariants come from closed formulas
(``beauville``); it attains the lower slope bound 4(g-1)/g when the covered
curve is rational.  The rest are branch-divisor constructions on ruled
surfaces: each factory emits a fully populated genus-g datum (germ lists per
critical fiber), the base-cover branch datum it relies on, and the expected
invariants, so that the datum pipeline can be checked against the closed
formulas exactly.

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

from . import fibration
from .bounds import PreconditionViolated
from .datum import (CriticalFiber, DatumInvariantsReport, GenusGDatum, _fiber_from_runs,
                    invariants)
from .fibration import FibrationInvariants, noether_delta
from .germs import DEFAULT_MAX_DEPTH, DepthOverflow, RequiresAlgebraicExtension
from .hurwitz import BranchDatum


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


def _quartic_frame(g: int) -> GenusGDatum:
    """Datum over the degree-4 base cover with branching ((4),(4),(2,2)).

    The base curve has genus 1 and the four critical fibers carry: two germs
    y^{g+1} - z^4 over the totally ramified point covering 0, g+1 double
    points y^2 - z^4 over the one covering 1, and g+1 nodes y^2 - z^2 over
    each of the two points covering infinity.  (The nodes are listed per
    point of b^-1(inf); they contribute nothing to the invariant sums.)
    Used by odd_genus and mod4_0; for g = 2 mod 4 the residual singularity
    of y^{g+1} - z^4 is an E6 point and semi-stability fails.
    """
    return GenusGDatum(
        g=g,
        g_C=1,
        e=0,
        n=4,
        critical_fibers=(
            _fiber_from_runs("b^-1(0)", [(f"y^{g + 1} - z^4", 2)]),
            _fiber_from_runs("b^-1(1)", [("y^2 - z^4", g + 1)]),
            _fiber_from_runs("b^-1(inf_1)", [("y^2 - z^2", g + 1)]),
            _fiber_from_runs("b^-1(inf_2)", [("y^2 - z^2", g + 1)]),
        ),
    )


_QUARTIC_BRANCH = BranchDatum(1, 0, 3, 4, ((4,), (4,), (2, 2)))


def _speed_g_minus_k(name: str, k: int, datum: GenusGDatum, branch: BranchDatum, depth: int,
                     notes: str = "") -> Family:
    """The family of speed g - k on a frame: chi = 2g - 2k, omega^2 = 8g - 8 - 4k."""
    g = datum.g
    chi = Fraction(2 * g - 2 * k)
    omega_sq = Fraction(8 * g - 8 - 4 * k)
    return Family(
        name=name,
        datum=datum,
        branch=branch,
        expected_chi=chi,
        expected_speed=Fraction(g - k),
        expected_omega_sq=omega_sq,
        expected_slope=omega_sq / chi,
        notes=notes,
        depth=depth,
    )


def odd_genus(g: int) -> Family:
    """Speed g - floor((g+1)/4) for odd g >= 5, over a genus-1 base."""
    if g % 2 == 0 or g < 5:
        raise PreconditionViolated(f"odd_genus requires odd g >= 5, got {g}")
    k = (g + 1) // 4
    # y^{g+1} - z^4 reaches an A3 point y^2 - z^4 at depth k for g = 1 mod 4,
    # and ends in an ordinary quadruple point at depth k - 1 for g = 3 mod 4
    return _speed_g_minus_k(
        "odd_genus", k, _quartic_frame(g), _QUARTIC_BRANCH, k + 1 if g % 4 == 1 else k - 1,
        f"resolves through {k} infinitely-near points of multiplicity 4 per germ")


def mod4_0(g: int) -> Family:
    """Speed g - g/4 for g divisible by 4; same frame as odd_genus, but the
    quartic germ y^{g+1} - z^4 now resolves completely through g/4 points of
    multiplicity 4 with a smooth tail."""
    if g % 4 != 0 or g < 4:
        raise PreconditionViolated(f"mod4_0 requires g divisible by 4 with g >= 4, got {g}")
    k = g // 4
    # y^{g+1} - z^4 ends at depth k - 1, each A3 at 1
    return _speed_g_minus_k("mod4_0", k, _quartic_frame(g), _QUARTIC_BRANCH, max(k - 1, 1))


def _cyclic_frame(g: int, d: int) -> tuple[GenusGDatum, BranchDatum]:
    """Datum over the degree-d base cover z -> z^d of a rational curve,
    totally ramified over 0 and infinity, with its branch datum.

    Two germs y^{g+1} - z^d sit over b^-1(0) and g+1 germs y^2 - z^d over
    b^-1(inf).  The d fibers over the preimages of 1 are critical with only
    fiber nodes (the branch divisor is smooth there) and enter as negligible
    markers; s = 1 + 1 + d.  Used by mod4_1 (d = 4) and mod6_1 (d = 6).
    """
    markers = tuple(
        CriticalFiber(f"b^-1(1)_{i}", (), negligible_marker=True) for i in range(1, d + 1)
    )
    datum = GenusGDatum(
        g=g,
        g_C=0,
        e=0,
        n=d,
        critical_fibers=(
            _fiber_from_runs("b^-1(0)", [(f"y^{g + 1} - z^{d}", 2)]),
            _fiber_from_runs("b^-1(inf)", [(f"y^2 - z^{d}", g + 1)]),
        )
        + markers,
    )
    return datum, BranchDatum(0, 0, 2, d, ((d,), (d,)))


def mod4_1(g: int) -> Family:
    """Speed g - floor(g/4) for g = 1 mod 4, over a rational base via the
    degree-4 cover z -> z^4; s = 1 + 1 + 4 = 6."""
    if g % 4 != 1 or g < 5:
        raise PreconditionViolated(f"mod4_1 requires g = 1 mod 4 with g >= 5, got {g}")
    k = g // 4
    # y^{g+1} - z^4 reaches an A3 point y^2 - z^4 at depth k
    return _speed_g_minus_k("mod4_1", k, *_cyclic_frame(g, 4), k + 1)


def mod6_1(g: int) -> Family:
    """Speed g - 2*floor(g/6) for g = 1 mod 6 and g >= 7, over a rational
    base via the degree-6 cover z -> z^6; s = 1 + 1 + 6 = 8."""
    if g % 6 != 1 or g < 7:
        raise PreconditionViolated(f"mod6_1 requires g = 1 mod 6 with g >= 7, got {g}")
    j = g // 6
    chi = Fraction(3 * g - 6 * j)
    omega_sq = Fraction(12 * g - 12 - 16 * j)
    datum, branch = _cyclic_frame(g, 6)
    return Family(
        name="mod6_1",
        datum=datum,
        branch=branch,
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
    datum = GenusGDatum(
        g=g,
        g_C=g,
        e=0,
        n=2 * g + 2,
        critical_fibers=(
            _fiber_from_runs("b^-1(0)_1", [(f"y^{g + 1} - z^{g + 1}", 2)]),
            _fiber_from_runs("b^-1(0)_2", [(f"y^{g + 1} - z^{g + 1}", 2)]),
            _fiber_from_runs("b^-1(1)", [(f"y^2 - z^{2 * g + 2}", g + 1)]),
            _fiber_from_runs("b^-1(inf)", [(f"y^2 - z^{2 * g + 2}", g + 1)]),
        ),
    )
    return Family(
        name="even_genus",
        datum=datum,
        branch=BranchDatum(g, 0, 3, 2 * g + 2, ((g + 1, g + 1), (2 * g + 2,), (2 * g + 2,))),
        expected_chi=chi,
        expected_speed=Fraction(g * g + 4 * g, 2 * g + 2),
        expected_omega_sq=omega_sq,
        expected_slope=4 - Fraction(24, g * g + 4 * g),
        depth=g,
    )


def genus3() -> Family:
    """The genus-3 record, speed 8/3 over a genus-1 base with s = 3.

    The branch divisor adds the whole fiber over the point covering 0 to the
    pullback divisor, producing two multiplicity-4 germs z(y^4 - z^3).  The
    fiber component of the branch divisor ends with self-intersection -2
    after the resolution, so its preimage in the double cover is one vertical
    (-1)-curve: declared_m = 1.  That value is forced: with m = 0 the
    canonical-class bound omega^2 < (2g-2)(2g_C-2+s) = 12 would be met with
    equality, and with m >= 2 the slope would drop below 4(g-1)/g.
    """
    datum = GenusGDatum(
        g=3,
        g_C=1,
        e=0,
        n=4,
        declared_m=1,
        critical_fibers=(
            _fiber_from_runs("b^-1(0)", [("z*(y^4 - z^3)", 2)]),
            _fiber_from_runs("b^-1(1)", [("y^2 - z^3", 4)]),
            _fiber_from_runs("b^-1(inf)", [("y^2 - z^3", 4)]),
        ),
    )
    return Family(
        name="genus3",
        datum=datum,
        branch=BranchDatum(1, 0, 3, 3, ((3,), (3,), (3,))),
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
    0, giving two multiplicity-4 germs z(y^3 - z^5).  Here the slope equals
    the lower bound 4(g-1)/g = 2 exactly, which pins declared_m = 0.
    """
    datum = GenusGDatum(
        g=2,
        g_C=2,
        e=0,
        n=6,
        critical_fibers=(
            _fiber_from_runs("b^-1(0)", [("z*(y^3 - z^5)", 2)]),
            _fiber_from_runs("b^-1(1)", [("y^2 - z^5", 3)]),
            _fiber_from_runs("b^-1(inf)", [("y^2 - z^5", 3)]),
        ),
    )
    return Family(
        name="genus2",
        datum=datum,
        branch=BranchDatum(2, 0, 3, 5, ((5,), (5,), (5,))),
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

"""Tests for the example factories and the record-speed table."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from fibrato.bounds import PreconditionViolated, low_base_speed, minimal_m, teich_max
from fibrato.constructions import (
    FAMILY_NAMES,
    REJECTION_REASONS,
    BestKnown,
    Family,
    beauville,
    beauville_quartic,
    best_known,
    even_genus,
    family,
    genus2,
    genus3,
    mod4_0,
    mod4_1,
    mod6_1,
    odd_genus,
    search,
    _QUARTIC,
    _pull_back,
)
from fibrato.datum import invariants, validate
from fibrato.fibration import FibrationInvariants, audit, slope, speed
from fibrato.germs import DEFAULT_MAX_DEPTH, DepthOverflow, even_resolve
from fibrato.hurwitz import REALIZABLE, is_compatible, is_realizable, solve_source_genus
from fibrato.jsonio import datum_from_json, datum_to_json
from fibrato.oracle import binomial_oracle


# ---------------------------------------------------------------------------
# Beauville-style double cover


def test_beauville_quartic_exact_invariants():
    inv = beauville_quartic()
    assert (inv.g, inv.g_C, inv.s) == (3, 0, 5)
    assert inv.chi == 3
    assert inv.omega_sq == 8
    assert inv.delta == 28
    assert slope(inv) == Fraction(8, 3)
    assert speed(inv) == 2
    assert audit(inv).passed


def test_beauville_quartic_forged_delta_fails_noether_audit():
    forged = FibrationInvariants(g=3, g_C=0, s=5, chi=3, omega_sq=8, delta=40)
    report = audit(forged)
    assert not report.passed
    assert any(c.check == "noether-identity" and c.status == "fail" for c in report.checks)


def test_beauville_rejects_fiber_genus_below_two():
    with pytest.raises(PreconditionViolated):
        beauville(2, 0)
    with pytest.raises(PreconditionViolated):
        beauville(1, 3)


def test_beauville_rejects_negative_base_genus_and_empty_branch():
    with pytest.raises(PreconditionViolated,
                       match="^covered-curve genus must be >= 0, got -1$"):
        beauville(3, -1)
    with pytest.raises(PreconditionViolated, match="^branch count must be >= 1, got 0$"):
        beauville(3, 0, 0)


def test_beauville_genus_one_base():
    inv = beauville(4, 1)
    assert inv.g == 5
    assert inv.chi == 5
    assert inv.omega_sq == 24
    assert inv.delta == 36
    assert slope(inv) == Fraction(24, 5)
    assert slope(inv) > Fraction(16, 5)
    assert audit(inv).passed


def test_beauville_generic_branch_count():
    # one simple ramification point per branch point: |R| = 2g_C - 2 + 2n
    assert beauville(4, 0).s == 6 + 2
    assert beauville_quartic().s == 5
    assert beauville(4, 1).s == 8 + 2


def test_beauville_attains_lower_slope_bound_over_rational_curve():
    for n in range(3, 8):
        inv = beauville(n, 0)
        g = inv.g
        assert slope(inv) == Fraction(4 * (g - 1), g)


# ---------------------------------------------------------------------------
# family factories: smallest instances against the closed formulas


def _check_family(fam: Family):
    assert validate(fam.datum) == []
    rep = fam.report()
    assert rep.invariants.chi == fam.expected_chi
    assert rep.speed == fam.expected_speed
    assert rep.invariants.omega_sq == fam.expected_omega_sq
    assert rep.slope == fam.expected_slope
    assert rep.semistable.passed, rep.semistable.failures
    return rep


def test_genus2_family():
    fam = genus2()
    rep = _check_family(fam)
    assert (rep.invariants.chi, rep.speed) == (4, Fraction(8, 5))
    assert rep.invariants.delta == 40
    assert rep.slope == 2  # lower slope bound met exactly
    assert fam.datum.s == 3 and fam.datum.g_C == 2


def test_genus3_family():
    fam = genus3()
    rep = _check_family(fam)
    assert (rep.invariants.chi, rep.speed) == (4, Fraction(8, 3))
    assert rep.invariants.omega_sq == 11
    assert fam.datum.declared_m == 1
    assert fam.datum.s == 3 and fam.datum.g_C == 1
    # 2g_C - 2 + s = 3, the denominator of the stated speed 8/3
    assert 2 * fam.datum.g_C - 2 + fam.datum.s == 3


def test_odd_genus_smallest():
    fam = odd_genus(5)
    rep = _check_family(fam)
    assert rep.invariants.chi == 8
    assert rep.speed == 4


def test_even_genus_smallest():
    fam = even_genus(4)
    rep = _check_family(fam)
    assert fam.datum.n == 10
    assert rep.invariants.chi == 16
    assert rep.invariants.omega_sq == 52
    assert rep.slope == Fraction(13, 4)
    assert rep.speed == Fraction(16, 5)


def _report_or_overflow(report, cap):
    try:
        return report(cap).invariants
    except DepthOverflow as exc:
        return str(exc)


@pytest.mark.parametrize("cap", [3, 4, 5, 8, 11])
def test_even_genus_fails_fast_exactly_where_the_kernel_overflows(cap):
    # the A_{2g+1} chain blows up points down to depth g: past the cap the
    # family raises the kernel's own text without resolving anything, and
    # within it the family resolves
    for g in range(4, 2 * cap + 6, 2):
        fam = even_genus(g)
        got = _report_or_overflow(fam.report, cap)
        assert got == _report_or_overflow(lambda c: invariants(fam.datum, c), cap), (g, cap)
        if g > cap:
            assert got == f"no smooth model within {cap} blow-ups"
        else:
            assert not isinstance(got, str), (g, cap, got)


def test_even_genus_past_the_cap_resolves_nothing(monkeypatch):
    fam = even_genus(100000)
    monkeypatch.setattr("fibrato.datum.even_resolve", None)  # any call would fail
    with pytest.raises(DepthOverflow, match="no smooth model within 64 blow-ups"):
        fam.report()


def _deepest_point(fam):
    return max(p.depth for fib in fam.datum.critical_fibers for germ in set(fib.germs)
               for p in even_resolve(germ, 10 ** 6).points)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_family_fails_fast_exactly_where_the_kernel_overflows(name):
    # the closed-form depth is the deepest point the kernel blows up: past
    # the cap the family raises the kernel's own text before resolving, and
    # within it the family resolves
    for g in range(2, 100):
        try:
            fam = family(name, g)
        except PreconditionViolated:
            continue
        assert fam.depth == _deepest_point(fam), (name, g)
        for cap in range(3, 12):
            got = _report_or_overflow(fam.report, cap)
            assert got == _report_or_overflow(lambda c: invariants(fam.datum, c), cap), (
                name, g, cap)
            if fam.depth > cap:
                assert got == f"no smooth model within {cap} blow-ups", (name, g, cap)
            else:
                assert not isinstance(got, str), (name, g, cap, got)


@pytest.mark.parametrize("name, g", [("odd_genus", 10 ** 8 + 1), ("even_genus", 10 ** 8),
                                     ("mod4_0", 10 ** 8), ("mod4_1", 10 ** 8 + 1),
                                     ("mod6_1", 10 ** 8 + 3), ("odd_genus", 10 ** 30 + 1)])
def test_a_family_at_a_huge_genus_is_built_and_refused_at_once(name, g, monkeypatch):
    monkeypatch.setattr("fibrato.datum.even_resolve", None)  # any call would fail
    fam = family(name, g)
    assert fam.datum.g == g
    assert sum(count for fib in fam.datum.critical_fibers for _, count in fib._runs) > g
    with pytest.raises(DepthOverflow, match="no smooth model within 64 blow-ups"):
        fam.report()


def test_even_genus_six():
    fam = even_genus(6)
    rep = _check_family(fam)
    assert fam.datum.n == 14
    assert rep.invariants.chi == 30
    assert rep.speed == Fraction(30, 7)


def test_mod4_0_at_eight():
    fam = mod4_0(8)
    rep = _check_family(fam)
    assert rep.invariants.chi == 12
    assert rep.speed == 6
    # the two quartic-branch germs run through g/4 = 2 multiplicity-4 points each
    quartics = [t for t in rep.traces if t.fiber_label == "b^-1(0)"]
    assert [t.multiplicities for t in quartics] == [(4, 4), (4, 4)]


def test_mod4_1_smallest():
    fam = mod4_1(5)
    rep = _check_family(fam)
    assert fam.datum.s == 6
    assert fam.datum.g_C == 0
    assert rep.invariants.chi == 8
    assert rep.speed == 4


def test_mod6_1_at_seven():
    fam = mod6_1(7)
    rep = _check_family(fam)
    assert fam.datum.s == 8
    assert rep.invariants.chi == 15
    assert rep.speed == 5
    assert rep.invariants.omega_sq == 56
    assert rep.invariants.delta == 124


def test_domain_errors():
    for call in (
        lambda: odd_genus(3),
        lambda: odd_genus(6),
        lambda: even_genus(2),
        lambda: even_genus(5),
        lambda: mod4_0(6),
        lambda: mod4_1(7),
        lambda: mod6_1(11),
        lambda: mod6_1(1),
        lambda: best_known(1),
    ):
        with pytest.raises(PreconditionViolated):
            call()


def test_family_dispatcher():
    assert family("genus2").datum.g == 2
    assert family("genus3", 3).name == "genus3"
    assert family("odd_genus", 7).datum.g == 7
    with pytest.raises(PreconditionViolated):
        family("genus2", 3)
    with pytest.raises(PreconditionViolated):
        family("odd_genus")
    with pytest.raises(PreconditionViolated):
        family("bogus", 5)
    assert FAMILY_NAMES == ("genus2", "genus3", "odd_genus", "even_genus",
                            "mod4_0", "mod4_1", "mod6_1")


def test_quartic_frame_fails_for_g_2_mod_4():
    # evenness holds but the quartic branch germ leaves an E6 residual
    rep = invariants(_pull_back(6, _QUARTIC))
    assert not rep.semistable.passed
    assert any("E6" in f for f in rep.semistable.failures)


# each family's base cover, by its partitions over (0, 1, inf)
_COVERS = {
    "genus2": lambda g: ((5,), (5,), (5,)),
    "genus3": lambda g: ((3,), (3,), (3,)),
    "odd_genus": lambda g: ((4,), (4,), (2, 2)),
    "mod4_0": lambda g: ((4,), (4,), (2, 2)),
    "mod4_1": lambda g: ((4,), (1,) * 4, (4,)),
    "mod6_1": lambda g: ((6,), (1,) * 6, (6,)),
    "even_genus": lambda g: ((g + 1, g + 1), (2 * g + 2,), (2 * g + 2,)),
}


def test_every_family_datum_is_read_off_its_cover():
    for name in FAMILY_NAMES:
        for g in range(2, 42):
            try:
                fam = family(name, g)
            except PreconditionViolated:
                continue
            d, b, cover = fam.datum, fam.branch, _COVERS[name](g)
            assert b.partitions == tuple(p for p in cover if len(p) < b.d), (name, g)
            # Riemann-Hurwitz over P^1: 2g_C - 2 = -2 deg + sum of (e - 1)
            assert 2 * d.g_C - 2 == -2 * b.d + sum(e - 1 for p in b.partitions for e in p)
            assert d.g_C == b.g_source, (name, g)
            assert d.n == b.d + (name in ("genus2", "genus3")), (name, g)
            # one fiber per preimage of 0, 1 and inf; a negligible marker
            # exactly at each unbranched preimage, the markers listed last
            fibers = [(f"b^-1({point})" if len(p) == 1 else f"b^-1({point})_{i}", e == 1)
                      for point, p in zip(("0", "1", "inf"), cover) for i, e in enumerate(p, 1)]
            assert [(f.label, f.negligible_marker) for f in d.critical_fibers] == sorted(
                fibers, key=lambda fiber: fiber[1]), (name, g)


# ---------------------------------------------------------------------------
# full-domain sweeps (g <= 41)


def _admissible_instances():
    yield genus2()
    yield genus3()
    for g in range(5, 42, 2):
        yield odd_genus(g)
    for g in range(4, 42, 2):
        yield even_genus(g)
    for g in range(4, 42, 4):
        yield mod4_0(g)
    for g in range(5, 42, 4):
        yield mod4_1(g)
    for g in range(7, 42, 6):
        yield mod6_1(g)


def test_all_families_validate_and_match_expected_values():
    for fam in _admissible_instances():
        g = fam.datum.g
        rep = _check_family(fam)
        assert rep.speed > teich_max(g), (fam.name, g)
        assert rep.speed < g, (fam.name, g)


def test_even_genus_formulas_exactly():
    for g in range(4, 42, 2):
        rep = even_genus(g).report()
        assert rep.slope == 4 - Fraction(24, g * g + 4 * g), g
        assert rep.invariants.omega_sq == 2 * g * g + 8 * g - 12, g


def test_strict_audits_pass_for_all_families():
    for fam in _admissible_instances():
        rep = fam.report()
        report = audit(rep.invariants)
        assert report.passed, (fam.name, fam.datum.g, report.failures)


def test_families_respect_low_base_speed_bound():
    for fam in _admissible_instances():
        d = fam.datum
        m = minimal_m(d.g_C, d.s)
        assert fam.expected_speed <= low_base_speed(d.g, m), (fam.name, d.g)


def test_embedded_branch_data_are_realizable():
    for fam in (genus2(), genus3(), odd_genus(5), even_genus(4), mod4_0(8),
                mod4_1(9), mod6_1(13)):
        b = fam.branch
        assert is_compatible(b), fam.name
        assert is_realizable(b) is REALIZABLE, fam.name
        solved = solve_source_genus(b.g_target, b.m, b.d, b.partitions)
        assert solved == b.g_source, fam.name


def test_factory_datum_json_round_trip():
    for fam in (genus2(), genus3(), odd_genus(5), even_genus(4), mod4_1(5), mod6_1(7)):
        assert datum_from_json(datum_to_json(fam.datum)) == fam.datum


# ---------------------------------------------------------------------------
# best_known


def test_best_known_frozen_small_genera():
    expected = {
        2: (Fraction(8, 5), "genus2"),
        3: (Fraction(8, 3), "genus3"),
        4: (Fraction(16, 5), "even_genus"),
        5: (Fraction(4), "odd_genus"),
        6: (Fraction(30, 7), "even_genus"),
        7: (Fraction(5), "odd_genus"),
        8: (Fraction(6), "mod4_0"),
        9: (Fraction(7), "odd_genus"),
    }
    for g, (value, witness) in expected.items():
        record = best_known(g)
        assert isinstance(record, BestKnown)
        assert record.value == value, g
        assert record.witness == witness, g


def test_best_known_exceeds_half_genus_plus_one():
    for g in range(2, 42):
        record = best_known(g)
        assert record.value > teich_max(g), g
        assert record.value < g, g


def test_best_known_matches_witness_family_speed():
    for g in (2, 3, 4, 5, 8, 9, 12, 16, 21, 40):
        record = best_known(g)
        fam = family(record.witness, g)
        assert fam.expected_speed == record.value, g
        assert fam.report().speed == record.value, g


def test_best_known_mod4_0_overtakes_even_genus_past_g4():
    assert best_known(4).witness == "even_genus"
    for g in (8, 12, 16, 20, 40):
        record = best_known(g)
        assert record.witness == "mod4_0", g
        assert family("mod4_0", g).expected_speed > family("even_genus", g).expected_speed, g


# ---------------------------------------------------------------------------
# Experimental search


def test_every_accepted_sweep_has_a_candidate():
    # y^2 - z^2 at n = 2 lies in every sweep the CLI accepts (genus >= 2,
    # max-n >= 2, grid >= 2x2) and passes every check, so its report never
    # lacks a candidate; its slope is the lower bound 4(g - 1)/g
    for g in range(2, 42):
        top = search(g, 2, 2, 2, 1).top
        assert [(c.n, c.germ) for c in top] == [(2, "y^2 - z^2")], g
        assert top[0].report.slope == Fraction(4 * (g - 1), g), g


def test_search_ranks_and_rejects_without_the_cli():
    # 36 data (n = 2, 4, 6, 8 times a 4x4 grid); at depth 1 the eight data of
    # y^4 - z^3 and y^3 - z^4 cannot resolve, and no test elsewhere reaches
    # the unresolvable reason
    for max_depth, counts in ((DEFAULT_MAX_DEPTH, (0, 12, 17, 0)), (1, (0, 4, 17, 8))):
        result = search(6, 8, 4, 4, max_depth=max_depth)
        assert (result.g, result.max_n, result.a_max, result.b_max,
                result.max_depth) == (6, 8, 4, 4, max_depth)
        assert result.best == best_known(6)
        assert result.rejected == tuple(zip(REJECTION_REASONS, counts))
        assert len(result.top) == 7
        keys = [(-c.speed, c.n, c.germ) for c in result.top]
        assert keys == sorted(keys)
        for c in result.top:
            # the germ is listed twice on a genus-1 base with s = 4
            a, b = map(int, re.fullmatch(r"y\^(\d+) - z\^(\d+)", c.germ).groups())
            ks = [m // 2 for m in binomial_oracle(0, 0, a, b)]
            chi = Fraction(6 * c.n - 2 * sum(k * (k - 1) for k in ks), 2)
            assert c.report.invariants.chi == chi, c
            assert c.speed == c.report.speed == chi / 2, c

"""Acceptance suite: the twelve headline guarantees, one test per criterion.

``pytest -v tests/test_acceptance.py`` prints one pass/fail verdict line per
criterion; add ``-s`` (or ``-rA``) to also see the explicit
``PASS criterion-NN`` lines emitted on success.  Every expected number here
is frozen into the test body; nothing is recomputed from the code under
test except the values being checked and ``teich_max``, the named
Teichmueller reference (pinned to (g+1)/2 in test_bounds.py).
"""

from __future__ import annotations

import json
from fractions import Fraction

from fibrato.bounds import (
    canonical_class_bound,
    decimal3,
    low_base_speed,
    nonhyp_slope,
    nonhyp_speed,
    table,
    teich_max,
)
from fibrato.cli import main
from fibrato.constructions import (
    beauville_quartic,
    even_genus,
    family,
    genus2,
    genus3,
    mod4_0,
    odd_genus,
)
from fibrato.datum import CriticalFiber, GenusGDatum, invariants
from fibrato.fibration import (
    FibrationInvariants,
    audit,
    slope,
    speed,
)
from fibrato.germs import even_resolve, parse_germ
from fibrato.hurwitz import (
    REALIZABLE,
    BranchDatum,
    is_compatible,
    is_realizable,
    solve_source_genus,
)
from fibrato.oracle import binomial_oracle


def _pass(num: int, text: str) -> None:
    print(f"PASS criterion-{num:02d}: {text}")


# ---------------------------------------------------------------------------
# criterion 1: the three reference tables, cell for cell

GOLDEN_TABLE_1 = {
    "g_C <= 1 (m = 1)": ["1.889", "2.833", "3.778", "4.722", "5.667",
                         "6.611", "7.556"],
    "g_C = 2 (m = 2)": ["1.944", "2.917", "3.889", "4.861", "5.833",
                        "6.806", "7.778"],
}
GOLDEN_TABLE_2 = ["2.667", "3.5", "4", "5.778", "6.667", "7.556", "8.444",
                  "9.333", "10.222"]
GOLDEN_TABLE_3 = ["1.6", "2.667", "3.2", "4", "4.286", "5", "6", "7"]


def test_criterion_01_reference_tables_cell_for_cell(capsys):
    t1, t2, t3 = table(1), table(2), table(3)
    assert t1.genera == tuple(range(2, 9))
    for row in t1.rows:
        golden = GOLDEN_TABLE_1[row.label]
        assert [d for (_, d) in row.cells] == golden
        # exact values reproduce the printed cells after 3-decimal rounding
        assert [decimal3(v) for (v, _) in row.cells] == golden

    assert t2.genera == tuple(range(3, 12))
    [row2] = t2.rows
    assert [d for (_, d) in row2.cells] == GOLDEN_TABLE_2

    assert t3.genera == tuple(range(2, 10))
    [row3] = t3.rows
    assert [d for (_, d) in row3.cells] == GOLDEN_TABLE_3

    # the CLI renders the same cells
    assert main(["tables", "all", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    cells = {}
    for line in out.strip().split("\n")[1:]:
        which, label, g, exact, dec = line.split(",")
        cells[(int(which), label, int(g))] = dec
    for label, golden in GOLDEN_TABLE_1.items():
        assert [cells[(1, label, g)] for g in range(2, 9)] == golden
    assert [cells[(2, "non-hyperelliptic", g)]
            for g in range(3, 12)] == GOLDEN_TABLE_2
    assert [cells[(3, "best known", g)] for g in range(2, 10)] == GOLDEN_TABLE_3
    _pass(1, "all three reference tables match cell-for-cell at 3 decimals")


# ---------------------------------------------------------------------------
# criterion 2: the quartic double-plane record and its forged variant

def test_criterion_02_quartic_double_plane_record():
    inv = beauville_quartic()
    assert inv.g == 3
    assert inv.s == 5
    assert inv.chi == 3
    assert inv.omega_sq == 8
    assert inv.delta == 28
    assert slope(inv) == Fraction(8, 3)
    assert speed(inv) == 2

    forged = FibrationInvariants(g=3, g_C=0, s=5, chi=3, omega_sq=8,
                                 delta=40, hyperelliptic=True)
    report = audit(forged)
    assert not report.passed
    assert any(c.check == "noether-identity" and c.status == "fail"
               for c in report.checks)
    _pass(2, "quartic record is (3, 5, 3, 8, 28, 8/3, 2); forged delta = 40 "
             "trips the additivity identity")


# ---------------------------------------------------------------------------
# criterion 3: record clauses for every genus in 2..41

def _designated(g):
    """(factory instance, clause value) pairs whose speed the clause gives."""
    pairs = []
    if g == 2:
        pairs.append((genus2(), Fraction(8, 5)))
    if g == 3:
        pairs.append((genus3(), Fraction(8, 3)))
    if g >= 5 and g % 2 == 1:
        pairs.append((odd_genus(g), Fraction(g - (g + 1) // 4)))
    if g >= 4 and g % 2 == 0:
        pairs.append((even_genus(g), g - Fraction(g * g - 2 * g, 2 * g + 2)))
    if g >= 4 and g % 4 == 0:
        pairs.append((mod4_0(g), g - Fraction(g, 4)))
    return pairs


def test_criterion_03_record_clauses_to_genus_41():
    for g in range(2, 42):
        for fam, clause in _designated(g):
            computed = fam.report().speed
            assert computed == clause, (g, fam.name)
            assert computed > teich_max(g), (g, fam.name)
    _pass(3, "every record clause for g in 2..41 is met exactly and "
             "exceeds teich_max(g) = (g+1)/2")


# ---------------------------------------------------------------------------
# criterion 4: closed formulas of the even-genus family

def test_criterion_04_even_genus_closed_formulas():
    for g in range(4, 41, 2):
        report = even_genus(g).report()
        assert report.slope == 4 - Fraction(24, g * g + 4 * g), g
        assert report.invariants.omega_sq == 2 * g * g + 8 * g - 12, g
    _pass(4, "even g in 4..40: slope and omega^2 match the closed formulas "
             "exactly")


# ---------------------------------------------------------------------------
# criterion 5: resolution engine versus the exponent oracle

def test_criterion_05_engine_matches_exponent_oracle_grid():
    for e in (0, 1):
        for f in (0, 1):
            for a in range(1, 13):
                for b in range(1, 13):
                    parts = (["y"] if e else []) + (["z"] if f else [])
                    parts.append(f"(y^{a} - z^{b})")
                    germ = parse_germ("*".join(parts))
                    got = even_resolve(germ).multiplicities()
                    assert got == binomial_oracle(e, f, a, b), (e, f, a, b)
    _pass(5, "even_resolve matches the exponent oracle on all 576 grid germs")


# ---------------------------------------------------------------------------
# criterion 6: quartic germ point counts across odd genus

def test_criterion_06_quartic_point_count_matches_floor():
    for g in range(3, 42, 2):
        trace = even_resolve(parse_germ(f"y^{g + 1} - z^4"))
        quads = sum(1 for m in trace.multiplicities() if m == 4)
        assert quads == (g + 1) // 4, g
    _pass(6, "odd g in 3..41: multiplicity-4 point count equals "
             "floor((g+1)/4)")


# ---------------------------------------------------------------------------
# criterion 7: strict inequalities on every construction

def _all_family_instances():
    yield family("genus2")
    yield family("genus3")
    for g in range(5, 42, 2):
        yield family("odd_genus", g)
    for g in range(4, 41, 2):
        yield family("even_genus", g)
    for g in range(4, 41, 4):
        yield family("mod4_0", g)
    for g in range(5, 42, 4):
        yield family("mod4_1", g)
    for g in range(7, 38, 6):
        yield family("mod6_1", g)


def test_criterion_07_strict_speed_and_canonical_inequalities():
    for fam in _all_family_instances():
        report = fam.report()
        inv = report.invariants
        assert report.semistable.passed, fam.name
        assert report.speed < inv.g, (fam.name, inv.g)
        bound = canonical_class_bound(inv.g, inv.g_C, inv.s)
        assert inv.omega_sq < bound, (fam.name, inv.g)

    # a record engineered to reach equality in both strict bounds
    rigged = FibrationInvariants(g=4, g_C=0, s=6, chi=8, omega_sq=24,
                                 delta=72)
    report = audit(rigged)
    assert speed(rigged) == rigged.g
    assert rigged.omega_sq == canonical_class_bound(4, 0, 6)
    assert not report.passed
    failing = {c.check for c in report.failures}
    assert {"arakelov-speed", "canonical-class"} <= failing
    _pass(7, "all constructions satisfy the strict speed and canonical "
             "bounds; an equality record fails the audit")


# ---------------------------------------------------------------------------
# criterion 8: exact minimization of the base-change bound

def test_criterion_08_base_change_minimizer_is_9():
    for g in range(2, 51):
        for m in range(1, 6):
            # the n-fold base-change bound g - g(2n-9)/(2m n^2), brute-forced
            # far past the n = 36 that already settles the minimum
            values = {n: g - Fraction(g * (2 * n - 9), 2 * m * n * n) for n in range(2, 201)}
            n = min(values, key=values.get)
            assert n == 9, (g, m)
            assert values[n] == g * (1 - Fraction(1, 18 * m)), (g, m)
            assert low_base_speed(g, m) == values[n], (g, m)
    _pass(8, "the base-change bound is minimized at n = 9 with value "
             "g(1 - 1/(18m)) for g in 2..50, m in 1..5")


# ---------------------------------------------------------------------------
# criterion 9: the non-hyperelliptic speed clauses

def test_criterion_09_nonhyperelliptic_speed_clauses():
    for g in range(3, 42):
        value = nonhyp_speed(g)
        assert value == Fraction(2 * (2 * g - 2)) / nonhyp_slope(g), g
        if g == 3:
            assert value == Fraction(8, 3)
        elif g == 4:
            assert value == Fraction(7, 2)
        elif g == 5:
            assert value == 4
        elif g <= 12:
            assert value == Fraction(8 * g + 4, 9), g
        else:
            assert value == g - 1, g
    _pass(9, "nonhyp_speed reproduces 8/3, 7/2, 4, (8g+4)/9 and g-1 on "
             "their exact genus ranges")


# ---------------------------------------------------------------------------
# criterion 10: the three embedded branch data

def test_criterion_10_branch_data_compatible_and_realizable():
    cases = [
        (BranchDatum(1, 0, 3, 4, ((4,), (4,), (2, 2))), 1),
        (BranchDatum(1, 0, 3, 3, ((3,), (3,), (3,))), 1),
    ]
    for g in range(4, 41, 2):
        cases.append((BranchDatum(
            g, 0, 3, 2 * g + 2, ((g + 1, g + 1), (2 * g + 2,),
                                 (2 * g + 2,))), g))
    for b, expected_genus in cases:
        assert is_compatible(b), b
        assert solve_source_genus(b.g_target, b.m, b.d,
                                  b.partitions) == expected_genus, b
        assert is_realizable(b) is REALIZABLE, b
    _pass(10, "all three embedded branch data are compatible and realizable "
              "with source genera 1, 1 and g")


# ---------------------------------------------------------------------------
# criterion 11: the semi-stability check on the two quartic germs

def test_criterion_11_semistable_check_on_quartic_germs():
    failing = GenusGDatum(g=6, g_C=1, e=0, n=4, critical_fibers=(
        CriticalFiber("b^-1(0)", ("y^7 - z^4",)),))
    verdict = invariants(failing).semistable
    assert not verdict.passed
    assert any("E6" in reason for reason in verdict.failures)

    passing = GenusGDatum(g=8, g_C=1, e=0, n=4, critical_fibers=(
        CriticalFiber("b^-1(0)", ("y^9 - z^4",)),))
    assert invariants(passing).semistable.passed
    _pass(11, "semistable check fails on y^7 - z^4 (E6 residue) and passes "
              "on y^9 - z^4")


# ---------------------------------------------------------------------------
# criterion 12: the speed depends on the critical fiber count

def test_criterion_12_speed_depends_on_fiber_count():
    base = FibrationInvariants(g=3, g_C=0, s=27, chi=3, omega_sq=8, delta=28)
    assert speed(base) == Fraction(6, 25)
    moved = FibrationInvariants(g=3, g_C=0, s=26, chi=3, omega_sq=8, delta=28)
    assert speed(moved) != speed(base)
    assert speed(moved) == Fraction(1, 4)
    _pass(12, "speed(chi = 3, g_C = 0, s = 27) = 6/25 and moving s alone "
              "moves the speed")

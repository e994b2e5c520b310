"""Slope and speed bounds and table emitters."""

import importlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import fibrato
from fibrato.bounds import (
    PreconditionViolated,
    arakelov_speed,
    decimal3,
    hn_castelnuovo_slope,
    low_base_speed,
    low_base_speed_at,
    minimal_m,
    nonhyp_slope,
    nonhyp_speed,
    optimal_base_change,
    render_csv,
    render_markdown,
    slope_lower,
    slope_upper,
    table,
    teich_max,
)


# ---------------------------------------------------------------------------
# package surface

@pytest.mark.parametrize("name", ["bounds", "fibration", "germs", "hurwitz", "oracle"])
def test_all_lists_exactly_the_public_definitions(name):
    # every __all__ entry exists, and every public function and class the
    # module defines is listed: a half-done deletion fails here
    module = importlib.import_module(f"fibrato.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []


# ---------------------------------------------------------------------------
# slope and speed bounds

def test_bounds_imports_no_other_fibrato_module():
    # bounds is the bottom of the import graph: every other module may call it
    src = os.path.dirname(os.path.dirname(fibrato.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, fibrato.bounds; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'fibrato'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["fibrato", "fibrato.bounds"]


def test_slope_bounds():
    assert slope_lower(2) == 2
    assert slope_lower(3) == Fraction(8, 3)
    assert slope_upper() == 12
    for g in range(2, 51):
        assert slope_lower(g) < slope_upper()


def test_nonhyp_slope_clauses():
    assert nonhyp_slope(3) == 3
    assert nonhyp_slope(4) == Fraction(24, 7)
    assert nonhyp_slope(5) == 4
    assert nonhyp_slope(6) == Fraction(45, 13)
    assert nonhyp_slope(12) == Fraction(99, 25)
    assert nonhyp_slope(13) == 4
    assert nonhyp_slope(40) == 4
    for g in range(3, 51):
        assert nonhyp_slope(g) > slope_lower(g)


def test_clause_consistency_at_six():
    # at g = 6 the Castelnuovo route stays strictly above the slope inequality
    assert slope_lower(6) == Fraction(10, 3)
    assert hn_castelnuovo_slope(6) == Fraction(45, 13) > Fraction(10, 3)


def test_domain_errors():
    with pytest.raises(PreconditionViolated):
        nonhyp_slope(2)
    with pytest.raises(PreconditionViolated):
        hn_castelnuovo_slope(13)
    with pytest.raises(PreconditionViolated):
        low_base_speed(2, 0)


def test_nonhyp_speed_frozen_values():
    assert nonhyp_speed(3) == Fraction(8, 3)
    assert nonhyp_speed(4) == Fraction(7, 2)
    assert nonhyp_speed(5) == 4
    assert nonhyp_speed(6) == Fraction(52, 9)
    assert nonhyp_speed(7) == Fraction(20, 3)
    assert nonhyp_speed(12) == Fraction(100, 9)
    assert nonhyp_speed(13) == 12
    assert nonhyp_speed(41) == 40


def test_nonhyp_speed_piecewise_identity():
    for g in range(3, 42):
        expected = Fraction(2 * (2 * g - 2)) / nonhyp_slope(g)
        assert nonhyp_speed(g) == expected
        if 6 <= g <= 12:
            assert nonhyp_speed(g) == Fraction(8 * g + 4, 9)
        if g >= 13:
            assert nonhyp_speed(g) == g - 1


def test_low_base_speed():
    assert low_base_speed(2, 1) == Fraction(17, 9)
    assert low_base_speed(5, 2) == Fraction(175, 36)
    assert low_base_speed(8, 1) == Fraction(68, 9)


def test_optimal_base_change_is_nine():
    for g in range(2, 51):
        for m in range(1, 6):
            n, value = optimal_base_change(g, m)
            assert n == 9
            assert value == low_base_speed(g, m)
            # neighbours are strictly worse
            assert low_base_speed_at(g, m, 8) > value
            assert low_base_speed_at(g, m, 10) > value


def test_minimal_m():
    assert minimal_m(0, 5) == 1
    assert minimal_m(1, 7) == 1
    assert minimal_m(2, 2) == 2
    assert minimal_m(2, 1) == 3
    with pytest.raises(PreconditionViolated):
        minimal_m(0, 1)
    with pytest.raises(PreconditionViolated):
        minimal_m(1, 0)


def test_teichmueller_constants():
    for g in range(2, 51):
        assert teich_max(g) == Fraction(g + 1, 2)
        assert teich_max(g) < arakelov_speed(g)


# ---------------------------------------------------------------------------
# rendering

def test_decimal3():
    assert decimal3(Fraction(17, 9)) == "1.889"
    assert decimal3(Fraction(7, 2)) == "3.5"
    assert decimal3(Fraction(4)) == "4"
    assert decimal3(Fraction(30, 7)) == "4.286"
    assert decimal3(Fraction(52, 9)) == "5.778"
    assert decimal3(Fraction(1, 400)) == "0.003"  # exact half rounds up
    assert decimal3(Fraction(8, 5)) == "1.6"
    assert decimal3(Fraction(-17, 9)) == "-1.889"
    assert decimal3(Fraction(-1, 2000)) == "-0.001"  # a negative half rounds away from zero
    assert decimal3(Fraction(-1, 3000)) == "0"  # not "-0"


TABLE1_ROWS = {
    "g_C <= 1 (m = 1)": ["1.889", "2.833", "3.778", "4.722", "5.667", "6.611", "7.556"],
    "g_C = 2 (m = 2)": ["1.944", "2.917", "3.889", "4.861", "5.833", "6.806", "7.778"],
}
TABLE2 = ["2.667", "3.5", "4", "5.778", "6.667", "7.556", "8.444", "9.333", "10.222"]
TABLE3 = ["1.6", "2.667", "3.2", "4", "4.286", "5", "6", "7"]


def test_table1_golden():
    t = table(1)
    assert t.genera == tuple(range(2, 9))
    for row in t.rows:
        assert [c[1] for c in row.cells] == TABLE1_ROWS[row.label]


def test_table2_golden():
    t = table(2)
    assert t.genera == tuple(range(3, 12))
    assert [c[1] for c in t.rows[0].cells] == TABLE2


def test_table3_golden():
    t = table(3)
    assert t.genera == tuple(range(2, 10))
    assert [c[1] for c in t.rows[0].cells] == TABLE3


def test_renderers():
    t = table(1)
    md = render_markdown(t)
    assert "| 1.889 |" in md and md.count("|") > 10
    csv = render_csv(t)
    assert csv.splitlines()[0] == "table,row,g,exact,decimal"
    assert "1,g_C <= 1 (m = 1),2,17/9,1.889" in csv
    with pytest.raises(ValueError):
        table(4)

"""Branch data: compatibility, genus solving, realizability."""

import pytest
from hypothesis import given, settings, strategies as st

from fibrato.hurwitz import (
    REALIZABLE,
    UNKNOWN,
    BranchDatum,
    IncompatibleDatum,
    is_compatible,
    is_realizable,
    ramification_genus,
    solve_source_genus,
)
from fibrato.jsonio import branch_datum_from_json, branch_datum_to_json


def test_validation():
    with pytest.raises(ValueError):
        BranchDatum(0, 0, 2, 4, ((4,), (3,)))  # wrong sum
    with pytest.raises(ValueError):
        BranchDatum(0, 0, 1, 4, ((4,), (4,)))  # m mismatch
    with pytest.raises(ValueError):
        BranchDatum(0, 0, 1, 1, ((1,),))  # degree too small
    with pytest.raises(ValueError):
        BranchDatum(-1, 0, 0, 2, ())


def test_total_parts():
    b = BranchDatum(1, 0, 3, 4, ((4,), (4,), (2, 2)))
    assert b.total_parts == 4


def test_compatibility_examples():
    assert is_compatible(BranchDatum(1, 0, 3, 4, ((4,), (4,), (2, 2))))
    for g in range(4, 41, 2):
        b = BranchDatum(g, 0, 3, 2 * g + 2, ((g + 1, g + 1), (2 * g + 2,), (2 * g + 2,)))
        assert is_compatible(b)
    assert is_compatible(BranchDatum(1, 1, 0, 2, ()))
    assert not is_compatible(BranchDatum(0, 0, 3, 3, ((3,), (3,), (3,))))


def test_compatibility_needs_source_genus():
    with pytest.raises(ValueError):
        is_compatible(BranchDatum(None, 0, 3, 4, ((4,), (4,), (2, 2))))


def test_solve_source_genus_examples():
    assert solve_source_genus(0, 3, 3, ((3,), (3,), (3,))) == 1
    assert solve_source_genus(0, 3, 5, ((5,), (5,), (5,))) == 2
    assert solve_source_genus(0, 2, 4, ((4,), (4,))) == 0
    assert solve_source_genus(0, 3, 4, ((4,), (4,), (2, 2))) == 1
    for g in range(4, 41, 2):
        got = solve_source_genus(
            0, 3, 2 * g + 2, ((g + 1, g + 1), (2 * g + 2,), (2 * g + 2,)))
        assert got == g


def test_solve_errors():
    with pytest.raises(IncompatibleDatum, match=r"^m\*d - parts = 1 is odd$"):
        solve_source_genus(0, 2, 2, ((2,), (1, 1)))
    with pytest.raises(IncompatibleDatum, match="^solved genus -1 is negative$"):
        solve_source_genus(0, 0, 2, ())


def test_realizability():
    assert is_realizable(BranchDatum(1, 0, 3, 4, ((4,), (4,), (2, 2)))) == REALIZABLE
    g = 6
    b = BranchDatum(g, 0, 3, 2 * g + 2, ((2 * g + 2,), (2 * g + 2,), (g + 1, g + 1)))
    assert is_realizable(b) == REALIZABLE
    # no fully cyclic branch point over a torus: criterion inapplicable
    assert is_realizable(BranchDatum(1, 1, 0, 2, ())) == UNKNOWN
    assert is_realizable(BranchDatum(2, 1, 2, 2, ((2,), (2,)))) == UNKNOWN
    with pytest.raises(IncompatibleDatum, match="only defined for compatible data"):
        is_realizable(BranchDatum(0, 0, 3, 3, ((3,), (3,), (3,))))


def test_ramification_genus_errors():
    with pytest.raises(IncompatibleDatum,
                       match="^total ramification 1 has the wrong parity$"):
        ramification_genus(0, 3, ((2, 1),))
    with pytest.raises(IncompatibleDatum, match="^summation genus -1 is negative$"):
        ramification_genus(0, 2, ())


def test_ramification_genus_matches_solver():
    cases = [
        (0, 3, 3, ((3,), (3,), (3,))),
        (0, 3, 5, ((5,), (5,), (5,))),
        (0, 2, 4, ((4,), (4,))),
        (0, 3, 4, ((4,), (4,), (2, 2))),
        (1, 2, 3, ((2, 1), (2, 1))),
    ]
    for g_t, m, d, parts in cases:
        assert solve_source_genus(g_t, m, d, parts) == ramification_genus(g_t, d, parts)


def test_total_ramification_formula():
    # one full-degree part per branch point: classical total-ramification count
    for g_t in (0, 1):
        for d in (2, 3, 5):
            for m in (2, 3, 4):
                parts = tuple((d,) for _ in range(m))
                try:
                    solved = solve_source_genus(g_t, m, d, parts)
                except IncompatibleDatum:
                    continue
                assert solved == 1 + d * (g_t - 1) + (m * (d - 1)) // 2


@st.composite
def partitions_of(draw, d):
    parts = []
    left = d
    while left > 0:
        p = draw(st.integers(1, left))
        parts.append(p)
        left -= p
    return tuple(sorted(parts, reverse=True))


@st.composite
def data(draw):
    d = draw(st.integers(2, 8))
    m = draw(st.integers(0, 4))
    g_t = draw(st.integers(0, 2))
    parts = tuple(draw(partitions_of(d)) for _ in range(m))
    return g_t, m, d, parts


@settings(max_examples=120, deadline=None)
@given(data())
def test_solved_genus_round_trips(datum):
    g_t, m, d, parts = datum
    try:
        g = solve_source_genus(g_t, m, d, parts)
    except IncompatibleDatum:
        return
    assert is_compatible(BranchDatum(g, g_t, m, d, parts))
    assert not is_compatible(BranchDatum(g + 1, g_t, m, d, parts))
    assert g == ramification_genus(g_t, d, parts)


def test_json_round_trip():
    b = BranchDatum(1, 0, 3, 4, ((4,), (4,), (2, 2)))
    payload = branch_datum_to_json(b)
    assert payload["partitions"] == [[4], [4], [2, 2]]
    assert payload["schema_version"] == 1
    assert branch_datum_from_json(payload) == b
    payload.pop("g_source")
    assert branch_datum_from_json(payload).g_source is None
    payload["schema_version"] = 2
    with pytest.raises(ValueError):
        branch_datum_from_json(payload)

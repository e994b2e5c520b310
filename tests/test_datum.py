"""Tests for datum assembly, validation, invariants, and semi-stability."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrato import datum as datum_mod
from fibrato.bounds import PreconditionViolated
from fibrato.constructions import FAMILY_NAMES, family
from fibrato.datum import (
    CriticalFiber,
    GenusGDatum,
    InvalidDatum,
    invariants,
    validate,
)
from fibrato.fibration import NonHyperbolicBase, audit
from fibrato.jsonio import datum_from_json, datum_to_json
from fibrato.germs import (DEFAULT_MAX_DEPTH, DepthOverflow, GermSyntaxError,
                           RequiresAlgebraicExtension, even_resolve, parse_germ)


def _marker(label="F"):
    return CriticalFiber(label, (), negligible_marker=True)


ODD3 = GenusGDatum(
    g=3,
    g_C=1,
    e=0,
    n=4,
    critical_fibers=(
        CriticalFiber("b^-1(0)", ("y^4 - z^4",) * 2),
        CriticalFiber("b^-1(1)", ("y^2 - z^4",) * 4),
        CriticalFiber("b^-1(inf_1)", ("y^2 - z^2",) * 4),
        CriticalFiber("b^-1(inf_2)", ("y^2 - z^2",) * 4),
    ),
)

EVEN4 = GenusGDatum(
    g=4,
    g_C=4,
    e=0,
    n=10,
    critical_fibers=(
        CriticalFiber("b^-1(0)", ("y^5 - z^5",) * 2),
        CriticalFiber("b^-1(0')", ("y^5 - z^5",) * 2),
        CriticalFiber("b^-1(1)", ("y^2 - z^10",) * 5),
        CriticalFiber("b^-1(inf)", ("y^2 - z^10",) * 5),
    ),
)

G2 = GenusGDatum(
    g=2,
    g_C=2,
    e=0,
    n=6,
    critical_fibers=(
        CriticalFiber("b^-1(0)", ("z*(y^3 - z^5)",) * 2),
        CriticalFiber("b^-1(1)", ("y^2 - z^5",) * 3),
        CriticalFiber("b^-1(inf)", ("y^2 - z^5",) * 3),
    ),
)


def _odd_datum(g):
    assert g % 2 == 1
    return GenusGDatum(
        g=g,
        g_C=1,
        e=0,
        n=4,
        critical_fibers=(
            CriticalFiber("b^-1(0)", (f"y^{g + 1} - z^4",) * 2),
            CriticalFiber("b^-1(1)", ("y^2 - z^4",) * (g + 1)),
            CriticalFiber("b^-1(inf_1)", ("y^2 - z^2",) * (g + 1)),
            CriticalFiber("b^-1(inf_2)", ("y^2 - z^2",) * (g + 1)),
        ),
    )


# ---------------------------------------------------------------------------
# construction and validation


def test_critical_fiber_parses_string_germs():
    fib = CriticalFiber("F", ("y^2 - z^3",))
    assert fib.germs[0] == parse_germ("y^2 - z^3")


def test_datum_basic_type_checks():
    with pytest.raises(ValueError):
        GenusGDatum(g=1, g_C=0, e=0, n=4, critical_fibers=(_marker(),))
    with pytest.raises(ValueError):
        GenusGDatum(g=3, g_C=-1, e=0, n=4, critical_fibers=(_marker(),))
    with pytest.raises(ValueError):
        GenusGDatum(g=3, g_C=0, e=0, n=4, critical_fibers=(_marker(),), declared_m=-1)
    with pytest.raises(TypeError, match=r"^n must be an integer, got 4\.0$"):
        GenusGDatum(g=3, g_C=0, e=0, n=4.0, critical_fibers=(_marker(),))
    with pytest.raises(TypeError, match="^critical fibers must be CriticalFiber, got str$"):
        GenusGDatum(3, 1, 0, 4, ("y^2 - z^2",))

    class Three:  # an integer by __index__ alone, as every record reads it
        def __index__(self):
            return 3

    datum = GenusGDatum(g=Three(), g_C=0, e=0, n=4, critical_fibers=(_marker(),))
    assert type(datum.g) is int and datum.g == 3


def test_validate_accepts_basic_datum():
    assert validate(GenusGDatum(g=3, g_C=1, e=0, n=4, critical_fibers=(_marker(),))) == []


def test_validate_e1_n4_is_admissible():
    # (g+1)e + n = 8 even and e = 1 sits exactly at the bound n/(g+1) = 1.
    assert validate(GenusGDatum(g=3, g_C=1, e=1, n=4, critical_fibers=(_marker(),))) == []


def test_validate_parity_violation():
    bad = GenusGDatum(g=3, g_C=1, e=1, n=3, critical_fibers=(_marker(),))
    assert any("odd" in v for v in validate(bad))


def test_validate_e_bound_violation():
    bad = GenusGDatum(g=3, g_C=1, e=2, n=4, critical_fibers=(_marker(),))
    msgs = validate(bad)
    assert any("n/(g+1)" in v for v in msgs)


def test_validate_e_below_minus_base_genus():
    # e >= -g_C on a ruled surface over a genus-g_C curve (Nagata), e >= 0
    # over P^1
    bad = GenusGDatum(g=3, g_C=0, e=-4, n=2,
                      critical_fibers=(CriticalFiber("a", ("y^2 - z^4",)),))
    assert validate(bad) == ["e = -4 is below -g_C = 0"]


def test_validate_e_at_minus_base_genus_is_admissible():
    assert validate(GenusGDatum(g=3, g_C=1, e=-1, n=4, critical_fibers=(_marker(),))) == []


def test_validate_c0_in_branch_relaxes_e_bound():
    base = dict(g=3, g_C=1, e=2, n=6, critical_fibers=(_marker(),))
    assert validate(GenusGDatum(**base, c0_in_branch=True)) == []
    assert any("n/(g+1)" in v for v in validate(GenusGDatum(**base)))


def test_validate_requires_a_critical_fiber():
    empty = GenusGDatum(g=3, g_C=1, e=0, n=4, critical_fibers=())
    assert any("s = 0" in v for v in validate(empty))


def test_validate_requires_singular_germ_or_marker():
    smooth_only = GenusGDatum(
        g=3, g_C=1, e=0, n=4, critical_fibers=(CriticalFiber("F", ("y - z",)),)
    )
    assert any("multiplicity" in v for v in validate(smooth_only))
    marked = GenusGDatum(
        g=3, g_C=1, e=0, n=4,
        critical_fibers=(CriticalFiber("F", ("y - z",), negligible_marker=True),),
    )
    assert validate(marked) == []


def test_invariants_rejects_invalid_datum():
    empty = GenusGDatum(g=3, g_C=1, e=0, n=4, critical_fibers=())
    with pytest.raises(InvalidDatum) as caught:
        invariants(empty)
    assert caught.value.violations == validate(empty)
    assert str(caught.value) == "invalid datum: no critical fibers declared (s = 0)"


# ---------------------------------------------------------------------------
# invariants of the three worked data


def test_odd_genus3_datum_invariants():
    rep = invariants(ODD3)
    inv = rep.invariants
    assert inv.chi == 4
    assert inv.omega_sq == 12
    assert inv.delta == 36
    assert rep.slope == 3
    assert rep.speed == 2
    assert rep.sum_k_km1 == 4
    assert rep.sum_km1_sq == 2
    assert rep.semistable.passed
    assert inv.semistable and inv.hyperelliptic


def test_even_genus4_datum_invariants():
    rep = invariants(EVEN4)
    inv = rep.invariants
    assert inv.chi == 16
    assert inv.omega_sq == 52
    assert rep.slope == Fraction(13, 4)
    assert rep.speed == Fraction(16, 5)
    assert rep.semistable.passed


def test_genus2_datum_invariants():
    rep = invariants(G2)
    inv = rep.invariants
    assert inv.chi == 4
    assert inv.omega_sq == 8
    assert inv.delta == 40
    assert rep.slope == 2
    assert rep.speed == Fraction(8, 5)
    assert rep.semistable.passed


def test_trace_summaries_cover_every_germ():
    rep = invariants(ODD3)
    assert len(rep.traces) == 2 + 4 + 4 + 4
    by_label = {}
    for summary in rep.traces:
        by_label.setdefault(summary.fiber_label, []).append(summary)
    assert [t.classification for t in by_label["b^-1(0)"]] == ["NonNegligible"] * 2
    assert [t.classification for t in by_label["b^-1(1)"]] == ["A3"] * 4
    assert [t.classification for t in by_label["b^-1(inf_1)"]] == ["A1"] * 4
    assert by_label["b^-1(0)"][0].multiplicities == (4,)
    assert by_label["b^-1(1)"][0].multiplicities == (2, 2)


def test_speed_requires_hyperbolic_base():
    d = GenusGDatum(
        g=3, g_C=0, e=0, n=4,
        critical_fibers=(CriticalFiber("F", ("y^2 - z^4",)),),
    )
    with pytest.raises(NonHyperbolicBase):
        invariants(d)


def test_depth_cap_propagates():
    with pytest.raises(DepthOverflow):
        invariants(ODD3, max_depth=0)


def test_chi_zero_leaves_slope_undefined():
    d = GenusGDatum(
        g=2, g_C=1, e=0, n=2,
        critical_fibers=(CriticalFiber("c", ("y^4 - z^4",) * 2), _marker("m")),
    )
    rep = invariants(d)
    assert rep.invariants.chi == 0
    assert rep.slope is None
    assert rep.speed == 0


# ---------------------------------------------------------------------------
# semi-stability check


def _single_germ_datum(g, germ_text, g_C=1):
    return GenusGDatum(
        g=g, g_C=g_C, e=0, n=4,
        critical_fibers=(CriticalFiber("F", (germ_text,)),),
    )


def test_semistable_fails_on_e6_residual():
    d = _single_germ_datum(6, "y^7 - z^4")
    rep = invariants(d)
    verdict = rep.semistable
    assert not verdict.passed
    assert any("E6" in f and "y^7" in f for f in verdict.failures)
    assert not rep.invariants.semistable


def test_semistable_passes_on_g8_quartic_branch():
    d = _single_germ_datum(8, "y^9 - z^4")
    rep = invariants(d)
    verdict = rep.semistable
    assert verdict.passed and verdict.failures == ()
    assert rep.invariants.semistable


def test_semistable_fails_on_d4_cluster():
    d = GenusGDatum(
        g=2, g_C=1, e=0, n=2,
        critical_fibers=(CriticalFiber("F", ("z*(y^2 + z^2)",)),),
    )
    verdict = invariants(d).semistable
    assert not verdict.passed
    assert any("D4" in f for f in verdict.failures)


def test_semistable_fails_on_declared_nonsimple_ramification():
    d = GenusGDatum(
        g=3, g_C=1, e=0, n=4,
        critical_fibers=ODD3.critical_fibers,
        simple_ramification=False,
    )
    verdict = invariants(d).semistable
    assert not verdict.passed
    assert "declared non-simple ramification" in verdict.failures


def test_verdict_is_truthy_on_pass():
    rep = invariants(ODD3)
    assert rep.semistable.passed is True


# ---------------------------------------------------------------------------
# spec-level properties


@pytest.mark.parametrize("datum", [ODD3, EVEN4, G2], ids=["odd-g3", "even-g4", "genus-2"])
def test_noether_and_strict_audits_pass(datum):
    rep = invariants(datum)
    inv = rep.invariants
    assert inv.delta == 12 * inv.chi - inv.omega_sq
    report = audit(inv)
    assert report.passed, report.failures
    by_name = {c.check: c for c in report.checks}
    assert by_name["noether-identity"].status == "pass"
    assert by_name["arakelov-speed"].status == "pass"
    assert by_name["canonical-class"].status == "pass"


@settings(deadline=None, max_examples=40)
@given(m=st.integers(min_value=1, max_value=12), count=st.integers(min_value=1, max_value=3))
def test_negligible_germs_leave_chi_and_omega_fixed(m, count):
    base = invariants(ODD3)
    extra = CriticalFiber("extra", tuple(f"y^2 - z^{m + 1}" for _ in range(count)))
    padded = GenusGDatum(
        g=3, g_C=1, e=0, n=4, critical_fibers=ODD3.critical_fibers + (extra,)
    )
    rep = invariants(padded)
    assert rep.invariants.chi == base.invariants.chi
    assert rep.invariants.omega_sq == base.invariants.omega_sq
    assert rep.semistable.passed


def test_odd_genus_chi_and_speed_laws():
    for g in range(3, 42, 2):
        rep = invariants(_odd_datum(g))
        k = (g + 1) // 4
        assert rep.invariants.chi == 2 * g - 2 * k, g
        assert rep.speed == g - k, g
        assert rep.semistable.passed, g


# ---------------------------------------------------------------------------
# process-wide memos


MEMOS = (datum_mod._parsed, datum_mod._resolved)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _fingerprint(rep):
    inv = rep.invariants
    return (
        inv.chi, inv.omega_sq, inv.delta, rep.slope, rep.speed,
        rep.sum_k_km1, rep.sum_km1_sq,
        [(s.fiber_label, str(s.germ), s.multiplicities, s.classification,
          s.trace.sum_k_km1, s.trace.sum_km1_sq) for s in rep.traces],
        rep.semistable.passed, rep.semistable.failures,
    )


def _family_data():
    data = []
    for name in FAMILY_NAMES:
        for g in range(2, 42):
            try:
                data.append(family(name, g).datum)
            except PreconditionViolated:
                pass
    return data


def _search_data():
    """The data `constructions.search(6, 16, 8, 8)` sweeps, given as germ
    strings, so every run is parsed through the memo."""
    markers = tuple(_marker(f"marker_{i}") for i in range(1, 4))
    return [
        GenusGDatum(g=6, g_C=1, e=0, n=n, critical_fibers=(
            CriticalFiber("candidate", (f"y^{a} - z^{b}",) * 2),) + markers)
        for n in range(2, 17, 2) for a in range(2, 9) for b in range(2, 9)
    ]


def _offending_data():
    """D/E offences of several germs after the ramification failure."""
    return [GenusGDatum(g=6, g_C=1, e=0, n=4, simple_ramification=False, critical_fibers=(
        CriticalFiber("a", ("y^7 - z^4", "y^2 - z^3", "z*(y^2 - z^3)")),
        CriticalFiber("b", ("y^3 - z^4", "y^7 - z^4"))))]


def test_memo_gives_the_same_reports_warm_and_cleared():
    def cold(build):
        _clear_memos()
        out = []
        for d in build():
            _clear_memos()
            out.append(_fingerprint(invariants(d)))
        return out

    def warm(build):
        for d in build():
            invariants(d)
        return [_fingerprint(invariants(d)) for d in build()]

    assert len(_family_data()) == 66
    for build in (_family_data, _search_data, _offending_data):
        assert warm(build) == cold(build)
    for d in _family_data() + _search_data():
        shared = {}  # the report's trace of each germ
        for s in invariants(d).traces:
            assert shared.setdefault(s.germ, s.trace) is s.trace, (d, str(s.germ))
            new = even_resolve(s.germ, DEFAULT_MAX_DEPTH)
            assert (s.multiplicities, s.classification, s.trace.sum_k_km1,
                    s.trace.sum_km1_sq) == (
                tuple(new.multiplicities()), new.classification, new.sum_k_km1,
                new.sum_km1_sq), (d, str(s.germ))
    assert 0 in [rep[0] for rep in warm(_search_data)]  # chi = 0 gives a report
    failures = warm(_offending_data)[0][-1]
    assert failures[0] == "declared non-simple ramification"
    assert [f.split(";")[0] for f in failures[1:]] == [
        "germ y^7 - z^4 has a residual singularity of type E6",
        "germ y^2*z - z^4 has a residual singularity of type D5",
        "germ y^3 - z^4 has a residual singularity of type E6",
        "germ y^7 - z^4 has a residual singularity of type E6",
    ]


def test_memo_keeps_each_depth_cap():
    deep = GenusGDatum(g=2, g_C=1, e=0, n=40, critical_fibers=(
        CriticalFiber("F", ("y^2 - z^40",)),))
    assert invariants(deep, max_depth=19).traces[0].classification == "A39"
    with pytest.raises(DepthOverflow):
        invariants(deep, max_depth=18)
    assert invariants(deep, max_depth=19).traces[0].classification == "A39"


@pytest.mark.parametrize("germ, max_depth, error", [
    ("y^2 - z^12", 2, DepthOverflow),
    ("z^4 - 4*y^2*z^2 + 4*y^4 + y^5*z^2 - 2*y^7", 64, RequiresAlgebraicExtension),
])
def test_failed_resolution_leaves_no_memo_entry(germ, max_depth, error):
    _clear_memos()
    d = _single_germ_datum(3, germ)
    for _ in range(2):
        with pytest.raises(error):
            invariants(d, max_depth=max_depth)
        assert datum_mod._resolved.cache_info().currsize == 0
    assert datum_mod._parsed.cache_info().currsize == 1


def test_failed_parse_leaves_no_memo_entry():
    _clear_memos()
    for text in ("y^^2", "0", "(" * 2000 + "y" + ")" * 2000):
        with pytest.raises(GermSyntaxError):
            CriticalFiber("F", (text,))
        assert datum_mod._parsed.cache_info().currsize == 0


def test_memos_keep_every_entry():
    for memo in MEMOS:
        assert memo.cache_info().maxsize is None


# ---------------------------------------------------------------------------
# JSON round trip


def test_json_round_trip():
    for d in (ODD3, EVEN4, G2):
        assert datum_from_json(datum_to_json(d)) == d


def test_json_round_trip_with_marker_and_flags():
    d = GenusGDatum(
        g=3, g_C=0, e=1, n=4,
        critical_fibers=(
            CriticalFiber("a", ("y^2 - z^3",)),
            _marker("b"),
        ),
        declared_m=2,
        simple_ramification=False,
        c0_in_branch=True,
    )
    obj = datum_to_json(d)
    assert obj["schema_version"] == 1
    assert obj["critical_fibers"][1] == {"label": "b", "germs": [], "negligible": True}
    assert datum_from_json(obj) == d


def test_json_missing_field_rejected():
    obj = datum_to_json(ODD3)
    del obj["n"]
    with pytest.raises(ValueError):
        datum_from_json(obj)


def test_json_wrong_schema_version_rejected():
    obj = datum_to_json(ODD3)
    obj["schema_version"] = 2
    with pytest.raises(ValueError):
        datum_from_json(obj)


def test_json_without_schema_version_assumed_current():
    obj = datum_to_json(ODD3)
    del obj["schema_version"]
    assert datum_from_json(obj) == ODD3


# ---------------------------------------------------------------------------
# runs of equal germs against an entry-by-entry reference

# Spellings of a few germs, some of them of the same germ: an A3 node, E6 and
# D5 residues, a non-negligible quartic point and a smooth tail.
_SPELLINGS = ["y^2 - z^4", "y^2-z^4", "-z^4 + y^2", "y^7 - z^4", "y^3 - z^4",
              "z*(y^2 - z^3)", "y^2*z - z^4", "y^4 - z^4", "y^5 - z^4"]


@st.composite
def _fibers(draw):
    """Fibers of Germ and text entries drawn from a small pool, so that
    equal germs repeat next to each other and apart, as in [A, A, B, A]."""
    fibers = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 4)) == 0:
            fibers.append(_marker(f"m{i}"))
            continue
        entries = [parse_germ(text) if as_germ else text for text, as_germ in draw(
            st.lists(st.tuples(st.sampled_from(_SPELLINGS), st.booleans()), min_size=1,
                     max_size=12))]
        fibers.append((f"f{i}", entries))
    return fibers


def _entry_by_entry(d):
    """The sums, the (label, germ, classification, multiplicities) of each
    entry and the failures, one fresh resolution per entry."""
    total_k_km1 = total_km1_sq = 0
    entries = []
    failures = [] if d.simple_ramification else ["declared non-simple ramification"]
    for fib in d.critical_fibers:
        for germ in fib.germs:
            trace = even_resolve(germ, DEFAULT_MAX_DEPTH)
            total_k_km1 += trace.sum_k_km1
            total_km1_sq += trace.sum_km1_sq
            entries.append((fib.label, germ, trace.classification,
                            tuple(trace.multiplicities())))
            failures += [f"germ {germ} has a residual singularity of type {label}; "
                         "only type-A clusters keep the fibration semi-stable"
                         for label in trace.clusters() if label.startswith(("D", "E"))]
    return total_k_km1, total_km1_sq, entries, tuple(failures)


@settings(max_examples=120, deadline=None)
@given(_fibers(), st.booleans())
def test_counted_runs_match_the_entry_by_entry_reference(drawn, simple):
    fibers = []
    for fib in drawn:
        if isinstance(fib, CriticalFiber):
            fibers.append(fib)
            continue
        label, entries = fib
        germs = tuple(parse_germ(e) if isinstance(e, str) else e for e in entries)
        built = CriticalFiber(label, entries)
        assert built.germs == germs
        runs = built._runs
        assert all(count >= 1 for _, count in runs)
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))  # maximal
        assert tuple(germ for germ, count in runs for _ in range(count)) == germs
        twin = CriticalFiber(label, list(germs))
        assert built == twin and hash(built) == hash(twin) and repr(built) == repr(twin)
        assert repr(built) == f"CriticalFiber(label={label!r}, germs={germs!r}, " \
                              "negligible_marker=False)"
        fibers.append(built)
    d = GenusGDatum(g=6, g_C=1, e=0, n=4, critical_fibers=tuple(fibers),
                    simple_ramification=simple)
    assert validate(d) == []
    report = invariants(d)
    k_km1, km1_sq, entries, failures = _entry_by_entry(d)
    assert (report.sum_k_km1, report.sum_km1_sq) == (k_km1, km1_sq)
    assert [(s.fiber_label, s.germ, s.classification, s.multiplicities)
            for s in report.traces] == entries
    assert report.semistable.failures == failures
    assert report.semistable.passed == (not failures)

    doc = datum_to_json(d)
    again = datum_from_json(doc)
    assert again == d and hash(again) == hash(d)
    assert json.dumps(datum_to_json(again)) == json.dumps(doc)
    assert [f["germs"] for f in doc["critical_fibers"]] == [
        [str(germ) for germ in fib.germs] for fib in d.critical_fibers]


def test_fiber_from_runs_equals_the_fiber_of_its_entries():
    runs = [("y^2 - z^4", 3), ("y^2-z^4", 2), ("y^7 - z^4", 1), ("y^2 - z^4", 2)]
    fib = datum_mod._fiber_from_runs("F", runs)
    entries = [text for text, count in runs for _ in range(count)]
    assert fib == CriticalFiber("F", entries) and hash(fib) == hash(CriticalFiber("F", entries))
    assert fib._runs == ((parse_germ("y^2 - z^4"), 5), (parse_germ("y^7 - z^4"), 1),
                         (parse_germ("y^2 - z^4"), 2))
    with pytest.raises(TypeError, match="germ entries must be Germ or str, got int"):
        datum_mod._fiber_from_runs("F", [(5, 2)])
    with pytest.raises(TypeError, match="germ entries must be Germ or str, got NoneType"):
        CriticalFiber("F", ("y^2 - z^4", None))


def test_a_huge_run_is_never_spelled_out():
    # ten billion entries would take 80 GB as a tuple; the runs take two
    huge = 10 ** 10
    fib = datum_mod._fiber_from_runs("F", [("y^4 - z^4", 2), ("y^2 - z^4", huge)])
    d = GenusGDatum(g=5, g_C=1, e=0, n=4, critical_fibers=(fib,))
    assert validate(d) == []
    with pytest.raises(DepthOverflow):
        invariants(d, max_depth=0)

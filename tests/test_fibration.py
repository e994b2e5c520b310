"""Fibration invariants: slope, speed, Noether bookkeeping, and audits."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fibrato
from fibrato import fibration
from fibrato.datum import CriticalFiber, GenusGDatum, invariants
from fibrato.fibration import (
    AuditCheck,
    AuditReport,
    FiberNodeProfile,
    FibrationInvariants,
    NonHyperbolicBase,
    StableModelNodes,
    audit,
    fiber_delta,
    noether_delta,
    r_f,
    slope,
    speed,
)
from fibrato.germs import DepthOverflow, RequiresAlgebraicExtension
from fibrato.hurwitz import BranchDatum
from fibrato.jsonio import audit_input_from_json, audit_report_to_json


def _inv(g=3, g_C=0, s=5, chi=3, omega_sq=8, delta=28, **kw):
    return FibrationInvariants(g, g_C, s, Fraction(chi), Fraction(omega_sq), Fraction(delta), **kw)


# ---------------------------------------------------------------------------
# construction and basic quantities

def test_invariants_validation():
    with pytest.raises(ValueError):
        _inv(g=1)
    with pytest.raises(ValueError):
        _inv(g_C=-1)
    with pytest.raises(ValueError):
        _inv(s=-2)


def test_slope_examples():
    assert slope(_inv(chi=3, omega_sq=8)) == Fraction(8, 3)
    assert slope(_inv(g=4, chi=16, omega_sq=52, delta=140)) == Fraction(13, 4)
    assert slope(_inv(chi=1, omega_sq=0, delta=12)) == 0


def test_slope_isotrivial():
    with pytest.raises(ZeroDivisionError, match="slope undefined for chi = 0"):
        slope(_inv(chi=0, omega_sq=0, delta=0, s=0))


def test_speed_examples():
    assert speed(_inv(chi=3, g_C=0, s=5)) == 2
    assert speed(_inv(chi=3, g_C=0, s=27)) == Fraction(6, 25)
    assert speed(_inv(chi=4, g_C=1, s=3, omega_sq=11, delta=37)) == Fraction(8, 3)


def test_speed_changes_with_s_alone():
    base = _inv(chi=3, g_C=0, s=5)
    moved = _inv(chi=3, g_C=0, s=27)
    assert speed(base) != speed(moved)


def test_speed_non_hyperbolic():
    with pytest.raises(NonHyperbolicBase):
        speed(_inv(g_C=0, s=2))
    with pytest.raises(NonHyperbolicBase):
        speed(_inv(g_C=1, s=0))


def test_noether_delta():
    assert noether_delta(8, 3) == 28
    assert noether_delta(12, 1) == 0
    n, g = 4, 3
    omega = 8 - 4 * n + 8 * (g - 1)
    assert noether_delta(omega, g) == 4 + 4 * n + 4 * (g - 1)


def test_fiber_delta():
    assert fiber_delta(3, 3, 4) == 3
    assert fiber_delta(5, 0, 1) == 5
    assert fiber_delta(2, 0, 1) == 2
    assert (FiberNodeProfile(3, 3, 1, {}).is_compact_type
            and not FiberNodeProfile(3, 2, 1, {}).is_compact_type)
    with pytest.raises(ValueError):
        fiber_delta(3, 4, 1)
    with pytest.raises(ValueError):
        fiber_delta(3, 1, 0)


def test_stable_model_sums():
    nodes = StableModelNodes((0, 0, 1))
    assert r_f(nodes) == Fraction(5, 2)
    assert r_f(StableModelNodes(())) == 0
    with pytest.raises(ValueError):
        StableModelNodes((-1,))


# ---------------------------------------------------------------------------
# audits

def _by_name(report: AuditReport) -> dict:
    return {c.check: c for c in report.checks}


def test_audit_passes_reference_record():
    report = audit(_inv())
    assert report.passed
    checks = _by_name(report)
    assert checks["noether-identity"].status == "pass"
    assert checks["five-fibers"].status == "pass"
    assert checks["arakelov-speed"].strict


def test_audit_flags_forged_delta():
    report = audit(_inv(delta=40))
    checks = _by_name(report)
    assert checks["noether-identity"].status == "fail"
    assert not report.passed


def test_audit_slope_12_iff_smooth():
    # delta > 0 with s = 0 declared: Noether holds but the slope test fails
    rec = _inv(g_C=2, s=0, chi=2, omega_sq=16, delta=8)
    checks = _by_name(audit(rec))
    assert checks["noether-identity"].status == "pass"
    assert checks["slope-12-iff-smooth"].status == "fail"
    # smooth record with slope 12 passes it
    rec = _inv(g_C=2, s=0, chi=2, omega_sq=24, delta=0)
    assert _by_name(audit(rec))["slope-12-iff-smooth"].status == "pass"


def test_audit_slope_bounds():
    rec = _inv(g=3, g_C=2, s=1, chi=3, omega_sq=2, delta=34)
    checks = _by_name(audit(rec))
    assert checks["slope-lower"].status == "fail"  # 2/3 < 8/3
    rec = _inv(g=3, g_C=2, s=1, chi=1, omega_sq=13, delta=-1)
    checks = _by_name(audit(rec))
    assert checks["slope-upper"].status == "fail"


def test_audit_strict_equalities_fail():
    # speed exactly g
    rec = _inv(g=3, g_C=1, s=2, chi=3, omega_sq=5, delta=31)
    checks = _by_name(audit(rec))
    assert checks["arakelov-speed"].status == "fail"
    # omega_sq exactly at the canonical-class cap
    rec = _inv(g=3, g_C=1, s=1, chi=1, omega_sq=4, delta=8)
    checks = _by_name(audit(rec))
    assert checks["canonical-class"].status == "fail"


def test_audit_gating():
    checks = _by_name(audit(_inv(semistable=False)))
    assert checks["arakelov-speed"].status == "skipped"
    assert checks["canonical-class"].status == "skipped"
    checks = _by_name(audit(_inv(g_C=1, s=0, chi=0, omega_sq=0, delta=0)))
    assert checks["slope-lower"].status == "skipped"
    assert checks["arakelov-speed"].status == "skipped"
    checks = _by_name(audit(_inv(g_C=3, s=2)))
    assert checks["five-fibers"].status == "skipped"


def test_audit_five_fibers():
    rec = _inv(s=4, chi=1, omega_sq=2, delta=10)
    assert _by_name(audit(rec))["five-fibers"].status == "fail"


def test_audit_node_ratio():
    rec = _inv()
    nodes = StableModelNodes((0,) * 28)
    checks = _by_name(audit(rec, nodes=nodes))
    assert checks["node-ratio"].status == "pass"  # 28 <= (3g-3)s = 30
    nodes = StableModelNodes((0,) * 31)
    checks = _by_name(audit(rec, nodes=nodes))
    assert checks["node-ratio"].status == "fail"


def test_audit_fiber_profiles():
    good = FiberNodeProfile(3, 1, 2, {0: 2, 1: 1})
    bad = FiberNodeProfile(3, 1, 2, {0: 0, 1: 3})  # claims compact type at g_geo < g
    checks = _by_name(audit(_inv(), profiles=[good, bad]))
    assert checks["fiber-profile-0"].status == "pass"
    assert checks["fiber-profile-1"].status == "fail"


def test_audit_fails_a_profile_of_another_genus():
    # a singular fiber of a genus-6 fibration has arithmetic genus 6
    doc = {"schema_version": 1, "g": 6, "g_C": 0, "s": 6, "chi": "6", "omega_sq": "20",
           "delta": "52", "hyperelliptic": True,
           "profiles": [{"g": 2, "g_geo": 0, "l": 1, "delta_counts": {"0": 2}},
                        {"g": 6, "g_geo": 4, "l": 1, "delta_counts": {"0": 2}}]}
    report = audit(*audit_input_from_json(doc))
    checks = _by_name(report)
    assert checks["fiber-profile-0"].status == "fail"
    assert checks["fiber-profile-0"].note == "profile genus 2, record genus 6"
    assert checks["fiber-profile-1"].status == "pass"
    assert checks["fiber-profile-1"].note == ""
    assert not report.passed


@pytest.mark.parametrize("build", [
    lambda: BranchDatum(None, 0, 2, 2, ((2.9,), (2,))),
    lambda: BranchDatum(None, 0, 2, 2, (("2",), (2,))),
    lambda: BranchDatum(None, 0, 2.0, 2, ((2,), (2,))),
    lambda: StableModelNodes((1.7, "3")),
    lambda: FiberNodeProfile(3, 2.5, 1, {}),
    lambda: FiberNodeProfile(3, 2, 1, {0: 1.0}),
    lambda: FibrationInvariants(2.5, 0, 5, 1, 1, 11),
    lambda: FibrationInvariants(3, 0, 5.0, 1, 1, 11),
], ids=["branch-part-float", "branch-part-text", "branch-m-float", "nodes",
        "profile-g_geo", "profile-count", "record-g", "record-s"])
def test_records_reject_non_integers(build):
    with pytest.raises(TypeError):
        build()


class _Index:
    """An integer by ``__index__`` alone."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("record, fields, name", [
    (FibrationInvariants, dict(g=2, g_C=1, s=1, chi=1, omega_sq=2, delta=10), "s"),
    (FiberNodeProfile, dict(g=2, g_geo=1, l=1, delta_counts={0: 1}), "l"),
    (GenusGDatum, dict(g=2, g_C=1, e=0, n=2, critical_fibers=()), "n"),
    (BranchDatum, dict(g_source=1, g_target=0, m=3, d=4, partitions=((4,), (4,), (2, 2))),
     "d"),
], ids=["FibrationInvariants", "FiberNodeProfile", "GenusGDatum", "BranchDatum"])
def test_integer_fields_share_one_reader(record, fields, name):
    # every record reads its integer fields alike: one TypeError text, and
    # anything with __index__ stored as a plain int
    for bad in (2.5, "2"):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {bad!r}$"):
            record(**{**fields, name: bad})
    value = getattr(record(**{**fields, name: _Index(fields[name])}), name)
    assert type(value) is int and value == fields[name]


@pytest.mark.parametrize("name, build, entry", [
    ("partitions", lambda x: BranchDatum(None, 0, 2, 2, ((x,), (2,))),
     lambda r: r.partitions[0][0]),
    ("delta_counts", lambda x: FiberNodeProfile(3, 2, 1, {0: x}), lambda r: r.delta_counts[0]),
    ("node_indices", lambda x: StableModelNodes((x,)), lambda r: r.node_indices[0]),
], ids=["BranchDatum", "FiberNodeProfile", "StableModelNodes"])
def test_integer_entries_name_their_field(name, build, entry):
    # an entry that is not an integer is named with its field, as the
    # scalar fields are; an entry with __index__ is stored as a plain int
    for bad in (1.7, "1"):
        with pytest.raises(TypeError, match=f"^{name} must hold integers, got {bad!r}$"):
            build(bad)
    value = entry(build(_Index(2)))
    assert type(value) is int and value == 2


def test_profile_validation():
    with pytest.raises(ValueError):
        FiberNodeProfile(3, 4, 1, {})
    with pytest.raises(ValueError):
        FiberNodeProfile(3, 1, 0, {})
    with pytest.raises(ValueError):
        FiberNodeProfile(3, 1, 1, {2: 1})  # index above floor(g/2)


def test_report_json_shape():
    payload = audit_report_to_json(audit(_inv()))
    assert payload["schema_version"] == 1
    first = payload["checks"][0]
    assert set(first) >= {"check", "status", "lhs", "rhs", "strict"}
    assert first["check"] == "noether-identity"
    assert first["lhs"] == "28"
    lam = next(c for c in payload["checks"] if c["check"] == "slope-lower")
    assert lam["lhs"] == "8/3"


# ---------------------------------------------------------------------------
# quantified properties

@settings(max_examples=60, deadline=None)
@given(chi=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)))
def test_slope_12_records_are_smooth(chi):
    assert noether_delta(12 * chi, chi) == 0


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(2, 12),
    g_C=st.integers(1, 5),
    s=st.integers(1, 10),
    chi=st.integers(1, 40),
    omega=st.integers(1, 40),
    d=st.integers(1, 6),
)
def test_slope_and_speed_base_change_covariance(g, g_C, s, chi, omega, d):
    rec = FibrationInvariants(g, g_C, s, Fraction(chi), Fraction(omega),
                              noether_delta(omega, chi))
    scaled = FibrationInvariants(
        g, d * (g_C - 1) + 1, d * s, Fraction(d * chi), Fraction(d * omega),
        noether_delta(d * omega, d * chi))
    assert slope(scaled) == slope(rec)
    assert speed(scaled) == speed(rec)


# ---------------------------------------------------------------------------
# differential checks against the Fraction route
#
# audit() and datum.invariants() decide and build everything from integer
# numerators and denominators.  The oracles below are the earlier Fraction
# formulas, kept here verbatim as the independent route.

def _fraction_audit(inv, nodes=None, profiles=None):
    """audit() as computed with Fraction arithmetic throughout."""
    checks = []
    add = checks.append

    def status(ok):
        return "pass" if ok else "fail"

    forced = 12 * inv.chi - inv.omega_sq
    add(AuditCheck("noether-identity", status(inv.delta == forced), inv.delta, forced))

    if inv.chi > 0:
        lam = inv.omega_sq / inv.chi
        lower = Fraction(4 * (inv.g - 1), inv.g)
        add(AuditCheck("slope-lower", status(lower <= lam), lower, lam))
        add(AuditCheck("slope-upper", status(lam <= Fraction(12)), lam, Fraction(12)))
        add(AuditCheck("slope-12-iff-smooth", status((lam == 12) == (inv.s == 0)),
                       lam, Fraction(12), note=f"s = {inv.s}"))
    else:
        note = "chi = 0" if inv.chi == 0 else "chi < 0"
        for name in ("slope-lower", "slope-upper", "slope-12-iff-smooth"):
            add(AuditCheck(name, "skipped", note=note))

    denom = 2 * inv.g_C - 2 + inv.s
    if inv.semistable and denom > 0:
        spd = 2 * inv.chi / denom
        add(AuditCheck("arakelov-speed", status(spd < inv.g), spd, Fraction(inv.g), strict=True))
        bound = Fraction((2 * inv.g - 2) * denom)
        add(AuditCheck("canonical-class", status(inv.omega_sq < bound),
                       inv.omega_sq, bound, strict=True))
    else:
        note = "not semi-stable" if not inv.semistable else "non-hyperbolic base"
        add(AuditCheck("arakelov-speed", "skipped", strict=True, note=note))
        add(AuditCheck("canonical-class", "skipped", strict=True, note=note))

    if inv.g_C == 0 and inv.s > 0:
        add(AuditCheck("five-fibers", status(inv.s >= 5), Fraction(5), Fraction(inv.s)))
    else:
        add(AuditCheck("five-fibers", "skipped", note="applies over a rational base with s > 0"))

    if nodes is not None:
        cap = Fraction((3 * inv.g - 3) * inv.s)
        ratio = sum((Fraction(1, m + 1) for m in nodes.node_indices), Fraction(0))
        add(AuditCheck("node-ratio", status(ratio <= cap), ratio, cap))
    else:
        add(AuditCheck("node-ratio", "skipped", note="no stable-model nodes supplied"))

    if profiles:
        for idx, prof in enumerate(profiles):
            expected = prof.g - prof.g_geo + prof.l - 1
            ok = (prof.g == inv.g and prof.total_nodes == expected
                  and (prof.delta_counts.get(0, 0) == 0) == prof.is_compact_type)
            note = "" if prof.g == inv.g else f"profile genus {prof.g}, record genus {inv.g}"
            add(AuditCheck(f"fiber-profile-{idx}", status(ok),
                           Fraction(prof.total_nodes), Fraction(expected), note=note))
    else:
        add(AuditCheck("fiber-profile", "skipped", note="no fiber profiles supplied"))
    return checks


def _check_fields(check):
    return (check.check, check.status, check.lhs, check.rhs, check.strict, check.note,
            type(check.lhs), type(check.rhs))


_SMALL_RATIONALS = st.fractions(min_value=-60, max_value=60, max_denominator=6)


@st.composite
def _audit_inputs(draw):
    """Records of any sign with small denominators, often on a boundary of a
    check (slope at its lower bound or at 12, speed at g, omega^2 at the
    canonical-class bound), with optional nodes and fiber profiles."""
    g = draw(st.integers(2, 8))
    g_C = draw(st.integers(0, 3))
    s = draw(st.integers(0, 8))
    denom = 2 * g_C - 2 + s
    chi = draw(st.one_of(_SMALL_RATIONALS, st.just(Fraction(g * denom, 2))))
    omega_sq = draw(st.one_of(
        _SMALL_RATIONALS,
        st.just(Fraction(4 * (g - 1), g) * chi),
        st.just(12 * chi),
        st.just(Fraction((2 * g - 2) * denom)),
    ))
    delta = 12 * chi - omega_sq + draw(st.one_of(st.just(0), _SMALL_RATIONALS))
    inv = FibrationInvariants(g, g_C, s, chi, omega_sq, delta,
                              hyperelliptic=draw(st.booleans()),
                              semistable=draw(st.booleans()))
    nodes = draw(st.none() | st.lists(st.integers(0, 6), max_size=8).map(
        lambda ms: StableModelNodes(tuple(ms))))
    profiles = draw(st.none() | st.lists(_profiles(g), max_size=3))
    return inv, nodes, profiles


@st.composite
def _profiles(draw, record_g):
    g = draw(st.just(record_g) | st.integers(2, 5))
    g_geo = draw(st.integers(0, g))
    counts = draw(st.dictionaries(st.integers(0, g // 2), st.integers(0, 4), max_size=3))
    return FiberNodeProfile(g, g_geo, draw(st.integers(1, 3)), counts)


@settings(max_examples=400, deadline=None)
@given(_audit_inputs())
def test_audit_matches_the_fraction_route(args):
    want = [_check_fields(c) for c in _fraction_audit(*args)]
    for _ in range(2):  # the second audit of the record is a memo hit
        assert [_check_fields(c) for c in audit(*args).checks] == want


_BINOMIALS = [f"y^{a} - z^{b}" for a in range(2, 9) for b in range(2, 9)]


@st.composite
def _valid_data(draw):
    g = draw(st.integers(2, 8))
    fibers = tuple(
        CriticalFiber(f"F{i}", tuple(draw(st.lists(st.sampled_from(_BINOMIALS),
                                                   min_size=1, max_size=2))))
        for i in range(draw(st.integers(1, 3))))
    markers = tuple(CriticalFiber(f"m{i}", negligible_marker=True)
                    for i in range(draw(st.integers(0, 3))))
    return GenusGDatum(g=g, g_C=draw(st.integers(0, 2)), e=0,
                       n=2 * draw(st.integers(1, 8)), critical_fibers=fibers + markers,
                       declared_m=draw(st.integers(0, 3)),
                       simple_ramification=draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(_valid_data())
def test_invariants_match_the_fraction_formulas(d):
    for _ in range(2):  # the second report's record is a memo hit
        try:
            report = invariants(d)
        except (RequiresAlgebraicExtension, DepthOverflow):
            return
        except NonHyperbolicBase:
            assert 2 * d.g_C - 2 + d.s <= 0
            return
        inv = report.invariants
        chi = Fraction(d.g * d.n - report.sum_k_km1, 2)
        omega_sq = Fraction((2 * d.g - 2) * d.n - 2 * report.sum_km1_sq - d.declared_m)
        want = (chi, omega_sq, 12 * chi - omega_sq, omega_sq / chi if chi else None,
                2 * chi / (2 * d.g_C - 2 + d.s))
        got = (inv.chi, inv.omega_sq, inv.delta, report.slope, report.speed)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
        assert (inv.g, inv.g_C, inv.s, inv.hyperelliptic, inv.semistable) == \
            (d.g, d.g_C, d.s, True, report.semistable.passed)
        assert [_check_fields(c) for c in audit(inv).checks] == \
            [_check_fields(c) for c in _fraction_audit(inv)]


def _counting_decisions(monkeypatch) -> list:
    # the records whose record checks are decided, one entry per decision
    decided = []
    decide = fibration._record_checks
    monkeypatch.setattr(fibration, "_record_checks",
                        lambda inv: decided.append(inv) or decide(inv))
    return decided


def test_records_differing_in_one_flag_never_share_checks(monkeypatch):
    # each record object keeps its own checks, whatever its flags
    decided = _counting_decisions(monkeypatch)
    records = [_inv(g=3, g_C=1, s=4, chi=5, omega_sq=20, delta=40, hyperelliptic=hyp,
                    semistable=stable) for hyp in (False, True) for stable in (False, True)]
    reports = [audit(inv) for inv in records]
    assert decided == records
    shared = [id(c) for r in reports for c in r.checks
              if c.check not in ("node-ratio", "fiber-profile")]
    assert len(set(shared)) == len(shared)
    for inv, report in zip(records, reports):
        assert [_check_fields(c) for c in report.checks] == \
            [_check_fields(c) for c in _fraction_audit(inv)]
        assert _by_name(report)["arakelov-speed"].status == \
            ("pass" if inv.semistable else "skipped")


def test_editing_a_report_leaves_the_next_audit_alone():
    inv = _inv(g=3, g_C=1, s=4, chi=5, omega_sq=20, delta=40)
    first = audit(inv)
    want = [_check_fields(c) for c in first.checks]
    first.checks.append(AuditCheck("forged", "fail"))
    first.checks[0] = AuditCheck("noether-identity", "fail")
    del first.checks[1]
    assert [_check_fields(c) for c in audit(inv).checks] == want


def test_audit_checks_are_frozen():
    check = audit(_inv()).checks[0]
    with pytest.raises(AttributeError):
        check.status = "pass"


def test_auditing_one_record_twice_decides_once(monkeypatch):
    decided = _counting_decisions(monkeypatch)
    inv = _inv(g=3, g_C=1, s=4, chi=5, omega_sq=20, delta=40)
    first, second = audit(inv), audit(inv)
    assert decided == [inv]
    assert [id(c) for c in first.checks] == [id(c) for c in second.checks]
    assert first.checks is not second.checks
    # an equal record is another object, and decides its own checks
    audit(_inv(g=3, g_C=1, s=4, chi=5, omega_sq=20, delta=40))
    assert len(decided) == 2


def test_fibration_imports_neither_the_kernel_nor_sympy():
    # the arithmetic layer loads bounds alone
    src = os.path.dirname(os.path.dirname(fibrato.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, fibrato.fibration; assert 'sympy' not in sys.modules; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'fibrato'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["fibrato", "fibrato.bounds", "fibrato.fibration"]

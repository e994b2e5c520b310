"""Germ parsing, even blow-ups, resolution traces, and classification.

All expected multiplicity sequences were either computed by hand chart by
chart or produced by the exponent-only oracle in fibrato.oracle, which
shares no code with the resolution engine.
"""

import re
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from fibrato.germs import (
    DEFAULT_MAX_DEPTH,
    INFINITY,
    ConjugateDirections,
    DepthOverflow,
    Germ,
    GermSyntaxError,
    RequiresAlgebraicExtension,
    ascii_int,
    even_blow_up,
    even_resolve,
    parse_germ,
)
from fibrato import constructions
from fibrato import datum as datum_mod
from fibrato import germs as kernel
from fibrato.cli import main
from fibrato.datum import CriticalFiber
from fibrato.bounds import PreconditionViolated
from fibrato.germs import _factors, _shift_second
from fibrato.oracle import binomial_oracle


def _classify(g, max_depth=DEFAULT_MAX_DEPTH):
    """The label of g's even resolution; raises what even_resolve raises."""
    return even_resolve(g, max_depth).classification


# ---------------------------------------------------------------------------
# parsing and canonical form

def test_parse_simple_binomial():
    g = parse_germ("y^2 - z^4")
    assert g.support == {(2, 0): 1, (0, 4): -1}


def test_parse_product_expands():
    g = parse_germ("z*(y^3 - z^5)")
    assert g.support == {(3, 1): 1, (0, 6): -1}
    assert str(g) == "y^3*z - z^6"


def test_parse_coefficients_and_whitespace():
    assert parse_germ("2y^2+3*y*z").support == {(2, 0): 2, (1, 1): 3}
    assert parse_germ("  y ^ 2   -   z^4 ") == parse_germ("y^2-z^4")


def test_parse_leading_sign():
    assert parse_germ("-y^2 + z^4") == parse_germ("y^2 - z^4")  # sign normalization


def test_parse_rejects_a_constant_term():
    for text in ("y^0 + y^2", "(y^0 + y)*(y^0 - z)", "z^0"):
        with pytest.raises(GermSyntaxError, match="vanish at the origin"):
            parse_germ(text)
    # the rule reads the expanded polynomial, not the tokens
    assert parse_germ("y^0*y^2 - (y^0 - y^0) - z^3") == parse_germ("y^2 - z^3")


def test_parse_nested_parentheses():
    g = parse_germ("(y - z)*(y + z)")
    assert g.support == {(2, 0): 1, (0, 2): -1}


@pytest.mark.parametrize("support", [
    {(2, 0): Fraction(5, 2), (0, 3): -1},
    {(2.7, 0): 1, (0, 3): -1},
    {(2, 0): "3", (0, 3): -1},
], ids=["fraction-coefficient", "float-exponent", "string-coefficient"])
def test_germ_rejects_non_integers(support):
    with pytest.raises(TypeError):
        Germ(support)


def test_canonical_content_and_sign():
    assert parse_germ("2*y^2 - 2*z^4") == parse_germ("y^2 - z^4")
    assert parse_germ("z^4 - y^2") == parse_germ("y^2 - z^4")


def test_parse_rejects_bare_integer_term():
    with pytest.raises(GermSyntaxError):
        parse_germ("y^2 + 3")


def test_parse_rejects_malformed():
    for text in ("", "y**2", "y^", "(y^2", "y^2)", "x^2", "y 2", "y z"):
        with pytest.raises(GermSyntaxError):
            parse_germ(text)


@pytest.mark.parametrize("text, signed, value", [
    ("0", False, 0), ("042", False, 42), ("-3", True, -3), ("-0", True, 0), ("17", True, 17),
    ("-3", False, None), ("", False, None), ("-", True, None), ("--3", True, None),
    ("+5", False, None), ("+5", True, None), (" 5", False, None), ("5 ", False, None),
    ("1_0", False, None), ("\u0663", False, None), ("\u00b2", False, None),
    pytest.param("0" * 5000 + "79", False, 79, id="padded"),
    pytest.param("-" + "0" * 5000 + "3", True, -3, id="padded-negative"),
    pytest.param("9" * 5000, False, None, id="long"),
    pytest.param("-" + "9" * 5000, True, None, id="long-negative"),
])
def test_ascii_int_reads_only_ascii_digits_within_the_limit(text, signed, value):
    # leading zeros never count toward the interpreter's limit on digits
    assert ascii_int(text, signed=signed) == value


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError, match="^all terms cancel$"):
        parse_germ("y^2 - y^2")


def test_str_round_trip_examples():
    for text in ("y^2 - z^4", "y^3*z - z^6", "y^3 - z^3", "y*z*(y - z)"):
        g = parse_germ(text)
        assert parse_germ(str(g)) == g


def test_multiplicity():
    assert parse_germ("y^2 - z^4").multiplicity == 2
    assert parse_germ("z*(y^3 - z^5)").multiplicity == 4
    assert parse_germ("y - z^3").multiplicity == 1


# ---------------------------------------------------------------------------
# single even blow-up

def test_blow_up_requires_singular_point():
    with pytest.raises(ValueError):
        even_blow_up(parse_germ("y - z"))


def test_blow_up_a3_goes_through_infinity():
    descs = even_blow_up(parse_germ("y^2 - z^4"))
    assert len(descs) == 1
    assert descs[0].direction == INFINITY
    assert descs[0].germ == parse_germ("y^2 - z^2")


def test_blow_up_triple_point_rational_and_conjugate():
    # y^3 - z^3 = (y - z)(y^2 + yz + z^2): one rational direction v = 1 and a
    # certified packet of two conjugate nodes at the roots of 1 + v + v^2
    descs = even_blow_up(parse_germ("y^3 - z^3"))
    assert [d.count for d in descs] == [1, 2]
    assert descs[0].direction == Fraction(1)
    assert descs[0].germ is None and descs[0].count == 1
    assert isinstance(descs[1].direction, ConjugateDirections)
    assert descs[1].direction.min_poly == (1, 1, 1)
    assert descs[1].germ is None


def test_blow_up_quadruple_point_of_mixed_binomial():
    descs = even_blow_up(parse_germ("z*(y^3 - z^5)"))
    assert [d.direction for d in descs] == [INFINITY]
    assert descs[0].germ == parse_germ("y^3 - z^2")


def test_blow_up_ordinary_point_with_simple_irrational_directions():
    # four distinct lines with irrational slopes: all transform points smooth
    assert even_blow_up(parse_germ("(y^2 - 2*z^2)*(y^2 - 3*z^2)")) == []


# ---------------------------------------------------------------------------
# full resolution traces (frozen)

TRACES = {
    "y^2 - z^2": [2],
    "y^2 - z^3": [2],
    "y^2 - z^4": [2, 2],
    "y^2 - z^5": [2, 2],
    "y^2 - z^6": [2, 2, 2],
    "y^2 - z^7": [2, 2, 2],
    "z*(y^2 + z^2)": [3, 2, 2, 2],
    "z*(y^2 + z^3)": [3, 2, 2, 2],
    "y^3 - z^3": [3, 2, 2, 2],
    "y^3 - z^4": [3, 2, 2, 2],
    "y*(y^2 + z^3)": [3, 3, 3, 2, 2, 2, 2],
    "y^3 - z^5": [3, 3, 3, 2, 3, 2, 2, 2],
    "y^4 - z^4": [4],
    "y^6 - z^4": [4, 2, 2],
    "y^7 - z^4": [4, 3, 2, 2, 2],
    "y^8 - z^4": [4, 4],
    "y^9 - z^4": [4, 4],
    "y^10 - z^4": [4, 4, 2, 2],
    "y^6 - z^6": [6],
    "y^8 - z^6": [6, 2, 2, 2],
    "z*(y^3 - z^5)": [4, 2],
    "z*(y^4 - z^3)": [4, 2],
}


@pytest.mark.parametrize("text,mults", sorted(TRACES.items()))
def test_resolution_multiplicity_sequences(text, mults):
    trace = even_resolve(parse_germ(text))
    assert trace.multiplicities() == mults


def test_smooth_germ_has_empty_trace():
    trace = even_resolve(parse_germ("y - z^2"))
    assert trace.points == ()


def test_trace_depths_and_k():
    trace = even_resolve(parse_germ("y^2 - z^6"))
    assert [p.depth for p in trace.points] == [0, 1, 2]
    assert [p.k for p in trace.points] == [1, 1, 1]


def test_trace_sums():
    trace = even_resolve(parse_germ("y^8 - z^4"))
    assert [p.k for p in trace.points] == [2, 2]
    assert trace.sum_k_km1 == 4
    assert trace.sum_km1_sq == 2
    trace = even_resolve(parse_germ("y^10 - z^4"))
    assert trace.sum_k_km1 == 4
    assert trace.sum_km1_sq == 2


def test_trace_point_labels():
    # y^7 - z^4 contains a unimodal triple-point cluster after one blow-up
    trace = even_resolve(parse_germ("y^7 - z^4"))
    assert trace.points[0].classification == "NonNegligibleInterior"
    assert trace.points[1].classification == "E6"
    # conjugate packets are labelled A1 and expanded by count
    trace = even_resolve(parse_germ("y^3 - z^3"))
    labels = [(p.classification, p.count) for p in trace.points]
    assert labels == [("D4", 1), ("A1", 1), ("A1", 2)]


def test_quartic_tail_counts():
    # number of multiplicity-4 points of y^(g+1) - z^4 is floor((g+1)/4)
    for g in range(3, 42, 2):
        trace = even_resolve(parse_germ(f"y^{g + 1} - z^4"))
        quads = sum(1 for p in trace.points if p.multiplicity == 4)
        assert quads == (g + 1) // 4


def test_depth_overflow_on_non_reduced_germ():
    with pytest.raises(DepthOverflow):
        even_resolve(parse_germ("y^2"))


def test_depth_overflow_respects_cap():
    g = parse_germ("y^2 - z^40")
    with pytest.raises(DepthOverflow):
        even_resolve(g, max_depth=3)
    assert len(even_resolve(g).points) == 20
    # the exact boundary: the deepest point blown up is y^2 - z^2 at depth 19
    with pytest.raises(DepthOverflow, match="^no smooth model within 18 blow-ups$"):
        even_resolve(g, max_depth=18)
    assert even_resolve(g, max_depth=19).points[0].classification == "A39"


@pytest.mark.parametrize("text", ["3*y^3 + 2*z^3", "y^3 - z^3"])
def test_conjugate_packets_and_rational_nodes_meet_the_cap_alike(text):
    # 3 + 2v^3 is irreducible: one packet of three conjugate A1 nodes at
    # depth 1; 1 - v^3 gives one rational A1 node and a packet of two
    g = parse_germ(text)
    for fn in (even_resolve, _classify):
        with pytest.raises(DepthOverflow, match="^no smooth model within 0 blow-ups$"):
            fn(g, 0)
    assert _classify(g, 1) == "D4"
    assert even_resolve(g, 1).multiplicities() == [3, 2, 2, 2]


def _raises_each_time(germ, cap, exc, text):
    # the second resolution finds the chart record in the memo and raises
    # its verdict afresh, with the same text
    for _ in range(2):
        with pytest.raises(exc, match=f"^{re.escape(text)}$"):
            even_resolve(germ, cap)


def test_requires_algebraic_extension_even_branch():
    # (z^2 - 2y^2)(z^2 - 2y^2 + y^5): the transform is singular at v^2 = 2
    germ = parse_germ("z^4 - 4*y^2*z^2 + 4*y^4 + y^5*z^2 - 2*y^7")
    _raises_each_time(germ, DEFAULT_MAX_DEPTH, RequiresAlgebraicExtension,
                      f"singular irrational direction (-2, 0, 1) for {germ}")


def test_requires_algebraic_extension_odd_branch():
    # y*(z^2 - 2y^2)^2 restricts to a multiple irrational factor on E
    germ = parse_germ("y*z^4 - 4*y^3*z^2 + 4*y^5")
    _raises_each_time(germ, DEFAULT_MAX_DEPTH, RequiresAlgebraicExtension,
                      "multiple irrational direction (-2, 0, 1) on E for "
                      "4*y^5 - 4*y^3*z^2 + y*z^4")


def test_requires_algebraic_extension_below_the_root():
    # the root blows up to one point at infinity, whose transform is
    # singular at v^2 = 2: the cap decides which failure comes first
    germ = parse_germ("z^12 - 4*y^2*z^8 + 4*y^4*z^4 + y^5*z^7 - 2*y^7*z")
    kernel._strict_points.cache_clear()
    _raises_each_time(germ, 0, DepthOverflow, "no smooth model within 0 blow-ups")
    for cap in (1, 64):
        _raises_each_time(germ, cap, RequiresAlgebraicExtension,
                          "singular irrational direction (-2, 0, 1) for "
                          "4*y^4 - 2*y^7 - 4*y^2*z^2 + z^4 + y^5*z^4")
    record = kernel._strict_points(germ)
    (child,) = record.even
    assert record.error is None and kernel._strict_points(child.germ).error is not None
    assert record.below is None and kernel._strict_points(child.germ).below is None


# ---------------------------------------------------------------------------
# classification

CLASSES = {
    "y - z^3": "Smooth",
    "y^2 - z^2": "A1",
    "y^2 + z^2": "A1",
    "y^2 - z^3": "A2",
    "y^2 - z^4": "A3",
    "y^2 - z^5": "A4",
    "y^2 - z^6": "A5",
    "z*(y^2 + z^2)": "D4",
    "z*(y^2 - z^2)": "D4",
    "y^3 - z^3": "D4",
    "z*(y^2 + z^3)": "D5",
    "z*(y^2 - z^4)": "D6",
    "y^3 - z^4": "E6",
    "y*(y^2 + z^3)": "E7",
    "y^3 - z^5": "E8",
    "y^4 - z^4": "NonNegligible",
    "y^6 - z^6": "NonNegligible",
    "z*(y^3 - z^5)": "NonNegligible",
    "y^7 - z^4": "NonNegligible",
}


@pytest.mark.parametrize("text,label", sorted(CLASSES.items()))
def test_classify(text, label):
    assert _classify(parse_germ(text)) == label


def test_classify_a_series():
    for m in range(1, 16):
        assert _classify(parse_germ(f"y^2 - z^{m + 1}")) == f"A{m}"


def test_a_series_trace_length():
    for m in range(1, 16):
        trace = even_resolve(parse_germ(f"y^2 - z^{m + 1}"))
        assert trace.multiplicities() == [2] * ((m + 1) // 2)


# ---------------------------------------------------------------------------
# engine versus exponent oracle

def test_oracle_frozen_values():
    assert binomial_oracle(0, 1, 3, 5) == [4, 2]
    assert binomial_oracle(0, 1, 4, 3) == [4, 2]
    assert binomial_oracle(0, 0, 8, 4) == [4, 4]
    assert binomial_oracle(0, 0, 2, 4) == [2, 2]
    assert binomial_oracle(0, 0, 2, 3) == [2]
    assert binomial_oracle(0, 0, 7, 4) == [4, 3, 2, 2, 2]
    assert binomial_oracle(1, 0, 1, 1) == [2]
    assert binomial_oracle(1, 1, 1, 1) == [3, 2, 2, 2]


def test_oracle_rejects_bad_exponents():
    with pytest.raises(ValueError):
        binomial_oracle(2, 0, 3, 4)
    with pytest.raises(ValueError):
        binomial_oracle(0, 0, 0, 4)


def _binomial_germ(e, f, a, b):
    parts = []
    if e:
        parts.append("y")
    if f:
        parts.append("z")
    parts.append(f"(y^{a} - z^{b})")
    return parse_germ("*".join(parts))


def test_engine_matches_oracle_on_acceptance_grid():
    for e in (0, 1):
        for f in (0, 1):
            for a in range(1, 13):
                for b in range(1, 13):
                    got = even_resolve(_binomial_germ(e, f, a, b)).multiplicities()
                    assert got == binomial_oracle(e, f, a, b), (e, f, a, b)


@settings(max_examples=60, deadline=None)
@given(
    e=st.integers(0, 1),
    f=st.integers(0, 1),
    a=st.integers(1, 24),
    b=st.integers(1, 24),
)
def test_engine_matches_oracle_widely(e, f, a, b):
    got = even_resolve(_binomial_germ(e, f, a, b)).multiplicities()
    assert got == binomial_oracle(e, f, a, b)


# ---------------------------------------------------------------------------
# structural properties of blow-ups

@st.composite
def germs(draw):
    n_terms = draw(st.integers(2, 5))
    support = {}
    for _ in range(n_terms):
        i = draw(st.integers(0, 5))
        j = draw(st.integers(0, 5))
        c = draw(st.integers(-4, 4).filter(bool))
        support[(i, j)] = c
    support.pop((0, 0), None)  # a bare constant is not a germ expression
    if not support:
        return Germ({(1, 0): 1, (0, 1): 1})
    return Germ(support)


@settings(max_examples=80, deadline=None)
@given(germs())
def test_blow_up_descendants_are_singular_and_ordered(g):
    if g.multiplicity < 2:
        return
    try:
        descs = even_blow_up(g)
    except RequiresAlgebraicExtension:
        return
    finite = [d.direction for d in descs if isinstance(d.direction, Fraction)]
    assert finite == sorted(finite)
    assert all(d.germ.multiplicity >= 2 for d in descs if d.germ is not None)
    at_inf = [i for i, d in enumerate(descs) if d.direction == INFINITY]
    assert len(at_inf) <= 1
    if at_inf:
        assert at_inf[0] == len(descs) - 1


@settings(max_examples=60, deadline=None)
@given(germs())
def test_parse_str_round_trip(g):
    assert parse_germ(str(g)) == g


# ---------------------------------------------------------------------------
# kernel helpers against the routes they replaced

def _sympy_factor_list(coeffs):
    """Factoring through sympy.Poly, as the kernel did before it split off
    constants and monomials and called the dense routine directly."""
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("v"), domain="ZZ")
    _, factors = poly.factor_list()
    out = []
    for f, e in factors:
        cs = [int(c) for c in f.all_coeffs()]
        cs.reverse()
        out.append((tuple(cs), int(e)))
    out.sort(key=lambda fe: (len(fe[0]), fe[0]))
    return out


def _fraction_shift_second(support, r):
    """Binomial expansion of the shift in Fractions, denominators cleared by
    their lcm: the exact route the integer shift replaced."""
    acc = {}
    for (i, j), c in support.items():
        binom = 1
        for t in range(j + 1):
            acc[(i, t)] = acc.get((i, t), Fraction(0)) + c * binom * r ** (j - t)
            binom = binom * (j - t) // (t + 1)
    acc = {ij: c for ij, c in acc.items() if c}
    lcm = 1
    for c in acc.values():
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    return {ij: int(c * lcm) for ij, c in acc.items()}


@st.composite
def univariate(draw):
    """Low-to-high integer coefficients: random, monomial, scaled (so
    non-primitive and non-monic), padded with high zeros, or 1 - v^n."""
    kind = draw(st.sampled_from(["random", "monomial", "scaled", "cyclotomic"]))
    if kind == "monomial":
        coeffs = [0] * draw(st.integers(0, 6)) + [draw(st.integers(-9, 9).filter(bool))]
    elif kind == "cyclotomic":
        coeffs = [1] + [0] * (draw(st.integers(1, 12)) - 1) + [-1]
    else:
        coeffs = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=8))
        if kind == "scaled":
            coeffs = [c * draw(st.integers(-6, 6).filter(bool)) for c in coeffs]
    return tuple(coeffs + [0] * draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(univariate())
@example((0,))
@example((7,))
@example((0, 0, 0, 3, 0))
@example((6, 0, -6))
@example((-4, 6, 0, 0))
@example((1, 0, 0, 0, 0, 0, -1))
def test_factor_list_matches_sympy_poly(coeffs):
    assert list(_factors(coeffs)) == _sympy_factor_list(coeffs)


@st.composite
def _binomials(draw):
    """+-c * v^k * (v^n +- 1), n <= 200: content c, low zeros k, high zeros."""
    n, c = draw(st.integers(1, 200)), draw(st.integers(-9, 9).filter(bool))
    last = c * draw(st.sampled_from([1, -1]))
    return tuple([0] * draw(st.integers(0, 3)) + [c] + [0] * (n - 1) + [last]
                 + [0] * draw(st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(_binomials())
@example((1, -1))
@example((0, 5, 0, 5, 0))
@example((-1,) + (0,) * 104 + (1,))  # Phi_105 has the coefficient -2
@example((2,) + (0,) * 104 + (2,))  # Phi_210(v) = Phi_105(-v)
@example((0, 0, -3) + (0,) * 199 + (-3, 0))
def test_binomial_factor_list_matches_sympy_poly(coeffs):
    # the order counts too: ConjugateDirections.min_poly is printed
    assert list(_factors(coeffs)) == _sympy_factor_list(coeffs)


class _Fallback(Exception):
    pass


def _refuse(*args):
    raise _Fallback(args[0])


def test_no_measured_polynomial_reaches_the_sympy_fallback(monkeypatch, capsys):
    # every restriction the grid, the record families and the search sweep
    # meet is a constant, a monomial or a binomial; only others reach sympy
    _clear_kernel_memos()
    datum_mod._parsed.cache_clear()
    datum_mod._resolved.cache_clear()
    monkeypatch.setattr(kernel, "dup_factor_list", _refuse)
    for g in _grid_germs():
        _kernel_view(g)
    for g in range(2, 62):
        for name in constructions.FAMILY_NAMES:
            try:
                fam = constructions.family(name, g)
            except PreconditionViolated:
                continue
            fam.report()
    for g in range(80, 201, 2):
        constructions.even_genus(g).report(max_depth=2 * g + 8)
    assert main(["search", "--genus", "6", "--max-n", "16", "--germ-grid", "8x8"]) == 0
    capsys.readouterr()
    with pytest.raises(_Fallback):
        _factors((2, 1, 0, 1))


def _sympy_divides(q, p):
    """Divisibility over QQ through sympy.rem, as the kernel decided it before
    the integer pseudo-remainder."""
    v = sympy.Symbol("v")
    rem = sympy.rem(sympy.Poly(list(reversed(p)), v, domain="QQ"),
                    sympy.Poly(list(reversed(q)), v, domain="QQ"))
    return rem.is_zero


@st.composite
def _divisions(draw):
    """(q, p): q of degree >= 2, rarely monic; p zero, arbitrary or a multiple
    of q, padded with high zeros."""
    q = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=4))
    q.append(draw(st.integers(-6, 6).filter(bool)))
    kind = draw(st.sampled_from(["zero", "random", "multiple"]))
    p = [0] if kind == "zero" else draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    if kind == "multiple":
        p = [sum(q[i] * p[k - i] for i in range(len(q)) if 0 <= k - i < len(p))
             for k in range(len(q) + len(p) - 1)]
    return tuple(q), tuple(p + [0] * draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(_divisions())
@example(((1, 0, 2), (0,)))
@example(((1, 0, 2), (3, 0, 6, 0)))
@example(((1, 0, 2), (1, 0, 1)))
@example(((-1, 2, 3), (0, -2, 4, 6)))
def test_divides_matches_sympy_rem(qp):
    q, p = qp
    assert kernel._divides(q, p) == _sympy_divides(q, p)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 7)),
                    st.integers(-9, 9).filter(bool), min_size=1, max_size=6),
    st.integers(-6, 6),
    st.integers(1, 7),
)
@example({(0, 2): 4, (1, 0): 1}, -3, 2)
@example({(0, 3): 1, (2, 1): -5}, 1, 1)
def test_integer_shift_matches_fraction_shift(support, p, q):
    r = Fraction(p, q)
    assert Germ(_shift_second(support, r)) == Germ(_fraction_shift_second(support, r))


@pytest.mark.parametrize("a", range(2, 11))
def test_branch_data_milnor_number_of_brieskorn_germs(a):
    # Milnor (1968): mu(y^a - z^b) = (a - 1)(b - 1), and mu = 2 delta - r + 1
    # by the strict walk; an ADE label has index mu.
    for b in range(2, 11):
        g = parse_germ(f"y^{a} - z^{b}")
        mu = (a - 1) * (b - 1)
        assert _strict_mu(g) == mu
        label = _classify(g)
        if label[0] in "ADE":
            assert int(label[1:]) == mu, (str(g), label)


@st.composite
def _semi_quasi_homogeneous(draw):
    """(a, b, germ): y^a - z^b plus up to three terms c*y^i*z^j, c != 0, above
    its Newton edge (i*b + j*a > a*b)."""
    a, b = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    support = {(a, 0): 1, (0, b): -1}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, 2 * a))
        low = max(0, (a * b - i * b) // a + 1)  # the least j above the edge
        j = draw(st.integers(low, low + b))
        support[(i, j)] = support.get((i, j), 0) + draw(st.integers(-9, 9).filter(bool))
    return a, b, Germ(support)


@settings(max_examples=300, deadline=None)
@given(_semi_quasi_homogeneous())
@example((3, 4, parse_germ("y^3 - z^4 + y^2*z^2")))
@example((4, 6, parse_germ("y^4 - z^6 + 5*y^3*z^2 - y*z^6")))
def test_milnor_number_of_semi_quasi_homogeneous_germs(abg):
    # Arnold: a semi-quasi-homogeneous germ has the Milnor number of its
    # principal part y^a - z^b, mu = (a - 1)(b - 1) = 2 delta - r + 1.
    a, b, g = abg
    mu = (a - 1) * (b - 1)
    assert _strict_mu(g) == mu, g
    label = _classify(g)
    if label[0] in "ADE":
        assert int(label[1:]) == mu, (g, label)


# ---------------------------------------------------------------------------
# process-wide kernel memos

def _clear_kernel_memos():
    kernel._strict_points.cache_clear()
    kernel._factors.cache_clear()


def _point_view(pt):
    return (pt.depth, pt.multiplicity, pt.k, pt.classification, repr(pt.direction),
            str(pt.germ), pt.count)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DepthOverflow, RequiresAlgebraicExtension) as exc:
        return type(exc).__name__, str(exc)


def _kernel_view(g):
    """Everything the kernel says about g, at the default cap and at cap 3."""
    def resolved(cap):
        trace = even_resolve(g, cap)
        return (str(trace.germ), trace.multiplicities(), trace.sum_k_km1, trace.sum_km1_sq,
                [_point_view(pt) for pt in trace.points])
    return [(_outcome(resolved, cap), _outcome(_classify, g, cap))
            for cap in (DEFAULT_MAX_DEPTH, 3)]


def _grid_germs():
    return [_binomial_germ(e, f, a, b)
            for e in (0, 1) for f in (0, 1) for a in range(1, 15) for b in range(1, 15)]


def _cold_view(g):
    _clear_kernel_memos()
    return _kernel_view(g)


def test_kernel_memos_give_the_same_results_warm_and_cleared():
    grid = _grid_germs()
    assert len(grid) == 784
    for g in grid:
        _kernel_view(g)
    warm = [_kernel_view(g) for g in grid]
    assert warm == [_cold_view(g) for g in grid]
    assert any(view[1][0][0] == "DepthOverflow" for view in warm)  # at cap 3


@settings(max_examples=150, deadline=None)
@given(germs())
@example(parse_germ("z^4 - 4*y^2*z^2 + 4*y^4 + y^5*z^2 - 2*y^7"))
@example(parse_germ("y*z^4 - 4*y^3*z^2 + 4*y^5"))
def test_kernel_memos_give_the_same_results_on_random_germs(g):
    warm = _kernel_view(g)
    assert _kernel_view(g) == warm
    assert _cold_view(g) == warm


def test_kernel_memos_keep_each_depth_cap():
    g = parse_germ("y^2 - z^40")
    _clear_kernel_memos()
    messages = []
    for fn in (even_resolve, _classify):
        for cap, expect in ((19, "A39"), (18, None), (19, "A39"), (18, None)):
            if expect is None:
                with pytest.raises(DepthOverflow) as info:
                    fn(g, cap)
                messages.append(str(info.value))
            else:
                got = fn(g, cap)
                label = got if isinstance(got, str) else got.points[0].classification
                assert label == expect, (fn.__name__, cap)
    assert messages == ["no smooth model within 18 blow-ups"] * 4


def test_kernel_memos_keep_every_entry():
    for memo in (kernel._strict_points, kernel._factors, datum_mod._record):
        assert memo.cache_info().maxsize is None


def _memo_misses():
    return kernel._strict_points.cache_info().misses, kernel._factors.cache_info().misses


def test_resolving_again_misses_no_kernel_memo():
    for text in ("y^7 - z^4", "z*(y^3 - z^5)", "y^3 - z^3", "(y^2 - z^3)*(y^2 + z^3)"):
        g = parse_germ(text)
        _clear_kernel_memos()
        first = _kernel_view(g)
        before = _memo_misses()
        assert _kernel_view(g) == first
        assert _memo_misses() == before, text


def test_reading_labels_reads_no_kernel_memo():
    # labels, cluster heads and the points are read off the summaries the
    # resolution holds, with no memo lookup
    for text in ("y^7 - z^4", "z*(y^3 - z^5)", "y^3 - z^3", "y^2 - z^40", "y*(y^2 + z^3)"):
        trace = even_resolve(parse_germ(text))
        before = (kernel._strict_points.cache_info(), kernel._factors.cache_info())
        _ = (trace.classification, trace.clusters(), trace.points)
        assert (kernel._strict_points.cache_info(), kernel._factors.cache_info()) == before, text


def test_a_long_negligible_chain_is_charted_once_per_point():
    # the chain y^2 - z^8400, y^2 - z^8398, ..., y^2 - z^2 has 4,200 points:
    # labelling it reads no memo, so it stays linear in its length
    _clear_kernel_memos()
    trace = even_resolve(parse_germ("y^2 - z^8400"), 4201)
    assert trace.classification == "A8399"
    assert trace.clusters() == ["A8399"]
    assert kernel._strict_points.cache_info().misses == 4200


def test_simple_rational_roots_cost_no_chart_record():
    # a simple rational root on E is recorded at its parent, smooth for even
    # m and an A1 node for odd m: it gets no chart record or factoring of
    # its own
    _clear_kernel_memos()
    for g in _grid_germs():
        even_resolve(g)
    assert (kernel._strict_points.cache_info().misses,
            kernel._factors.cache_info().misses) == (862, 44)
    _clear_kernel_memos()
    datum_mod._parsed.cache_clear()
    datum_mod._resolved.cache_clear()
    constructions.even_genus(6).report()
    assert kernel._strict_points.cache_info().misses == 8


def test_the_chart_pass_builds_a_germ_only_for_a_point_it_keeps(monkeypatch):
    # the pass charts the even transform itself: a germ is built once, at a
    # singular point the record keeps, and never for a point it drops
    built = []
    init = Germ.__init__
    monkeypatch.setattr(Germ, "__init__",
                        lambda self, support: built.append(support) or init(self, support))
    grid = _grid_germs()
    assert len(built) == 784  # one by parse_germ per grid germ
    _clear_kernel_memos()
    for g in grid:
        even_resolve(g)
    assert len(built) == 1541
    assert _memo_misses() == (862, 44)


def _chart_lookups(fn, *args):
    """(hits, misses) of the chart-record memo during fn(*args)."""
    before = kernel._strict_points.cache_info()
    fn(*args)
    after = kernel._strict_points.cache_info()
    return after.hits - before.hits, after.misses - before.misses


def test_a_chain_resolved_again_from_inside_is_charted_once():
    # y^2 - z^11998 is the first blow-up of y^2 - z^12000, and the memo keeps
    # the 6,000 chart records of that chain: resolving the tail again is one
    # hit on its summarized record, however long the chain
    _clear_kernel_memos()
    even_resolve(parse_germ("y^2 - z^12000"), 7000)
    assert kernel._strict_points.cache_info().misses == 6000
    tail = parse_germ("y^2 - z^11998")
    assert _chart_lookups(even_resolve, tail, 7000) == (1, 0)
    assert even_resolve(tail, 7000).classification == "A11997"


def test_a_summarized_germ_resolves_with_one_chart_lookup():
    # a chart record keeps the summary of its germ's even resolution, so a
    # germ met again is not walked down: y^2 - z^120 lies on the chain of
    # y^2 - z^122, and even_genus(60) shares that chain with even_genus(62)
    # and adds only y^61 - z^61
    _clear_kernel_memos()
    even_resolve(parse_germ("y^2 - z^122"))
    assert _chart_lookups(even_resolve, parse_germ("y^2 - z^120")) == (1, 0)
    trace = even_resolve(parse_germ("y^2 - z^120"))
    assert trace.classification == "A119" and trace.multiplicities() == [2] * 60
    _clear_kernel_memos()
    datum_mod._parsed.cache_clear()
    datum_mod._resolved.cache_clear()
    constructions.even_genus(62).report()
    assert _chart_lookups(constructions.even_genus(60).report) == (1, 1)


def test_a_summary_meets_the_depth_cap_like_the_walk():
    # a summarized germ at depth d overflows exactly when d + its height
    # passes the cap: y^2 - z^40 has height 19
    _clear_kernel_memos()
    even_resolve(parse_germ("y^2 - z^40"))
    g = parse_germ("y^2 - z^42")
    with pytest.raises(DepthOverflow, match="^no smooth model within 19 blow-ups$"):
        even_resolve(g, 19)
    assert even_resolve(g, 20).classification == "A41"
    with pytest.raises(DepthOverflow, match="^no smooth model within 0 blow-ups$"):
        even_resolve(g, 0)


def test_even_blow_up_returns_a_fresh_list():
    g = parse_germ("y^3 - z^3")
    first = even_blow_up(g)
    first.clear()
    assert [d.count for d in even_blow_up(g)] == [1, 2]
    assert _factors((0, -1, 0, 1)) == (((-1, 1), 1), ((0, 1), 1), ((1, 1), 1))


def test_traces_compare_by_germ_and_points():
    g = parse_germ("y^7 - z^4")
    one, two = even_resolve(g), even_resolve(g, 10)
    assert one == two and one is not two
    assert one != even_resolve(parse_germ("y^6 - z^4"))
    assert repr(one) == f"ResolutionTrace(germ={g!r}, points={one.points!r})"
    assert type(one.points) is tuple
    with pytest.raises(FrozenInstanceError):
        two.points[1].classification = "changed"
    assert one == two


def test_each_resolution_builds_fresh_trace_points():
    g = parse_germ("y^8 - z^4")
    one, two = even_resolve(g), even_resolve(g)
    assert one is not two
    assert not {id(pt) for pt in one.points} & {id(pt) for pt in two.points}
    assert one.points == two.points
    with pytest.raises(FrozenInstanceError):
        one.points[0].classification = "changed"
    assert even_resolve(g).points[0].classification == "NonNegligibleInterior"


# ---------------------------------------------------------------------------
# labels read off the even resolution, against the strict walk

def _strict_branch_data(g):
    """(r, delta) of g by the walk down its strict transforms, which shares
    only the chart and factoring helpers with the kernel: each point of
    multiplicity m adds m(m-1)/2 to delta, and a branch is counted where a
    strict transform is smooth.  It ends on reduced germs only."""
    m = g.multiplicity
    if m <= 1:
        return 1, 0
    r, delta = 0, m * (m - 1) // 2
    strict = kernel._chart1(g.support, m)
    below = []
    for coeffs, exp in _factors(kernel._row(strict, 0)):
        if len(coeffs) == 2 and exp >= 2:
            below.append(Germ(_shift_second(strict, Fraction(-coeffs[0], coeffs[1]))))
        elif exp >= 2 and kernel._divides(coeffs, kernel._row(strict, 1)):
            raise RequiresAlgebraicExtension(f"singular irrational point {coeffs} below {g}")
        else:
            r += len(coeffs) - 1  # smooth points, one branch each
    strict2 = kernel._chart2(g.support, m)
    if all(i + j for i, j in strict2):
        below.append(Germ(strict2))
    for h in below:
        hr, hdelta = _strict_branch_data(h)
        r, delta = r + hr, delta + hdelta
    return r, delta


def _strict_mu(g):
    """The Milnor number 2*delta - r + 1."""
    r, delta = _strict_branch_data(g)
    return 2 * delta - r + 1


def _tangent_line_count(g):
    """Distinct lines (over the algebraic closure) in the tangent cone."""
    m = g.multiplicity
    coeffs = [0] * (m + 1)
    for (i, j), c in g.support.items():
        if i + j == m:
            coeffs[j] = c
    while coeffs[-1] == 0:
        coeffs.pop()  # a form of lower degree in z has the factor y: the line y = 0
    return sum(len(q) - 1 for q, _ in _factors(tuple(coeffs))) + (len(coeffs) <= m)


def _strict_label(g):
    """The ADE label of a negligible germ by the strict walk: index mu, and
    at multiplicity 3 the tangent lines separate D (>= 2) from E (one)."""
    if g.multiplicity == 2:
        return f"A{_strict_mu(g)}"
    return f"{'D' if _tangent_line_count(g) >= 2 else 'E'}{_strict_mu(g)}"


@dataclass
class _Node:
    """A point of a test-local resolution tree, with the fields of a
    TracePoint and its children."""

    depth: int
    multiplicity: int
    k: int
    classification: str
    direction: object
    germ: Germ | None
    count: int = 1
    children: list["_Node"] = field(default_factory=list)


def _walked_tree(g, max_depth):
    """A tree of _Nodes over even_blow_up, interior points marked, the rest
    labelled by the strict walk; its points in depth-first order."""
    m = g.multiplicity
    points = []
    stack = [_Node(0, m, m // 2, "", None, g)]
    while stack:
        node = stack.pop()
        points.append(node)
        if node.depth > max_depth:
            raise DepthOverflow(f"no smooth model within {max_depth} blow-ups")
        if node.germ is None:
            continue
        for desc in even_blow_up(node.germ):
            if desc.germ is None:
                child = _Node(node.depth + 1, 2, 1, "A1", desc.direction, None, count=desc.count)
            else:
                mult = desc.germ.multiplicity
                child = _Node(node.depth + 1, mult, mult // 2, "", desc.direction, desc.germ)
            node.children.append(child)
        stack.extend(reversed(node.children))
    for node in reversed(points):
        if node.multiplicity > 3 or any(
                child.classification == "NonNegligibleInterior" for child in node.children):
            node.classification = "NonNegligibleInterior"
    for node in points:
        if not node.classification:
            node.classification = _strict_label(node.germ)
    return points


def _walk_and_label(g, max_depth):
    """(points, classification) by even_blow_up and the strict walk."""
    def resolved():
        points = _walked_tree(g, max_depth) if g.multiplicity >= 2 else []
        mults = [m for pt in points for m in [pt.multiplicity] * pt.count]
        return (mults, sum(pt.count * pt.k * (pt.k - 1) for pt in points),
                sum(pt.count * (pt.k - 1) ** 2 for pt in points),
                [_point_view(pt) for pt in points])

    def classified():
        if g.multiplicity <= 1:
            return "Smooth"
        label = _walked_tree(g, max_depth)[0].classification
        return "NonNegligible" if label == "NonNegligibleInterior" else label
    return _failure_or(resolved), _failure_or(classified)


def _kernel_route(g, max_depth):
    def resolved():
        trace = even_resolve(g, max_depth)
        return (trace.multiplicities(), trace.sum_k_km1, trace.sum_km1_sq,
                [_point_view(pt) for pt in trace.points])
    return _failure_or(resolved), _failure_or(_classify, g, max_depth)


def _failure_or(fn, *args):
    try:
        return fn(*args)
    except (DepthOverflow, RequiresAlgebraicExtension) as exc:
        return type(exc).__name__, str(exc)


LABEL_CAPS = (1, 2, 3, 5, 8, 64)


def test_labels_match_the_strict_walk_on_the_grid():
    seen = set()
    for cap in LABEL_CAPS:
        for g in _grid_germs():
            want = _walk_and_label(g, cap)
            assert _kernel_route(g, cap) == want, (str(g), cap)
            if isinstance(want[0][0], list):
                seen |= {view[3][0] for view in want[0][3]}
            else:
                seen.add(want[0][0])
    assert seen == {"A", "D", "E", "N", "DepthOverflow"}


@settings(max_examples=200, deadline=None)
@given(germs(), st.integers(1, 70))
@example(parse_germ("y^2 - z^40"), 19)
@example(parse_germ("y^2 - z^40"), 18)
@example(parse_germ("z*(y^2 - z^30)"), 15)
@example(parse_germ("y^3 - z^5"), 1)
@example(parse_germ("y^7 - z^4"), 2)
@example(parse_germ("y*z^4 - 4*y^3*z^2 + 4*y^5"), 64)
def test_labels_match_the_strict_walk_on_random_germs(g, cap):
    assert _kernel_route(g, cap) == _walk_and_label(g, cap)


# ---------------------------------------------------------------------------
# classification and cluster heads from the flat records, against the tree

def _rebuilt_tree(points):
    """The root of a tree of _Nodes over the flat points, or None: each point
    is a child of the last point before it one level up, as the depths of a
    depth-first order say."""
    nodes, path = [], []  # path: the nodes from the root down to the last one
    for pt in points:
        assert pt.depth <= len(path) and (pt.depth == 0) == (not nodes)
        node = _Node(pt.depth, pt.multiplicity, pt.k, pt.classification, pt.direction,
                     pt.germ, pt.count)
        del path[pt.depth:]
        if path:
            path[-1].children.append(node)
        path.append(node)
        nodes.append(node)
    return nodes[0] if nodes else None


def _tree_label(trace):
    """The germ's label read off the root of the tree, as datum did before
    traces reported their own."""
    root = _rebuilt_tree(trace.points)
    if root is None:
        return "Smooth"
    if root.classification == "NonNegligibleInterior":
        return "NonNegligible"
    return root.classification


def _tree_cluster_heads(trace):
    """The labels of the cluster heads by a walk down the tree through the
    NonNegligibleInterior points, as datum made it."""
    heads = []
    root = _rebuilt_tree(trace.points)
    stack = [] if root is None else [root]
    while stack:
        node = stack.pop()
        if node.classification == "NonNegligibleInterior":
            stack.extend(reversed(node.children))
        else:
            heads.append(node.classification)
    return heads


def _tree_offences(germ, trace):
    return [f"germ {germ} has a residual singularity of type {label}; "
            "only type-A clusters keep the fibration semi-stable"
            for label in _tree_cluster_heads(trace) if label.startswith(("D", "E"))]


def _flat_matches_tree(g, cap):
    """Compare the flat answers of g's trace at cap with the tree routes;
    the cluster heads, or None when the resolution raises."""
    try:
        trace = even_resolve(g, cap)
    except (DepthOverflow, RequiresAlgebraicExtension):
        return None
    label, heads = trace.classification, trace.clusters()
    offences = datum_mod._cluster_offences(trace)
    assert trace._points is None  # the flat answers built no point records
    assert label == _tree_label(trace), (str(g), cap)
    assert heads == _tree_cluster_heads(trace), (str(g), cap)
    assert offences == _tree_offences(g, trace), (str(g), cap)
    try:
        assert _classify(g, cap) == label, (str(g), cap)
    except (DepthOverflow, RequiresAlgebraicExtension):
        pass
    return heads


def test_trace_classification_and_clusters_match_the_tree_on_the_grid():
    seen = []
    for cap in LABEL_CAPS:
        for g in _grid_germs():
            heads = _flat_matches_tree(g, cap)
            if heads is not None:
                seen.append(heads)
    labels = {label[0] for heads in seen for label in heads}
    assert labels == {"A", "D", "E"}
    assert any(len(heads) > 1 for heads in seen)
    assert any(heads == [] for heads in seen)


@settings(max_examples=200, deadline=None)
@given(germs(), st.integers(1, 70))
@example(parse_germ("y^3 - z^4"), 64)
@example(parse_germ("y^7 - z^4"), 64)
@example(parse_germ("z*(y^4 - z^3)"), 64)
@example(parse_germ("y*z^4 - 4*y^3*z^2 + 4*y^5"), 64)
def test_trace_classification_and_clusters_match_the_tree_on_random_germs(g, cap):
    _flat_matches_tree(g, cap)


# ---------------------------------------------------------------------------
# the classification reads the trace, against the walk-then-label route it replaced

def _walk_then_label(g, max_depth):
    """The classification as it was before it read the trace: a walk down the even
    resolution (the test's own, over even_blow_up), then the root's label
    alone."""
    if g.multiplicity <= 1:
        return "Smooth"
    if _walked_tree(g, max_depth)[0].classification == "NonNegligibleInterior":
        return "NonNegligible"
    return _strict_label(g)


def test_classify_matches_the_walk_then_label_route_on_the_grid():
    outcomes = set()
    for cap in LABEL_CAPS:
        for g in _grid_germs():
            want = _failure_or(_walk_then_label, g, cap)
            assert _failure_or(_classify, g, cap) == want, (str(g), cap)
            outcomes.add(want if isinstance(want, str) else want[0])
    assert {"Smooth", "NonNegligible", "DepthOverflow"} < outcomes


@settings(max_examples=200, deadline=None)
@given(germs(), st.integers(1, 70))
@example(parse_germ("y^2 - z^40"), 19)
@example(parse_germ("y^7 - z^4"), 1)
@example(parse_germ("z^4 - 4*y^2*z^2 + 4*y^4 + y^5*z^2 - 2*y^7"), 64)
def test_classify_matches_the_walk_then_label_route_on_random_germs(g, cap):
    assert _failure_or(_classify, g, cap) == _failure_or(_walk_then_label, g, cap)


# ---------------------------------------------------------------------------
# Kouchnirenko's Newton number as a second oracle for mu

def _newton_vertices(support):
    """Vertices of the Newton boundary from the y = 0 axis point (0, b) to
    the z = 0 axis point (a, 0): the lower convex hull of the support."""
    hull = []
    for p in sorted(support):
        while len(hull) >= 2:
            (i0, j0), (i1, j1) = hull[-2], hull[-1]
            if (i1 - i0) * (p[1] - j0) - (j1 - j0) * (p[0] - i0) > 0:
                break
            hull.pop()
        hull.append(p)
    return hull[:next(k for k, (_, j) in enumerate(hull) if j == 0) + 1]


def _edge_polynomials(support, vertices):
    """Per compact edge, the coefficients c_0..c_L of the terms on it, read
    as a polynomial in one variable (the edge's primitive step)."""
    for (i0, j0), (i1, j1) in zip(vertices, vertices[1:]):
        steps = gcd(i1 - i0, j0 - j1)
        di, dj = (i1 - i0) // steps, (j0 - j1) // steps
        yield [support.get((i0 + t * di, j0 - t * dj), 0) for t in range(steps + 1)]


def _newton_number(vertices):
    """2V - a - b + 1, V the area under the Newton boundary (Kouchnirenko)."""
    twice_area = sum((i1 - i0) * (j0 + j1) for (i0, j0), (i1, j1) in zip(vertices, vertices[1:]))
    return twice_area - vertices[-1][0] - vertices[0][1] + 1


@st.composite
def _convenient_germs(draw):
    """y^a + c*z^b plus up to four terms above the axes; the support meets
    both axes, so the germ is convenient."""
    a, b = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    support = {(a, 0): draw(st.integers(1, 5)), (0, b): draw(st.integers(-5, 5).filter(bool))}
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        if i + j >= 2 and (i, j) not in support:
            support[(i, j)] = draw(st.integers(-6, 6).filter(bool))
    return Germ(support)


def _squarefree(coeffs):
    s = sympy.Symbol("s")
    poly = sympy.Poly(list(reversed(coeffs)), s)
    return sympy.degree(sympy.gcd(poly, poly.diff(s)), s) == 0


@settings(max_examples=300, deadline=None)
@given(_convenient_germs())
@example(parse_germ("y^3 - z^4 + y^2*z^2"))
@example(parse_germ("y^4 + y^2*z^2 + z^4"))
@example(parse_germ("y^2*z + y*z^3 + y^5 + z^6"))
def test_milnor_number_matches_the_newton_number(g):
    # Kouchnirenko (1976): a convenient germ that is nondegenerate for its
    # Newton boundary (every edge polynomial squarefree) has mu = 2V - a - b + 1
    support = g.support
    vertices = _newton_vertices(support)
    assume(all(_squarefree(cs) for cs in _edge_polynomials(support, vertices)))
    try:
        mu = _strict_mu(g)
    except RequiresAlgebraicExtension:
        assume(False)  # no rational model: the strict walk gives no mu to check
    assert mu == _newton_number(vertices), (g, vertices)
    label = _classify(g)
    if label[0] in "ADE":
        assert int(label[1:]) == mu, (g, label)


def test_newton_boundary_of_known_germs():
    g = parse_germ("y^2*z + y*z^3 + y^5 + z^6")
    assert _newton_vertices(g.support) == [(0, 6), (1, 3), (2, 1), (5, 0)]
    assert _newton_number(_newton_vertices(parse_germ("y^3 - z^4").support)) == 6


# ---------------------------------------------------------------------------
# the parser and the constructor against the routes they replaced

_OLD_TOKEN = re.compile(r"\s+|([0-9]+)|([yz^*+()-])|(.)", re.DOTALL)


def _closure_parse(text):
    """parse_germ as it was, with peek/take closures: the expanded
    polynomial, before Germ()."""
    tokens = []
    for number, symbol, illegal in _OLD_TOKEN.findall(text):
        if number:
            try:
                tokens.append(int(number.lstrip("0") or "0"))
            except ValueError:
                raise GermSyntaxError(f"integer of {len(number)} digits is too long") from None
        elif symbol:
            tokens.append(symbol)
        elif illegal:
            raise GermSyntaxError(f"illegal character {illegal!r}")
    if not tokens:
        raise GermSyntaxError("empty input")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        acc = kernel._scale(parse_term(), sign)
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            acc = kernel._add(acc, kernel._scale(parse_term(), sign))
        return acc

    def parse_term():
        tok = peek()
        if isinstance(tok, int):
            take()
            coeff = {(0, 0): tok}
            if peek() == "*":
                take()
            if peek() in ("y", "z", "("):
                acc = kernel._mul(coeff, parse_factor())
            else:
                raise GermSyntaxError("a term needs at least one variable factor")
        elif tok in ("y", "z", "("):
            acc = parse_factor()
        else:
            raise GermSyntaxError(f"unexpected token {tok!r}")
        while peek() == "*":
            take()
            acc = kernel._mul(acc, parse_factor())
        return acc

    def parse_factor():
        tok = take()
        if tok == "(":
            inner = parse_expr()
            if take() != ")":
                raise GermSyntaxError("unbalanced parenthesis")
            return inner
        if tok in ("y", "z"):
            exp = 1
            if peek() == "^":
                take()
                e = take()
                if not isinstance(e, int) or e < 0:
                    raise GermSyntaxError("exponent must be a non-negative integer")
                exp = e
            return {(exp, 0) if tok == "y" else (0, exp): 1}
        raise GermSyntaxError(f"unexpected token {tok!r}")

    result = parse_expr()
    if pos != len(tokens):
        raise GermSyntaxError(f"trailing input at token {tokens[pos]!r}")
    if (0, 0) in result:
        raise GermSyntaxError("a germ must vanish at the origin")
    return result


def _sorted_canonical(support):
    """Germ.__init__ as it was: (support in canonical order, multiplicity,
    hash), normalised in separate passes."""
    items = {(int(i), int(j)): int(c) for (i, j), c in support.items() if c}
    if not items:
        raise ValueError("all terms cancel")
    if any(i < 0 or j < 0 for i, j in items):
        raise ValueError("negative exponent in germ support")
    content = 0
    for c in items.values():
        content = gcd(content, abs(c))
    lead = items[min(items, key=lambda ij: (ij[1], ij[0]))]
    sign = -1 if lead < 0 else 1
    canonical = {ij: c * sign // content
                 for ij, c in sorted(items.items(), key=lambda kv: (kv[0][1], kv[0][0]))}
    return (list(canonical.items()), min(i + j for i, j in items),
            hash(tuple(canonical.items())))


def _germ_view(g):
    return list(g.support.items()), g.multiplicity, hash(g)


def _raised(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:  # GermSyntaxError and "all terms cancel" among them
        return type(exc).__name__, str(exc)
    except RecursionError:  # its text names the frame where the limit was hit
        return "RecursionError", None


@st.composite
def _germ_texts(draw):
    """Texts over the germ alphabet: well-formed terms with stray symbols
    spliced in, or any run of grammar characters, digits and junk."""
    if draw(st.booleans()):
        return draw(st.text(alphabet="yz^*+-() 0123456789x.\t", max_size=24))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.sampled_from(["", "2", "3*", "0", "12*"]))
        factors = [draw(st.sampled_from(["y", "z", "y^2", "z^3", "y^0", "(y - z)", "(y^2 + z)",
                                          "(z^2 - y)", "y^", "(y"]))
                   for _ in range(draw(st.integers(1, 3)))]
        terms.append(coeff + "*".join(factors))
    text = draw(st.sampled_from(["", "-", "+"])) + terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - ", "-", "+"])) + term
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list("yz^*+-()0 x"))) + text[at:]
    return text


@settings(max_examples=500, deadline=None)
@given(_germ_texts())
@example("")
@example("   ")
@example("y +")
@example("y^")
@example("(y^2")
@example("y^2)")
@example("y z")
@example("2 3")
@example("y^0 + y^2")
@example("y^2 - y^2")
@example("9" * 5000 + "*y")
@example("0" * 5000 + "2*y^" + "0" * 5000 + "3")
@example("(" * 2000 + "y" + ")" * 2000)
def test_parser_matches_the_closure_parser(text):
    got = _raised(parse_germ, text)
    want = _raised(_closure_parse, text)
    if want[0] == "ok":
        want = _raised(Germ, want[1])
    elif want[0] == "RecursionError":  # parse_germ names this failure itself
        want = "GermSyntaxError", "parentheses nested too deeply"
    assert got == want, text


def _called_deeper(frames, fn, *args):
    """fn(*args), called the given number of stack frames below the caller."""
    return fn(*args) if frames == 0 else _called_deeper(frames - 1, fn, *args)


@pytest.mark.parametrize("depth", [1, 100, 101, 320])
def test_nesting_verdict_does_not_depend_on_the_callers_stack(depth):
    text = "(" * depth + "y^2 - z^3" + ")" * depth
    want = ("ok", parse_germ("y^2 - z^3")) if depth <= 100 else (
        "GermSyntaxError", "parentheses nested too deeply")
    for frames in (0, 300):
        assert _called_deeper(frames, _raised, parse_germ, text) == want, frames
        fiber = _called_deeper(frames, _raised, CriticalFiber, "F", (text,))
        assert fiber[0] == want[0] and (fiber[0] == "ok" or fiber == want), frames


@pytest.mark.parametrize("depth", [400, 2000, 100_000])
def test_deep_nesting_is_a_syntax_error(depth):
    text = "(" * depth + "y" + ")" * depth
    for read in (parse_germ, lambda text: CriticalFiber("F", (text,))):
        with pytest.raises(GermSyntaxError, match="^parentheses nested too deeply$"):
            read(text)


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-2, 7), st.integers(-2, 7)),
                       st.integers(-12, 12), max_size=6),
       st.integers(1, 6))
@example({}, 1)
@example({(0, 3): 0, (2, 0): 0}, 1)
@example({(0, 3): -4, (2, 0): 6}, 1)
@example({(1, -1): 1, (2, 0): 1}, 1)
def test_constructor_matches_the_sorted_canonical_form(support, content):
    support = {ij: c * content for ij, c in support.items()}
    got = _raised(lambda: _germ_view(Germ(support)))
    assert got == _raised(_sorted_canonical, support)


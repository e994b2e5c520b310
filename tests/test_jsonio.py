"""The JSON boundary: readers never fail with anything but InputError, and
every writer's output reads back to the same object."""

from __future__ import annotations

import copy
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrato import datum as datum_mod, jsonio
from fibrato.bounds import PreconditionViolated
from fibrato.constructions import FAMILY_NAMES, family
from fibrato.germs import Germ, parse_germ
from fibrato.jsonio import (
    InputError,
    audit_input_from_json,
    branch_datum_from_json,
    branch_datum_to_json,
    datum_from_json,
    datum_to_json,
    record_from_json,
    record_to_json,
)

READERS = [record_from_json, audit_input_from_json, datum_from_json, branch_datum_from_json]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _valid_documents():
    fam = family("genus2")
    record = record_to_json(fam.report().invariants)
    record["nodes"] = [0, 1, 2]
    record["profiles"] = [{"g": 2, "g_geo": 1, "l": 1, "delta_counts": {"0": 1}}]
    return [
        (audit_input_from_json, record),
        (record_from_json, record),
        (datum_from_json, datum_to_json(fam.datum)),
        (branch_datum_from_json, branch_datum_to_json(fam.branch)),
    ]


VALID = _valid_documents()


def _paths(value, prefix=()):
    """Every key path into a JSON value, the empty path included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _read_or_input_error(read, doc):
    try:
        read(doc)
    except InputError:
        pass


@settings(max_examples=300, deadline=None)
@given(read=st.sampled_from(READERS), value=JSON_VALUES)
def test_readers_raise_only_input_error_on_any_json(read, value):
    _read_or_input_error(read, value)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_readers_raise_only_input_error_with_one_field_replaced(data, value):
    read, doc = data.draw(st.sampled_from(VALID))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    _read_or_input_error(read, _replace(doc, path, value))


@pytest.mark.parametrize("read, doc", VALID)
def test_valid_documents_read(read, doc):
    read(doc)


def test_record_round_trip_for_every_family():
    count = 0
    for name in FAMILY_NAMES:
        for g in range(2, 42):
            try:
                fam = family(name, g)
            except PreconditionViolated:
                continue
            inv = fam.report().invariants
            assert record_from_json(record_to_json(inv)) == inv, (name, g)
            count += 1
    assert count > 50


def _per_entry_error(entries):
    """The error of a germ list read one entry at a time, or None."""
    for i, value in enumerate(entries):
        where = f"critical_fibers[0].germs[{i}]"
        if type(value) is not str:
            return f"{where} must be a germ string, got {type(value).__name__}"
        try:
            parse_germ(value)
        except ValueError as exc:
            return f"{where}: {exc}"
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["y^2 - z^3", "y^2-z^3", "y^2 - z^4", "y^^2", "0", "y - y",
                                 5, 1, True, 1.0, None, ["y^2"], {}]), max_size=8))
def test_germ_lists_fail_where_a_read_entry_by_entry_fails(entries):
    doc = datum_to_json(family("genus2").datum)
    doc["critical_fibers"][0]["germs"] = entries
    want = _per_entry_error(entries)
    if want is None:
        fib = datum_from_json(doc).critical_fibers[0]
        assert fib.germs == tuple(parse_germ(text) for text in entries)
    else:
        with pytest.raises(InputError) as info:
            datum_from_json(doc)
        assert str(info.value) == want


def test_a_long_germ_list_is_parsed_once_per_run(monkeypatch):
    # odd_genus at g = 100,001 lists 300,008 germ entries in four runs
    doc = datum_to_json(family("odd_genus", 100001).datum)
    texts = []
    parsed = jsonio._parsed
    monkeypatch.setattr(jsonio, "_parsed", lambda text: texts.append(text) or parsed(text))
    start = time.perf_counter()
    d = datum_from_json(doc)
    assert time.perf_counter() - start < 1
    assert len(texts) == 4
    assert [len(fib.germs) for fib in d.critical_fibers] == [2, 100002, 100002, 100002]


def test_the_writer_renders_each_run_of_germs_once(monkeypatch):
    # odd_genus at g = 100,001 lists 300,008 germ entries in four runs
    d = family("odd_genus", 100001).datum
    rendered = []
    render = Germ.__str__
    monkeypatch.setattr(Germ, "__str__", lambda germ: rendered.append(germ) or render(germ))
    doc = datum_to_json(d)
    assert len(rendered) == 4
    assert [len(fib["germs"]) for fib in doc["critical_fibers"]] == [2, 100002, 100002, 100002]
    assert doc["critical_fibers"][1]["germs"][-1] == "y^2 - z^4"


def test_the_reader_hands_each_fiber_its_runs(monkeypatch):
    # a fiber is built from (Germ, count) runs, never from a tuple of entries
    d = family("odd_genus", 101).datum
    doc = datum_to_json(d)
    doc["critical_fibers"].append({"label": "marker", "negligible": True})
    set_entries = datum_mod._Entries.__set__

    def refuse_entries(self, fib, entries):
        assert entries == (), f"a fiber was handed {len(entries)} entries"
        set_entries(self, fib, entries)

    monkeypatch.setattr(datum_mod._Entries, "__set__", refuse_entries)
    fibers = datum_from_json(doc).critical_fibers
    assert [fib._runs for fib in fibers[:-1]] == [fib._runs for fib in d.critical_fibers]
    assert fibers[:-1] == d.critical_fibers
    assert (fibers[-1].germs, fibers[-1].negligible_marker) == ((), True)


@settings(max_examples=300, deadline=None)
@given(st.fractions() | st.integers())
def test_the_rational_writer_inverts_the_reader(x):
    assert jsonio._rational(jsonio._exact(x), "") == x


@pytest.mark.parametrize("text, value", [
    ("79", 79), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)), ("-0/5", 0),
    pytest.param("0" * 5000 + "79", 79, id="padded-integer"),
    pytest.param("-" + "0" * 5000 + "3/" + "0" * 5000 + "4", Fraction(-3, 4), id="padded-p/q"),
])
def test_the_rational_reader_takes_ascii_p_q(text, value):
    assert jsonio._rational(text, "chi") == value


@pytest.mark.parametrize("text", [
    "", "-", "/", "1/", "/2", "1/0", "1/-2", "--1", "+5", " 5", "5 ", "1_0", "1.5", "1/2/3",
    "\u0663", "1/\u0663", pytest.param("9" * 5000, id="long-p"),
    pytest.param("1/" + "9" * 5000, id="long-q"),
])
def test_the_rational_reader_refuses_other_text(text):
    with pytest.raises(InputError) as raised:
        jsonio._rational(text, "chi")
    assert str(raised.value) == f"chi: cannot parse {text!r} as a rational"


def test_the_rational_writer_keeps_null():
    assert jsonio._exact(None) is None

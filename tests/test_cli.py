"""End-to-end tests of the command-line driver.

Most tests call ``fibrato.cli.main`` in-process and inspect the captured
output and the returned exit status (0 pass, 1 check failure, 2 bad input);
the process-level ones start the CLI as a child process.  This module pins
the CLI's contract; CI runs the installed console script only for its exit
codes, stderr and a closed pipe, so a new CLI check belongs here.
"""

from __future__ import annotations

import copy
import functools
import importlib
import io
import json
import operator
import os
import subprocess
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fibrato
from fibrato import datum as datum_mod, fibration as fibration_mod, germs as germs_mod
from fibrato.cli import main
from fibrato.bounds import PreconditionViolated
from fibrato.constructions import FAMILY_NAMES, even_genus, family
from fibrato.datum import CriticalFiber, GenusGDatum
from fibrato.jsonio import (audit_input_from_json, branch_datum_from_json, datum_from_json,
                            datum_to_json)

from test_jsonio import JSON_VALUES, VALID, _paths, _replace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdin(text):
    """A standard input holding text as UTF-8 bytes, as a real one does."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def with_field(doc, path, value):
    """A copy of doc with the field at path (a tuple of keys) set to value."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


# ---------------------------------------------------------------------------
# resolve

def test_resolve_quartic_pair_reports_two_points_and_smooth_terminal(capsys):
    code, out, _ = run(capsys, "resolve", "y^8 - z^4", "--trace")
    assert code == 0
    assert "[4, 4]" in out
    assert "terminal chart smooth: yes" in out
    assert out.count("multiplicity 4") == 2


def test_resolve_json_document(capsys):
    code, out, _ = run(capsys, "resolve", "y^8 - z^4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicities"] == [4, 4]
    assert doc["terminal_smooth"] is True
    assert doc["sum_k_km1"] == 4
    assert doc["sum_km1_sq"] == 2
    assert "trace" not in doc
    assert [(pt["depth"], pt["multiplicity"], pt["k"], pt["count"]) for pt in doc["points"]] == [
        (0, 4, 2, 1), (1, 4, 2, 1)]
    assert [pt["classification"] for pt in doc["points"]] == ["NonNegligibleInterior"] * 2
    code, out, _ = run(capsys, "resolve", "y - z^2", "--json")
    assert code == 0 and json.loads(out)["points"] == []


def test_resolve_a_series_classification(capsys):
    code, out, _ = run(capsys, "resolve", "y^2 - z^6")
    assert code == 0
    assert "classification: A5" in out
    assert "[2, 2, 2]" in out


def test_resolve_a_long_even_binomial_makes_no_taylor_shift(capsys, monkeypatch):
    # at even multiplicity the simple roots v = +-1 of 1 - v^N are smooth
    # points off the even transform, so nothing is shifted and N = 100,000
    # resolves at once
    monkeypatch.setattr(germs_mod, "_shift_second", None)  # any call would fail
    start = time.perf_counter()
    code, out, _ = run(capsys, "resolve", "y^100000 - z^100000")
    assert time.perf_counter() - start < 3
    assert code == 0
    assert "infinitely-near multiplicities: [100000]" in out


def test_resolve_a_long_odd_binomial_makes_no_taylor_shift(capsys, monkeypatch):
    # at odd multiplicity the simple root v = 1 of 1 - v^N is an A1 node of
    # the even transform, like each conjugate root: nothing is shifted and
    # N = 100,001 resolves at once
    monkeypatch.setattr(germs_mod, "_shift_second", None)  # any call would fail
    start = time.perf_counter()
    code, out, _ = run(capsys, "resolve", "y^100001 - z^100001")
    assert time.perf_counter() - start < 3
    assert code == 0
    assert f"infinitely-near multiplicities: {[100001] + [2] * 100001}" in out


def test_resolve_syntax_error_exits_2(capsys):
    code, out, err = run(capsys, "resolve", "y^^2")
    assert code == 2
    assert out == ""
    assert "error:" in err
    # only ASCII digits make an integer; other digits are illegal characters
    for text, message in (("y^\u00b2", "illegal character '\u00b2'"),
                          ("y^2 - z^\u0663", "illegal character '\u0663'"),
                          ("9" * 5000 + "*y^2", "integer of 5000 digits is too long")):
        code, out, err = run(capsys, "resolve", text)
        assert (code, out) == (2, "")
        assert message in err, text


def test_resolve_reads_a_leading_minus_as_a_sign(capsys):
    spaced = run(capsys, "resolve", "-y^2 + z^4", "--json")
    assert spaced[0] == 0
    assert run(capsys, "resolve", "-y^2+z^4", "--json") == spaced
    assert run(capsys, "resolve", "--json", "-y^2+z^4") == spaced
    code, out, _ = run(capsys, "resolve", "-h")
    assert code == 0 and out.startswith("usage: fibrato resolve")


def test_resolve_zero_polynomial_exits_2(capsys):
    code, _, err = run(capsys, "resolve", "0")
    assert code == 2
    assert "error:" in err


def test_resolve_deep_nesting_exits_2(capsys):
    germ = "(" * 2000 + "y" + ")" * 2000
    code, out, err = run(capsys, "resolve", germ)
    assert code == 2
    assert out == ""
    assert err.startswith("error: germ '((((")
    assert err.endswith("': parentheses nested too deeply\n")


def _called_deeper(frames, fn, *args):
    """fn(*args), called the given number of stack frames below the caller."""
    return fn(*args) if frames == 0 else _called_deeper(frames - 1, fn, *args)


@pytest.mark.parametrize("depth", [100, 101, 320])
def test_resolve_and_datum_agree_on_nested_germs_at_any_stack_depth(capsys, tmp_path, depth):
    # the parser caps the nesting by the text alone, so `resolve` and
    # `datum` give one verdict, however deep the caller's stack
    text = "(" * depth + "y^2 - z^3" + ")" * depth
    doc = with_field(datum_to_json(family("genus2").datum), GERMS_0, [text])
    path = write_json(tmp_path, "d.json", doc)
    for argv in (["resolve", text], ["datum", path]):
        outcomes = []
        for frames in (0, 300):
            code = _called_deeper(frames, main, argv)
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv[0]
        code, out, err = outcomes[0]
        if depth <= 100:
            assert code <= 1 and out and not err, argv[0]
        else:
            assert (code, out) == (2, "") and err.endswith(": parentheses nested too deeply\n")


def _child_env(**extra):
    """The environment of a CLI child process that imports this checkout."""
    src = os.path.dirname(os.path.dirname(fibrato.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **extra)


def _fresh_process(*argv, **env):
    """Run the CLI in a new interpreter, so that no memo is warm, with env
    added to its environment.  Each caller's run takes under a second; one
    that outlasts the timeout has stalled."""
    done = subprocess.run([sys.executable, "-m", "fibrato.cli", *argv],
                          capture_output=True, text=True, env=_child_env(**env), timeout=20)
    return done.returncode, done.stdout, done.stderr


def test_resolution_deeper_than_the_recursion_limit_resolves_and_writes_json(
        capsys, monkeypatch, tmp_path):
    # the kernel walks with explicit stacks, so only the cap limits the depth:
    # y^2 - z^2400 has 1,200 points, more than the interpreter's recursion limit
    monkeypatch.setenv("FIBRATO_MAX_DEPTH", "5000")
    deep = "y^2 - z^2400"
    for extra in ([], ["--trace"]):
        code, out, err = run(capsys, "resolve", deep, *extra)
        assert (code, err) == (0, "")
        assert "classification: A2399" in out
    # y^4 - z^4000 is a chain of 1,000 NonNegligibleInterior points
    for text in (deep, "y^4 - z^4000"):
        datum = GenusGDatum(g=2, g_C=1, e=0, n=4, critical_fibers=(CriticalFiber("F", (text,)),))
        code, out, err = run(capsys, "datum", write_json(tmp_path, "deep.json", datum_to_json(datum)))
        assert code in (0, 1) and err == ""
        assert f"F: {text} -> multiplicities" in out
    # the JSON trace is a flat list of points, so a trace of 2,000 points
    # writes, and Python's own reader reads it back
    code, out, err = run(capsys, "resolve", "y^2 - z^4000", "--json")
    assert (code, err) == (0, "")
    points = json.loads(out)["points"]
    assert len(points) == 2000
    assert [pt["depth"] for pt in points] == list(range(2000))
    assert points[0]["classification"] == "A3999"
    # the calls left no wrong memo entry behind
    code, out, err = run(capsys, "resolve", "y^2 - z^1000", "--trace")
    assert code == 0 and "classification: A999" in out
    assert (code, out, err) == _fresh_process("resolve", "y^2 - z^1000", "--trace")
    code, out, err = run(capsys, "resolve", "y^2 - z^4000", "--json")
    assert (code, out, err) == _fresh_process("resolve", "y^2 - z^4000", "--json")


@pytest.mark.parametrize("argv, cap, line", [
    (["resolve", "y^2 - z^20000"], "10001", "classification: A19999"),
    (["example", "even_genus", "--genus", "6000"], "7000", "closed-formula check: match"),
], ids=["resolve-A19999", "even_genus-6000"])
def test_a_chain_of_thousands_of_points_resolves_in_time(argv, cap, line):
    # each germ's even resolution is summed up once, from its points'
    # summaries, and read off them by walks linear in its points, so a
    # negligible chain of 10,000 points labels within the child's timeout; a
    # fresh process keeps the chain out of this one's memos
    code, out, err = _fresh_process(*argv, FIBRATO_MAX_DEPTH=cap)
    assert (code, err) == (0, "")
    assert line in out.splitlines()


def test_two_long_chains_that_share_their_tail_are_charted_once(monkeypatch):
    # y^2 - z^11998 is the first blow-up of y^2 - z^12000: the second fiber
    # resolves from the first one's chart records, 6,000 in all
    monkeypatch.setenv("FIBRATO_MAX_DEPTH", "7000")
    doc = {"schema_version": 1, "g": 2, "g_C": 2, "e": 0, "n": 6, "critical_fibers": [
        {"label": "a", "germs": ["y^2 - z^12000"]}, {"label": "b", "germs": ["y^2 - z^11998"]}]}
    for memo in (germs_mod._strict_points, germs_mod._factors,
                 datum_mod._parsed, datum_mod._resolved, datum_mod._record):
        memo.cache_clear()
    code, out, err = _main_on_stdin(["datum", "-"], json.dumps(doc))
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "audit: FAIL"
    assert germs_mod._strict_points.cache_info().misses == 6000


def test_the_default_cap_bounds_the_even_resolution(capsys, monkeypatch):
    # A129 blows up points down to depth 64, the default cap; A131 down to 65
    monkeypatch.delenv("FIBRATO_MAX_DEPTH", raising=False)
    code, out, err = run(capsys, "resolve", "y^2 - z^130")
    assert (code, err) == (0, "")
    assert "classification: A129" in out.splitlines()
    assert run(capsys, "resolve", "y^2 - z^132") == (
        2, "", "error: germ 'y^2 - z^132': no smooth model within 64 blow-ups\n")


def test_resolve_irrational_point_exits_2(capsys):
    # the even blow-up needs a point over an algebraic extension: the one
    # stderr line is the chart record's verdict
    for germ, verdict in (
            ("z^4 - 4*y^2*z^2 + 4*y^4 + y^5*z^2 - 2*y^7",
             "singular irrational direction (-2, 0, 1) for "
             "4*y^4 - 2*y^7 - 4*y^2*z^2 + y^5*z^2 + z^4"),
            ("y*z^4 - 4*y^3*z^2 + 4*y^5",
             "multiple irrational direction (-2, 0, 1) on E for 4*y^5 - 4*y^3*z^2 + y*z^4")):
        assert run(capsys, "resolve", germ) == (2, "", f"error: germ {germ!r}: {verdict}\n")


def test_resolve_depth_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("FIBRATO_MAX_DEPTH", "2")
    code, _, err = run(capsys, "resolve", "y^2 - z^12")
    assert code == 2
    assert "2" in err

    monkeypatch.setenv("FIBRATO_MAX_DEPTH", "64")
    code, out, _ = run(capsys, "resolve", "y^2 - z^12")
    assert code == 0
    assert "[2, 2, 2, 2, 2, 2]" in out


def test_resolve_rejects_bad_depth_env_var(capsys, monkeypatch):
    # only ASCII digits make the cap, as they make every integer read from
    # text, and no more of them than int() converts
    for raw in ("zero", "0", "1_0", "+5", " 5", "\u0663", "9" * 5000):
        monkeypatch.setenv("FIBRATO_MAX_DEPTH", raw)
        code, out, err = run(capsys, "resolve", "y^2 - z^2")
        assert (code, out) == (2, "")
        assert err == f"error: FIBRATO_MAX_DEPTH must be a positive integer, got {raw!r}\n"


def _main_on_stdin(argv, text=""):
    """main(argv) with text on stdin; hypothesis tests cannot take capsys."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", _stdin(text))
        mp.setattr(sys, "stdout", out)
        mp.setattr(sys, "stderr", err)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _resolve_inputs(draw):
    """Random terms of the germ grammar, nested a little, plus stray characters."""
    def factor(depth):
        if depth < 2 and draw(st.integers(0, 3)) == 0:
            return "(" + expr(depth + 1) + ")"
        exp = draw(st.integers(-1, 12))
        return draw(st.sampled_from("yz")) + (f"^{exp}" if exp >= 0 else "")

    def term(depth):
        coeff = draw(st.integers(0, 99))
        head = f"{coeff}{draw(st.sampled_from(['', '*']))}" if coeff else ""
        return head + "*".join(factor(depth) for _ in range(draw(st.integers(1, 3))))

    def expr(depth):
        text = draw(st.sampled_from(["", "-"])) + term(depth)
        for _ in range(draw(st.integers(0, 3))):
            text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + term(depth)
        return text

    text = expr(0)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list("yz^*+-()0 x/.\t"))) + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(_resolve_inputs())
@example("-y^2+z^4")
def test_resolve_fuzz_exits_cleanly(text):
    # memos stay warm from one example to the next, as in a long-lived process
    code, out, err = _main_on_stdin(["resolve", text, "--json"])
    assert code in (0, 1, 2), text
    if code == 0:
        doc = json.loads(out)
        assert doc["germ"] and isinstance(doc["multiplicities"], list)
    else:
        # a germ error, or argparse's usage error for a text that starts with "--"
        assert out == "" and "error: " in err, text


NON_HYPERBOLIC = datum_to_json(GenusGDatum(g=2, g_C=0, e=0, n=6, critical_fibers=(
    CriticalFiber("b^-1(0)", (), negligible_marker=True),)))
_STDIN_DOCS = [("audit", doc) for read, doc in VALID if read is audit_input_from_json] + [
    ("datum", doc) for read, doc in VALID if read is datum_from_json]
_HURWITZ_DOCS = [("hurwitz", doc) for read, doc in VALID if read is branch_datum_from_json]
VALID_BRANCH = _HURWITZ_DOCS[0][1]


@st.composite
def _stdin_inputs(draw, docs=_STDIN_DOCS):
    """A command and its stdin: a valid document with one field replaced by
    any JSON value, any JSON value alone, or text that may not be JSON."""
    command, doc = draw(st.sampled_from(docs))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return command, draw(st.text(max_size=20))
    if kind == 1:
        return command, json.dumps(draw(JSON_VALUES))
    path = draw(st.sampled_from(list(_paths(doc))))
    return command, json.dumps(_replace(doc, path, draw(JSON_VALUES)))


@settings(max_examples=300, deadline=None)
@given(_stdin_inputs(), st.booleans())
@example(("datum", json.dumps(NON_HYPERBOLIC)), True)
def test_audit_and_datum_fuzz_exit_cleanly(command_and_text, as_json):
    _assert_stdin_command_exits_cleanly(command_and_text, as_json)


@settings(max_examples=300, deadline=None)
@given(_stdin_inputs(_HURWITZ_DOCS), st.booleans())
@example(("hurwitz", json.dumps({**VALID_BRANCH, "d": 10 ** 30})), True)
def test_hurwitz_fuzz_exits_cleanly(command_and_text, as_json):
    _assert_stdin_command_exits_cleanly(command_and_text, as_json)


def _assert_stdin_command_exits_cleanly(command_and_text, as_json):
    command, text = command_and_text
    code, out, err = _main_on_stdin([command, "-"] + ["--json"] * as_json, text)
    assert code in (0, 1, 2), text
    if code == 2:
        assert err.startswith("error: "), text
    elif as_json:
        assert isinstance(json.loads(out), dict), text


# ---------------------------------------------------------------------------
# example

def test_example_even_genus_6_prints_chi_and_speed(capsys):
    code, out, _ = run(capsys, "example", "even_genus", "--genus", "6")
    assert code == 0
    assert "chi = 30" in out
    assert "30/7" in out
    assert "4.286" in out
    assert "semistable: yes" in out
    assert "match" in out


def test_example_fixed_genus_family_needs_no_genus_flag(capsys):
    code, out, _ = run(capsys, "example", "genus2")
    assert code == 0
    assert "8/5" in out


def test_example_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "example", "quintic", "--genus", "6")
    assert code == 2
    assert "error:" in err


def test_example_missing_genus_exits_2(capsys):
    code, _, err = run(capsys, "example", "odd_genus")
    assert code == 2
    assert "error:" in err


def test_example_wrong_parity_exits_2(capsys):
    code, _, err = run(capsys, "example", "even_genus", "--genus", "7")
    assert code == 2
    assert "error:" in err


def test_example_past_the_depth_cap_exits_2(capsys, monkeypatch):
    # even_genus(66) blows up points down to depth 66, past the default cap
    code, out, err = run(capsys, "example", "even_genus", "--genus", "66")
    assert (code, out, err) == (2, "", "error: example: no smooth model within 64 blow-ups\n")
    monkeypatch.setenv("FIBRATO_MAX_DEPTH", "200")
    code, out, _ = run(capsys, "example", "even_genus", "--genus", "66")
    assert code == 0
    assert "closed-formula check: match" in out


def test_emitted_datum_at_the_depth_cap_resolves(capsys):
    # even_genus(64) blows up points down to depth 64, the default cap: the
    # datum it emits resolves through `datum -` to the same invariants
    code, report, _ = run(capsys, "example", "even_genus", "--genus", "64")
    assert code == 0
    code, doc, _ = run(capsys, "example", "even_genus", "--genus", "64", "--emit-json")
    assert code == 0
    code, out, err = _main_on_stdin(["datum", "-"], doc)
    assert (code, err) == (0, "")
    lines = [line for line in report.splitlines() if line.startswith(("chi = ", "speed L = "))]
    assert len(lines) == 2
    assert set(lines) <= set(out.splitlines())


@pytest.mark.parametrize("name, genus", [
    ("odd_genus", 100000001), ("mod4_0", 100000000), ("mod4_1", 100000001),
    ("mod6_1", 100000003), ("even_genus", 100000000),
    ("even_genus", 20000), ("even_genus", 100000), ("odd_genus", 10 ** 18 + 1),
    pytest.param("odd_genus", int("9" * 4300), id="odd_genus-4300-nines")])
@pytest.mark.parametrize("flags", [[], ["--json"], ["--emit-json"]])
def test_every_family_past_the_depth_cap_exits_2_at_once(name, genus, flags):
    # the closed-form depth is checked before any germ entry is spelled out,
    # and a datum that `datum` could not resolve under the cap is not emitted
    start = time.perf_counter()
    code, out, err = _main_on_stdin(["example", name, "--genus", str(genus)] + flags)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: example: no smooth model within 64 blow-ups\n")


# A run that takes longer than this fails the fuzz tests below: the genera
# drawn reach past the depth cap, where a run must stop early, not stall.
RUN_BOUND = timedelta(seconds=20)


@settings(max_examples=150, deadline=RUN_BOUND)
@given(st.sampled_from(FAMILY_NAMES),
       st.integers(-3, 70) | st.integers(-10 ** 4, 10 ** 4) | st.integers(-10 ** 30, 10 ** 30),
       st.sampled_from([[], ["--json"], ["--emit-json"]]))
@example("even_genus", 100000, [])
@example("even_genus", 64, ["--json"])
@example("odd_genus", 10 ** 30 + 1, ["--emit-json"])
@example("odd_genus", int("9" * 4300), [])
def test_example_exits_cleanly(name, genus, flags):
    code, out, err = _main_on_stdin(["example", name, "--genus", str(genus)] + flags)
    assert code in (0, 1, 2), (name, genus)
    if code == 0 and flags == ["--json"]:
        assert json.loads(out)["genus"] == genus
    if code == 0 and flags == ["--emit-json"]:
        assert datum_from_json(json.loads(out)).g == genus
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_example_json_reports_match(capsys):
    code, out, _ = run(capsys, "example", "mod4_0", "--genus", "8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["matches"] is True
    assert doc["semistable"]["passed"] is True
    assert doc["computed"]["speed"] == doc["expected"]["speed"] == "6"


EXAMPLE_INSTANCES = [
    ("genus2", None),
    ("genus3", None),
    ("odd_genus", 5),
    ("odd_genus", 9),
    ("even_genus", 4),
    ("even_genus", 6),
    ("mod4_0", 8),
    ("mod4_1", 13),
    ("mod6_1", 7),
]


@pytest.mark.parametrize("name,genus", EXAMPLE_INSTANCES)
def test_emit_json_pipes_into_datum_with_identical_invariants(
        capsys, monkeypatch, name, genus):
    argv = ["example", name, "--emit-json"]
    if genus is not None:
        argv += ["--genus", str(genus)]
    code = main(argv)
    emitted = capsys.readouterr().out
    assert code == 0

    monkeypatch.setattr("sys.stdin", _stdin(emitted))
    code = main(["datum", "-", "--json"])
    datum_doc = json.loads(capsys.readouterr().out)
    assert code == 0

    code = main(["example", name, "--json"]
                + ([] if genus is None else ["--genus", str(genus)]))
    example_doc = json.loads(capsys.readouterr().out)
    assert code == 0

    assert datum_doc["invariants"] == example_doc["computed"]
    assert datum_doc["semistable"]["passed"] is True


@pytest.mark.parametrize("name,genus", EXAMPLE_INSTANCES)
def test_example_record_block_passes_audit(capsys, tmp_path, name, genus):
    argv = ["example", name, "--json"] + ([] if genus is None else ["--genus", str(genus)])
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)["computed"]["record"]
    code, out, _ = run(capsys, "audit", write_json(tmp_path, "rec.json", record))
    assert code == 0
    assert "audit: pass" in out
    code, out, err = _main_on_stdin(["audit", "-", "--json"], json.dumps(record))
    assert (code, err) == (0, "")
    assert json.loads(out)["schema_version"] == 1


# ---------------------------------------------------------------------------
# tables

def test_tables_2_markdown_golden_row(capsys):
    code, out, _ = run(capsys, "tables", "2", "--format", "md")
    assert code == 0
    for cell in ["2.667", "3.5", "4", "5.778", "6.667", "7.556", "8.444",
                 "9.333", "10.222"]:
        assert cell in out
    assert out.count("**Table") == 1


def test_tables_all_markdown_has_three_tables(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "**Table 1.**" in out
    assert "**Table 2.**" in out
    assert "**Table 3.**" in out


def test_tables_all_csv_single_header(capsys):
    code, out, _ = run(capsys, "tables", "all", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "table,row,g,exact,decimal"
    assert sum(1 for l in lines if l.startswith("table,")) == 1
    assert "3,best known,6,30/7,4.286" in lines


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    [t] = doc["tables"]
    assert t["table"] == 1
    assert t["genera"] == [2, 3, 4, 5, 6, 7, 8]
    assert t["rows"][0]["cells"][0] == {"exact": "17/9", "decimal": "1.889"}


def test_tables_rejects_unknown_table(capsys):
    code, _, _ = run(capsys, "tables", "4")
    assert code == 2


# ---------------------------------------------------------------------------
# audit

GOOD_RECORD = {"schema_version": 1, "g": 3, "g_C": 0, "s": 5,
               "chi": 3, "omega_sq": 8, "delta": 28, "hyperelliptic": True}


def test_audit_passing_record_exits_0(capsys, tmp_path):
    path = write_json(tmp_path, "rec.json", GOOD_RECORD)
    code, out, _ = run(capsys, "audit", path)
    assert code == 0
    assert "audit: pass" in out
    assert "noether-identity" in out


def test_audit_forged_record_exits_1(capsys, tmp_path):
    forged = dict(GOOD_RECORD, delta=40)
    path = write_json(tmp_path, "rec.json", forged)
    code, out, _ = run(capsys, "audit", path)
    assert code == 1
    assert "fail" in out
    assert "noether-identity" in out


def test_audit_accepts_rational_strings(capsys, tmp_path):
    rec = dict(GOOD_RECORD, chi="3", omega_sq="8", delta="28")
    path = write_json(tmp_path, "rec.json", rec)
    code, _, _ = run(capsys, "audit", path)
    assert code == 0


def test_audit_with_nodes_and_profiles(capsys, tmp_path):
    rec = dict(GOOD_RECORD)
    rec["nodes"] = [0, 1, 2, 3, 4]
    rec["profiles"] = [
        {"g": 3, "g_geo": 2, "l": 1, "delta_counts": {"0": 1}},
    ]
    path = write_json(tmp_path, "rec.json", rec)
    code, out, _ = run(capsys, "audit", path, "--json")
    assert code == 0
    doc = json.loads(out)
    names = [c["check"] for c in doc["checks"]]
    assert "node-ratio" in names
    assert "fiber-profile-0" in names


def test_audit_missing_field_exits_2(capsys, tmp_path):
    rec = {k: v for k, v in GOOD_RECORD.items() if k != "delta"}
    path = write_json(tmp_path, "rec.json", rec)
    code, _, err = run(capsys, "audit", path)
    assert code == 2
    assert "'delta'" in err


def test_audit_wrong_schema_version_exits_2(capsys, tmp_path):
    rec = dict(GOOD_RECORD, schema_version=7)
    path = write_json(tmp_path, "rec.json", rec)
    code, _, err = run(capsys, "audit", path)
    assert code == 2
    assert "schema_version" in err


def test_audit_invalid_json_reports_location(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"g": 3,\n  "oops"\n}')
    code, _, err = run(capsys, "audit", str(path))
    assert code == 2
    assert "broken.json:3:1:" in err
    assert "invalid JSON" in err


def test_audit_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "audit", "/no/such/record.json")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("path", ["bad.json", "-"], ids=["file", "stdin"])
def test_input_that_is_not_utf8_exits_2(capsys, monkeypatch, tmp_path, path):
    raw = b"\xff\xfe{}"
    (tmp_path / "bad.json").write_bytes(raw)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    name = "<stdin>" if path == "-" else path
    code, out, err = run(capsys, "datum", path)
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read {name}: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")


def test_stdin_that_is_not_utf8_exits_2_under_the_c_locale():
    # the C locale gives the interpreter's own stdin the surrogateescape
    # handler; the reader decodes the bytes strictly, as it does a file
    env = {k: v for k, v in _child_env(LC_ALL="C").items() if k != "PYTHONIOENCODING"}
    for command in ("datum", "hurwitz"):
        done = subprocess.run([sys.executable, "-m", "fibrato.cli", command, "-"],
                              input=b"\xff\xfe{}", capture_output=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (2, b""), command
        assert done.stderr == (b"error: cannot read <stdin>: 'utf-8' codec can't decode byte "
                               b"0xff in position 0: invalid start byte\n")


# ---------------------------------------------------------------------------
# hurwitz

TRIPLE_COVER = {"schema_version": 1, "g_source": None, "g_target": 0,
                "m": 3, "d": 3, "partitions": [[3], [3], [3]]}


def test_hurwitz_solves_and_reports_realizable(capsys, tmp_path):
    path = write_json(tmp_path, "b.json", TRIPLE_COVER)
    code, out, _ = run(capsys, "hurwitz", path)
    assert code == 0
    assert "source genus: 1" in out
    assert "Realizable" in out


def test_hurwitz_declared_genus_mismatch_exits_1(capsys, tmp_path):
    bad = dict(TRIPLE_COVER, g_source=2)
    path = write_json(tmp_path, "b.json", bad)
    code, out, _ = run(capsys, "hurwitz", path)
    assert code == 1
    assert "disagrees" in out


def test_hurwitz_negative_genus_exits_1(capsys, tmp_path):
    bad = {"schema_version": 1, "g_source": None, "g_target": 0,
           "m": 1, "d": 4, "partitions": [[2, 2]]}
    path = write_json(tmp_path, "b.json", bad)
    code, out, _ = run(capsys, "hurwitz", path)
    assert code == 1
    assert "compatible: NO" in out


def test_hurwitz_json_document(capsys, tmp_path):
    path = write_json(tmp_path, "b.json", TRIPLE_COVER)
    code, out, _ = run(capsys, "hurwitz", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["compatible"] is True
    assert doc["solved_source_genus"] == 1
    assert doc["realizability"] == "Realizable"


def test_hurwitz_malformed_partitions_exit_2(capsys, tmp_path):
    bad = dict(TRIPLE_COVER, partitions=[[3], [3], [2]])
    path = write_json(tmp_path, "b.json", bad)
    code, _, err = run(capsys, "hurwitz", path)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("field, value, name", [
    ("d", "3", "d"),
    ("m", 3.0, "m"),
    ("g_target", None, "g_target"),
    ("g_source", True, "g_source"),
    ("partitions", [[3], ["3"], [3]], "partitions[1][0]"),
    ("partitions", [[3], [1.5, 1.5], [3]], "partitions[1][0]"),
    ("d", [3], "d"),
])
def test_hurwitz_non_integer_field_is_named(capsys, tmp_path, field, value, name):
    path = write_json(tmp_path, "b.json", dict(TRIPLE_COVER, **{field: value}))
    code, _, err = run(capsys, "hurwitz", path)
    assert code == 2
    assert f"branch datum: {name} must be an integer" in err


def test_hurwitz_partitions_must_be_lists(capsys, tmp_path):
    # the message names the element that is not a list
    for partitions, name in (([3, 3, 3], "partitions[0]"), ([[2], 3], "partitions[1]")):
        path = write_json(tmp_path, "b.json", dict(TRIPLE_COVER, partitions=partitions))
        assert run(capsys, "hurwitz", path) == (
            2, "", f"error: branch datum: {name} must be a list, got int\n")


# ---------------------------------------------------------------------------
# datum

def _family_datum_file(tmp_path, name, genus=None):
    fam = family(name, genus)
    return write_json(tmp_path, "d.json", datum_to_json(fam.datum))


def test_datum_family_file_passes(capsys, tmp_path):
    path = _family_datum_file(tmp_path, "odd_genus", 7)
    code, out, _ = run(capsys, "datum", path)
    assert code == 0
    assert "validation: ok" in out
    assert "chi = 10" in out
    assert "speed L = 5" in out
    assert "semistable: yes" in out
    assert "audit: pass" in out


def test_datum_residual_e6_fails_semistable_check(capsys, tmp_path):
    d = GenusGDatum(g=6, g_C=1, e=0, n=4, critical_fibers=(
        CriticalFiber("b^-1(0)", ("y^7 - z^4",)),))
    path = write_json(tmp_path, "d.json", datum_to_json(d))
    code, out, _ = run(capsys, "datum", path)
    assert code == 1
    assert "semistable: NO" in out
    assert "E6" in out


def test_datum_quartic_pair_keeps_semistability(capsys, tmp_path):
    d = GenusGDatum(g=8, g_C=1, e=0, n=4, critical_fibers=(
        CriticalFiber("b^-1(0)", ("y^9 - z^4",)),))
    path = write_json(tmp_path, "d.json", datum_to_json(d))
    code, out, _ = run(capsys, "datum", path)
    assert "semistable: yes" in out


def test_datum_header_counts_one_critical_fiber_in_the_singular():
    doc = {"g": 2, "g_C": 1, "e": 0, "n": 4,
           "critical_fibers": [{"label": "a", "germs": ["y^2 - z^2"]}]}
    _, out, err = _main_on_stdin(["datum", "-"], json.dumps(doc))
    assert err == ""
    assert out.splitlines()[0].endswith("; 1 critical fiber")


def test_datum_validation_violation_exits_1(capsys, tmp_path):
    d = GenusGDatum(g=3, g_C=1, e=1, n=3, critical_fibers=(
        CriticalFiber("b^-1(0)", ("y^2 - z^2",)),))
    path = write_json(tmp_path, "d.json", datum_to_json(d))
    code, out, _ = run(capsys, "datum", path)
    assert code == 1
    assert "validation: FAILED" in out


def test_datum_non_hyperbolic_quotient_exits_1(capsys, tmp_path):
    path = write_json(tmp_path, "d.json", NON_HYPERBOLIC)
    code, out, _ = run(capsys, "datum", path)
    assert code == 1
    assert "speed undefined" in out
    code, out, _ = run(capsys, "datum", path, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["violations"] == []
    assert doc["failure"] == "speed undefined: base orbifold Euler number 1 >= 0"


# fails validation: (g+1)*e + n = 7 is odd, and e = 1 exceeds n/(g+1)
ODD_BRANCH_CLASS = GenusGDatum(g=3, g_C=1, e=1, n=3, critical_fibers=(
    CriticalFiber("b^-1(0)", ("y^2 - z^2",)),))


def test_datum_validates_once_per_run(capsys, monkeypatch, tmp_path):
    calls = []
    validate = datum_mod.validate

    def counting(d):
        calls.append(d)
        return validate(d)

    monkeypatch.setattr(datum_mod, "validate", counting)
    valid = _family_datum_file(tmp_path, "odd_genus", 7)
    invalid = write_json(tmp_path, "bad.json", datum_to_json(ODD_BRANCH_CLASS))
    for path, expected in ((valid, 0), (invalid, 1)):
        calls.clear()
        assert run(capsys, "datum", path)[0] == expected
        assert len(calls) == 1


def test_datum_value_error_prints_its_own_text(capsys, monkeypatch, tmp_path):
    # only size errors read "input too large to allocate"
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(datum_mod, "invariants", boom)
    path = _family_datum_file(tmp_path, "genus2")
    assert run(capsys, "datum", path) == (2, "", "error: datum: boom\n")


def test_invalid_datum_under_a_bad_depth_cap_names_the_cap(capsys, monkeypatch, tmp_path):
    # the cap is read before the datum is validated
    monkeypatch.setenv("FIBRATO_MAX_DEPTH", "0")
    path = write_json(tmp_path, "d.json", datum_to_json(ODD_BRANCH_CLASS))
    assert run(capsys, "datum", path) == (
        2, "", "error: FIBRATO_MAX_DEPTH must be a positive integer, got '0'\n")


CHI0_DATUM = {"schema_version": 1, "g": 2, "g_C": 1, "e": 0, "n": 2,
              "critical_fibers": [{"label": "c", "germs": ["y^4 - z^4", "y^4 - z^4"]},
                                  {"label": "m", "germs": [], "negligible": True}]}


def test_datum_chi_zero_reports_undefined_slope(capsys, tmp_path):
    path = write_json(tmp_path, "d.json", CHI0_DATUM)
    code, out, err = run(capsys, "datum", path, "--json")
    assert code in (0, 1)
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["invariants"]["record"]["chi"] == "0"
    assert doc["invariants"]["slope"] is None
    code, out, err = run(capsys, "datum", path)
    assert code in (0, 1)
    assert "chi = 0\n" in out
    assert "slope = undefined (chi = 0)" in out


GERMS_0 = ("critical_fibers", 0, "germs")


@pytest.mark.parametrize("field, value, message", [
    pytest.param(GERMS_0, [5], "critical_fibers[0].germs[0] must be a germ string, got int",
                 id="germ-int"),
    pytest.param(GERMS_0, ["y^2 - z^4", None],
                 "critical_fibers[0].germs[1] must be a germ string, got NoneType",
                 id="germ-null"),
    pytest.param(GERMS_0, "y^2 - z^4", "critical_fibers[0].germs must be a list",
                 id="germs-str"),
    pytest.param(("g",), [2], "datum: g must be an integer, got list", id="g-list"),
    pytest.param(("g",), None, "datum: g must be an integer, got NoneType", id="g-null"),
    pytest.param(("g",), 2.9, "datum: g must be an integer, got float", id="g-float"),
    pytest.param(("g",), "3", "datum: g must be an integer, got str", id="g-str"),
    pytest.param(("n",), True, "datum: n must be an integer, got bool", id="n-bool"),
])
def test_datum_malformed_germ_entry_exits_2(capsys, tmp_path, field, value, message):
    doc = with_field(datum_to_json(family("genus2").datum), field, value)
    path = write_json(tmp_path, "d.json", doc)
    code, _, err = run(capsys, "datum", path)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_germ_with_a_constant_term_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "resolve", "y^0 + y^2")
    assert (code, out) == (2, "")
    assert "a germ must vanish at the origin" in err
    doc = with_field(datum_to_json(family("genus2").datum), GERMS_0, ["y^0 + y^2"])
    code, out, err = run(capsys, "datum", write_json(tmp_path, "d.json", doc))
    assert (code, out) == (2, "")
    assert "datum: critical_fibers[0].germs[0]: a germ must vanish at the origin" in err


PROFILED_RECORD = dict(GOOD_RECORD, profiles=[
    {"g": 3, "g_geo": 2, "l": 1, "delta_counts": {"0": 1}}])
COUNT_0 = ("profiles", 0, "delta_counts", "0")


@pytest.mark.parametrize("command, field, value, message", [
    ("datum", ("critical_fibers", 0, "negligible"), "false",
     "datum: critical_fibers[0].negligible must be true or false"),
    ("datum", ("simple_ramification",), "false",
     "datum: simple_ramification must be true or false"),
    ("datum", ("c0_in_branch",), "false", "datum: c0_in_branch must be true or false"),
    ("audit", ("hyperelliptic",), "false", "record: hyperelliptic must be true or false"),
    ("audit", ("semistable",), "false", "record: semistable must be true or false"),
    ("audit", COUNT_0, None, "record: profiles[0].delta_counts['0'] must be an integer"),
    ("audit", COUNT_0, 1.5, "record: profiles[0].delta_counts['0'] must be an integer"),
    ("audit", COUNT_0[:-1], {"x": 1},
     "record: profiles[0].delta_counts: key 'x' is not a non-negative integer"),
    ("audit", COUNT_0[:-1], {"9" * 5000: 1}, "is not a non-negative integer"),
    ("datum", GERMS_0, ["(" * 2000 + "y" + ")" * 2000],
     "datum: critical_fibers[0].germs[0]: parentheses nested too deeply"),
    ("audit", ("chi",), "1.5", "record: chi: cannot parse '1.5' as a rational"),
    ("audit", ("chi",), "1/0", "record: chi: cannot parse '1/0' as a rational"),
    ("hurwitz", ("g_target",), -1, "branch datum: target genus must be non-negative"),
], ids=["negligible", "simple_ramification", "c0_in_branch", "hyperelliptic", "semistable",
        "count-null", "count-float", "count-key", "count-long-key", "germ-deep", "chi-decimal",
        "chi-zero-denominator", "negative-target-genus"])
def test_malformed_field_exits_2_and_is_named(capsys, tmp_path, command, field, value,
                                              message):
    doc = {"datum": datum_to_json(family("genus2").datum), "audit": PROFILED_RECORD,
           "hurwitz": TRIPLE_COVER}[command]
    path = write_json(tmp_path, "doc.json", with_field(doc, field, value))
    code, out, err = run(capsys, command, path)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("text", ["9" * 5000, "[" * 100000], ids=["digits", "nesting"])
def test_unreadable_json_exits_2(capsys, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, _, err = run(capsys, "audit", str(path))
    assert code == 2
    assert "unreadable JSON" in err


def test_datum_reads_stdin_dash(capsys, monkeypatch, tmp_path):
    fam = family("genus3")
    text = json.dumps(datum_to_json(fam.datum))
    monkeypatch.setattr("sys.stdin", _stdin(text))
    code, out, _ = run(capsys, "datum", "-")
    assert code == 0
    assert "8/3" in out


def test_datum_schema_version_rejected(capsys, tmp_path):
    fam = family("genus2")
    doc = datum_to_json(fam.datum)
    doc["schema_version"] = 99
    path = write_json(tmp_path, "d.json", doc)
    code, _, err = run(capsys, "datum", path)
    assert code == 2
    assert err == "error: datum: unsupported schema_version 99 (expected 1)\n"


def test_datum_missing_field_context(capsys, tmp_path):
    doc = datum_to_json(family("genus2").datum)
    del doc["n"]
    path = write_json(tmp_path, "d.json", doc)
    code, _, err = run(capsys, "datum", path)
    assert code == 2
    assert "'n'" in err


# ---------------------------------------------------------------------------
# inputs too large to allocate

# Exponents and genera far past what any list can hold fail at once: 10^13
# with MemoryError, 10^20 with OverflowError.  Sizes from 10^8 to 10^12 would
# allocate gigabytes before they fail, so none is used here.  A family at
# such a genus is past any usual depth cap and fails on the cap first, so the
# example cases raise the cap and emit the datum, whose entries are spelled
# out one by one.
_HUGE_GERMS = ["y^10000000000000 - z^10000000000000",
               "y^100000000000000000000 - z^100000000000000000000"]


def _datum_doc(germ):
    return json.dumps({"schema_version": 1, "g": 2, "g_C": 2, "e": 0, "n": 6,
                       "critical_fibers": [{"label": "F", "germs": [germ]}]})


# Every value below is within the reader's limit of 4,300 digits, but a value
# computed from them is not, so it cannot be written out as text.
_NINES = int("9" * 4290)
_LONG_RESULTS = {
    "audit": {"schema_version": 1, "g": _NINES, "g_C": 1, "s": 10 ** 100,
              "chi": "1", "omega_sq": "1", "delta": "11"},
    "datum": {"schema_version": 1, "g": _NINES, "g_C": 1, "e": 0, "n": 10 ** 100,
              "critical_fibers": [{"label": "a", "germs": ["y^2 - z^2"]}]},
    "hurwitz": {"schema_version": 1, "g_source": None, "g_target": 10 ** 100, "m": 1,
                "d": _NINES, "partitions": [[_NINES]]},
}
# The same, in a verdict text built before anything is printed: the parity
# sums (g+1)*e + n of a datum and m*d - parts of a branch datum, and the
# solved genus set against a declared one.
_LONG_VERDICTS = {
    "datum-parity": ("datum", {**_LONG_RESULTS["datum"], "e": 10 ** 20, "n": 1}),
    "hurwitz-parity": ("hurwitz", {"schema_version": 1, "g_source": None, "g_target": 0,
                                   "m": 3, "d": 4 * 10 ** 4299,
                                   "partitions": [[4 * 10 ** 4299]] * 3}),
    "hurwitz-declared": ("hurwitz", {**_LONG_RESULTS["hurwitz"], "g_source": 0}),
}


@pytest.mark.parametrize("argv, text, message", [
    *[(["resolve", germ], "", f"germ {germ!r}: input too large to allocate")
      for germ in _HUGE_GERMS],
    *[(["datum", "-"], _datum_doc(germ), "datum: input too large to allocate")
      for germ in _HUGE_GERMS],
    *[(["example", "odd_genus", "--genus", genus, "--emit-json"], "",
       "example: input too large to allocate")
      for genus in ("1000000000000000001", "100000000000000000001")],
    *[([command, "-", *flag], json.dumps(doc), f"{command}: input too large to allocate")
      for command, doc in _LONG_RESULTS.items() for flag in ([], ["--json"])],
    *[([command, "-"], json.dumps(doc), f"{command}: input too large to allocate")
      for command, doc in _LONG_VERDICTS.values()],
    *[([command, "-", "--json"], json.dumps(doc), f"{command}: input too large to allocate")
      for command, doc in _LONG_VERDICTS.values()],
], ids=["resolve-1e13", "resolve-1e20", "datum-1e13", "datum-1e20",
        "example-1e18", "example-1e20",
        *[f"{command}{flag}-long-result" for command in _LONG_RESULTS
          for flag in ("", "-json")],
        *[f"{case}-long-result" for case in _LONG_VERDICTS],
        *[f"{case}-json-long-result" for case in _LONG_VERDICTS]])
def test_input_too_large_to_allocate_exits_2(argv, text, message, monkeypatch):
    monkeypatch.setenv("FIBRATO_MAX_DEPTH", str(10 ** 30))
    start = time.perf_counter()
    code, out, err = _main_on_stdin(argv, text)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# search

def test_search_runs_and_reports_honestly(capsys):
    code, out, _ = run(capsys, "search", "--genus", "3", "--max-n", "6",
                       "--germ-grid", "4x4")
    assert code == 0
    assert "experimental" in out
    assert "best known" in out
    assert "8/3" in out


def test_search_json_candidates_are_all_checked(capsys):
    code, out, _ = run(capsys, "search", "--genus", "2", "--max-n", "6",
                       "--germ-grid", "3x5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["experimental"] is True
    assert all(c["semistable"] is True for c in doc["candidates"])
    assert doc["best_known"]["value"] == "8/5"


def test_search_counts_chi_zero_rejections(capsys):
    code, out, _ = run(capsys, "search", "--genus", "6", "--max-n", "16",
                       "--germ-grid", "8x8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rejected"]["chi <= 0"] > 0
    assert all(c["chi"] != "0" and c["slope"] != "None" for c in doc["candidates"])


def test_search_decides_each_distinct_record_once(capsys, monkeypatch):
    # the 8x8 sweep at genus 6 builds 392 records, 57 of them distinct, and
    # audits 310 of them, 31 distinct: each distinct one is built once, and
    # every repeat is a memo hit that hands back the same record object, so
    # its record checks are decided once, on that object
    audits, decided = [], []
    audit, decide = fibration_mod.audit, fibration_mod._record_checks
    monkeypatch.setattr(fibration_mod, "audit", lambda inv: audits.append(inv) or audit(inv))
    monkeypatch.setattr(fibration_mod, "_record_checks",
                        lambda inv: decided.append(inv) or decide(inv))
    datum_mod._record.cache_clear()
    assert run(capsys, "search", "--genus", "6", "--max-n", "16", "--germ-grid", "8x8")[0] == 0
    info = datum_mod._record.cache_info()
    assert (info.hits + info.misses, info.misses) == (392, 57)
    assert (len(audits), len(decided)) == (310, 31)
    assert len({id(inv) for inv in audits}) == 31


def test_search_bad_grid_spec_exits_2(capsys):
    # only ASCII digits make a bound, and nothing may follow the second one
    for spec in ("banana", "\u0663x3", "3x3\n"):
        assert run(capsys, "search", "--genus", "3", "--max-n", "6", "--germ-grid", spec) == (
            2, "", f"error: germ grid spec {spec!r} must look like 'AxB' (e.g. 6x6)\n")


def test_search_grid_bound_past_the_digit_limit_is_out_of_range(capsys):
    # a bound with more digits than int() converts is out of range like any
    # other, and leading zeros do not count
    for spec in ("9" * 5000 + "x3", "3x" + "9" * 5000):
        assert run(capsys, "search", "--genus", "4", "--max-n", "8", "--germ-grid", spec) == (
            2, "", "error: germ grid bounds must lie in 2..16\n")
    code, out, err = run(capsys, "search", "--genus", "4", "--max-n", "8",
                         "--germ-grid", "0" * 5000 + "3x3")
    assert (code, err) == (0, "")
    assert "germs y^a - z^b with a <= 3, b <= 3" in out


@pytest.mark.parametrize("text", ["\u0666", "1_0", "+8", " 6", "abc"])
@pytest.mark.parametrize("argv", [
    ["example", "even_genus", "--genus"],
    ["search", "--max-n", "8", "--germ-grid", "3x3", "--genus"],
    ["search", "--genus", "4", "--germ-grid", "3x3", "--max-n"],
], ids=["example-genus", "search-genus", "search-max-n"])
def test_integer_options_take_only_ascii_digits(capsys, argv, text):
    # argparse's usage error, as for any text that is not an integer
    code, out, err = run(capsys, *argv, text)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: fibrato {argv[0]} ")
    assert err.splitlines()[-1] == (
        f"fibrato {argv[0]}: error: argument {argv[-1]}: invalid int value: {text!r}")


def test_example_genus_keeps_a_leading_minus(capsys):
    assert run(capsys, "example", "odd_genus", "--genus", "-3") == (
        2, "", "error: odd_genus requires odd g >= 5, got -3\n")


def test_search_genus_below_2_exits_2(capsys):
    for genus in ("1", "-3"):
        assert run(capsys, "search", "--genus", genus, "--max-n", "4",
                   "--germ-grid", "3x3") == (2, "", "error: --genus must be at least 2\n")


def _max_depth_env(text, tmp_path, monkeypatch):
    monkeypatch.setenv("FIBRATO_MAX_DEPTH", text)
    return ["resolve", "y^2 - z^4"]


def _audit_file(doc):
    return lambda text, tmp_path, monkeypatch: ["audit", write_json(tmp_path, "r.json", doc(text))]


# Each boundary where an integer enters as text: the unpadded value, the
# argv that reads a text there, and the error line for one that is too long.
@pytest.mark.parametrize("value, argv, line", [
    ("5", _max_depth_env, "error: FIBRATO_MAX_DEPTH must be a positive integer, got {!r}"),
    ("6", lambda text, *_: ["example", "even_genus", "--genus", text],
     "fibrato example: error: argument --genus: invalid int value: {!r}"),
    ("4", lambda text, *_: ["search", "--genus", text, "--max-n", "4", "--germ-grid", "3x3"],
     "fibrato search: error: argument --genus: invalid int value: {!r}"),
    ("4", lambda text, *_: ["search", "--genus", "4", "--max-n", text, "--germ-grid", "3x3"],
     "fibrato search: error: argument --max-n: invalid int value: {!r}"),
    ("3", lambda text, *_: ["search", "--genus", "4", "--max-n", "4", "--germ-grid", text + "x3"],
     "error: germ grid bounds must lie in 2..16"),
    ("4", lambda text, *_: ["resolve", f"y^2 - z^{text}"],
     "error: germ 'y^2 - z^{}': integer of 5000 digits is too long"),
    ("79", _audit_file(lambda text: dict(GOOD_RECORD, chi=text)),
     "error: record: chi: cannot parse {!r} as a rational"),
    ("0", _audit_file(lambda text: dict(PROFILED_RECORD, profiles=[
        {"g": 3, "g_geo": 2, "l": 1, "delta_counts": {text: 1}}])),
     "error: record: profiles[0].delta_counts: key {!r} is not a non-negative integer"),
], ids=["FIBRATO_MAX_DEPTH", "example-genus", "search-genus", "search-max-n", "germ-grid",
        "germ-exponent", "rational", "delta-counts-key"])
def test_every_integer_boundary_reads_ascii_digits_alike(capsys, tmp_path, monkeypatch,
                                                         value, argv, line):
    # leading zeros never count toward the interpreter's 4,300-digit limit,
    # and a value past it keeps the boundary's own error line
    padded = run(capsys, *argv("0" * 5000 + value, tmp_path, monkeypatch))
    assert padded == run(capsys, *argv(value, tmp_path, monkeypatch))
    nines = "9" * 5000
    code, out, err = run(capsys, *argv(nines, tmp_path, monkeypatch))
    assert (code, out, err.splitlines()[-1]) == (2, "", line.format(nines))


@st.composite
def _search_args(draw):
    """search arguments: integers in and around each accepted range, huge
    genera, and grid specs that may not parse."""
    genus = draw(st.integers(-3, 40) | st.integers(-10 ** 30, 10 ** 30))
    max_n = draw(st.integers(-2, 66) | st.integers(-10 ** 30, 10 ** 30))
    a, b = draw(st.integers(0, 18)), draw(st.integers(0, 18))
    grid = draw(st.sampled_from([f"{a}x{b}", f"{a}x", f"x{b}", f"{a}*{b}", f"{a}x{b}x1",
                                 f"-{a}x{b}", f"{a} x {b}", ""]))
    return ["search", "--genus", str(genus), "--max-n", str(max_n), "--germ-grid", grid]


@settings(max_examples=100, deadline=RUN_BOUND)
@given(_search_args(), st.booleans())
@example(["search", "--genus", "2", "--max-n", "64", "--germ-grid", "16x16"], True)
def test_search_fuzz_exits_cleanly(argv, as_json):
    code, out, err = _main_on_stdin(argv + ["--json"] * as_json)
    assert code in (0, 1, 2), argv
    if code == 0 and as_json:
        assert json.loads(out)["genus"] == int(argv[2])
    if code == 2:
        assert out == "" and "error: " in err, argv


_TABLES_WORDS = ["1", "2", "3", "all", "0", "4", "-1", "x", "--format", "md", "csv", "tsv",
                 "--json", "--format=csv", "--bogus", ""]


@settings(max_examples=150, deadline=RUN_BOUND)
@given(st.lists(st.sampled_from(_TABLES_WORDS), max_size=5))
@example(["3", "--format", "csv", "--json"])
def test_tables_fuzz_exits_cleanly(words):
    code, out, err = _main_on_stdin(["tables"] + words)
    assert code in (0, 1, 2), words
    if code == 0 and "--json" in words:
        assert [t["table"] for t in json.loads(out)["tables"]]
    if code == 2:
        assert out == "" and "error: " in err, words


# ---------------------------------------------------------------------------
# verdicts and JSON documents

@pytest.mark.parametrize("command, doc, line, path, value", [
    ("datum", datum_to_json(ODD_BRANCH_CLASS), "validation: FAILED", ("violations",), [
        "(g+1)*e + n = 7 is odd; the branch class must be divisible by two",
        "e = 1 exceeds n/(g+1) = 3/4"]),
    ("datum", {"schema_version": 1, "g": 3, "g_C": 0, "e": -4, "n": 2,
               "critical_fibers": [{"label": "a", "germs": ["y^2 - z^4"]}]},
     "validation: FAILED", ("violations",), ["e = -4 is below -g_C = 0"]),
    ("datum", NON_HYPERBOLIC, "speed undefined: base orbifold Euler number 1 >= 0",
     ("failure",), "speed undefined: base orbifold Euler number 1 >= 0"),
    ("hurwitz", {"schema_version": 1, "g_target": 0, "m": 2, "d": 2,
                 "partitions": [[2], [1, 1]]},
     "compatible: NO -- m*d - parts = 1 is odd", ("failure",), "m*d - parts = 1 is odd"),
    ("hurwitz", {"schema_version": 1, "g_target": 0, "m": 0, "d": 2, "partitions": []},
     "compatible: NO -- solved genus -1 is negative", ("failure",),
     "solved genus -1 is negative"),
    ("audit", dict(GOOD_RECORD, delta=29), "audit: FAIL", ("checks", 0),
     {"check": "noether-identity", "status": "fail", "lhs": "29", "rhs": "28", "strict": False}),
], ids=["odd-branch-class", "e-below-minus-g_C", "non-hyperbolic", "odd-parity",
        "negative-genus", "forged-record"])
def test_verdict_exits_1_with_nothing_on_stderr(command, doc, line, path, value):
    # a failed check is a result, not an error: the verdict goes to stdout as
    # a line of the report, or at path in the JSON document, and a datum that
    # fails reports no invariants
    code, out, err = _main_on_stdin([command, "-"], json.dumps(doc))
    assert (code, err) == (1, "")
    assert line in out.splitlines()
    code, out, err = _main_on_stdin([command, "-", "--json"], json.dumps(doc))
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert "invariants" not in report
    assert functools.reduce(operator.getitem, path, report) == value


@pytest.mark.parametrize("argv, stdin", [
    (["tables"], ""),
    (["resolve", "y^3 - z^7"], ""),
    (["search", "--genus", "4", "--max-n", "8", "--germ-grid", "4x4"], ""),
    (["example", "genus3"], ""),
    (["audit", "-"], json.dumps(GOOD_RECORD)),
    (["hurwitz", "-"], json.dumps({"schema_version": 1, "g_target": 0, "m": 3, "d": 4,
                                   "partitions": [[4], [4], [2, 2]]})),
    (["datum", "-"], json.dumps(datum_to_json(family("odd_genus", 7).datum))),
], ids=["tables", "resolve", "search", "example", "audit", "hurwitz", "datum"])
def test_every_json_document_has_schema_version_1(argv, stdin):
    code, out, err = _main_on_stdin(argv + ["--json"], stdin)
    assert (code, err) == (0, "")
    assert json.loads(out)["schema_version"] == 1


# ---------------------------------------------------------------------------
# process-level behaviour

def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "fibrato" in capsys.readouterr().out


@pytest.mark.parametrize("argv, env, keep", [
    (["resolve", "y^2 - z^4000", "--trace"], {"FIBRATO_MAX_DEPTH": "5000"}, 10),
    (["example", "even_genus", "--genus", "40", "--json"], {}, 0),
    (["tables", "1"], {}, 0),
], ids=["resolve-trace", "example-json", "tables"])
def test_closed_pipe_exits_quietly(argv, env, keep):
    # the reader takes `keep` bytes and closes its end, as `| head -c` does;
    # the deep trace is megabytes, more than any pipe buffer holds
    child = subprocess.Popen([sys.executable, "-m", "fibrato.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=_child_env(**env))
    head = child.stdout.read(keep)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    code = child.wait(timeout=120)
    assert len(head) == keep
    assert err == b""
    assert code in (0, 1, 2)


# Every way of starting a command goes through fibrato.__main__.run; with -c
# the arguments after the code are sys.argv[1:], as they are for the others.
_LAUNCHERS = {
    "python -m fibrato.cli": ["-m", "fibrato.cli"],
    "python -m fibrato": ["-m", "fibrato"],
    "run()": ["-c", "from fibrato.__main__ import run; run()"],
}


@pytest.mark.parametrize("argv, stdin, code", [
    (["tables", "--json"], b"", 0),
    (["audit", "-"], json.dumps(dict(GOOD_RECORD, delta=40)).encode(), 1),
    (["resolve", "y^2 - z^132"], b"", 2),
], ids=["tables", "audit-forged", "resolve-past-cap"])
def test_every_way_of_starting_a_command_behaves_the_same(argv, stdin, code):
    outcomes = {}
    for launcher, args in _LAUNCHERS.items():
        done = subprocess.run([sys.executable, *args, *argv], input=stdin, capture_output=True,
                              env=_child_env(), timeout=20)
        outcomes[launcher] = (done.returncode, done.stdout, done.stderr)
    first = outcomes["python -m fibrato.cli"]
    assert all(outcome == first for outcome in outcomes.values()), outcomes
    assert first[0] == code
    if code == 2:
        assert first[1] == b"" and first[2].startswith(b"error: ") and first[2].count(b"\n") == 1


def test_every_way_of_starting_a_command_stops_quietly_on_a_closed_pipe():
    # the reader closes its end before the command writes anything
    outcomes = {}
    for launcher, args in _LAUNCHERS.items():
        child = subprocess.Popen([sys.executable, *args, "example", "even_genus", "--genus", "40",
                                  "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=_child_env())
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        outcomes[launcher] = (child.wait(timeout=120), err)
    assert set(outcomes.values()) == {(1, b"")}, outcomes


def test_the_library_leaves_the_collector_alone():
    # Only the process entry pauses and freezes the collector.  A library
    # that paused it around its imports without a freeze would leave that
    # collection work to whatever in-process caller (a test, a benchmark
    # worker) allocates next; so a fresh interpreter records every call to
    # the collector's controls while it loads the engine and runs a command.
    # Some interpreters (3.12.1) start with objects frozen already, so the
    # child counts only what gets frozen after its start.
    code = ("import contextlib, gc, io\n"
            "calls = []\n"
            "for name in ('disable', 'enable', 'freeze', 'unfreeze', 'set_threshold', 'collect'):\n"
            "    setattr(gc, name, lambda *args, name=name: calls.append(name))\n"
            "frozen = gc.get_freeze_count()\n"
            "import fibrato.germs, fibrato.cli, fibrato.__main__\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert fibrato.cli.main(['tables']) == 0\n"
            "print(calls, gc.isenabled(), gc.get_freeze_count() - frozen)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=20)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[] True 0\n", "")


def test_console_script_runs_the_process_entry():
    from setuptools.config.pyprojecttoml import read_configuration

    config = read_configuration(os.path.join(os.path.dirname(__file__), os.pardir,
                                             "pyproject.toml"))
    target = config["project"]["scripts"]["fibrato"]
    assert target == "fibrato.__main__:run"
    module, name = target.split(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_exit_codes_are_deterministic(capsys, tmp_path):
    forged = dict(GOOD_RECORD, delta=40)
    path = write_json(tmp_path, "rec.json", forged)
    first = run(capsys, "audit", path)
    second = run(capsys, "audit", path)
    assert first == second
    assert first[0] == 1


def test_every_family_name_is_reachable(capsys):
    for name in FAMILY_NAMES:
        genus = {"genus2": None, "genus3": None, "odd_genus": 5,
                 "even_genus": 4, "mod4_0": 4, "mod4_1": 5,
                 "mod6_1": 7}[name]
        argv = ["example", name] + (
            [] if genus is None else ["--genus", str(genus)])
        assert main(argv) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# only readers of a trace's points build its TracePoint records

def test_datum_path_builds_no_trace_tree(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("TracePoint records were built")

    monkeypatch.setattr(germs_mod, "_trace_points", refuse)
    datum_mod._resolved.cache_clear()  # a remembered trace may hold its records already
    with pytest.raises(AssertionError):
        run(capsys, "resolve", "y^8 - z^4", "--trace")

    for name in FAMILY_NAMES:
        for genus in range(2, 62):
            try:
                fam = family(name, genus)
            except PreconditionViolated:
                continue
            fam.report()
    for genus in range(80, 201, 2):
        even_genus(genus).report(max_depth=2 * genus + 8)
    assert run(capsys, "search", "--genus", "6", "--max-n", "16", "--germ-grid", "8x8")[0] == 0

    datum_mod._resolved.cache_clear()
    for name in FAMILY_NAMES:
        for genus in range(2, 14):
            code, emitted, _ = run(capsys, "example", name, "--genus", str(genus), "--emit-json")
            if code:
                continue
            for flags in ([], ["--json"]):
                assert run(capsys, "example", name, "--genus", str(genus), *flags)[0] in (0, 1)
                monkeypatch.setattr("sys.stdin", _stdin(emitted))
                assert run(capsys, "datum", "-", *flags)[0] in (0, 1)

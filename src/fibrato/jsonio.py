"""The JSON boundary: the schema version, typed field readers, the
reader/writer pair of each input document (invariant record, cover datum,
branch datum), and the writer of every document a command prints.

Integers are JSON integers, flags are ``true``/``false``, rationals are
integers or ``"p/q"`` strings (written by ``_exact``, the inverse of the
reader ``_rational``); an optional field may be absent or ``null``.  A
malformed value raises InputError naming its JSON path, such as
``critical_fibers[0].germs[1]``.  The domain modules know nothing of JSON:
this module imports them, never the reverse.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from fractions import Fraction
from itertools import chain, groupby

from .bounds import Table
from .constructions import Family, SearchResult
from .datum import (CriticalFiber, DatumInvariantsReport, GenusGDatum, SemistableVerdict,
                    _fiber_from_runs, _parsed)
from .fibration import AuditReport, FiberNodeProfile, FibrationInvariants, StableModelNodes
from .germs import INFINITY, ConjugateDirections, Germ, ResolutionTrace, ascii_int
from .hurwitz import BranchDatum

SCHEMA_VERSION = 1


class InputError(ValueError):
    """Malformed input: a file, JSON text, schema or field value."""


_REQUIRED = object()


# ---------------------------------------------------------------------------
# files and versioned documents

def load(path: str):
    """Parse the JSON document in a file, or on standard input when path is
    "-"; either is read as strict UTF-8, whatever the locale."""
    name = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {name}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{name}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
        raise InputError(f"{name}: unreadable JSON: {exc}")


def dumps(doc: dict) -> str:
    """The text of an output document."""
    return json.dumps(doc, indent=2)


def _versioned(**values) -> dict:
    """An output document: the schema version, then the given fields."""
    return {"schema_version": SCHEMA_VERSION, **values}


def _read_document(obj) -> dict:
    obj = _object(obj, "the document")
    version = _field(obj, "schema_version", _int, default=SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    return obj


# ---------------------------------------------------------------------------
# typed readers: each takes a JSON value and its path

def _typed(kind: type, what: str):
    """A reader of one JSON type; ``true`` is not an integer, nor ``2.0``."""
    def read(value, path: str):
        if type(value) is not kind:
            raise InputError(f"{path} must be {what}, got {type(value).__name__}")
        return value
    return read


_int = _typed(int, "an integer")
_bool = _typed(bool, "true or false")
_str = _typed(str, "a string")
_list = _typed(list, "a list")
_object = _typed(dict, "an object")
_rational_text = _typed(str, "an integer or 'p/q' string")
_germ_text = _typed(str, "a germ string")


def _rational(value, path: str) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    text = _rational_text(value, path)
    p, slash, q = text.partition("/")
    numerator = ascii_int(p, signed=True)
    denominator = ascii_int(q) if slash else 1
    if numerator is None or not denominator:  # q = 0 is no rational either
        raise InputError(f"{path}: cannot parse {text!r} as a rational")
    return Fraction(numerator, denominator)


def _exact(x) -> str | None:
    """The one writer of an exact value, the inverse of ``_rational``: None
    stays null, and an int or Fraction becomes its ``p/q`` text."""
    return None if x is None else str(Fraction(x))


def _list_of(read):
    """A reader of JSON arrays whose elements ``read`` reads, each at its own path."""
    def read_list(value, path: str) -> list:
        return [read(item, f"{path}[{i}]") for i, item in enumerate(_list(value, path))]
    return read_list


def _field(obj: dict, key: str, read, path: str = "", default=_REQUIRED):
    """Read ``obj[key]``; an optional field that is absent or null gives the default."""
    where = f"{path}.{key}" if path else key
    value = obj.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in obj:
        raise InputError(f"missing field {where!r}")
    return read(value, where)


def _build(cls, path: str, **fields):
    """Construct a domain object; its own range checks become input errors."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}" if path else str(exc)) from None


# ---------------------------------------------------------------------------
# field tables: (key, reader[, default]), written in table order.  The key is
# also the attribute of the domain object; a field without a default is required.

def _read_fields(obj: dict, table, path: str = "") -> dict:
    return {key: _field(obj, key, read, path, *default) for key, read, *default in table}


def _write_fields(item, table) -> dict:
    """The table's fields of item, rationals as ``p/q`` text; an optional
    field that holds None is left out."""
    out = {}
    for key, read, *default in table:
        value = getattr(item, key)
        if value is not None or not default:
            out[key] = _exact(value) if read is _rational else value
    return out


def _attributes(item, skip=()) -> dict:
    """The fields of a dataclass instance in field order, less those named in skip."""
    return {f.name: getattr(item, f.name) for f in fields(item) if f.name not in skip}


# ---------------------------------------------------------------------------
# invariant record

_RECORD = (
    ("g", _int), ("g_C", _int), ("s", _int),
    ("chi", _rational), ("omega_sq", _rational), ("delta", _rational),
    ("hyperelliptic", _bool, False), ("semistable", _bool, True),
)


def record_to_json(inv: FibrationInvariants) -> dict:
    """The record in the shape ``record_from_json`` reads back."""
    return _versioned(**_write_fields(inv, _RECORD))


def record_from_json(obj) -> FibrationInvariants:
    """The invariants of a record document."""
    return _build(FibrationInvariants, "", **_read_fields(_read_document(obj), _RECORD))


def audit_input_from_json(obj):
    """The arguments of ``fibration.audit`` in a record document:
    (invariants, nodes, profiles), the last two None when absent."""
    inv = record_from_json(obj)
    nodes = _field(obj, "nodes", _nodes, default=None)
    profiles = _field(obj, "profiles", _list_of(_profile), default=None)
    return inv, nodes, profiles


def _nodes(value, path: str) -> StableModelNodes:
    return _build(StableModelNodes, path, node_indices=tuple(_list_of(_int)(value, path)))


def _delta_counts(value, path: str) -> dict[int, int]:
    """Node counts keyed by the separated genus; JSON keys are digit strings."""
    counts = {}
    for key, count in _object(value, path).items():
        index = ascii_int(key)
        if index is None:
            raise InputError(f"{path}: key {key!r} is not a non-negative integer")
        counts[index] = _int(count, f"{path}[{key!r}]")
    return counts


_PROFILE = (("g", _int), ("g_geo", _int), ("l", _int), ("delta_counts", _delta_counts, {}))


def _profile(value, path: str) -> FiberNodeProfile:
    return _build(FiberNodeProfile, path, **_read_fields(_object(value, path), _PROFILE, path))


# ---------------------------------------------------------------------------
# audit report

def audit_report_to_json(report: AuditReport) -> dict:
    """``audit --json``: each check's fields in field order; a check without a
    note has no "note"."""
    checks = []
    for c in report.checks:
        doc = {**c._asdict(), "lhs": _exact(c.lhs), "rhs": _exact(c.rhs)}
        if not c.note:
            del doc["note"]
        checks.append(doc)
    return _versioned(checks=checks)


# ---------------------------------------------------------------------------
# cover datum

_DATUM = (
    ("g", _int), ("g_C", _int), ("e", _int), ("n", _int), ("declared_m", _int, 0),
    ("simple_ramification", _bool, True), ("c0_in_branch", _bool, False),
)


def datum_to_json(d: GenusGDatum) -> dict:
    """Plain-JSON form of a datum; each run of germs is rendered once, in the germ grammar."""
    fibers = []
    for fib in d.critical_fibers:
        germs = list(chain.from_iterable([str(g)] * count for g, count in fib._runs))
        entry: dict = {"label": fib.label, "germs": germs}
        if fib.negligible_marker:
            entry["negligible"] = True
        fibers.append(entry)
    return _versioned(**_write_fields(d, _DATUM), critical_fibers=fibers)


def datum_from_json(obj) -> GenusGDatum:
    """Inverse of datum_to_json."""
    obj = _read_document(obj)
    fibers = _field(obj, "critical_fibers", _list_of(_fiber))
    return _build(GenusGDatum, "", **_read_fields(obj, _DATUM), critical_fibers=tuple(fibers))


def _fiber(value, path: str) -> CriticalFiber:
    entry = _object(value, path)
    return _fiber_from_runs(
        _field(entry, "label", _str, path),
        _field(entry, "germs", _germs, path, default=()),
        negligible_marker=_field(entry, "negligible", _bool, path, default=False),
    )


def _germs(value, path: str) -> list[tuple[Germ, int]]:
    """A germ list as (Germ, count) runs of equal neighbouring texts, each checked
    and parsed once, at the path of its first entry; groupby compares only checked texts."""
    runs: list[tuple[Germ, int]] = []
    start = 0
    for text, run in groupby(_list(value, path)):
        where = f"{path}[{start}]"
        text = _germ_text(text, where)
        try:
            germ = _parsed(text)
        except ValueError as exc:  # GermSyntaxError and "all terms cancel" among them
            raise InputError(f"{where}: {exc}") from None
        count = len(list(run))
        runs.append((germ, count))
        start += count
    return runs


# ---------------------------------------------------------------------------
# branch datum

_BRANCH = (("g_target", _int), ("m", _int), ("d", _int),
           ("partitions", _list_of(_list_of(_int))), ("g_source", _int, None))


def branch_datum_to_json(b: BranchDatum) -> dict:
    """The branch datum in the shape ``branch_datum_from_json`` reads back;
    an unsolved source genus is left out."""
    doc = _versioned(**_write_fields(b, _BRANCH))
    doc["partitions"] = [list(p) for p in b.partitions]
    return doc


def branch_datum_from_json(obj) -> BranchDatum:
    """Inverse of branch_datum_to_json; a null or absent g_source is unsolved."""
    return _build(BranchDatum, "", **_read_fields(_read_document(obj), _BRANCH))


# ---------------------------------------------------------------------------
# command reports: the document each command prints under --json

def _direction(direction):
    if isinstance(direction, ConjugateDirections):
        return {"conjugate_min_poly": list(direction.min_poly)}
    return direction if direction == INFINITY else _exact(direction)


def resolution_to_json(trace: ResolutionTrace) -> dict:
    """``resolve --json``: the germ's even resolution, its points in
    depth-first order.  even_resolve returns only once every even transform
    is smooth, so "terminal_smooth" is always true."""
    return _versioned(
        germ=str(trace.germ),
        multiplicities=trace.multiplicities(),
        classification=trace.classification,
        terminal_smooth=True,
        sum_k_km1=trace.sum_k_km1,
        sum_km1_sq=trace.sum_km1_sq,
        points=[{**_attributes(p, ("germ",)), "direction": _direction(p.direction)}
                for p in trace.points],
    )


def _semistable(verdict: SemistableVerdict) -> dict:
    return {"passed": verdict.passed, "failures": list(verdict.failures)}


def _invariants(report: DatumInvariantsReport) -> dict:
    return {
        "record": record_to_json(report.invariants),
        "slope": _exact(report.slope),
        "speed": _exact(report.speed),
        "sum_k_km1": report.sum_k_km1,
        "sum_km1_sq": report.sum_km1_sq,
    }


def example_to_json(fam: Family, report: DatumInvariantsReport, matches: bool) -> dict:
    """``example --json``: the family's datum, its computed invariants, the
    closed-form values they should match, and the semi-stability verdict."""
    return _versioned(
        family=fam.name,
        genus=report.invariants.g,
        datum=datum_to_json(fam.datum),
        computed=_invariants(report),
        expected={key: _exact(getattr(fam, f"expected_{key}"))
                  for key in ("chi", "omega_sq", "slope", "speed")},
        matches=matches,
        semistable=_semistable(report.semistable),
    )


def tables_to_json(tables: list[Table]) -> dict:
    """``tables --json``: each cell exact and with its 3-decimal reading."""
    return _versioned(tables=[
        {
            "table": t.which,
            "title": t.title,
            "genera": list(t.genera),
            "rows": [{"label": row.label,
                      "cells": [{"exact": _exact(v), "decimal": d} for v, d in row.cells]}
                     for row in t.rows],
        }
        for t in tables
    ])


def branch_verdict_to_json(b: BranchDatum, failure: str | None, solved: int | None,
                           realizability: str | None) -> dict:
    """``hurwitz --json``: the branch datum, why it is incompatible (None when
    it is not), its solved source genus and its realizability."""
    return _versioned(
        datum=branch_datum_to_json(b),
        compatible=failure is None,
        failure=failure,
        solved_source_genus=solved,
        realizability=realizability,
    )


def datum_report_to_json(d: GenusGDatum, violations: list[str], failure: str | None = None,
                         report: DatumInvariantsReport | None = None,
                         audit: AuditReport | None = None) -> dict:
    """``datum --json``: the datum and its violations, then either the failure
    that leaves the speed undefined or the report and the audit of its record."""
    doc = _versioned(datum=datum_to_json(d), violations=violations)
    if failure is not None:
        doc["failure"] = failure
    if report is not None:
        doc.update(
            invariants=_invariants(report),
            traces=[{"fiber": s.fiber_label, "germ": str(s.germ),
                     "multiplicities": list(s.multiplicities),
                     "classification": s.classification}
                    for s in report.traces],
            semistable=_semistable(report.semistable),
            audit=audit_report_to_json(audit),
        )
    return doc


def search_to_json(result: SearchResult) -> dict:
    """``search --json``: the sweep, the best known speed at its genus, the top
    candidates and the count of each rejection."""
    return _versioned(
        experimental=True,
        genus=result.g,
        grid={"a_max": result.a_max, "b_max": result.b_max, "max_n": result.max_n},
        best_known={"value": _exact(result.best.value), "witness": result.best.witness},
        candidates=[{"germ": c.germ, "n": c.n, "speed": _exact(c.speed),
                     "slope": _exact(c.report.slope), "chi": _exact(c.report.invariants.chi),
                     "semistable": True} for c in result.top],
        rejected=dict(result.rejected),
    )

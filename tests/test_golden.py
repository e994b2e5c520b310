"""Golden outputs: SHA-256 digests of what the CLI and the kernel print.

Each group pins one slice of the observable behaviour byte for byte, so a
rewrite of the resolution kernel that changes any output, exception text or
exit code fails the group that shows it:

* ``resolve-e<e>f<f>``: ``resolve --json`` and ``resolve --trace`` on the
  196 grid germs y^e z^f (y^a - z^b), a, b in 1..14;
* ``example-<family>``: ``example <family> --json`` at g = 2..41 (invalid
  genera included, they exit 2);
* ``families``: every field of every ``Family`` that ``family(name, g)``
  builds at g = 2..61 and g = 80..200 in steps of 10 (120 families), with
  each fiber's germ runs and marker flag and the derived expected slope;
* ``example-human``: ``example <family> --genus g`` without ``--json`` for
  every family at g = 2..41;
* ``kernel-cap3``: ``even_resolve`` and the classification it reports at
  cap 3 on all 784 grid germs, with the ``DepthOverflow`` and
  ``RequiresAlgebraicExtension`` texts;
* ``audit-human``, ``audit-json``: ``audit -`` without and with ``--json`` on
  hand-built records that reach every branch of ``fibration.audit``: chi
  positive, zero, negative and non-integral, non-integral omega^2, s = 0
  (slope 12), a rational base with fewer than five fibers, non-hyperbolic
  bases, records that are not semi-stable, forged deltas, and stable-model
  nodes and fiber profiles that pass and fail, profiles of the record's
  genus and of another;
* ``datum-human``, ``datum-json``: ``datum -`` without and with ``--json`` on
  the 66 data that
  ``example <family> --genus g --emit-json`` prints for g = 2..41;
* ``search-human``, ``search-json``: ``search`` for g = 2..8, max-n 8 and 16,
  germ grids 4x4 and 8x8;
* ``tables``: ``tables`` 1, 2, 3 and all, as markdown, CSV and ``--json``;
* ``hurwitz-human``, ``hurwitz-json``: ``hurwitz -`` without and with
  ``--json`` on branch data that are compatible and Realizable, compatible and
  Unknown, of odd parity, of negative genus, and declared with a source genus
  other than the solved one;
* ``datum-failing-human``, ``datum-failing-json``: ``datum -`` without and
  with ``--json`` on data that fail validation and on valid data over a base
  that is not hyperbolic, where the speed is undefined.

To see a digest, run this file with ``-k <group>`` and read the assertion.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
from fractions import Fraction

import pytest

from fibrato.cli import main
from fibrato.bounds import PreconditionViolated
from fibrato.constructions import FAMILY_NAMES, family
from fibrato.germs import (
    DepthOverflow,
    RequiresAlgebraicExtension,
    even_resolve,
    parse_germ,
)

DIGESTS = {
    "resolve-e0f0": "b04f465d34b781b4b7c535db0c68ec8113865d2a35c617f873ce8affe146270b",
    "resolve-e0f1": "1e2e42f5aa0781106fcea8e6ed448715ae594f3d46207eb59f0260729345561b",
    "resolve-e1f0": "35ca8cdb252cbe85e1e6c1f6e8c8db0b92922fc089fd32ea639460873521beb6",
    "resolve-e1f1": "bccb5c660ce75126511121fcff268476c040cb3c029ddafbe7c14337f1bb3f6e",
    "example-genus2": "c493549fa503a271aeb62ed23b903e659d639de62c147bd83b3decc9119d0362",
    "example-genus3": "49dd25360bef3ee3601148dbab943e84e0eaacfa0f3dc370601aa64ababf79e9",
    "example-odd_genus": "a31a7e7a88ba334ce48800d5d0b480eee3e895b616032ceb13b8c31b688b6adb",
    "example-even_genus": "4600103de361cec01a88e45e29efb89e097e4792ec28e9a2dee5010111e3e50c",
    "example-mod4_0": "930a25ced8d651d29658d7c603633598f35a55cd917917c6b31c9078c8879a80",
    "example-mod4_1": "2b8588cd72619e1952240edee5272140b1e4ef56d5844da8e61d501a232c0adc",
    "example-mod6_1": "5cc8dd5f09d4aa51b491fcdd6ad3ea2a9d3d3bea2ee03974fda3ced47c4565f5",
    "families": "45ffa78acb4a466800d0a4779dec993985e13007826ce8f735977b69221a4c0a",
    "example-human": "5f9fb20904ac6986aabed78de68c8125699b7f92959a449f69e48d7daccc38a4",
    "kernel-cap3": "759784fa60d10c8867c11ab802d6f494d297f39b2a52adff290b3ce729c6b909",
    "audit-human": "f26ab5519452c1914d9b72165fdb37c9a5ca8b181f602979fe3995e71ad409e2",
    "audit-json": "141337e804bda53d6c55ed52e75cea11e4229e7cb5976933c4e7ab49cab20a94",
    "datum-human": "b74d6dbcb3a961f96e19bc7fd803eed8e4f84994e8c874aabd5f9f87f9a04ef9",
    "datum-json": "04d234ffdeda9334413e61367d78c6809bdd88409ed3ee20c00102c5995ba567",
    "search-human": "f85845f62c148f3f94d1a22e0f78ef716f118ebf5366597c3b9f555b93063d6d",
    "search-json": "a7574c557d32038f448603d65e74e5885d9ecd3585abac3eee7c55ea52cb4ca7",
    "tables": "46c52491569d85db0bf0ec11c6f9888dc2888bf63e6d18ba33e37940ec5e6997",
    "hurwitz-human": "92ccdbced451680160d40655c1416e252a19b903be47706a2d05d4ef124a3b33",
    "hurwitz-json": "ed95d4b6e9b5822f8298a59d1a332b5c8f25fa8b7819d740f2e3d2f770a5b592",
    "datum-failing-human": "42909561292d19008275f08d57bbf85cac773188829666e14552e6cbb74aa15f",
    "datum-failing-json": "372f6f5d1349a5b4f4754106e7b41502dfadc31f8efd96cb31bc17d65248dd0f",
}


def _grid_text(e, f, a, b):
    return "*".join(["y"] * e + ["z"] * f + [f"(y^{a} - z^{b})"])


def _cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8"))
        mp.setattr(sys, "stdout", out)
        mp.setattr(sys, "stderr", err)
        code = main(argv)
    return argv, code, out.getvalue(), err.getvalue()


# (chi, omega^2) pairs: positive, zero, negative and non-integral chi; slope 12
# (1, 12) and above 12 (2, 25), slope on the lower bound of genus 2 (3, 6), and
# omega^2 on the canonical-class bound of genus 2 over (g_C, s) = (1, 2)
_CHI_OMEGA = (("1", "12"), ("2", "25"), ("3", "6"), ("2", "4"), ("5", "33"), ("7/2", "41/2"),
              ("1/2", "3/2"), ("0", "0"), ("0", "-4"), ("-3", "-30"), ("-1/2", "5"))
# (g_C, s): rational bases with s = 0, s < 5 and s >= 5, elliptic bases with
# s = 0 (non-hyperbolic) and s > 0, and a genus-2 base
_BASES = ((0, 0), (0, 3), (0, 5), (1, 0), (1, 2), (1, 4), (2, 1))
_NODES = (None, [], [0], [0, 1, 2, 3], [5] * 9)
_PROFILES = (
    None,
    [],
    [{"g": 2, "g_geo": 1, "l": 1, "delta_counts": {"0": 1}}],
    [{"g": 3, "g_geo": 3, "l": 2, "delta_counts": {"1": 1}},
     {"g": 3, "g_geo": 2, "l": 1, "delta_counts": {"1": 1}},
     {"g": 2, "g_geo": 0, "l": 2, "delta_counts": {"0": 3}}],
)


def _audit_records():
    records = []
    for i, (g, (g_C, s), (chi, omega_sq), forged, semistable) in enumerate(itertools.product(
            (2, 3, 5), _BASES, _CHI_OMEGA, (False, True), (True, False))):
        delta = str(12 * Fraction(chi) - Fraction(omega_sq) + forged)
        record = {"g": g, "g_C": g_C, "s": s, "chi": chi, "omega_sq": omega_sq,
                  "delta": delta, "hyperelliptic": bool(i % 3), "semistable": semistable}
        for key, options in (("nodes", _NODES), ("profiles", _PROFILES)):
            if options[i % len(options)] is not None:
                record[key] = options[i % len(options)]
        records.append(json.dumps(record))
    return records


# (g_source, g_target, m, d, partitions): compatible over P^1 with a full
# cyclic point (Realizable), declared or not; compatible over an elliptic
# curve and over P^1 without a full cyclic point (Unknown); odd m*d - parts;
# a negative solved genus; a declared source genus other than the solved one
_BRANCH_DATA = (
    (None, 0, 4, 2, [[2], [2], [2], [2]]), (1, 0, 4, 2, [[2], [2], [2], [2]]),
    (None, 0, 3, 4, [[4], [4], [2, 2]]),
    (None, 1, 2, 2, [[2], [2]]), (2, 1, 2, 2, [[2], [2]]), (None, 0, 4, 3, [[2, 1]] * 4),
    (None, 0, 3, 2, [[2], [2], [2]]), (0, 1, 1, 3, [[2, 1]]),
    (None, 0, 2, 2, [[1, 1], [1, 1]]), (None, 0, 0, 3, []),
    (5, 0, 4, 2, [[2], [2], [2], [2]]), (0, 1, 2, 2, [[2], [2]]),
)

# cover data that fail validation (odd branch class, e past n/(g+1) or, with
# the negative section in the branch divisor, past n/g, no critical fiber, a
# fiber of smooth germs, several at once), then valid data over a rational
# base with one or two critical fibers, where 2*g_C - 2 + s <= 0
_FAILING_DATA = (
    {"g": 2, "g_C": 1, "e": 0, "n": 5, "critical_fibers": [{"label": "a", "germs": ["y^2 - z^2"]}]},
    {"g": 2, "g_C": 1, "e": 2, "n": 4, "critical_fibers": [{"label": "a", "germs": ["y^2 - z^2"]}]},
    {"g": 2, "g_C": 1, "e": 3, "n": 5, "c0_in_branch": True,
     "critical_fibers": [{"label": "a", "germs": ["y^2 - z^2"]}]},
    {"g": 3, "g_C": 1, "e": 0, "n": 4, "critical_fibers": []},
    {"g": 2, "g_C": 1, "e": 0, "n": 4,
     "critical_fibers": [{"label": "a", "germs": ["y - z^2", "z"]}, {"label": "b", "germs": []}]},
    {"g": 4, "g_C": 0, "e": 1, "n": 2, "critical_fibers": [{"label": "c", "germs": ["y"]}]},
    {"g": 2, "g_C": 0, "e": 0, "n": 6, "critical_fibers": [{"label": "a", "germs": ["y^2 - z^2"]}]},
    {"g": 3, "g_C": 0, "e": 0, "n": 4,
     "critical_fibers": [{"label": "a", "germs": ["y^2 - z^4", "y^2 - z^4"]},
                         {"label": "b", "negligible": True}]},
)


def _example_data():
    for name in FAMILY_NAMES:
        for g in range(2, 42):
            _, code, out, _ = _cli(["example", name, "--genus", str(g), "--emit-json"])
            if code == 0:
                yield out


def _families():
    for g in [*range(2, 62), *range(80, 201, 10)]:
        for name in FAMILY_NAMES:
            try:
                fam = family(name, g)
            except PreconditionViolated:
                continue
            yield (fam.name, fam.datum,
                   [(fib.label, fib._runs, fib.negligible_marker)
                    for fib in fam.datum.critical_fibers],
                   fam.branch, fam.expected_chi, fam.expected_speed, fam.expected_omega_sq,
                   fam.expected_slope, fam.notes, fam.depth)


def _classify(g, max_depth):
    return even_resolve(g, max_depth).classification


def _outcome(fn, *args):
    try:
        got = fn(*args)
    except (DepthOverflow, RequiresAlgebraicExtension) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, str):
        return "label", got
    return "trace", got.multiplicities(), [pt.classification for pt in got.points]


def _records(group):
    kind, _, name = group.partition("-")
    if kind == "resolve":
        e, f = int(name[1]), int(name[3])
        return [_cli(["resolve", _grid_text(e, f, a, b), flag])
                for a in range(1, 15) for b in range(1, 15) for flag in ("--json", "--trace")]
    if group == "families":
        families = list(_families())
        assert len(families) == 120
        return families
    if group == "example-human":
        return [_cli(["example", family, "--genus", str(g)])
                for family in FAMILY_NAMES for g in range(2, 42)]
    if kind == "example":
        return [_cli(["example", name, "--genus", str(g), "--json"]) for g in range(2, 42)]
    flags = ["--json"] if group.endswith("json") else []
    if kind == "tables":
        return [_cli(["tables", which, *fmt]) for which in ("1", "2", "3", "all")
                for fmt in (["--format", "md"], ["--format", "csv"], ["--json"])]
    if kind == "hurwitz":
        docs = [json.dumps({"schema_version": 1, "g_source": g_source, "g_target": g_target,
                            "m": m, "d": d, "partitions": partitions})
                for g_source, g_target, m, d, partitions in _BRANCH_DATA]
        return [(doc, *_cli(["hurwitz", "-", *flags], doc)) for doc in docs]
    if group.startswith("datum-failing"):
        docs = [json.dumps({"schema_version": 1, **doc}) for doc in _FAILING_DATA]
        return [(doc, *_cli(["datum", "-", *flags], doc)) for doc in docs]
    if kind == "audit":
        return [(record, *_cli(["audit", "-", *flags], record)) for record in _audit_records()]
    if kind == "datum":
        data = list(_example_data())
        assert len(data) == 66
        return [(doc, *_cli(["datum", "-", *flags], doc)) for doc in data]
    if kind == "search":
        return [_cli(["search", "--genus", str(g), "--max-n", str(n), "--germ-grid", grid, *flags])
                for g in range(2, 9) for n in (8, 16) for grid in ("4x4", "8x8")]
    records = []
    for e in (0, 1):
        for f in (0, 1):
            for a in range(1, 15):
                for b in range(1, 15):
                    g = parse_germ(_grid_text(e, f, a, b))
                    records.append((str(g), _outcome(even_resolve, g, 3), _outcome(_classify, g, 3)))
    return records


def test_groups_cover_every_family():
    assert {f"example-{name}" for name in FAMILY_NAMES} <= set(DIGESTS)


@pytest.mark.parametrize("group", list(DIGESTS))
def test_golden_output(group):
    digest = hashlib.sha256(repr(_records(group)).encode()).hexdigest()
    assert digest == DIGESTS[group], group

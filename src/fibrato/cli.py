"""Command-line driver for the fibrato toolkit.

Subcommands:

* ``audit``    -- run the identity/inequality audit on an invariant record
* ``resolve``  -- resolve a plane double-point germ by even blow-ups
* ``example``  -- instantiate a named record family at a chosen genus
* ``tables``   -- print the three reference tables (markdown or CSV)
* ``hurwitz``  -- check a branch datum for compatibility and realizability
* ``datum``    -- validate a cover datum and compute its invariants
* ``search``   -- experimental sweep over binomial germ data at fixed genus

Every subcommand prints a human-readable report by default and a machine
document, which ``fibrato.jsonio`` writes, under ``--json``.  Numeric output
is exact (``p/q``) with 3-decimal renderings alongside.  Exit status: 0 on
success/pass, 1 when a check or audit fails, 2 on any other failure:
malformed input, an unresolvable germ, or an input too large to compute or
write out.  Such a failure prints one
``error:`` line on stderr and nothing on stdout; ``_run`` is the one place
that maps a failure to that line and status.  When the reader of standard
output goes away early (``fibrato ... | head -1``) the command stops quietly
with 1.
The environment variable ``FIBRATO_MAX_DEPTH`` overrides the resolution
depth cap.

A command process starts through ``fibrato.__main__.run``, whichever way it
is started (the ``fibrato`` console script, ``python -m fibrato`` or
``python -m fibrato.cli``): it loads this module with the garbage collector
paused, freezes what the import made and then calls ``main``.  ``main``
itself, like every library module, leaves the collector alone, so an
in-process caller collects as usual.
"""

from __future__ import annotations

if __name__ == "__main__":
    # ``python -m fibrato.cli`` starts a command through the one process
    # entry, before this copy of the module imports the engine.
    from fibrato.__main__ import run
    run()

import argparse
import dataclasses
import io
import os
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction

from fibrato import __version__
from fibrato import constructions, datum as datum_mod, fibration, germs, hurwitz
from fibrato import jsonio
from fibrato.bounds import PreconditionViolated, decimal3, render_csv, render_markdown, table
from fibrato.germs import (
    ConjugateDirections,
    DEFAULT_MAX_DEPTH,
    DepthOverflow,
    RequiresAlgebraicExtension,
    ascii_int,
)
from fibrato.jsonio import InputError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# ---------------------------------------------------------------------------
# shared helpers

def _max_depth() -> int:
    raw = os.environ.get("FIBRATO_MAX_DEPTH")
    if raw is None:
        return DEFAULT_MAX_DEPTH
    value = ascii_int(raw) or 0
    if value < 1:
        raise InputError(
            f"FIBRATO_MAX_DEPTH must be a positive integer, got {raw!r}")
    return value


def _pretty(x) -> str:
    """Exact value, with a 3-decimal reading appended when it is not an
    integer: 30/7 -> "30/7 (~ 4.286)"."""
    x = Fraction(x)
    return str(x) if x.denominator == 1 else f"{x} (~ {decimal3(x)})"


def _print_invariants(report: datum_mod.DatumInvariantsReport) -> None:
    """The lines chi, omega^2, delta, slope and speed L of a datum report."""
    inv = report.invariants
    slope = "undefined (chi = 0)" if report.slope is None else _pretty(report.slope)
    print(f"chi = {_pretty(inv.chi)}")
    print(f"omega^2 = {_pretty(inv.omega_sq)}")
    print(f"delta = {_pretty(inv.delta)}")
    print(f"slope = {slope}")
    print(f"speed L = {_pretty(report.speed)}")


def _count(n: int, noun: str) -> str:
    """The count and its noun, plural unless n is 1 ("1 critical fiber")."""
    return f"{n} {noun}{'' if n == 1 else 's'}"


def _read(path: str, from_json, kind: str):
    """Load a JSON document and read it; reader errors name the kind."""
    obj = jsonio.load(path)
    try:
        return from_json(obj)
    except InputError as exc:
        raise InputError(f"{kind}: {exc}") from None


def _print_audit_report(report: fibration.AuditReport) -> None:
    for check in report.checks:
        line = f"  [{check.status:>7}] {check.check}"
        if check.lhs is not None and check.rhs is not None:
            op = "<" if check.strict else "vs"
            line += f"  ({check.lhs} {op} {check.rhs})"
        if check.note:
            line += f"  -- {check.note}"
        print(line)
    print(f"audit: {'pass' if report.passed else 'FAIL'}")


# ---------------------------------------------------------------------------
# audit

def _cmd_audit(args) -> int:
    inv, nodes, profiles = _read(args.record, jsonio.audit_input_from_json,
                                 "record")
    report = fibration.audit(inv, nodes=nodes, profiles=profiles)
    if args.json:
        print(jsonio.dumps(jsonio.audit_report_to_json(report)))
    else:
        print(f"record: genus-{inv.g} fibration over a genus-{inv.g_C} base, "
              f"{_count(inv.s, 'critical fiber')}")
        print(f"  chi = {_pretty(inv.chi)}, omega^2 = {_pretty(inv.omega_sq)}, "
              f"delta = {_pretty(inv.delta)}")
        _print_audit_report(report)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# resolve

def _direction_text(direction) -> str:
    # a Fraction, or "infinity", prints as itself
    if direction is None:
        return "origin"
    if isinstance(direction, ConjugateDirections):
        return ("conjugate directions, min-poly coefficients "
                f"{list(direction.min_poly)}")
    return str(direction)


def _trace_lines(trace):
    # trace.points are the points in depth-first order, indented by depth
    for point in trace.points:
        head = ("  " * point.depth
                + f"- depth {point.depth}: multiplicity {point.multiplicity} "
                f"(k = {point.k}), {point.classification}")
        if point.count != 1:
            head += f", packet of {point.count}"
        head += f", direction {_direction_text(point.direction)}"
        yield head


def _cmd_resolve(args) -> int:
    germ = germs.parse_germ(args.germ)
    trace = germs.even_resolve(germ, max_depth=_max_depth())
    if args.json:
        print(jsonio.dumps(jsonio.resolution_to_json(trace)))
        return EXIT_OK
    mults = trace.multiplicities()
    print(f"germ: {germ}")
    print(f"infinitely-near multiplicities: {mults if mults else '(smooth)'}")
    print(f"classification: {trace.classification}")
    print(f"sum k(k-1) = {trace.sum_k_km1}, sum (k-1)^2 = {trace.sum_km1_sq}")
    # even_resolve returns only once every even transform is smooth
    print("terminal chart smooth: yes")
    if args.trace and mults:
        print("trace:")
        print("\n".join(_trace_lines(trace)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# example

def _cmd_example(args) -> int:
    fam = constructions.family(args.family, args.genus)
    max_depth = _max_depth()
    # past the cap no datum is emitted either, as `datum` cannot resolve it
    if fam.depth > max_depth:
        raise DepthOverflow.past_cap(max_depth)
    if args.emit_json:
        print(jsonio.dumps(jsonio.datum_to_json(fam.datum)))
        return EXIT_OK
    report = fam.report(max_depth=max_depth)
    inv = report.invariants
    matches = (inv.chi == fam.expected_chi
               and inv.omega_sq == fam.expected_omega_sq
               and report.slope == fam.expected_slope
               and report.speed == fam.expected_speed)

    if args.json:
        print(jsonio.dumps(jsonio.example_to_json(fam, report, matches)))
    else:
        d = fam.datum
        print(f"family: {fam.name} (genus {inv.g})")
        print(f"base: genus {d.g_C}; branch bidegree e = {d.e}, n = {d.n}; "
              f"{_count(d.s, 'critical fiber')}")
        _print_invariants(report)
        print(f"semistable: {'yes' if report.semistable.passed else 'NO'}")
        print("closed-formula check: "
              + ("match" if matches else "MISMATCH against expected values"))
        if fam.notes:
            print(f"notes: {fam.notes}")
    ok = matches and report.semistable.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# tables

def _cmd_tables(args) -> int:
    which = [1, 2, 3] if args.which == "all" else [ascii_int(args.which)]
    tabs = [table(w) for w in which]
    if args.json:
        print(jsonio.dumps(jsonio.tables_to_json(tabs)))
        return EXIT_OK
    if args.format == "csv":
        print(render_csv(*tabs))
    else:
        print("\n\n".join(render_markdown(t) for t in tabs))
    return EXIT_OK


# ---------------------------------------------------------------------------
# hurwitz

def _cmd_hurwitz(args) -> int:
    b = _read(args.datum, jsonio.branch_datum_from_json, "branch datum")

    failure = solved = None
    try:
        solved = hurwitz.solve_source_genus(b.g_target, b.m, b.d, b.partitions)
    except hurwitz.IncompatibleDatum as exc:
        failure = str(exc)

    if failure is None and b.g_source is not None and b.g_source != solved:
        failure = (f"declared source genus {b.g_source} disagrees with the "
                   f"solved value {solved}")

    realizability = None
    if failure is None:
        realizability = hurwitz.is_realizable(dataclasses.replace(b, g_source=solved))

    if args.json:
        print(jsonio.dumps(jsonio.branch_verdict_to_json(b, failure, solved, realizability)))
    else:
        parts = " ".join("(" + ",".join(str(p) for p in part) + ")"
                         for part in b.partitions)
        print(f"branch datum: degree-{b.d} cover of a genus-{b.g_target} "
              f"curve, {_count(b.m, 'branch point')}")
        print(f"partitions: {parts or '(none)'}")
        if failure is not None:
            print(f"compatible: NO -- {failure}")
        else:
            origin = "declared and solved" if b.g_source is not None else "solved"
            print(f"source genus: {solved} ({origin})")
            print("compatible: yes")
            print(f"realizability: {realizability}")
    return EXIT_OK if failure is None else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# datum

def _print_datum_report(d, report, audit_report) -> None:
    print(f"datum: genus-{d.g} double cover over a genus-{d.g_C} base; "
          f"branch bidegree e = {d.e}, n = {d.n}; {_count(d.s, 'critical fiber')}"
          + (f"; declared vertical (-1)-curves m = {d.declared_m}"
             if d.declared_m else ""))
    print("validation: ok")
    print("germ traces:")
    for s in report.traces:
        print(f"  {s.fiber_label}: {s.germ} -> multiplicities "
              f"{list(s.multiplicities)}, {s.classification}")
    print(f"sum k(k-1) = {report.sum_k_km1}, "
          f"sum (k-1)^2 = {report.sum_km1_sq}, "
          f"branch degree on a fiber = {2 * d.g + 2}")
    _print_invariants(report)
    if report.semistable.passed:
        print("semistable: yes")
    else:
        print("semistable: NO")
        for reason in report.semistable.failures:
            print(f"  - {reason}")
    _print_audit_report(audit_report)


def _cmd_datum(args) -> int:
    d = _read(args.datum, jsonio.datum_from_json, "datum")

    violations = []
    failure = report = audit_report = None
    try:
        report = datum_mod.invariants(d, max_depth=_max_depth())
    except datum_mod.InvalidDatum as exc:
        violations = exc.violations
    except fibration.NonHyperbolicBase as exc:
        failure = f"speed undefined: {exc}"
    else:
        audit_report = fibration.audit(report.invariants)

    if args.json:
        print(jsonio.dumps(jsonio.datum_report_to_json(d, violations, failure, report,
                                                       audit_report)))
    elif violations:
        print("validation: FAILED")
        for v in violations:
            print(f"  - {v}")
    elif failure is not None:
        print(failure)
    else:
        _print_datum_report(d, report, audit_report)
    ok = report is not None and report.semistable.passed and audit_report.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# search

def _parse_grid(spec: str) -> tuple[int, int]:
    match = re.fullmatch("([0-9]+)x([0-9]+)", spec)
    if not match:
        raise InputError(
            f"germ grid spec {spec!r} must look like 'AxB' (e.g. 6x6)")
    a_max, b_max = (ascii_int(d) or 0 for d in match.groups())
    if not (2 <= a_max <= 16 and 2 <= b_max <= 16):
        raise InputError("germ grid bounds must lie in 2..16")
    return a_max, b_max


def _cmd_search(args) -> int:
    if args.genus < 2:
        raise InputError("--genus must be at least 2")
    if not (2 <= args.max_n <= 64):
        raise InputError("--max-n must lie in 2..64")
    result = constructions.search(args.genus, args.max_n, *_parse_grid(args.germ_grid),
                                  _max_depth())

    if args.json:
        print(jsonio.dumps(jsonio.search_to_json(result)))
    else:
        print("experimental search -- results carry no claim beyond the "
              "checks shown")
        print(f"genus {result.g}, base genus 1, even n <= {result.max_n}, "
              f"germs y^a - z^b with a <= {result.a_max}, b <= {result.b_max}")
        print(f"best known construction at genus {result.g}: "
              f"{_pretty(result.best.value)} ({result.best.witness})")
        print("top candidates (semi-stable, audit clean):")
        for c in result.top:
            print(f"  speed {_pretty(c.speed)}  n = {c.n}  germ {c.germ}  "
                  f"chi = {_pretty(c.report.invariants.chi)}  "
                  f"slope = {_pretty(c.report.slope)}")
        skipped = ", ".join(f"{k}: {v}" for k, v in result.rejected if v)
        print(f"rejected candidates -- {skipped if skipped else 'none'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _integer(text: str) -> int:
    """An integer option: ASCII digits after an optional minus."""
    value = ascii_int(text, signed=True)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser; with signed_text, an argument that starts with a
    sign but names no option ("-y^2+z^4") is read as the positional."""

    def __init__(self, *args, signed_text: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.signed_text = signed_text

    def _parse_optional(self, arg_string):
        if (self.signed_text and arg_string[:1] == "-" and arg_string[1:2] != "-"
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrato",
        description="Invariant bookkeeping for genus-g pencils: germ "
                    "resolution, record audits, reference tables, branch "
                    "data, and cover data.")
    parser.add_argument("--version", action="version",
                        version=f"fibrato {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True, parser_class=_SubcommandParser)

    p = sub.add_parser("audit",
                       help="run every applicable identity and inequality "
                            "check on an invariant record")
    p.add_argument("record", help="path to a record JSON file, or - for stdin")
    p.add_argument("--json", action="store_true",
                   help="emit the audit report as JSON")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("resolve",
                       help="resolve a plane germ by even blow-ups and "
                            "classify the cluster", signed_text=True)
    p.add_argument("germ", help="germ expression, e.g. \"y^8 - z^4\"")
    p.add_argument("--trace", action="store_true",
                   help="print the full tree of infinitely-near points")
    p.add_argument("--json", action="store_true",
                   help="emit the resolution data as JSON")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("example",
                       help="instantiate a record family at a chosen genus")
    p.add_argument("family", metavar="family",
                   help="one of: " + ", ".join(constructions.FAMILY_NAMES))
    p.add_argument("--genus", type=_integer, default=None,
                   help="fiber genus (required unless the family fixes it)")
    p.add_argument("--emit-json", action="store_true",
                   help="print only the family's cover datum as JSON "
                        "(pipe into 'fibrato datum -')")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("tables", help="print the three reference tables")
    p.add_argument("which", nargs="?", default="all",
                   choices=["1", "2", "3", "all"],
                   help="which table to print (default: all)")
    p.add_argument("--format", choices=["md", "csv"], default="md",
                   help="output format (default: md)")
    p.add_argument("--json", action="store_true",
                   help="emit the tables as JSON")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("hurwitz",
                       help="check a branch datum for compatibility and "
                            "realizability")
    p.add_argument("datum", help="path to a branch datum JSON file, or - "
                                 "for stdin")
    p.add_argument("--json", action="store_true",
                   help="emit the verdict as JSON")
    p.set_defaults(func=_cmd_hurwitz)

    p = sub.add_parser("datum",
                       help="validate a cover datum, compute its invariants "
                            "and run the semi-stability and audit checks")
    p.add_argument("datum", help="path to a cover datum JSON file, or - "
                                 "for stdin")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.set_defaults(func=_cmd_datum)

    p = sub.add_parser("search",
                       help="experimental: sweep binomial germ data at a "
                            "fixed genus and rank the survivors by speed")
    p.add_argument("--genus", type=_integer, required=True, help="fiber genus")
    p.add_argument("--max-n", type=_integer, required=True,
                   help="largest branch bidegree n to try (even n only)")
    p.add_argument("--germ-grid", required=True, metavar="AxB",
                   help="try germs y^a - z^b for 2 <= a <= A, 2 <= b <= B")
    p.add_argument("--json", action="store_true",
                   help="emit the candidate list as JSON")
    p.set_defaults(func=_cmd_search)

    return parser


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    subject = f"germ {args.germ!r}" if args.command == "resolve" else args.command
    # A command's output is held until it returns, so a failure part-way
    # through leaves nothing half-printed on stdout.
    try:
        with redirect_stdout(io.StringIO()) as buffer:
            code = args.func(args)
    except (InputError, PreconditionViolated) as exc:
        failure = str(exc)
    except (RequiresAlgebraicExtension, DepthOverflow) as exc:
        failure = f"{subject}: {exc}"
    except (MemoryError, OverflowError, ValueError) as exc:
        # past what a list can hold (the germ y^(10^13) - z^(10^13), a family at
        # genus 10^18), or an integer past the interpreter's 4,300-digit limit on
        # conversion to text: no message worth printing.  Any other ValueError,
        # GermSyntaxError among them, says what failed.
        too_large = not isinstance(exc, ValueError) or "integer string conversion" in str(exc)
        failure = f"{subject}: {'input too large to allocate' if too_large else exc}"
    else:
        sys.stdout.write(buffer.getvalue())
        return code
    print(f"error: {failure}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (``fibrato ... | head -1``): stop
        # quietly.  stdout now points at os.devnull, so the flush at exit
        # has nothing left to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CHECK_FAILED
    return code

"""The four workloads: their seeded inputs, one operation each, and an
output check that takes an independent route.

A workload object is built in the pass process after the program's modules
are importable.  ``items`` is the pass's input list, ``op(item)`` is one timed
operation (calls into the program only), and ``check(item, result)`` runs
outside the timer and returns ``None`` or a ``Failure``.  ``known_defects``
holds the inputs that hit a known crash of the program; they are kept out of
``items``, so that no measured operation fails, and run.py runs them once
per run, untimed, to count how many still fail.  Operations call the
program through module attributes (``germs.parse_germ``), so the wrappers that
``tracing.install`` puts in place are the ones called.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import procs


@dataclass
class PassSpec:
    seed: int
    tiny: bool        # a handful of inputs, for the self-check
    work_dir: Path    # this pass's work directory inside the checkout
    pass_index: int
    traced: bool


@dataclass
class Failure:
    reason: str    # accounting key: exception type, exit code or check name
    message: str
    wrong: bool    # True when the program answered, but incorrectly


def wrong(reason: str, message: str) -> Failure:
    return Failure(f"check:{reason}", message, True)


# ---------------------------------------------------------------------------
# independent references shared by the checks

def binomial_text(e: int, f: int, a: int, b: int) -> str:
    return "*".join((["y"] if e else []) + (["z"] if f else []) + [f"(y^{a} - z^{b})"])


def binomial_params(germ) -> tuple[int, int, int, int] | None:
    """(e, f, a, b) when the germ's support is that of y^e z^f (y^a - z^b)."""
    items = list(germ.support.items())
    if len(items) != 2 or items[0][1] + items[1][1] != 0 or abs(items[0][1]) != 1:
        return None
    (i1, j1), (i2, j2) = items[0][0], items[1][0]
    e, f = min(i1, i2), min(j1, j2)
    if {(i1, j1), (i2, j2)} != {(max(i1, i2), f), (e, max(j1, j2))} or e > 1 or f > 1:
        return None
    return e, f, max(i1, i2) - e, max(j1, j2) - f


def oracle_sums(oracle, a: int, b: int) -> tuple[int, int]:
    """sum k(k-1) and sum (k-1)^2, k = floor(m/2), over one germ y^a - z^b."""
    ks = [m // 2 for m in oracle.binomial_oracle(0, 0, a, b)]
    return sum(k * (k - 1) for k in ks), sum((k - 1) ** 2 for k in ks)


def record_speed(g: int) -> Fraction:
    """Best constructed speed at genus g, from the published clauses."""
    if g == 2:
        return Fraction(8, 5)
    if g == 3:
        return Fraction(8, 3)
    if g % 2:
        return Fraction(g - (g + 1) // 4)
    best = Fraction(g * g + 4 * g, 2 * g + 2)
    return max(best, Fraction(3 * g, 4)) if g % 4 == 0 else best


def hurwitz_genus(g_target: int, d: int, partitions) -> int:
    """Riemann-Hurwitz: 2 g_s - 2 = d (2 g_t - 2) + sum (part - 1)."""
    ram = sum(p - 1 for part in partitions for p in part)
    return (d * (2 * g_target - 2) + ram + 2) // 2


# Printed cells of the three reference tables (3 decimals, half-up).
GOLDEN_TABLES = {
    1: {"g_C <= 1 (m = 1)": ["1.889", "2.833", "3.778", "4.722", "5.667", "6.611", "7.556"],
        "g_C = 2 (m = 2)": ["1.944", "2.917", "3.889", "4.861", "5.833", "6.806", "7.778"]},
    2: {"non-hyperelliptic": ["2.667", "3.5", "4", "5.778", "6.667", "7.556", "8.444",
                              "9.333", "10.222"]},
    3: {"best known": ["1.6", "2.667", "3.2", "4", "4.286", "5", "6", "7"]},
}
TABLE3_GENERA = range(2, 10)


def check_tables(cells: dict, exact3: list) -> Failure | None:
    """cells: {(table, row label): [decimal strings]}; exact3: table 3's exact
    values for g = 2..9."""
    expected = {(t, label): row for t, rows in GOLDEN_TABLES.items()
                for label, row in rows.items()}
    if cells != expected:
        return wrong("tables", f"table cells {cells} differ from the printed tables")
    want = [record_speed(g) for g in TABLE3_GENERA]
    if [Fraction(x) for x in exact3] != want:
        return wrong("tables", f"table 3 exact values {exact3} != {want}")
    return None


# ---------------------------------------------------------------------------
# grid: engine versus the exponent oracle

class Grid:
    """y^e z^f (y^a - z^b), e, f in {0, 1}, a, b in 1..14, seed-shuffled."""

    known_defects: list = []

    def __init__(self, spec: PassSpec):
        from fibrato import germs, oracle
        self.germs, self.oracle = germs, oracle
        items = [(e, f, a, b) for e in (0, 1) for f in (0, 1)
                 for a in range(1, 15) for b in range(1, 15)]
        random.Random(spec.seed).shuffle(items)
        self.items = [(p, binomial_text(*p)) for p in items[:8 if spec.tiny else None]]

    def kind(self, item) -> str:
        return "germ"

    def op(self, item):
        germs = self.germs
        return germs.even_resolve(germs.parse_germ(item[1])).multiplicities()

    def check(self, item, result) -> Failure | None:
        want = self.oracle.binomial_oracle(*item[0])
        if result != want:
            return wrong("oracle", f"{item[1]}: engine {result} != oracle {want}")
        return None


# ---------------------------------------------------------------------------
# families: every record family for g = 2..61, deep even_genus chains, tables

FAMILY_DOMAINS = {
    "genus2": lambda g: g == 2,
    "genus3": lambda g: g == 3,
    "odd_genus": lambda g: g % 2 == 1 and g >= 5,
    "even_genus": lambda g: g % 2 == 0 and g >= 4,
    "mod4_0": lambda g: g % 4 == 0 and g >= 4,
    "mod4_1": lambda g: g % 4 == 1 and g >= 5,
    "mod6_1": lambda g: g % 6 == 1 and g >= 7,
}
DEEP_GENERA = (80, 120, 160, 200)


class Families:
    """One report per family; even_genus(g) for g in DEEP_GENERA with a depth
    cap of 2g + 8 (the default 64 overflows at g = 200); one build of the
    three reference tables.  Seed-shuffled."""

    known_defects: list = []

    def __init__(self, spec: PassSpec):
        from fibrato import bounds, constructions, fibration, hurwitz, oracle
        self.bounds, self.constructions = bounds, constructions
        self.fibration, self.hurwitz, self.oracle = fibration, hurwitz, oracle
        genera, deep = (range(2, 6), (10,)) if spec.tiny else (range(2, 62), DEEP_GENERA)
        items = [("family", name, g, None) for g in genera
                 for name, ok in FAMILY_DOMAINS.items() if ok(g)]
        items += [("deep", "even_genus", g, 2 * g + 8) for g in deep]
        items.append(("tables", None, None, None))
        random.Random(spec.seed).shuffle(items)
        self.items = items

    def kind(self, item) -> str:
        return item[0]

    def op(self, item):
        kind, name, g, depth = item
        c, hz = self.constructions, self.hurwitz
        if kind == "tables":
            return [self.bounds.table(w) for w in (1, 2, 3)]
        if kind == "deep":
            fam = c.even_genus(g)
            report = fam.report(max_depth=depth)
        else:
            fam = c.family(name, g)
            report = fam.report()
        audit = self.fibration.audit(report.invariants)
        b = fam.branch
        solved = hz.solve_source_genus(b.g_target, b.m, b.d, b.partitions)
        verdict = hz.is_realizable(hz.BranchDatum(solved, b.g_target, b.m, b.d, b.partitions))
        return fam, report, audit, solved, verdict, c.best_known(g)

    def check(self, item, result) -> Failure | None:
        kind, name, g, _ = item
        if kind == "tables":
            cells = {(t.which, row.label): [d for (_, d) in row.cells]
                     for t in result for row in t.rows}
            return check_tables(cells, [v for (v, _) in result[2].rows[0].cells])
        fam, report, audit, solved, verdict, best = result
        where = f"{name}({g})"
        inv = report.invariants
        got = (inv.chi, inv.omega_sq, report.slope, report.speed)
        want = (fam.expected_chi, fam.expected_omega_sq, fam.expected_slope, fam.expected_speed)
        if got != want:
            return wrong("closed-formula", f"{where}: (chi, omega^2, slope, speed) {got} != {want}")
        if not report.semistable.passed or not audit.passed:
            return wrong("verdict", f"{where}: semistable {report.semistable.passed}, "
                                    f"audit {audit.passed}")
        b = fam.branch
        rh = hurwitz_genus(b.g_target, b.d, b.partitions)
        if solved != rh or (b.g_source is not None and solved != b.g_source):
            return wrong("hurwitz", f"{where}: solved source genus {solved}, Riemann-Hurwitz {rh}")
        cyclic = b.g_target == 0 and (b.d,) in b.partitions
        if verdict != ("Realizable" if cyclic else "Unknown"):
            return wrong("hurwitz", f"{where}: realizability {verdict}")
        record = record_speed(g)
        if best.value != record or report.speed > record or (
                best.witness == name and report.speed != record):
            return wrong("best_known", f"{where}: speed {report.speed}, best_known "
                                       f"{best.value} ({best.witness}), record {record}")
        seen = {}
        for s in report.traces:
            if s.germ in seen:
                continue
            params = binomial_params(s.germ)
            seen[s.germ] = params
            if params is None:
                return wrong("oracle", f"{where}: germ {s.germ} is not binomial")
            want_m = self.oracle.binomial_oracle(*params)
            if list(s.multiplicities) != want_m:
                return wrong("oracle", f"{where}: {s.germ} multiplicities "
                                       f"{list(s.multiplicities)} != oracle {want_m}")
        return None


# ---------------------------------------------------------------------------
# search: the candidate sweep of `fibrato search`, per candidate

class Search:
    """Four seed-chosen genera in 2..12; even n <= 16; y^a - z^b, 2 <= a, b <= 8;
    in the order the CLI sweeps them.  Candidates whose oracle chi is 0 raise
    IsotrivialDivisionByZero today; they are the known defects."""

    def __init__(self, spec: PassSpec):
        from fibrato import datum, fibration, oracle
        self.datum, self.fibration, self.oracle = datum, fibration, oracle
        genera = sorted(random.Random(spec.seed).sample(range(2, 13), 4))
        if spec.tiny:
            genera, ns, ab = genera[:1], (2, 4), range(2, 4)
        else:
            ns, ab = range(2, 17, 2), range(2, 9)
        self.markers = tuple(datum.CriticalFiber(f"marker_{i}", negligible_marker=True)
                             for i in range(1, 4))
        candidates = [(g, n, a, b, f"y^{a} - z^{b}")
                      for g in genera for n in ns for a in ab for b in ab]
        kk = {(a, b): oracle_sums(oracle, a, b)[0] for a in ab for b in ab}

        def chi_is_0(c) -> bool:  # 2 chi = g n - 2 sum k(k-1), see check()
            return c[0] * c[1] == 2 * kk[c[2], c[3]]

        self.items = [c for c in candidates if not chi_is_0(c)]
        self.known_defects = [c for c in candidates if chi_is_0(c)]

    def kind(self, item) -> str:
        return "candidate"

    def op(self, item):
        g, n, _, _, text = item
        dm = self.datum
        d = dm.GenusGDatum(g=g, g_C=1, e=0, n=n,
                           critical_fibers=(dm.CriticalFiber("candidate", (text, text)),)
                           + self.markers)
        report = dm.invariants(d)
        inv = report.invariants
        if inv.chi > 0 and report.semistable.passed:
            self.fibration.audit(inv)
        return report

    def check(self, item, report) -> Failure | None:
        g, n, a, b, text = item
        kk, km = oracle_sums(self.oracle, a, b)
        chi = Fraction(g * n - 2 * kk, 2)
        omega_sq = Fraction((2 * g - 2) * n - 4 * km)
        inv = report.invariants
        if (inv.chi, inv.omega_sq) != (chi, omega_sq):
            return wrong("oracle", f"g={g} n={n} {text}: (chi, omega^2) "
                                   f"({inv.chi}, {inv.omega_sq}) != oracle ({chi}, {omega_sq})")
        return None


# ---------------------------------------------------------------------------
# cli: cold-start invocations, one child process at a time

TRACEBACK = "Traceback (most recent call last)"
CHI0_DATUM = {"schema_version": 1, "g": 2, "g_C": 1, "e": 0, "n": 2,
              "critical_fibers": [{"label": "c", "germs": ["y^4 - z^4", "y^4 - z^4"]},
                                  {"label": "m", "germs": [], "negligible": True}]}


def quartic_frame_json(g: int) -> dict:
    """The odd_genus cover datum at genus g, written out by hand."""
    return {"schema_version": 1, "g": g, "g_C": 1, "e": 0, "n": 4,
            "critical_fibers": [
                {"label": "b^-1(0)", "germs": [f"y^{g + 1} - z^4"] * 2},
                {"label": "b^-1(1)", "germs": ["y^2 - z^4"] * (g + 1)},
                {"label": "b^-1(inf_1)", "germs": ["y^2 - z^2"] * (g + 1)},
                {"label": "b^-1(inf_2)", "germs": ["y^2 - z^2"] * (g + 1)}]}


def odd_genus_invariants(g: int) -> tuple[Fraction, Fraction]:
    k = (g + 1) // 4
    return Fraction(2 * g - 2 * k), Fraction(8 * g - 8 - 4 * k)


def _exact(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Cli:
    """Every subcommand once per pass, with inputs drawn and order shuffled per
    pass from the seed; each invocation
    is a fresh `python -m fibrato.cli`.  The chi = 0 datum, which exits with a
    traceback today, is the known defect."""

    SUBCOMMANDS = ("tables", "resolve", "example", "audit", "hurwitz", "datum", "search")

    def __init__(self, spec: PassSpec):
        from fibrato import oracle
        self.oracle = oracle
        work_dir = self.work_dir = spec.work_dir
        self.traced = spec.traced
        self.env = procs.child_env()
        # Each round draws its own inputs, so that a run averages over several
        # resolve germs and genera instead of resting on one draw.
        rng = random.Random(spec.seed * 1000 + spec.pass_index)
        self.resolve_params = (rng.randint(0, 1), rng.randint(0, 1),
                               rng.randint(1, 14), rng.randint(1, 14))
        self.audit_g = rng.randrange(5, 42, 2)
        self.hurwitz_g = rng.randrange(4, 41, 2)
        self.datum_g = rng.randrange(5, 22, 2)
        chi, omega_sq = odd_genus_invariants(self.audit_g)
        inputs = {
            "record.json": {"schema_version": 1, "g": self.audit_g, "g_C": 1, "s": 4,
                            "chi": _exact(chi), "omega_sq": _exact(omega_sq),
                            "delta": _exact(12 * chi - omega_sq),
                            "hyperelliptic": True, "semistable": True},
            "branch.json": {"schema_version": 1, "g_source": None, "g_target": 0, "m": 3,
                            "d": 2 * self.hurwitz_g + 2,
                            "partitions": [[self.hurwitz_g + 1] * 2,
                                           [2 * self.hurwitz_g + 2], [2 * self.hurwitz_g + 2]]},
            "cover.json": quartic_frame_json(self.datum_g),
            "chi0.json": CHI0_DATUM,
        }
        for name, doc in inputs.items():
            (work_dir / name).write_text(json.dumps(doc), encoding="utf-8")
        argv = {
            "tables": ["tables", "--json"],
            "resolve": ["resolve", binomial_text(*self.resolve_params), "--json"],
            "example": ["example", "even_genus", "--genus", "6", "--json"],
            "audit": ["audit", str(work_dir / "record.json"), "--json"],
            "hurwitz": ["hurwitz", str(work_dir / "branch.json"), "--json"],
            "datum": ["datum", str(work_dir / "cover.json"), "--json"],
            "search": ["search", "--genus", "6", "--max-n", "8", "--germ-grid", "4x4", "--json"],
            "datum_chi0": ["datum", str(work_dir / "chi0.json"), "--json"],
        }
        items = list(self.SUBCOMMANDS)
        rng.shuffle(items)
        self.items = [(sub, argv[sub]) for sub in items]
        self.known_defects = [("datum_chi0", argv["datum_chi0"])]
        self.spans_files: list[Path] = []
        self.invocations = 0
        self.peak_rss_kb = 0  # of the largest invocation

    def kind(self, item) -> str:
        return item[0]

    def op(self, item):
        sub, args = item
        n = self.invocations = self.invocations + 1
        out, err = self.work_dir / f"{n}-{sub}.out", self.work_dir / f"{n}-{sub}.err"
        if self.traced:
            spans = self.work_dir / f"{n}-{sub}.spans"
            self.spans_files.append(spans)
            argv = [sys.executable, str(Path(__file__).with_name("cli_hook.py")), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "fibrato.cli", *args]
        done = procs.spawn(argv, self.env, out, err, timeout_s=60)
        self.peak_rss_kb = max(self.peak_rss_kb, done.peak_rss_kb)
        return done, out, err

    def check(self, item, result) -> Failure | None:
        sub = item[0]
        done, out, err = result
        if done.timed_out:
            return Failure("timeout", f"{sub}: killed after 60 s", False)
        stderr = err.read_text(encoding="utf-8", errors="replace")
        expected = (0, 1) if sub == "datum_chi0" else (0,)
        if done.exit_code not in expected or TRACEBACK in stderr:
            tb = "+traceback" if TRACEBACK in stderr else ""
            last = stderr.strip().splitlines()[-1:] or [""]
            return Failure(f"exit{done.exit_code}{tb}", f"{sub}: exit {done.exit_code}: "
                                                        f"{last[0][:200]}", False)
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
        except ValueError as exc:
            return wrong(sub, f"{sub}: --json output does not parse: {exc}")
        return getattr(self, "_check_" + sub)(doc)

    def _check_tables(self, doc):
        tabs = doc["tables"]
        cells = {(t["table"], row["label"]): [c["decimal"] for c in row["cells"]]
                 for t in tabs for row in t["rows"]}
        return check_tables(cells, [c["exact"] for c in tabs[2]["rows"][0]["cells"]])

    def _check_resolve(self, doc):
        want = self.oracle.binomial_oracle(*self.resolve_params)
        if doc["multiplicities"] != want:
            return wrong("resolve", f"resolve {self.resolve_params}: "
                                    f"{doc['multiplicities']} != oracle {want}")
        return None

    def _check_example(self, doc):
        rec = doc["computed"]["record"]
        got = (rec["chi"], rec["omega_sq"], doc["computed"]["speed"], doc["matches"],
               doc["semistable"]["passed"])
        want = ("30", "108", "30/7", True, True)  # chi = g^2/2 + 2g, omega^2 = 2g^2 + 8g - 12
        return None if got == want else wrong("example", f"even_genus 6: {got} != {want}")

    def _check_audit(self, doc):
        status = {c["check"]: c["status"] for c in doc["checks"]}
        if status.get("noether-identity") != "pass" or "fail" in status.values():
            return wrong("audit", f"odd_genus({self.audit_g}) record: {status}")
        return None

    def _check_hurwitz(self, doc):
        got = (doc["compatible"], doc["solved_source_genus"], doc["realizability"])
        want = (True, self.hurwitz_g, "Realizable")
        return None if got == want else wrong("hurwitz", f"even_genus({self.hurwitz_g}) "
                                                         f"branch: {got} != {want}")

    def _check_datum(self, doc):
        chi, omega_sq = odd_genus_invariants(self.datum_g)
        rec = doc["invariants"]["record"]
        got = (rec["chi"], rec["omega_sq"], doc["semistable"]["passed"])
        want = (_exact(chi), _exact(omega_sq), True)
        return None if got == want else wrong("datum", f"odd_genus({self.datum_g}) "
                                                       f"datum: {got} != {want}")

    def _check_datum_chi0(self, doc):
        if "invariants" in doc and doc["invariants"]["record"]["chi"] != "0":
            return wrong("datum_chi0", f"chi = 0 datum reports chi "
                                       f"{doc['invariants']['record']['chi']}")
        return None

    def _check_search(self, doc):
        g = 6
        best = doc["best_known"]
        if (best["value"], best["witness"]) != (_exact(record_speed(g)), "even_genus"):
            return wrong("search", f"best_known {best}")
        for cand in doc["candidates"]:
            a, b = map(int, re.fullmatch(r"y\^(\d+) - z\^(\d+)", cand["germ"]).groups())
            kk, _ = oracle_sums(self.oracle, a, b)
            chi = Fraction(g * cand["n"] - 2 * kk, 2)
            # s = 4 critical fibers over a genus-1 base: speed = 2 chi / 4
            if (cand["chi"], cand["speed"]) != (_exact(chi), _exact(chi / 2)):
                return wrong("search", f"candidate {cand} != oracle chi {chi}")
        return None


WORKLOADS = {"grid": Grid, "families": Families, "search": Search, "cli": Cli}

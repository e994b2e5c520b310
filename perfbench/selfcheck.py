"""Fast self-check of the benchmark's own code (about half a minute).

    python3 perfbench/selfcheck.py

1. Every output check rejects a deliberately wrong answer, and a crashing
   operation is counted as failed, not as wrong.
2. Each workload runs on a handful of inputs with --trace 0 and --trace 1;
   the last line must be the result object, carrying exactly the metrics
   that BENCHMARK.json declares for that mode, with their units.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py must
   exit non-zero without printing a result.

Exit status 0 when everything holds; otherwise each problem is printed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import procs
import yardstick
from workloads import (WORKLOADS, Cli, Families, Grid, PassSpec, Search, check_tables,
                       oracle_sums)
from worker import probe_known_defects, run_ops

OUT = procs.ROOT / ".perfbench_out" / "selfcheck"
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def flagged_wrong(failure) -> bool:
    return failure is not None and failure.wrong


def check_the_checks() -> None:
    print("output checks reject wrong answers:")
    sys.path.insert(0, str(procs.SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    spec = PassSpec(seed=1, tiny=True, work_dir=OUT, pass_index=0, traced=False)

    grid = Grid(spec)
    item = grid.items[0]
    good = grid.op(item)
    expect(grid.check(item, good) is None, "grid: engine output passes")
    expect(flagged_wrong(grid.check(item, good + [2])), "grid: extra multiplicity is caught")

    fams = Families(spec)
    item = next(i for i in fams.items if i[0] == "family")
    fam, *rest = fams.op(item)
    expect(fams.check(item, (fam, *rest)) is None, "families: report passes")
    forged = dataclasses.replace(fam, expected_chi=fam.expected_chi + 1)
    expect(flagged_wrong(fams.check(item, (forged, *rest))), "families: closed-formula mismatch is caught")
    tables = fams.op(("tables", None, None, None))
    cells = {(t.which, r.label): [d for (_, d) in r.cells] for t in tables for r in t.rows}
    exact3 = [v for (v, _) in tables[2].rows[0].cells]
    expect(check_tables(cells, exact3) is None, "families: tables pass")
    expect(flagged_wrong(check_tables(cells, exact3[:-1] + [exact3[-1] + 1])),
           "families: a wrong table-3 value is caught")

    search = Search(spec)
    item = search.items[0]
    report = search.op(item)
    expect(search.check(item, report) is None, "search: candidate passes")
    shifted = (item[0], item[1] + 2) + item[2:]
    expect(flagged_wrong(search.check(shifted, report)), "search: chi/omega^2 mismatch is caught")

    cli = Cli(spec)
    example = {"computed": {"record": {"chi": "31", "omega_sq": "108"}, "speed": "30/7"},
               "matches": True, "semistable": {"passed": True}}
    expect(flagged_wrong(cli._check_example(example)), "cli: wrong chi from example is caught")
    hurwitz = {"compatible": True, "solved_source_genus": cli.hurwitz_g + 1,
               "realizability": "Realizable"}
    expect(flagged_wrong(cli._check_hurwitz(hurwitz)), "cli: wrong source genus is caught")

    class Crashing:
        items = [1, 2]
        known_defects = [2, 3]

        def kind(self, item):
            return "op"

        def op(self, item):
            if item == 2:
                raise ZeroDivisionError("boom")
            return item

        def check(self, item, result):
            return None

    counted = run_ops(Crashing(), None, yardstick.Recorder())
    expect([op[3] for op in counted["ops"]] == [None, "ZeroDivisionError"]
           and not counted["failures"]["ZeroDivisionError"]["wrong"],
           "worker: a crash counts as a failed operation, not a wrong output")
    probed = probe_known_defects(Crashing())
    expect(probed["attempted"] == 2 and probed["failures"]["ZeroDivisionError"]["count"] == 1,
           "worker: the known-defect probe counts the inputs that still fail")
    expect(all(c[0] * c[1] != 2 * oracle_sums(search.oracle, c[2], c[3])[0]
               for c in search.items), "search: no chi = 0 candidate among the timed inputs")


def check_runs(bench: dict) -> None:
    print("tiny runs emit every declared metric:")
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[group]}
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=procs.ROOT, capture_output=True, text=True, timeout=170)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = line["metrics"]
            expect(set(line) == {"correct", "attempted", "failed", "metrics"}
                   and line["correct"] is True and line["attempted"] >= 1
                   and line["failed"] == 0,
                   f"{what}: result object well formed, correct, nothing failed")
            expect({k: v["unit"] for k, v in metrics.items()} == declared
                   and all(set(v) == {"value", "unit"} and math.isfinite(v["value"])
                           for v in metrics.values()),
                   f"{what}: all {len(declared)} declared metrics, units and finite values")


def check_bare_directory() -> None:
    print("no program, no result:")
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(procs.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(Path(__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"run.py without src/ exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((procs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_the_checks()
    check_runs(bench)
    check_bare_directory()
    print("self-check:", "passed" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

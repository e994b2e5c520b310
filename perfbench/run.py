"""The fibrato benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload {grid,families,search,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it exits with status 2 when the checkout
has no ``src/fibrato``.  The run drives the load itself, sequentially: it
starts one pass at a time, each a fresh interpreter (perfbench/worker.py)
that imports the program, builds the seed's inputs and runs each of them
once, so no pass profits from caches filled by an earlier one.  New passes
start while the next one still fits in S seconds.  For ``cli`` a pass is
one round of CLI invocations, each its own child process.

Every time is reported at the nominal machine speed (see yardstick.py).
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics
taken from the traced passes' spans, plus the tracing overhead.  The metric
names and units are those declared in BENCHMARK.json.  Human-readable lines
come first; the last line of standard output is one JSON object.  Details
(machine, failures, unscaled figures, every pass) go to
.perfbench_out/<run>/result.json.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import procs
import tracing
import yardstick
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = procs.ROOT / ".perfbench_out"
PASS_TIMEOUT_S = 150
SETUP_SAMPLES = 5
STARTUP_PROBES = 3
IMPORT_TIMER = ("import time; t = time.perf_counter(); import fibrato.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark itself could not complete a run."""


def declared_metrics() -> dict:
    bench = json.loads((procs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def machine() -> dict:
    return {"python": platform.python_version(),
            "sympy": importlib.metadata.version("sympy"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# passes

def run_pass(run_dir: Path, args, index: int, traced: bool, setup_only: bool = False) -> dict:
    work = run_dir / f"pass{index}"
    work.mkdir()
    request = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
               "pass_index": index, "traced": traced, "setup_only": setup_only,
               "probe": index == 0}
    (work / "request.json").write_text(json.dumps(request), encoding="utf-8")
    before = (time.monotonic(), yardstick.sample())
    done = procs.spawn([sys.executable, str(HERE / "worker.py"), str(work / "request.json")],
                       procs.child_env(), work / "worker.out", work / "worker.err",
                       PASS_TIMEOUT_S)
    result_path = work / "result.json"
    if done.exit_code != 0 or done.timed_out or not result_path.exists():
        tail = (work / "worker.err").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"pass {index} of {args.workload} ended with exit {done.exit_code}"
                         f"{' (timed out)' if done.timed_out else ''}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    setup = result["t_first_op"] - done.spawned_at
    recorder = yardstick.Recorder()
    recorder.add(*before)
    recorder.add(*result["setup_yardstick"])
    result.update(index=index, traced=traced, wall_s=done.wall_s, setup_raw_s=setup,
                  setup_s=setup * recorder.factor(done.spawned_at, result["t_first_op"]))
    return result


def run_passes(run_dir: Path, args) -> list[dict]:
    """Alternate untraced and traced passes (traced only with --trace 1) while
    the next pass of the due kind still fits in the time budget."""
    deadline = time.monotonic() + args.seconds
    passes: list[dict] = []
    kinds = (False, True) if args.trace else (False,)
    while True:
        traced = kinds[len(passes) % len(kinds)]
        passes.append(run_pass(run_dir, args, len(passes), traced))
        if len(passes) < len(kinds):
            continue
        following = kinds[len(passes) % len(kinds)]
        estimate = max(p["wall_s"] for p in passes if p["traced"] == following)
        if time.monotonic() + estimate > deadline:
            return passes


def startup_probes(run_dir: Path, repeats: int) -> dict:
    """Interpreter start, `import fibrato.cli`, and sympy's cumulative share
    of that import under -X importtime; medians of `repeats` children each,
    at the nominal machine speed."""
    env, probe = procs.child_env(), run_dir / "probe"
    probe.mkdir()
    out, err = probe / "out", probe / "err"
    interp, imports, sympy = [], [], []

    def child(*argv) -> tuple[float, float]:
        """Wall time and speed factor (from yardstick samples around it)."""
        recorder = yardstick.Recorder()
        recorder.sample()
        done = procs.spawn([sys.executable, *argv], env, out, err, 60)
        if done.exit_code != 0:
            raise BenchError(f"start-up probe {argv} exited {done.exit_code}: "
                             f"{err.read_text(encoding='utf-8', errors='replace')[-500:]}")
        recorder.sample()
        return done.wall_s, recorder.factor(done.spawned_at, done.spawned_at + done.wall_s)

    for _ in range(repeats):
        wall, factor = child("-c", "pass")
        interp.append(wall * factor)
        _, factor = child("-c", IMPORT_TIMER)
        imports.append(float(out.read_text(encoding="utf-8")) * factor)
        _, factor = child("-X", "importtime", "-c", "import fibrato.cli")
        for line in err.read_text(encoding="utf-8").splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "sympy":
                sympy.append(int(fields[1]) / 1e6 * factor)
        if len(sympy) != len(interp):
            raise BenchError("-X importtime shows no top-level sympy import")
    return {"cli.interp_s": statistics.median(interp),
            "cli.import_s": statistics.median(imports),
            "cli.import_sympy_s": statistics.median(sympy)}


# ---------------------------------------------------------------------------
# metrics

def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics' inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def ops_of(passes):
    return [op for p in passes for op in p["ops"]]


def latencies(passes, scaled: bool = True) -> list[float]:
    return [op[1] * (op[2] if scaled else 1) for op in ops_of(passes)]


def throughput(passes) -> float:
    lat = latencies(passes)
    return len(lat) / sum(lat)


def end_to_end(passes: list[dict], setups: list[float], scaled: bool) -> dict:
    lat = latencies(passes, scaled)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": quantile(lat, 0.90) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }


def per_layer(untraced: list[dict], traced: list[dict], probes: dict, defects: dict,
              names, cli: bool) -> dict:
    """Per-pass averages of the traced passes' counters, derived ratios, the
    tracing overhead, the CLI start-up probes, the known-defect counts and,
    for cli, the median time of each subcommand."""
    total: dict = {}
    for p in traced:
        tracing.merge(total, p["counters"])
    layer = {name: 0.0 for name in names}
    for key, value in total.items():
        layer[key] = value if key in tracing.MAX_COUNTERS else value / len(traced)
    calls, blowups, entries = (layer["germs.resolve_calls"], layer["germs.blowups"],
                               layer["datum.germ_entries"])
    layer["germs.repeat_share"] = 1 - layer["germs.resolve_distinct"] / calls if calls else 0.0
    layer["germs.us_per_blowup"] = layer["germs.resolve_s"] / blowups * 1e6 if blowups else 0.0
    layer["datum.dedupe_ratio"] = 1 - layer["datum.resolutions"] / entries if entries else 0.0
    base = throughput(untraced)
    layer["trace.overhead_frac"] = (throughput(traced) - base) / base
    if cli:
        by_kind: dict = {}
        for op in ops_of(untraced):
            by_kind.setdefault(op[0], []).append(op[1] * op[2])
        for kind, lat in by_kind.items():
            layer[f"cli.{kind}_p50_ms"] = statistics.median(lat) * 1e3
    layer.update(probes)
    layer["known_defect.inputs"] = defects["attempted"]
    layer["known_defect.failed"] = sum(e["count"] for e in defects["failures"].values())
    return layer


def failures_of(passes) -> dict:
    merged: dict = {}
    for p in passes:
        for reason, entry in p["failures"].items():
            slot = merged.setdefault(reason, dict(entry, count=0))
            slot["count"] += entry["count"]
    return merged


# ---------------------------------------------------------------------------
# main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a handful of inputs per pass (used by selfcheck.py)")
    return parser.parse_args(argv)


def measure(run_dir: Path, args, declared: dict):
    """Run the passes; return them with the metrics, their units, and (for
    --trace 0) the same metrics unscaled."""
    passes = run_passes(run_dir, args)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        units = declared["per_layer"]
        probes = startup_probes(run_dir, 1 if args.tiny else STARTUP_PROBES)
        metrics = per_layer(untraced, [p for p in passes if p["traced"]], probes,
                            passes[0]["known_defects"], units, args.workload == "cli")
        return passes, metrics, units, None
    extra = []
    while len(untraced) + len(extra) < (1 if args.tiny else SETUP_SAMPLES):
        extra.append(run_pass(run_dir, args, len(passes) + len(extra), False, setup_only=True))
    setups = untraced + extra
    metrics = end_to_end(untraced, [p["setup_s"] for p in setups], scaled=True)
    raw = end_to_end(untraced, [p["setup_raw_s"] for p in setups], scaled=False)
    return passes, metrics, declared["end_to_end"], raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (procs.SRC / "fibrato" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {procs.SRC}/fibrato", file=sys.stderr)
        return 2
    declared = declared_metrics()
    host = machine()
    # One CPU for the run and every child: yardstick samples then measure the
    # CPU the operations run on (see yardstick.py).
    host["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {host["cpu"]})
    compileall.compile_dir(str(procs.SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    try:
        passes, metrics, units, raw = measure(run_dir, args, declared)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"perfbench: computed metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    ops = ops_of(passes)
    failures = failures_of(passes)
    failed = sum(1 for op in ops if op[3] is not None)
    defects = passes[0]["known_defects"]
    correct = not any(entry["wrong"] for entry in [*failures.values(),
                                                   *defects["failures"].values()])
    line = {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}
    factors = [op[2] for op in ops_of(untraced)]
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": host, "failures": failures,
               "known_defects": defects,
               "unscaled_metrics": raw,
               "passes": [{k: v for k, v in p.items() if k != "ops"} for p in passes],
               "result": line}
    (run_dir / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: python {host['python']}, sympy {host['sympy']}, nproc {host['nproc']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in host['loadavg'])}; speed factor median "
          f"{statistics.median(factors):.3f} (range {min(factors):.3f}-{max(factors):.3f})")
    print(f"passes: {len(untraced)} untraced, {len(passes) - len(untraced)} traced; "
          f"{len(factors)} timed operations; {len(ops)} attempted, {failed} failed")
    for reason, entry in sorted(failures.items()):
        print(f"  failed {entry['count']:>5} x {reason}{' (WRONG OUTPUT)' if entry['wrong'] else ''}"
              f": {entry['example'][:160]}")
    print(f"known defects (untimed, not counted above): {defects['attempted']} inputs")
    for reason, entry in sorted(defects["failures"].items()):
        print(f"  still fail {entry['count']:>5} x {reason}"
              f"{' (WRONG OUTPUT)' if entry['wrong'] else ''}: {entry['example'][:160]}")
    for name, unit in units.items():
        unscaled = f"   (unscaled {raw[name]:.6g})" if raw and raw[name] != metrics[name] else ""
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}{unscaled}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py <request.json>

The request (written by run.py) names the workload, seed, pass index, work
directory, whether spans are recorded, whether the pass stops once set-up
is done, and whether it probes the known defects.  The pass imports the
program, builds its inputs, notes the moment the first operation starts,
then runs every input once, timing each operation alone and checking its
output outside the timer.  A probing pass then runs the workload's
known-defect inputs, untimed, and counts how many still fail.  It writes a
JSON result next to the request.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import procs
import tracing
import yardstick
from workloads import WORKLOADS, Failure, PassSpec, wrong


def main() -> int:
    request_path = Path(sys.argv[1])
    req = json.loads(request_path.read_text(encoding="utf-8"))
    spec = PassSpec(req["seed"], req["tiny"], request_path.parent, req["pass_index"],
                    req["traced"])

    import fibrato
    if Path(fibrato.__file__).resolve().parent != procs.SRC / "fibrato":
        print(f"fibrato imported from {fibrato.__file__}, not from {procs.SRC}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[req["workload"]](spec)
    tracer = None
    if spec.traced and req["workload"] != "cli":  # cli children trace themselves
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t_first_op = time.monotonic()
    recorder = yardstick.Recorder()
    result = {"t_first_op": t_first_op, "setup_yardstick": [t_first_op, recorder.sample()]}
    if not req["setup_only"]:
        result.update(run_ops(wl, tracer, recorder))
        result["peak_rss_kb"] = (getattr(wl, "peak_rss_kb", 0)
                                 or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        scales = [op[2] for op in result["ops"]]
        if tracer is not None:
            result["counters"] = tracing.counters(tracer, scales)
            tracing.write_spans(tracer, spec.work_dir / "spans.jsonl")
        elif spec.traced:
            total: dict = {}
            for path, factor in zip(wl.spans_files, scales):
                counters_path = Path(f"{path}.counters.json")
                if counters_path.exists():
                    counters = json.loads(counters_path.read_text(encoding="utf-8"))
                    tracing.merge(total, tracing.scaled(counters, factor))
            result["counters"] = total
        if req["probe"]:
            result["known_defects"] = probe_known_defects(wl)
    (spec.work_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_ops(wl, tracer, recorder: yardstick.Recorder) -> dict:
    """Run every input once, timing each operation alone, with yardstick
    samples after each one; then give each operation its speed factor."""
    ops = []          # [kind, latency_s, speed factor, failure reason or None]
    spans = []        # (start, end) of each operation, time.monotonic()
    failures = {}     # reason -> {"count", "wrong", "example"}
    for index, item in enumerate(wl.items):
        if tracer is not None:
            tracer.op = index
        kind = wl.kind(item)
        start = time.monotonic()
        try:
            result = wl.op(item)
        except Exception as exc:  # the program crashed: count it, keep going
            end = time.monotonic()
            failure = Failure(type(exc).__name__, f"{kind} {item!r}: {exc!r}", False)
        else:
            end = time.monotonic()
            failure = None
        spans.append((start, end))
        for _ in range(1 + min(4, int((end - start) / 0.05))):  # more after long ops
            recorder.sample()
        if failure is None:
            try:
                failure = wl.check(item, result)
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                failure = wrong(kind, f"{kind} {item!r}: output has an unexpected shape: {exc!r}")
            del result
        ops.append([kind, end - start, None, failure.reason if failure else None])
        if failure is not None:
            tally(failures, failure)
    for op, (start, end) in zip(ops, spans):
        op[2] = recorder.factor(start, end)
    return {"ops": ops, "failures": failures}


def probe_known_defects(wl) -> dict:
    """Run each known-defect input once, untimed; count the ones that fail."""
    failures: dict = {}
    for item in wl.known_defects:
        try:
            failure = wl.check(item, wl.op(item))
        except Exception as exc:  # the known crash
            failure = Failure(type(exc).__name__, f"{wl.kind(item)} {item!r}: {exc!r}", False)
        if failure is not None:
            tally(failures, failure)
    return {"attempted": len(wl.known_defects), "failures": failures}


def tally(failures: dict, failure: Failure) -> None:
    entry = failures.setdefault(failure.reason, {"count": 0, "wrong": failure.wrong,
                                                 "example": failure.message})
    entry["count"] += 1


if __name__ == "__main__":
    sys.exit(main())

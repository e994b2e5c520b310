"""Run the fibrato CLI with spans recorded at the library's entry points.

    python3 perfbench/cli_hook.py <spans-path> <fibrato arguments...>

Behaves like ``python -m fibrato.cli <arguments>`` (same exit code, same
output, and an escaping exception still ends in a traceback), and on the way
out writes the spans to <spans-path> and their counters to
<spans-path>.counters.json.
"""

import json
import sys

import fibrato.cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op = 0
    try:
        return fibrato.cli.main(argv)
    finally:
        tracing.write_spans(tracer, spans_path)
        with open(f"{spans_path}.counters.json", "w", encoding="utf-8") as out:
            json.dump(tracing.counters(tracer), out)


if __name__ == "__main__":
    sys.exit(main())

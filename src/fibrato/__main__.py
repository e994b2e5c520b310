"""The process entry of every ``fibrato`` command.

The console script ``fibrato``, ``python -m fibrato`` and ``python -m
fibrato.cli`` all start a command through ``run()``, which then calls
``fibrato.cli.main``.

A command is a short-lived process, and most of its start-up is the import of
the engine and sympy, which leaves some 50,000 objects tracked by the cyclic
garbage collector.  ``run()`` imports the engine with the collector paused and
then freezes what the import made (``gc.freeze()``), so that no collection
during the import or during the command traverses those objects again and the
collection at interpreter exit skips them.  The collector runs as usual for
everything the command itself allocates.  Only a process entry may do this:
the library never touches the collector, so a test, a benchmark worker or any
other in-process caller of ``fibrato.cli.main`` collects as it always has.
"""

import gc
import sys


def run() -> None:
    """Load the engine with the collector paused, freeze it, then run the
    command named by ``sys.argv`` and exit with its status."""
    gc.disable()
    try:
        from fibrato.cli import main
        gc.freeze()
    finally:
        gc.enable()
    sys.exit(main())


if __name__ == "__main__":
    run()

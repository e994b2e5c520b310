"""Spawn one child process, wait for it, and report what it cost.

Every child the benchmark starts goes through ``spawn``: one at a time, with
its standard output and error sent to files, waited for with ``wait4`` so
that its peak resident memory comes back with its exit status.  A child that
outlives its timeout is killed through a pidfd, which cannot hit a recycled
process id, and is still waited for.
"""

from __future__ import annotations

import os
import select
import signal
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Finished:
    exit_code: int
    timed_out: bool
    spawned_at: float  # time.monotonic() just before the spawn
    wall_s: float
    peak_rss_kb: int


def child_env() -> dict:
    """Environment for every child: the checkout's sources first on the path,
    a fixed hash seed, and the program's depth cap at its default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env.pop("FIBRATO_MAX_DEPTH", None)
    return env


def spawn(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path,
          timeout_s: float) -> Finished:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    spawned_at = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    timed_out = False
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout_s)
        if not ready:
            timed_out = True
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    wall = time.monotonic() - spawned_at
    return Finished(os.waitstatus_to_exitcode(status), timed_out, spawned_at,
                    wall, usage.ru_maxrss)

"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lone_small --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  The measurement itself runs in a child
process (``measure.py``, which takes the same arguments); this process
only makes sure that nothing the measurement started outlives the run.
It becomes the child subreaper of its process tree, so every orphaned
descendant (a spawned pool's resource tracker, a server's pool worker)
is re-parented to it and reaped here.  When the measurement has ended,
descendants get a short grace period to exit; any still alive after it
are killed, waited for, and the run is reported as not correct.

Standard output is the measurement's: the run stamp, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from server import descendants

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PR_SET_CHILD_SUBREAPER = 36
# How long descendants may take to exit once the measurement has ended.
GRACE_SECONDS = 5.0


def become_subreaper() -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap() -> None:
    """Collect every exited child, adopted orphans included."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def end_tree(grace: float) -> list[int]:
    """Wait up to ``grace`` seconds for every descendant to exit, then
    kill and wait for the rest.  Returns the pids that had to be killed."""
    deadline = time.monotonic() + grace
    while True:
        reap()
        alive = descendants(os.getpid())
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + GRACE_SECONDS
    while descendants(os.getpid()) and time.monotonic() < deadline:
        time.sleep(0.02)
        reap()
    return alive


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    subreaper = become_subreaper()
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    code = 1
    killed: list[int] = []
    with tempfile.TemporaryFile(dir=tmp) as captured:
        grace = 0.0
        try:
            child = subprocess.Popen(
                [sys.executable, str(HERE / "measure.py"), *sys.argv[1:]],
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=captured,
            )
            code = child.wait()
            grace = GRACE_SECONDS
        finally:
            killed = end_tree(grace)
        captured.seek(0)
        lines = captured.read().decode("utf-8").splitlines()

    if killed:
        print(
            f"processes {killed} outlived the measurement; killed"
            + ("" if subreaper else " (no subreaper: orphans not tracked)"),
            file=sys.stderr,
        )
        if code == 0 and lines:
            result = json.loads(lines[-1])
            result["correct"] = False
            lines[-1] = json.dumps(result)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Launch ``python -m repro serve`` as deployed, and tear it down cleanly.

The server runs as a child process with its shipped defaults plus the
workload's flags.  Teardown is part of the measurement's hygiene: the
server and every pool worker it forked must be gone afterwards, and no
``/dev/shm`` entry created during its life may survive it.  Any breach
is returned as a problem string, and the workload reports it as a
failed run.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHM = Path("/dev/shm")
_LISTEN = re.compile(r"listening on http://([^:]+):(\d+)")


def child_env() -> dict[str, str]:
    """Environment for the server process.

    ``src`` goes first on the path; the tape store stays off, so every
    launch records from scratch; temporary files stay in the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_TAPE_DIR", None)
    env.pop("REPRO_MP_WORKERS", None)
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def _start_time(pid: int) -> "str | None":
    """Kernel start tick of ``pid`` (guards against pid reuse)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2 :].split()
    if fields[0] == "Z":
        return None  # exited, waiting to be reaped
    return fields[19]


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid``."""
    found: list[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        for task in Path(f"/proc/{parent}/task").glob("*"):
            try:
                kids = (task / "children").read_text().split()
            except OSError:
                continue
            for kid in map(int, kids):
                if kid not in found:
                    found.append(kid)
                    stack.append(kid)
    return found


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of one process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """``python -m repro serve --port 0 <flags>`` on localhost, plus the
    bookkeeping its teardown checks need."""

    def __init__(self, flags: list[str], startup_timeout: float = 60.0):
        self._shm_before = shm_entries()
        self._seen: dict[int, str] = {}
        self.flags = flags
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.host, self.port = self._wait_listening(startup_timeout)

    def _wait_listening(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], deadline - time.monotonic()
            )
            if not ready:
                break
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _LISTEN.search(line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError("repro serve did not report a listening port")

    def note_children(self) -> list[int]:
        """Remember the current descendants for the teardown check."""
        kids = descendants(self.proc.pid)
        for kid in kids:
            started = _start_time(kid)
            if started is not None:
                self._seen.setdefault(kid, started)
        return kids

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the server and its live descendants."""
        pids = [self.proc.pid, *self.note_children()]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self, timeout: float = 20.0) -> list[str]:
        """Interrupt, wait, and return every hygiene problem found."""
        problems: list[str] = []
        if self.proc.poll() is None:
            self.note_children()
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                problems.append(
                    f"server ignored SIGINT for {timeout:g}s; killed"
                )
                self.proc.kill()
                self.proc.wait(timeout=timeout)
        self.proc.stdout.close()
        deadline = time.monotonic() + 5.0
        survivors = self._survivors()
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = self._survivors()
        for pid in survivors:
            problems.append(f"child process {pid} survived teardown")
            os.kill(pid, signal.SIGKILL)
        leaked = shm_entries() - self._shm_before
        if leaked:
            problems.append(f"leaked /dev/shm entries: {sorted(leaked)}")
        return problems

    def _survivors(self) -> list[int]:
        return [
            pid
            for pid, started in self._seen.items()
            if _start_time(pid) == started
        ]

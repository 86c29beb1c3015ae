"""Child processes: readiness lines with a deadline, peak memory, clean stops."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time


def read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    """The first line a child writes to its unbuffered stdout pipe;
    raises when the child exits or the monotonic ``deadline`` passes."""
    fd = proc.stdout.fileno()
    data = b""
    while b"\n" not in data:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"{proc.args!r} printed no line in time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"{proc.args!r} closed its output (status "
                    f"{proc.poll()}) before printing a line"
                )
            data += chunk
    return data.split(b"\n", 1)[0]


def drain(fd: int) -> None:
    """Read and drop a pipe's output until the writer closes it."""
    try:
        while os.read(fd, 65536):
            pass
    except OSError:
        pass


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def stop(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Interrupt a child, kill it if it lingers, and reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

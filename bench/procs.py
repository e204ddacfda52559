"""Fresh child processes, each reaped with ``os.wait4`` so its peak RSS
(its own, or its largest reaped descendant's) comes from the kernel."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench.env import ROOT, child_env

CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout`` seconds); return
    its exit code and peak RSS in MB."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(
    op: str, workload: str, seed: int, smoke: bool, *extra: str
) -> tuple[dict, float]:
    """Run ``python -m bench child OP`` and return its JSON result and
    peak RSS (MB). ``--spawned`` carries the spawn instant, so the
    child can time its set-up from process start."""
    cmd = [
        sys.executable, "-m", "bench", "child", op,
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        reap(proc, CHILD_TIMEOUT_S)
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    code, rss_mb = reap(proc, CHILD_TIMEOUT_S)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if code != 0 or not lines:
        raise ChildFailed(f"child {op} {workload} seed={seed} exited {code}")
    return json.loads(lines[-1]), rss_mb


class Daemon:
    """A ``repro-serve`` process on an ephemeral port."""

    def __init__(self, args: list[str], log: Path) -> None:
        self.log = log
        self.spawned = time.monotonic()
        with open(log, "wb") as handle:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve.cli", *args],
                stdout=subprocess.DEVNULL, stderr=handle,
                env=child_env(), cwd=ROOT,
            )
        self.rss_mb = 0.0

    def port(self, timeout: float) -> int:
        """Wait for the daemon's ``serving ... on http://host:port``
        line and return the port."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log.read_text(errors="replace").splitlines():
                if " on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise ChildFailed(f"daemon never announced its port (see {self.log})")

    def stop(self) -> None:
        """Interrupt the daemon (it closes its store and exits) and
        reap it."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        code, self.rss_mb = reap(self.proc, 20.0)
        if code != 0:
            raise ChildFailed(f"daemon exited {code} (see {self.log})")

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            reap(self.proc, 20.0)

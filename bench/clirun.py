"""Run one `bls` process and timestamp each line of its artifact.

Sampling modes write one JSON line per sample.  When ``--out`` names the
slave side of a pseudo-terminal, Python line-buffers the file, so every
record reaches the benchmark the moment the CLI writes it.  That gives the
time to the first sample and the rate after it from the real CLI process,
with no hook inside the program.  The pty is put in raw mode so the bytes
arrive unchanged.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
import tty
from dataclasses import dataclass, field

LAUNCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")


@dataclass
class Invocation:
    code: int
    start: float  # perf_counter when the program was spawned
    wall_s: float
    peak_rss_mb: float | None
    stdout: bytes
    stderr: bytes
    # (perf_counter on arrival, line without newline) for a streamed artifact
    lines: list[tuple[float, bytes]] = field(default_factory=list)

    @property
    def artifact(self) -> bytes:
        return b"".join(line + b"\n" for _, line in self.lines)


def program_env(src_dir: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("BLS_LOG", None)
    return env


def run_cli(src_dir: str, make_args, out_path: str | None = None, timeout: float = 170.0) -> Invocation:
    """Run ``python -m blsampler.cli`` with ``make_args(out)`` as arguments,
    through ``launch.py`` so that time and peak memory are the CLI's own.

    With ``out_path`` None the artifact is streamed through a pty and
    returned in ``lines``; otherwise the CLI writes ``out_path``.
    """
    master = slave = None
    if out_path is None:
        master, slave = os.openpty()
        tty.setraw(slave)
        out_path = os.ttyname(slave)
    report_r, report_w = os.pipe()
    try:
        program = [sys.executable, "-m", "blsampler.cli", *make_args(out_path)]
        argv = [sys.executable, "-I", "-S", LAUNCH, str(report_w), *program]
        inv = run_process(argv, src_dir, timeout, master, pass_fds=(report_w,))
        report = b""
        while chunk := os.read(report_r, 1 << 16):
            report += chunk
    finally:
        for fd in (master, slave, report_r):
            if fd is not None:
                os.close(fd)
    try:
        measured = json.loads(report)
    except ValueError:
        return inv
    inv.code = measured["code"]
    inv.start = measured["start"]
    inv.wall_s = measured["end"] - measured["start"]
    inv.peak_rss_mb = measured["maxrss_kb"] / 1024.0
    return inv


def run_process(
    argv: list[str],
    src_dir: str,
    timeout: float = 170.0,
    master: int | None = None,
    pass_fds: tuple[int, ...] = (),
) -> Invocation:
    """Run ``argv`` with the program on its path and collect its output.
    Lines read from ``master`` are timestamped on arrival.  Descriptors in
    ``pass_fds`` are handed to the child and closed here."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=program_env(src_dir),
        pass_fds=pass_fds,
    )
    for fd in pass_fds:
        os.close(fd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    open_pipes = set(chunks)
    pending = b""
    lines: list[tuple[float, bytes]] = []

    def take(data: bytes, now: float) -> None:
        nonlocal pending
        pending += data
        *done, pending = pending.split(b"\n")
        lines.extend((now, line) for line in done)

    try:
        while open_pipes:
            left = timeout - (time.perf_counter() - start)
            if left <= 0:
                # the launcher kills its program on SIGTERM, then reports
                proc.send_signal(signal.SIGTERM)
                break
            watch = list(open_pipes) + ([master] if master is not None else [])
            ready, _, _ = select.select(watch, [], [], min(left, 1.0))
            now = time.perf_counter()
            for fd in ready:
                data = os.read(fd, 1 << 16)
                if fd == master:
                    take(data, now)
                elif data:
                    chunks[fd].append(data)
                else:
                    open_pipes.discard(fd)
        code = proc.wait()
        wall = time.perf_counter() - start
        if master is not None:
            while select.select([master], [], [], 0)[0]:
                data = os.read(master, 1 << 16)
                if not data:
                    break
                take(data, time.perf_counter())
    finally:
        proc.stdout.close()
        proc.stderr.close()
    return Invocation(
        code=code,
        start=start,
        wall_s=wall,
        peak_rss_mb=None,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
        lines=lines,
    )

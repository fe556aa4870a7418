"""Spawning pipegen processes and measuring them from the outside.

Wall time runs from spawn to reaping; peak RSS comes from wait4, so it
is the kernel's figure for that one process.
"""

import os
import selectors
import signal
import subprocess
import threading
import time


class Result:
    __slots__ = ("rc", "out", "err", "wall_s", "rss_mb", "timed_out")

    def __init__(self, rc, out, err, wall_s, rss_mb, timed_out=False):
        self.rc = rc
        self.out = out
        self.err = err
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.timed_out = timed_out


def _reap(proc):
    """Wait for proc; returns (exit code, peak RSS in MB, CPU seconds)."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, ru.ru_maxrss / 1024.0,
            ru.ru_utime + ru.ru_stime)


def _drain(fds, deadline, on_wait=None, every_s=None):
    """Read every fd to EOF or until deadline, calling on_wait() each
    time every_s passes without output; returns (bytes per fd, whether
    the deadline passed)."""
    chunks = {fd: [] for fd in fds}
    sel = selectors.DefaultSelector()
    for fd in fds:
        sel.register(fd, selectors.EVENT_READ)
    live = len(fds)
    late = False
    while live:
        left = deadline - time.monotonic()
        if left <= 0:
            late = True
            break
        ready = sel.select(timeout=left if on_wait is None
                           else min(left, every_s))
        if not ready and on_wait is not None:
            on_wait()
        for key, _ in ready:
            data = os.read(key.fd, 1 << 16)
            if data:
                chunks[key.fd].append(data)
            else:
                sel.unregister(key.fd)
                live -= 1
    sel.close()
    return {fd: b"".join(c).decode() for fd, c in chunks.items()}, late


def run(argv, cwd=None, timeout_s=120.0, on_wait=None, every_s=None):
    """Run argv to completion, capturing stdout and stderr; on_wait()
    is called every every_s while the process runs without output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    texts, late = _drain([out_fd, err_fd], time.monotonic() + timeout_s,
                         on_wait, every_s)
    if late:
        proc.kill()
    rc, rss, _ = _reap(proc)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.stderr.close()
    return Result(rc, texts[out_fd], texts[err_fd], wall, rss, late)


# Servers not yet closed; stop_all() ends them when a run aborts.
LIVE = set()


def stop_all():
    for server in list(LIVE):
        server.kill()


class Server:
    """A long-running process fed over stdin.  A reader thread stamps
    each stdout line with the time it was read and hands it to
    on_line(t, line), which should be cheap: it runs while the server
    is being measured."""

    def __init__(self, argv, on_line, cwd=None):
        self.proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, bufsize=0)
        self.rc = self.rss_mb = self.total_cpu_s = None
        self._on_line = on_line
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        LIVE.add(self)

    def _read(self):
        fd = self.proc.stdout.fileno()
        pending = b""
        while True:
            data = os.read(fd, 1 << 16)
            if not data:
                break
            t = time.perf_counter()
            pending += data
            *lines, pending = pending.split(b"\n")
            for line in lines:
                self._on_line(t, line.decode())

    def cpu_s(self):
        """CPU seconds the process has used so far (all its threads)."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def alive(self):
        """Whether the server's stdout is still open."""
        return self._reader.is_alive()

    def send(self, line):
        """Write one line; a server that has gone away is not an error
        here: its missing responses are counted as failures."""
        try:
            self.proc.stdin.write(line.encode() + b"\n")
        except (BrokenPipeError, ValueError):
            pass

    def close(self, timeout_s=120.0):
        """Close stdin (a clean EOF shutdown), wait for the last line and
        reap.  Returns the exit code."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self._reader.join(timeout_s)
        if self._reader.is_alive():
            self.proc.send_signal(signal.SIGKILL)
            self._reader.join()
        self.rc, self.rss_mb, self.total_cpu_s = _reap(self.proc)
        self.proc.stdout.close()
        LIVE.discard(self)
        return self.rc

"""Lifecycle of one ``repro serve`` process and a one-connection client.

The server runs with one worker on an ephemeral localhost TCP port.  The
front end forks its worker, so shutdown is: SIGTERM to the front-end
PID, wait for it, then wait until the worker PID has exited too.  Every
exit path (including errors) ends with both processes gone; signals go
to recorded PIDs only, never by command-line match.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

READY_PREFIX = "repro-serve: listening on tcp:"


class ServiceFailure(RuntimeError):
    """The server did not start, died, or answered with an error."""


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            found.append(int(entry))
    return sorted(found)


def peak_rss_mb(pids) -> float:
    """Sum of ``VmHWM`` (peak resident set) over live processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``repro serve --service-workers 1`` and a client connection.

    Args:
        root: Checkout root (``src/`` is put on ``PYTHONPATH``).
        extra_args: Additional ``repro serve`` flags.
    """

    def __init__(self, root: str, extra_args: Tuple[str, ...] = ()):
        self.root = root
        self.extra_args = tuple(extra_args)
        self.process: Optional[subprocess.Popen] = None
        self.worker_pids: List[int] = []
        self.sock: Optional[socket.socket] = None
        self.reader = None
        self.next_id = 0

    # -- lifecycle ------------------------------------------------------

    def start(self, deadline_s: float = 60.0) -> None:
        """Spawn the server and block until it answers ``ping``."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--service-workers", "1", "--no-ledger", *self.extra_args],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        deadline = time.monotonic() + deadline_s
        port = self._await_port(deadline)
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=max(1.0, deadline -
                                             time.monotonic()))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(120.0)
        self.reader = self.sock.makefile("rb")
        self.request({"verb": "ping"})
        self.worker_pids = _children(self.process.pid)
        if len(self.worker_pids) != 1:
            raise ServiceFailure(
                f"expected one worker, found {self.worker_pids}")

    def _await_port(self, deadline: float) -> int:
        stdout = self.process.stdout
        buffered = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceFailure("server not ready before deadline")
            readable, _, _ = select.select([stdout], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                raise ServiceFailure(
                    f"server exited before ready: {buffered.decode()!r}")
            buffered += chunk
            for line in buffered.decode("utf-8", "replace").splitlines():
                if line.startswith(READY_PREFIX):
                    address = line[len(READY_PREFIX):].split()[0]
                    return int(address.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """Front end plus worker (read while both are running)."""
        return peak_rss_mb([self.process.pid] + self.worker_pids)

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM the front end, wait for it and its worker to exit;
        SIGKILL whatever is still alive at the deadline."""
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.process is None:
            return
        deadline = time.monotonic() + timeout_s
        if not self.worker_pids:  # start() failed before recording it
            self.worker_pids = _children(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=max(0.1,
                                          deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                while _alive(pid):
                    time.sleep(0.02)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self.process = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client ---------------------------------------------------------

    def request(self, payload: Dict) -> Dict:
        """One round trip.  Raises :class:`ServiceFailure` on
        ``WorkerDied``, a failed or closed connection, an unreadable
        line, or a mismatched id."""
        self.next_id += 1
        message = dict(payload, id=self.next_id)
        try:
            self.sock.sendall(json.dumps(message, separators=(",", ":"))
                              .encode("utf-8") + b"\n")
            line = self.reader.readline()
            response = json.loads(line) if line else None
        except (OSError, ValueError) as error:
            raise ServiceFailure(f"connection failed: {error}") from error
        if response is None:
            raise ServiceFailure("server closed the connection")
        error = response.get("error") or {}
        if error.get("type") == "WorkerDied":
            raise ServiceFailure(f"worker died: {error.get('message')}")
        if response.get("id") != self.next_id:
            raise ServiceFailure(f"response id {response.get('id')} for "
                                 f"request {self.next_id}")
        return response

    def timed_request(self, payload: Dict) -> Tuple[Dict, float]:
        """``(response, client latency in seconds)``."""
        start = time.perf_counter()
        response = self.request(payload)
        return response, time.perf_counter() - start

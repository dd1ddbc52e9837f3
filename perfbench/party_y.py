"""Party Y in a child process, for the two-process workloads.

The child is forked once the inputs and graphs exist, so it inherits
them instead of rebuilding them. For every session the parent sends one
command over a pipe; the child then gets Y's view for it and runs Y's
half of `run_two_process`, which binds a fresh listener, serves one
connection and returns. The parent starts X only after the kernel lists
that listener in LISTEN state, so X's connect never falls into its
retry sleep inside a timed session.
"""

from __future__ import annotations

import multiprocessing
import resource
import socket
import time
from time import perf_counter

from privebc import ProtocolConfig, run_two_process

from summary import time_limit

_TCP_TABLE = "/proc/net/tcp"
_TCP_LISTEN = "0A"
LISTEN_TIMEOUT_S = 10.0


def free_port() -> int:
    """A loopback port that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def is_listening(port: int) -> bool:
    """Whether the kernel's IPv4 TCP table lists a LISTEN socket on `port`.

    The kernel lists every listener before all other sockets, so the scan
    stops at the first other one: the thousands of TIME_WAIT entries that
    short two-process sessions leave behind are never read.
    """
    with open(_TCP_TABLE, encoding="ascii") as fh:
        next(fh)  # header
        for line in fh:
            fields = line.split()
            if fields[3] != _TCP_LISTEN:
                return False
            if int(fields[1].rsplit(":", 1)[1], 16) == port:
                return True
    return False


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _serve(conn, view_y_for, address) -> None:
    """Child loop: one command per session; None ends the loop."""
    while True:
        cmd = conn.recv()
        if cmd is None:
            conn.send(maxrss_mb())
            return
        key, label, eps, mech_mask, seed = cmd
        error = None
        try:
            run_two_process("Y", address, view_y_for(key), label,
                            ProtocolConfig(epsilon=eps, mech_mask=mech_mask), seed)
        except Exception as exc:  # reported to the parent, which fails the op
            error = f"{type(exc).__name__}: {exc}"
        conn.send((error, maxrss_mb()))


class PartyY:
    """Owns Y's child process and the pipe that drives it.

    `view_y_for(key)` runs in the child and returns Y's view for the
    session whose command carries `key`."""

    def __init__(self, view_y_for):
        self.view_y_for = view_y_for
        self.address = ("127.0.0.1", free_port())
        self.peak_rss_mb = 0.0
        self._start()

    def _start(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, args=(child_conn, self.view_y_for, self.address),
                                 name="party-y")
        self._proc.start()
        child_conn.close()

    def session(self, key, view_x_for, label: str, eps: float, mech_mask: frozenset, seed: int,
                transcript: list | None, timeout_s: float) -> tuple[float, float]:
        """One session against Y, bounded by timeout_s: (X's value, ms).

        The timer starts once Y listens and spans X's view build
        (`view_x_for()`) and X's half of the session, which waits for Y's
        work. A failed session replaces the child."""
        try:
            with time_limit(timeout_s):
                self.begin(key, label, eps, mech_mask, seed)
                t0 = perf_counter()
                value = run_two_process("X", self.address, view_x_for(), label,
                                        ProtocolConfig(epsilon=eps, mech_mask=mech_mask),
                                        seed, transcript=transcript)
                ms = (perf_counter() - t0) * 1e3
                self.finish(timeout_s)
        except BaseException:
            self.restart()
            raise
        return value, ms

    def begin(self, key, label: str, eps: float, mech_mask: frozenset, seed: int) -> None:
        """Hand Y one session and return once its listener accepts connections."""
        self._conn.send((key, label, eps, mech_mask, seed))
        deadline = time.monotonic() + LISTEN_TIMEOUT_S
        while not is_listening(self.address[1]):
            if not self._proc.is_alive():
                raise RuntimeError("party Y exited before listening")
            if time.monotonic() > deadline:
                raise TimeoutError(f"party Y not listening after {LISTEN_TIMEOUT_S} s")
            time.sleep(0.0005)

    def finish(self, timeout_s: float) -> None:
        """Wait for Y's report on the session just run; raise on its error."""
        if not self._conn.poll(timeout_s):
            raise TimeoutError("party Y did not report the session")
        error, rss = self._conn.recv()
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if error is not None:
            raise RuntimeError(f"party Y failed: {error}")

    def restart(self) -> None:
        """Replace a child left in an unknown state by a failed session."""
        self._stop(graceful=False)
        self._start()

    def close(self) -> None:
        self._stop(graceful=True)

    def _stop(self, graceful: bool) -> None:
        try:
            if graceful and self._proc.is_alive():
                self._conn.send(None)
                if self._conn.poll(10.0):
                    self.peak_rss_mb = max(self.peak_rss_mb, self._conn.recv())
                self._proc.join(10.0)
        except (OSError, EOFError):
            pass
        finally:
            if self._proc.is_alive():
                self._proc.kill()
            self._proc.join()
            self._conn.close()

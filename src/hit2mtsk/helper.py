"""One forked helper process, as generation's fits and ACO's ants use it.

The helper runs a stage's own function on the arrays it inherited, on
each list of items this process sends it.  If it cannot be forked, dies,
or raises or warns, this process runs that function on its items itself,
so an error or warning reaches the caller as in a one-process run.
"""
from __future__ import annotations

import os
import signal
import warnings
from typing import Any, Callable


def can_fork() -> bool:
    """The platform forks and more than one core is usable; each stage
    adds its own work test."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
    )


class Helper:
    """A forked process that answers each list it is sent with ``fn`` of
    it, if ``fork`` and a process can be spared; else none.  Once a send
    or a receive fails, there is no live helper."""

    def __init__(self, fn: Callable[[list], Any], fork: bool) -> None:
        self.fn, self.conn = fn, None
        if not fork:
            return
        # imported here alone: it adds about 0.8 MB to every process importing it
        import multiprocessing

        ours, theirs = multiprocessing.Pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns when a multi-threaded process forks,
                # and numpy's BLAS pool makes it one.  The child calls BLAS
                # and LAPACK (the fits' `A.T @ A` and `solve`) on arrays it
                # inherited; OpenBLAS restarts its pool in a forked child
                warnings.filterwarnings(
                    "ignore", "This process .* is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
        except OSError:  # no process to spare: this process does every item
            ours.close()
            theirs.close()
            return
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                warnings.simplefilter("error")  # a warning ends the helper
                ours.close()
                while True:  # until this process closes its end
                    try:
                        items = theirs.recv()
                    except EOFError:
                        break
                    theirs.send(fn(items))
                status = 0
            finally:
                os._exit(status)
        theirs.close()
        self.pid, self.conn = pid, ours

    @property
    def alive(self) -> bool:
        return self.conn is not None

    def send(self, items: list) -> None:
        """Hand ``items`` to the live helper, if any."""
        if self.conn is not None:
            try:
                self.conn.send(items)
            except OSError:  # the helper died
                self.close()

    def collect(self, items: list) -> Any:
        """``fn(items)``: the live helper's answer to ``items``, the list it
        was last sent, or else computed here."""
        if self.conn is not None:
            try:
                return self.conn.recv()
            except (EOFError, OSError):  # the helper died
                self.close()
        return self.fn(items)

    def close(self) -> None:
        """End the helper, if any: close its connection, then wait for it."""
        conn, self.conn = self.conn, None
        if conn is not None:
            conn.close()
            os.waitpid(self.pid, 0)

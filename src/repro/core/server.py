"""Shared accept/serve-loop plumbing for the platform's daemons.

Three daemons speak the :mod:`repro.core.framing` transport — the
debugger server (PR 3), the `repro worker` campaign daemon (PR 7), and
the `repro serve` replay service — and before this module each
hand-rolled the same accept loop with the same hardening posture and
its own copy of the error-logging idiom.  :class:`SocketServer` is that
posture, once:

* a hostile or vanished client tears down *its connection*, never the
  accept loop — killing the loop kills the session/state it serves;
* every survived failure is observable through the ``log`` seam and the
  ``connections_served`` / ``handler_errors`` counters (a hostile client
  must be *observable*, not just non-fatal);
* connection lifetime is bounded: with ``max_connection_seconds`` set, a
  connection that overstays is shut down from the accept loop, so one
  slow-loris client cannot pin a handler slot forever;
* shutdown is graceful and signal-safe: :meth:`request_stop` only sets
  a flag and closes the listening socket (both safe inside a signal
  handler), and :meth:`stop` joins every thread the server started, so
  a TERM'd daemon exits with no orphaned threads.

:func:`spawn_daemon` is the matching client side for the two daemons
that run as subprocesses (`repro worker`, `repro serve`): launch, then
wait for the ``listening on HOST:PORT`` line.

``concurrency=1`` handles connections inline on the accept thread (the
debugger and worker daemons serialise on one session); ``concurrency>1``
gives each connection its own named handler thread, bounded by a
semaphore (the serve daemon multiplexes clients).
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time


class SocketServer:
    """A hardened TCP accept loop around a per-connection handler.

    Subclasses implement :meth:`handle_connection` (or pass ``handler``);
    the handler owns the connection until it returns — it should loop on
    short ``recv`` timeouts and poll :attr:`stopping` so shutdown is
    prompt.  The server closes the connection afterwards.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        handler=None,
        log=None,
        concurrency: int = 1,
        max_connection_seconds: "float | None" = None,
        name: str = "daemon",
    ):
        self.log = log if log is not None else (lambda message: None)
        self.name = name
        self._handler = handler
        self.concurrency = max(1, concurrency)
        self.max_connection_seconds = max_connection_seconds
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(self.concurrency)
        self.address = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        #: live (thread, conn, started_at) records, for reaping + joining
        self._live: "list[tuple[threading.Thread | None, socket.socket, float]]" = []
        self._live_lock = threading.Lock()
        self.connections_served = 0
        self.handler_errors = 0

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def start(self):
        """Serve on a named background thread; returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True, name=f"{self.name}-accept"
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        try:
            self._sock.settimeout(0.2)
        except OSError:
            # request_stop() closed the listener before the serving
            # thread got here; fall through to the drain hooks
            self._stop.set()
        while not self._stop.is_set():
            self._reap_overstayers()
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            except OSError:
                break  # listening socket closed: shutdown path
            self.connections_served += 1
            serial = self.connections_served
            if self.concurrency == 1:
                self._handle(conn, serial)
            else:
                thread = threading.Thread(
                    target=self._handle,
                    args=(conn, serial),
                    daemon=True,
                    name=f"{self.name}-conn-{serial}",
                )
                with self._live_lock:
                    self._live.append((thread, conn, time.monotonic()))
                thread.start()
        self.on_draining()
        self._join_connections()
        self.on_stopped()

    def _handle(self, conn: socket.socket, serial: int) -> None:
        if self.concurrency == 1 and self.max_connection_seconds is not None:
            with self._live_lock:
                self._live.append((None, conn, time.monotonic()))
        try:
            with conn:
                self.handle_connection(conn)
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            self.handler_errors += 1
            self.log(
                f"connection #{serial} dropped: {type(exc).__name__}: {exc}"
            )
        finally:
            with self._live_lock:
                self._live = [rec for rec in self._live if rec[1] is not conn]

    def handle_connection(self, conn: socket.socket) -> None:
        if self._handler is None:  # pragma: no cover - subclass contract
            raise NotImplementedError("pass handler= or override handle_connection")
        self._handler(conn)

    def _reap_overstayers(self) -> None:
        """Bound per-connection lifetime: shut down connections past the
        limit so their handler's next recv fails and the slot frees."""
        limit = self.max_connection_seconds
        if limit is None:
            return
        now = time.monotonic()
        with self._live_lock:
            over = [conn for _, conn, started in self._live if now - started > limit]
        for conn in over:
            self.log(f"connection exceeded {limit}s lifetime; shutting it down")
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _join_connections(self) -> None:
        with self._live_lock:
            live = list(self._live)
        for thread, conn, _ in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            if thread is not None:
                thread.join(timeout=2)

    def on_draining(self) -> None:
        """Subclass hook: runs once after the accept loop exits but
        *before* live connections are shut down — the drain window where
        a daemon lets accepted work finish and deliver its results."""

    def on_stopped(self) -> None:
        """Subclass hook: runs once after the accept loop exits (on the
        serving thread), before :meth:`stop` returns to its caller."""

    def request_stop(self) -> None:
        """Signal-safe graceful-stop request: stop accepting and let
        :meth:`serve_forever` unwind.  Safe to call from a SIGTERM
        handler or any thread; never blocks, never joins."""
        self._stop.set()
        # shutdown before close: close alone is *deferred* while the
        # serving thread sits inside its current accept() window, and a
        # still-listening kernel socket would accept one more client;
        # shutdown wakes the in-flight accept and refuses new SYNs now
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def stop(self) -> None:
        """Full shutdown: request a stop, then join every thread the
        server started so no orphans outlive it."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=5)
        else:
            # serve_forever ran on the caller's thread; it already
            # unwound (or was never started) — still reap connections
            self._join_connections()


def spawn_daemon(argv: "list[str]", label: str):
    """Launch ``python -m repro.cli *argv*`` as a daemon subprocess;
    return ``(proc, (host, port))`` once it announces its address.

    Every daemon prints ``... listening on HOST:PORT`` as its first
    stdout line (flushed), which is the only rendezvous needed — no port
    race, no sleep-and-hope.  A daemon that fails to start is killed and
    reported as a typed ``TransportError`` naming *label*.
    """
    import subprocess
    import sys

    import repro
    from repro.core.framing import TransportError

    # the daemon must find the same `repro` the parent runs, however the
    # parent got it onto sys.path (installed, PYTHONPATH, or a test rig)
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    marker = "listening on "
    if marker not in line:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise TransportError(f"{label} failed to start: {line!r}")
    host, port = line.split(marker, 1)[1].rsplit(":", 1)
    return proc, (host, int(port))


def install_term_handler(callback) -> bool:
    """Install *callback* as the SIGTERM handler for graceful drain.

    Returns False (and installs nothing) when not on the main thread —
    Python only allows signal handlers there — so daemons embedded in
    tests or other hosts degrade to explicit ``stop()`` calls.  The
    callback runs inside the signal handler: it must only do signal-safe
    work (``request_stop`` / setting events), never joins.
    """
    if threading.current_thread() is not threading.main_thread():
        return False
    signal.signal(signal.SIGTERM, lambda signum, frame: callback())
    return True

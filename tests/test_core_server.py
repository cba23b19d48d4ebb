"""The shared daemon plumbing: :class:`repro.core.server.SocketServer`.

Three daemons ride this accept loop — the debugger server, the `repro
worker` campaign daemon, and the `repro serve` replay service — so its
hardening posture is tested once, here: a hostile connection costs
itself (never the loop), every survived failure ticks an observable
counter, per-connection lifetime is bounded, and shutdown is graceful,
signal-safe, and orphan-free.  The TERM'd-worker regression test pins
the graceful-stop satellite: a SIGTERM'd `repro worker` subprocess
drains and exits 0.
"""

import signal
import socket
import threading
import time

import pytest

from repro.campaign.remote import WorkerServer, spawn_worker_process
from repro.core.server import SocketServer, install_term_handler
from repro.debugger.frontend import DebuggerServer


def _connect(server, timeout=5.0):
    return socket.create_connection(server.address, timeout=timeout)


def _echo_handler(conn):
    conn.settimeout(0.2)
    while True:
        try:
            chunk = conn.recv(4096)
        except TimeoutError:
            continue
        except OSError:
            return
        if not chunk:
            return
        conn.sendall(chunk)


class TestSocketServer:
    def test_echo_roundtrip_and_counters(self):
        server = SocketServer(handler=_echo_handler, concurrency=4).start()
        try:
            with _connect(server) as a, _connect(server) as b:
                a.sendall(b"ping-a")
                b.sendall(b"ping-b")
                assert a.recv(64) == b"ping-a"
                assert b.recv(64) == b"ping-b"
            deadline = time.monotonic() + 5
            while server.connections_served < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.connections_served == 2
            assert server.handler_errors == 0
        finally:
            server.stop()

    def test_handler_error_costs_only_its_connection(self):
        logged = []

        def hostile(conn):
            chunk = conn.recv(4096)
            if chunk == b"boom":
                raise RuntimeError("hostile payload")
            conn.sendall(chunk)

        server = SocketServer(
            handler=hostile, concurrency=2, log=logged.append
        ).start()
        try:
            with _connect(server) as bad:
                bad.sendall(b"boom")
                assert bad.recv(64) == b""  # connection torn down
            # the loop survived: a well-behaved client still gets served
            with _connect(server) as good:
                good.sendall(b"fine")
                assert good.recv(64) == b"fine"
            deadline = time.monotonic() + 5
            while server.handler_errors < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.handler_errors == 1
            assert any("RuntimeError" in line for line in logged)
        finally:
            server.stop()

    def test_overstayer_is_reaped(self):
        server = SocketServer(
            handler=_echo_handler, concurrency=2, max_connection_seconds=0.3
        ).start()
        try:
            with _connect(server) as idle:
                idle.settimeout(5)
                # the accept loop shuts the connection down once it
                # exceeds its lifetime; our recv sees the close
                assert idle.recv(64) == b""
        finally:
            server.stop()

    def test_request_stop_is_prompt_and_stop_leaves_no_threads(self):
        before = {t.name for t in threading.enumerate()}
        server = SocketServer(handler=_echo_handler, concurrency=4).start()
        with _connect(server) as conn:
            conn.sendall(b"x")
            assert conn.recv(16) == b"x"
            server.request_stop()  # signal-safe: flag + closed listener
            assert server.stopping
        server.stop()
        with pytest.raises(OSError):
            _connect(server, timeout=0.5)
        leftover = {t.name for t in threading.enumerate()} - before
        assert not leftover, f"orphaned threads: {leftover}"

    def test_install_term_handler_refuses_off_main_thread(self):
        results = []
        thread = threading.Thread(
            target=lambda: results.append(install_term_handler(lambda: None))
        )
        thread.start()
        thread.join()
        assert results == [False]


class TestRebasedDaemons:
    """The worker and debugger daemons now subclass SocketServer: same
    hardened loop, same counters, same graceful stop."""

    def test_subclass_relationship(self):
        assert issubclass(WorkerServer, SocketServer)
        assert issubclass(DebuggerServer, SocketServer)

    def test_worker_server_stop_leaves_no_threads(self):
        before = {t.name for t in threading.enumerate()}
        server = WorkerServer().start()
        assert server.connections_served == 0
        server.stop()
        leftover = {t.name for t in threading.enumerate()} - before
        assert not leftover, f"orphaned threads: {leftover}"

    def test_terminated_worker_exits_zero(self):
        """The graceful-stop satellite: a SIGTERM'd `repro worker`
        drains (heartbeat pump joined, runners closed) and exits 0."""
        proc, address = spawn_worker_process()
        try:
            # it really is serving before the TERM lands
            with socket.create_connection(address, timeout=5):
                pass
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            proc.kill()
            proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()

    def test_terminated_debug_serve_exits_zero(self, tmp_path):
        """Same contract for the third daemon: a SIGTERM'd
        `repro debug-serve` stops its accept loop and exits 0."""
        import os
        import subprocess
        import sys

        import repro
        from repro.cli import main as cli_main

        trace = tmp_path / "t.djv"
        assert cli_main(
            ["record", "--workload", "bank", "--seed", "7", "-o", str(trace)]
        ) == 0
        env = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "debug-serve",
                "--workload", "bank", str(trace), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline().strip()
            assert "debugger serving on " in line, line
            host, port = line.split("serving on ", 1)[1].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5):
                pass
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            proc.kill()
            proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()


class TestStopBeforeReply:
    """A daemon closes its listener before it answers ``shutdown``, so a
    client that read the answer can no longer connect."""

    def test_worker_shutdown_refuses_connections_once_answered(self):
        from repro.campaign.remote import (
            MAX_REMOTE_FRAME_BYTES,
            decode_payload,
            encode_message,
        )
        from repro.core.framing import FrameDecoder

        server = WorkerServer()
        stop = server.request_stop

        def slow_stop():
            time.sleep(0.3)  # a loaded host: the close lands late
            stop()

        server.request_stop = slow_stop
        server.start()
        try:
            with _connect(server) as sock:
                sock.sendall(encode_message({"op": "shutdown"}))
                decoder = FrameDecoder(MAX_REMOTE_FRAME_BYTES)
                frames = []
                while not frames:
                    chunk = sock.recv(65536)
                    assert chunk, "worker closed without answering"
                    frames = decoder.feed(chunk)
                assert decode_payload(frames[0])["op"] == "bye"
            with pytest.raises(OSError):
                socket.create_connection(server.address, timeout=0.5)
        finally:
            server.stop()


class TestSpawnDaemon:
    def test_a_daemon_that_never_listens_is_a_typed_error(self):
        from repro.core.framing import TransportError
        from repro.core.server import spawn_daemon

        with pytest.raises(TransportError, match="probe failed to start"):
            spawn_daemon(["no-such-command"], "probe")

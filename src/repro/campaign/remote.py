"""The remote campaign wire protocol and the `repro worker` daemon.

Multi-host campaigns ride the platform's one framing discipline — the
u32-big-endian length-prefixed frames of :mod:`repro.core.framing` —
with a campaign-specific payload: each frame carries a **u32-BE CRC32
checksum followed by a pickled message dict**.  The checksum is what
makes a corrupted frame *deterministically detectable*: a bit flipped
in flight (or by the LAYER_REMOTE fault injector) fails the CRC and the
receiver tears the connection down with a typed :class:`FrameError`
instead of unpickling garbage into a silently-wrong result.

Message ops (every message is ``{"op": ..., ...}``):

====================  =========  =============================================
op                    direction  meaning
====================  =========  =============================================
``hello``             → worker   handshake; carries the protocol version
``hello-ok``          ← worker   handshake accepted; carries version + pid
``shard``             → worker   one shard: campaign payload + indexed items
``item``              ← worker   one item result (streamed as produced)
``heartbeat``         ← worker   liveness pulse while a shard is running
``shard-done``        ← worker   shard complete; carries completed count
``ping`` / ``pong``   both       transport keepalive
``shutdown``/``bye``  both       orderly daemon termination
``error``             ← worker   typed in-band failure (bad op, bad payload)
====================  =========  =============================================

The daemon (:class:`WorkerServer`, surfaced as ``repro worker``) serves
one connection at a time — the parent pool uses a connection per shard —
and keeps a **warm item runner per campaign payload** (keyed by payload
digest), so baselines amortise across every shard a host receives,
iReplayer-style.  While a shard runs, a background pump emits
``heartbeat`` frames every ``heartbeat_every`` seconds; the parent's
hang detector treats *any* frame as liveness, so a slow item and a dead
worker are distinguishable.

Trust model: frames carry **pickles**, so the protocol is for hosts you
already trust to run your code (a lab cluster, loopback CI) — exactly
the machines a campaign would shard across.  It is not an
internet-facing protocol.

The ``sabotage`` seam is the LAYER_REMOTE fault injector's hook: a
one-shot fault (dropped / truncated / corrupted frame, mid-shard kill,
stalled heartbeat, slow-loris connect) armed at daemon construction and
consumed the first time it fires, which models the transient faults the
pool's reassignment ladder must absorb without perturbing results.
"""

from __future__ import annotations

import hashlib
import pickle
import socket
import threading
import time

from repro.core.framing import (
    CRC_BYTES,
    FrameDecoder,
    FrameError,
    TransportError,
    decode_pickle_payload,
    encode_pickle_message,
)
from repro.core.server import SocketServer, spawn_daemon

#: remote protocol revision; bumped on any wire-incompatible change
PROTOCOL_VERSION = 1
#: shard results can carry sealed trace blobs, so the frame cap is far
#: above the debugger protocol's "small packets" 1 MiB
MAX_REMOTE_FRAME_BYTES = 64 << 20

#: the sabotage kinds the daemon understands (the LAYER_REMOTE family)
SABOTAGE_KINDS = (
    "remote-drop-frame",
    "remote-truncate-frame",
    "remote-corrupt-frame",
    "remote-kill-worker",
    "remote-stall-heartbeat",
    "remote-slow-connect",
)


def encode_message(message: dict) -> bytes:
    """One wire frame: length prefix + CRC32 + pickled message.

    The codec itself lives in :mod:`repro.core.framing`
    (:func:`~repro.core.framing.encode_pickle_message`) — it is shared
    with the serve protocol; this wrapper pins the remote frame cap.
    """
    return encode_pickle_message(message, MAX_REMOTE_FRAME_BYTES)


def decode_payload(payload: bytes) -> dict:
    """Check the CRC and unpickle one frame payload.

    Raises :class:`FrameError` on a checksum mismatch or an unpicklable
    blob — both mean the stream is untrustworthy and the connection must
    close (the parent then requeues the shard; results never merge from
    a connection that produced one bad frame).
    """
    return decode_pickle_payload(payload)


def payload_key(payload: dict) -> str:
    """Digest identifying a campaign payload — the warm-runner cache key."""
    return hashlib.sha256(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()[:16]


def parse_sabotage(text: str) -> dict:
    """Parse the CLI arming syntax ``kind[:frac[:extra]]``.

    ``frac`` positions the fault within a shard (fraction of its items);
    ``extra`` is the bit index for corrupt-frame or the delay for
    slow-connect.
    """
    parts = text.split(":")
    kind = parts[0]
    if kind not in SABOTAGE_KINDS:
        raise TransportError(
            f"unknown sabotage kind {kind!r} (known: {', '.join(SABOTAGE_KINDS)})"
        )
    sabotage: dict = {"kind": kind}
    if len(parts) > 1 and parts[1]:
        sabotage["frac"] = float(parts[1])
    if len(parts) > 2 and parts[2]:
        if kind == "remote-corrupt-frame":
            sabotage["bit"] = int(parts[2])
        else:
            sabotage["delay"] = float(parts[2])
    return sabotage


class WorkerServer(SocketServer):
    """The `repro worker` daemon: framed shard execution over TCP.

    Serves one connection at a time (the pool opens a connection per
    shard) on the shared :class:`~repro.core.server.SocketServer`
    accept loop.  Hardening mirrors the debugger server: a hostile or
    vanished client tears down *its connection*, never the accept loop,
    and every survived failure is observable via ``log`` and the
    ``frame_errors`` / ``connections_served`` counters.  SIGTERM (wired
    by the CLI via ``install_term_handler``) lands in
    :meth:`~repro.core.server.SocketServer.request_stop`, so a TERM'd
    worker drains its connection, joins its heartbeat pump, closes its
    warm runners, and exits 0.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        log=None,
        sabotage: "dict | None" = None,
    ):
        super().__init__(host, port, log=log, concurrency=1, name="repro-worker")
        self._sabotage = dict(sabotage) if sabotage else None
        self._runners: dict[str, object] = {}
        self.shards_served = 0
        self.frame_errors = 0

    # ------------------------------------------------------------------
    # lifecycle

    def stop(self) -> None:
        super().stop()
        self._close_runners()

    def on_stopped(self) -> None:
        self._close_runners()

    def _close_runners(self) -> None:
        runners, self._runners = self._runners, {}
        for runner in runners.values():
            try:
                runner.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass

    # ------------------------------------------------------------------
    # connection handling

    def handle_connection(self, conn: socket.socket) -> None:
        decoder = FrameDecoder(MAX_REMOTE_FRAME_BYTES)
        conn.settimeout(0.2)
        while not self.stopping:
            try:
                chunk = conn.recv(65536)
            except TimeoutError:
                continue
            except OSError:
                return  # client vanished: tear down this connection only
            if not chunk:
                return  # orderly client disconnect
            try:
                payloads = decoder.feed(chunk)
                messages = [decode_payload(p) for p in payloads]
            except FrameError as exc:
                self.frame_errors += 1
                self.log(f"unframeable client stream: {exc}")
                self._send(conn, {"op": "error", "detail": str(exc)})
                return
            for message in messages:
                if not self._handle_message(conn, message):
                    return

    def _handle_message(self, conn: socket.socket, message: dict) -> bool:
        """Dispatch one message; False closes the connection."""
        op = message.get("op")
        if op == "hello":
            sabotage = self._take_sabotage("remote-slow-connect")
            if sabotage is not None:
                # slow-loris: hold the handshake long enough to trip the
                # client's hello timeout (one-shot; the retry succeeds)
                time.sleep(sabotage.get("delay", 5.0))
            if message.get("version") != PROTOCOL_VERSION:
                self._send(
                    conn,
                    {
                        "op": "error",
                        "detail": (
                            f"protocol version mismatch: worker speaks "
                            f"{PROTOCOL_VERSION}, client sent "
                            f"{message.get('version')!r}"
                        ),
                    },
                )
                return False
            import os

            return self._send(
                conn, {"op": "hello-ok", "version": PROTOCOL_VERSION, "pid": os.getpid()}
            )
        if op == "ping":
            return self._send(conn, {"op": "pong"})
        if op == "shard":
            return self._run_shard(conn, message)
        if op == "shutdown":
            # close the listener before replying: a client that read
            # ``bye`` can no longer connect
            self.request_stop()
            self._send(conn, {"op": "bye"})
            return False
        return self._send(conn, {"op": "error", "detail": f"unknown op {op!r}"})

    # ------------------------------------------------------------------
    # shard execution

    def _runner_for(self, payload: dict):
        key = payload_key(payload)
        runner = self._runners.get(key)
        if runner is None:
            from repro.campaign.jobs import make_item_runner

            runner = make_item_runner(payload)
            self._runners[key] = runner
            self.log(f"warm runner built for payload {key}")
        return runner

    def _run_shard(self, conn: socket.socket, message: dict) -> bool:
        items = list(message.get("items") or [])
        heartbeat_every = float(message.get("heartbeat_every") or 1.0)
        try:
            runner = self._runner_for(message["payload"])
        except Exception as exc:  # noqa: BLE001 - shipped as a typed frame
            return self._send(
                conn,
                {"op": "error", "detail": f"{type(exc).__name__}: {exc}"},
            )
        self.shards_served += 1

        send_lock = threading.Lock()
        stop_pump = threading.Event()
        state = {"completed": 0}

        def pump() -> None:
            while not stop_pump.wait(heartbeat_every):
                with send_lock:
                    try:
                        conn.sendall(
                            encode_message(
                                {"op": "heartbeat", "completed": state["completed"]}
                            )
                        )
                    except OSError:
                        return

        pump_thread = threading.Thread(
            target=pump, daemon=True, name="repro-worker-heartbeat"
        )
        pump_thread.start()
        try:
            for position, (index, item) in enumerate(items):
                try:
                    result = runner.run(item)
                except Exception as exc:  # noqa: BLE001 - per-item containment
                    result = {"error": f"{type(exc).__name__}: {exc}"}
                frame_bytes = encode_message(
                    {"op": "item", "index": index, "result": result}
                )
                if not self._deliver_item(
                    conn, send_lock, stop_pump, frame_bytes, position, len(items)
                ):
                    return False
                state["completed"] += 1
            with send_lock:
                ok = self._send_raw(
                    conn,
                    encode_message(
                        {"op": "shard-done", "completed": state["completed"]}
                    ),
                )
            return ok
        finally:
            stop_pump.set()
            pump_thread.join(timeout=2)

    def _deliver_item(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        stop_pump: threading.Event,
        frame_bytes: bytes,
        position: int,
        total: int,
    ) -> bool:
        """Send one item frame — or enact the armed sabotage on it."""
        sabotage = self._take_sabotage_at(position, total)
        if sabotage is None:
            with send_lock:
                return self._send_raw(conn, frame_bytes)
        kind = sabotage["kind"]
        self.log(f"sabotage firing: {kind} at item position {position}")
        if kind == "remote-drop-frame":
            # the frame simply never leaves: shard-done will later reveal
            # the missing index and the parent requeues it
            return True
        if kind == "remote-corrupt-frame":
            # flip one bit inside the pickled region: framing stays
            # intact, the CRC does not — detection, not silent corruption
            bit = int(sabotage.get("bit", 0)) % 8
            mid = (len(frame_bytes) + 4 + CRC_BYTES) // 2
            corrupted = bytearray(frame_bytes)
            corrupted[mid] ^= 1 << bit
            with send_lock:
                self._send_raw(conn, bytes(corrupted))
            return True
        if kind == "remote-truncate-frame":
            # half a frame then a dead connection: the parent sees a
            # partial read + EOF and requeues the shard remainder
            with send_lock:
                self._send_raw(conn, frame_bytes[: max(1, len(frame_bytes) // 2)])
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return False
        if kind == "remote-kill-worker":
            # deliver the item, then die mid-shard: no shard-done, no
            # process — the crash path end to end
            with send_lock:
                self._send_raw(conn, frame_bytes)
            import os

            os._exit(13)
        if kind == "remote-stall-heartbeat":
            # the worker is alive but mute: heartbeats stop, the item
            # never arrives, and only the parent watchdog can tell
            stop_pump.set()
            while not self.stopping:  # pragma: no branch
                time.sleep(0.1)
            return False
        raise TransportError(f"unhandled sabotage kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # sabotage bookkeeping (one-shot)

    def _take_sabotage(self, kind: str) -> "dict | None":
        if self._sabotage is not None and self._sabotage.get("kind") == kind:
            sabotage, self._sabotage = self._sabotage, None
            return sabotage
        return None

    def _take_sabotage_at(self, position: int, total: int) -> "dict | None":
        if self._sabotage is None:
            return None
        kind = self._sabotage.get("kind")
        if kind in ("remote-slow-connect",) or kind not in SABOTAGE_KINDS:
            return None
        frac = float(self._sabotage.get("frac", 0.0))
        target = min(max(0, total - 1), int(frac * total))
        if position != target:
            return None
        sabotage, self._sabotage = self._sabotage, None
        return sabotage

    # ------------------------------------------------------------------
    # send helpers

    def _send(self, conn: socket.socket, message: dict) -> bool:
        return self._send_raw(conn, encode_message(message))

    @staticmethod
    def _send_raw(conn: socket.socket, data: bytes) -> bool:
        """Send bytes; False means the client is gone (stop this
        connection, never the loop)."""
        try:
            conn.sendall(data)
            return True
        except OSError:
            return False


def spawn_worker_process(
    sabotage: "str | None" = None, host: str = "127.0.0.1"
):
    """Launch ``repro worker`` as a subprocess; return ``(proc, (host,
    port))`` once the daemon announces its listening address (see
    :func:`repro.core.server.spawn_daemon`)."""
    argv = ["worker", "--host", host, "--port", "0"]
    if sabotage:
        argv += ["--sabotage", sabotage]
    return spawn_daemon(argv, "worker")

"""Degenerate-input audits: salvage edge cases and frame reassembly.

Satellite hardening passes, pinned as regression tests:

* :meth:`TraceLog.salvage` on pathological files — empty, header-only,
  cut exactly at a segment boundary, cut mid-segment-header — must
  return a well-typed result (a typed error or a clean truncated log),
  never an index error or a silently wrong stream;
* a CRC-valid trace whose meta or footer segment holds code must be
  rejected as a typed format error without running it;
* :class:`FrameDecoder` on adversarial chunking — a partial length
  prefix at EOF, a frame split across feeds, several frames in one
  chunk — must buffer/reassemble exactly, and the serve loop must *log*
  a hostile client rather than crash or go dark.
"""

import socket
import zlib

import pytest

from repro.api import record
from repro.core.tracelog import (
    CODEC_RAW,
    FORMAT_VERSION,
    MAGIC,
    SEG_FOOTER,
    SEG_META,
    TraceLog,
)
from repro.debugger import Debugger, DebuggerClient, DebuggerServer, ReplaySession
from repro.debugger.protocol import (
    LEN_BYTES,
    FrameDecoder,
    FrameError,
    decode,
    encode,
    frame,
)
from repro.faults.inject import segment_boundaries
from repro.vm import SeededJitterTimer
from repro.vm.errors import TraceFormatError
from repro.vm.machine import VMConfig
from repro.workloads import racy_bank

CFG = VMConfig(semispace_words=60_000)


@pytest.fixture(scope="module")
def sealed_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("salvage") / "t.djv"
    record(
        racy_bank(tellers=2, deposits=10),
        config=CFG,
        timer=SeededJitterTimer(5, 40, 160),
        out=path,
    )
    return path.read_bytes()


class TestSalvageDegenerates:
    def test_empty_file_raises_typed(self, tmp_path):
        path = tmp_path / "empty.djv"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            TraceLog.load(path)
        with pytest.raises(TraceFormatError):
            TraceLog.salvage(path)

    def test_header_only_salvages_to_empty_truncated_log(self, tmp_path):
        path = tmp_path / "hdr.djv"
        path.write_bytes(MAGIC + FORMAT_VERSION.to_bytes(2, "little"))
        log = TraceLog.salvage(path)
        assert log.truncated
        assert log.n_switch_records == 0 and log.n_value_words == 0
        assert log.salvage_report.intact_segments == 0

    def test_cut_exactly_at_segment_boundary_stops_cleanly(
        self, sealed_blob, tmp_path
    ):
        """The off-by-one trap: a file ending exactly where a segment
        ends has no torn bytes — salvage must keep every segment before
        the cut and report a clean (not mid-segment) stop."""
        boundaries = segment_boundaries(sealed_blob)
        assert len(boundaries) >= 2
        cut = boundaries[len(boundaries) // 2]
        path = tmp_path / "cut.djv"
        path.write_bytes(sealed_blob[:cut])
        log = TraceLog.salvage(path)
        assert log.truncated  # no footer: the log is a prefix
        report = log.salvage_report
        assert report.intact_segments == boundaries.index(cut) + 1
        assert report.error is None  # boundary cut: nothing torn

    def test_cut_mid_segment_header_keeps_prefix(self, sealed_blob, tmp_path):
        boundaries = segment_boundaries(sealed_blob)
        cut = boundaries[len(boundaries) // 2]
        path = tmp_path / "cut.djv"
        path.write_bytes(sealed_blob[: cut + 5])  # 5 of 9 header bytes
        log = TraceLog.salvage(path)
        assert log.truncated
        assert log.salvage_report.intact_segments == boundaries.index(cut) + 1
        assert log.salvage_report.error is not None

    def test_sealed_file_salvages_identically_to_load(self, sealed_blob, tmp_path):
        path = tmp_path / "t.djv"
        path.write_bytes(sealed_blob)
        loaded, salvaged = TraceLog.load(path), TraceLog.salvage(path)
        assert not salvaged.truncated
        assert salvaged.switches == loaded.switches
        assert salvaged.values == loaded.values


class TestHostileMeta:
    """Meta and footer blobs are file input: decoding one must never run
    it, however valid the forger made its CRC."""

    @pytest.mark.parametrize("kind, stream", [(SEG_META, "meta"), (SEG_FOOTER, "footer")])
    def test_code_in_meta_is_rejected_not_run(self, tmp_path, capsys, kind, stream):
        from repro.cli import main

        marker = tmp_path / "ran"
        payload = f"__import__('pathlib').Path({str(marker)!r}).write_text('x')".encode()
        path = tmp_path / "forged.djv"
        path.write_bytes(
            MAGIC
            + FORMAT_VERSION.to_bytes(2, "little")
            + kind
            + bytes([CODEC_RAW])
            + len(payload).to_bytes(4, "little")
            + zlib.crc32(payload).to_bytes(4, "little")
            + payload
        )
        with pytest.raises(TraceFormatError) as exc_info:
            TraceLog.load(path)
        assert exc_info.value.stream == stream
        assert main(["trace-stats", str(path)]) == 2
        assert f"undecodable {stream} blob" in capsys.readouterr().err
        assert not marker.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "__import__('os')",
            "().__class__.__base__.__subclasses__()",
            "[c for c in ()]",
            "f'{1}'",
            "b'x'",
            # a triple quote ends its string where a one-quote string does
            # not, which would smuggle the attribute chain out of "a string"
            "[('k', ''' ' ''' + ().__class__.__name__ + ''' ' ''')]",
            '[("k", """ " """ + ().__class__.__name__ + """ " """)]',
            "[1] * 10 ** 10",
            "'a\\\n'",
            "1 if 1 else 2",
            "lambda: 1",
            "Truex",
        ],
    )
    def test_decoder_accepts_only_plain_literals(self, text):
        from repro.core.tracelog import _decode_meta

        with pytest.raises(TraceFormatError):
            _decode_meta(text.encode())

    def test_decoder_round_trips_plain_data(self):
        from repro.core.tracelog import _decode_meta, _encode_meta

        meta = {
            "ints": (0, -7, 1 << 70, -(1 << 70)),
            "floats": [0.5, -2.25, 1e16, 1e-300],
            "strings": ["", "'", '"', "\\", "a'''b", 'a"""b', "\n\r\t", "é ∑"],
            "nested": {"k": [(1, None), (True, False)], "s": {3, 4}},
        }
        assert _decode_meta(_encode_meta(meta)) == meta


class TestFrameDecoderPins:
    def test_partial_length_prefix_at_eof_buffers(self):
        decoder = FrameDecoder()
        wire = frame({"id": 1, "cmd": "ping", "args": {}})
        assert decoder.feed(wire[: LEN_BYTES - 2]) == []
        assert decoder.pending_bytes == LEN_BYTES - 2
        # the rest arrives in a later chunk: the frame completes
        assert [decode(p) for p in decoder.feed(wire[LEN_BYTES - 2:])] == [
            {"id": 1, "cmd": "ping", "args": {}}
        ]
        assert decoder.pending_bytes == 0

    def test_frame_split_across_many_feeds_reassembles(self):
        decoder = FrameDecoder()
        wire = frame({"id": 2, "cmd": "info", "args": {}})
        got = []
        for i in range(len(wire)):  # one byte at a time
            got.extend(decoder.feed(wire[i: i + 1]))
        assert [decode(p) for p in got] == [{"id": 2, "cmd": "info", "args": {}}]

    def test_two_frames_in_one_chunk(self):
        decoder = FrameDecoder()
        wire = frame({"id": 1}) + frame({"id": 2})
        assert [decode(p)["id"] for p in decoder.feed(wire)] == [1, 2]

    def test_absurd_length_prefix_rejected_before_buffering(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(b"\xff\xff\xff\xff" + b"junk")

    def test_exact_cap_length_is_allowed(self):
        decoder = FrameDecoder(max_frame_bytes=8)
        payload = encode({"a": 1})
        assert len(payload) <= 8
        wire = len(payload).to_bytes(LEN_BYTES, "big") + payload
        assert decoder.feed(wire) == [payload]


class TestServeLoopLogsNotCrashes:
    @pytest.fixture
    def served(self):
        recorded = record(
            racy_bank(tellers=2, deposits=10),
            config=CFG,
            timer=SeededJitterTimer(5, 40, 160),
        )
        session = ReplaySession(racy_bank(tellers=2, deposits=10), recorded.trace, config=CFG)
        logged: list[str] = []
        srv = DebuggerServer(Debugger(session), log=logged.append).start()
        yield srv, logged
        srv.stop()

    def test_unframeable_stream_is_logged_and_survived(self, served):
        srv, logged = served
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            sock.sendall(b"\xff\xff\xff\xffgarbage")
            sock.settimeout(2.0)
            try:
                while sock.recv(4096):
                    pass  # drain until the server closes this connection
            except OSError:
                pass
        # the loop survived: a fresh client still gets served
        with DebuggerClient.connect(srv.address) as client:
            assert client.ping()
        assert any("unframeable" in line for line in logged)
        assert srv.frame_errors == 1

    def test_undecodable_payload_is_logged_and_answered(self, served):
        srv, logged = served
        payload = b"[1, 2, 3]"  # valid JSON, not a protocol object
        wire = len(payload).to_bytes(LEN_BYTES, "big") + payload
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            sock.sendall(wire)
            decoder = FrameDecoder()
            frames = []
            while not frames:
                chunk = sock.recv(4096)
                assert chunk
                frames = decoder.feed(chunk)
            response = decode(frames[0])
        assert response == {"ok": False, "error": "bad json"}
        assert any("undecodable request payload" in line for line in logged)
        # same connection keeps serving after the bad payload
        with DebuggerClient.connect(srv.address) as client:
            assert client.ping()

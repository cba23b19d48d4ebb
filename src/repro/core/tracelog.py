"""Trace encoding, crash-consistent persistence, and the guest-heap buffers.

A trace has **two independent word streams**, mirroring the paper's
footnote 7 ("logging data for non-reproducible events such as reading the
wall clock need be done independently of thread switch information"):

* the **switch stream** — bare ``nyp`` yield-point deltas, one per
  preemptive thread switch (Figure 2);
* the **value stream** — tagged records for wall-clock reads, native-call
  results and callback parameters (see :mod:`repro.core.events`).

Streams are encoded to bytes with zig-zag varints, optionally wrapped in
the **group codec** (see below).  In-flight words pass through **guest
heap ``[I`` buffers** — the same array objects, allocated at the same
points, in both record mode (instrumentation *writes*, flushes to the
host when full) and replay mode (instrumentation *reads*, refills from
the host when empty).  That is the paper's "symmetry in allocation": the
buffers are DejaVu's biggest heap side effect, and making them identical
in both modes keeps the allocation stream — hence GC timing, object
addresses, and identity hashes — reproducible.

Persistence: **format v3.1** (see DESIGN.md).  The file is a header
followed by length-framed, CRC32-checksummed segments and a sealed
footer::

    "DJVU" u16=769 | segment* | footer-segment
    segment := kind(1B) codec(1B) payload_len(u32le) crc32(u32le) payload

The codec byte is a bit-flag field: bit 0 selects the group codec for
stream segments, bit 1 selects per-segment zlib compression.  The group
codec picks the smallest of four sub-encodings per segment (plain
varints, delta+run-length, frame-of-reference bit packing, canonical
Huffman), so repetitive or narrow delta streams shrink dramatically
while adversarial streams never inflate by more than one mode byte.

Record mode streams segments to ``trace.djv.tmp`` and atomically renames
on a clean end, so an interrupted record leaves either nothing or a
salvageable prefix (:meth:`TraceLog.salvage`).  Segment assembly —
encoding, CRC, framing, file I/O — runs on a **background flusher
thread**: the execution path only hands whole spans of raw words across
a queue, which keeps recording overhead off the dispatch loop.  The
seal happens on the caller's thread *after* the flusher has drained and
joined, so "sealed" still means "every segment hit the OS in order,
fsynced, then renamed" — the crash-consistency story is unchanged.

Segment framing is pure host-side I/O: the guest-heap buffers, their
capacities and their flush points are identical in both modes and
unaware of it, preserving the allocation symmetry.  v3 (the previous
9-byte segment header without a codec byte) and v2 (the pre-segment
format) traces still load, read-only.
"""

from __future__ import annotations

import heapq
import io
import os
import queue
import re
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.vm.errors import TraceFormatError, VMError

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import VirtualMachine

MAGIC = b"DJVU"
#: the version this build writes: v3.1, stored as (major << 8) | minor
FORMAT_VERSION = (3 << 8) | 1
#: v3.2 — written only by slim-capable recorders: same framing as v3.1
#: plus the SEG_SLIM sidecar stream and slim footer fields
FORMAT_VERSION_SLIM = (3 << 8) | 2
#: versions this build can read (v2 = legacy single-blob streams,
#: 3 = segmented without codec byte, 769 = v3.1 with codec byte,
#: 770 = v3.2 slim sidecar)
READABLE_VERSIONS = (2, 3, FORMAT_VERSION, FORMAT_VERSION_SLIM)

#: segment kinds
SEG_META = b"M"
SEG_SWITCH = b"S"
SEG_VALUE = b"V"
SEG_SLIM = b"L"
SEG_FOOTER = b"F"
_SEGMENT_KINDS = (SEG_META, SEG_SWITCH, SEG_VALUE, SEG_SLIM, SEG_FOOTER)
_SEG_HEADER_BYTES = 1 + 4 + 4  # v3: kind + payload_len + crc32
_SEG_HEADER_BYTES_V31 = 1 + 1 + 4 + 4  # v3.1 adds the codec byte
#: sanity bound so a corrupted length field cannot demand a giant read
MAX_SEGMENT_BYTES = 1 << 26
#: record-mode words per on-disk segment (host-side knob; guest-invisible)
SEGMENT_WORDS = 4096

#: segment codec byte — a bit-flag field
CODEC_RAW = 0  # plain zigzag varints (the v3 encoding)
CODEC_GROUP = 1  # bit 0: group codec (pick-best of 4 sub-modes)
CODEC_ZLIB = 2  # bit 1: zlib over the (possibly group-coded) payload
CODEC_GROUP_ZLIB = CODEC_GROUP | CODEC_ZLIB
_CODEC_MASK = CODEC_GROUP | CODEC_ZLIB

_STREAM_OF_KIND = {SEG_SWITCH: "switch", SEG_VALUE: "value",
                   SEG_SLIM: "slim", SEG_META: "meta", SEG_FOOTER: "footer"}


def config_fingerprint(config) -> str:
    """The behaviour-affecting VM sizing as a short comparable string.

    Heap and stack sizing change GC timing and stack-growth events, so a
    replay under a different fingerprint can diverge for reasons that have
    nothing to do with the trace.  Engine toggles are deliberately
    excluded: the EngineConfig contract makes them guest-invisible.
    """
    return (
        f"heap={config.semispace_words}"
        f";stack={config.initial_stack_words}/{config.max_stack_words}"
        f";maxcycles={config.max_cycles}"
    )


# ---------------------------------------------------------------------------
# varint primitives


def zigzag(n: int) -> int:
    # Bit-identical to the classic `(n << 1) ^ (n >> 63)` for every value
    # that fits a 64-bit word, but correct for arbitrary-precision ints
    # too: the shift form assumes `n >> 63 == -1` for negatives, which
    # fails below -(2**63) and yields a negative "unsigned" code that
    # write_varint can never terminate on.
    return -2 * n - 1 if n < 0 else 2 * n


def unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def write_varint(out: bytearray, n: int) -> None:
    z = zigzag(n)
    while True:
        b = z & 0x7F
        z >>= 7
        if z:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def read_varint(data: bytes, pos: int, stream: str = "trace") -> tuple[int, int]:
    z = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise TraceFormatError(
                "truncated varint (continuation bit set at end of data)",
                stream=stream,
                offset=start,
            )
        b = data[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if not (b & 0x80):
            return unzigzag(z), pos
        shift += 7


def _write_uvarint(out: bytearray, n: int) -> None:
    """Unsigned varint (no zigzag) — counts, widths, run lengths."""
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_uvarint(data: bytes, pos: int, stream: str = "group") -> tuple[int, int]:
    z = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise TraceFormatError(
                "truncated varint (continuation bit set at end of data)",
                stream=stream,
                offset=start,
            )
        b = data[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if not (b & 0x80):
            return z, pos
        shift += 7


def encode_words(words: list[int]) -> bytes:
    out = bytearray()
    for w in words:
        write_varint(out, w)
    return bytes(out)


def decode_words(data: bytes, stream: str = "trace") -> list[int]:
    words = []
    pos = 0
    while pos < len(data):
        w, pos = read_varint(data, pos, stream)
        words.append(w)
    return words


# ---------------------------------------------------------------------------
# the group codec
#
# One segment's words, encoded as a 1-byte sub-mode tag plus the mode's
# payload.  The encoder tries every applicable mode and keeps the
# smallest (ties break toward the lower mode number), so the choice is
# deterministic and a segment never inflates by more than the tag byte.
# All modes accept arbitrary-precision ints — including the zigzag class
# below -(2**63) that fixed-width shifts mishandle.

GROUP_RAW = 0  # plain zigzag varints
GROUP_RLE = 1  # first word + run-length-encoded successive deltas
GROUP_PACK = 2  # frame-of-reference fixed-width bit packing
GROUP_HUFF = 3  # canonical Huffman over the distinct word values
#: decoder table width cap; the encoder falls back when a code exceeds it
MAX_HUFF_CODE_LEN = 32
#: ceiling on the declared word count of one group (matches the segment cap)
_MAX_GROUP_WORDS = MAX_SEGMENT_BYTES


def _encode_group_rle(words: list[int]) -> bytes:
    """``n, w0, (run_len, delta)*`` — deltas of successive words, RLE'd.

    The switch stream already holds nyp *deltas*, so this is the
    delta-of-delta coding: a phase of evenly spaced preemptions collapses
    to a single (run, 0) pair.
    """
    out = bytearray([GROUP_RLE])
    n = len(words)
    _write_uvarint(out, n)
    if n == 0:
        return bytes(out)
    write_varint(out, words[0])
    i = 1
    while i < n:
        delta = words[i] - words[i - 1]
        run = 1
        while i + run < n and words[i + run] - words[i + run - 1] == delta:
            run += 1
        _write_uvarint(out, run)
        write_varint(out, delta)
        i += run
    return bytes(out)


def _decode_group_rle(data: bytes, pos: int, stream: str) -> list[int]:
    n, pos = _read_uvarint(data, pos, stream)
    if n > _MAX_GROUP_WORDS:
        raise TraceFormatError(
            f"implausible group length {n} (cap is {_MAX_GROUP_WORDS})",
            stream=stream, offset=pos,
        )
    if n == 0:
        return []
    w, pos = read_varint(data, pos, stream)
    words = [w]
    while len(words) < n:
        run, pos = _read_uvarint(data, pos, stream)
        delta, pos = read_varint(data, pos, stream)
        if run == 0 or len(words) + run > n:
            raise TraceFormatError(
                f"undecodable run-length group (run {run} at {len(words)}/{n} words)",
                stream=stream, offset=pos,
            )
        w = words[-1]
        for _ in range(run):
            w += delta
            words.append(w)
    return words


def _encode_group_pack(words: list[int]) -> bytes:
    """``n, base, width, packed-bits`` — frame-of-reference packing.

    Every word is stored as ``w - min(words)`` in ``width`` fixed bits,
    MSB first.  ``base`` and ``width`` are varints, so arbitrary
    magnitudes (and the below ``-(2**63)`` zigzag class) pack fine.
    """
    out = bytearray([GROUP_PACK])
    n = len(words)
    _write_uvarint(out, n)
    if n == 0:
        return bytes(out)
    base = min(words)
    width = max((w - base).bit_length() for w in words)
    write_varint(out, base)
    _write_uvarint(out, width)
    acc = 0
    nacc = 0
    for w in words:
        acc = (acc << width) | (w - base)
        nacc += width
        while nacc >= 8:
            nacc -= 8
            out.append((acc >> nacc) & 0xFF)
            acc &= (1 << nacc) - 1
    if nacc:
        out.append((acc << (8 - nacc)) & 0xFF)
    return bytes(out)


def _decode_group_pack(data: bytes, pos: int, stream: str) -> list[int]:
    n, pos = _read_uvarint(data, pos, stream)
    if n > _MAX_GROUP_WORDS:
        raise TraceFormatError(
            f"implausible group length {n} (cap is {_MAX_GROUP_WORDS})",
            stream=stream, offset=pos,
        )
    if n == 0:
        return []
    base, pos = read_varint(data, pos, stream)
    width, pos = _read_uvarint(data, pos, stream)
    if width > 8 * len(data):
        raise TraceFormatError(
            f"implausible pack width {width} bits", stream=stream, offset=pos
        )
    words = []
    acc = 0
    nacc = 0
    mask = (1 << width) - 1
    for _ in range(n):
        while nacc < width:
            if pos >= len(data):
                raise TraceFormatError(
                    "truncated packed group (bitstream ends early)",
                    stream=stream, offset=pos,
                )
            acc = (acc << 8) | data[pos]
            pos += 1
            nacc += 8
        shift = nacc - width
        words.append(base + ((acc >> shift) & mask))
        acc &= (1 << shift) - 1
        nacc = shift
    return words


def _huffman_code_lengths(freqs: "list[tuple[int, int]]") -> "dict[int, int]":
    """Code length per symbol for ``(symbol, count)`` pairs (len >= 2)."""
    heap = []
    for tiebreak, (sym, count) in enumerate(freqs):
        heap.append((count, tiebreak, [sym]))
    heapq.heapify(heap)
    lengths = {sym: 0 for sym, _ in freqs}
    tiebreak = len(heap)
    while len(heap) > 1:
        ca, _, syms_a = heapq.heappop(heap)
        cb, _, syms_b = heapq.heappop(heap)
        merged = syms_a + syms_b
        for s in merged:
            lengths[s] += 1
        heapq.heappush(heap, (ca + cb, tiebreak, merged))
        tiebreak += 1
    return lengths


def _canonical_codes(lengths: "dict[int, int]") -> "dict[int, tuple[int, int]]":
    """Canonical (length, code) per symbol from code lengths."""
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes = {}
    code = 0
    prev_len = ordered[0][1]
    for sym, length in ordered:
        code <<= length - prev_len
        prev_len = length
        codes[sym] = (length, code)
        code += 1
    return codes


def _encode_group_huff(words: list[int]) -> "bytes | None":
    """``n, n_syms, sorted-symbol-deltas, code-lengths, bitstream``.

    Canonical Huffman over the distinct word values: the header carries
    the sorted symbol alphabet (delta-coded) and one length byte per
    symbol, which determines the codes uniquely.  Returns ``None`` when
    a code would exceed :data:`MAX_HUFF_CODE_LEN` (the pick-best caller
    just skips the mode).
    """
    n = len(words)
    if n == 0:
        return None
    counts: dict[int, int] = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    syms = sorted(counts)
    out = bytearray([GROUP_HUFF])
    _write_uvarint(out, n)
    _write_uvarint(out, len(syms))
    prev = 0
    for i, s in enumerate(syms):
        if i == 0:
            write_varint(out, s)
        else:
            _write_uvarint(out, s - prev)  # strictly ascending, so >= 1
        prev = s
    if len(syms) == 1:
        return bytes(out)  # zero-bit codes: the count alone decodes it
    lengths = _huffman_code_lengths([(s, counts[s]) for s in syms])
    if max(lengths.values()) > MAX_HUFF_CODE_LEN:
        return None
    for s in syms:
        out.append(lengths[s])
    codes = _canonical_codes(lengths)
    acc = 0
    nacc = 0
    for w in words:
        length, code = codes[w]
        acc = (acc << length) | code
        nacc += length
        while nacc >= 8:
            nacc -= 8
            out.append((acc >> nacc) & 0xFF)
            acc &= (1 << nacc) - 1
    if nacc:
        out.append((acc << (8 - nacc)) & 0xFF)
    return bytes(out)


def _decode_group_huff(data: bytes, pos: int, stream: str) -> list[int]:
    n, pos = _read_uvarint(data, pos, stream)
    if n > _MAX_GROUP_WORDS:
        raise TraceFormatError(
            f"implausible group length {n} (cap is {_MAX_GROUP_WORDS})",
            stream=stream, offset=pos,
        )
    if n == 0:
        return []
    n_syms, pos = _read_uvarint(data, pos, stream)
    if n_syms == 0 or n_syms > n:
        raise TraceFormatError(
            f"undecodable Huffman group ({n_syms} symbols for {n} words)",
            stream=stream, offset=pos,
        )
    syms = []
    for i in range(n_syms):
        if i == 0:
            s, pos = read_varint(data, pos, stream)
        else:
            d, pos = _read_uvarint(data, pos, stream)
            if d == 0:
                raise TraceFormatError(
                    "undecodable Huffman group (duplicate symbol)",
                    stream=stream, offset=pos,
                )
            s = syms[-1] + d
        syms.append(s)
    if n_syms == 1:
        return [syms[0]] * n
    if pos + n_syms > len(data):
        raise TraceFormatError(
            "truncated Huffman group (code-length table ends early)",
            stream=stream, offset=pos,
        )
    lengths = {}
    for s in syms:
        length = data[pos]
        pos += 1
        if length == 0 or length > MAX_HUFF_CODE_LEN:
            raise TraceFormatError(
                f"undecodable Huffman group (code length {length})",
                stream=stream, offset=pos - 1,
            )
        lengths[s] = length
    by_code = {lc: s for s, lc in _canonical_codes(lengths).items()}
    if len(by_code) != n_syms:
        raise TraceFormatError(
            "undecodable Huffman group (code lengths collide)",
            stream=stream, offset=pos,
        )
    words = []
    acc = 0
    nacc = 0
    length = 0
    code = 0
    while len(words) < n:
        if nacc == 0:
            if pos >= len(data):
                raise TraceFormatError(
                    "truncated Huffman group (bitstream ends early)",
                    stream=stream, offset=pos,
                )
            acc = data[pos]
            pos += 1
            nacc = 8
        nacc -= 1
        code = (code << 1) | ((acc >> nacc) & 1)
        length += 1
        if length > MAX_HUFF_CODE_LEN:
            raise TraceFormatError(
                "undecodable Huffman group (no code matches)",
                stream=stream, offset=pos,
            )
        sym = by_code.get((length, code))
        if sym is not None:
            words.append(sym)
            length = 0
            code = 0
    return words


def encode_group(words: list[int]) -> bytes:
    """Encode one segment's words: pick-best of the four sub-modes."""
    best = bytes([GROUP_RAW]) + encode_words(words)
    for candidate in (
        _encode_group_rle(words),
        _encode_group_pack(words),
        _encode_group_huff(words),
    ):
        if candidate is not None and len(candidate) < len(best):
            best = candidate
    return best


def decode_group(data: bytes, stream: str = "trace") -> list[int]:
    """Decode a group-codec payload (mode byte + mode payload)."""
    if not data:
        raise TraceFormatError("empty group payload", stream=stream, offset=0)
    mode = data[0]
    if mode == GROUP_RAW:
        return decode_words(data[1:], stream)
    if mode == GROUP_RLE:
        return _decode_group_rle(data, 1, stream)
    if mode == GROUP_PACK:
        return _decode_group_pack(data, 1, stream)
    if mode == GROUP_HUFF:
        return _decode_group_huff(data, 1, stream)
    raise TraceFormatError(
        f"unknown group-codec mode {mode}", stream=stream, offset=0
    )


def _encode_segment_payload(words: list[int], codec: int) -> bytes:
    """Words -> stored segment bytes under the given codec flags."""
    if codec & CODEC_GROUP:
        payload = encode_group(words)
    else:
        payload = encode_words(words)
    if codec & CODEC_ZLIB:
        payload = zlib.compress(payload, 6)
    return payload


def _decode_segment_payload(payload: bytes, codec: int, stream: str) -> list[int]:
    """Stored segment bytes -> words under the given codec flags."""
    if codec & CODEC_ZLIB:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise TraceFormatError(
                f"undecodable compressed segment ({stream} stream): {exc}",
                stream=stream, offset=0,
            ) from exc
    if codec & CODEC_GROUP:
        return decode_group(payload, stream)
    return decode_words(payload, stream)


# ---------------------------------------------------------------------------
# meta encoding (shared by v2 and v3, and by checkpoint headers: repr of
# sorted items, read back as a Python literal)

#: text made only of the tokens the repr of plain data holds: strings,
#: numbers, True, False, None, brackets, commas, colons, minus signs and
#: whitespace.  No string may open a triple quote, so each string ends at
#: the same quote for this pattern as for Python's tokenizer.  Such text
#: names nothing and has no attribute access and no operator but minus:
#: evaluating it can only build literals.
_LITERAL_TEXT = re.compile(
    r"(?:[\s\-()\[\]{},:]++"
    r"|'(?!'')[^'\\\n\r]*+(?:\\[^\n\r][^'\\\n\r]*+)*+'"
    r'|"(?!"")[^"\\\n\r]*+(?:\\[^\n\r][^"\\\n\r]*+)*+"'
    r"|\d++(?:\.\d++)?(?:[eE][-+]?\d++)?"
    r"|True|False|None)*+",
    re.ASCII,
)


def _encode_meta(meta: dict) -> bytes:
    return repr(sorted(meta.items())).encode()


def _decode_meta(blob: bytes, stream: str = "meta") -> dict:
    # The blob is file input, and its CRC is no defence against a forger
    # who recomputes it, so it is evaluated only once _LITERAL_TEXT has
    # shown it to be a plain literal.  (ast.literal_eval is as safe, but
    # builds a Python AST many times the blob's size: on a checkpoint
    # header, which carries the whole event log, it doubled the decode
    # time and raised a resumed replay's peak memory by about a sixth.)
    try:
        text = blob.decode()
        if _LITERAL_TEXT.fullmatch(text) is None:
            raise ValueError("not a plain literal")
        return dict(eval(text, {"__builtins__": {}}, {}))  # noqa: S307
    except Exception as exc:
        raise TraceFormatError(
            f"undecodable {stream} blob: {exc}", stream=stream, offset=0
        ) from exc


# ---------------------------------------------------------------------------
# the persisted trace


@dataclass
class SalvageReport:
    """What :meth:`TraceLog.salvage` found in a torn file."""

    intact_segments: int = 0
    switch_segments: int = 0
    value_segments: int = 0
    slim_segments: int = 0
    sealed: bool = False
    stopped_at: int | None = None  # byte offset of the first damage
    error: str | None = None  # why scanning stopped (None = clean EOF)

    def describe(self) -> str:
        if self.sealed:
            return "file is sealed and intact (no salvage needed)"
        where = f" at byte {self.stopped_at}" if self.stopped_at is not None else ""
        why = f": {self.error}" if self.error else " (file ends mid-record)"
        slim = f", {self.slim_segments} slim" if self.slim_segments else ""
        return (
            f"salvaged {self.intact_segments} intact segments "
            f"({self.switch_segments} switch, {self.value_segments} value{slim}), "
            f"stopped{where}{why}"
        )


@dataclass
class TraceLog:
    """A complete recorded execution, ready to drive a replay."""

    switches: list[int] = field(default_factory=list)
    values: list[int] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    #: v3.2 slim sidecar: drop-run triples, empty for full traces
    slim: list[int] = field(default_factory=list)
    #: set by :meth:`salvage` — None for cleanly loaded traces
    salvage_report: "SalvageReport | None" = None

    @property
    def encoded_size_bytes(self) -> int:
        return (len(encode_words(self.switches))
                + len(encode_words(self.values))
                + len(encode_words(self.slim)))

    @property
    def n_switch_records(self) -> int:
        return len(self.switches)

    @property
    def n_value_words(self) -> int:
        return len(self.values)

    @property
    def truncated(self) -> bool:
        return bool(self.meta.get("truncated"))

    @property
    def slim_info(self) -> dict | None:
        """The ``meta["slim"]`` block as a dict, or None for full traces.

        Present iff the switch stream is slimmed: keys ``model`` (the
        timer reconstruction spec), ``kept``/``dropped`` (delta counts)
        and ``sync_total`` (the end-of-run sync-order witness).
        """
        block = self.meta.get("slim")
        return dict(block) if block is not None else None

    # -- writing -----------------------------------------------------------

    def save(self, path: str | Path, *, codec: int = CODEC_GROUP) -> None:
        """Persist as format v3.1 (v3.2 when slim), atomically."""
        writer = TraceWriter(path, codec=codec, background=False,
                             slim=bool(self.slim) or "slim" in self.meta)
        try:
            for w in self.switches:
                writer.switch_sink.append(w)
            for w in self.values:
                writer.value_sink.append(w)
            for w in self.slim:
                writer.slim_sink.append(w)
            writer.seal(self.meta)
        except BaseException:
            writer.abandon()
            raise

    def save_v2(self, path: str | Path) -> None:
        """Write the legacy v2 format (tests / downgrade escape hatch)."""
        path = Path(path)
        with path.open("wb") as f:
            f.write(MAGIC)
            f.write((2).to_bytes(2, "little"))
            meta_blob = _encode_meta(self.meta)
            f.write(len(meta_blob).to_bytes(4, "little"))
            f.write(meta_blob)
            for payload in (encode_words(self.switches), encode_words(self.values)):
                f.write(len(payload).to_bytes(8, "little"))
                f.write(payload)

    # -- reading -----------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "TraceLog":
        """Load a sealed trace; any damage raises :class:`TraceFormatError`."""
        log, report = cls._read(path, salvage=False)
        return log

    @classmethod
    def salvage(cls, path: str | Path) -> "TraceLog":
        """Recover every intact segment from a (possibly torn) trace file.

        Returns a :class:`TraceLog` whose streams hold the surviving
        prefix.  If the file turns out to be sealed and intact, the result
        equals :meth:`load`; otherwise ``meta["truncated"]`` is set and
        ``salvage_report`` says where scanning stopped.  Files that are
        not DejaVu traces at all (bad magic, unreadable version) are not
        salvageable and still raise :class:`TraceFormatError`.
        """
        log, report = cls._read(path, salvage=True)
        log.salvage_report = report
        if not report.sealed:
            log.meta["truncated"] = True
        return log

    @classmethod
    def _read(cls, path: str | Path, *, salvage: bool) -> "tuple[TraceLog, SalvageReport]":
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise TraceFormatError(f"cannot read trace: {exc}", stream="header") from exc
        if len(data) == 0:
            raise TraceFormatError("empty file (not a DejaVu trace)",
                                   stream="header", offset=0)
        if data[:4] != MAGIC:
            raise TraceFormatError(
                f"not a DejaVu trace: {path.name} (bad magic {data[:4]!r})",
                stream="header", offset=0,
            )
        if len(data) < 6:
            raise TraceFormatError("header torn before version field",
                                   stream="header", offset=4)
        version = int.from_bytes(data[4:6], "little")
        if version not in READABLE_VERSIONS:
            raise TraceFormatError(
                f"unsupported trace version {version} "
                f"(this build reads {', '.join(map(str, READABLE_VERSIONS))})",
                stream="header", offset=4,
            )
        if version == 2:
            return cls._read_v2(data), SalvageReport(sealed=True)
        return cls._read_v3(data, version=version, salvage=salvage)

    @classmethod
    def _read_v2(cls, data: bytes) -> "TraceLog":
        buf = io.BytesIO(data)
        buf.read(6)
        meta_len = int.from_bytes(buf.read(4), "little")
        meta_blob = buf.read(meta_len)
        if len(meta_blob) != meta_len:
            raise TraceFormatError("truncated meta blob", stream="meta",
                                   offset=10)
        meta = _decode_meta(meta_blob)
        streams = []
        for name in ("switch", "value"):
            payload_len = int.from_bytes(buf.read(8), "little")
            payload = buf.read(payload_len)
            if len(payload) != payload_len:
                raise TraceFormatError(
                    f"truncated {name} payload ({len(payload)} of {payload_len} bytes)",
                    stream=name, offset=buf.tell() - len(payload),
                )
            streams.append(decode_words(payload, name))
        meta.setdefault("format_version", 2)
        return cls(switches=streams[0], values=streams[1], meta=meta)

    @classmethod
    def _read_v3(cls, data: bytes, *, version: int,
                 salvage: bool) -> "tuple[TraceLog, SalvageReport]":
        hdr = _SEG_HEADER_BYTES if version == 3 else _SEG_HEADER_BYTES_V31
        switches: list[int] = []
        values: list[int] = []
        slim: list[int] = []
        meta: dict = {}
        footer: dict | None = None
        report = SalvageReport()
        stream_crcs = {SEG_SWITCH: 0, SEG_VALUE: 0, SEG_SLIM: 0}
        error: TraceFormatError | None = None
        pos = 6
        seg_index = 0
        while pos < len(data):
            if footer is not None:
                error = TraceFormatError(
                    f"{len(data) - pos} bytes of trailing data after the footer",
                    stream="footer", offset=pos,
                )
                break
            if pos + hdr > len(data):
                error = TraceFormatError(
                    f"torn segment header (segment {seg_index}: "
                    f"{len(data) - pos} of {hdr} header bytes)",
                    stream="segment", offset=pos,
                )
                break
            kind = data[pos:pos + 1]
            if version == 3:
                codec = CODEC_RAW
                payload_len = int.from_bytes(data[pos + 1:pos + 5], "little")
                want_crc = int.from_bytes(data[pos + 5:pos + 9], "little")
            else:
                codec = data[pos + 1]
                payload_len = int.from_bytes(data[pos + 2:pos + 6], "little")
                want_crc = int.from_bytes(data[pos + 6:pos + 10], "little")
            if kind not in _SEGMENT_KINDS:
                error = TraceFormatError(
                    f"unknown segment kind {kind!r} (segment {seg_index})",
                    stream="segment", offset=pos,
                )
                break
            if codec & ~_CODEC_MASK or (
                kind in (SEG_META, SEG_FOOTER) and codec & CODEC_GROUP
            ):
                error = TraceFormatError(
                    f"unknown segment codec 0x{codec:02x} (segment {seg_index}, "
                    f"{_STREAM_OF_KIND[kind]} stream)",
                    stream=_STREAM_OF_KIND[kind], offset=pos + 1,
                )
                break
            if payload_len > MAX_SEGMENT_BYTES:
                error = TraceFormatError(
                    f"implausible segment length {payload_len} "
                    f"(segment {seg_index}; cap is {MAX_SEGMENT_BYTES})",
                    stream=_STREAM_OF_KIND[kind], offset=pos,
                )
                break
            payload = data[pos + hdr:pos + hdr + payload_len]
            if len(payload) != payload_len:
                error = TraceFormatError(
                    f"torn segment payload (segment {seg_index}, "
                    f"{_STREAM_OF_KIND[kind]}: {len(payload)} of {payload_len} bytes)",
                    stream=_STREAM_OF_KIND[kind], offset=pos + hdr,
                )
                break
            if zlib.crc32(payload) != want_crc:
                error = TraceFormatError(
                    f"segment CRC mismatch (segment {seg_index}, "
                    f"{_STREAM_OF_KIND[kind]} stream)",
                    stream=_STREAM_OF_KIND[kind], offset=pos,
                )
                break
            try:
                if kind == SEG_SWITCH:
                    switches.extend(_decode_segment_payload(payload, codec, "switch"))
                    stream_crcs[SEG_SWITCH] = zlib.crc32(payload, stream_crcs[SEG_SWITCH])
                    report.switch_segments += 1
                elif kind == SEG_VALUE:
                    values.extend(_decode_segment_payload(payload, codec, "value"))
                    stream_crcs[SEG_VALUE] = zlib.crc32(payload, stream_crcs[SEG_VALUE])
                    report.value_segments += 1
                elif kind == SEG_SLIM:
                    slim.extend(_decode_segment_payload(payload, codec, "slim"))
                    stream_crcs[SEG_SLIM] = zlib.crc32(payload, stream_crcs[SEG_SLIM])
                    report.slim_segments += 1
                elif kind == SEG_META:
                    meta.update(_decode_meta(_maybe_decompress(payload, codec, "meta")))
                else:  # footer
                    footer = _decode_meta(
                        _maybe_decompress(payload, codec, "footer"), "footer"
                    )
            except TraceFormatError as exc:
                error = exc
                break
            report.intact_segments += 1
            seg_index += 1
            pos += hdr + payload_len

        if error is not None:
            report.stopped_at = error.offset
            report.error = str(error)
            if not salvage:
                raise error
        if footer is None:
            if not salvage:
                raise TraceFormatError(
                    "trace has no footer: the file is unsealed "
                    "(recorder died mid-run?) — try salvage",
                    stream="footer", offset=len(data),
                )
        else:
            cls._check_footer(footer, switches, values, slim, report, stream_crcs)
            report.sealed = error is None
        return cls(switches=switches, values=values, slim=slim, meta=meta), report

    @staticmethod
    def _check_footer(footer, switches, values, slim, report, stream_crcs) -> None:
        checks = [
            ("n_switch_words", len(switches)),
            ("n_value_words", len(values)),
            ("n_switch_segments", report.switch_segments),
            ("n_value_segments", report.value_segments),
            ("switch_crc", stream_crcs[SEG_SWITCH]),
            ("value_crc", stream_crcs[SEG_VALUE]),
        ]
        if "n_slim_words" in footer or report.slim_segments:
            checks += [
                ("n_slim_words", len(slim)),
                ("n_slim_segments", report.slim_segments),
                ("slim_crc", stream_crcs[SEG_SLIM]),
            ]
        for key, got in checks:
            want = footer.get(key)
            if want != got:
                raise TraceFormatError(
                    f"footer mismatch on {key}: footer says {want!r}, "
                    f"file holds {got!r}",
                    stream="footer",
                )


def _maybe_decompress(payload: bytes, codec: int, stream: str) -> bytes:
    if codec & CODEC_ZLIB:
        try:
            return zlib.decompress(payload)
        except zlib.error as exc:
            raise TraceFormatError(
                f"undecodable compressed segment ({stream} stream): {exc}",
                stream=stream, offset=0,
            ) from exc
    return payload


# ---------------------------------------------------------------------------
# trace-stats scanner


def trace_stats(path: str | Path) -> dict:
    """Per-stream encoding statistics for a sealed or legacy trace file.

    Returns a dict with ``format_version``, ``file_bytes`` and a
    ``streams`` mapping; each stream reports its entry count, segment
    count, stored (encoded) bytes, the plain-varint baseline bytes, and
    the resulting compression ratio.  Damage raises
    :class:`TraceFormatError`, matching :meth:`TraceLog.load`.
    """
    path = Path(path)
    data = path.read_bytes()
    # validate wholesale first: stats on a damaged file would be fiction
    log = TraceLog.load(path)
    version = int.from_bytes(data[4:6], "little")
    streams = {
        name: {"entries": 0, "segments": 0, "encoded_bytes": 0,
               "raw_bytes": 0, "codecs": set()}
        for name in ("switch", "value", "slim")
    }
    if version == 2:
        buf = io.BytesIO(data)
        buf.read(6)
        meta_len = int.from_bytes(buf.read(4), "little")
        buf.read(meta_len)
        for name in ("switch", "value"):
            payload_len = int.from_bytes(buf.read(8), "little")
            payload = buf.read(payload_len)
            st = streams[name]
            st["entries"] = len(decode_words(payload, name))
            st["segments"] = 1
            st["encoded_bytes"] = len(payload)
            st["raw_bytes"] = len(payload)
            st["codecs"].add(CODEC_RAW)
    else:
        hdr = _SEG_HEADER_BYTES if version == 3 else _SEG_HEADER_BYTES_V31
        pos = 6
        while pos < len(data):
            kind = data[pos:pos + 1]
            if version == 3:
                codec = CODEC_RAW
                payload_len = int.from_bytes(data[pos + 1:pos + 5], "little")
            else:
                codec = data[pos + 1]
                payload_len = int.from_bytes(data[pos + 2:pos + 6], "little")
            payload = data[pos + hdr:pos + hdr + payload_len]
            if kind in (SEG_SWITCH, SEG_VALUE, SEG_SLIM):
                name = _STREAM_OF_KIND[kind]
                words = _decode_segment_payload(payload, codec, name)
                st = streams[name]
                st["entries"] += len(words)
                st["segments"] += 1
                st["encoded_bytes"] += len(payload)
                st["raw_bytes"] += len(encode_words(words))
                st["codecs"].add(codec)
            pos += hdr + payload_len
    if not streams["slim"]["segments"]:
        del streams["slim"]  # full traces report the two classic streams
    for st in streams.values():
        st["ratio"] = (
            st["raw_bytes"] / st["encoded_bytes"] if st["encoded_bytes"] else 1.0
        )
        st["codecs"] = sorted(st["codecs"])
    stats = {
        "format_version": version,
        "file_bytes": len(data),
        "streams": streams,
    }
    slim_block = log.slim_info
    if slim_block is not None:
        stats["slim"] = {
            "kept": slim_block.get("kept"),
            "dropped": slim_block.get("dropped"),
            "model": slim_block.get("model"),
        }
    return stats


# ---------------------------------------------------------------------------
# crash-consistent streaming writer


class _SpillList(list):
    """A word sink that spills full segments to the writer as it grows.

    It *is* the host-side word list (``DejaVu`` appends flushed guest
    buffers into it and ``trace()`` reads it back whole); the spill is a
    side channel to disk and never mutates the list, so attaching a writer
    changes nothing the controller — let alone the guest — can observe.
    """

    def __init__(self, writer: "TraceWriter", kind: bytes):
        super().__init__()
        self._writer = writer
        self._kind = kind
        self._spilled = 0  # words already written to disk

    def append(self, word: int) -> None:
        super().append(word)
        if len(self) - self._spilled >= self._writer.segment_words:
            self.spill()

    def spill(self) -> None:
        pending = self[self._spilled:]
        if not pending:
            return
        self._writer._write_stream_segment(self._kind, pending)
        self._spilled = len(self)


class TraceWriter:
    """Streams a recording to ``<path>.tmp`` and seals it atomically.

    The execution path only appends words to the in-memory sinks; when a
    segment's worth accumulates, the raw words are handed across a queue
    to a background flusher thread that does the varint/group encoding,
    CRC32, framing, and file I/O (``background=False`` keeps everything
    on the caller's thread, for bulk saves).  Segments reach the OS in
    spill order, so a crash mid-record leaves a prefix of intact segments
    that :meth:`TraceLog.salvage` can recover — exactly as before the
    flusher existed.  :meth:`seal` drains and joins the flusher, then
    writes the meta segment and footer, fsyncs, and ``os.replace``\\ s
    the tmp file onto the final path — the final name never holds a torn
    file, and any flusher-side error surfaces on the sealing thread.
    """

    def __init__(self, path: str | Path, *, segment_words: int = SEGMENT_WORDS,
                 codec: int = CODEC_GROUP, compress: bool = False,
                 background: bool = True, slim: bool = False):
        if segment_words <= 0:
            raise VMError(f"segment_words must be positive, got {segment_words}")
        if codec & ~_CODEC_MASK:
            raise VMError(f"unknown segment codec 0x{codec:02x}")
        self.path = Path(path)
        self.tmp_path = self.path.with_name(self.path.name + ".tmp")
        self.segment_words = segment_words
        self.codec = codec | CODEC_ZLIB if compress else codec
        # the version streams out first, so "slim-capable" is decided here;
        # whether the switch stream actually got slimmed is in the meta
        self.slim = slim
        self.version = FORMAT_VERSION_SLIM if slim else FORMAT_VERSION
        self._f = self.tmp_path.open("wb")
        self._f.write(MAGIC)
        self._f.write(self.version.to_bytes(2, "little"))
        self._f.flush()
        self.switch_sink = _SpillList(self, SEG_SWITCH)
        self.value_sink = _SpillList(self, SEG_VALUE)
        self.slim_sink = _SpillList(self, SEG_SLIM)
        self._stream_crcs = {SEG_SWITCH: 0, SEG_VALUE: 0, SEG_SLIM: 0}
        self._seg_counts = {SEG_SWITCH: 0, SEG_VALUE: 0, SEG_SLIM: 0}
        self._sealed = False
        self._error: BaseException | None = None
        self._queue: "queue.Queue | None" = None
        self._flusher: "threading.Thread | None" = None
        if background:
            self._queue = queue.Queue()
            self._flusher = threading.Thread(
                target=self._drain, name="trace-flusher", daemon=True
            )
            self._flusher.start()

    # -- flusher side ------------------------------------------------------

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            if self._error is None:
                try:
                    self._emit_stream_segment(*item)
                except BaseException as exc:  # surfaces at next spill/seal
                    self._error = exc

    def _emit_stream_segment(self, kind: bytes, words: list[int]) -> None:
        payload = _encode_segment_payload(words, self.codec)
        self._stream_crcs[kind] = zlib.crc32(payload, self._stream_crcs[kind])
        self._seg_counts[kind] += 1
        self._write_segment(kind, payload, self.codec)

    def _write_segment(self, kind: bytes, payload: bytes, codec: int) -> None:
        self._f.write(kind)
        self._f.write(bytes([codec]))
        self._f.write(len(payload).to_bytes(4, "little"))
        self._f.write(zlib.crc32(payload).to_bytes(4, "little"))
        self._f.write(payload)
        self._f.flush()

    # -- execution-path side ----------------------------------------------

    def _write_stream_segment(self, kind: bytes, words: list[int]) -> None:
        if self._error is not None:
            raise self._error
        if self._queue is not None:
            self._queue.put((kind, words))
        else:
            self._emit_stream_segment(kind, words)

    def _join_flusher(self) -> None:
        """Stop the flusher after it has written every queued segment."""
        if self._flusher is not None and self._flusher.is_alive():
            self._queue.put(None)
            self._flusher.join()

    def seal(self, meta: dict) -> None:
        """Flush remaining words, write meta + footer, rename into place."""
        if self._sealed:
            raise VMError("TraceWriter already sealed")
        self.switch_sink.spill()
        self.value_sink.spill()
        if self.slim:
            self.slim_sink.spill()
        self._join_flusher()
        if self._error is not None:
            raise self._error
        if meta:
            self._write_segment(SEG_META, _encode_meta(meta), CODEC_RAW)
        footer = {
            "n_switch_words": len(self.switch_sink),
            "n_value_words": len(self.value_sink),
            "n_switch_segments": self._seg_counts[SEG_SWITCH],
            "n_value_segments": self._seg_counts[SEG_VALUE],
            "switch_crc": self._stream_crcs[SEG_SWITCH],
            "value_crc": self._stream_crcs[SEG_VALUE],
            "config": meta.get("config"),
        }
        if self.slim:
            footer["n_slim_words"] = len(self.slim_sink)
            footer["n_slim_segments"] = self._seg_counts[SEG_SLIM]
            footer["slim_crc"] = self._stream_crcs[SEG_SLIM]
        self._write_segment(SEG_FOOTER, _encode_meta(footer), CODEC_RAW)
        self._f.flush()
        os.fsync(self._f.fileno())
        self._f.close()
        os.replace(self.tmp_path, self.path)
        self._sealed = True

    def abandon(self) -> None:
        """Stop writing, leaving the tmp file as-is (the crash outcome).

        Queued-but-unwritten segments are drained to disk first — they
        were spilled before the "crash", so the salvageable prefix must
        contain them, same as the synchronous writer's would have.
        """
        self._join_flusher()
        if not self._f.closed:
            self._f.close()

    @property
    def sealed(self) -> bool:
        return self._sealed


# ---------------------------------------------------------------------------
# the guest-heap buffers


class TraceBuffer:
    """Word FIFO staged through a guest heap int array.

    Record mode: ``put`` words; when the array fills, its contents drain to
    the host-side word list (a "flush", which fires the lazy-class-load and
    internal-yield-point side effects the symmetry rules govern).

    Replay mode: ``take`` words; when the array empties, the next chunk of
    the trace refills it (a "refill", the mirror-image side effect).
    """

    def __init__(self, vm: "VirtualMachine", capacity_words: int, *, boot_slot: int | None = None):
        self.vm = vm
        self.capacity = capacity_words
        self.boot_slot = boot_slot
        self.addr = 0
        self._fill = 0  # valid words in the guest array
        self._pos = 0  # read cursor (replay)
        self.flushes = 0
        self.refills = 0
        #: side-effect hook invoked on every flush/refill (symmetry module)
        self.on_drain: Callable[[str], None] | None = None

    def allocate(self) -> None:
        """Allocate the guest array (the 'symmetry in allocation' event)."""
        if self.addr:
            return
        self.addr = self.vm.om.new_array("[I", self.capacity)
        if self.boot_slot is not None:
            self.vm.memory.boot_write(self.boot_slot, self.addr)

    @property
    def allocated(self) -> bool:
        return self.addr != 0

    # -- record side -------------------------------------------------------

    def put(self, word: int, sink: list[int]) -> None:
        if not self.addr:
            self.allocate()
        if self._fill >= self.capacity:
            self.flush(sink)
        self.vm.om.array_put(self.addr, self._fill, word)
        self._fill += 1

    def flush(self, sink: list[int]) -> None:
        om = self.vm.om
        for i in range(self._fill):
            sink.append(om.array_get(self.addr, i))
        self._fill = 0
        self.flushes += 1
        if self.on_drain is not None:
            self.on_drain("flush")

    # -- replay side -------------------------------------------------------

    def take(self, source: list[int], cursor: int) -> tuple[int | None, int]:
        """Pop the next word; returns (word | None-when-exhausted, cursor)."""
        if not self.addr:
            self.allocate()
        if self._pos >= self._fill:
            cursor = self._refill(source, cursor)
            if self._fill == 0:
                return None, cursor
        word = self.vm.om.array_get(self.addr, self._pos)
        self._pos += 1
        return word, cursor

    def _refill(self, source: list[int], cursor: int) -> int:
        om = self.vm.om
        n = min(self.capacity, len(source) - cursor)
        for i in range(n):
            om.array_put(self.addr, i, source[cursor + i])
        self._fill = n
        self._pos = 0
        self.refills += 1
        if self.on_drain is not None:
            self.on_drain("refill")
        return cursor + n

    # -- shared -------------------------------------------------------------

    def zero(self) -> None:
        """Erase buffer contents (end of run) so record and replay leave
        byte-identical heaps behind — the END heap-digest check depends
        on this."""
        if not self.addr:
            return
        om = self.vm.om
        for i in range(self.capacity):
            om.array_put(self.addr, i, 0)
        self._fill = 0
        self._pos = 0

    def visit_roots(self, fwd: Callable[[int], int]) -> None:
        if self.addr:
            self.addr = fwd(self.addr)

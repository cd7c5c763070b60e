"""Wire format of the networked KV service.

Every frame is a **delimiter** and one **body**.  A connection's
handshake frames carry a 4-byte big-endian body length, so a peer of
any age can read a hello and its refusal; from the point where
``Connection.negotiate`` installs the binary codec on an end, the
frames it sends and reads carry a LEB128 body length instead
(:func:`delimiter` / :func:`read_delimiter`: one byte under 128 B).
A body is in one of two codecs:

* the **JSON codec** (:class:`JsonCodec`) — a UTF-8 JSON object.  It is
  the *handshake codec* (the one frame that opens a connection travels
  in it, so a refusal is legible to any peer of any age) and a *debug
  input* (a hand-typed JSON frame decodes on any connection); nothing
  can be configured to stay on it;
* the **binary codec** (:class:`BinaryCodec`) — a header followed by
  the frame's fields in a compact msgpack-style encoding (single-byte
  type tags, varlength ints, flat integer vectors for dependency logs
  and clock rows — varints on a connection, fixed-width ``struct`` runs
  in a WAL record).  The *full* header is three bytes: magic byte,
  frame schema version, frame-type tag; WAL records carry it.  The
  *lean* header, what a connection sends after its handshake fixed
  codec and schema version, is the tag alone.

A JSON body always starts with ``{`` (0x7B), a full binary body with
:data:`BINARY_MAGIC` (0xB3, not a valid UTF-8 lead byte) and a lean one
with its tag (0x00-0x23, 0x80-0xA3 with the schema bit), so a receiver
decodes any body with no ambiguity (:func:`decode_body` sniffs the
first byte).

Support window
--------------
The service speaks **one wire version: the current one**
(:data:`WIRE_VERSION`).  Every connection opens with one JSON ``hello``
(client) or ``link.hello`` (peer) carrying ``cv``; ``cv ==
WIRE_VERSION`` is answered ``hello.ok`` / ``link.ok`` and both ends
install :data:`BINARY_CODEC_V4`.  Anything else — ``cv`` absent, lower
or higher, or any other frame before a hello — is answered with one
``err`` frame of the non-retriable code ``unsupported-version`` naming
the version offered and the version spoken
(:func:`unsupported_version`), and the connection is closed; the
dialing side is symmetric (``Connection.handshake``).  Nothing is
negotiated and nothing can be configured (docs/service.md, "Support
window").

What the current version puts on a peer link (docs/service.md, "What
a peer link carries"):

* **the lean envelope** — the LEB128 delimiter and the one-byte
  header above: two bytes of envelope on nearly every frame;
* **per-link delta encoding** — each repl frame's metadata travels as
  a diff against the previous repl frame sent on the connection
  (``repl.delta``, :class:`DeltaEncoder` / :class:`DeltaDecoder`),
  full when a diff would pack no fewer ints, and always full first
  after a handshake; the receiver only decodes the contiguous ``ls ==
  seen + 1`` frame, so both ends chain against the same baseline;
* **id interning** — the handshake *receiver* answers with an intern
  table (``itab``: position = id) and senders may put the small int in
  any ``var`` field (``VarId`` is a string, so an int is unambiguous);
* **varint int vectors** — every list of ints a connection sends is a
  count in the tag byte and one zigzag LEB128 varint per element
  (``_T_VARINTS``), emitted by the compact encoder only;
* **chained scalars** — ``ls``, the issue stamp ``it`` and the ack's
  ``a`` travel as the advance over the previous frame of their kind on
  the connection, absolute on the first after a handshake; the
  receiving end adds it back as it parses (:class:`_LinkEnd`);
* **link-implied fields** — no ``src`` / ``dst`` on the repl kinds, no
  ``rq`` / ``sv`` on ``fetch`` / ``fetch.ok``: the ``link.hello`` fixed
  both sites.  A repl frame that does spell ``src`` is
  *self-contained* (absolute): what a snapshot nests and an old WAL
  holds, still legal on a link.

Every frame carries the frame schema version (``"v"``,
:data:`JSON_WIRE_VERSION` — spelled in every full binary header and so
in every WAL record, implied by a lean one, and *not* the capability
``cv``) and a frame type (``"t"``).
A frame with any other schema version is rejected rather than guessed
at — the schema version is bumped on an incompatible change of field
layout, never for additive optional fields.

Frame types
-----------
Client-facing request/response::

    hello    {v, t:"hello", cv}                  -> hello.ok {site, cv, itab}
             opens every client connection (one round trip per pooled
             connection); see "Support window" above.
    put      {v, t:"put", var, value}            -> put.ok {w} | err
    get      {v, t:"get", var}                   -> get.ok {value, w, by} | err
    ping     {v, t:"ping"}                       -> ping.ok {site}
    kill     {v, t:"kill"}                       -> kill.ok {}   (chaos)

Server-to-server (peer links)::

    link.hello  {v, t:"link.hello", src, epoch, cv}
                                         -> link.ok {ack, ap, ow, cv, itab}
             opens every peer-link connection.  ``epoch`` identifies the
             sender *incarnation*: the receiver keys its repl dedup
             state by (src, epoch) and resets it when a new epoch
             connects, so a restarted site's fresh sequence numbers are
             not mistaken for duplicates.  ``ack`` is the receiver's
             cumulative per-link high-water mark; the sender retires
             everything up to it and resends the rest.  ``ap`` is its
             applied watermark (see ``repl.ackp``).  ``ow`` is the
             highest of the sender's *own* writes the receiver has
             applied (its per-origin stable timestamp for the sender,
             across incarnations of both): the sender releases its
             own-write log at or below it and re-enqueues what lies
             above it and no queue entry carries — how a restarted
             origin re-ships the writes its dead queue held.
    repl.t   {var, value, w, meta, ls, it}: one UpdateMessage
             (REPLICATE) from the link's ``src`` to its ``dst`` with the
             origin's issue time ``it`` (ms on the origin's clock —
             what feeds the receiver's per-origin visibility-latency
             histograms); ``ls`` is a contiguous per-link sequence
             number; both travel chained (see above).  The receiver
             processes only ``ls == seen + 1`` (drops duplicates,
             refuses gaps without acking) and acks only *after* the
             update is applied or parked.  The sender retires a frame
             on ack, never on transport send success alone:
             at-least-once delivery, exactly-once apply.
    repl.delta.t  same fields, but ``meta`` holds a diff against the
             metadata of the previous frame sent on this connection
             (kinds ``otd``/``crpd``/``mcd``); never the first repl
             frame of a connection.  Both kinds carry ``w: None`` when
             the write id is derivable as ``WriteId(src, meta.clock)``
             (it always is for opt-track and CRP writes).
    repl / repl.delta  the same two frames without the stamp
             (:func:`strip_issue`); a link always stamps.  ``repl`` /
             ``repl.t`` also have a *self-contained* layout {var, value,
             w, src, dst, meta, ls[, it]} (absolute): a WAL written by
             an earlier build holds raw records of it.
    repl.ackp  ``{a, ap}``: the cumulative ack ``a`` (chained) and the
             gap between it and the highest contiguous *applied* (not
             merely parked) ``ls`` — ``a - ap`` is the sender's
             ack-driven dependency-log GC watermark
             (``note_remote_apply``).  The gap is almost always 0, so
             it packs into one byte where an absolute watermark would
             repeat a full-width sequence.
    fetch    {var, fid, deps}: one FetchRequest from the link's ``src``
             (the requester) to its ``dst`` (the server), answered by
             fetch.ok {var, value, w, fid, meta, applied} (correlated
             by ``fid``)
    sys.digest / sys.range / sys.ctrl.ok   retired (the periodic
             anti-entropy rounds, before ``link.ok``'s ``ow`` made the
             handshake the one catch-up path): their tags and layouts
             stay reserved, and any connection answers them ``err
             bad-frame``.

Live observability::

    sys.stats   {v, t:"sys.stats"}  -> sys.stats.ok {site, stats}
             one internally consistent snapshot of the answering site:
             per-link watermarks and backlogs, parked-update depths,
             dep-log size, wire bytes by frame kind, store size, and the
             site's metrics-registry snapshot.  Answered on any
             handshaken connection.

``err`` frames carry a machine-readable ``code``; codes in
:data:`RETRIABLE` mark failures the client may retry (elsewhere).

Protocol metadata (matrix clocks, dependency logs, apply snapshots) is
piggybacked through the tagged codec in :func:`encode_meta` /
:func:`decode_meta`, mirroring the in-memory types of
:mod:`repro.core.messages` exactly — the decoded objects are the same
classes the protocols consume, so a protocol instance cannot tell a wire
peer from an in-process one.

One-pass path
-------------
The frame kinds of the steady state (:data:`HOT_KINDS`, plus the
``wal.*`` records on the encode side) do not need the frame dict at
all: :class:`BinaryCodec`'s ``pack_*`` methods and
:meth:`DeltaEncoder.pack_update` write a frame's bytes straight from
the message object, and :func:`decode_message` /
:meth:`DeltaDecoder.unpack_update` build the message straight from the
body.  The bytes are exactly :meth:`BinaryCodec.encode`'s for the same
message (``tests/property/test_wire_codecs.py`` holds the two paths to
that, and to equal decoded objects), so either end of a connection may
be on either path.  Everything else — handshakes, ``sys.*``, ``snap``,
``err``, WAL replay, and a :class:`~repro.service.transport.Connection`
that only speaks frame dicts — stays on the dict walk.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import DepLog
from repro.core.messages import (
    CrpMeta,
    FetchReply,
    FetchRequest,
    OptTrackMeta,
    UpdateMessage,
)
from repro.errors import UnsupportedVersionError, WireError
from repro.types import WriteId

#: the wire version this side speaks — the *capability* ``cv`` a hello
#: must carry, not a byte on any frame.  The support window is this one
#: value (see module docstring): chained ``repl.delta`` frames and
#: scalars, link-implied fields, varint int vectors, ``ap`` applied
#: watermarks on acks, ``ow`` per-origin watermarks on ``link.ok``, id
#: interning, the binary codec in its lean envelope.
WIRE_VERSION = 7

#: the frame schema version stamped on every frame dict, in every
#: binary header and therefore in every WAL record.  Decoders accept
#: exactly this value.
JSON_WIRE_VERSION = 2

#: first body byte of a binary-codec frame.  0xB3 is not a valid UTF-8
#: lead byte and a JSON object body always starts with ``{`` (0x7B), so
#: one byte of lookahead identifies the codec unambiguously.
BINARY_MAGIC = 0xB3

#: hard cap on one frame's encoded body; protects both sides from a
#: corrupt or hostile length prefix
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

#: ``err`` codes the client may retry (possibly against another replica)
RETRIABLE = ("read-timeout", "unavailable", "shutting-down")


def unsupported_version(offered: Any, where: str) -> UnsupportedVersionError:
    """The support window's one refusal, worded the same on the
    accepting and the dialing side: the version offered (``None`` when
    no ``cv`` was), where it was seen, and the version spoken."""
    return UnsupportedVersionError(
        f"unsupported wire version {offered!r} in {where}: this side "
        f"speaks version {WIRE_VERSION} only"
    )


def field(frame: Dict[str, Any], key: str, kind: type) -> Any:
    """A required field of a received frame dict, of exactly type
    ``kind`` — the seam where a peer's frame stops being trusted: a
    missing or mistyped field is a :class:`WireError` (drop the
    connection), never a ``KeyError`` in the task that read it."""
    value = frame.get(key)
    if type(value) is not kind:
        raise WireError(
            f"{frame.get('t')} frame field {key!r} must be "
            f"{kind.__name__}, got {value!r}"
        )
    return value


def _check_version(version: Any) -> None:
    if type(version) is not int or version != JSON_WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} on a frame (this side "
            f"speaks frame schema {JSON_WIRE_VERSION})"
        )


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
class JsonCodec:
    """The handshake and debug codec: one UTF-8 JSON object per frame."""

    name = "json"
    #: what ``Connection.wire_version`` reads before the handshake
    version = JSON_WIRE_VERSION

    def encode(self, frame: Dict[str, Any]) -> bytes:
        """Serialize one frame dict to its length-prefixed wire bytes."""
        body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise WireError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
        return _LEN.pack(len(body)) + body

    def decode_body(self, body: bytes) -> Dict[str, Any]:
        try:
            frame = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"undecodable frame body: {exc}") from None
        if not isinstance(frame, dict):
            raise WireError(f"frame must be a JSON object, got {type(frame).__name__}")
        _check_version(frame.get("v"))
        if not isinstance(frame.get("t"), str):
            raise WireError("frame missing its type field 't'")
        return frame


class BinaryCodec:
    """The binary codec: a header + compact field packing.

    Body layout (after the delimiter; the lean header is the tag alone)::

        B  magic       BINARY_MAGIC (0xB3)
        B  version     frame schema version (the frame's ``v`` field)
        B  type tag    index into the frame-type registry; 0 = unknown
                       type, the type string follows as a packed value
        .. fields      the remaining frame fields as one packed map
                       (msgpack-style value encoding, see ``_pack_into``)

    Decoding reconstructs the exact frame dict the JSON codec would have
    produced — both codecs are interchangeable per frame, which is what
    the codec round-trip property tests assert.

    ``compact=True`` (the :data:`BINARY_CODEC_V4` instance, what every
    connection sends in) writes the lean header and *emits* the
    two-byte int tag (``_T_INT16``) for values the plain encoder spends
    five bytes on, and the varint int vector (``_T_VARINTS``) for every
    list of ints — dependency-log runs, clock vectors, write ids.  Both
    decode everything either emits.  The plain instance
    (:data:`BINARY_CODEC`) is the WAL record encoder: its byte stream is
    a file format and stays frozen.
    """

    name = "binary"
    version = WIRE_VERSION

    def __init__(self, compact: bool = False) -> None:
        self.compact = compact

    def encode(self, frame: Dict[str, Any]) -> bytes:
        out = bytearray(4)  # length prefix patched in below
        try:
            frame_type = frame["t"]
            version = frame["v"]
        except KeyError as exc:
            raise WireError(f"frame missing required field {exc}") from None
        compact = self.compact
        # the handshake fixed magic and schema: a compact body opens with
        # its tag (another schema keeps the bytes its receiver refuses)
        lean = compact and type(version) is int and version == JSON_WIRE_VERSION
        tag = _FRAME_TAGS.get(frame_type, 0)
        layout_tag = _LAYOUTS.get((frame_type, len(frame) - 2))
        values: Optional[list] = None
        if layout_tag is not None:
            try:
                values = [frame[k] for k in _TAG_SCHEMAS[layout_tag]]
                tag = layout_tag
            except KeyError:
                pass  # the right count of other keys: map-shaped below
        if values is not None:
            tag |= _SCHEMA_BIT
        try:
            out += bytes((tag,)) if lean else _HDR.pack(BINARY_MAGIC, version, tag)
            if values is not None:
                for val in values:
                    _pack_into(out, val, compact)
            else:
                if tag == 0:
                    _pack_into(out, frame_type, compact)
                _pack_len(out, _T_MAP, len(frame) - 2)
                for key, val in frame.items():
                    if key == "v" or key == "t":
                        continue
                    if type(key) is str:
                        _pack_str(out, key)
                    else:
                        _pack_into(out, key, compact)
                    _pack_into(out, val, compact)
        except struct.error as exc:
            raise WireError(f"unencodable frame header: {exc}") from None
        body_len = len(out) - 4
        if body_len > MAX_FRAME_BYTES:
            raise WireError(f"frame of {body_len} bytes exceeds {MAX_FRAME_BYTES}")
        out[:4] = _LEN.pack(body_len)
        return bytes(out)

    def decode_body(self, body: bytes) -> Dict[str, Any]:
        """Either header: full (magic, schema version, tag) or lean."""
        try:
            if body[0] != BINARY_MAGIC:
                version, tag, pos = JSON_WIRE_VERSION, body[0], 1
            else:
                _, version, tag = _HDR.unpack_from(body, 0)
                pos = _HDR.size
        except (IndexError, struct.error) as exc:
            raise WireError(f"truncated binary frame header: {exc!r}") from None
        _check_version(version)
        schema_packed = tag & _SCHEMA_BIT
        tag &= _SCHEMA_BIT - 1
        try:
            if tag == 0 and not schema_packed:
                frame_type, pos = _unpack_from(body, pos)
            else:
                frame_type = _FRAME_TYPES[tag]
        except IndexError:
            raise WireError(f"unknown binary frame type tag {tag}") from None
        except (struct.error, UnicodeDecodeError) as exc:
            raise WireError(f"undecodable binary frame type: {exc}") from None
        if not isinstance(frame_type, str):
            raise WireError("binary frame missing its type tag")
        frame: Dict[str, Any] = {"v": version, "t": frame_type}
        try:
            if schema_packed:
                schema = _TAG_SCHEMAS.get(tag)
                if schema is None:
                    raise WireError(
                        f"{frame_type!r} frames have no schema layout"
                    )
                for key in schema:
                    first = body[pos]
                    if first >= _T_FIXINT:
                        frame[key] = first - _T_FIXINT
                        pos += 1
                    else:
                        frame[key], pos = _unpack_from(body, pos)
            else:
                fields, pos = _unpack_from(body, pos)
                if not isinstance(fields, dict):
                    raise WireError("binary frame fields must decode to a map")
                frame.update(fields)
        except (IndexError, struct.error, UnicodeDecodeError) as exc:
            raise WireError(f"undecodable binary frame body: {exc}") from None
        if pos != len(body):
            raise WireError(
                f"binary frame has {len(body) - pos} trailing bytes"
            )
        return frame

    # ------------------------------------------------------------------
    # one-pass encoders: message object -> wire bytes, no frame dict
    # ------------------------------------------------------------------
    # Each writes exactly the bytes :meth:`encode` produces for the
    # frame dict the same message would have been turned into
    # (``encode_update`` / ``make_frame`` / ...) — the layouts are the
    # ``_FRAME_SCHEMAS`` rows, spelled out field by field.  A new field
    # on one of these kinds is added to its schema row, its encoder
    # here, its decoder under ``decode_message`` and the byte-identity
    # property test together.

    def _pack_repl(
        self,
        head: bytes,
        msg: UpdateMessage,
        wid: Optional[WriteId],
        itab: Optional["InternTable"],
        fields: Any,
        ls: int,
        it: Optional[int],
        sites: bool = False,
    ) -> bytes:
        """``var value w [src dst] meta ls [it]``: ``fields`` is the
        metadata's schema row (``None`` for no metadata); ``sites``
        spells the self-contained layout, else ``ls`` / ``it`` are the
        advances :class:`DeltaEncoder` chained."""
        compact = self.compact
        out = bytearray(head)
        _pack_var(out, msg.var, itab, compact)
        _pack_into(out, msg.value, compact)
        _pack_wid(out, wid, compact)
        if sites:
            _pack_int(out, msg.sender, compact)
            _pack_int(out, msg.dest, compact)
        _pack_fields(out, fields, compact)
        _pack_int(out, ls, compact)
        if it is not None:
            _pack_int(out, it, compact)
        return _finish(out)

    def pack_update(
        self,
        msg: UpdateMessage,
        link_seq: int,
        issued_ms: Optional[float] = None,
        wal: bool = False,
    ) -> bytes:
        """A full, self-contained repl frame (``repl.t`` when
        ``issued_ms`` is given) — or, with ``wal``, its durable twin
        ``wal.repl``: never interned, never lean, absolute, so it
        decodes with no connection state."""
        kind = "wal.repl" if wal else "repl" if issued_ms is None else "repl.t"
        meta = msg.meta
        return self._pack_repl(
            _HEADS[self.compact][kind], msg, msg.write_id, None,
            None if meta is None else _meta_fields(meta),
            link_seq, None if issued_ms is None else int(issued_ms), True,
        )

    def pack_ack(self, ack: int, applied_gap: int) -> bytes:
        """``repl.ackp {a, ap}``: the cumulative ack (a link chains it,
        :meth:`DeltaDecoder.pack_ack`) and its gap to the applied watermark."""
        out = bytearray(_HEADS[self.compact]["repl.ackp"])
        _pack_int(out, ack, self.compact)
        _pack_int(out, applied_gap, self.compact)
        return _finish(out)

    def pack_put(
        self, var: Any, value: Any, itab: Optional["InternTable"] = None
    ) -> bytes:
        out = bytearray(_HEADS[self.compact]["put"])
        _pack_var(out, var, itab, self.compact)
        _pack_into(out, value, self.compact)
        return _finish(out)

    def pack_put_ok(self, write_id: WriteId) -> bytes:
        out = bytearray(_HEADS[self.compact]["put.ok"])
        _pack_wid(out, write_id, self.compact)
        return _finish(out)

    def pack_get(self, var: Any, itab: Optional["InternTable"] = None) -> bytes:
        out = bytearray(_HEADS[self.compact]["get"])
        _pack_var(out, var, itab, self.compact)
        return _finish(out)

    def pack_get_ok(
        self, value: Any, write_id: Optional[WriteId], served_by: int
    ) -> bytes:
        compact = self.compact
        out = bytearray(_HEADS[compact]["get.ok"])
        _pack_into(out, value, compact)
        _pack_wid(out, write_id, compact)
        _pack_int(out, served_by, compact)
        return _finish(out)

    def pack_fetch(self, req: FetchRequest, itab: Any = None) -> bytes:
        """``fetch``; ``itab`` is the serving site's table (the link's)."""
        compact = self.compact
        out = bytearray(_HEADS[compact]["fetch"])
        _pack_var(out, req.var, itab, compact)
        _pack_int(out, req.fetch_id, compact)
        deps = req.deps
        _pack_fields(out, None if deps is None else _meta_fields(deps), compact)
        return _finish(out)

    def pack_fetch_ok(
        self,
        reply: FetchReply,
        lean: bool = False,
        itab: Optional["InternTable"] = None,
    ) -> bytes:
        """``fetch.ok``; ``lean`` and ``itab`` as
        :func:`encode_fetch_reply` (its ``compact``)."""
        compact = self.compact
        out = bytearray(_HEADS[compact]["fetch.ok"])
        _pack_var(out, reply.var, itab, compact)
        _pack_into(out, reply.value, compact)
        _pack_wid(out, reply.write_id, compact)
        _pack_int(out, reply.fetch_id, compact)
        _pack_fields(out, _reply_meta_fields(reply, lean), compact)
        _pack_fields(out, _reply_applied_fields(reply, lean), compact)
        return _finish(out)

    def pack_wal_put(self, var: Any, value: Any, write_id: WriteId) -> bytes:
        out = bytearray(_HEADS[self.compact]["wal.put"])
        _pack_var(out, var, None, self.compact)
        _pack_into(out, value, self.compact)
        _pack_wid(out, write_id, self.compact)
        return _finish(out)

    def pack_wal_read(self, var: Any) -> bytes:
        out = bytearray(_HEADS[self.compact]["wal.read"])
        _pack_var(out, var, None, self.compact)
        return _finish(out)

    def pack_wal_rfetch(self, reply: FetchReply) -> bytes:
        """The durable record of a completed remote read (plain
        metadata kinds: a WAL record decodes with no connection state)."""
        compact = self.compact
        out = bytearray(_HEADS[compact]["wal.rfetch"])
        _pack_var(out, reply.var, None, compact)
        _pack_into(out, reply.value, compact)
        _pack_wid(out, reply.write_id, compact)
        _pack_int(out, reply.server, compact)
        _pack_fields(out, _reply_meta_fields(reply, False), compact)
        _pack_fields(out, _reply_applied_fields(reply, False), compact)
        return _finish(out)


#: the codec singletons; connections reference these, never copies:
#: JSON for the handshake, BINARY_CODEC_V4 for everything after it,
#: BINARY_CODEC for WAL records — see :class:`BinaryCodec`.
JSON_CODEC = JsonCodec()
BINARY_CODEC = BinaryCodec()
BINARY_CODEC_V4 = BinaryCodec(compact=True)


def codec_for(agreed: int) -> BinaryCodec:
    """The send codec of a handshaken connection.  One row: the support
    window is :data:`WIRE_VERSION`, anything else raises."""
    if agreed != WIRE_VERSION:
        raise unsupported_version(agreed, "codec_for")
    return BINARY_CODEC_V4


_HDR = struct.Struct(">BBB")

#: frame-type registry for the binary header tag.  Append-only: tags are
#: wire constants, so a type must never be removed or renumbered.
_FRAME_TYPES: Tuple[str, ...] = (
    "",  # tag 0: unknown type, spelled out in the body
    "repl",
    "repl.ack",
    "fetch",
    "fetch.ok",
    "fetch.err",
    "link.hello",
    "link.ok",
    "hello",
    "hello.ok",
    "put",
    "put.ok",
    "get",
    "get.ok",
    "ping",
    "ping.ok",
    "kill",
    "kill.ok",
    "err",
    "repl.delta",
    "repl.ackp",
    "sys.stats",
    "sys.stats.ok",
    "repl.t",
    "repl.delta.t",
    # durability subsystem (WAL records are binary-codec frames too, so
    # they live in the same append-only registry; ``wal.*`` kinds never
    # cross a connection — they are file-format constants)
    "wal.put",
    "wal.repl",
    "wal.hello",
    "wal.read",
    "wal.rfetch",
    "snap",
    # retired (periodic anti-entropy): nothing produces or accepts them
    "sys.digest",
    "sys.range",
    "sys.ctrl.ok",
    # second layouts of two kinds (see ``_LINK_TAGS``): what a link
    # sends, under tags of its own — the first layouts are on disk
    "repl",
    "repl.t",
)
#: a kind's tag is its first entry: map-shaped bodies and its first
#: (self-contained) layout travel under it
_FRAME_TAGS: Dict[str, int] = {
    t: i for i, t in reversed(list(enumerate(_FRAME_TYPES))) if i
}

#: header tag bit marking a schema-packed (positional) body
_SCHEMA_BIT = 0x80

#: positional field layouts for the hot frame types.  A frame whose key
#: set is exactly ``{"v", "t"} | schema`` packs its field values in this
#: order with no key strings or map header — the "struct-packed frame
#: header" fast path.  Like the type registry these are wire constants:
#: a layout must never be reordered; adding a field to a frame type
#: means dropping its schema entry (the generic map layout takes over,
#: which every decoder also accepts).
_FRAME_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    # self-contained (absolute, both sites spelled out) and on disk:
    # snapshots nest the dict, an old WAL holds raw records of both
    "repl": ("var", "value", "w", "src", "dst", "meta", "ls"),
    # issue-time-stamped repl variants: the same layout with the
    # origin's issue timestamp appended — spelled as new types rather
    # than new fields, so the unstamped layouts stay byte-frozen
    "repl.t": ("var", "value", "w", "src", "dst", "meta", "ls", "it"),
    # what a link sends: ``src`` / ``dst`` are the link's, ``ls`` /
    # ``it`` the advance over the link's previous repl frame
    "repl.delta": ("var", "value", "w", "meta", "ls"),
    "repl.delta.t": ("var", "value", "w", "meta", "ls", "it"),
    # retired (the ack without the applied gap): a layout, like a tag,
    # is never removed — but nothing produces or accepts the kind
    "repl.ack": ("a",),
    # ``ap`` is the gap ``a - applied`` (usually 0, one byte)
    "repl.ackp": ("a", "ap"),
    "put": ("var", "value"),
    "put.ok": ("w",),
    "get": ("var",),
    "get.ok": ("value", "w", "by"),
    # requester and server are the link's two ends
    "fetch": ("var", "fid", "deps"),
    "fetch.ok": ("var", "value", "w", "fid", "meta", "applied"),
    # WAL record layouts (file-format constants, same append-only rules).
    # ``snap`` stays map-shaped: snapshots are rare and their field set
    # is expected to grow.
    "wal.put": ("var", "value", "w"),
    "wal.repl": ("var", "value", "w", "src", "dst", "meta", "ls"),
    "wal.hello": ("src", "epoch"),
    "wal.read": ("var",),
    "wal.rfetch": ("var", "value", "w", "sv", "meta", "applied"),
    # retired (periodic anti-entropy), like ``repl.ack``: ``d`` was the
    # flat ``[origin, watermark, ...]`` digest
    "sys.digest": ("src", "d"),
    "sys.range": ("origin", "rq", "lo", "hi"),
    "sys.ctrl.ok": ("n",),
}

#: the second layouts: on a link a full frame of the chain is field for
#: field its ``repl.delta`` twin (the first layouts are file formats)
_LINK_TAGS: Dict[str, int] = {
    kind: _FRAME_TYPES.index(kind, _FRAME_TAGS[kind] + 1) for kind in ("repl", "repl.t")
}
#: header tag -> layout; (kind, field count) -> header tag — a kind's
#: layouts differ in length, so the count picks one when encoding
_TAG_SCHEMAS: Dict[int, Tuple[str, ...]] = {
    **{_FRAME_TAGS[kind]: schema for kind, schema in _FRAME_SCHEMAS.items()},
    **{tag: _FRAME_SCHEMAS[kind.replace("repl", "repl.delta")]
       for kind, tag in _LINK_TAGS.items()},
}
_LAYOUTS: Dict[Tuple[str, int], int] = {
    (_FRAME_TYPES[tag], len(schema)): tag for tag, schema in _TAG_SCHEMAS.items()
}

#: positional layouts for the tagged metadata maps of
#: :func:`encode_meta` — a dict whose ``"k"`` names a registered kind
#: and whose key set matches packs as ``_T_SCHEMA`` + id + values, again
#: dropping every key string.  Append-only, same rules as above.
_MAP_SCHEMAS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ot", ("c", "rm", "log")),
    ("crp", ("c", "log")),
    ("dl", ("e",)),
    ("mc", ("m",)),
    ("vc", ("v",)),
    ("arr", ("v",)),
    ("ivec", ("v",)),
    ("pairs", ("v",)),
    # delta metadata kinds (diffs against a per-connection baseline,
    # see _delta_fields).  otd is index-coded: "c" is the clock
    # advance over the baseline, "x"/"u" address baseline records by
    # their sorted position, "n" carries new records as full triples
    ("otd", ("c", "rm", "x", "u", "n")),
    ("crpd", ("c", "x", "ch")),
    ("mcd", ("n", "ch")),
    # compact full encodings (see encode_meta / encode_fetch_reply)
    ("ot4", ("c", "rm", "log", "e")),
    ("ivr", ("v",)),
    ("dl4", ("c", "log", "e")),
)
_MAP_SCHEMA_IDS: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    kind: (i, keys) for i, (kind, keys) in enumerate(_MAP_SCHEMAS)
}


# ----------------------------------------------------------------------
# compact value packing (msgpack-style; used by BinaryCodec)
# ----------------------------------------------------------------------
# One-byte type tags.  Small non-negative ints ride *in* the tag byte
# (0x80 | n, msgpack's fixint idea); lists of plain ints take a flat
# encoding with a per-list element width packed by a single ``struct``
# call — dependency-log entries, clock rows, and apply-snapshot vectors
# all hit that path, which is where the compact codec beats per-element
# dispatch on both bytes and time.
_T_NONE, _T_FALSE, _T_TRUE = 0x00, 0x01, 0x02
_T_INT8, _T_INT32, _T_INT64, _T_BIGINT = 0x10, 0x11, 0x12, 0x13
#: two-byte int: emitted only by the compact encoder instance (the
#: plain one writes WAL records, a frozen file format), decoded by both
_T_INT16 = 0x14
_T_FLOAT = 0x20
_T_STR, _T_BYTES, _T_LIST, _T_MAP = 0x30, 0x38, 0x40, 0x50
#: flat int vector; the byte after the count is the element width (1/2/4/8)
_T_INTLIST = 0x48
#: schema-packed map: a _MAP_SCHEMAS id byte, then the values in layout
#: order — no key strings on the wire
_T_SCHEMA = 0x60
#: 0x70..0x7F: varint int vector.  The low nibble is the element count
#: (15: a ``_pack_len`` count follows), each element zigzag LEB128 — one
#: byte for -64..63, two up to +-8191.  Emitted only by the compact
#: encoder, for every list of int64s; decoded by both
_T_VARINTS = 0x70
#: 0x80..0xFF: the value n - 0x80 itself (0..127), no payload
_T_FIXINT = 0x80

_BH = struct.Struct(">Bh")
_BI = struct.Struct(">Bi")
_BQ = struct.Struct(">Bq")
_BD = struct.Struct(">Bd")
_I16 = struct.Struct(">h")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

#: element widths for _T_INTLIST: (byte width, struct letter, signed bound)
_INTLIST_WIDTHS = (
    (1, "b", 1 << 7),
    (2, "h", 1 << 15),
    (4, "i", 1 << 31),
    (8, "q", 1 << 63),
)



def _varint(value: int) -> bytes:
    """Zigzag LEB128 of one int64 (remembered when one or two bytes)."""
    u = (value << 1) ^ (value >> 63)
    if u >> 64:
        raise OverflowError(f"{value} is outside int64")
    out = bytearray()
    while u > 0x7F:
        out.append(u & 0x7F | 0x80)
        u >>= 7
    out.append(u)
    if len(out) < 3:
        _VARINTS[value] = bytes(out)
    return bytes(out)


#: the one- and two-byte varints seen so far (at most 16 384; in practice
#: every element): a warm run encodes as one C-level ``map`` + ``join``
_VARINTS: Dict[int, bytes] = {}
_UNZIGZAG = tuple((u >> 1) ^ -(u & 1) for u in range(128))  # one-byte varint -> int

#: short strings recur constantly on the wire (frame field names,
#: variable names, metadata kind tags) — cache their packed form.  The
#: cache is bounded and only admits short strings, so a hostile stream
#: of unique keys cannot grow it without bound.
_STR_CACHE: Dict[str, bytes] = {}
_STR_CACHE_MAX = 4096


def _pack_len(out: bytearray, tag: int, n: int) -> None:
    """Tagged length prefix: ``tag`` + u8, or ``tag`` + 0xFF + u32."""
    if n < 0xFF:
        out.append(tag)
        out.append(n)
    else:
        out.append(tag)
        out.append(0xFF)
        out += n.to_bytes(4, "big")


def _unpack_len(body: bytes, pos: int) -> Tuple[int, int]:
    n = body[pos]
    pos += 1
    if n == 0xFF:
        n = int.from_bytes(body[pos : pos + 4], "big")
        pos += 4
    return n, pos


def _pack_str(out: bytearray, value: str) -> None:
    cached = _STR_CACHE.get(value)
    if cached is not None:
        out += cached
        return
    raw = value.encode("utf-8")
    n = len(raw)
    if n < 0xFF:
        packed = bytes((_T_STR, n)) + raw
        if n <= 40 and len(_STR_CACHE) < _STR_CACHE_MAX:
            _STR_CACHE[value] = packed
        out += packed
    else:
        _pack_len(out, _T_STR, n)
        out += raw


def _pack_into(out: bytearray, value: Any, compact: bool = False) -> None:
    kind = type(value)
    if kind is str:
        _pack_str(out, value)
    elif kind is int:
        if 0 <= value <= 127:
            out.append(_T_FIXINT | value)
        elif -128 <= value < 0:
            out.append(_T_INT8)
            out.append(value & 0xFF)
        elif compact and -(2**15) <= value < 2**15:
            out += _BH.pack(_T_INT16, value)
        elif -(2**31) <= value < 2**31:
            out += _BI.pack(_T_INT32, value)
        elif _I64_MIN <= value <= _I64_MAX:
            out += _BQ.pack(_T_INT64, value)
        else:
            raw = value.to_bytes(
                (value.bit_length() + 8) // 8, "big", signed=True
            )
            _pack_len(out, _T_BIGINT, len(raw))
            out += raw
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif kind is dict:
        k = value.get("k")
        if type(k) is str:
            ms = _MAP_SCHEMA_IDS.get(k)
            if ms is not None and len(value) == len(ms[1]) + 1:
                try:
                    vals = [value[key] for key in ms[1]]
                except KeyError:
                    vals = None
                if vals is not None:
                    out.append(_T_SCHEMA)
                    out.append(ms[0])
                    for v in vals:
                        _pack_into(out, v, compact)
                    return
        _pack_len(out, _T_MAP, len(value))
        for k, v in value.items():
            if type(k) is str:
                _pack_str(out, k)
            else:
                _pack_into(out, k, compact)
            _pack_into(out, v, compact)
    elif kind is list or kind is tuple:
        n = len(value)
        if compact or n >= 4:
            # flat int vectors: varints from the compact encoder; from
            # the plain one, four or more pack in ONE struct call at the
            # narrowest width, shorter lists per element below
            lo = hi = 0
            for x in value:
                if type(x) is not int:
                    break
                if x < lo:
                    lo = x
                elif x > hi:
                    hi = x
            else:
                if compact:
                    if _pack_varints(out, value):
                        return
                elif lo >= _I64_MIN and hi <= _I64_MAX:
                    for width, letter, bound in _INTLIST_WIDTHS:
                        if -bound <= lo and hi < bound:
                            _pack_len(out, _T_INTLIST, n)
                            out.append(width)
                            out += struct.pack(f">{n}{letter}", *value)
                            return
        _pack_len(out, _T_LIST, n)
        for item in value:
            if type(item) is int and 0 <= item <= 127:
                out.append(_T_FIXINT | item)
            else:
                _pack_into(out, item, compact)
    elif kind is float:
        out += _BD.pack(_T_FLOAT, value)
    elif kind is bytes:
        _pack_len(out, _T_BYTES, len(value))
        out += value
    elif isinstance(value, bool):
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, (int, np.integer)):
        # numpy scalars and int subclasses degrade to plain ints,
        # mirroring what json.dumps does for them
        _pack_into(out, int(value), compact)
    elif isinstance(value, float):
        out += _BD.pack(_T_FLOAT, float(value))
    elif isinstance(value, (str, list, tuple, dict)):
        raise WireError(
            f"binary codec cannot encode {type(value).__name__} subclasses"
        )
    else:
        raise WireError(
            f"binary codec cannot encode {type(value).__name__} values"
        )


#: struct decoders per _T_INTLIST width code
_INTLIST_DECODE = {1: "b", 2: "h", 4: "i", 8: "q"}


def _unpack_from(body: bytes, pos: int) -> Tuple[Any, int]:
    tag = body[pos]
    pos += 1
    if tag >= _T_FIXINT:
        return tag - _T_FIXINT, pos
    if tag >= _T_VARINTS:
        return _read_varints(body, pos - 1)
    if tag == _T_STR:
        n, pos = _unpack_len(body, pos)
        return body[pos : pos + n].decode("utf-8"), pos + n
    if tag == _T_INT8:
        b = body[pos]
        return b - 256 if b >= 128 else b, pos + 1
    if tag == _T_INT16:
        return _I16.unpack_from(body, pos)[0], pos + 2
    if tag == _T_INT32:
        return _I32.unpack_from(body, pos)[0], pos + 4
    if tag == _T_INT64:
        return _I64.unpack_from(body, pos)[0], pos + 8
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INTLIST:
        n, pos = _unpack_len(body, pos)
        width = body[pos]
        pos += 1
        letter = _INTLIST_DECODE.get(width)
        if letter is None:
            raise WireError(f"unknown int-vector width {width}")
        return list(struct.unpack_from(f">{n}{letter}", body, pos)), pos + n * width
    if tag == _T_LIST:
        n, pos = _unpack_len(body, pos)
        items = []
        append = items.append
        for _ in range(n):
            t2 = body[pos]
            if t2 >= _T_FIXINT:
                append(t2 - _T_FIXINT)
                pos += 1
            else:
                item, pos = _unpack_from(body, pos)
                append(item)
        return items, pos
    if tag == _T_SCHEMA:
        sid = body[pos]
        pos += 1
        if sid >= len(_MAP_SCHEMAS):
            raise WireError(f"unknown map schema id {sid}")
        kind_name, keys = _MAP_SCHEMAS[sid]
        mapping = {"k": kind_name}
        for key in keys:
            t2 = body[pos]
            if t2 >= _T_FIXINT:
                mapping[key] = t2 - _T_FIXINT
                pos += 1
            else:
                mapping[key], pos = _unpack_from(body, pos)
        return mapping, pos
    if tag == _T_MAP:
        n, pos = _unpack_len(body, pos)
        mapping = {}
        for _ in range(n):
            key, pos = _unpack_from(body, pos)
            val, pos = _unpack_from(body, pos)
            mapping[key] = val
        return mapping, pos
    if tag == _T_FLOAT:
        return _F64.unpack_from(body, pos)[0], pos + 8
    if tag == _T_BYTES:
        n, pos = _unpack_len(body, pos)
        return bytes(body[pos : pos + n]), pos + n
    if tag == _T_BIGINT:
        n, pos = _unpack_len(body, pos)
        return int.from_bytes(body[pos : pos + n], "big", signed=True), pos + n
    raise WireError(f"unknown binary value tag 0x{tag:02x}")


# ----------------------------------------------------------------------
# int-only packing (the one-pass encoders and decoders)
# ----------------------------------------------------------------------
# The hot frames are almost entirely ints and flat int runs.  These
# helpers write and read exactly the bytes ``_pack_into`` /
# ``_unpack_from`` produce for an ``int`` and for a ``list`` of ints,
# without entering the generic type chain: anything outside the common
# shapes (numpy scalars, ints past 32 bits, runs past int64) is handed
# back to the generic functions, so the two can never disagree.

def _pack_int(out: bytearray, value: Any, compact: bool) -> None:
    if type(value) is not int:
        _pack_into(out, value, compact)
    elif 0 <= value <= 127:
        out.append(_T_FIXINT | value)
    elif -128 <= value < 0:
        out.append(_T_INT8)
        out.append(value & 0xFF)
    elif compact and -(2**15) <= value < 2**15:
        out += _BH.pack(_T_INT16, value)
    elif -(2**31) <= value < 2**31:
        out += _BI.pack(_T_INT32, value)
    else:
        _pack_into(out, value, compact)


def _pack_varints(out: bytearray, values: Any) -> bool:
    """``values`` (ints) as a varint vector; ``False``, with nothing
    written, when one is outside int64."""
    try:
        run = b"".join(map(_VARINTS.__getitem__, values))
    except KeyError:
        try:
            run = b"".join([_VARINTS.get(x) or _varint(x) for x in values])
        except OverflowError:
            return False
    n = len(values)
    if n < 15:
        out.append(_T_VARINTS | n)
    else:
        _pack_len(out, _T_VARINTS | 15, n)
    out += run
    return True


def _read_varints(body: bytes, pos: int) -> Tuple[Any, int]:
    """Inverse of :func:`_pack_varints`, ``pos`` at the tag."""
    n = body[pos] & 15
    pos += 1
    if n == 15:
        n, pos = _unpack_len(body, pos)
    values: List[int] = []
    append = values.append
    for _ in range(n):
        u = body[pos]
        if u < 0x80:
            append(_UNZIGZAG[u])
            pos += 1
            continue
        byte = body[pos + 1]
        u = u & 0x7F | (byte & 0x7F) << 7
        pos += 2
        shift = 14
        while byte > 0x7F:
            if shift > 63:
                raise WireError("over-long varint in an int vector")
            byte = body[pos]
            pos += 1
            u |= (byte & 0x7F) << shift
            shift += 7
        if u >> 64:
            raise WireError("varint outside int64 in an int vector")
        append((u >> 1) ^ -(u & 1))
    return values, pos


def _pack_ints(out: bytearray, values: List[int], compact: bool) -> None:
    if compact and _pack_varints(out, values):
        return
    n = len(values)
    if not compact and 4 <= n < 0xFF:
        # the plain encoder's (a WAL record's) fixed-width run
        lo, hi = min(values), max(values)
        for width, letter, bound in _INTLIST_WIDTHS:
            if -bound <= lo and hi < bound:
                out += bytes((_T_INTLIST, n, width))
                out += struct.pack(f">{n}{letter}", *values)
                return
    _pack_into(out, values, compact)


def _pack_fields(
    out: bytearray, fields: Optional[Tuple[int, Tuple[Any, ...]]], compact: bool
) -> None:
    """One ``_MAP_SCHEMAS`` row (see ``_meta_fields``) as the generic
    codec packs its tagged dict: schema tag, id byte, values in order."""
    if fields is None:
        out.append(_T_NONE)
        return
    out.append(_T_SCHEMA)
    out.append(fields[0])
    for value in fields[1]:
        kind = type(value)
        if kind is list:
            _pack_ints(out, value, compact)
        elif kind is int and 0 <= value <= 127:
            out.append(_T_FIXINT | value)
        else:
            _pack_int(out, value, compact)


def _read_int(body: bytes, pos: int) -> Tuple[int, int]:
    tag = body[pos]
    if tag >= _T_FIXINT:
        return tag - _T_FIXINT, pos + 1
    if tag == _T_INT16:
        return _I16.unpack_from(body, pos + 1)[0], pos + 3
    if tag == _T_INT32:
        return _I32.unpack_from(body, pos + 1)[0], pos + 5
    value, pos = _unpack_from(body, pos)
    if type(value) is not int:
        raise WireError(f"expected an int, got {type(value).__name__}")
    return value, pos


def _read_ints(body: bytes, pos: int) -> Tuple[Any, int]:
    # the plain encoder's spellings: legal, never sent on a connection
    values, pos = _unpack_from(body, pos)
    if type(values) is not list:
        raise WireError(f"expected an int vector, got {type(values).__name__}")
    for item in values:
        if type(item) is not int:
            raise WireError(f"expected an int vector, found {type(item).__name__}")
    return values, pos


def _read_fields(body: bytes, pos: int) -> Tuple[Optional[int], Any, int]:
    """Inverse of :func:`_pack_fields`: ``(schema id, values, pos)``
    (id ``None`` for an absent metadata object).  A metadata map that
    is not schema-packed — legal, never emitted — goes through the
    generic decoder and :func:`_untagged`."""
    tag = body[pos]
    if tag == _T_SCHEMA:
        sid = body[pos + 1]
        if sid >= len(_MAP_SCHEMAS):
            raise WireError(f"unknown map schema id {sid}")
        pos += 2
        values = []
        for _ in _MAP_SCHEMAS[sid][1]:
            tag = body[pos]
            if tag >= _T_FIXINT:
                values.append(tag - _T_FIXINT)
                pos += 1
            elif tag >= _T_VARINTS:
                value, pos = _read_varints(body, pos)
                values.append(value)
            elif tag == _T_INTLIST or tag == _T_LIST:
                value, pos = _read_ints(body, pos)
                values.append(value)
            else:
                value, pos = _read_int(body, pos)
                values.append(value)
        return sid, values, pos
    if tag == _T_NONE:
        return None, None, pos + 1
    data, pos = _unpack_from(body, pos)
    sid, values = _untagged(data, "metadata")
    return sid, values, pos


# ----------------------------------------------------------------------
# framing (codec-agnostic module API)
# ----------------------------------------------------------------------
def encode_frame(frame: Dict[str, Any], codec: Any = JSON_CODEC) -> bytes:
    """Serialize one frame dict to its length-prefixed wire bytes."""
    return codec.encode(frame)


def _lean(first: int) -> bool:
    """A lean body's first byte: a tag, never ``{`` nor the magic."""
    return first & (_SCHEMA_BIT - 1) < len(_FRAME_TYPES)


def decode_body(body: bytes) -> Dict[str, Any]:
    """Decode one frame body (the bytes after the length prefix).

    Sniffs the codec from the first byte: :data:`BINARY_MAGIC` or a
    frame tag (a lean body) marks the binary codec, anything else is
    JSON — which is how the handshake frame, and a hand-typed debug
    frame after it, are read.
    """
    if not body:
        raise WireError("empty frame body")
    if body[0] == BINARY_MAGIC or _lean(body[0]):
        return BINARY_CODEC.decode_body(body)
    return JSON_CODEC.decode_body(body)


def decode_annotated(body: bytes) -> Dict[str, Any]:
    """:func:`decode_body`, annotating self-contained repl frames (the
    layout that spells ``src``; never what a link itself sends) with
    their raw wire bytes under the local ``_raw`` key: a durable
    receiver logs those verbatim (``SiteWal.append_raw``) instead of
    re-encoding the decoded update — never a lean body, as a WAL record
    must decode with no connection state.  ``_raw`` is a receive-side
    annotation, not a wire field — the ingest path pops it.
    """
    frame = decode_body(body)
    kind = frame["t"]
    if (kind == "repl" or kind == "repl.t") and "src" in frame and not _lean(body[0]):
        frame["_raw"] = body
    return frame


def frame_length(prefix: bytes) -> int:
    """Parse and validate the 4-byte length prefix."""
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


#: the one-byte delimiters: a body under 128 bytes
_DELIMITERS = tuple(bytes((n,)) for n in range(0x80))


def delimiter(length: int) -> bytes:
    """The LEB128 body length that delimits a frame after the handshake."""
    if length < 0x80:
        return _DELIMITERS[length]
    out = bytearray()
    while length > 0x7F:
        out.append(length & 0x7F | 0x80)
        length >>= 7
    return bytes(out) + _DELIMITERS[length]


def read_delimiter(buf: Any, pos: int) -> Tuple[int, int]:
    """The delimiter at ``buf[pos]``: ``(body length, body start)``, or
    ``(-1, pos)`` while the buffer stops inside it.  A zero length, one
    over :data:`MAX_FRAME_BYTES` or a fifth byte is a :class:`WireError`."""
    length = shift = 0
    for i in range(pos, min(pos + 4, len(buf))):
        length |= (buf[i] & 0x7F) << shift
        if buf[i] < 0x80:
            if 0 < length <= MAX_FRAME_BYTES:
                return length, i + 1
            raise WireError(f"frame length {length} outside 1..{MAX_FRAME_BYTES}")
        shift += 7
    if len(buf) - pos >= 4:
        raise WireError("frame length runs past four bytes")
    return -1, pos


def make_frame(frame_type: str, **fields: Any) -> Dict[str, Any]:
    """A frame dict of ``frame_type`` with the frame schema version
    (:data:`JSON_WIRE_VERSION`)."""
    frame: Dict[str, Any] = {"v": JSON_WIRE_VERSION, "t": frame_type}
    frame.update(fields)
    return frame


def err_frame(code: str, message: str) -> Dict[str, Any]:
    return make_frame("err", code=code, msg=message)


# ----------------------------------------------------------------------
# small-value codecs
# ----------------------------------------------------------------------
def encode_write_id(wid: Optional[WriteId]) -> Optional[list]:
    return None if wid is None else [wid.site, wid.seq]


def decode_write_id(value: Any) -> Optional[WriteId]:
    return None if value is None else WriteId(int(value[0]), int(value[1]))


# ----------------------------------------------------------------------
# protocol metadata codec (tagged by "k")
# ----------------------------------------------------------------------
# Every metadata kind is a row of ``_MAP_SCHEMAS``: a kind name and a
# fixed tuple of fields, each a plain int or a flat list of ints.  The
# functions below compute those field values from a protocol object
# (``_meta_fields``) and rebuild the object from them (``_build_meta``);
# what differs between the two wire paths is only how a row travels —
# as a ``{"k": kind, field: value, ...}`` dict the generic codecs walk
# (``encode_meta`` / ``decode_meta``), or written straight into the
# frame's bytes by the one-pass encoders further down.

#: ``_MAP_SCHEMAS`` row numbers (the schema id byte on the binary wire)
(
    _S_OT, _S_CRP, _S_DL, _S_MC, _S_VC, _S_ARR, _S_IVEC, _S_PAIRS,
    _S_OTD, _S_CRPD, _S_MCD, _S_OT4, _S_IVR, _S_DL4,
) = range(len(_MAP_SCHEMAS))
assert tuple(kind for kind, _ in _MAP_SCHEMAS) == (
    "ot", "crp", "dl", "mc", "vc", "arr", "ivec", "pairs",
    "otd", "crpd", "mcd", "ot4", "ivr", "dl4",
), "the _S_* ids above name _MAP_SCHEMAS rows by position"


def _split_log(log: DepLog, base: int, order: Any = None) -> Tuple[List[int], List[int]]:
    """The lean spelling of a dependency log: ``(triples, empties)``
    with clocks relative to ``base``.  PURGE-retention records (newest
    per sender, empty destination set — typically the majority of a
    mature log) go to ``empties`` as two-int pairs with the redundant
    destination element dropped; everything else is a full triple."""
    entries = log.entries
    latest = log.latest_by_sender
    triples: List[int] = []
    empties: List[int] = []
    # .get: a clock-0 record never registers in latest_by_sender, so it
    # must take the general triple shape
    for key in sorted(entries) if order is None else order:
        s, c = key
        d = entries[key]
        if d == 0 and c == latest.get(s):
            empties.append(s)
            empties.append(c - base)
        else:
            triples.append(s)
            triples.append(c - base)
            triples.append(d)
    return triples, empties


def _meta_fields(
    meta: Any, compact: bool = False, order: Any = None
) -> Tuple[int, Tuple[Any, ...]]:
    """``(schema id, field values)`` of one piggybacked metadata object,
    values in ``_MAP_SCHEMAS`` layout order.  ``order`` is the sorted
    keys of the object's dependency log when the caller already holds
    them (a delta chain does)."""
    if isinstance(meta, OptTrackMeta):
        if compact:
            triples, empties = _split_log(meta.log, meta.clock, order)
            return _S_OT4, (meta.clock, meta.replicas_mask, triples, empties)
        return _S_OT, (
            meta.clock, meta.replicas_mask, _encode_deplog(meta.log, order)
        )
    if isinstance(meta, CrpMeta):
        log: List[int] = []
        for s, c in sorted(meta.log.items()):
            log.append(int(s))
            log.append(int(c))
        return _S_CRP, (meta.clock, log)
    if isinstance(meta, DepLog):
        if compact:
            base = max(meta.latest_by_sender.values(), default=0)
            triples, empties = _split_log(meta, base)
            return _S_DL4, (base, triples, empties)
        return _S_DL, (_encode_deplog(meta),)
    if isinstance(meta, MatrixClock):
        # flat row-major (the matrix is square): one contiguous int list
        # packs as a single binary intlist instead of n nested rows
        return _S_MC, (meta.m.ravel().tolist(),)
    if isinstance(meta, VectorClock):
        return _S_VC, (list(meta.v),)
    if isinstance(meta, np.ndarray):
        return _S_ARR, ([int(x) for x in meta],)
    if isinstance(meta, tuple):
        if all(isinstance(x, (int, np.integer)) for x in meta):
            # flat clock vectors, e.g. opt-track's apply-progress snapshot
            return _S_IVEC, ([int(x) for x in meta],)
        # opt-track dependency summaries: tuples of (sender, clock) pairs,
        # flattened for the same single-intlist reason as the dep log
        flat: List[int] = []
        for z, c in meta:
            flat.append(int(z))
            flat.append(int(c))
        return _S_PAIRS, (flat,)
    raise WireError(f"unserializable protocol metadata {type(meta).__name__}")


def _ivr_fields(applied: Any) -> Tuple[int, Tuple[Any, ...]]:
    """An apply snapshot as the relative clock vector ``ivr``:
    ``[ceiling, ceiling - x, ...]`` — the entries cluster near the
    maximum on a live cluster, so the offsets pack one byte each where
    the absolutes need two or four."""
    base = max(applied, default=0)
    vec = [base]
    vec += [base - int(a) for a in applied]
    return _S_IVR, (vec,)


def _tagged(sid: int, values: Tuple[Any, ...]) -> Dict[str, Any]:
    """A schema row as the tagged dict the generic codecs carry."""
    kind, keys = _MAP_SCHEMAS[sid]
    data: Dict[str, Any] = {"k": kind}
    data.update(zip(keys, values))
    return data


def _untagged(data: Any, what: str) -> Tuple[int, List[Any]]:
    """Inverse of :func:`_tagged` for a decoded (untrusted) dict: the
    schema id and its field values, every int and int list coerced the
    way the protocols' own types demand."""
    if not isinstance(data, dict) or "k" not in data:
        raise WireError(f"malformed {what} payload {data!r}")
    kind = data["k"]
    row = _MAP_SCHEMA_IDS.get(kind) if isinstance(kind, str) else None
    if row is None:
        raise WireError(f"unknown {what} kind {kind!r}")
    values: List[Any] = []
    for key in row[1]:
        value = data[key]
        if type(value) is list or type(value) is tuple:
            values.append(list(map(int, value)))
        else:
            values.append(int(value))
    return row[0], values


def encode_meta(meta: Any, compact: bool = False) -> Any:
    """Encode one piggybacked metadata object to its JSON shape.

    ``compact`` (what connections send; WAL records and snapshots
    stay plain) selects the metadata-lean encodings: ``ot4`` for
    Opt-Track metas — record clocks relative to the meta clock (small
    ints instead of full-width absolutes) and the PURGE-retention
    records packed as two-int pairs (see :func:`_split_log`).  Both
    shapes decode to the exact objects the plain kinds carry.
    """
    if meta is None:
        return None
    return _tagged(*_meta_fields(meta, compact))


def _build_meta(sid: int, values: Any) -> Any:
    """The protocol object a full (non-delta) schema row spells; the
    values are already plain ints and int sequences."""
    if sid == _S_OT4:
        clock, rm, triples, empties = values
        return OptTrackMeta(clock, rm, DepLog.from_flat(triples, empties, clock))
    if sid == _S_OT:
        clock, rm, log = values
        return OptTrackMeta(clock, rm, DepLog.from_flat(log))
    if sid == _S_CRP:
        clock, log = values
        return CrpMeta(
            clock, {log[i]: log[i + 1] for i in range(0, len(log), 2)}
        )
    if sid == _S_DL4:
        base, triples, empties = values
        return DepLog.from_flat(triples, empties, base)
    if sid == _S_DL:
        (log,) = values
        return DepLog.from_flat(log)
    if sid == _S_IVR:
        # [ceiling, ceiling - x, ...], see _ivr_fields
        (v,) = values
        base = v[0]
        return tuple(base - x for x in v[1:])
    if sid == _S_IVEC:
        (v,) = values
        return tuple(v)
    if sid == _S_PAIRS:
        (v,) = values
        return tuple((v[i], v[i + 1]) for i in range(0, len(v), 2))
    if sid == _S_MC:
        (m,) = values
        flat = np.array(m, dtype=np.int64)
        n = int(np.sqrt(flat.size))
        return MatrixClock(n, flat.reshape(n, n))
    if sid == _S_VC:
        (v,) = values
        return VectorClock(len(v), v)
    if sid == _S_ARR:
        (v,) = values
        return np.array(v, dtype=np.int64)
    raise WireError(
        f"metadata kind {_MAP_SCHEMAS[sid][0]!r} is a delta: it needs a "
        f"chain baseline"
    )


def decode_meta(data: Any) -> Any:
    """Decode the output of :func:`encode_meta` back to protocol objects."""
    if data is None:
        return None
    return _build_meta(*_untagged(data, "metadata"))


def _encode_deplog(log: DepLog, order: Any = None) -> List[int]:
    """Flat ``[sender, clock, dests, ...]`` triples: a single contiguous
    int list packs as one binary intlist (and is shorter as JSON too)."""
    entries = log.entries
    flat: List[int] = []
    for key in sorted(entries) if order is None else order:
        flat.append(key[0])
        flat.append(key[1])
        flat.append(entries[key])
    return flat


# ----------------------------------------------------------------------
# id interning
# ----------------------------------------------------------------------
#: hard cap on one handshake's intern table; keeps the JSON handshake
#: frame small even against a placement map with millions of variables —
#: names beyond the cap simply stay uninterned strings
INTERN_TABLE_MAX = 256


def intern_table_names(variables: Any) -> List[str]:
    """The intern table a handshake receiver advertises: its variable
    names, sorted for determinism, capped at :data:`INTERN_TABLE_MAX`."""
    return sorted(str(v) for v in variables)[:INTERN_TABLE_MAX]


class InternTable:
    """One side's per-connection id interning table.

    The table is built once from the handshake receiver's ``itab`` list
    (position = id) and is immutable afterwards: both directions of a
    connection resolve against the same list, so there is no
    synchronization and no race.  ``encode_var`` maps a known name to its
    small int (unknown names pass through as strings); ``decode_var``
    inverts it.  Since :data:`repro.types.VarId` is ``str``, an int in a
    ``var`` field always means an interned id.
    """

    __slots__ = ("names", "_ids")

    def __init__(self, names: Any) -> None:
        self.names: Tuple[str, ...] = tuple(str(n) for n in names)
        self._ids: Dict[str, int] = {n: i for i, n in enumerate(self.names)}

    def encode_var(self, var: Any) -> Any:
        if type(var) is str:
            interned = self._ids.get(var)
            if interned is not None:
                return interned
        return var

    def decode_var(self, var: Any) -> Any:
        if type(var) is int:
            try:
                return self.names[var]
            except IndexError:
                raise WireError(
                    f"interned var id {var} outside the negotiated table "
                    f"of {len(self.names)} names"
                ) from None
        return var


def resolve_var(var: Any, itab: Optional[InternTable]) -> Any:
    """Resolve a possibly-interned ``var`` field against the receiver's
    own advertised table (int ids without a table are a protocol error —
    the peer sent interned ids we never offered)."""
    if type(var) is int:
        if itab is None:
            raise WireError("interned var id on a connection without a table")
        return itab.decode_var(var)
    return var


# ----------------------------------------------------------------------
# message codecs
# ----------------------------------------------------------------------
def _derivable_write_id(msg: UpdateMessage) -> bool:
    """True when the write id repeats information already on the frame:
    every clock-bearing metadata kind here names its write as
    ``WriteId(sender, meta.clock)`` (opt-track and CRP both stamp the
    writer's own sequence), so a lean frame can omit it."""
    wid = msg.write_id
    return wid.site == msg.sender and getattr(msg.meta, "clock", None) == wid.seq


def encode_update(msg: UpdateMessage, link_seq: int) -> Dict[str, Any]:
    """A full, self-contained REPLICATE frame for one
    :class:`UpdateMessage` — what a snapshot stores; a link sends the
    chained, lean, interned spelling (:class:`DeltaEncoder`).

    ``link_seq`` is the per-peer-link sequence number used for duplicate
    suppression across reconnect resends.
    """
    return make_frame(
        "repl",
        var=msg.var,
        value=msg.value,
        w=encode_write_id(msg.write_id),
        src=msg.sender,
        dst=msg.dest,
        meta=encode_meta(msg.meta),
        ls=link_seq,
    )


def decode_update(
    frame: Dict[str, Any], itab: Optional[InternTable] = None
) -> UpdateMessage:
    """The update of a self-contained repl frame (a snapshot's, a WAL
    record's, a :meth:`_LinkEnd.restore`-d one's): no chain."""
    return DeltaDecoder().decode_update(frame, itab)


#: every frame kind that carries one replicated update; the ``.t``
#: variants additionally carry the origin's issue stamp
REPL_FRAME_KINDS = ("repl", "repl.delta", "repl.t", "repl.delta.t")


def issue_age_ms(stamp: int, now_ms: float) -> float:
    """Milliseconds from an issue stamp to ``now_ms`` on the same clock,
    both ends at the stamp's resolution.  The stamp is the issue time
    floored to whole milliseconds; subtracting it from an unfloored
    clock reads 0-1 ms (mean 0.5 ms) long on every sample.  Flooring
    the apply side too makes each sample an integer within 1 ms of the
    truth and the *mean* exact (the two rounding errors are the same
    in distribution and cancel), at no cost in wire bytes."""
    return float(int(now_ms) - stamp)


def strip_issue(frame: Dict[str, Any]) -> Optional[int]:
    """Remove an issue stamp in place, restoring the base repl type;
    returns the stamp (origin-clock ms) or ``None`` for unstamped
    frames.  After this the frame is field-for-field its unstamped
    kind, so every downstream decode path is one path."""
    if frame["t"].endswith(".t"):
        frame["t"] = frame["t"][:-2]
        it = frame.pop("it", None)
        return None if it is None else int(it)
    return None


# ----------------------------------------------------------------------
# delta metadata codec (repl.delta chaining)
# ----------------------------------------------------------------------
def _delta_fields(
    meta: Any, base: Any, base_order: Any = None, order: Any = None
) -> Optional[Tuple[int, Tuple[Any, ...]]]:
    """``(schema id, field values)`` of ``meta`` as a diff against
    ``base``, the metadata of the previous frame sent on the same
    connection.

    Returns ``None`` when the pair does not support diffing (different
    kinds, kinds without incremental structure) or when the diff would
    not beat the full encoding — the caller then sends a full ``repl``
    frame, which also resets the receiver's chain baseline to ``meta``.
    Read-only on both metadata objects.  ``base_order`` / ``order`` are
    the sorted dependency-log keys of the two sides when the caller
    holds them (:class:`DeltaEncoder` sorts each log once and hands it
    from "current" to "baseline")."""
    if isinstance(meta, OptTrackMeta) and isinstance(base, OptTrackMeta):
        removed, updated, added = meta.log.diff(base.log, base_order, order)
        # the full (ot4) spelling packs 3 ints per record, 2 for a
        # PURGE-retention one (newest of its sender, no destinations):
        # fall back when the index-coded diff packs no fewer
        entries = meta.log.entries
        latest = meta.log.latest_by_sender
        saved = 3 * len(entries) - len(removed) - len(updated) - len(added)
        if saved <= len(latest) and (
            saved <= 0 or saved <= list(map(entries.get, latest.items())).count(0)
        ):
            return None
        # added-record clocks travel relative to the meta clock, like
        # the ot4 full encoding: recent records (the common additions)
        # become one-byte offsets
        clock = meta.clock
        for i in range(1, len(added), 3):
            added[i] -= clock
        # "c" is the clock advance over the baseline: small on a live
        # link, where the absolute clock would cost a full-width int
        return _S_OTD, (
            clock - base.clock, meta.replicas_mask, removed, updated, added
        )
    if isinstance(meta, CrpMeta) and isinstance(base, CrpMeta):
        log, base_log = meta.log, base.log
        gone = [int(s) for s in sorted(base_log) if s not in log]
        moved: List[int] = []
        for s, c in sorted(log.items()):
            if base_log.get(s) != c:
                moved.append(int(s))
                moved.append(int(c))
        if len(gone) + len(moved) >= 2 * len(log):
            return None
        return _S_CRPD, (meta.clock, gone, moved)
    if (
        isinstance(meta, MatrixClock)
        and isinstance(base, MatrixClock)
        and meta.n == base.n
    ):
        flat = meta.m.ravel()
        base_flat = base.m.ravel()
        (hot,) = np.nonzero(flat != base_flat)
        if 2 * hot.size >= flat.size:
            return None
        changed = []
        for i in hot:
            changed.append(int(i))
            changed.append(int(flat[i]))
        return _S_MCD, (meta.n, changed)
    return None


def _build_delta(sid: int, values: Any, base: Any) -> Any:
    """The metadata a delta schema row reconstructs against ``base``
    (the receiver's chain baseline); the values are already plain ints
    and int sequences."""
    kind = _MAP_SCHEMAS[sid][0]
    try:
        if sid == _S_OTD:
            if not isinstance(base, OptTrackMeta):
                raise WireError(f"otd delta against {type(base).__name__}")
            advance, rm, removed, updated, added = values
            clock = base.clock + advance
            return OptTrackMeta(
                clock,
                rm,
                base.log.apply_diff(removed, updated, added, clock),
            )
        if sid == _S_CRPD:
            if not isinstance(base, CrpMeta):
                raise WireError(f"crpd delta against {type(base).__name__}")
            clock, gone, moved = values
            log = dict(base.log)
            for s in gone:
                log.pop(s, None)
            for i in range(0, len(moved), 2):
                log[moved[i]] = moved[i + 1]
            return CrpMeta(clock, log)
        if sid == _S_MCD:
            n, changed = values
            if not isinstance(base, MatrixClock) or base.n != n:
                raise WireError(f"mcd delta against {type(base).__name__}")
            m = base.m.copy()
            flat = m.ravel()
            for i in range(0, len(changed), 2):
                flat[changed[i]] = changed[i + 1]
            return MatrixClock(n, m)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise WireError(f"malformed {kind!r} delta metadata: {exc}") from None
    raise WireError(f"unknown delta metadata kind {kind!r}")


class _LinkEnd:
    """What either end of one peer-link connection holds beside its
    metadata chain: the two sites the ``link.hello`` joined (``src``
    dialed ``dst``; no frame repeats them) and the last ``ls`` / ``it``
    / ack ``a`` that crossed it — each travels as its advance over the
    previous one (0 before the first, which is therefore absolute) and
    the receiving end adds it back.  The dialing end is a
    :class:`DeltaEncoder`, the accepting end a :class:`DeltaDecoder`;
    both live as long as the connection.  A bare instance decodes with
    ``src`` / ``dst`` ``None``."""

    __slots__ = ("src", "dst", "_last_ls", "_last_it", "_last_ack", "_base")

    def __init__(self, src: Optional[int] = None, dst: Optional[int] = None) -> None:
        self.src = src
        self.dst = dst
        self._last_ls = self._last_it = self._last_ack = 0
        #: the metadata chain's baseline (``None``: the next is full)
        self._base: Any = None

    def restore(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """The dict-path twin of ``decode_message(link=self)``: give a
        received link frame back, in place, what the link left out
        (absolute scalars, the implied sites).  A repl frame that
        spells ``src`` is self-contained and passes untouched."""
        kind = frame["t"]
        try:
            if kind == "repl.ackp":
                frame["a"] = self._last_ack = self._last_ack + frame["a"]
            elif kind == "fetch" or kind == "fetch.ok":
                frame["rq"], frame["sv"] = self.src, self.dst
            elif kind in REPL_FRAME_KINDS and "src" not in frame:
                frame["src"], frame["dst"] = self.src, self.dst
                frame["ls"] = self._last_ls = self._last_ls + frame["ls"]
                if "it" in frame:
                    frame["it"] = self._last_it = self._last_it + frame["it"]
        except (KeyError, TypeError) as exc:
            raise WireError(f"malformed {kind} frame: {exc!r}") from None
        return frame


class DeltaEncoder(_LinkEnd):
    """The dialing end of a link: per-connection sender state for the
    chained repl stream.

    Owns the chain baseline (the metadata of the previous repl frame
    encoded on this connection, with the sorted key order of its
    dependency log beside it — each log is ordered once, as "current",
    and reused when it becomes the baseline) and the receiver's intern
    table.  The link send path creates one per handshaken connection
    and drops it on disconnect — a fresh receiver therefore always gets
    one full, absolute frame first, mirroring the :class:`DeltaDecoder`
    its handshake created.  These two classes are the only places link
    baselines mutate; the wire-delta lint rule holds the service layer
    to that.
    """

    __slots__ = ("itab", "_order")

    def __init__(
        self, itab: Optional[InternTable] = None, src: Any = None, dst: Any = None
    ) -> None:
        super().__init__(src, dst)
        self.itab = itab
        self._order: Any = None

    def _advance(
        self, meta: Any, link_seq: int, issued_ms: Optional[float]
    ) -> Tuple[str, Any, int, Optional[int]]:
        """Move the chain to the next frame: its kind, its metadata as
        a schema row (a diff against the previous frame's when
        profitable, else the lean full encoding) and the advances of
        ``ls`` and of the issue stamp."""
        ls, self._last_ls = link_seq - self._last_ls, link_seq
        it = None
        if issued_ms is not None:
            stamp = int(issued_ms)
            it, self._last_it = stamp - self._last_it, stamp
        base, base_order = self._base, self._order
        order = sorted(meta.log.entries) if type(meta) is OptTrackMeta else None
        self._base, self._order = meta, order
        if base is not None:
            fields = _delta_fields(meta, base, base_order, order)
            if fields is not None:
                return "repl.delta", fields, ls, it
        fields = None if meta is None else _meta_fields(meta, True, order)
        return "repl", fields, ls, it

    def encode_update(
        self, msg: UpdateMessage, link_seq: int, issued_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """The next frame of the chain as a frame dict: ``repl.delta``
        against the previous frame's metadata when profitable, full
        ``repl`` otherwise (``.t`` with an issue stamp).  Either way
        the baselines advance to this frame."""
        kind, fields, ls, it = self._advance(msg.meta, link_seq, issued_ms)
        frame = make_frame(
            kind,
            var=msg.var if self.itab is None else self.itab.encode_var(msg.var),
            value=msg.value,
            w=None if _derivable_write_id(msg) else encode_write_id(msg.write_id),
            meta=None if fields is None else _tagged(*fields),
            ls=ls,
        )
        if it is not None:
            frame["t"] = kind + ".t"
            frame["it"] = it
        return frame

    def pack_update(
        self,
        msg: UpdateMessage,
        link_seq: int,
        issued_ms: Optional[float] = None,
        codec: "BinaryCodec" = BINARY_CODEC_V4,
    ) -> bytes:
        """The next frame of the chain in one pass: the bytes ``codec``
        encodes :meth:`encode_update`'s dict to, with no dict in
        between."""
        kind, fields, ls, it = self._advance(msg.meta, link_seq, issued_ms)
        return codec._pack_repl(
            _LINK_HEADS[codec.compact][kind if it is None else kind + ".t"], msg,
            None if _derivable_write_id(msg) else msg.write_id,
            self.itab, fields, ls, it,
        )


class DeltaDecoder(_LinkEnd):
    """The accepting end of a link, mirroring :class:`DeltaEncoder`.

    The metadata baseline is that of the last repl frame *processed* on
    this connection.  The server's link discipline only ever decodes
    the contiguous ``ls == seen + 1`` frame (duplicates and gaps never
    touch it, though every frame *received* advances the scalars, as
    every frame sent did), and the sender chains against the previous
    frame it sent, so the baselines agree by construction.  A
    ``repl.delta`` arriving with no or mismatched baseline raises
    :class:`WireError` — the server drops the connection and the sender
    reconnects, re-sending from the ack with a full first frame.

    Unlike the encoder it keeps no key order beside the baseline: a
    received log is the baseline of at most one diff, so it is sorted
    once already (inside ``DepLog.apply_diff``).
    """

    __slots__ = ()

    def pack_ack(
        self, ack: int, applied_gap: int, codec: Optional["BinaryCodec"]
    ) -> Any:
        """The next ``repl.ackp``, ``a`` chained: ``codec``'s bytes, or
        with none (a dict-speaking connection) the frame dict."""
        a, self._last_ack = ack - self._last_ack, ack
        if codec is None:
            return make_frame("repl.ackp", a=a, ap=applied_gap)
        return codec.pack_ack(a, applied_gap)

    def _delta_meta(self, sid: int, values: Any) -> Any:
        """The metadata a delta schema row spells against the baseline
        (which the caller advances once the whole frame has decoded)."""
        if self._base is None:
            raise WireError("repl.delta with no chain baseline")
        return _build_delta(sid, values, self._base)

    def decode_update(
        self, frame: Dict[str, Any], itab: Optional[InternTable] = None
    ) -> UpdateMessage:
        """:meth:`unpack_update` for a frame dict — :meth:`restore`-d,
        or its sites default to this link's."""
        try:
            meta = frame["meta"]
            sid, fields = (None, None) if meta is None else _untagged(meta, "metadata")
            parsed = ReplFrame(
                frame["t"].startswith("repl.delta"),
                resolve_var(frame["var"], itab), frame["value"],
                decode_write_id(frame["w"]),
                frame.get("src", self.src), frame.get("dst", self.dst),
                sid, fields, 0, None,
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise WireError(f"malformed {frame.get('t')} frame: {exc}") from None
        return self.unpack_update(parsed)

    def unpack_update(self, frame: "ReplFrame") -> UpdateMessage:
        """Finish a frame :func:`decode_message` parsed: build its
        metadata (against the baseline for a ``repl.delta``), derive an
        omitted write id, and advance the chain."""
        try:
            if frame.delta:
                meta = self._delta_meta(frame.sid, frame.fields)
            elif frame.sid is None:
                meta = None
            else:
                meta = _build_meta(frame.sid, frame.fields)
            wid = frame.wid
            if wid is None:
                clock = getattr(meta, "clock", None)
                if clock is None:
                    raise WireError("repl frame without a write id")
                wid = WriteId(frame.src, clock)
            msg = UpdateMessage(
                frame.var, frame.value, wid, frame.src, frame.dst, meta
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise WireError(f"malformed repl frame: {exc}") from None
        self._base = meta
        return msg


def encode_fetch_request(req: FetchRequest, itab: Any = None) -> Dict[str, Any]:
    """A fetch frame: requester and server are the link's two ends and
    stay off it; ``itab`` is the serving site's table (the link's)."""
    return make_frame(
        "fetch",
        var=req.var if itab is None else itab.encode_var(req.var),
        fid=req.fetch_id,
        deps=encode_meta(req.deps),
    )


def decode_fetch_request(frame: Dict[str, Any], itab: Any = None) -> FetchRequest:
    """The request of a :meth:`_LinkEnd.restore`-d fetch frame."""
    try:
        return FetchRequest(
            var=resolve_var(frame["var"], itab),
            requester=int(frame["rq"]),
            server=int(frame["sv"]),
            fetch_id=int(frame["fid"]),
            deps=decode_meta(frame["deps"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed fetch frame: {exc}") from None


def _reply_meta_fields(reply: FetchReply, lean: bool) -> Any:
    meta = reply.meta
    return None if meta is None else _meta_fields(meta, lean)


def _reply_applied_fields(reply: FetchReply, lean: bool) -> Any:
    applied = reply.applied
    if applied is None:
        return None
    return _ivr_fields(applied) if lean else _meta_fields(applied)


def encode_fetch_reply(
    reply: FetchReply,
    compact: bool = False,
    itab: Optional[InternTable] = None,
) -> Dict[str, Any]:
    """A fetch.ok frame.  ``compact`` (what connections send) selects the lean
    metadata shapes: the ``dl4``/``ot4`` log encodings and the ``ivr``
    relative apply-snapshot vector — the snapshot's entries cluster near
    its maximum on a live cluster, so the offsets pack one byte each.
    ``itab`` is the *serving* site's own intern table: the requester
    holds a copy from the ``link.ok`` handshake, so replies may intern
    the variable name against it.  Server and requester are the link's
    (:meth:`_LinkEnd.restore` gives them back)."""
    meta = _reply_meta_fields(reply, compact)
    applied = _reply_applied_fields(reply, compact)
    return make_frame(
        "fetch.ok",
        var=reply.var if itab is None else itab.encode_var(reply.var),
        value=reply.value,
        w=encode_write_id(reply.write_id),
        fid=reply.fetch_id,
        meta=None if meta is None else _tagged(*meta),
        applied=None if applied is None else _tagged(*applied),
    )


def decode_fetch_reply(
    frame: Dict[str, Any], itab: Optional[InternTable] = None
) -> FetchReply:
    try:
        return FetchReply(
            var=resolve_var(frame["var"], itab),
            value=frame["value"],
            write_id=decode_write_id(frame["w"]),
            server=int(frame["sv"]),
            requester=int(frame["rq"]),
            fetch_id=int(frame["fid"]),
            meta=decode_meta(frame["meta"]),
            applied=decode_meta(frame["applied"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed fetch.ok frame: {exc}") from None


# ----------------------------------------------------------------------
# one-pass wire: hot frames between message objects and bytes (see
# "One-pass path" in the module docstring)
# ----------------------------------------------------------------------
#: kinds with a one-pass decoder (and encoder); the ``wal.*`` records
#: have encoders only — they are read back at recovery, as dicts
HOT_KINDS = REPL_FRAME_KINDS + (
    "repl.ackp", "put", "put.ok", "get", "get.ok", "fetch", "fetch.ok",
)
#: the kinds only a peer link carries: they leave out what the link's
#: ``link.hello`` fixed and chain their scalars (:class:`_LinkEnd`)
LINK_KINDS = frozenset(REPL_FRAME_KINDS + ("repl.ackp", "fetch", "fetch.ok"))

#: length-prefix placeholder + schema-packed header per kind, indexed by
#: ``BinaryCodec.compact``: full (magic, schema version, tag) for the
#: plain codec's WAL records, lean (the tag alone) for connections
_HEADS = tuple(
    {kind: bytes(4) + _HDR.pack(BINARY_MAGIC, JSON_WIRE_VERSION, tag | _SCHEMA_BIT)[2 * lean :]
     for kind, tag in _FRAME_TAGS.items() if kind in _FRAME_SCHEMAS}
    for lean in (False, True)
)
#: the four repl kinds as a link spells them, likewise
_LINK_HEADS = tuple(
    {kind: heads[kind][:-1] + bytes((_LINK_TAGS.get(kind, _FRAME_TAGS[kind]) | _SCHEMA_BIT,))
     for kind in REPL_FRAME_KINDS}
    for heads in _HEADS
)


def _finish(out: bytearray) -> bytes:
    """Patch the length prefix in; the frame is complete."""
    body_len = len(out) - 4
    if body_len > MAX_FRAME_BYTES:
        raise WireError(f"frame of {body_len} bytes exceeds {MAX_FRAME_BYTES}")
    _LEN.pack_into(out, 0, body_len)
    return bytes(out)


def _pack_var(
    out: bytearray, var: Any, itab: Optional[InternTable], compact: bool
) -> None:
    if type(var) is str:
        if itab is not None:
            interned = itab._ids.get(var)
            if interned is not None:
                _pack_int(out, interned, compact)
                return
        _pack_str(out, var)
    else:
        _pack_into(out, var, compact)


def _pack_wid(out: bytearray, wid: Optional[WriteId], compact: bool) -> None:
    if wid is None:
        out.append(_T_NONE)
    elif compact:
        try:  # the varint vector the generic packer makes of [site, seq]
            site, seq = _VARINTS[wid.site], _VARINTS[wid.seq]
        except KeyError:
            _pack_into(out, [wid.site, wid.seq], compact)
        else:
            out.append(_T_VARINTS | 2)
            out += site
            out += seq
    else:
        out.append(_T_LIST)
        out.append(2)
        _pack_int(out, wid.site, compact)
        _pack_int(out, wid.seq, compact)


def encoded_kind(encoded: bytes) -> str:
    """Frame type of a pre-encoded binary frame (length prefix
    included), read back from its header tag byte."""
    tag = encoded[6] if encoded[4] == BINARY_MAGIC else encoded[4]
    return _FRAME_TYPES[tag & (_SCHEMA_BIT - 1)]


class ReplFrame(NamedTuple):
    """One link repl frame parsed off the wire but not yet decoded
    against its sender's delta chain: the server reads ``src`` / ``ls``
    to drop duplicates and gaps *before*
    :meth:`DeltaDecoder.unpack_update` touches the chain.  ``ls`` /
    ``it`` (the issue stamp, ``None`` unstamped) are already absolute;
    ``sid`` / ``fields`` are the metadata's schema row (``sid`` ``None``
    = no metadata) and ``delta`` says the row is a diff."""

    delta: bool
    var: Any
    value: Any
    wid: Optional[WriteId]
    src: int
    dst: int
    sid: Optional[int]
    fields: Any
    ls: int
    it: Optional[int]


class Ack(NamedTuple):
    """``repl.ackp``: cumulative ack and its gap to the applied
    watermark."""

    ack: int
    applied_gap: int


class Put(NamedTuple):
    var: Any
    value: Any


class PutOk(NamedTuple):
    write_id: Optional[WriteId]


class Get(NamedTuple):
    var: Any


class GetOk(NamedTuple):
    value: Any
    write_id: Optional[WriteId]
    served_by: int


def _read_value(body: bytes, pos: int) -> Tuple[Any, int]:
    if body[pos] == _T_STR:
        n = body[pos + 1]
        if n != 0xFF:
            end = pos + 2 + n
            return body[pos + 2 : end].decode("utf-8"), end
    return _unpack_from(body, pos)


def _read_var(
    body: bytes, pos: int, itab: Optional[InternTable]
) -> Tuple[Any, int]:
    tag = body[pos]
    if tag >= _T_FIXINT and itab is not None and tag - _T_FIXINT < len(itab.names):
        return itab.names[tag - _T_FIXINT], pos + 1  # an interned id, nearly always
    var, pos = _read_value(body, pos)
    return (resolve_var(var, itab) if type(var) is int else var), pos


def _read_wid(body: bytes, pos: int) -> Tuple[Optional[WriteId], int]:
    tag = body[pos]
    if tag == _T_NONE:
        return None, pos + 1
    if tag == _T_VARINTS | 2:
        # nearly always a one-byte site and a one- or two-byte seq
        site, u = body[pos + 1], body[pos + 2]
        if site < 0x80:
            if u < 0x80:
                return WriteId(_UNZIGZAG[site], _UNZIGZAG[u]), pos + 3
            byte = body[pos + 3]
            if byte < 0x80:
                u = u & 0x7F | byte << 7
                return WriteId(_UNZIGZAG[site], (u >> 1) ^ -(u & 1)), pos + 4
        (site, seq), pos = _read_varints(body, pos)
        return WriteId(site, seq), pos
    if tag == _T_LIST and body[pos + 1] == 2:
        site, pos = _read_int(body, pos + 2)
        seq, pos = _read_int(body, pos)
        return WriteId(site, seq), pos
    value, pos = _unpack_from(body, pos)
    return decode_write_id(value), pos


def _read_meta(body: bytes, pos: int) -> Tuple[Any, int]:
    sid, values, pos = _read_fields(body, pos)
    return (None if sid is None else _build_meta(sid, values)), pos


def _read_repl(
    body: bytes, pos: int, itab: Optional[InternTable], link: "_LinkEnd",
    delta: bool, stamped: bool,
) -> ReplFrame:
    var, pos = _read_var(body, pos, itab)
    value, pos = _read_value(body, pos)
    wid, pos = _read_wid(body, pos)
    sid, fields, pos = _read_fields(body, pos)
    ls, pos = _read_int(body, pos)
    it = None
    if stamped:
        it, pos = _read_int(body, pos)
    if pos != len(body):
        raise _trailing(body, pos)
    # the whole frame parsed: only now may the link's chain advance
    ls = link._last_ls = link._last_ls + ls
    if stamped:
        it = link._last_it = link._last_it + it
    return ReplFrame(delta, var, value, wid, link.src, link.dst, sid, fields, ls, it)


def _read_ack(body: bytes, pos: int, itab: Any, link: "_LinkEnd") -> Ack:
    ack, pos = _read_int(body, pos)
    applied_gap, pos = _read_int(body, pos)
    if pos != len(body):
        raise _trailing(body, pos)
    ack = link._last_ack = link._last_ack + ack
    return Ack(ack, applied_gap)


def _read_put(body: bytes, pos: int, itab: Optional[InternTable]) -> Put:
    var, pos = _read_var(body, pos, itab)
    value, pos = _read_value(body, pos)
    if pos != len(body):
        raise _trailing(body, pos)
    return Put(var, value)


def _read_put_ok(body: bytes, pos: int, itab: Any) -> PutOk:
    wid, pos = _read_wid(body, pos)
    if pos != len(body):
        raise _trailing(body, pos)
    return PutOk(wid)


def _read_get(body: bytes, pos: int, itab: Optional[InternTable]) -> Get:
    var, pos = _read_var(body, pos, itab)
    if pos != len(body):
        raise _trailing(body, pos)
    return Get(var)


def _read_get_ok(body: bytes, pos: int, itab: Any) -> GetOk:
    value, pos = _read_value(body, pos)
    wid, pos = _read_wid(body, pos)
    by, pos = _read_int(body, pos)
    if pos != len(body):
        raise _trailing(body, pos)
    return GetOk(value, wid, by)


def _read_fetch(
    body: bytes, pos: int, itab: Optional[InternTable], link: "_LinkEnd"
) -> FetchRequest:
    var, pos = _read_var(body, pos, itab)
    fid, pos = _read_int(body, pos)
    deps, pos = _read_meta(body, pos)
    if pos != len(body):
        raise _trailing(body, pos)
    return FetchRequest(var, link.src, link.dst, fid, deps)


def _read_fetch_ok(
    body: bytes, pos: int, itab: Optional[InternTable], link: "_LinkEnd"
) -> FetchReply:
    var, pos = _read_var(body, pos, itab)
    value, pos = _read_value(body, pos)
    wid, pos = _read_wid(body, pos)
    fid, pos = _read_int(body, pos)
    meta, pos = _read_meta(body, pos)
    applied, pos = _read_meta(body, pos)
    if pos != len(body):
        raise _trailing(body, pos)
    return FetchReply(var, value, wid, link.dst, link.src, fid, meta, applied)


def _trailing(body: bytes, pos: int) -> WireError:
    return WireError(f"binary frame has {len(body) - pos} trailing bytes")


#: schema-packed header tag byte -> (kind, reader); a hot kind that
#: arrives map-shaped or as a self-contained ``repl`` (legal, never
#: emitted) has no entry: it takes the dict path like any other frame.
#: The :data:`LINK_KINDS` readers also take the link the frame is on
_READERS: Dict[int, Tuple[str, Any]] = {
    _LINK_TAGS.get(kind, _FRAME_TAGS[kind]) | _SCHEMA_BIT: (
        kind, reader, kind in LINK_KINDS
    )
    for kind, reader in (
        ("repl", lambda b, p, t, k: _read_repl(b, p, t, k, False, False)),
        ("repl.t", lambda b, p, t, k: _read_repl(b, p, t, k, False, True)),
        ("repl.delta", lambda b, p, t, k: _read_repl(b, p, t, k, True, False)),
        ("repl.delta.t", lambda b, p, t, k: _read_repl(b, p, t, k, True, True)),
        ("repl.ackp", _read_ack),
        ("put", _read_put),
        ("put.ok", _read_put_ok),
        ("get", _read_get),
        ("get.ok", _read_get_ok),
        ("fetch", _read_fetch),
        ("fetch.ok", _read_fetch_ok),
    )
}
assert sorted(kind for kind, _, _ in _READERS.values()) == sorted(HOT_KINDS)


def decode_message(
    body: bytes, itab: Optional[InternTable] = None, link: Optional["_LinkEnd"] = None
) -> Any:
    """Decode one frame body in one pass where its kind allows.

    A schema-packed binary body of a hot kind comes back as the message
    it carries — a :class:`ReplFrame`, an :class:`Ack`, :class:`Put` /
    :class:`PutOk` / :class:`Get` / :class:`GetOk`, a
    :class:`~repro.core.messages.FetchRequest` or ``FetchReply`` — with
    interned variable ids resolved against ``itab`` (the table this
    side advertised, or learnt, at the connection's handshake) and, for
    the :data:`LINK_KINDS`, what the frame leaves out restored from
    ``link`` (this end's chain, whose scalars advance; with no link the
    frame is refused).  Every other body is :func:`decode_body`'s frame
    dict (``link.restore`` does the same for it), a self-contained repl
    frame annotated with its wire bytes under ``_raw``, so a caller
    dispatches on the type of what it gets.  Malformed input raises
    :class:`WireError`, whatever the path.
    """
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    # a lean body opens with its tag; a full header puts it third
    entry, pos = (_READERS.get(body[0]), 1) if body else (None, 0)
    if entry is None and len(body) > 2 and body[0] == BINARY_MAGIC:
        entry, pos = _READERS.get(body[2]), 3
        if entry is not None and body[1] != JSON_WIRE_VERSION:
            _check_version(body[1])
    if entry is None:
        return decode_annotated(body)
    try:
        if not entry[2]:
            return entry[1](body, pos, itab)
        if link is None:
            raise WireError(
                f"{entry[0]} frame on a connection no link.hello opened"
            )
        return entry[1](body, pos, itab, link)
    except (
        IndexError, KeyError, TypeError, ValueError, OverflowError,
        struct.error, UnicodeDecodeError,
    ) as exc:
        raise WireError(f"undecodable {entry[0]} frame body: {exc}") from None


__all__ = [
    "WIRE_VERSION",
    "JSON_WIRE_VERSION",
    "unsupported_version",
    "field",
    "INTERN_TABLE_MAX",
    "intern_table_names",
    "InternTable",
    "resolve_var",
    "DeltaEncoder",
    "DeltaDecoder",
    "BINARY_MAGIC",
    "MAX_FRAME_BYTES",
    "RETRIABLE",
    "REPL_FRAME_KINDS",
    "strip_issue",
    "issue_age_ms",
    "JsonCodec",
    "BinaryCodec",
    "JSON_CODEC",
    "BINARY_CODEC",
    "BINARY_CODEC_V4",
    "codec_for",
    "encode_frame",
    "decode_body",
    "decode_annotated",
    "decode_message",
    "encoded_kind",
    "HOT_KINDS",
    "LINK_KINDS",
    "ReplFrame",
    "Ack",
    "Put",
    "PutOk",
    "Get",
    "GetOk",
    "frame_length",
    "delimiter",
    "read_delimiter",
    "make_frame",
    "err_frame",
    "encode_write_id",
    "decode_write_id",
    "encode_meta",
    "decode_meta",
    "encode_update",
    "decode_update",
    "encode_fetch_request",
    "decode_fetch_request",
    "encode_fetch_reply",
    "decode_fetch_reply",
]

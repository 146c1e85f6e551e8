"""GIOP message framing (General Inter-ORB Protocol, 1.0 subset).

Every GIOP message travels as one VLink message whose payload is
``(header_bytes, body)`` — keeping the 12-byte header physically
separate from the body lets the zero-copy marshalling path hand body
segments straight to the (simulated) NIC without a size-patching copy.
The body may be contiguous ``bytes`` or a :class:`~repro.corba.cdr.
WireBuffer` segment list; both carry an O(1) ``len()``, so framing and
sizing never force a join.
"""

from __future__ import annotations

import struct

from repro.corba.cdr import CdrError, CdrInputStream, CdrOutputStream, \
    WireBuffer

MAGIC = b"GIOP"

# message types (GIOP 1.0)
MSG_REQUEST = 0
MSG_REPLY = 1
MSG_CANCEL_REQUEST = 2
MSG_LOCATE_REQUEST = 3
MSG_LOCATE_REPLY = 4
MSG_CLOSE_CONNECTION = 5
MSG_ERROR = 6

# reply statuses
REPLY_NO_EXCEPTION = 0
REPLY_USER_EXCEPTION = 1
REPLY_SYSTEM_EXCEPTION = 2
REPLY_LOCATION_FORWARD = 3

HEADER_SIZE = 12

#: the general protocol engine pays its full per-invocation cost
OVERHEAD_SCALE = 1.0

#: protocol name advertised in connection setup
NAME = "giop"


#: magic, version major/minor, flags, message type, body size — one
#: compiled layout per byte order (flag bit 0 picks it)
_HEADER_LE = struct.Struct("<4sBBBBI")
_HEADER_BE = struct.Struct(">4sBBBBI")


def pack_header(msg_type: int, body_size: int,
                little_endian: bool = True) -> bytes:
    """The 12-byte GIOP 1.0 message header."""
    if little_endian:
        return _HEADER_LE.pack(MAGIC, 1, 0, 1, msg_type, body_size)
    return _HEADER_BE.pack(MAGIC, 1, 0, 0, msg_type, body_size)


def parse_header(header: bytes) -> tuple[int, int, bool, tuple[int, int]]:
    """Returns ``(msg_type, body_size, little_endian, version)``."""
    if len(header) != HEADER_SIZE or header[:4] != MAGIC:
        raise CdrError(f"bad GIOP header: {header!r}")
    little = bool(header[6] & 1)
    _magic, major, minor, _flags, msg_type, size = \
        (_HEADER_LE if little else _HEADER_BE).unpack(header)
    return msg_type, size, little, (major, minor)


def start_request(out: CdrOutputStream, request_id: int, object_key: str,
                  operation: str, response_expected: bool,
                  principal: str = "") -> None:
    """Write the GIOP Request header into ``out`` (args follow).

    ``principal`` carries the caller identity (GIOP 1.0's requesting
    principal) — the hook the deployment layer's grid-wide
    authentication builds on."""
    out.write_ulong(0)  # empty ServiceContextList
    out.write_ulong(request_id)
    out.write_primitive("boolean", response_expected)
    out.write_string(object_key)
    out.write_string(operation)
    data = principal.encode("utf-8")
    out.write_ulong(len(data))
    if data:
        out.write_bulk(data)


def read_request(inp: CdrInputStream) -> tuple[int, bool, str, str, str]:
    """Returns ``(request_id, response_expected, object_key, operation,
    principal)``."""
    ncontexts = inp.read_ulong()
    if ncontexts != 0:
        raise CdrError("service contexts are not supported")
    request_id = inp.read_ulong()
    response_expected = inp.read_primitive("boolean")
    object_key = inp.read_string()
    operation = inp.read_string()
    principal_len = inp.read_ulong()
    try:
        principal = inp.read_bulk_copy(principal_len).decode("utf-8") \
            if principal_len else ""
    except UnicodeDecodeError as exc:
        raise CdrError(f"principal is not UTF-8: {exc}") from None
    return request_id, response_expected, object_key, operation, principal


def start_reply(out: CdrOutputStream, request_id: int, status: int) -> None:
    """Write the GIOP Reply header into ``out`` (results follow)."""
    out.write_ulong(0)  # empty ServiceContextList
    out.write_ulong(request_id)
    out.write_ulong(status)


def read_reply(inp: CdrInputStream) -> tuple[int, int]:
    """Returns ``(request_id, reply_status)``."""
    ncontexts = inp.read_ulong()
    if ncontexts != 0:
        raise CdrError("service contexts are not supported")
    return inp.read_ulong(), inp.read_ulong()


def frame(msg_type: int, body: bytes | WireBuffer,
          little_endian: bool = True) -> tuple[bytes, bytes | WireBuffer]:
    """Build the ``(header, body)`` wire payload for one message.

    ``body`` is forwarded as-is: a :class:`WireBuffer` keeps its
    reference segments all the way to delivery."""
    return pack_header(msg_type, len(body), little_endian), body


def message_size(payload: tuple[bytes, bytes | WireBuffer]) -> int:
    header, body = payload
    return len(header) + len(body)

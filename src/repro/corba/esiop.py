"""ESIOP: an Environment-Specific Inter-ORB Protocol for PadicoTM.

The paper (§4.4): "The latency is 11 µs for MPI and 20 µs for omniORB.
This latency could be lowered if we used a specific protocol (called
ESIOP) instead of the general GIOP protocol in the CORBA
implementation."  This module implements that improvement: since both
ends are known to live inside one PadicoTM grid, the envelope drops
everything GIOP carries for the open Internet —

- 8-byte header (``ESIO`` magic, version+flags+type packed, size)
  instead of 12;
- no ServiceContextList, no Principal;
- fixed little-endian encoding (no per-message byte-order negotiation);

and, more importantly for latency, the protocol engine skips the
generality of the GIOP state machine: per-invocation ORB software
overhead shrinks by :data:`OVERHEAD_SCALE`.

The module exposes the same surface as :mod:`repro.corba.giop`, so the
ORB treats the wire protocol as a pluggable namespace.
"""

from __future__ import annotations

import struct

from repro.corba.cdr import CdrError, CdrInputStream, CdrOutputStream, \
    WireBuffer

MAGIC = b"ESIO"

MSG_REQUEST = 0
MSG_REPLY = 1
MSG_CLOSE_CONNECTION = 5

REPLY_NO_EXCEPTION = 0
REPLY_USER_EXCEPTION = 1
REPLY_SYSTEM_EXCEPTION = 2

HEADER_SIZE = 8

#: fraction of the GIOP protocol-engine cost the specialised engine
#: still pays per invocation (calibrated: omniORB one-way 20 µs → 16 µs)
OVERHEAD_SCALE = 0.55

#: protocol name advertised in connection setup
NAME = "esiop"


#: body size is carried in 3 bytes → one ESIOP message caps at 16 MB-1;
#: larger payloads are legal GIOP territory (the ORB fragments or the
#: application chunks — our benches stay under the cap per message)
MAX_BODY = (1 << 24) - 1

#: magic, then version and type in one byte, then the body size as a
#: little-endian word whose top byte the header drops (pack) or pads
#: (parse)
_HEADER = struct.Struct("<4sBI")


def pack_header(msg_type: int, body_size: int,
                little_endian: bool = True) -> bytes:
    """Compact 8-byte header: magic(4) | ver:4,type:4 (1) | size (3),
    version 1."""
    if not little_endian:
        raise CdrError("ESIOP is little-endian only")
    if body_size > MAX_BODY:
        raise CdrError(f"ESIOP body too large: {body_size} > {MAX_BODY}")
    packed = (1 << 4) | (msg_type & 0x0F)
    return _HEADER.pack(MAGIC, packed, body_size)[:HEADER_SIZE]


def parse_header(header: bytes) -> tuple[int, int, bool, tuple[int, int]]:
    if len(header) != HEADER_SIZE or header[:4] != MAGIC:
        raise CdrError(f"bad ESIOP header: {header!r}")
    _magic, packed, size = _HEADER.unpack(header + b"\x00")
    return packed & 0x0F, size, True, (packed >> 4, 0)


def start_request(out: CdrOutputStream, request_id: int, object_key: str,
                  operation: str, response_expected: bool,
                  principal: str = "") -> None:
    """Compact request header: id, flags, key, operation, principal.
    No service contexts."""
    out.write_ulong(request_id)
    out.write_primitive("boolean", response_expected)
    out.write_string(object_key)
    out.write_string(operation)
    out.write_string(principal)


def read_request(inp: CdrInputStream) -> tuple[int, bool, str, str, str]:
    request_id = inp.read_ulong()
    response_expected = inp.read_primitive("boolean")
    object_key = inp.read_string()
    operation = inp.read_string()
    principal = inp.read_string()
    return request_id, response_expected, object_key, operation, principal


def start_reply(out: CdrOutputStream, request_id: int, status: int) -> None:
    out.write_ulong(request_id)
    out.write_octet(status)


def read_reply(inp: CdrInputStream) -> tuple[int, int]:
    return inp.read_ulong(), inp.read_octet()


def frame(msg_type: int, body: bytes | WireBuffer,
          little_endian: bool = True) -> tuple[bytes, bytes | WireBuffer]:
    # a WireBuffer body is forwarded by reference; len() is O(1) either
    # way, so the MAX_BODY check inside pack_header never joins
    return pack_header(msg_type, len(body), little_endian), body


def message_size(payload: tuple[bytes, bytes | WireBuffer]) -> int:
    header, body = payload
    return len(header) + len(body)
